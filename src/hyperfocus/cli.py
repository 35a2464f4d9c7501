"""Command-line front end: search, verify, construct, classify, field-dump.

Summary output is machine-greppable key=value lines.  Exit codes follow
sysexits where applicable: 0 success, 1 failed verification (including
an internal search stage rejecting its predecessor's output), 2
checkpoint-config mismatch, 64 usage error, 65 malformed input data,
74 I/O error.

`search` writes a record's claims with `search.record_claims`; `verify`
compares each stored claim with it and `construct` emits k, focus_count
and digest from it.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from hyperfocus.arcs import (
    ArcError,
    are_arcs,
    classify_focus,
    diagonal_lines,
    double_translation_arc,
    additive_closure,
    focus_verdict,
    is_exterior,
    stacks_by_size,
    translation_arc,
    translation_hyperoval,
)
from hyperfocus.canon import canonical_forms, digest
# hyperconic_witness is not called here: it is imported for the benchmark's
# tracer (bench/run.py), which wraps it by name, as it wraps classify_focus
from hyperfocus.conics import hyperconic_witness  # noqa: F401
from hyperfocus.field import GF, FieldError, make_field
from hyperfocus.plane import LINE_AT_INFINITY, Line, all_lines, dots, indexed_points, point_indices
from hyperfocus.search import (
    CLAIMS,
    COUNTER_KEYS,
    CheckpointMismatch,
    SearchConfig,
    SearchError,
    VerificationError,
    record_claims,
    run_search,
)

EX_OK = 0
EX_FAIL = 1
EX_CHECKPOINT = 2
EX_USAGE = 64
EX_DATA = 65
EX_IO = 74


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise UsageError(message)


def parse_felt(gf: GF, text: str) -> int:
    """Field element literal: decimal, 0x hex, or w^k power notation."""
    t = text.strip()
    if t in ("w", "W"):
        return gf.omega
    m = re.fullmatch(r"[wW]\^(-?\d+)", t)
    if m:
        return gf.element(int(m.group(1)))
    try:
        v = int(t, 0)
    except ValueError:
        raise UsageError(f"bad field element {text!r}") from None
    if not 0 <= v < gf.q:
        raise UsageError(f"element {text!r} outside GF(2^{gf.s})")
    return v


def parse_pairs(gf: GF, text: str) -> List[Tuple[int, int]]:
    """Semicolon-separated list of (x,y) pairs of field elements."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        m = re.fullmatch(r"\(([^,()]+),([^,()]+)\)", chunk)
        if not m:
            raise UsageError(f"bad pair {chunk!r}, expected (x,y)")
        out.append((parse_felt(gf, m.group(1)), parse_felt(gf, m.group(2))))
    return out


def _field_from_args(args) -> GF:
    modulus = None
    if args.modulus is not None:
        try:
            modulus = int(args.modulus, 0)
        except ValueError:
            raise UsageError(f"bad modulus {args.modulus!r}") from None
    try:
        return make_field(args.s, modulus)
    except FieldError as exc:
        raise UsageError(str(exc)) from None


def load_records(path: str) -> List[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    records = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {i + 1}: not valid JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise DataError(f"line {i + 1}: record is not an object")
        records.append(rec)
    return records


def _record_field(records: Sequence[dict]) -> GF:
    specs = set()
    for i, rec in enumerate(records):
        try:
            q = rec["q"]
            modulus = int(rec["modulus"], 0)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"record {i}: missing or bad q/modulus: {exc}") from None
        if type(q) is not int:  # not a float, a string or a boolean
            raise DataError(f"record {i}: q {q!r} is not a JSON integer")
        specs.add((q, modulus))
    if len(specs) != 1:
        raise DataError(f"records span several fields: {sorted(specs)}")
    q, modulus = specs.pop()
    s = q.bit_length() - 1
    if q < 1 or 1 << s != q:
        raise DataError(f"q={q} is not a power of two")
    try:
        return make_field(s, modulus)
    except FieldError as exc:
        raise DataError(str(exc)) from None


def _record_triple(gf: GF, v, i: int, what: str) -> List[int]:
    """A stored point or line: three field elements (JSON integers, not
    booleans), not all zero; returned as stored."""
    if (
        not isinstance(v, list)
        or len(v) != 3
        or not all(type(x) is int and 0 <= x < gf.q for x in v)
    ):
        raise DataError(f"record {i}: bad {what} {v!r}")
    if v == [0, 0, 0]:
        raise DataError(f"record {i}: zero triple")
    return v


def _record_points(gf: GF, rec: dict, i: int) -> List[List[int]]:
    pts = rec.get("points")
    if not isinstance(pts, list) or not pts:
        raise DataError(f"record {i}: missing points")
    return [_record_triple(gf, p, i, "point") for p in pts]


def _scaled_lines(gf: GF, triples: Sequence[List[int]]) -> List[Line]:
    """Each checked line triple, scaled: one array call for the list."""
    stack = np.array(triples, dtype=np.int64).reshape(-1, 3)
    return list(map(tuple, indexed_points(gf, point_indices(gf, stack)).tolist()))


# ---------------------------------------------------------------------------
# subcommands

def cmd_search(args) -> int:
    gf = _field_from_args(args)
    cpus = os.cpu_count()
    if cpus is not None and args.workers > cpus:
        warning = f"warning: --workers={args.workers} exceeds the {cpus} CPUs of this machine"
        print(warning, file=sys.stderr)
    config = SearchConfig(
        workers=args.workers,
        checkpoint=args.checkpoint,
        output=args.out,
        max_shards=args.max_shards,
        progress=args.progress,
    )
    report = run_search(gf, args.k, config)
    print(
        f"search k={report.k} q={report.q} modulus={hex(report.modulus)} "
        f"bounds={report.bounds[0]}..{report.bounds[1]} workers={args.workers}"
    )
    if report.experimental:
        print("experimental=true  # only k=12 and k=14 are validated")
    print(" ".join(f"{key}={report.counters[key]}" for key in COUNTER_KEYS))
    if not report.completed:
        print(f"partial=true cursor={report.cursor} shards_done_upto={report.cursor}")
        return EX_OK
    hyper = sum(1 for rec in report.records if rec["hyperconic"])
    out = f" output={report.output}" if report.output else ""
    print(
        f"found={len(report.found)} hyperconic={hyper}/{len(report.found)} "
        f"elapsed={report.elapsed:.1f}s" + out
    )
    if report.discrepancy:
        print(f"discrepancy: {report.discrepancy}")
        return EX_FAIL
    return EX_OK


def cmd_verify(args) -> int:
    records = load_records(args.input)
    if not records:
        print("verified=0/0")
        return EX_OK
    gf = _record_field(records)
    point_sets, stored = [], {}
    for i, rec in enumerate(records):
        point_sets.append(_record_points(gf, rec, i))
        if "line" in rec:
            stored[i] = _record_triple(gf, rec["line"], i, "line")
    stored = dict(zip(stored, _scaled_lines(gf, list(stored.values()))))
    # a non-arc claims only its size; an arc's claims are taken on its
    # stored line, else on the diagonal line of a 4-arc, else on Z = 0
    derived: Dict[int, dict] = {}
    for idx, stack in stacks_by_size(point_sets):
        stack = indexed_points(gf, point_indices(gf, stack))  # the witness takes points as given
        ok = are_arcs(gf, stack)
        proven, arcs = list(itertools.compress(idx, ok)), stack[ok]
        lines = diagonal_lines(gf, arcs) if stack.shape[1] == 4 else [LINE_AT_INFINITY] * len(arcs)
        lines = [stored.get(i) or line for i, line in zip(proven, lines)]
        derived.update(zip(proven, record_claims(gf, arcs, lines)))
    ok_count = 0
    for i, (rec, pts) in enumerate(zip(records, point_sets)):
        claims = derived.get(i, dict.fromkeys(CLAIMS) | {"k": len(pts)})
        k, size, hyper = claims["k"], claims["focus_count"], claims["hyperconic"]
        # as JSON text, so that 12.0 is not 12 and 1 is not true
        failed = [c for c in CLAIMS if c in rec and json.dumps(rec[c]) != json.dumps(claims[c])]
        ok = size == k - 1 and not failed
        ok_count += ok
        print(
            f"arc={i} k={k} is_arc={str(i in derived).lower()} focus={size or 0} "
            f"verdict={'-' if size is None else focus_verdict(k, size)} "
            f"hyperconic={'-' if hyper is None else str(hyper).lower()} "
            f"failed={','.join(failed) or '-'} ok={str(ok).lower()}"
        )
    print(f"verified={ok_count}/{len(records)}")
    return EX_OK if ok_count == len(records) else EX_FAIL


def cmd_construct(args) -> int:
    gf = _field_from_args(args)
    lines = [LINE_AT_INFINITY]
    if args.kind == "translation":
        if not args.gens:
            raise UsageError("translation needs --gens \"(x,y);(x,y)...\"")
        group = additive_closure(gf, parse_pairs(gf, args.gens))
        try:
            arc = translation_arc(gf, group)
        except ArcError as exc:
            raise UsageError(f"generators do not induce an arc: {exc}") from None
    elif args.kind == "double":
        if not args.gens or not args.shift:
            raise UsageError("double needs --gens and --shift")
        group = additive_closure(gf, parse_pairs(gf, args.gens))
        shifts = parse_pairs(gf, args.shift)
        if len(shifts) != 1:
            raise UsageError("double needs exactly one --shift pair")
        try:
            _, arc = double_translation_arc(gf, group, shifts[0])
        except ArcError as exc:
            raise UsageError(f"doubling failed: {exc}") from None
    else:  # "hyperoval", the last of argparse's choices
        if args.i is None or args.i == 0:
            raise UsageError("hyperoval needs --i >= 1 with gcd(i, s) = 1")
        try:
            arc = translation_hyperoval(gf, args.i)
        except ArcError as exc:
            raise UsageError(str(exc)) from None
        # a hyperoval is hyperfocused on every exterior line: sample five
        lines = list(itertools.islice((m for m in all_lines(gf) if is_exterior(gf, arc, m)), 5))

    for line in lines:
        if classify_focus(gf, arc, line)[1] != len(arc) - 1:
            raise DataError(f"construction is not hyperfocused on the line {line}")
    (claims,) = record_claims(gf, [arc], lines[:1])
    rec: Dict[str, object] = {
        "q": gf.q,
        "modulus": hex(gf.modulus),
        "points": [list(p) for p in arc],
        "construction": args.kind,
        "line": list(lines[0]),
        **{c: claims[c] for c in ("k", "focus_count", "digest")},
    }
    if args.kind == "hyperoval":
        rec["sampled_exterior_lines"] = len(lines)
    line_out = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(line_out + "\n")
    print(line_out)
    return EX_OK


def cmd_classify(args) -> int:
    records = load_records(args.input)
    if not records:
        print("classes=0 arcs=0")
        return EX_OK
    gf = _record_field(records)
    lines = set(_scaled_lines(gf, [
        _record_triple(gf, rec["line"], i, "line") for i, rec in enumerate(records) if "line" in rec
    ]))
    if lines - {LINE_AT_INFINITY}:
        raise DataError(f"records carry mixed focus lines: {sorted(lines)}")
    # the first failing record, in file order, is the one reported
    point_sets = []
    bad_points = None
    for i, rec in enumerate(records):
        try:
            point_sets.append(_record_points(gf, rec, i))
        except DataError as exc:
            bad_points = exc
            break
    # per size group, the scaled arcs sorted by rank, one row per point set
    failures, groups = [], []
    for idx, stack in stacks_by_size(point_sets):
        ranks = np.sort(point_indices(gf, stack), axis=1)
        stack = indexed_points(gf, ranks)
        no_arc = ~np.array(are_arcs(gf, stack))
        meets = (dots(gf, stack, np.array(LINE_AT_INFINITY)) == 0).any(1)
        for r in np.flatnonzero(no_arc | meets | (stack.shape[1] < 3))[:1].tolist():
            why = "meets the focus line" if meets[r] else "has fewer than 3 points"
            failures.append((idx[r], "is not an arc" if no_arc[r] else why))
        rows = dict(zip(map(bytes, ranks), itertools.count()))  # one per rank row
        groups.append(stack[list(rows.values())])
    if failures:
        raise DataError("record {} {}".format(*min(failures)))
    if bad_points is not None:
        raise bad_points
    forms = [form for stack in groups for form in canonical_forms(gf, stack)]
    sizes = collections.Counter(forms)
    print(f"classes={len(sizes)} arcs={len(forms)}")
    for ci, form in enumerate(sorted(sizes)):
        print(f"class={ci} size={sizes[form]} digest={digest(form)}")
    return EX_OK


def cmd_field_dump(args) -> int:
    gf = _field_from_args(args)
    print(f"s={gf.s} q={gf.q} modulus={hex(gf.modulus)} omega={gf.omega}")
    for i in range(gf.q - 1):
        v = gf.element(i)
        print(f"i={i} w^i={v} hex={v:#x}")
    return EX_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="hyperfocus", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_field_args(sp):
        sp.add_argument("--s", type=int, required=True, help="field degree")
        sp.add_argument("--modulus", default=None, help="irreducible polynomial")

    sp = sub.add_parser("search", help="run the classification pipeline")
    add_field_args(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--checkpoint", default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--max-shards", type=int, default=None)
    sp.add_argument("--progress", action="store_true")

    sp = sub.add_parser("verify", help="re-check stored arc records")
    sp.add_argument("input")

    sp = sub.add_parser("construct", help="emit a known construction")
    add_field_args(sp)
    sp.add_argument("kind", choices=("translation", "double", "hyperoval"))
    sp.add_argument("--gens", default=None)
    sp.add_argument("--shift", default=None)
    sp.add_argument("--i", type=int, default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("classify", help="group stored arcs into classes")
    sp.add_argument("input")

    sp = sub.add_parser("field-dump", help="print the field's power table")
    add_field_args(sp)
    return p


@functools.cache
def _parser() -> _Parser:
    """The one parser of the process: building it costs about a
    millisecond, and parse_args keeps no state between calls."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # the names are read per call, so a wrapped cmd_* is the one run
        handlers = {
            "search": cmd_search,
            "verify": cmd_verify,
            "construct": cmd_construct,
            "classify": cmd_classify,
            "field-dump": cmd_field_dump,
        }
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EX_DATA
    except CheckpointMismatch as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return EX_CHECKPOINT
    except VerificationError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EX_FAIL
    except SearchError as exc:
        print(f"search error: {exc}", file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EX_IO


if __name__ == "__main__":
    sys.exit(main())
