#!/usr/bin/env python3
"""Planted faults: which one-line faults in the package the tests kill.

    python3 tests/faults.py              # every fault
    python3 tests/faults.py NAME ...     # the named faults
    python3 tests/faults.py --list       # names, lines and tests

Each fault replaces one line of the package, found by its exact text, in
a copy of the repository's src/, tests/ and results/ in a temporary
directory, and runs the fault's tests there with pytest.  A fault is
killed when one of its tests fails.  The named tests are first run once
on the unfaulted copy, so a kill is never a test that fails anyway.

One line per fault is printed: killed, survived, or a known survivor
with the reason the tests cannot see it.  The exit status is 1 when a
fault that should be killed survives, when a known survivor is killed
(its reason no longer holds), or when a fault's line is not found
exactly once (the fault list is stale); otherwise 0.  Each fault costs
one pytest run, so this is not part of the Tier-1 suite.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "results", "pyproject.toml")


class Fault(NamedTuple):
    name: str
    path: str  # relative to the repository root
    line: str  # the exact line, without its indentation
    faulty: str  # what replaces it, without indentation
    tests: Tuple[str, ...]  # pytest node ids, relative to the repository root
    survives: Optional[str] = None  # why the tests cannot kill it, if they cannot


SEARCH = "src/hyperfocus/search.py"
ARCS = "src/hyperfocus/arcs.py"
CLI = "src/hyperfocus/cli.py"
EXTENSION_TESTS = (
    "tests/test_search.py::test_column_pairs_needs_distinct_directions",
    "tests/test_search.py::test_column_pairs_focus_bound_is_strict",
    "tests/test_search.py::test_extension_oracle_matches_closure",
    "tests/test_search.py::test_closure_matches_hyperoval_oracle_q16",
    "tests/test_search.py::test_extend_grid_worked_example",
    "tests/test_search.py::test_process_shard_pins_q32",
)
# the stream's focus word, the lemma filter on it, and the census mask built from it
WORD_TESTS = (
    "tests/test_search.py::test_prune8_on_a_stream_survivor",
    "tests/test_search.py::test_stream_matches_census_every_shard",
    "tests/test_search.py::test_stream_matches_census_on_random_pairs_q32",
    "tests/test_search.py::test_batched_census_matches_oracle",
    "tests/test_search.py::test_no_stream_eight_arc_has_eight_focuses",
    "tests/test_search.py::test_process_shard_batches_every_survivor",
    "tests/test_search.py::test_process_shard_extends_only_k_minus_1_focuses",
    "tests/test_search.py::test_survivors_below_k_minus_1_focuses_are_no_roots",
    "tests/test_search.py::test_process_shard_pins_q32",
)

FAULTS = (
    Fault(
        "extension-arc-check-dropped",
        SEARCH,
        "arcs = np.flatnonzero(are_arcs(gf, blk))",
        "arcs = np.arange(len(blk))",
        EXTENSION_TESTS,
    ),
    Fault(
        "extension-keeps-k-focuses",
        SEARCH,
        "keep[i + arcs] = [n == k - 1 for _, n in verdicts]",
        "keep[i + arcs] = [n in (k - 1, k) for _, n in verdicts]",
        EXTENSION_TESTS,
        "no candidate the tests reach is an arc with exactly k focuses: all 72,870 arcs"
        " among the q=16, k=16 candidates of every shard have 15, and the q=32 shards"
        " hold no 12-point candidate with 12 focuses, so the two verdicts agree",
    ),
    Fault(
        "extension-skips-a-free-column",
        SEARCH,
        "for pick in itertools.combinations(cols, (k - 8) // 2):",
        "for pick in itertools.combinations(cols[1:], (k - 8) // 2):",
        EXTENSION_TESTS,
    ),
    Fault(
        "early-exit-needs-one-more-column",
        SEARCH,
        "hit = np.flatnonzero(n_free >= n_pairs)",
        "hit = np.flatnonzero(n_free > n_pairs)",
        EXTENSION_TESTS,
    ),
    Fault(
        "stream-word-keeps-only-g",
        SEARCH,
        "return n910, row, gs[row, si[p]], gs[row, sj[p]], packed[row, si[p]] | packed[row, sj[p]]",
        "return n910, row, gs[row, si[p]], gs[row, sj[p]], packed[row, si[p]]",
        WORD_TESTS,
    ),
    Fault(
        "lemma-filter-wants-k-focuses",
        SEARCH,
        'survivors = survivors[np.bitwise_count(survivors.view(np.ndarray)["w"]) == k - 2]',
        'survivors = survivors[np.bitwise_count(survivors.view(np.ndarray)["w"]) == k - 1]',
        WORD_TESTS,
    ),
    Fault(
        "census-mask-drops-vertical",
        SEARCH,
        'fmask = fields["w"] | np.uint64(1 << tab.q)',
        'fmask = fields["w"].astype(np.uint64)',
        WORD_TESTS,
    ),
    Fault(
        "stacks-take-any-point-length",
        ARCS,
        "if set(map(len, pts)) - {3}:",
        "if not pts:",
        ("tests/test_arcs.py::test_stacks_by_size_builds_flat_stacks_of_triples",),
    ),
    Fault(
        "claims-ignore-exteriority",
        SEARCH,
        "for r in np.flatnonzero(~on_line.any(1)).tolist():",
        "for r in range(len(idx)):",
        (
            "tests/test_search.py::test_record_claims_match_the_per_arc_calls",
            "tests/test_cli.py::test_verify_digest_on_each_records_line",
            "tests/test_cli.py::test_read_paths_report_the_first_failing_record",
        ),
    ),
    Fault(
        "verify-claims-on-unscaled-points",
        CLI,
        "stack = indexed_points(gf, point_indices(gf, stack))  # the witness takes points as given",
        "pass",
        (
            "tests/test_cli.py::test_verify_rescaled_records",
            "tests/test_cli.py::test_verify_sixty_records_and_an_edited_digest",
        ),
    ),
    Fault(
        "construct-checks-only-the-record-line",
        CLI,
        "for line in lines:",
        "for line in lines[:1]:",
        (
            "tests/test_cli.py::test_construct_hyperoval",
            "tests/test_cli.py::test_construct_hyperoval_roundtrip_q8",
            "tests/test_cli.py::test_construct_hyperoval_derives_the_claims_once",
        ),
    ),
)


def plant(root: Path, fault: Fault) -> None:
    """Replace the fault's line in the copy under `root`, keeping its indentation."""
    path = root / fault.path
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == fault.line]
    if len(hits) != 1:
        raise LookupError(f"{len(hits)} lines of {fault.path} read {fault.line!r}")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + fault.faulty + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def run_pytest(root: Path, tests: Tuple[str, ...]) -> int:
    """pytest's exit status for the tests in the copy under `root`."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True).returncode


def copy_tree(tmp: str) -> Path:
    """Copy what the tests read into the directory `tmp`; returns it."""
    root = Path(tmp)
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, root / name)
    return root


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="faults to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the faults and exit")
    args = parser.parse_args(argv)
    known = {f.name: f for f in FAULTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown faults: {', '.join(unknown)}")
    faults = [known[n] for n in args.names] or list(FAULTS)
    if args.list:
        for f in faults:
            print(f"{f.name}: {f.path}: {f.line!r} -> {f.faulty!r}; tests: {' '.join(f.tests)}")
        return 0

    with tempfile.TemporaryDirectory(prefix="faults-") as tmp:
        tests = tuple(dict.fromkeys(t for f in faults for t in f.tests))
        if run_pytest(copy_tree(tmp), tests) != 0:
            print("the named tests fail without a fault; nothing to measure")
            return 1
    bad = 0
    for f in faults:
        with tempfile.TemporaryDirectory(prefix="faults-") as tmp:
            root = copy_tree(tmp)
            try:
                plant(root, f)
            except LookupError as exc:
                print(f"{f.name}: STALE ({exc})")
                bad += 1
                continue
            status = run_pytest(root, f.tests)
        if status not in (0, 1):
            verdict, wrong = f"ERROR (pytest exit {status})", True
        elif status == 1:
            verdict, wrong = "killed", f.survives is not None
        else:
            verdict, wrong = "survived", f.survives is None
        if f.survives is not None:
            verdict += f" (known survivor: {f.survives})"
        print(f"{f.name}: {verdict}", flush=True)
        bad += wrong
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
