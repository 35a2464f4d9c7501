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
CONICS = "src/hyperfocus/conics.py"
INIT = "src/hyperfocus/__init__.py"
EXTENSION_TESTS = (
    "tests/test_search.py::test_column_pairs_needs_distinct_directions",
    "tests/test_search.py::test_column_pairs_focus_bound_is_strict",
    "tests/test_search.py::test_completion_keeps_only_arcs",
    "tests/test_search.py::test_extension_oracle_matches_closure",
    "tests/test_search.py::test_extend_grid_worked_example",
    "tests/test_search.py::test_process_shard_pins_q32",
)
# the enumeration of the extension's admissible points from tangent slope pairs
ENUMERATION_TESTS = EXTENSION_TESTS + (
    "tests/test_search.py::test_admissible_points_match_oracle",
    "tests/test_search.py::test_tangent_words_match_oracle",
    "tests/test_search.py::test_peel_matches_flatnonzero",
    "tests/test_search.py::test_closure_mixed_batches_keep_roots",
    "tests/test_search.py::test_closure_roots_match_oracle",
)
# the stream's focus word, the lemma's focus bounds, and the census mask built from the word
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
# the k=14 tally of one-secant directions
TALLY_TESTS = (
    "tests/test_search.py::test_prune8_on_a_stream_survivor",
    "tests/test_search.py::test_batched_census_matches_oracle",
    "tests/test_search.py::test_process_shard_pins_q32",
    "tests/test_extend_manifest.py::test_extension_matches_manifest",
)
# the stream's cells, their admissibility and 7-point cut, and its (g, h) stage
STREAM_TESTS = (
    "tests/test_search.py::test_cell_pairs_match_brute_force",
    "tests/test_search.py::test_stream_engines_agree_q8",
    "tests/test_search.py::test_stream_engines_agree_q32_sampled",
    "tests/test_search.py::test_stream_matches_census_every_shard",
    "tests/test_search.py::test_stream_matches_census_on_random_pairs_q32",
    "tests/test_search.py::test_stream_chunking_keeps_survivors",
    "tests/test_stream_manifest.py::test_stream_matches_manifest",
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
        "no candidate the tests reach is an arc with exactly k focuses: the 48 candidates"
        " of every q=8 shard at k=10 and the 72 of every q=32 shard at k=12 are arcs with"
        " k - 1, k=14 has none, and the other candidates of the direct tests are no arcs,"
        " so the two verdicts agree",
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
        "roots = np.flatnonzero(np.count_nonzero(per_column >= 2, axis=1) >= (k - 8) // 2)",
        "roots = np.flatnonzero(np.count_nonzero(per_column >= 2, axis=1) > (k - 8) // 2)",
        EXTENSION_TESTS,
    ),
    Fault(
        "anchor-table-drops-the-1-a-direction",
        SEARCH,
        "bits = bits | tab.rays[xs[:, None] * q + (x ^ 1), y]  # per a",
        "bits = np.tile(bits, (q, 1))",
        ENUMERATION_TESTS,
    ),
    Fault(
        "tangent-pairs-swapped",
        SEARCH,
        "key = (m[:, 0] * q + py[rows, 3] * q * q)[:, None] + m[:, 1]",
        "key = (m[:, 1] * q + py[rows, 3] * q * q)[:, None] + m[:, 0]",
        ENUMERATION_TESTS,
    ),
    Fault(
        "tangent-word-of-0-0-keeps-a",
        SEARCH,
        "tangents = tab.rays.ravel().take(px[rows] * q + py[rows] + tab.xs[:2, None, None] * q * q)",
        "tangents = tab.rays.ravel().take(px[rows] * q + py[rows] + tab.xs[:2, None, None] * q * q)"
        "; tangents[0, :, 3] = 0",
        ENUMERATION_TESTS,
    ),
    Fault(
        "tangent-word-of-0-1-from-the-rays-of-0-0",
        SEARCH,
        "tangents = tab.rays.ravel().take(px[rows] * q + py[rows] + tab.xs[:2, None, None] * q * q)",
        "tangents = tab.rays.ravel().take(px[rows] * q + py[rows] + tab.xs[:2, None, None] * 0)",
        ENUMERATION_TESTS,
    ),
    Fault(
        "peel-one-slope-short",
        SEARCH,
        "m = _peel(~np.bitwise_or.reduce(tangents, axis=2) & w[rows], k - 8)",
        "m = _peel(~np.bitwise_or.reduce(tangents, axis=2) & w[rows], k - 9)",
        ENUMERATION_TESTS,
    ),
    Fault(
        "tally-counts-each-secant-against-itself",
        SEARCH,
        "twice = np.bitwise_or.reduce(bits[1:] & seen[:-1], axis=0)",
        "twice = np.bitwise_or.reduce(bits & seen, axis=0)",
        TALLY_TESTS,
    ),
    Fault(
        "admissible-takes-loose-words",
        SEARCH,
        "rows = np.flatnonzero(np.bitwise_count(w) == k - 2)",
        "rows = np.flatnonzero(np.bitwise_count(w) <= k - 2)",
        ENUMERATION_TESTS,
    ),
    Fault(
        "extension-takes-any-k",
        SEARCH,
        "if k not in FOCUS_BOUNDS:  # the matching lemma holds for k <= 14 only",
        "if False:",
        ("tests/test_search.py::test_closure_completions_rejects_k_outside_the_bounds",),
    ),
    Fault(
        "stream-word-keeps-only-g",
        SEARCH,
        "w = m7[i] | m7[j]",
        "w = m7[i]",
        WORD_TESTS,
    ),
    Fault(
        "stream-keeps-inadmissible-cells",
        SEARCH,
        'keep = np.unpackbits(ok.view(np.uint8), axis=1, bitorder="little").view(bool)',
        "keep = np.ones((len(p), nf * q), bool)",
        STREAM_TESTS,
    ),
    Fault(
        "pair-stage-misses-each-rows-last-cell",
        SEARCH,
        "later = np.repeat(start[1:], size) - np.arange(n) - 1  # partners right of each cell",
        "later = np.maximum(np.repeat(start[1:], size) - np.arange(n) - 2, 0)",
        STREAM_TESTS,
    ),
    Fault(
        "pair-stage-in-one-block",
        SEARCH,
        's = max(r + 1, int(np.searchsorted(before, before[r] + _CHUNK, "right")) - 1)',
        "s = len(size)",
        ("tests/test_search.py::test_stream_memory_peak_q32",),
    ),
    Fault(
        "seven-point-cut-at-hi",
        SEARCH,
        "cap = max(hi, 10) - 1  # non-vertical focuses",
        "cap = hi - 1",
        STREAM_TESTS,
    ),
    Fault(
        "stream-words-drop-g-0",
        SEARCH,
        "ok = words[d[p]] & words[e[p]]",
        "ok = words[d[p]] & words[e[p]] & ~words.dtype.type(1)",
        STREAM_TESTS,
        "bit g = 0 of a word is never set: a cell (f, 0) lies on Y = 0 through the anchors"
        " (0,0) and (1,0), so its directions to the anchors and (c, y) are never five",
    ),
    Fault(
        "focus-bounds-admit-k-2",
        SEARCH,
        "FOCUS_BOUNDS = {k: (k - 1, k - 1) for k in (10, 12, 14)}",
        "FOCUS_BOUNDS = {k: (k - 2, k - 1) for k in (10, 12, 14)}",
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
        "focus-set-dedupes-by-unique",
        ARCS,
        "foci = foci[np.diff(foci, prepend=-1) != 0]",
        "foci = np.unique(foci)",
        ("tests/test_arcs.py::test_focus_set_leaves_numpy_ma_unimported",),
    ),
    Fault(
        "stacks-take-any-point-length",
        ARCS,
        "if set(map(len, pts)) - {3}:",
        "if not pts:",
        ("tests/test_arcs.py::test_stacks_by_size_builds_flat_stacks_of_triples",),
    ),
    Fault(
        "make-arcs-reports-the-last-bad-row",
        ARCS,
        "r = int(bad[0])",
        "r = int(bad[-1])",
        (
            "tests/test_arcs.py::test_list_kernels_match_oracles",
            "tests/test_cli.py::test_postprocess_reports_the_first_failing_image",
        ),
    ),
    Fault(
        "witness-drops-its-size-check",
        CONICS,
        "if stack.shape[1] < 6:",
        "if False:",
        (
            "tests/test_conics.py::test_witness_needs_six_points",
            "tests/test_conics.py::test_witness_list_raises_for_the_first_bad_arc",
        ),
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
        "classify-dedupes-unsorted-ranks",
        CLI,
        "ranks = np.sort(point_indices(gf, stack), axis=1)",
        "ranks = point_indices(gf, stack)",
        ("tests/test_cli.py::test_classify_dedupes_a_permuted_rescaled_copy",),
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
    Fault(
        "run-search-accepts-zero-workers",
        SEARCH,
        "if config.workers < 1:",
        "if config.workers < 0:",
        (
            "tests/test_search.py::test_run_search_rejects_workers_below_one",
            "tests/test_cli.py::test_search_cli_workers_below_one",
        ),
    ),
    Fault(
        "secants-not-exported",
        INIT,
        '"secants",',
        '# "secants" dropped',
        ("tests/test_source.py::test_src_names_have_src_callers",),
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
