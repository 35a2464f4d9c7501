#!/usr/bin/env python3
"""Benchmark of the q=32 hyperfocused-arc classification.

    python3 bench/run.py --workload k14-slice --seed 1 --seconds 50 --trace 0

Runs one workload in this process, with one worker, on the hyperfocus
sources in ../src.  The timed region repeats whole rounds of the workload
while another round still fits in --seconds, and runs at least one.  Every
round's outputs are checked against independent computations
(bench/checks.py).  The last line of standard output is one JSON object:

    {"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 the run makes one traced round and reports the
per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import checks
from checks import CheckFailed
from spans import Tracer, span_cost

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
K12_RESULTS = ROOT / "results" / "k12.jsonl"
OUT = HERE / "out"

Q, MODULUS = 32, 0x25
N_REPS = 7  # Frobenius orbits of GF(32)*: {1} and six of size 5
SCHEDULE = [(i, c) for i in range(N_REPS) for c in range(2, Q)]
K12_ARCS = 60
# a-index -> shift of the slice's c pairs; K12_SHIFTS puts, for every
# offset, one shard in the one-pair k=12 slice in which some orbit
# representative must be found (checks.k12_shards), so the slice's own
# extension output is always checked against a non-empty answer
SHIFTS = (0, 2, 4, 6, 8, 10, 12)
K12_SHIFTS = (0, 2, 4, 8, 8, 4, 11)
SETUP_PROBES = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# imports and make_field, in a fresh interpreter; prints when they are done
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hyperfocus.cli, hyperfocus.search\n"
    "from hyperfocus.field import make_field\n"
    "make_field(5)\n"
    "print(time.monotonic())\n"
)


class Refused(Exception):
    """The environment would make the numbers meaningless."""


# ---------------------------------------------------------------------------
# environment

def load_program():
    """Import hyperfocus from this checkout, after checking the environment."""
    if not (SRC / "hyperfocus" / "__init__.py").is_file() or not K12_RESULTS.is_file():
        raise Refused(f"no hyperfocus sources and results under {ROOT}")
    if sys.flags.optimize:
        raise Refused("python -O strips the program's assert guards")
    for var in THREAD_VARS:
        value = os.environ.setdefault(var, "1")
        if value != "1":
            raise Refused(f"{var}={value}; the benchmark runs single-threaded")
    sys.path.insert(0, str(SRC))
    import numpy
    import hyperfocus
    from hyperfocus import arcs, canon, cli, conics, field, search

    if Path(hyperfocus.__file__).resolve().parent != SRC / "hyperfocus":
        raise Refused(f"imported hyperfocus from {hyperfocus.__file__}, not {SRC}")
    gf = field.make_field(5, MODULUS)
    engine = search.resolve_engine(gf, "auto")
    if engine != "numpy":
        raise Refused(f"stream engine {engine!r}; numpy {numpy.__version__} lacks bitwise_count?")
    nproc = len(os.sched_getaffinity(0))
    print(
        f"env python={sys.version.split()[0]} numpy={numpy.__version__} "
        f"nproc={nproc} engine={engine} optimize={sys.flags.optimize} "
        + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    )
    mods = dict(arcs=arcs, canon=canon, cli=cli, conics=conics, field=field, search=search)
    return gf, mods


def measure_setup() -> float:
    """Median seconds from process start to imports and make_field done."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout) - t0)
    return statistics.median(times)


def host_reference() -> float:
    """A fixed pure-Python loop: a host-speed reference, never gated."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i & 7
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# workloads

def slice_shards(offset: int, pairs: int, shifts: Sequence[int]) -> List[Tuple[int, int]]:
    """A stratified slice of the 210 (a-index, c) shards, in schedule order.

    For every a-index it takes `pairs` mirrored pairs of c, (2 + j, 31 - j),
    with the j spread evenly over 0..14 from offset + shifts[a-index].
    Each pair holds (q-1-c) x 496^2 = 29 x 496^2 candidates and one odd and
    one even c, whose costs differ several-fold for a = 1.  So every offset
    gives the same candidate count and close to the same work, and the
    stage shares stay close to those of the full run.
    """
    out = []
    for a_idx in range(N_REPS):
        for i in range(pairs):
            j = (offset + shifts[a_idx] + i * (15 // pairs)) % 15
            out += [(a_idx, 2 + j), (a_idx, Q - 1 - j)]
    return sorted(out)


def merge(into: Dict[str, int], delta: Dict[str, int]) -> None:
    for key, value in delta.items():
        into[key] = into.get(key, 0) + value


class SliceWorkload:
    """process_shard over a stratified slice of the k-search's shards.

    `round` is timed; set-up, `before_round` and the checks are not.
    """

    classes = 0  # equivalence classes the round's outputs hold

    def __init__(self, k: int, pairs: int, shifts, gf, mods, rng: random.Random):
        self.k, self.gf, self.mods, self.rng = k, gf, mods, rng
        self.offset = rng.randrange(15)
        self.shards = slice_shards(self.offset, pairs, shifts)
        self.reps = mods["canon"].frobenius_orbit_reps(gf, exclude=frozenset({0}))
        if len(self.reps) != N_REPS:
            raise CheckFailed(f"{len(self.reps)} Frobenius orbit representatives, want {N_REPS}")
        self.attempted = self.failed = 0  # timed calls into the program

    def describe(self) -> str:
        return f"offset={self.offset} shards={len(self.shards)}"

    def op(self, fn, *args):
        """One timed call into the program, counted; failed if it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            raise

    def before_round(self) -> None:
        pass

    def round(self):
        search = self.mods["search"]
        # built once per round, as run_search builds them once per run
        tables = search._NumpyTables(self.gf)
        counters: Dict[str, int] = {}
        raw = []
        for a_idx, c in self.shards:
            delta, arcs = self.op(
                search.process_shard, self.gf, self.k, self.reps[a_idx], c, "auto", tables
            )
            merge(counters, delta)
            raw.extend(arcs)
        return counters, raw

    def check(self, result) -> None:
        """Raise CheckFailed unless the round's outputs are right."""
        counters, raw = result
        checks.check_stream_counters(counters, Q, self.shards)
        if self.k == 14 and (raw or counters.get("extended") or counters.get("closure_extended")):
            raise CheckFailed(f"the k=14 slice produced {len(raw)} arcs; there is no 14-arc")

    def check_sample(self) -> str:
        """Stream verdicts on two seeded shards of the slice, re-derived.

        One shard has a = 1 and one not; both take the larger c range of
        their mirrored pair, where survivors are common.
        """
        gf = checks.field(Q, MODULUS)
        lo, hi = checks.FOCUS_BOUNDS[self.k]
        report = []
        for heavy in (True, False):
            a_idx, c = self.rng.choice(
                [s for s in self.shards if (s[0] == 0) == heavy and s[1] <= (Q + 1) // 2]
            )
            a = self.reps[a_idx]
            _, survivors = self.mods["search"].stream_shard(self.gf, a, c, lo, hi)
            cands = [(s.d, s.e, s.f, s.g, s.h) for s in survivors]
            n = checks.check_stream_sample(gf, self.k, a, c, cands, self.rng)
            report.append(f"({a_idx},{c}):{len(cands)}/{n}")
        return "sample shards:survivors/rederived " + " ".join(report)


class K12Workload(SliceWorkload):
    """The k=12 slice, run_search resumed at the schedule's last shard, and
    `hyperfocus verify` and `hyperfocus classify` on the file it wrote.

    The checkpoint holds the 12 Frobenius orbit representatives that the
    stream finds, taken from results/k12.jsonl, so the resumed run does
    what the end of a full run does: the last shard, orbit closure,
    re-verification, hyperconic witnesses, canonical digests and the
    JSONL write.  The two commands then read those records back in process.
    The slice itself must find exactly the representatives that
    checks.k12_shards places in its shards.
    """

    classes = 1
    commands = ("verify", "classify")

    def __init__(self, gf, mods, rng, run_dir: Path):
        super().__init__(12, 1, K12_SHIFTS, gf, mods, rng)
        self.ckpt = run_dir / "k12.ckpt"
        self.out = run_dir / "k12.jsonl"
        records = [json.loads(line) for line in K12_RESULTS.read_text().splitlines()]
        # the stream fixes the frame point (1, a) to a ranging over orbit
        # representatives; the records are the Frobenius closure of those
        cf = checks.field(Q, MODULUS)
        in_slice = set(self.shards)
        self.found, self.want = [], set()
        for rec in records:
            a, cs = checks.k12_shards(cf, rec["points"])
            if a not in self.reps:
                continue
            self.found.append(rec["points"])
            if any((self.reps.index(a), c) in in_slice for c in cs):
                self.want.add(tuple(sorted(tuple(p) for p in rec["points"])))
        if len(self.found) != 12:
            raise CheckFailed(f"{len(self.found)} orbit representatives in {K12_RESULTS.name}, want 12")
        if not self.want:
            raise CheckFailed(f"no shard of slice {self.shards} must find a representative")
        rng.shuffle(self.found)

    def describe(self) -> str:
        return f"{super().describe()} slice_must_find={len(self.want)}"

    def before_round(self) -> None:
        search = self.mods["search"]
        digest = search.config_hash(self.gf, 12, search.FOCUS_BOUNDS[12])
        search._save_checkpoint(
            str(self.ckpt), digest, SCHEDULE[-2], search.new_counters(), self.found
        )
        self.out.unlink(missing_ok=True)

    def round(self):
        counters, raw = super().round()
        search, cli = self.mods["search"], self.mods["cli"]
        report = self.op(
            search.run_search, self.gf, 12,
            search.SearchConfig(workers=1, checkpoint=str(self.ckpt), output=str(self.out)),
        )
        outputs = []
        for command in self.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.op(cli.main, [command, str(self.out)])
            outputs.append((code, buf.getvalue().splitlines()))
        return counters, raw, report, outputs

    def check(self, result) -> None:
        counters, raw, report, outputs = result
        super().check((counters, raw))
        if counters.get("extended") != len(raw):
            raise CheckFailed(f"extended={counters.get('extended')} but {len(raw)} arcs returned")
        got = {tuple(sorted(tuple(p) for p in arc)) for arc in raw}
        if got != self.want:
            raise CheckFailed(
                f"the slice found {len(got)} distinct 12-arcs, {len(got & self.want)} "
                f"of the {len(self.want)} its shards must find"
            )
        if not report.completed or report.discrepancy:
            raise CheckFailed(f"resumed k=12 run: completed={report.completed} {report.discrepancy}")
        records = [json.loads(line) for line in self.out.read_text().splitlines()]
        checks.check_records(records, 12, K12_ARCS)
        (v_code, v_lines), (c_code, c_lines) = outputs
        if v_code != 0 or v_lines[-1:] != [f"verified={K12_ARCS}/{K12_ARCS}"]:
            raise CheckFailed(f"verify exited {v_code}: {v_lines[-1:]}")
        if c_code != 0 or c_lines[:1] != [f"classes=1 arcs={K12_ARCS}"]:
            raise CheckFailed(f"classify exited {c_code}: {c_lines[:1]}")

    def bytes_equal(self) -> bool:
        return self.out.read_bytes() == K12_RESULTS.read_bytes()


def make_workload(name: str, gf, mods, rng, run_dir):
    if name == "k12-slice":
        return K12Workload(gf, mods, rng, run_dir)
    return SliceWorkload(14, 3, SHIFTS, gf, mods, rng)


# ---------------------------------------------------------------------------
# tracing

def install_tracer(mods) -> Tuple[Tracer, Dict[str, int]]:
    tracer = Tracer()
    counts: Dict[str, int] = {}
    search, canon, cli = mods["search"], mods["canon"], mods["cli"]
    tracer.wrap(search, "stream_shard", "search.stream")
    tracer.wrap(search, "prune8", "search.prepare")
    tracer.wrap(search, "closure_completions", "search.closure")
    tracer.wrap(search, "process_shard", "search.extend", lambda r: merge(counts, r[0]))
    tracer.wrap(search, "run_search", "search.post")
    tracer.wrap(canon, "canonical_form", "canon.digest")
    for mod in (search, cli):
        tracer.wrap(mod, "hyperconic_witness", "conics.witness")
        tracer.wrap(mod, "classify_focus", "arcs.classify_focus")
    tracer.wrap(cli, "cmd_verify", "cli.verify")
    tracer.wrap(cli, "cmd_classify", "cli.classify")
    return tracer, counts


def micro_timings(gf, mods, rng: random.Random) -> Dict[str, float]:
    """gf.mul per call and canonical_form per 12-arc, medians of repeats."""
    pairs = [(rng.randrange(1, Q), rng.randrange(1, Q)) for _ in range(1000)]
    mul = gf.mul
    per_call = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(100):
            for x, y in pairs:
                mul(x, y)
        per_call.append((time.perf_counter() - t0) / (100 * len(pairs)))
    records = [json.loads(line) for line in K12_RESULTS.read_text().splitlines()]
    forms = []
    for rec in rng.sample(records, 3):
        arc = mods["arcs"].make_arc(gf, rec["points"])
        t0 = time.perf_counter()
        mods["canon"].canonical_form(gf, arc)
        forms.append(time.perf_counter() - t0)
    return {
        "field.mul_ns": statistics.median(per_call) * 1e9,
        "canon.canonical_form_s": statistics.median(forms),
    }


def per_layer(tracer: Tracer, counts: Dict[str, int], classes: int) -> Dict[str, float]:
    own = tracer.self_times()
    shard = tracer.durations("search.extend")
    digests = len(tracer.durations("canon.digest"))
    prepared = counts.get("prepared", 0)
    return {
        "search.stream_s": own.get("search.stream", 0.0),
        "search.candidates": counts.get("candidates", 0),
        "search.prepare_s": own.get("search.prepare", 0.0),
        "search.prepared": prepared,
        "search.extend_s": own.get("search.extend", 0.0),
        "search.extended": counts.get("extended", 0),
        "search.extend_yield": counts.get("extended", 0) / prepared if prepared else 0.0,
        "search.closure_s": own.get("search.closure", 0.0),
        "search.closure_survivors": counts.get("closure_survivors", 0),
        "search.shard_max_s": max(shard, default=0.0),
        "search.post_s": own.get("search.post", 0.0),
        "canon.digest_s": own.get("canon.digest", 0.0),
        "canon.digest_calls": digests,
        "canon.digests_per_class": digests / classes if classes else 0.0,
        "conics.witness_s": own.get("conics.witness", 0.0),
        "arcs.classify_focus_s": own.get("arcs.classify_focus", 0.0),
        "cli.verify_s": own.get("cli.verify", 0.0),
        "cli.classify_s": own.get("cli.classify", 0.0),
    }


UNITS = {"_s": "s", "_ns": "ns", "_mb": "MiB"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("_yield", "_per_class")) else "count"


# ---------------------------------------------------------------------------

def timed_round(work) -> Tuple[float, object]:
    work.before_round()
    t0 = time.perf_counter()
    result = work.round()
    wall = time.perf_counter() - t0
    return wall, result


def traced_round(work, gf, mods, rng, label: str) -> Dict[str, float]:
    """One round with spans on; returns the per-layer metrics."""
    tracer, counts = install_tracer(mods)
    try:
        wall, result = timed_round(work)
    finally:
        tracer.restore()
    work.check(result)
    metrics = per_layer(tracer, counts, work.classes)
    layer_sum = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "search.shard_max_s")
    print(f"traced wall_s={wall:.4f} layer_sum_s={layer_sum:.4f} spans={len(tracer.spans)}")
    if layer_sum > wall:
        raise CheckFailed(f"layer self times sum to {layer_sum:.4f} s > traced wall {wall:.4f} s")
    tracer.write(str(OUT / f"trace-{label}.json"))
    metrics.update(micro_timings(gf, mods, rng))
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = len(tracer.spans) * span_cost()
    return metrics


def measure(args, work, gf, mods, rng) -> Dict[str, float]:
    ref_before = host_reference()
    if args.trace:
        metrics = traced_round(work, gf, mods, rng, f"{args.workload}-seed{args.seed}")
        print(f"host_ref_s before={ref_before:.4f} after={host_reference():.4f}")
    else:
        setup_s = measure_setup()
        walls: List[float] = []
        start = time.monotonic()
        while True:
            wall, result = timed_round(work)
            walls.append(wall)
            work.check(result)
            print(f"round={len(walls) - 1} wall_s={wall:.4f}", flush=True)
            if time.monotonic() - start + wall > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"host_ref_s before={ref_before:.4f} after={host_reference():.4f}")
        metrics = {"wall_s": statistics.median(walls), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    print(work.check_sample())
    if isinstance(work, K12Workload):
        print(f"k12_bytes_equal_results={str(work.bytes_equal()).lower()}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("k12-slice", "k14-slice"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        gf, mods = load_program()
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    run_dir = OUT / f"run-{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    work = None
    metrics: Dict[str, float] = {}
    correct = True
    try:
        work = make_workload(args.workload, gf, mods, rng, run_dir)
        print(f"workload={args.workload} seed={args.seed} {work.describe()}")
        metrics = measure(args, work, gf, mods, rng)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    except Exception:
        # a timed call that raised is counted in work.failed; its round
        # and anything else that raised go unchecked
        traceback.print_exc()
        correct = False
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": work.attempted if work else 0,
        "failed": work.failed if work else 0,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
