"""The seven acceptance criteria, one test and one verdict line each.

The two full q=32 runs come from session fixtures (conftest), so the
whole file costs roughly the two searches plus the determinism reruns.
"""

import json
import random

from conftest import record_criterion
from hyperfocus.arcs import (
    HYPERFOCUSED,
    NotAnArc,
    additive_closure,
    classify_focus,
    diagonal_line,
    is_exterior,
    make_arc,
    secants,
    translation_arc,
    translation_hyperoval,
)
from hyperfocus.canon import frobenius_orbit_reps
from hyperfocus.conics import hyperconic_contains
from hyperfocus.field import make_field
from hyperfocus.plane import LINE_AT_INFINITY, all_lines, all_points
from hyperfocus.search import SearchConfig, run_search, shard_list

from oracles import (
    arc_accepts,
    extend_arc,
    hyperconic_oracle,
)


def _verdict(num: int, desc: str, ok: bool) -> bool:
    record_criterion(num, desc, ok)
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def test_criterion_1_sixty_twelve_arcs(k12_run):
    report, _ = k12_run
    distinct = {frozenset(arc) for arc in report.found}
    ok = (
        report.completed
        and len(report.found) == 60
        and len(distinct) == 60
        and report.discrepancy is None
    )
    assert _verdict(
        1, "full q=32 run finds exactly 60 distinct hyperfocused 12-arcs", ok
    ), report.discrepancy


def test_criterion_2_all_in_hyperconics(gf32, k12_run):
    report, _ = k12_run
    agree = 0
    for rec, arc in zip(report.records, report.found):
        wit = bool(rec["hyperconic"])
        live = hyperconic_contains(gf32, arc)
        brute = hyperconic_oracle(gf32, arc)
        if wit and live and brute:
            agree += 1
    ok = agree == len(report.found) == 60
    assert _verdict(
        2,
        "all 60 arcs lie in hyperconics; witness agrees with the "
        "all-5-subsets oracle",
        ok,
    )


def test_criterion_3_no_fourteen_arcs(k14_run):
    report, blob = k14_run
    ok = (
        report.completed
        and report.counters["found"] == 0
        and not report.found
        and report.discrepancy is None
        and blob == b""
    )
    assert _verdict(3, "full q=32 run finds no hyperfocused 14-arc", ok)


def test_criterion_4_no_9_or_10_focus_candidates(k12_run, k14_run):
    r12, _ = k12_run
    r14, _ = k14_run
    ok = r12.counters["focus_9_10"] == 0 and r14.counters["focus_9_10"] == 0
    assert _verdict(
        4, "no prepared 8-arc ever shows 9 or 10 focuses in either run", ok
    )


def test_criterion_5_orbit_representatives(gf32, gf8):
    reps32 = frobenius_orbit_reps(gf32)
    reps8 = frobenius_orbit_reps(gf8)
    ok = reps32 == [1, 2, 8, 5, 20, 7, 31] and len(reps8) == 3
    ok = ok and [gf32.dlog(a) for a in reps32] == [0, 1, 3, 5, 7, 11, 15]
    for s in (2, 3, 4, 5, 6, 7, 8):
        gf = make_field(s)
        seen = set()
        for a in frobenius_orbit_reps(gf):
            orbit = set()
            b = a
            while b not in orbit:
                orbit.add(b)
                b = gf.mul(b, b)
            ok = ok and not (orbit & seen)
            seen |= orbit
        ok = ok and seen == set(range(1, gf.q))
    assert _verdict(
        5, "Frobenius orbit representatives: 7 at q=32, 3 at q=8, "
        "orbits partition the field", ok,
    )


def _field_axioms(s: int, trials: int, rng: random.Random) -> bool:
    gf = make_field(s)
    q = gf.q
    for _ in range(trials):
        a, b, c = (rng.randrange(q) for _ in range(3))
        if gf.mul(a, b) != gf.mul(b, a):
            return False
        if gf.mul(a, gf.mul(b, c)) != gf.mul(gf.mul(a, b), c):
            return False
        if gf.mul(a, b ^ c) != gf.mul(a, b) ^ gf.mul(a, c):
            return False
        if a and gf.mul(a, gf.inv(a)) != 1:
            return False
        if gf.mul(a, 1) != a or gf.mul(a, 0) != 0:
            return False
    return True


def _random_four_arcs_on_diagonal(gf, rng, trials: int) -> bool:
    pts = [p for p in all_points(gf) if p[2] == 1]
    for _ in range(trials):
        arc = ()
        while len(arc) < 4:
            p = pts[rng.randrange(len(pts))]
            if arc_accepts(gf, arc, p):
                arc = extend_arc(gf, arc, p)
        if classify_focus(gf, arc, diagonal_line(gf, arc)) != (HYPERFOCUSED, 3):
            return False
    return True


def _hyperoval_lines(gf, rng, trials: int) -> bool:
    oval = translation_hyperoval(gf, 1)
    lines = [m for m in all_lines(gf) if is_exterior(gf, oval, m)]
    for m in rng.sample(lines, trials):
        if classify_focus(gf, oval, m) != (HYPERFOCUSED, gf.q + 1):
            return False
    return True


def _random_translation_arcs(gf, rng, wanted: int) -> bool:
    done = 0
    while done < wanted:
        gens = [
            (rng.randrange(gf.q), rng.randrange(gf.q))
            for _ in range(rng.choice([1, 2, 3]))
        ]
        group = additive_closure(gf, gens)
        if len(group) < 2:
            continue
        try:
            arc = translation_arc(gf, group)
        except NotAnArc:
            continue
        if classify_focus(gf, arc, LINE_AT_INFINITY) != (
            HYPERFOCUSED,
            len(arc) - 1,
        ):
            return False
        done += 1
    return True


def _secant_deltas(gf) -> bool:
    oval = translation_hyperoval(gf, 1)
    affine = [p for p in oval if p[2] == 1]
    n8 = len(secants(gf, make_arc(gf, affine[:8])))
    n12 = len(secants(gf, make_arc(gf, affine[:12])))
    n14 = len(secants(gf, make_arc(gf, affine[:14])))
    return (n12 - n8, n14 - n8) == (38, 63) and (n8, n12, n14) == (28, 66, 91)


def test_criterion_6_property_suites(gf32, nested_arc_checks):
    rng = random.Random(2026)
    ok = all(_field_axioms(s, 10_000, rng) for s in (2, 3, 4, 5))
    ok = ok and _random_four_arcs_on_diagonal(gf32, rng, 1000)
    ok = ok and _hyperoval_lines(gf32, rng, 50)
    ok = ok and _random_translation_arcs(gf32, rng, 10)
    # the nested-arc bound, checked exhaustively at q = 4 and 8 (conftest)
    ok = ok and nested_arc_checks == {4: 720, 8: 3763200}
    ok = ok and _secant_deltas(gf32)
    assert _verdict(
        6,
        "property suites: field axioms, diagonal 4-arcs, hyperoval "
        "focus sets, translation arcs, nested-arc bound, secant deltas",
        ok,
    )


def test_criterion_7_determinism(gf32, k12_run, tmp_path):
    _, ref_bytes = k12_run

    out8 = tmp_path / "k12-w8.jsonl"
    run_search(gf32, 12, SearchConfig(workers=8, output=str(out8)))
    same_workers = out8.read_bytes() == ref_bytes

    # interrupt at an arbitrary shard boundary, then resume
    ckpt = tmp_path / "resume.ckpt"
    out_r = tmp_path / "k12-resume.jsonl"
    cut = 87  # somewhere strictly inside the 210-shard schedule
    assert 0 < cut < len(shard_list(gf32))
    part = run_search(
        gf32,
        12,
        SearchConfig(workers=8, output=str(out_r), checkpoint=str(ckpt),
                     max_shards=cut),
    )
    resumed = run_search(
        gf32,
        12,
        SearchConfig(workers=8, output=str(out_r), checkpoint=str(ckpt)),
    )
    same_resume = (
        not part.completed
        and resumed.completed
        and out_r.read_bytes() == ref_bytes
    )
    ok = same_workers and same_resume
    assert _verdict(
        7,
        "1-worker and 8-worker runs byte-identical; interrupt/resume "
        "reproduces the same JSONL",
        ok,
    )


def test_single_equivalence_class(gf32, k12_run):
    """Not an acceptance criterion, but worth pinning: all 60 arcs share
    one canonical form (they are one orbit under the line stabilizer)."""
    report, _ = k12_run
    digests = {rec["digest"] for rec in report.records}
    assert len(digests) == 1


def test_records_are_well_formed(k12_run, gf32):
    report, blob = k12_run
    lines = blob.decode().splitlines()
    assert len(lines) == 60
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["arc_id"] == i
        assert rec["q"] == 32 and rec["modulus"] == "0x25" and rec["k"] == 12
        assert rec["focus_count"] == 11
        assert rec["hyperconic"] is True
        assert rec["conic"] is not None and rec["nucleus"] is not None
        pts = make_arc(gf32, rec["points"])
        assert len(pts) == 12
