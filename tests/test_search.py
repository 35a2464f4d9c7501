"""Candidate stream, shard filters, grid extension, checkpointing."""

import json
import os
import random

import pytest

from hyperfocus import search
from hyperfocus.arcs import (
    HYPERFOCUSED,
    classify_focus,
    focus_set,
    is_arc,
    make_arc,
)
from hyperfocus.canon import frobenius_orbit_reps
from hyperfocus.field import make_field
from hyperfocus.plane import LINE_AT_INFINITY
from hyperfocus.search import (
    FOCUS_BOUNDS,
    Candidate8,
    CheckpointMismatch,
    SearchConfig,
    SearchError,
    _save_checkpoint,
    config_hash,
    closure_completions,
    merge_counters,
    new_counters,
    process_shard,
    prune8,
    resolve_engine,
    run_search,
    shard_list,
    stream_shard,
)

from oracles import (
    _slope_census,
    census_verdict,
    complete_to_hyperovals,
    enumerate_candidates8,
    schema1_config_hash,
    schemaless_config_hash,
    shard_candidates,
    shard_size,
    stream_shard_python,
    tangents_through,
)

ANCHORS = {(0, 0, 1), (0, 1, 1), (1, 0, 1)}


def slope_of(gf, focus):
    """Slope index of a point (x, y, 0) of the focus line: y/x, or q."""
    x, y, _ = focus
    return gf.q if x == 0 else gf.mul(y, gf.inv(x))


def test_candidate_points_layout(gf32):
    cand = Candidate8(a=2, c=3, d=0, e=7, f=9, g=1, h=4)
    assert cand.points() == (
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 2),
        (3, 0),
        (3, 7),
        (9, 1),
        (9, 4),
    )


def test_shard_layout_q8(gf8):
    reps = frobenius_orbit_reps(gf8, exclude=frozenset({0}))
    assert reps == [1, 2, 3]
    shards = shard_list(gf8)
    assert shards == [(i, c) for i in range(3) for c in range(2, 8)]
    for a_idx, c in shards:
        n = sum(1 for _ in shard_candidates(gf8, reps[a_idx], c))
        assert n == shard_size(gf8, c) == 28 * (7 - c) * 28


def test_full_stream_q4_matches_unordered_dedup(gf4):
    """The normalized iterator covers exactly the distinct point sets of
    the unnormalized family: unordered columns and unordered ordinate
    pairs collapse onto the c < f, d < e, g < h form."""
    fast = {frozenset(cand.points()) for cand in enumerate_candidates8(gf4)}
    reps = set(frobenius_orbit_reps(gf4, exclude=frozenset({0})))
    slow = set()
    q = gf4.q
    for a in reps:
        for c in range(2, q):
            for f in range(2, q):
                if f == c:
                    continue
                for d in range(q):
                    for e in range(q):
                        if d == e:
                            continue
                        for g in range(q):
                            for h in range(q):
                                if g == h:
                                    continue
                                slow.add(frozenset([
                                    (0, 0), (0, 1), (1, 0), (1, a),
                                    (c, d), (c, e), (f, g), (f, h),
                                ]))
    assert fast == slow
    total = sum(shard_size(gf4, c) for _, c in shard_list(gf4))
    assert len(fast) == total == 72


def censused(gf, cands, bounds, tab):
    """`prune8` on candidates that the scalar census proves 8-arcs within
    `bounds`, as the stream proves its survivors; each census row must
    agree with the scalar one."""
    census = prune8(cands, tab)
    _, _, fmask, single = census
    for cand, mask, n_single in zip(cands, fmask.tolist(), single.tolist(), strict=True):
        assert census_verdict(gf, cand, bounds) == (mask, n_single)
    return census


def test_prune8_on_a_stream_survivor(gf32):
    """The census of the first k=12 survivor of a shard, against the
    scalar census and the projective views derived from the definitions."""
    _, survivors = stream_shard(gf32, 2, 2, *FOCUS_BOUNDS[12])
    cand = survivors[0]
    px, py, fmask, single = prune8([cand], search._NumpyTables(gf32))
    assert list(zip(px[0].tolist(), py[0].tolist())) == list(cand.points())
    mask, counts = _slope_census(gf32, cand.points())
    assert int(fmask[0]) == mask and mask.bit_count() == 11
    assert sum(counts) == 28  # 8 points, 28 secants
    assert int(single[0]) == counts.count(1)
    # the projective views, derived from the definitions
    arc = make_arc(gf32, [(x, y, 1) for x, y in cand.points()])
    focus = focus_set(gf32, arc, LINE_AT_INFINITY)
    assert len(focus) == 11
    assert sum(1 << slope_of(gf32, pt) for pt in focus) == mask
    # the three frame focuses are always present with their pencils
    for star in ((0, 1, 0), (1, 1, 0), (1, 0, 0)):
        assert star in focus
    for pt in focus:
        pencil = tangents_through(gf32, arc, pt)
        assert len(pencil) == 8 - 2 * counts[slope_of(gf32, pt)]


def test_stream_engines_agree_q8(gf8):
    """Vectorized filter equals the brute-force oracle on every shard.

    The bounds (7, 8) lie below 10: `focus_9_10` stays exact only if the
    stream's 7-point cut is at max(hi, 10), not at hi.
    """
    reps = frobenius_orbit_reps(gf8, exclude=frozenset({0}))
    for lo, hi in (FOCUS_BOUNDS[10], FOCUS_BOUNDS[12], (7, 8)):
        for a_idx, c in shard_list(gf8):
            cp, sp = stream_shard_python(gf8, reps[a_idx], c, lo, hi)
            cn, sn = stream_shard(gf8, reps[a_idx], c, lo, hi)
            assert cp == cn
            assert sp == sn


def test_stream_engines_agree_q32_sampled(gf32):
    """Same comparison at production size, restricted to a (d,e) slice."""
    rng = random.Random(43)
    de = []
    while len(de) < 5:
        d = rng.randrange(32)
        e = rng.randrange(32)
        if d < e and (d, e) not in de:
            de.append((d, e))
    lo, hi = FOCUS_BOUNDS[12]
    cp, sp = stream_shard_python(gf32, 2, 7, lo, hi, de_pairs=de)
    cn, sn = stream_shard(gf32, 2, 7, lo, hi, de_pairs=de)
    assert cp == cn
    assert sp == sn


def test_stream_counter_consistency(gf8):
    reps = frobenius_orbit_reps(gf8, exclude=frozenset({0}))
    lo, hi = FOCUS_BOUNDS[10]
    counters, survivors = stream_shard(gf8, reps[0], 2, lo, hi)
    assert counters["candidates"] == shard_size(gf8, 2)
    assert counters["arcs8"] == counters["prepared"] + counters["focus_rejected"]
    assert counters["prepared"] == len(survivors)


def test_resolve_engine(gf32):
    """numpy is the only engine; the name stays for bench/run.py."""
    assert resolve_engine(gf32, "auto") == "numpy"
    assert resolve_engine(gf32, "numpy") == "numpy"
    for name in ("python", "fortran"):
        with pytest.raises(SearchError, match="unknown engine"):
            resolve_engine(gf32, name)


def test_library_calls_reject_q64():
    """The stream's bitmasks need q < 64: the library entry points raise
    instead of falling back to a per-candidate engine."""
    gf64 = make_field(6)
    with pytest.raises(SearchError, match="q=64"):
        resolve_engine(gf64, "auto")
    with pytest.raises(SearchError, match="q=64"):
        stream_shard(gf64, 1, 2, 9, 13, de_pairs=[(0, 1)])
    with pytest.raises(SearchError, match="q=64"):
        process_shard(gf64, 14, 1, 2)


def test_counters_helpers():
    base = new_counters()
    assert base["candidates"] == 0
    merge_counters(base, {"candidates": 3, "found": 1})
    merge_counters(base, {"candidates": 2})
    assert base["candidates"] == 5 and base["found"] == 1


def test_config_hash_distinguishes(gf32, gf8):
    h12 = config_hash(gf32, 12, FOCUS_BOUNDS[12])
    h14 = config_hash(gf32, 14, FOCUS_BOUNDS[14])
    h8 = config_hash(gf8, 12, FOCUS_BOUNDS[12])
    assert len({h12, h14, h8}) == 3
    assert config_hash(gf32, 12, FOCUS_BOUNDS[12]) == h12


def test_run_search_rejects_bad_k(gf8):
    with pytest.raises(SearchError):
        run_search(gf8, 13, SearchConfig())
    with pytest.raises(SearchError):
        run_search(gf8, 16, SearchConfig())


def test_run_search_rejects_q64():
    """Focus bitmasks need q < 64; the search refuses before any shard."""
    with pytest.raises(SearchError, match="q=64"):
        run_search(make_field(6), 12, SearchConfig(max_shards=0))


def _anchored_ten_arcs(q8_arcs):
    out = set()
    for arc in q8_arcs:
        if len(arc) != 10:
            continue
        if not ANCHORS <= set(arc):
            continue
        if sum(1 for p in arc if p[0] == 1) != 2:
            continue
        out.add(arc)
    return out


def test_positive_control_q8_k10(gf8, q8_hyperfocused, tmp_path):
    """The pipeline must recover exactly the frame-anchored hyperfocused
    10-arcs known from the exhaustive enumerator."""
    out = tmp_path / "k10.jsonl"
    report = run_search(gf8, 10, SearchConfig(output=str(out)))
    assert report.completed and report.experimental
    assert report.discrepancy is None
    expected = _anchored_ten_arcs(q8_hyperfocused)
    assert set(report.found) == expected
    # 16 stream representatives, 40 arcs after the Frobenius closure
    assert report.counters["orbit_reps"] == 16
    assert report.counters["found"] == len(expected) == 40
    assert report.counters["extended"] == 48  # each arc from 3 sub-candidates
    # q+1 = 9 caps the census, so the 9..10 tally is exactly the prepared set
    assert report.counters["focus_9_10"] == report.counters["prepared"]
    lines = out.read_text().splitlines()
    assert len(lines) == 40
    rec = json.loads(lines[0])
    assert rec["arc_id"] == 0 and rec["k"] == 10 and rec["q"] == 8
    assert rec["focus_count"] == 9
    ids = [json.loads(line)["arc_id"] for line in lines]
    assert ids == list(range(40))


def test_run_search_determinism_q8(gf8, tmp_path):
    """One worker and a pool of two write the same bytes."""
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    run_search(gf8, 10, SearchConfig(output=str(out1)))
    run_search(gf8, 10, SearchConfig(output=str(out2), workers=2))
    assert out1.read_bytes() == out2.read_bytes()


def test_checkpoint_resume_q8(gf8, tmp_path):
    """A run interrupted after a few shards resumes to the same bytes."""
    ref = tmp_path / "ref.jsonl"
    run_search(gf8, 10, SearchConfig(output=str(ref)))

    ckpt = tmp_path / "run.ckpt"
    out = tmp_path / "run.jsonl"
    part = run_search(
        gf8,
        10,
        SearchConfig(output=str(out), checkpoint=str(ckpt), max_shards=4),
    )
    assert not part.completed
    assert part.cursor == shard_list(gf8)[3]
    assert not out.exists()  # no output until the run completes
    blob = json.loads(ckpt.read_text())
    assert blob["cursor"] == list(part.cursor)

    final = run_search(
        gf8, 10, SearchConfig(output=str(out), checkpoint=str(ckpt))
    )
    assert final.completed
    assert out.read_bytes() == ref.read_bytes()


def test_checkpoint_mismatch(gf8, tmp_path):
    ckpt = tmp_path / "run.ckpt"
    run_search(gf8, 10, SearchConfig(checkpoint=str(ckpt), max_shards=2))
    with pytest.raises(CheckpointMismatch):
        run_search(gf8, 12, SearchConfig(checkpoint=str(ckpt)))
    ckpt.write_text("{not json")
    with pytest.raises(CheckpointMismatch):
        run_search(gf8, 10, SearchConfig(checkpoint=str(ckpt)))
    ckpt.write_text(json.dumps({"config_hash": "feedface", "cursor": [0, 2]}))
    with pytest.raises(CheckpointMismatch):
        run_search(gf8, 10, SearchConfig(checkpoint=str(ckpt)))


def test_checkpoint_from_older_code_refused(gf8, tmp_path):
    """A checkpoint stamped with the hash that code without a checkpoint
    schema computed for the same field, k and bounds is refused."""
    old = schemaless_config_hash(gf8, 10, FOCUS_BOUNDS[10])
    assert old != config_hash(gf8, 10, FOCUS_BOUNDS[10])
    ckpt = tmp_path / "old.ckpt"
    _save_checkpoint(str(ckpt), old, (0, 2), new_counters(), [])
    with pytest.raises(CheckpointMismatch, match="different configuration"):
        run_search(gf8, 10, SearchConfig(checkpoint=str(ckpt)))


def test_checkpoint_from_schema_1_refused(gf8, tmp_path):
    """Checkpoints of schema 1 hold counters without `dfs_roots`; resuming
    one would undercount it, so it is refused."""
    old = schema1_config_hash(gf8, 10, FOCUS_BOUNDS[10])
    assert old != config_hash(gf8, 10, FOCUS_BOUNDS[10])
    ckpt = tmp_path / "old.ckpt"
    _save_checkpoint(str(ckpt), old, (0, 2), new_counters(), [])
    with pytest.raises(CheckpointMismatch, match="different configuration"):
        run_search(gf8, 10, SearchConfig(checkpoint=str(ckpt)))


def test_checkpoint_bad_cursor(gf8, tmp_path):
    """A cursor that is not a pair of ints is a corrupt checkpoint, not a
    traceback."""
    ckpt = tmp_path / "run.ckpt"
    run_search(gf8, 10, SearchConfig(checkpoint=str(ckpt), max_shards=1))
    blob = json.loads(ckpt.read_text())
    blob["cursor"] = ["x", 2]
    ckpt.write_text(json.dumps(blob))
    with pytest.raises(CheckpointMismatch, match="corrupt"):
        run_search(gf8, 10, SearchConfig(checkpoint=str(ckpt)))


def test_checkpoint_write_keeps_foreign_tmp(gf8, tmp_path):
    """The checkpoint is written through a temp file of its own: a file
    that merely has the old fixed temp name is left alone."""
    ckpt = tmp_path / "run.ckpt"
    other = tmp_path / "run.ckpt.tmp"
    other.write_text("another run's temp file")
    digest = config_hash(gf8, 10, FOCUS_BOUNDS[10])
    _save_checkpoint(str(ckpt), digest, (0, 2), new_counters(), [])
    assert other.read_text() == "another run's temp file"
    assert json.loads(ckpt.read_text())["cursor"] == [0, 2]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt", "run.ckpt.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert ckpt.stat().st_mode & 0o777 == 0o666 & ~umask


def test_extend_grid_worked_example(gf32):
    """A known surviving candidate extends to exactly one hyperfocused
    12-arc; its whole shard produces only verified extensions."""
    tab = search._NumpyTables(gf32)
    known = Candidate8(a=2, c=2, d=1, e=6, f=6, g=2, h=9)
    px, py, fmask, _ = censused(gf32, [known], FOCUS_BOUNDS[12], tab)
    assert closure_completions(gf32, px, py, fmask, 12, tab) == [[K12_A]]
    produced = 0
    _, survivors = stream_shard(gf32, 2, 2, *FOCUS_BOUNDS[12])
    assert known in survivors
    px, py, fmask, _ = censused(gf32, survivors, FOCUS_BOUNDS[12], tab)
    results = closure_completions(gf32, px, py, fmask, 12, tab)
    assert len(results) == len(survivors)
    for cand, arcs in zip(survivors, results):
        for arc in arcs:
            assert len(arc) == 12
            assert {(x, y, 1) for x, y in cand.points()} <= set(arc)
            kind, n = classify_focus(gf32, arc, LINE_AT_INFINITY)
            assert (kind, n) == (HYPERFOCUSED, 11)
            produced += 1
    assert produced == 6


def test_closure_path_on_real_survivors(gf32):
    """Run the search on every k=14 survivor of one shard, at every focus
    count they show (no 8-arc has 9 or 10 focuses, criterion 4); any
    completion must be a hyperfocused 14-arc through the survivor."""
    tab = search._NumpyTables(gf32)
    _, survivors = stream_shard(gf32, 1, 2, *FOCUS_BOUNDS[14])
    px, py, fmask, _ = prune8(survivors, tab)
    results = closure_completions(gf32, px, py, fmask, 14, tab)
    assert len(results) == len(survivors)
    for cand, arcs in zip(survivors, results):
        for arc in arcs or []:
            kind, n = classify_focus(gf32, arc, LINE_AT_INFINITY)
            assert (kind, n) == (HYPERFOCUSED, 13)
            assert {(x, y, 1) for x, y in cand.points()} <= set(arc)
    assert {m.bit_count() for m in fmask.tolist()} == {11, 12, 13}


def test_closure_finds_sixteen_arc_four_pairs_deep(gf32):
    """Positive control at depth 4: over the additive subgroup
    V = <1, 2, 4, 8> of GF(32), the points (x + x^2, x^2) form a
    hyperfocused 16-arc with 15 focuses in 8 vertical pairs.  Moved by
    (x, y) -> (x / 2, y + 5x) onto the normalized frame, four of its
    pairs are a candidate 8-arc, and the search must find the other
    four."""
    gf = gf32
    span = [0]
    for g in (1, 2, 4, 8):
        span += [v ^ g for v in span]
    half = gf.inv(2)
    arc16 = make_arc(gf, [
        (gf.mul(x ^ gf.mul(x, x), half), gf.mul(x, x) ^ gf.mul(5, x ^ gf.mul(x, x)), 1)
        for x in span
    ])
    assert classify_focus(gf, arc16, LINE_AT_INFINITY) == (HYPERFOCUSED, 15)
    cols = {}
    for x, y, _ in arc16:
        cols.setdefault(x, []).append(y)
    assert len(cols) == 8 and cols[0] == [0, 1] and cols[1] == [0, 1]
    cand = Candidate8(1, 2, *cols[2], 3, *cols[3])
    tab = search._NumpyTables(gf)
    px, py, fmask, _ = censused(gf, [cand], (1, 15), tab)
    [arcs] = closure_completions(gf, px, py, fmask, 16, tab)
    assert arc16 in arcs
    for arc in arcs:
        assert {(x, y, 1) for x, y in cand.points()} <= set(arc)
        assert classify_focus(gf, arc, LINE_AT_INFINITY) == (HYPERFOCUSED, 15)
    assert len(set(arcs)) == len(arcs) == 42


@pytest.mark.parametrize("f,g,h,n_ovals", [(3, 4, 11, 0), (3, 10, 12, 1), (4, 2, 3, 2)])
def test_closure_matches_hyperoval_oracle_q16(gf16, f, g, h, n_ovals):
    """Depth 5, against an independent oracle: in PG(2,16) an 18-arc is a
    hyperoval, hyperfocused (17 focuses) on every exterior line, so at
    k = 18 the search must return exactly the hyperovals through the
    8-arc that miss Z=0, as the point-by-point completion finds them."""
    cand = Candidate8(a=1, c=2, d=4, e=5, f=f, g=g, h=h)
    tab = search._NumpyTables(gf16)
    px, py, fmask, _ = censused(gf16, [cand], (1, 17), tab)
    arc8 = make_arc(gf16, [(x, y, 1) for x, y in cand.points()])
    ovals = {frozenset(o) for o in complete_to_hyperovals(gf16, arc8) if all(p[2] for p in o)}
    # None: the column early exit found too few free columns
    got = closure_completions(gf16, px, py, fmask, 18, tab)[0] or []
    assert {frozenset(a) for a in got} == ovals
    assert len(got) == len(ovals) == n_ovals


def test_process_shard_counts(gf8):
    reps = frobenius_orbit_reps(gf8, exclude=frozenset({0}))
    counters, raw = process_shard(gf8, 10, reps[0], 2, "auto")
    assert counters["candidates"] == shard_size(gf8, 2)
    assert counters["extended"] == len(raw)
    assert counters["closure_survivors"] == 0  # a k=14 tally


def test_process_shard_batches_every_survivor(gf32, monkeypatch):
    """Shard (0, 10) at k=14 has more than 5,000 survivors: the census
    sees each of them once, in stream order, and the extension sees
    each census result, across many survivor batches and many
    direction-table blocks."""
    seen = {"census": [], "closure": [], "calls": 0}
    census, closure = search.prune8, search.closure_completions

    def census_spy(cands, tab):
        seen["census"] += cands
        seen["calls"] += 1
        return census(cands, tab)

    def closure_spy(gf, px, py, fmask, k, tab):
        seen["closure"] += [
            Candidate8(y[3], x[4], y[4], y[5], x[6], y[6], y[7])
            for x, y in zip(px.tolist(), py.tolist())
        ]
        results = closure(gf, px, py, fmask, k, tab)
        assert len(results) == len(px) == len(fmask)
        return results

    monkeypatch.setattr(search, "prune8", census_spy)
    monkeypatch.setattr(search, "closure_completions", closure_spy)
    a = frobenius_orbit_reps(gf32, exclude=frozenset({0}))[0]
    counters, raw = process_shard(gf32, 14, a, 10)
    _, survivors = stream_shard(gf32, a, 10, *FOCUS_BOUNDS[14])
    assert len(survivors) == counters["prepared"] > 5000
    assert seen["census"] == seen["closure"] == survivors
    assert seen["calls"] > 10
    assert raw == [] and counters["dfs_roots"] == 0


# two 12-arcs, each reached from three of its 8-point sub-candidates
K12_A = (
    (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 6, 1),
    (6, 2, 1), (6, 9, 1), (9, 6, 1), (9, 28, 1), (28, 9, 1), (28, 28, 1),
)
K12_B = (
    (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 2, 1), (2, 5, 1),
    (6, 5, 1), (6, 14, 1), (9, 14, 1), (9, 20, 1), (28, 1, 1), (28, 20, 1),
)
SHARD_PINS = {
    (12, 2, 2): (
        dict(candidates=7134464, arcs8=2303404, focus_rejected=2303398,
             prepared=6, extended=6, dfs_roots=6),
        [K12_A] * 3 + [K12_B] * 3,
    ),
    (14, 1, 3): (
        dict(candidates=6888448, arcs8=2212408, focus_rejected=2208328,
             prepared=4080, closure_survivors=2352),
        [],
    ),
    (14, 2, 10): (
        dict(candidates=5166336, arcs8=1670074, focus_rejected=1669914,
             prepared=160),
        [],
    ),
}


@pytest.mark.parametrize("k,a,c", sorted(SHARD_PINS))
def test_process_shard_pins_q32(gf32, k, a, c):
    """Counters and raw arcs of three q=32 shards, pinned as literals:
    the grid extension, the census and the k=14 closure."""
    expected, arcs = SHARD_PINS[(k, a, c)]
    counters, raw = process_shard(gf32, k, a, c, "auto")
    assert counters == {**new_counters(), **expected}
    assert raw == arcs


@pytest.mark.parametrize("s", [3, 4, 5])
def test_slope_census_matches_definitions(s):
    """On random affine point sets the census rejects exactly the
    non-arcs, and on arcs its mask is the focus set on Z=0."""
    gf = make_field(s)
    rng = random.Random(1000 + s)
    arcs = 0
    for _ in range(300):
        pts = rng.sample([(x, y) for x in range(gf.q) for y in range(gf.q)],
                         rng.randrange(3, 10))
        proj = [(x, y, 1) for x, y in pts]
        census = _slope_census(gf, pts)
        assert (census is None) == (not is_arc(gf, proj))
        if census is None:
            continue
        arcs += 1
        mask, counts = census
        focus = focus_set(gf, proj, LINE_AT_INFINITY)
        assert mask == sum(1 << slope_of(gf, pt) for pt in focus)
        assert sum(counts) == len(pts) * (len(pts) - 1) // 2
        assert all((n > 0) == bool(mask >> m & 1) for m, n in enumerate(counts))
    assert 0 < arcs < 300
    assert _slope_census(gf, [(0, 0), (1, 1), (0, 0)]) is None  # repeated point


def random_eight_arc(gf, a, rng):
    """A random 8-arc of the `Candidate8` layout with the given a: the
    columns c and f and the ordinates in any order."""
    q = gf.q
    while True:
        c = rng.randrange(2, q)
        d, e = rng.sample(range(q), 2)
        if _slope_census(gf, [(0, 0), (0, 1), (1, 0), (1, a), (c, d), (c, e)]) is None:
            continue
        for _ in range(20):
            f = rng.choice([x for x in range(2, q) if x != c])
            cand = Candidate8(a, c, d, e, f, *rng.sample(range(q), 2))
            if _slope_census(gf, cand.points()) is not None:
                return cand


@pytest.mark.parametrize("s", [3, 4, 5])
def test_batched_census_matches_oracle(s):
    """On random 8-arcs of every a, in one batch three times the size
    `process_shard` passes, `prune8` gives each one's points, and the
    focus mask and the single-secant count of the scalar census."""
    gf = make_field(s)
    q = gf.q
    rng = random.Random(2000 + s)
    n = 3 * search._SURVIVOR_BLOCK + 7
    cands = [random_eight_arc(gf, 1 + i % (q - 1), rng) for i in range(n)]
    px, py, fmask, single = prune8(cands, search._NumpyTables(gf))
    assert px.shape == py.shape == (len(cands), 8)
    rows = zip(cands, px.tolist(), py.tolist(), fmask.tolist(), single.tolist(), strict=True)
    for cand, xs, ys, mask, n_single in rows:
        assert list(zip(xs, ys)) == list(cand.points())
        assert census_verdict(gf, cand, (1, q + 1)) == (mask, n_single)
    assert {c.a for c in cands} == set(range(1, q))
    assert len({mask.bit_count() for mask in fmask.tolist()}) > 1
