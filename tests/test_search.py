"""Candidate stream, shard filters, grid extension, checkpointing."""

import json
import os
import random
import tracemalloc
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from hyperfocus import search
from hyperfocus.arcs import (
    HYPERFOCUSED,
    classify_focus,
    focus_set,
    is_arc,
    make_arc,
    make_arcs,
    translation_hyperoval,
)
from hyperfocus.canon import arc_digest, frobenius_orbit_reps
from hyperfocus.conics import hyperconic_witness
from hyperfocus.field import make_field
from hyperfocus.plane import LINE_AT_INFINITY, all_lines, all_points
from hyperfocus.search import (
    FOCUS_BOUNDS,
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
    K12_A,
    K12_B,
    SURVIVOR_DTYPE,
    Candidate8,
    _slope_census,
    arc_accepts,
    census_stream,
    census_words,
    census_verdict,
    complete_to_hyperovals,
    dense_free_columns,
    enumerate_candidates8,
    extend_arc,
    _direction_rows,
    admissible_points,
    extension_oracle,
    free_columns,
    frobenius_point,
    incident,
    line_through,
    schema1_config_hash,
    schemaless_config_hash,
    shard_candidates,
    shard_census,
    shard_size,
    slope_index,
    stream_shard_python,
    survivor_array,
    tangents_through,
)

ANCHORS = {(0, 0, 1), (0, 1, 1), (1, 0, 1)}
K12_RESULTS = Path(__file__).resolve().parent.parent / "results" / "k12.jsonl"


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


def candidates(survivors):
    """The seven named fields a ... h of `stream_shard`'s records as
    oracle candidates."""
    fields = np.asarray(survivors)[list(Candidate8._fields)]
    return [Candidate8._make(row) for row in fields.tolist()]


def censused(gf, cands, bounds, tab):
    """`prune8` on candidates that the scalar census proves 8-arcs within
    `bounds`, as the stream proves its survivors; each census row must
    agree with the scalar one."""
    census = prune8(survivor_array(gf, cands), tab)
    single = search._single_secants(*census[:2], tab)
    for cand, mask, n_single in zip(cands, census[2].tolist(), single.tolist(), strict=True):
        assert census_verdict(gf, cand, bounds) == (mask, n_single)
    return census


def test_prune8_on_a_stream_survivor(gf32):
    """The census of the first k=12 survivor of a shard, against the
    scalar census and the projective views derived from the definitions."""
    _, survivors = stream_shard(gf32, 2, 2, *FOCUS_BOUNDS[12])
    cand = candidates(survivors)[0]
    tab = search._NumpyTables(gf32)
    px, py, fmask = prune8(survivors[:1], tab)
    single = search._single_secants(px, py, tab)
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
    for lo, hi in (FOCUS_BOUNDS[10], FOCUS_BOUNDS[12], FOCUS_BOUNDS[14], (7, 8)):
        for a_idx, c in shard_list(gf8):
            cp, sp = stream_shard_python(gf8, reps[a_idx], c, lo, hi)
            cn, sn = stream_shard(gf8, reps[a_idx], c, lo, hi)
            assert cp == cn
            assert candidates(sn) == sp


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
    assert candidates(sn) == sp


def test_census_oracle_matches_python_oracle(gf8, gf32):
    """The whole-shard census of the definitions gives the per-candidate
    oracle's counters and survivors: on every q=8 shard for the bounds of
    k = 10, 12 and 14, and on seeded (d, e) subsets of two q=32 shards
    for those of k = 14, which keep every focus count a survivor of
    k = 10 or 12 can have."""
    reps = frobenius_orbit_reps(gf8, exclude=frozenset({0}))
    runs = [(gf8, reps[a_idx], c, None, (10, 12, 14)) for a_idx, c in shard_list(gf8)]
    rng = random.Random(44)
    pairs = [(d, e) for d in range(32) for e in range(d + 1, 32)]
    runs += [(gf32, 2, 7, rng.sample(pairs, 3), (14,)), (gf32, 1, 29, rng.sample(pairs, 4), (14,))]
    for gf, a, c, de, ks in runs:
        census = shard_census(gf, a, c, de)
        for k in ks:
            assert census_stream(census, *FOCUS_BOUNDS[k]) == stream_shard_python(
                gf, a, c, *FOCUS_BOUNDS[k], de_pairs=de
            )


@pytest.mark.parametrize("qname", ["gf8", "gf16"])
def test_stream_matches_census_every_shard(qname, request):
    """Every shard at q = 8 and 16, for the bounds of k = 10, 12 and 14
    and the wide window 9..13: `arcs8`, `focus_rejected`, `focus_9_10`,
    `prepared`, the survivor records and their words w (the focus masks
    less the vertical bit) equal the census oracle's.  At q = 16 the pair
    cap drops pairs at k = 10 and 12 and none at 9..13, and the shards
    hold 483,626 8-arcs, with 1,568 survivors at k = 12, 21,748 at k = 14
    and 25,388 at 9..13."""
    gf = request.getfixturevalue(qname)
    reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
    total = {bounds: new_counters() for bounds in [*FOCUS_BOUNDS.values(), (9, 13)]}
    for a_idx, c in shard_list(gf):
        census = shard_census(gf, reps[a_idx], c)
        for bounds in total:
            want = census_stream(census, *bounds)
            counters, survivors = stream_shard(gf, reps[a_idx], c, *bounds)
            assert counters == want[0], (a_idx, c, bounds)
            assert candidates(survivors) == want[1], (a_idx, c, bounds)
            assert survivors.w.tolist() == census_words(gf, census, *bounds)
            merge_counters(total[bounds], counters)
    if gf.q == 16:
        assert {b: (v["arcs8"], v["prepared"]) for b, v in total.items()} == {
            (9, 9): (483626, 0),
            (11, 11): (483626, 1568),
            (13, 13): (483626, 21748),
            (9, 13): (483626, 25388),
        }


def test_stream_matches_census_on_random_pairs_q32(gf32):
    """Seeded subsets of (d, e) pairs, in random order and with one pair
    reversed and one (y, y), on seeded q=32 shards: the stream's counters,
    survivors and survivor words equal the census oracle's for the bounds
    of k = 10, 12 and 14."""
    rng = random.Random(45)
    reps = frobenius_orbit_reps(gf32, exclude=frozenset({0}))
    pairs = [(d, e) for d in range(32) for e in range(d + 1, 32)]
    shards = rng.sample(shard_list(gf32), 6) + [(0, 2), (1, 2)]
    seen = new_counters()
    for a_idx, c in shards:
        de = rng.sample(pairs, rng.randrange(1, 25))
        de += [de[0][::-1], (de[-1][1],) * 2]
        census = shard_census(gf32, reps[a_idx], c, de)
        for k in (10, 12, 14):
            want = census_stream(census, *FOCUS_BOUNDS[k])
            counters, survivors = stream_shard(
                gf32, reps[a_idx], c, *FOCUS_BOUNDS[k], de_pairs=de
            )
            assert counters == want[0], (a_idx, c, k, de)
            assert candidates(survivors) == want[1], (a_idx, c, k, de)
            assert survivors.w.tolist() == census_words(gf32, census, *FOCUS_BOUNDS[k])
            merge_counters(seen, counters)
    # no 8-arc at q = 16 or 32 has 9 or 10 focuses; q = 8 covers that count
    assert seen["prepared"] > 0 and seen["focus_9_10"] == 0


def test_stream_counter_consistency(gf8):
    reps = frobenius_orbit_reps(gf8, exclude=frozenset({0}))
    lo, hi = FOCUS_BOUNDS[10]
    counters, survivors = stream_shard(gf8, reps[0], 2, lo, hi)
    assert counters["candidates"] == shard_size(gf8, 2)
    assert counters["arcs8"] == counters["prepared"] + counters["focus_rejected"]
    assert counters["prepared"] == len(survivors)


def test_stream_survivor_records(gf8, gf32):
    """What readers of the stream rely on: the survivors are a record
    array of seven int64 fields and the uint32 focus word w, empty with
    the same dtype when a shard has none, and iterating it yields records
    whose fields a ... h are the oracle's values."""
    dtype = SURVIVOR_DTYPE
    _, none = stream_shard(gf32, 1, 3, 7, 7)
    assert isinstance(none, np.recarray)
    assert len(none) == 0 and none.dtype == dtype and list(none) == []
    a = frobenius_orbit_reps(gf8, exclude=frozenset({0}))[0]
    _, want = stream_shard_python(gf8, a, 2, *FOCUS_BOUNDS[10])
    _, survivors = stream_shard(gf8, a, 2, *FOCUS_BOUNDS[10])
    assert isinstance(survivors, np.recarray) and survivors.dtype == dtype
    got = [(s.a, s.c, s.d, s.e, s.f, s.g, s.h) for s in survivors]
    assert got == want and len(got) > 0


@pytest.mark.parametrize("k,a,c", [(12, 2, 2), (12, 1, 2), (14, 1, 11)])
def test_stream_chunking_keeps_survivors(gf32, monkeypatch, k, a, c):
    """With a chunk of one word, each pair chunk holds one (d, e) pair and
    each (g, h) block one row with pairs, so the shard's kept cells come
    from hundreds of chunks; the survivors, their order and the counters
    stay those of the default chunks.  The shards' survivors lie in 2, 110
    and 16 (d, e) pairs."""
    want = stream_shard(gf32, a, c, *FOCUS_BOUNDS[k])
    monkeypatch.setattr(search, "_CHUNK", 1)
    counters, survivors = stream_shard(gf32, a, c, *FOCUS_BOUNDS[k])
    assert counters == want[0]
    assert len(survivors) > 0 and np.array_equal(survivors, want[1])


def test_stream_without_live_rows(gf32, monkeypatch):
    """Pairs whose rows hold 8-arcs but no row with two cells under the
    7-point cut give no (g, h) stage input, only lone cells, and an empty
    record array."""
    sizes = []
    cell_pairs = search._cell_pairs

    def spy(lo, hi, row, m7):
        sizes.append(int(np.count_nonzero(np.unique(row, return_counts=True)[1] >= 2)))
        return cell_pairs(lo, hi, row, m7)

    monkeypatch.setattr(search, "_cell_pairs", spy)
    counters, survivors = stream_shard(gf32, 1, 11, 9, 13, de_pairs=[(2, 17), (2, 18)])
    assert sizes == [0] and counters["arcs8"] > 0
    assert counters["prepared"] == len(survivors) == 0
    assert survivors.dtype == SURVIVOR_DTYPE


@pytest.mark.parametrize("chunk", [None, 1, 300])
@pytest.mark.parametrize("lo,hi", [(0, 32), (9, 11)])
def test_cell_pairs_match_brute_force(monkeypatch, chunk, lo, hi):
    """The (g, h) stage lists, in (row, g, h) order, every two kept cells
    of a row with their word m7[g] | m7[h], counts those with 8 or 9 bits
    and keeps those with lo..hi bits, whether its blocks hold the default
    `_CHUNK` pairs, one row, or a few rows each; rows of 1, 2 and 24
    cells among them."""
    rng = np.random.default_rng(27)
    sizes = [1, 2, 24, 1, 1, 5, 24, 2, 3, 1, 17, 2]
    row = np.repeat(np.sort(rng.choice(10_000, len(sizes), replace=False)), sizes)
    m7 = np.zeros(len(row), np.uint32)
    for cell, n in enumerate(rng.integers(2, 7, len(row))):
        m7[cell] = sum(1 << int(b) for b in rng.choice(32, n, replace=False))
    if chunk is not None:
        monkeypatch.setattr(search, "_CHUNK", chunk)
    cells = combinations(range(len(row)), 2)
    pairs = [(i, j, int(m7[i] | m7[j])) for i, j in cells if row[i] == row[j]]
    bits = [w.bit_count() for _, _, w in pairs]
    n910, i, j, w = search._cell_pairs(lo, hi, row, m7)
    assert n910 == sum(8 <= b <= 9 for b in bits) > 0
    want = [p for p, b in zip(pairs, bits) if lo <= b <= hi]
    assert list(zip(i.tolist(), j.tolist(), w.tolist())) == want and len(want) > 0
    assert w.dtype == np.uint32
    if (lo, hi) == (0, 32):
        assert len(want) == sum(n * (n - 1) // 2 for n in sizes)


def test_stream_memory_peak_q32(gf32):
    """The heaviest k=14 shard's stream allocates under 2 MiB at its peak
    (1.36 MiB measured with numpy 2.4): pair chunks and (g, h) blocks
    hold at most `_CHUNK` words or pairs.  One (g, h) block over the
    whole shard peaks at 2.38 MiB."""
    stream_shard(gf32, 1, 2, *FOCUS_BOUNDS[14])  # the field's tables are built outside the trace
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        stream_shard(gf32, 1, 2, *FOCUS_BOUNDS[14])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_resolve_engine(gf32):
    """numpy is the only engine; the name stays for bench/run.py."""
    assert resolve_engine(gf32, "auto") == "numpy"
    assert resolve_engine(gf32, "numpy") == "numpy"
    for name in ("python", "fortran"):
        with pytest.raises(SearchError, match="unknown engine"):
            resolve_engine(gf32, name)


def test_record_claims_match_the_per_arc_calls(gf16):
    """One record_claims call on arcs of 1 to 10 points, half of them in a
    hyperconic, each on its own line, some of them meeting it, gives each
    arc the claims that the per-arc calls give it: focus count and digest
    on its line when it is exterior, else None, and the hyperconic
    witness from 6 points on.  A stack of one size gives the same claims
    as its list."""
    rng = random.Random(16)
    pts, lines = list(all_points(gf16)), list(all_lines(gf16))
    oval = translation_hyperoval(gf16, 1)  # a conic and its nucleus
    arcs = []
    while len(arcs) < 60:
        arc = ()
        for p in rng.sample(pts, len(pts)):
            if len(arc) == 1 + len(arcs) // 2 % 10:
                break
            if arc_accepts(gf16, arc, p):
                arc = extend_arc(gf16, arc, p)
        arcs += [arc, make_arc(gf16, rng.sample(oval, rng.randrange(6, 11)))]
    # every third arc is given a line through one of its points
    chosen = [
        line_through(gf16, arc[0], rng.choice([p for p in pts if p != arc[0]]))
        if i % 3 == 0 else rng.choice(lines)
        for i, arc in enumerate(arcs)
    ]
    want = []
    for arc, line in zip(arcs, chosen):
        exterior = not any(incident(gf16, p, line) for p in arc)
        claims = dict.fromkeys(search.CLAIMS) | {"k": len(arc)}
        if exterior:
            claims["focus_count"] = classify_focus(gf16, arc, line)[1]
            if len(arc) >= 3:
                claims["digest"] = arc_digest(gf16, arc, line)
        if len(arc) >= 6:
            wit = hyperconic_witness(gf16, arc)
            claims.update(
                hyperconic=wit.found,
                conic=list(wit.conic) if wit.found else None,
                nucleus=list(wit.nucleus) if wit.found else None,
            )
        want.append(claims)
    assert sum(c["focus_count"] is None for c in want) >= 20
    assert sum(bool(c["hyperconic"]) for c in want) >= 30
    assert search.record_claims(gf16, arcs, chosen) == want
    sevens = [i for i, arc in enumerate(arcs) if len(arc) == 7]
    assert len(sevens) > 3
    stack = np.array([arcs[i] for i in sevens])
    got = search.record_claims(gf16, stack, [chosen[i] for i in sevens])
    assert got == [want[i] for i in sevens]


def test_postprocess_orbit_images_match_frobenius_point(gf32, monkeypatch):
    """`_postprocess` takes the orbit closure as one gather from the
    field's Frobenius table: the images it checks are the scalar
    `frobenius_point` images, representative by representative and power
    by power, and the arcs it keeps are theirs."""
    seen = []

    def spy(gf, point_sets):
        seen.append([tuple(map(tuple, pts)) for pts in point_sets])
        return make_arcs(gf, point_sets)

    monkeypatch.setattr(search, "make_arcs", spy)
    reps = [K12_B, K12_A, K12_B]
    found, _ = search._postprocess(gf32, 12, reps, new_counters())
    want = [
        tuple(frobenius_point(gf32, p, i) for p in arc)
        for arc in (K12_B, K12_A)
        for i in range(gf32.s)
    ]
    assert seen == [want]
    assert len(set(want)) == 2 * gf32.s
    assert sorted(found) == sorted({make_arc(gf32, img) for img in want})


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


@pytest.mark.parametrize("k", [8, 11, 16])
def test_closure_completions_rejects_k_outside_the_bounds(gf16, k):
    """The extension assumes the matching lemma, which needs k <= 14: it
    refuses every k that is no key of `FOCUS_BOUNDS`, before any work."""
    tab = search._NumpyTables(gf16)
    px, py, fmask = censused(gf16, [Candidate8(1, 2, 4, 5, 3, 10, 12)], (1, 17), tab)
    with pytest.raises(ValueError, match=f"k={k} is not supported"):
        closure_completions(gf16, px, py, fmask, k, tab)


def test_run_search_rejects_bad_k(gf8):
    with pytest.raises(SearchError):
        run_search(gf8, 13, SearchConfig())
    with pytest.raises(SearchError):
        run_search(gf8, 16, SearchConfig())


@pytest.mark.parametrize("workers", [0, -1])
def test_run_search_rejects_workers_below_one(gf8, tmp_path, monkeypatch, workers):
    """A worker count below 1 is refused before any shard runs and before
    any checkpoint is written, not run as one worker."""
    ran = []
    monkeypatch.setattr(search, "process_shard", lambda *args: ran.append(args))
    ckpt = tmp_path / "run.ckpt"
    config = SearchConfig(workers=workers, checkpoint=str(ckpt), max_shards=1)
    with pytest.raises(SearchError, match=f"workers={workers} must be >= 1"):
        run_search(gf8, 10, config)
    assert ran == [] and not ckpt.exists()


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


def same_tables(tab, other):
    """The two table sets hold equal arrays."""
    names = ("rays", "cells", "anchors")
    return all(np.array_equal(getattr(tab, n), getattr(other, n)) for n in names)


def test_search_tables_built_once_per_field(gf8, monkeypatch):
    """A serial run builds the field's search tables once; a second run
    and a later shard stream reuse that set, which equals a from-scratch
    build."""
    monkeypatch.setattr(search._NumpyTables, "_built", {})
    run_search(gf8, 10, SearchConfig())
    (tab,) = search._NumpyTables._built.values()
    run_search(gf8, 10, SearchConfig())
    stream_shard(gf8, 1, 2, *FOCUS_BOUNDS[10])
    assert list(search._NumpyTables._built.values()) == [tab]
    assert search._NumpyTables(make_field(3)) is tab
    monkeypatch.setattr(search._NumpyTables, "_built", {})
    fresh = search._NumpyTables(gf8)
    assert fresh is not tab and same_tables(fresh, tab)


def test_search_tables_keyed_by_field(monkeypatch):
    """Two fields of one size have their own tables."""
    other = search._NumpyTables(make_field(5, 0x25))
    gf = make_field(5, 0x29)
    got = search._NumpyTables(gf)
    assert got is not other and got is search._NumpyTables(gf)
    monkeypatch.setattr(search._NumpyTables, "_built", {})
    fresh = search._NumpyTables(gf)
    assert fresh is not got and same_tables(fresh, got)
    assert not same_tables(fresh, other)


@pytest.mark.parametrize("qname", ["gf8", "gf16", "gf32"])
def test_rays_match_slope_oracle(qname, request):
    """`rays[y0 * q + dx, y]` is the bit of the oracle's direction from
    (0, y0) to (dx, y), and 0 for the vertical (dx = 0)."""
    gf = request.getfixturevalue(qname)
    q = gf.q
    want = [
        [0 if dx == 0 else 1 << slope_index(gf, (0, y0), (dx, y)) for y in range(q)]
        for y0 in range(q)
        for dx in range(q)
    ]
    rays = search._NumpyTables(gf).rays
    assert rays.dtype == np.uint32 and rays.flags.c_contiguous
    assert rays.tolist() == want


def test_resolve_engine_refuses_numpy_without_bitwise_count(gf8, monkeypatch):
    """numpy < 2.0 has no `bitwise_count`: resolving the engine refuses
    it, and so does a shard whose field's tables are already cached."""
    stream_shard(gf8, 1, 2, *FOCUS_BOUNDS[10])
    monkeypatch.delattr(np, "bitwise_count")
    with pytest.raises(SearchError, match="needs numpy >= 2.0"):
        resolve_engine(gf8, "auto")
    with pytest.raises(SearchError, match="needs numpy >= 2.0"):
        process_shard(gf8, 10, 1, 2)


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
    12-arc; its whole shard produces only verified extensions, exactly
    those of the scalar extension oracle."""
    tab = search._NumpyTables(gf32)
    known = Candidate8(a=2, c=2, d=1, e=6, f=6, g=2, h=9)
    px, py, fmask = censused(gf32, [known], FOCUS_BOUNDS[12], tab)
    assert closure_completions(gf32, px, py, fmask, 12, tab) == {0: [K12_A]}
    produced = 0
    _, survivors = stream_shard(gf32, 2, 2, *FOCUS_BOUNDS[12])
    cands = candidates(survivors)
    assert known in cands
    px, py, fmask = censused(gf32, cands, FOCUS_BOUNDS[12], tab)
    results = closure_completions(gf32, px, py, fmask, 12, tab)
    assert list(results) == list(range(len(cands))) == list(range(6))
    assert list(results.values()) == extension_oracle(gf32, cands, 12)
    for r, arcs in results.items():
        cand = cands[r]
        for arc in arcs:
            assert len(arc) == 12
            assert {(x, y, 1) for x, y in cand.points()} <= set(arc)
            kind, n = classify_focus(gf32, arc, LINE_AT_INFINITY)
            assert (kind, n) == (HYPERFOCUSED, 11)
            produced += 1
    assert produced == 6
    # the six roots repeated, then each between a survivor of shard (1, 3),
    # of another a and c, and one of the 7-focus 8-arcs of shard (1, 2),
    # whose words have fewer than k - 2 bits: each copy keeps its own
    # index and its leaves
    n = 192
    copies = np.arange(n) % 6
    tiled = closure_completions(gf32, px[copies], py[copies], fmask[copies], 12, tab)
    assert tiled == {r: results[r % 6] for r in range(n)}
    _, other = stream_shard(gf32, 1, 3, *FOCUS_BOUNDS[12])
    _, loose = stream_shard(gf32, 1, 2, 7, 8)
    both = [np.concatenate(v) for v in zip((px, py, fmask), prune8(other, tab), prune8(loose, tab))]
    assert set(np.bitwise_count(both[2]).tolist()) == {7, 11}
    slots = np.empty(n, dtype=np.int64)  # rows of `both`
    slots[0::3] = copies[: n // 3]
    slots[1::3] = 6 + np.arange(n // 3) % len(other)
    slots[2::3] = 6 + len(other) + np.arange(n // 3) % len(loose)
    tiled = closure_completions(gf32, *(v[slots] for v in both), 12, tab)
    assert tiled == {3 * i: results[i % 6] for i in range(n // 3)}


@pytest.fixture(scope="module")
def shard_oracle(gf32):
    """The stream survivors of a q=32 shard at k, for the bounds of k or
    the given ones, with the free columns `free_columns` counts for each,
    computed once per (a, c, k, bounds)."""
    cache = {}

    def get(a, c, k, bounds=None):
        key = (a, c, k, bounds or FOCUS_BOUNDS[k])
        if key not in cache:
            _, survivors = stream_shard(gf32, a, c, *key[3])
            cache[key] = survivors, free_columns(gf32, candidates(survivors), k)
        return cache[key]

    return get


def test_closure_path_on_real_survivors(gf32, shard_oracle):
    """Run the search on every survivor of one shard in the window 9..13,
    at every focus count they show (no 8-arc has 9 or 10 focuses,
    criterion 4): none is a root at k=14, and by the oracle none has the
    3 free columns of two admissible points that a 14-arc needs, so the
    column early exit alone decides the shard.  The dense reference
    counts the same free columns and focuses."""
    tab = search._NumpyTables(gf32)
    survivors, n_free = shard_oracle(1, 2, 14, (9, 13))
    px, py, fmask = prune8(survivors, tab)
    assert closure_completions(gf32, px, py, fmask, 14, tab) == {}
    assert len(n_free) == len(survivors) > 5000 and max(n_free) < 3
    assert {m.bit_count() for m in fmask.tolist()} == {11, 12, 13}
    focus, dense = dense_free_columns(gf32, survivors, 14)
    assert dense.tolist() == n_free
    assert focus.tolist() == np.bitwise_count(fmask).tolist()


def test_k14_without_the_lemma_q32(gf32):
    """The k=14 headline without the matching lemma.  The stream's
    survivors in the window 9..13 over every q=32 shard are 112,900;
    the 39,096 outside `FOCUS_BOUNDS[14]`, which the search never
    extends, have 12 focuses (34,848) or 11 (4,248) by the dense
    reference.  By the same reference none is a root: each has at most 2
    free columns of two admissible points, where a 14-arc needs 3."""
    reps = frobenius_orbit_reps(gf32, exclude=frozenset({0}))
    parts = [stream_shard(gf32, reps[i], c, 9, 13)[1] for i, c in shard_list(gf32)]
    survivors = np.concatenate(parts)
    assert len(survivors) == 112900
    low = survivors[np.bitwise_count(survivors["w"]) < 12]
    focus, n_free = dense_free_columns(gf32, low, 14)
    assert Counter(focus.tolist()) == {12: 34848, 11: 4248}
    assert np.count_nonzero(n_free >= 3) == 0 and n_free.max() == 2


def interleaved(parts):
    """The order that takes rows of several arrays in turn, one of each,
    as indices into their concatenation."""
    rank = np.concatenate([np.arange(len(p)) for p in parts])
    return np.argsort(rank, kind="stable")


@pytest.fixture(scope="module")
def closure_batch(request):
    """One batch of the stream 8-arcs with 7 to k focuses, taken from all
    shards of a field in turn (or only those of a column c in `cs`), the
    roots the oracle finds in it (2 admissible points in (k - 8)/2 free
    columns) and the extension's completions of it, None for a k above
    14, computed once per (field, k, cs)."""
    cache = {}

    def get(field, k, cs):
        key = (field, k, None if cs is None else frozenset(cs))
        if key not in cache:
            gf = request.getfixturevalue(field)
            tab = search._NumpyTables(gf)
            reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
            parts = [
                stream_shard(gf, reps[i], c, 7, k)[1]
                for i, c in shard_list(gf)
                if cs is None or c in cs
            ]
            survivors = np.concatenate(parts)[interleaved(parts)]
            n_free = np.array(free_columns(gf, candidates(survivors), k))
            roots = set(np.flatnonzero(n_free >= (k - 8) // 2).tolist())
            completions = None
            if k in FOCUS_BOUNDS:
                px, py, fmask = prune8(survivors, tab)
                completions = closure_completions(gf, px, py, fmask, k, tab)
            cache[key] = gf, survivors, roots, completions
        return cache[key]

    return get


@pytest.mark.parametrize("field,k,cs,n_roots", [
    ("gf8", 10, None, 48),
    ("gf16", 10, None, 0),
    ("gf16", 12, None, 0),
    ("gf16", 16, {14}, 802),
])
def test_closure_roots_match_oracle(field, k, cs, n_roots, closure_batch):
    """The roots of the extension, in one batch of the stream 8-arcs with
    7 to k focuses taken from all shards in turn, are the candidates the
    oracle finds 2 admissible points in (k - 8)/2 free columns of.  At
    k=16 (only the shards of c = 14), where the matching lemma fails and
    the extension refuses, the oracle's roots are pinned alone."""
    _, _, roots, completions = closure_batch(field, k, cs)
    if completions is not None:
        assert set(completions) == roots
    assert len(roots) == n_roots


@pytest.mark.parametrize("k,shards,n_roots", [
    (12, [(7, 2), (1, 2), (2, 4), (2, 2)], 6),
    (14, [(7, 2), (2, 6), (2, 2), (1, 2)], 0),
])
def test_closure_roots_match_oracle_q32(gf32, shard_oracle, k, shards, n_roots):
    """As above at q=32, on one batch of the survivors of several shards
    in turn: shards that share c, and shards that share a, so that equal
    (d, e) come with another a or another c."""
    tab = search._NumpyTables(gf32)
    parts, counts = zip(*(shard_oracle(a, c, k) for a, c in shards))
    order = interleaved(parts)
    survivors = np.concatenate(parts)[order]
    n_free = np.concatenate(counts)[order]
    px, py, fmask = prune8(survivors, tab)
    roots = set(closure_completions(gf32, px, py, fmask, k, tab))
    assert roots == set(np.flatnonzero(n_free >= (k - 8) // 2).tolist())
    assert len(roots) == n_roots


def test_closure_mixed_batches_keep_roots(gf32):
    """The extension takes slope pairs only from the rows whose word has
    k - 2 bits.  On one batch of the 8-arcs with 7 to 14 focuses of four
    shards of three a in turn, last first, whose words have 6 to 13 bits,
    the roots, leaves and root order at k=12 are those of each shard's
    rows and of each bit count's rows on their own, at their batch
    indices."""
    tab = search._NumpyTables(gf32)
    parts = [stream_shard(gf32, a, c, 7, 14)[1] for a, c in [(7, 2), (1, 2), (2, 4), (2, 2)]]
    order = interleaved(parts)[::-1]
    px, py, fmask = prune8(np.concatenate(parts)[order], tab)
    want = closure_completions(gf32, px, py, fmask, 12, tab)
    bits = np.bitwise_count(fmask) - 1
    assert set(bits.tolist()) == {6, 10, 11, 12, 13} and len(want) == 6
    assert len(set(py[:, 3].tolist())) == 3
    shard = np.repeat(np.arange(len(parts)), list(map(len, parts)))[order]
    for kind in (shard, bits):
        got = {}
        for key in np.unique(kind):
            rows = np.flatnonzero(kind == key)
            got.update({
                int(rows[r]): leaves
                for r, leaves in closure_completions(
                    gf32, px[rows], py[rows], fmask[rows], 12, tab
                ).items()
            })
        assert sorted(got.items()) == list(want.items())
    assert list(want) == sorted(want)


ADMISSIBLE_CASES = {
    # field, k: shards by a-index and c, the stream's focus bounds, and the
    # (word has k - 2 bits, row has an admissible point) kinds of the batch
    ("gf8", 10): (None, (7, 9), {(True, True), (False, False)}),
    ("gf16", 16): ([(0, 3), (1, 14), (2, 9), (4, 5)], (7, 17), {
        (True, True), (True, False), (False, True), (False, False)}),
    ("gf32", 12): ([(1, 2), (0, 2), (6, 2)], (7, 14), {
        (True, True), (True, False), (False, False)}),
    ("gf32", 14): ([(1, 7), (6, 4), (0, 2)], (9, 14), {
        (True, True), (True, False), (False, False)}),
    ("gf32", 16): ([(1, 2), (0, 2), (6, 2)], (7, 16), {
        (True, True), (True, False), (False, True), (False, False)}),
}


@pytest.mark.parametrize("field,k", sorted(ADMISSIBLE_CASES))
def test_admissible_points_match_oracle(field, k, request):
    """The admissible points of the extension, in one batch of stream
    8-arcs of several a with 7 to k or more focuses: up to 30 seeded
    rows of each (a, word size), shuffled.  Only rows whose word has
    k - 2 bits have any.  Each row's points, column by column, are the
    oracle's (`admissible_points`), and so are its free columns of two or
    more (`free_columns`).  At k=16, where the matching lemma fails and
    the extension refuses, rows with fewer bits have admissible points
    too, and only the oracle's kinds of row are pinned."""
    gf = request.getfixturevalue(field)
    shards, bounds, kinds = ADMISSIBLE_CASES[field, k]
    rng = random.Random(gf.q * k)
    tab = search._NumpyTables(gf)
    reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
    pool = np.concatenate([
        stream_shard(gf, reps[i], c, *bounds)[1] for i, c in shards or shard_list(gf)
    ])
    groups = {}
    for r, key in enumerate(zip(pool["a"].tolist(), np.bitwise_count(pool["w"]).tolist())):
        groups.setdefault(key, []).append(r)
    picked = [r for rows in groups.values() for r in rng.sample(rows, min(30, len(rows)))]
    rng.shuffle(picked)
    batch = pool[picked]
    oracle_rows = _direction_rows(gf)
    want, seen = [], set()
    for r, cand in enumerate(candidates(batch)):
        _, cols = admissible_points(gf, oracle_rows, cand.points(), k)
        want.append({x: [y for y, _ in col] for x, col in cols if col})
        seen.add((int(np.bitwise_count(batch["w"][r])) == k - 2, bool(want[-1])))
    assert seen == kinds
    assert len(set(batch["a"].tolist())) > 1
    if k not in FOCUS_BOUNDS:
        return
    px, py, fmask = prune8(batch, tab)
    rows, cells = search._admissible(px, py, fmask, k, tab)
    got = [{} for _ in picked]
    for r, cell in sorted(zip(rows.tolist(), cells.tolist())):
        got[r].setdefault(cell // gf.q, []).append(cell % gf.q)
    assert got == want
    n_free = np.bincount(rows * gf.q + cells // gf.q, minlength=len(picked) * gf.q)
    n_free = np.count_nonzero(n_free.reshape(len(picked), gf.q) >= 2, axis=1)
    assert n_free.tolist() == free_columns(gf, candidates(batch), k)


TANGENT_SHARDS = {
    # field, k: the shards by a-index and c whose stream survivors are taken (None: all)
    ("gf8", 10): None,
    ("gf32", 12): [(0, 9), (6, 2)],
    ("gf32", 14): [(1, 7), (6, 4)],
}


@pytest.mark.parametrize("field,k", sorted(TANGENT_SHARDS))
def test_tangent_words_match_oracle(field, k, request, monkeypatch):
    """The tangent words of (0,0) and (0,1) that `_admissible` peels its
    candidate slopes from, on stream survivors.  Each point of an 8-arc
    has 7 secants in 7 directions, one vertical; at (0,0) and (0,1) the
    other 6 are distinct bits of w, and the tangent word is the rest of
    w, k - 8 bits.  The directions come from the oracle's `slope_index`."""
    gf = request.getfixturevalue(field)
    tab = search._NumpyTables(gf)
    reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
    survivors = np.concatenate([
        stream_shard(gf, reps[i], c, *FOCUS_BOUNDS[k])[1]
        for i, c in TANGENT_SHARDS[field, k] or shard_list(gf)
    ])
    assert len(survivors) >= 40
    want = []
    for cand, w in zip(candidates(survivors), survivors["w"].tolist(), strict=True):
        pts = cand.points()
        for base in pts[:2]:
            dirs = [slope_index(gf, base, p) for p in pts if p != base]
            assert len(set(dirs)) == 7 and dirs.count(gf.q) == 1
            secants = sum(1 << s for s in dirs if s != gf.q)
            assert secants & w == secants
            want.append(w & ~secants)
            assert want[-1].bit_count() == k - 8
    peeled = []
    peel = search._peel
    monkeypatch.setattr(search, "_peel", lambda t, n: peeled.append((t.copy(), n)) or peel(t, n))
    search._admissible(*prune8(survivors, tab), k, tab)
    [(got, n)] = peeled
    assert n == k - 8
    assert got.T.ravel().tolist() == want


def test_peel_matches_flatnonzero():
    """`_peel` lists each word's set bits, lowest first, as `np.flatnonzero`
    lists them, on seeded uint32 words with bits 0 and 31 set, along a new
    first axis; with n under a word's bit count it takes the n lowest."""
    rng = random.Random(28)
    for n in range(2, 33):
        words = [
            sum(1 << b for b in [0, 31] + rng.sample(range(1, 31), n - 2)) for _ in range(40)
        ]
        t = np.array(words, dtype=np.uint32).reshape(8, 5)
        bits = np.unpackbits(t.reshape(-1, 1).view(np.uint8), axis=1, bitorder="little")
        got = search._peel(t, n)
        assert got.shape == (n, 8, 5) and got.dtype == np.int64
        assert got.reshape(n, -1).T.tolist() == [np.flatnonzero(b).tolist() for b in bits]
        assert np.array_equal(search._peel(t, n - 1), got[:-1])
        assert t.ravel().tolist() == words


def test_column_pairs_needs_distinct_directions(gf32):
    """A direct test of the completion on a collinear triple at q=32.
    On the 8-arc of `K12_A`'s candidate, the admissible points are
    `K12_A`'s two added pairs, in columns 9 and 28, and a point R of
    column 28 on the line through (9, 6) and an 8-arc point.  The
    candidates with R are no arcs (they also have more than 11 focuses,
    so the arc check alone is guarded by the q=16 hyperoval tests, where
    non-arcs reach k - 1 focuses): only `K12_A` is a completion."""
    x8, y8 = [list(v) for v in zip(*Candidate8(2, 2, 1, 6, 6, 2, 9).points())]
    s = slope_index(gf32, (9, 6), (0, 0))
    r = (28, 6 ^ gf32.mul(s, 9 ^ 28))
    assert r[1] not in (9, 28) and not is_arc(gf32, [(0, 0, 1), (9, 6, 1), (*r, 1)])
    ok = np.zeros((32, 32), dtype=bool)
    for x, y, _ in K12_A[8:] + ((*r, 1),):
        ok[x, y] = True
    (leaves,) = search._completions(gf32, np.array([x8]), np.array([y8]), ok[None], 12)
    assert all(is_arc(gf32, arc) for arc in leaves)
    assert leaves == [K12_A]


def test_completion_keeps_only_arcs(gf8):
    """The arc check of the completion on its own.  At q=8 a point set
    has at most q + 1 = 9 focuses, so a 10-point candidate that is no
    arc can still show k - 1 = 9.  Beside the admissible pair (6, 2),
    (6, 4) that completes the 8-arc of candidate (1, 2, 4, 6, 4, 2, 6),
    the table admits (3, 0) and (3, 1), and (3, 0) lies on Y = 0 with
    (0, 0) and (1, 0): that candidate has 9 directions, and only the
    arc is a completion."""
    cand = Candidate8(1, 2, 4, 6, 4, 2, 6)
    x8, y8 = [list(v) for v in zip(*cand.points())]
    col3 = [(3, 0), (3, 1)]
    bad = list(cand.points()) + col3
    assert _slope_census(gf8, bad) is None
    assert len({slope_index(gf8, p, r) for p, r in combinations(bad, 2)}) == 9
    ok = np.zeros((8, 8), dtype=bool)
    for x, y in [(6, 2), (6, 4)] + col3:
        ok[x, y] = True
    (leaves,) = search._completions(gf8, np.array([x8]), np.array([y8]), ok[None], 10)
    arc = make_arc(gf8, [(x, y, 1) for x, y in cand.points() + ((6, 2), (6, 4))])
    assert classify_focus(gf8, arc, LINE_AT_INFINITY) == (HYPERFOCUSED, 9)
    assert leaves == [arc]


def test_column_pairs_focus_bound_is_strict(gf32):
    """The completion decides from the points, not from the table.
    Besides `K12_A`'s two added pairs, in columns 9 and 28, the table
    admits the pair (3, 0), (3, 1) of column 3, whose directions to
    column 9's pair and to column 28's pair are eight distinct
    non-vertical ones.  (3, 0) lies on Y = 0 with (0, 0) and (1, 0), so
    the candidates of columns 3 and 9 and of columns 3 and 28 are no
    arcs, and only `K12_A` is a completion."""
    x8, y8 = [list(v) for v in zip(*Candidate8(2, 2, 1, 6, 6, 2, 9).points())]
    col3 = [(3, 0), (3, 1)]
    across9 = [slope_index(gf32, p, r) for p in ((9, 6), (9, 28)) for r in col3]
    across28 = [slope_index(gf32, p, r) for p in ((28, 9), (28, 28)) for r in col3]
    assert len(set(across9 + across28)) == 8 and gf32.q not in across9 + across28
    ok = np.zeros((32, 32), dtype=bool)
    for x, y in [p[:2] for p in K12_A[8:]] + col3:
        ok[x, y] = True
    (leaves,) = search._completions(gf32, np.array([x8]), np.array([y8]), ok[None], 12)
    assert leaves == [K12_A]


def test_closure_finds_sixteen_arc_four_pairs_deep(gf32):
    """Positive control at depth 4: over the additive subgroup
    V = <1, 2, 4, 8> of GF(32), the points (x + x^2, x^2) form a
    hyperfocused 16-arc with 15 focuses in 8 vertical pairs.  Moved by
    (x, y) -> (x / 2, y + 5x) onto the normalized frame, four of its
    pairs are a candidate 8-arc, and the scalar extension oracle must
    find the other four.  `closure_completions` refuses k=16, where the
    matching lemma fails; its generate and test would face
    449,499,818,556 candidates here."""
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
    censused(gf, [cand], (1, 15), search._NumpyTables(gf))
    results = dict(enumerate(extension_oracle(gf, [cand], 16)))
    assert list(results) == [0]
    arcs = results[0]
    assert arc16 in arcs
    for arc in arcs:
        assert {(x, y, 1) for x, y in cand.points()} <= set(arc)
        assert classify_focus(gf, arc, LINE_AT_INFINITY) == (HYPERFOCUSED, 15)
    assert len(set(arcs)) == len(arcs) == 42


@pytest.mark.parametrize("f,g,h,n_ovals", [(3, 4, 11, 0), (3, 10, 12, 1), (4, 2, 3, 2)])
def test_closure_matches_hyperoval_oracle_q16(gf16, f, g, h, n_ovals):
    """Depth 5, two independent oracles: in PG(2,16) an 18-arc is a
    hyperoval, hyperfocused (17 focuses) on every exterior line, so at
    k = 18 the scalar extension oracle must return exactly the hyperovals
    through the 8-arc that miss Z=0, as the point-by-point completion
    finds them.  (`closure_completions` refuses k=18, where the matching
    lemma fails.)"""
    cand = Candidate8(a=1, c=2, d=4, e=5, f=f, g=g, h=h)
    arc8 = make_arc(gf16, [(x, y, 1) for x, y in cand.points()])
    ovals = {frozenset(o) for o in complete_to_hyperovals(gf16, arc8) if all(p[2] for p in o)}
    got = extension_oracle(gf16, [cand], 18)[0]
    assert {frozenset(a) for a in got} == ovals
    assert len(got) == len(ovals) == n_ovals


@pytest.mark.parametrize("field,k,cs,n_arcs", [
    ("gf8", 10, None, 48),
    ("gf16", 16, {14}, 806),
])
def test_extension_oracle_matches_closure(field, k, cs, n_arcs, closure_batch):
    """Where both run, `closure_completions` and the scalar extension
    oracle find the same completions.  On the batches of the roots test
    above (every q=8 shard at k=10; the q=16 shards of c = 14 at k=16,
    802 roots, where only the oracles run), each root's completions are
    the oracle's, and the oracle finds none through the 8-arcs that are
    no root by `free_columns`.  The q=32 shard (2, 2) at k=12 and the
    q=16 hyperoval cases at k=18 are checked against the oracle in their
    own tests above."""
    gf, survivors, roots, completions = closure_batch(field, k, cs)
    want = extension_oracle(gf, candidates(survivors), k)
    if completions is not None:
        got = {r: sorted(arcs) for r, arcs in completions.items()}
        assert got == {r: want[r] for r in completions}
    assert not any(arcs for r, arcs in enumerate(want) if r not in roots)
    assert sum(map(len, want)) == n_arcs


def matching_lemma_counts(gf, arcs) -> Counter:
    """How many unions of four of the pairs through one focus, over every
    focus of each affine hyperfocused arc, have each focus count, by the
    scalar `_slope_census`.  The pairs through each focus must match the
    arc's points, k/2 of them."""
    counts = Counter()
    for arc in arcs:
        assert all(p[2] == 1 for p in arc)
        pts = [(p[0], p[1]) for p in arc]
        by_focus = {}
        for p, r in combinations(pts, 2):
            by_focus.setdefault(slope_index(gf, p, r), []).append((p, r))
        assert len(by_focus) == len(pts) - 1
        for pairs in by_focus.values():
            assert len(pairs) == len(pts) // 2
            for four in combinations(pairs, 4):
                mask, _ = _slope_census(gf, [p for pair in four for p in pair])
                counts[mask.bit_count()] += 1
    return counts


def test_matching_lemma_on_the_sixty(gf32):
    """The matching lemma on the 60 stored 12-arcs: for every focus F,
    each union of four of F's 6 pairs is an 8-arc with all 11 focuses of
    the 12-arc (60 x 11 x 15 = 9,900 sets)."""
    arcs = [json.loads(line)["points"] for line in K12_RESULTS.read_text().splitlines()]
    assert len(arcs) == 60
    assert matching_lemma_counts(gf32, arcs) == {11: 9900}


def test_matching_lemma_on_q8_ten_arcs(gf8):
    """The same on the 40 q=8 10-arcs of `run_search`: each union of four
    of a focus's 5 pairs has exactly 9 focuses (40 x 9 x 5 = 1,800)."""
    found = run_search(gf8, 10, SearchConfig()).found
    assert len(found) == 40
    assert matching_lemma_counts(gf8, found) == {9: 1800}


def low_focus_stream(gf):
    """The stream 8-arcs with 7 or 8 focuses, by (a, c) shard."""
    reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
    return {
        (reps[a_idx], c): stream_shard(gf, reps[a_idx], c, 7, 8)[1]
        for a_idx, c in shard_list(gf)
    }


@pytest.fixture(scope="module")
def low_focus_q32(gf32):
    return low_focus_stream(gf32)


@pytest.mark.parametrize("s,n7", [(3, 14), (4, 42), (5, 210)])
def test_no_stream_eight_arc_has_eight_focuses(s, n7, request):
    """`FOCUS_BOUNDS` drops the 8-arcs with 7 or 8 focuses.  Computed
    over every shard: none has 8 focuses, and 14, 42 and 210 have 7 at
    q = 8, 16 and 32.  At q=32 all of them have a = 1, 14 in each shard
    of even c."""
    gf = request.getfixturevalue("gf32") if s == 5 else make_field(s)
    stream = request.getfixturevalue("low_focus_q32") if s == 5 else low_focus_stream(gf)
    tab = search._NumpyTables(gf)
    sizes = Counter()
    for survivors in stream.values():
        sizes.update(mask.bit_count() for mask in prune8(survivors, tab)[2].tolist())
    assert sizes == {7: n7}
    if s == 5:
        per_shard = {key: len(v) for key, v in stream.items() if len(v)}
        assert per_shard == {(1, c): 14 for c in range(2, 32, 2)}


def test_focus_bounds_lose_no_arc_q32(gf32, low_focus_q32):
    """The 210 q=32 stream 8-arcs with 7 focuses reach no 10-, 12- or
    14-arc: by the dense reference, which assumes no matching lemma, none
    has the (k - 8)/2 free columns of two admissible points that such an
    arc needs.  The 14 of shard (1, 2) are a depth-4 control on real
    stream output, run on the scalar extension oracle: each lies in
    exactly 42 hyperfocused 16-arcs with 15 focuses, 588 distinct in
    all, and in no 18-arc."""
    low = np.concatenate(list(low_focus_q32.values()))
    assert len(low) == 210
    for k in (10, 12, 14):
        focus, n_free = dense_free_columns(gf32, low, k)
        assert set(focus.tolist()) == {7} and n_free.max() < (k - 8) // 2
    cands = candidates(low_focus_q32[(1, 2)])
    roots = dict(enumerate(extension_oracle(gf32, cands, 16)))
    assert {r: len(arcs) for r, arcs in roots.items()} == {r: 42 for r in range(14)}
    for r, arcs in roots.items():
        for arc in arcs:
            assert is_arc(gf32, arc)
            assert {(x, y, 1) for x, y in cands[r].points()} <= set(arc)
            assert classify_focus(gf32, arc, LINE_AT_INFINITY) == (HYPERFOCUSED, 15)
    assert len({arc for arcs in roots.values() for arc in arcs}) == 588
    roots = dict(enumerate(extension_oracle(gf32, cands, 18)))
    assert roots == {r: [] for r in range(14)}


def test_process_shard_counts(gf8):
    reps = frobenius_orbit_reps(gf8, exclude=frozenset({0}))
    counters, raw = process_shard(gf8, 10, reps[0], 2, "auto")
    assert counters["candidates"] == shard_size(gf8, 2)
    assert counters["extended"] == len(raw)
    assert counters["closure_survivors"] == 0  # a k=14 tally


def test_process_shard_batches_every_survivor(gf32, monkeypatch):
    """Shard (0, 2), the k=14 shard with the most survivors, has 4,068:
    the census sees each of them, all with 13 focuses by the scalar
    census, once, in stream order, and the extension sees each census
    result, across many survivor batches."""
    seen = {"census": [], "closure": [], "calls": 0}
    census, closure = search.prune8, search.closure_completions

    def census_spy(survivors, tab):
        seen["census"] += candidates(survivors)
        seen["calls"] += 1
        return census(survivors, tab)

    def closure_spy(gf, px, py, fmask, k, tab):
        seen["closure"] += [
            (y[3], x[4], y[4], y[5], x[6], y[6], y[7])
            for x, y in zip(px.tolist(), py.tolist())
        ]
        roots = closure(gf, px, py, fmask, k, tab)
        assert len(px) == len(fmask) and set(roots) <= set(range(len(px)))
        return roots

    monkeypatch.setattr(search, "prune8", census_spy)
    monkeypatch.setattr(search, "closure_completions", closure_spy)
    a = frobenius_orbit_reps(gf32, exclude=frozenset({0}))[0]
    counters, raw = process_shard(gf32, 14, a, 2)
    _, survivors = stream_shard(gf32, a, 2, *FOCUS_BOUNDS[14])
    assert len(survivors) == counters["prepared"] == 4068
    cands = candidates(survivors)
    want = [cand for cand in cands if _slope_census(gf32, cand.points())[0].bit_count() == 13]
    assert seen["census"] == seen["closure"] == want
    assert seen["calls"] > 10
    assert raw == [] and counters["dfs_roots"] == 0


def test_process_shard_extends_only_k_minus_1_focuses(gf32, monkeypatch):
    """The matching lemma, in `FOCUS_BOUNDS`: only 8-arcs with k - 1
    focuses can extend, so at k=14 the stream keeps only those with 13 by
    the scalar census.  Shard (1, 3) holds 4,080 survivors in the window
    9..13, 144 with 11 focuses and 1,584 with 12; the stream keeps and
    the census sees the other 2,352, in the window's order."""
    seen = []
    census = search.prune8

    def spy(survivors, tab):
        seen.extend(candidates(survivors))
        return census(survivors, tab)

    monkeypatch.setattr(search, "prune8", spy)
    counters, _ = process_shard(gf32, 14, 1, 3)
    assert FOCUS_BOUNDS[14] == (13, 13) and counters["prepared"] == len(seen) == 2352
    window = candidates(stream_shard(gf32, 1, 3, 9, 13)[1])
    sizes = [_slope_census(gf32, cand.points())[0].bit_count() for cand in window]
    assert Counter(sizes) == {11: 144, 12: 1584, 13: 2352}
    assert seen == [cand for cand, n in zip(window, sizes) if n == 13]


@pytest.mark.parametrize("field,k,bounds,n_low,n_roots", [
    ("gf8", 10, (7, 9), 14, 48),
    ("gf16", 14, (9, 13), 3640, 0),
])
def test_survivors_below_k_minus_1_focuses_are_no_roots(field, k, bounds, n_low, n_roots, request):
    """The premise of those bounds, on the survivors of every shard for
    the wider `bounds`: by the dense reference, which assumes no
    matching lemma, the n_low with fewer than k - 1 focuses are no root,
    and the extension finds n_roots among the others (at q=8, k=10 the
    14 stream 8-arcs with 7 focuses lie beside 48 roots with 9)."""
    gf = request.getfixturevalue(field)
    tab = search._NumpyTables(gf)
    reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
    parts = [stream_shard(gf, reps[i], c, *bounds)[1] for i, c in shard_list(gf)]
    survivors = np.concatenate(parts)
    px, py, fmask = prune8(survivors, tab)
    low = np.bitwise_count(fmask) < k - 1
    assert np.count_nonzero(low) == n_low
    focus, n_free = dense_free_columns(gf, survivors[low], k)
    assert focus.max() < k - 1 and n_free.max() < (k - 8) // 2
    assert len(closure_completions(gf, px[~low], py[~low], fmask[~low], k, tab)) == n_roots


SHARD_PINS = {
    (12, 2, 2): (
        dict(candidates=7134464, arcs8=2303404, focus_rejected=2303398,
             prepared=6, extended=6, dfs_roots=6),
        [K12_A] * 3 + [K12_B] * 3,
    ),
    (14, 1, 3): (
        dict(candidates=6888448, arcs8=2212408, focus_rejected=2210056,
             prepared=2352, closure_survivors=2352),
        [],
    ),
    (14, 2, 10): (
        dict(candidates=5166336, arcs8=1670074, focus_rejected=1669954,
             prepared=120),
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
    `process_shard` passes, `prune8` gives each one's points and the focus
    mask, and `_single_secants` the single-secant count, of the scalar census."""
    gf = make_field(s)
    q = gf.q
    rng = random.Random(2000 + s)
    n = 3 * search._SURVIVOR_BLOCK + 7
    cands = [random_eight_arc(gf, 1 + i % (q - 1), rng) for i in range(n)]
    tab = search._NumpyTables(gf)
    px, py, fmask = prune8(survivor_array(gf, cands), tab)
    single = search._single_secants(px, py, tab)
    assert px.shape == py.shape == (len(cands), 8)
    rows = zip(cands, px.tolist(), py.tolist(), fmask.tolist(), single.tolist(), strict=True)
    for cand, xs, ys, mask, n_single in rows:
        assert list(zip(xs, ys)) == list(cand.points())
        assert census_verdict(gf, cand, (1, q + 1)) == (mask, n_single)
    assert {c.a for c in cands} == set(range(1, q))
    assert len({mask.bit_count() for mask in fmask.tolist()}) > 1
