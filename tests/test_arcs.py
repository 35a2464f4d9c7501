"""Arc predicates, focus sets, translation constructions, enumeration."""

import ast
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    arc_accepts,
    arc_oracle,
    collinear,
    complete_to_hyperovals,
    diagonal_line_oracle,
    enumerate_hyperfocused,
    enumerate_hyperfocused_naive,
    extend_arc,
    focus_set_oracle,
    incident,
    line_points,
    line_through,
    line_type,
    per_size_stack,
    scale,
    tangents_through,
)

from hyperfocus.arcs import (
    HYPERFOCUSED,
    SHARPLY_FOCUSED,
    ArcError,
    BadExponent,
    DuplicatePoint,
    LineMeetsArc,
    NotAnArc,
    PointInArc,
    PointOnSecant,
    additive_closure,
    are_arcs,
    classify_focus,
    diagonal_line,
    double_translation_arc,
    focus_count,
    focus_set,
    focus_verdicts,
    is_arc,
    is_exterior,
    make_arc,
    make_arcs,
    secants,
    stacks_by_size,
    translation_arc,
    translation_hyperoval,
)
from hyperfocus import arcs, plane
from hyperfocus.conics import hyperconic_witness, hyperconic_witnesses
from hyperfocus.field import GF
from hyperfocus.plane import (
    LINE_AT_INFINITY,
    ZeroTriple,
    all_lines,
    all_points,
)

QUAD = ((0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1))
K12_RESULTS = Path(__file__).resolve().parent.parent / "results" / "k12.jsonl"


def test_make_arc_basics(gf4):
    arc = make_arc(gf4, QUAD)
    assert len(arc) == 4
    assert is_arc(gf4, arc)
    with pytest.raises(DuplicatePoint):
        make_arc(gf4, QUAD + ((0, 0, 2),))  # (0,0,2) scales to (0,0,1)
    with pytest.raises(NotAnArc):
        make_arc(gf4, [(0, 0, 1), (0, 1, 1), (0, 2, 1)])


def test_extend_and_accept(gf4):
    arc = make_arc(gf4, [(0, 0, 1), (0, 1, 1)])
    assert arc_accepts(gf4, arc, (1, 0, 1))
    assert not arc_accepts(gf4, arc, (0, 2, 1))  # on the secant X=0
    bigger = extend_arc(gf4, arc, (1, 0, 1))
    assert len(bigger) == 3
    with pytest.raises(PointInArc):
        extend_arc(gf4, bigger, (1, 0, 1))
    with pytest.raises(PointOnSecant):
        extend_arc(gf4, bigger, (0, 3, 1))


def test_line_type(gf4):
    arc = make_arc(gf4, QUAD)
    assert line_type(gf4, arc, (1, 0, 0)) == "secant"  # X=0 holds 2 points
    assert line_type(gf4, arc, (1, 2, 0)) == "tangent"  # X=2Y: only (0,0,1)
    assert line_type(gf4, arc, LINE_AT_INFINITY) == "exterior"
    assert is_exterior(gf4, arc, LINE_AT_INFINITY)
    assert not is_exterior(gf4, arc, (1, 0, 0))


def test_quadrangle_focus_set(gf4):
    """The unit quadrangle is hyperfocused on Z=0 with the three
    diagonal points as its focus set."""
    arc = make_arc(gf4, QUAD)
    foci = focus_set(gf4, arc, LINE_AT_INFINITY)
    assert set(foci) == {(1, 0, 0), (0, 1, 0), (1, 1, 0)}
    assert focus_count(gf4, arc, LINE_AT_INFINITY) == 3
    assert classify_focus(gf4, arc, LINE_AT_INFINITY) == (HYPERFOCUSED, 3)


def test_every_quadrangle_hyperfocused_on_diagonal(gf32):
    """Char-2 quadrangles have collinear diagonal points, so each 4-arc
    is hyperfocused on its diagonal line."""
    rng = random.Random(41)
    pts = [p for p in all_points(gf32)]
    for _ in range(100):
        arc = make_arc(gf32, [(0, 0, 1)])
        while len(arc) < 4:
            p = pts[rng.randrange(len(pts))]
            if arc_accepts(gf32, arc, p):
                arc = extend_arc(gf32, arc, p)
        line = diagonal_line(gf32, arc)
        assert line == diagonal_line_oracle(gf32, arc)
        assert classify_focus(gf32, arc, line) == (HYPERFOCUSED, 3)


@pytest.mark.parametrize("qname", ["gf8", "gf32"])
def test_exterior_and_diagonal_match_scalar_oracles(qname, request):
    """`is_exterior` and `diagonal_line` run on numpy dot and cross
    products and agree with the scalar incidence, join and meet oracles:
    at q = 8 every point against every line and a 4-arc through every
    point, at q = 32 seeded random arcs and lines (the random 4-arcs are
    in the test above).  A quadrangle with three collinear points gets
    the oracle's line; four collinear points, where the oracle's meet
    fails, raise NotAnArc."""
    gf = request.getfixturevalue(qname)
    rng = random.Random(gf.q + 5)
    pts = list(all_points(gf))
    lines = list(all_lines(gf))
    sets = [(p,) for p in pts] if gf.q == 8 else []
    sets += [random_arc(gf, rng, rng.randrange(1, 13), pts) for _ in range(40)]
    for arc in sets:
        for m in lines if gf.q == 8 else rng.sample(lines, 60):
            assert is_exterior(gf, arc, m) == (not any(incident(gf, p, m) for p in arc))
    quads = []
    for p in pts if gf.q == 8 else []:
        quad = (p,)
        for r in rng.sample(pts, len(pts)):
            if len(quad) < 4 and arc_accepts(gf, quad, r):
                quad += (r,)
        quads.append(quad)
    for m in rng.sample(lines, 20):
        on = line_points(gf, m)
        quads.append(tuple(on[:3]) + (rng.choice([p for p in pts if p not in on]),))
        with pytest.raises(NotAnArc):
            diagonal_line(gf, tuple(on[:4]))
    assert [diagonal_line(gf, quad) for quad in quads] == [
        diagonal_line_oracle(gf, quad) for quad in quads
    ]


def test_tangents_through_quadrangle(gf4):
    arc = make_arc(gf4, QUAD)
    # (1,0,0) lies on the two secants Y=0 and Y=1, which pair up all
    # four points, so no tangent passes through it.
    assert tangents_through(gf4, arc, (1, 0, 0)) == []
    # (1,w,0) with w outside {0,1} lies on no secant: all four lines
    # through it and an arc point are tangents.
    assert len(tangents_through(gf4, arc, (1, 2, 0))) == 4
    with pytest.raises(PointInArc):
        tangents_through(gf4, arc, (0, 0, 1))


def test_triangle_sharply_focused(gf8):
    tri = make_arc(gf8, [(0, 0, 1), (1, 0, 1), (0, 1, 1)])
    kind, n = classify_focus(gf8, tri, LINE_AT_INFINITY)
    assert (kind, n) == (SHARPLY_FOCUSED, 3)


def test_two_arc_focus(gf8):
    arc = make_arc(gf8, [(0, 0, 1), (1, 3, 1)])
    assert classify_focus(gf8, arc, LINE_AT_INFINITY) == (HYPERFOCUSED, 1)


def test_secant_counts(gf32):
    """12 and 14 point arcs versus an 8 point sub-arc: 38 and 63 new
    secants respectively."""
    oval = translation_hyperoval(gf32, 1)
    affine = [p for p in oval if p[2] == 1]
    arc14 = make_arc(gf32, affine[:14])
    arc12 = make_arc(gf32, affine[:12])
    arc8 = make_arc(gf32, affine[:8])
    assert len(secants(gf32, arc12)) == 66
    assert len(secants(gf32, arc14)) == 91
    assert len(secants(gf32, arc8)) == 28
    assert 66 - 28 == 38
    assert 91 - 28 == 63
    # secants of a genuine arc are pairwise distinct lines
    assert len(set(secants(gf32, arc14))) == 91


def test_focus_bounds_random_arcs(gf8):
    """k-1 <= |F| <= min(k(k-1)/2, q+1) for random arcs and exterior
    lines."""
    rng = random.Random(7)
    pts = list(all_points(gf8))
    lines = list(all_lines(gf8))
    done = 0
    while done < 60:
        size = rng.choice([2, 3, 4, 5, 6, 7, 8])
        arc = ()
        for p in rng.sample(pts, len(pts)):
            if len(arc) == size:
                break
            if arc_accepts(gf8, arc, p):
                arc = extend_arc(gf8, arc, p)
        if len(arc) != size:
            continue
        ext = [m for m in lines if is_exterior(gf8, arc, m)]
        if not ext:
            continue
        m = ext[rng.randrange(len(ext))]
        n = focus_count(gf8, arc, m)
        k = len(arc)
        assert k - 1 <= n <= min(k * (k - 1) // 2, gf8.q + 1)
        done += 1


# --- the pair-based arc and focus checks against their definitions -----


def random_arc(gf, rng, size, pts):
    """A greedy arc of up to `size` points, taken in random order."""
    arc = ()
    for p in rng.sample(pts, len(pts)):
        if len(arc) == size:
            break
        if arc_accepts(gf, arc, p):
            arc = extend_arc(gf, arc, p)
    return arc


def point_sets(gf, rng, n):
    """Arcs, arcs with one point moved or added (mostly non-arcs), and
    random sets, each with the points (m, 1, 0) and (1, 0, 0) of Z = 0 in
    some of them, as lists of canonical points in random order."""
    pts = list(all_points(gf))
    for i in range(n):
        arc = list(random_arc(gf, rng, rng.randrange(3, 11), pts))
        if i % 4 == 1:
            arc[rng.randrange(len(arc))] = rng.choice(pts)
        elif i % 4 == 2:
            arc.append(rng.choice(pts))
        elif i % 4 == 3:
            arc = rng.sample(pts, rng.randrange(3, 8))
        if i % 5 == 0:
            arc[0] = (rng.randrange(gf.q), 1, 0)
            arc[-1] = (1, 0, 0)
        rng.shuffle(arc)
        yield arc


def rescaled(gf, p, t):
    """The point p given as t * p."""
    return tuple(gf.mul(t, x) for x in p)


@pytest.mark.parametrize("qname", ["gf8", "gf16"])
def test_arc_checks_match_triple_oracle(qname, request):
    """`is_arc` and `make_arc` decide from the C(k, 2) secants what the
    C(k, 3) collinearity oracle decides, and the triple that NotAnArc
    names is collinear and taken from the input.  A point given under
    two scalings or a zero triple makes `is_arc` False without raising."""
    gf = request.getfixturevalue(qname)
    rng = random.Random(gf.q)
    seen = Counter()
    for pts in point_sets(gf, rng, 400):
        want = arc_oracle(gf, pts)
        assert is_arc(gf, pts) == want
        seen[want] += 1
        if len(set(pts)) < len(pts):
            with pytest.raises(DuplicatePoint):
                make_arc(gf, pts)
            continue
        if want:
            assert make_arc(gf, pts) == tuple(sorted(pts, key=lambda p: plane.point_index(gf, p)))
            continue
        with pytest.raises(NotAnArc) as exc:
            make_arc(gf, pts)
        triple = ast.literal_eval(str(exc.value).removesuffix(" are collinear"))
        assert len(set(triple)) == 3 and set(triple) <= set(pts)
        assert collinear(gf, *triple)
        # the same set with a point under a second scaling, or a zero triple
        t = rng.randrange(2, gf.q)
        assert not is_arc(gf, pts + [rescaled(gf, pts[0], t)])
        assert not is_arc(gf, pts + [(0, 0, 0)])
    assert seen[True] > 100 and seen[False] > 100
    for arc in (random_arc(gf, rng, 6, list(all_points(gf))) for _ in range(20)):
        t = rng.randrange(2, gf.q)
        twice = list(arc) + [rescaled(gf, arc[-1], t)]
        assert not arc_oracle(gf, twice) and not is_arc(gf, twice)
        assert not is_arc(gf, list(arc[:1]) + [rescaled(gf, arc[0], t)])
        assert not is_arc(gf, list(arc) + [(0, 0, 0)])
        assert is_arc(gf, [rescaled(gf, p, t) for p in arc])
        with pytest.raises(DuplicatePoint):
            make_arc(gf, twice)
        with pytest.raises(ZeroTriple):
            make_arc(gf, list(arc) + [(0, 0, 0)])


@pytest.mark.parametrize("qname", ["gf8", "gf16"])
def test_focus_set_matches_meet_oracle(qname, request):
    """`focus_set` by one scaled sum per secant equals the meets of the
    secants with random exterior lines other than Z = 0, and raises
    LineMeetsArc on a line through an arc point."""
    gf = request.getfixturevalue(qname)
    rng = random.Random(gf.q + 1)
    pts = list(all_points(gf))
    lines = [m for m in all_lines(gf) if m != LINE_AT_INFINITY]
    checked = 0
    while checked < 150:
        arc = random_arc(gf, rng, rng.randrange(2, 11), pts)
        ext = [m for m in lines if is_exterior(gf, arc, m)]
        if not ext:
            continue
        m = rng.choice(ext)
        assert focus_set(gf, arc, m) == focus_set_oracle(gf, arc, m)
        p = rng.choice(arc)
        through = line_through(gf, p, rng.choice([r for r in pts if r != p]))
        with pytest.raises(LineMeetsArc):
            focus_set(gf, arc, through)
        checked += 1


def test_focus_set_leaves_numpy_ma_unimported():
    """`focus_set` dedupes by a sort: `np.unique` imports numpy.ma (about
    0.5 MiB) on its first call.  In a fresh process numpy.ma is absent
    after `import hyperfocus.cli` and stays absent after a call, and after
    the search's orbit codes: `stream_shard` on a whole shard and on pairs
    out of order, and `process_shard` at k=12 (with roots) and k=14."""
    script = (
        "import sys\n"
        "import hyperfocus.cli\n"
        "from hyperfocus.arcs import focus_set, make_arc\n"
        "from hyperfocus.field import make_field\n"
        "from hyperfocus.search import process_shard, stream_shard\n"
        "before = 'numpy.ma' in sys.modules\n"
        "gf = make_field(3)\n"
        "arc = make_arc(gf, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)])\n"
        "print(focus_set(gf, arc, (0, 0, 1)), before, 'numpy.ma' in sys.modules)\n"
        "gf = make_field(5)\n"
        "stream_shard(gf, 2, 2, 11, 11)\n"
        "stream_shard(gf, 2, 2, 11, 11, de_pairs=[(6, 1), (3, 3), (1, 6), (0, 4)])\n"
        "print(process_shard(gf, 12, 2, 2)[0]['dfs_roots'],"
        " process_shard(gf, 14, 2, 10)[0]['prepared'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env,
        timeout=120,
    )
    assert done.stdout == "((0, 1, 0), (1, 1, 0), (1, 0, 0)) False False\n6 120\nFalse\n"


@pytest.mark.parametrize("qname", ["gf8", "gf16", "gf32"])
def test_list_kernels_match_oracles(qname, request, monkeypatch):
    """On sets of 2 to 11 points mixing arcs, non-arcs and points given
    twice under two scalings, taken as one stack per set size, the list
    kernels run the secant kernel once per stack and decide each set as
    the C(k, 3) oracle and the per-set wrappers do; `make_arcs` raises
    the error of a stack's first non-arc with its row in the stack.  Focus
    counts on lines other than Z = 0 match the meet oracle."""
    gf = request.getfixturevalue(qname)
    rng = random.Random(3 * gf.q)
    pts = list(all_points(gf))
    sets = list(point_sets(gf, rng, 80))
    for _ in range(10):
        arc = list(random_arc(gf, rng, rng.randrange(3, 9), pts))
        arc.insert(rng.randrange(len(arc)), rescaled(gf, arc[0], rng.randrange(2, gf.q)))
        sets.append(arc)
    rng.shuffle(sets)
    want = [arc_oracle(gf, s) for s in sets]
    assert want.count(True) > 15 and want.count(False) > 15

    kernel = arcs._secant_indices
    sizes = []

    def counted(gf, stack):
        sizes.append(stack.shape[1])
        return kernel(gf, stack)

    monkeypatch.setattr(arcs, "_secant_indices", counted)
    assert per_size_stack(are_arcs, gf, sets) == want
    assert sorted(sizes) == sorted({len(s) for s in sets})
    assert [is_arc(gf, s) for s in sets] == want

    good = [s for s, ok in zip(sets, want) if ok]
    scaled = [
        tuple(sorted((scale(gf, p) for p in s), key=lambda p: plane.point_index(gf, p)))
        for s in good
    ]
    assert per_size_stack(make_arcs, gf, good) == [make_arc(gf, s) for s in good] == scaled
    rejected = 0
    for idx, stack in stacks_by_size(sets):
        bad = [r for r, i in enumerate(idx) if not want[i]]
        if not bad:
            continue
        with pytest.raises(ArcError) as exc:
            make_arcs(gf, stack)
        assert exc.value.index == bad[0]
        with pytest.raises(type(exc.value), match=re.escape(str(exc.value))):
            make_arc(gf, sets[idx[bad[0]]])
        rejected += 1
    assert rejected > 2

    lines = [m for m in all_lines(gf) if m != LINE_AT_INFINITY]
    for m in rng.sample(lines, 3):
        ext = [a for a in good if is_exterior(gf, a, m)]
        assert len({len(a) for a in ext}) > 2
        got = per_size_stack(focus_verdicts, gf, ext, m)
        assert [n for _, n in got] == [len(focus_set_oracle(gf, a, m)) for a in ext]
        assert got == [classify_focus(gf, a, m) for a in ext]
        assert [focus_set(gf, a, m) for a in ext] == [focus_set_oracle(gf, a, m) for a in ext]


def test_stacks_by_size_builds_flat_stacks_of_triples(gf8):
    """Each size group is one (n, k, 3) int64 stack, and an (n, k, 3)
    array is its own.  The stacks are built from the flat run of the
    coordinates, which must still refuse points that are not triples: a
    2- and a 4-element point hold six coordinates, as two triples would,
    and so do three 2-element points.  The per-arc calls refuse them too."""
    sets = [
        [(0, 0, 1), (1, 0, 1), (0, 1, 1)],
        [(1, 1, 1), (2, 3, 1)],
        [(1, 2, 1), (3, 4, 1), (5, 6, 1)],
    ]
    (i3, s3), (i2, s2) = stacks_by_size(sets)
    assert (i3, i2) == ([0, 2], [1])
    assert s3.dtype == s2.dtype == np.int64
    assert s3.tolist() == [list(map(list, sets[0])), list(map(list, sets[2]))]
    assert s2.shape == (1, 2, 3) and s2.tolist() == [list(map(list, sets[1]))]
    stack = np.array(sets[::2])
    ((idx, same),) = stacks_by_size(stack)
    assert idx == [0, 1] and same is stack
    assert list(stacks_by_size([])) == list(stacks_by_size(stack[:0])) == []
    bads = ([(1, 2), (3, 4, 5, 6)], [(1, 2, 1), (3, 4)], [(1, 2, 1, 0), (3, 4, 1)], [(1, 2)] * 3)
    for bad in bads:
        with pytest.raises(ValueError, match="not a triple"):
            list(stacks_by_size([[(0, 0, 1), (1, 0, 1)], bad]))
        for per_arc in (is_arc, lambda gf, pts: is_exterior(gf, pts, LINE_AT_INFINITY)):
            with pytest.raises(ValueError, match="not a triple"):
                per_arc(gf8, bad)


def test_list_kernels_make_no_scalar_field_calls(gf32, monkeypatch):
    """On the 60 k=12 records the arc check, `make_arcs`, the focus counts
    and the hyperconic witness run on the records' one stack as numpy
    gathers: no `GF.mul`, `inv` or `div` call, so no scalar cross product,
    dot product, scaling, join or meet either.  A return to per-pair or
    per-triple Python arithmetic fails here."""
    sets = [json.loads(line)["points"] for line in K12_RESULTS.read_text().splitlines()]
    want = [make_arc(gf32, s) for s in sets]
    wits = [hyperconic_witness(gf32, a) for a in want]
    ((_, stack),) = stacks_by_size(sets)
    ((_, arcs12),) = stacks_by_size(want)

    def refused(*args):
        raise AssertionError("scalar field arithmetic on the list path")

    for name in ("mul", "inv", "div"):
        monkeypatch.setattr(GF, name, refused)
    assert make_arcs(gf32, stack) == want
    assert are_arcs(gf32, stack) == [True] * 60
    assert focus_verdicts(gf32, arcs12, LINE_AT_INFINITY) == [(HYPERFOCUSED, 11)] * 60
    assert hyperconic_witnesses(gf32, arcs12) == wits
    assert all(w.found for w in wits)


# --- translation constructions --------------------------------------------


def test_additive_closure(gf4):
    g = additive_closure(gf4, [(1, 1), (2, 3)])
    assert len(g) == 4
    assert (0, 0) in g and (3, 2) in g
    with pytest.raises(ArcError):
        additive_closure(gf4, [(4, 0)])


def test_translation_arc_trivial_group(gf4):
    arc = translation_arc(gf4, additive_closure(gf4, []), (2, 3, 1))
    assert arc == ((2, 3, 1),)


def test_translation_arc_conic_graph(gf4):
    """Graph of a -> a^2 over span{1, w} gives a hyperfocused 4-arc."""
    w = 2
    gens = [(1, gf4.mul(1, 1)), (w, gf4.mul(w, w))]
    arc = translation_arc(gf4, additive_closure(gf4, gens))
    assert len(arc) == 4
    assert all(y == gf4.mul(x, x) for x, y, _ in arc)
    assert classify_focus(gf4, arc, LINE_AT_INFINITY) == (HYPERFOCUSED, 3)


def test_translation_arc_subgroup_of_conic(gf32):
    """a -> a^2 restricted to an 8-element additive subgroup of F32:
    an 8-arc on the conic X^2 = YZ, hyperfocused on Z=0."""
    span = [1, 2, 4]  # 1, w, w^2
    gens = [(a, gf32.mul(a, a)) for a in span]
    group = additive_closure(gf32, gens)
    assert len(group) == 8
    arc = translation_arc(gf32, group)
    assert len(arc) == 8
    assert all(gf32.mul(x, x) == gf32.mul(y, z) for x, y, z in arc)
    assert classify_focus(gf32, arc, LINE_AT_INFINITY) == (HYPERFOCUSED, 7)


def test_translation_arc_rejects_collinear_orbit(gf4):
    # orbit of (0,0,1) under {(0,0),(0,1),(0,2),(0,3)} sits on X=0
    with pytest.raises(NotAnArc):
        translation_arc(gf4, additive_closure(gf4, [(0, 1), (0, 2)]))


def test_translation_arcs_random_subgroups(gf16):
    """Subgroup orbits that pass the arc test are always hyperfocused
    on Z=0: secant directions live in the group."""
    rng = random.Random(13)
    found = 0
    while found < 10:
        gens = [
            (rng.randrange(gf16.q), rng.randrange(gf16.q))
            for _ in range(rng.choice([1, 2]))
        ]
        group = additive_closure(gf16, gens)
        if len(group) < 2:
            continue
        try:
            arc = translation_arc(gf16, group)
        except NotAnArc:
            continue
        kind, n = classify_focus(gf16, arc, LINE_AT_INFINITY)
        assert (kind, n) == (HYPERFOCUSED, len(arc) - 1)
        found += 1


def test_double_translation_two_arc(gf8):
    group = additive_closure(gf8, [(1, 1)])
    arc = translation_arc(gf8, group)
    assert len(arc) == 2
    # the only secant is Y=X; (1,0) shifts the base off it
    big_group, big = double_translation_arc(gf8, group, (1, 0))
    assert len(big) == 4
    assert len(big_group) == 4
    assert classify_focus(gf8, big, LINE_AT_INFINITY) == (HYPERFOCUSED, 3)


def test_double_translation_scan_to_eight(gf32):
    """Scan affine shifts to double a 4-arc into a translation 8-arc."""
    group = additive_closure(gf32, [(1, 1), (2, gf32.mul(2, 2))])
    arc = translation_arc(gf32, group)
    assert len(arc) == 4
    lines = secants(gf32, arc)
    shift = None
    for sx in range(gf32.q):
        for sy in range(gf32.q):
            if (sx, sy) in group:
                continue
            moved = (sx, sy, 1)
            if not any(incident(gf32, moved, m) for m in lines):
                shift = (sx, sy)
                break
        if shift:
            break
    assert shift is not None
    big_group, big = double_translation_arc(gf32, group, shift)
    assert len(big) == 8 and len(big_group) == 8
    assert classify_focus(gf32, big, LINE_AT_INFINITY) == (HYPERFOCUSED, 7)


def test_double_translation_rejects_secant_shift(gf8):
    group = additive_closure(gf8, [(1, 1)])
    with pytest.raises(PointOnSecant):
        double_translation_arc(gf8, group, (2, 2))  # stays on Y=X


# --- hyperovals ------------------------------------------------------------


def test_translation_hyperoval_sizes(gf32, gf16):
    oval1 = translation_hyperoval(gf32, 1)
    oval2 = translation_hyperoval(gf32, 2)
    assert len(oval1) == 34 and len(oval2) == 34
    assert oval1 != oval2
    with pytest.raises(BadExponent):
        translation_hyperoval(gf16, 2)
    with pytest.raises(BadExponent):
        translation_hyperoval(gf32, 0)


def test_hyperoval_has_no_tangents(gf8):
    oval = translation_hyperoval(gf8, 1)
    for m in all_lines(gf8):
        assert line_type(gf8, oval, m) != "tangent"
    assert tangents_through(gf8, oval, (1, 2, 0)) == []


def test_hyperoval_hyperfocused_everywhere(gf32):
    """A hyperoval is hyperfocused on every exterior line, with the full
    line as focus set (|F| = q+1 = k-1)."""
    oval = translation_hyperoval(gf32, 1)
    rng = random.Random(3)
    lines = list(all_lines(gf32))
    rng.shuffle(lines)
    checked = 0
    for m in lines:
        if not is_exterior(gf32, oval, m):
            continue
        assert classify_focus(gf32, oval, m) == (HYPERFOCUSED, gf32.q + 1)
        checked += 1
        if checked == 10:
            break
    assert checked == 10


def test_complete_to_hyperovals_q4(gf4):
    arc = make_arc(gf4, QUAD)
    ovals = complete_to_hyperovals(gf4, arc)
    assert ovals
    for oval in ovals:
        assert len(oval) == 6
        assert set(arc) <= set(oval)
        assert is_arc(gf4, oval)


# --- exhaustive enumeration ------------------------------------------------


def test_enumerate_matches_naive_q4(gf4, q4_hyperfocused):
    naive = enumerate_hyperfocused_naive(gf4, LINE_AT_INFINITY)
    assert {frozenset(a) for a in q4_hyperfocused} == {
        frozenset(a) for a in naive
    }
    assert Counter(len(a) for a in q4_hyperfocused) == {2: 120, 4: 120, 6: 48}


def test_spectrum_q4(gf4):
    arcs = enumerate_hyperfocused(gf4, LINE_AT_INFINITY)
    assert Counter(len(a) for a in arcs) == {2: 120, 4: 120, 6: 48}


def test_spectrum_q8(q8_hyperfocused):
    sizes = Counter(len(a) for a in q8_hyperfocused)
    assert sizes == {2: 2016, 4: 9408, 8: 20160, 10: 12544}


def test_enumerated_arcs_are_hyperfocused_sample(gf8, q8_hyperfocused):
    rng = random.Random(11)
    for arc in rng.sample(q8_hyperfocused, 40):
        kind, n = classify_focus(gf8, arc, LINE_AT_INFINITY)
        assert (kind, n) == (HYPERFOCUSED, len(arc) - 1)


def test_enumeration_uniform_across_lines(gf8):
    """Z=0 is nothing special: any line carries the same spectrum."""
    arcs = enumerate_hyperfocused(gf8, (1, 0, 0))
    assert Counter(len(a) for a in arcs) == {2: 2016, 4: 9408, 8: 20160, 10: 12544}


@pytest.mark.parametrize("qname", ["gf4", "gf8"])
def test_nested_arc_bound(qname, request, nested_arc_checks):
    """No hyperfocused arc strictly contains a hyperfocused sub-arc of
    more than half its size (exhaustive over all arcs on Z=0; the check
    runs once, in a conftest fixture, and counts the sub-arcs it saw)."""
    q = request.getfixturevalue(qname).q
    assert nested_arc_checks[q] == {4: 720, 8: 3763200}[q]


@pytest.mark.parametrize("qname", ["gf4", "gf8"])
def test_large_arcs_complete_to_hyperovals(qname, request):
    """Every hyperfocused k-arc with k > q/2 on Z=0 extends to a
    hyperoval (exhaustive)."""
    gf = request.getfixturevalue(qname)
    arcs = (
        request.getfixturevalue("q4_hyperfocused")
        if qname == "gf4"
        else request.getfixturevalue("q8_hyperfocused")
    )
    for arc in arcs:
        if len(arc) <= gf.q // 2:
            continue
        assert complete_to_hyperovals(gf, arc, first_only=True), (
            f"{len(arc)}-arc not inside any hyperoval"
        )
