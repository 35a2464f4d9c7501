"""Conic fitting, nuclei, hyperconic containment."""

import random

import pytest

from hyperfocus.arcs import make_arc, translation_hyperoval
from hyperfocus.conics import (
    ConicError,
    DegenerateInput,
    conic_through,
    hyperconic_contains,
    hyperconic_witness,
    hyperconic_witnesses,
)
from hyperfocus.plane import all_points, scale

from oracles import (
    arc_accepts,
    conic_oracle,
    conic_points,
    hyperconic,
    hyperconic_oracle,
    is_nondegenerate,
    line_points,
    lines_through,
    nucleus,
    on_conic,
)


def _parabola_points(gf, ts):
    return [(t, gf.mul(t, t), 1) for t in ts]


def test_conic_through_parabola(gf32):
    pts = _parabola_points(gf32, [0, 1, 2, 4, 8])
    conic = conic_through(gf32, pts)
    assert conic == (1, 0, 0, 0, 0, 1)  # X^2 + YZ = 0
    for t in range(gf32.q):
        assert on_conic(gf32, conic, (t, gf32.mul(t, t), 1))
    assert on_conic(gf32, conic, (0, 1, 0))
    assert not on_conic(gf32, conic, (1, 1, 0))


def test_conic_through_degenerate_input(gf8):
    with pytest.raises(DegenerateInput):
        conic_through(
            gf8, [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 1, 1)]
        )
    with pytest.raises(DegenerateInput):
        conic_through(
            gf8, [(0, 0, 1), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        )
    with pytest.raises(ConicError):
        conic_through(gf8, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def test_conic_through_general_position(gf8):
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 6)]
    conic = conic_through(gf8, pts)
    for p in pts:
        assert on_conic(gf8, conic, p)
    # scaling invariance of on_conic
    lam = 5
    assert on_conic(gf8, conic, tuple(gf8.mul(lam, c) for c in (1, 2, 6)))


def test_nondegeneracy_flag(gf8):
    assert is_nondegenerate(gf8, (1, 0, 0, 0, 0, 1))
    # (X + Y)^2: a repeated line
    assert not is_nondegenerate(gf8, (1, 1, 0, 0, 0, 0))


def test_nucleus_parabola(gf32):
    assert nucleus(gf32, (1, 0, 0, 0, 0, 1)) == (1, 0, 0)


def test_nucleus_meets_every_line_once(gf8):
    """Defining property: each line through the nucleus is tangent."""
    conic = conic_through(
        gf8, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 6)]
    )
    assert is_nondegenerate(gf8, conic)
    pts = set(conic_points(gf8, conic))
    assert len(pts) == gf8.q + 1
    nuc = nucleus(gf8, conic)
    assert nuc not in pts
    for m in lines_through(gf8, nuc):
        assert sum(1 for p in line_points(gf8, m) if p in pts) == 1


def test_hyperconic_is_arc(gf32):
    conic = (1, 0, 0, 0, 0, 1)
    arc = hyperconic(gf32, conic)
    assert len(arc) == gf32.q + 2
    assert make_arc(gf32, arc) == arc
    assert set(conic_points(gf32, conic)) | {(1, 0, 0)} == set(arc)


def test_conic_point_counts(gf32, gf8):
    assert len(conic_points(gf32, (1, 0, 0, 0, 0, 1))) == 33
    assert len(conic_points(gf8, (1, 0, 0, 0, 0, 1))) == 9


def test_witness_positive_subsets(gf32):
    """Any 12-subset of a hyperconic is recognized, with the original
    conic and nucleus recovered."""
    conic = (1, 0, 0, 0, 0, 1)
    full = hyperconic(gf32, conic)
    rng = random.Random(19)
    for _ in range(5):
        sub = make_arc(gf32, rng.sample(full, 12))
        wit = hyperconic_witness(gf32, sub)
        assert wit.found
        assert is_nondegenerate(gf32, wit.conic)
        covered = set(conic_points(gf32, wit.conic)) | {wit.nucleus}
        assert set(sub) <= covered
        assert hyperconic_oracle(gf32, sub)


def test_witness_negative(gf32):
    """Affine points of the t -> t^4 hyperoval: no conic holds more than
    a handful of them, so a 12-subset is never in a hyperconic."""
    oval = translation_hyperoval(gf32, 2)
    affine = [p for p in oval if p[2] == 1]
    sub = make_arc(gf32, affine[:12])
    wit = hyperconic_witness(gf32, sub)
    assert not wit.found
    assert not hyperconic_contains(gf32, sub)
    assert not hyperconic_oracle(gf32, sub)


def test_witness_nucleus_among_first_six(gf32):
    """Force the nucleus into the first six points: the drop-one retry
    must still find the conic."""
    conic = (0, 0, 1, 1, 0, 0)  # Z^2 + XY, nucleus (0,0,1)
    nuc = nucleus(gf32, conic)
    assert nuc == (0, 0, 1)
    on = conic_points(gf32, conic)
    pts = make_arc(gf32, [nuc] + on[:11])
    assert pts.index(nuc) < 6  # arc order puts the nucleus first
    wit = hyperconic_witness(gf32, pts)
    assert wit.found and wit.nucleus == nuc


def test_witness_needs_six_points(gf8):
    with pytest.raises(ConicError):
        hyperconic_witness(
            gf8, make_arc(gf8, [(0, 0, 1), (1, 0, 1), (0, 1, 1)])
        )


def test_small_q_quartic_oval_is_a_conic(gf8):
    """q=8 makes t -> t^4 a conic in disguise: t = (t^4)^2 there, so the
    graph satisfies Y^2 + XZ = 0."""
    oval = translation_hyperoval(gf8, 2)
    assert hyperconic_contains(gf8, oval)
    for x, y, z in oval:
        if z == 1:
            assert gf8.mul(y, y) == x


def test_oracle_agrees_on_random_six_arcs(gf8):
    """Witness and brute-force oracle agree on arbitrary 6-arcs."""
    rng = random.Random(23)
    pts = list(all_points(gf8))
    done = 0
    while done < 12:
        arc = ()
        for p in rng.sample(pts, len(pts)):
            if len(arc) == 6:
                break
            if arc_accepts(gf8, arc, p):
                arc = arc + (scale(gf8, p),)
        if len(arc) != 6:
            continue
        arc = make_arc(gf8, arc)
        assert hyperconic_contains(gf8, arc) == hyperconic_oracle(gf8, arc)
        done += 1


def _general_quintuple(gf, rng, pts):
    five = ()
    while len(five) < 5:
        p = rng.choice(pts)
        if arc_accepts(gf, five, p):
            five += (p,)
    return five


def witness_cases(gf, rng):
    """Arcs of 6 to 9 points, as given (unsorted), with the quintuple the
    witness must pick or None: in a hyperconic with the nucleus at each
    position 0..5 (drop that point), at position 6 or nowhere (drop
    point 5), then greedy random arcs, most in no hyperconic."""
    pts = list(all_points(gf))
    cases = []
    for j in (0, 1, 2, 3, 4, 5, 6, None):
        conic = conic_oracle(gf, _general_quintuple(gf, rng, pts))
        on = conic_points(gf, conic)
        arc = rng.sample(on, rng.randrange(6, 9))
        if j is not None:
            arc.insert(j, nucleus(gf, conic))
        drop = j if j is not None and j < 6 else 5
        cases.append((arc, tuple(i for i in range(6) if i != drop)))
    while len(cases) < 16:
        arc = ()
        for p in rng.sample(pts, len(pts)):
            if len(arc) == rng.randrange(6, 10):
                break
            if arc_accepts(gf, arc, p):
                arc += (p,)
        if len(arc) >= 6:
            cases.append((list(arc), None))
    rng.shuffle(cases)
    return cases


@pytest.mark.parametrize("qname", ["gf8", "gf16", "gf32"])
def test_witness_list_matches_oracles(qname, request):
    """One `hyperconic_witnesses` call on arcs of several sizes equals the
    per-arc wrapper and the oracles: found exactly when the all-5-subsets
    oracle finds a hyperconic, with the Gauss conic of the chosen
    quintuple, its nucleus, every point on the conic or the nucleus, and
    the first good quintuple in drop order 5, 4, ..., 0.  `conic_through`
    agrees with the Gauss conic on general quintuples."""
    gf = request.getfixturevalue(qname)
    rng = random.Random(5 * gf.q)
    cases = witness_cases(gf, rng)
    arcs = [arc for arc, _ in cases]
    assert len({len(a) for a in arcs}) > 1
    wits = hyperconic_witnesses(gf, arcs)
    assert wits == [hyperconic_witness(gf, a) for a in arcs]
    for (arc, quint), wit in zip(cases, wits):
        assert wit.found == hyperconic_oracle(gf, arc)
        if quint is not None:
            assert wit.quintuple == quint
        if wit.found:
            assert wit.conic == conic_oracle(gf, [arc[i] for i in wit.quintuple])
            assert wit.nucleus == nucleus(gf, wit.conic)
            assert all(on_conic(gf, wit.conic, p) or p == wit.nucleus for p in arc)
            assert all(isinstance(v, int) for v in wit.conic + wit.nucleus)
    assert sum(w.found for w in wits) >= 8
    pts = list(all_points(gf))
    for _ in range(10):
        five = _general_quintuple(gf, rng, pts)
        assert conic_through(gf, five) == conic_oracle(gf, five)


def test_witness_list_raises_for_the_first_bad_arc(gf8):
    """A list call raises what the per-arc call raises for the first arc
    it rejects: a quintuple of the first six points not in general
    position before any witness, or fewer than six points."""
    good = translation_hyperoval(gf8, 1)[:6]
    flat = [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 1, 1), (2, 3, 1)]
    small = list(good[:5])
    for arcs, error in (([good, flat, small], DegenerateInput), ([good, small, flat], ConicError)):
        with pytest.raises(error) as exc:
            hyperconic_witnesses(gf8, arcs)
        assert type(exc.value) is error
    with pytest.raises(DegenerateInput):
        hyperconic_witness(gf8, flat)
