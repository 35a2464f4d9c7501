"""Projective plane axioms, index bijection, and frame maps."""

import itertools
import random

import numpy as np
import pytest

from hyperfocus.field import make_field
from hyperfocus.plane import (
    DegenerateFrame,
    SamePoint,
    all_lines,
    all_points,
    crosses,
    dots,
    indexed_points,
    point_index,
    point_indices,
)

from oracles import (
    SameLine,
    apply_line,
    collinear,
    apply_point,
    cross,
    dot,
    frame_map,
    frobenius_point,
    incident,
    line_points,
    line_through,
    lines_through,
    mat_det,
    mat_inv,
    mat_mul,
    meet,
    point_from_index,
    scale,
)


def test_scale_canonical():
    gf = make_field(5)
    assert scale(gf, (6, 12, 3)) == (gf.div(6, 3), gf.div(12, 3), 1)
    assert scale(gf, (5, 9, 0))[1:] == (1, 0)
    assert scale(gf, (7, 0, 0)) == (1, 0, 0)
    with pytest.raises(ValueError):
        scale(gf, (0, 0, 0))
    # scaling is idempotent and projective-equality respecting
    rng = random.Random(2)
    for _ in range(300):
        t = tuple(rng.randrange(32) for _ in range(3))
        if t == (0, 0, 0):
            continue
        lam = rng.randrange(1, 32)
        t2 = tuple(gf.mul(lam, x) for x in t)
        assert scale(gf, t) == scale(gf, t2)
        assert scale(gf, scale(gf, t)) == scale(gf, t)


@pytest.mark.parametrize("s", [3, 5])
def test_array_helpers_match_scalar_oracles(s):
    """`crosses`, `dots` and scaling by `point_indices` then
    `indexed_points` agree with the scalar oracles: at q = 8 on every
    pair of a point and a line, at q = 32 on seeded random triples,
    scaled or not, with the zero triple among them.  `all_points` lists
    every point in index order."""
    gf = make_field(s)
    pts = list(all_points(gf))
    assert pts == [point_from_index(gf, i) for i in range(gf.q * gf.q + gf.q + 1)]
    if s == 3:
        u, v = map(list, zip(*itertools.product(pts, pts)))
    else:
        rng = random.Random(17)
        u, v = ([tuple(rng.randrange(gf.q) for _ in range(3)) for _ in range(3000)] for _ in "uv")
        u[0] = v[1] = (0, 0, 0)
    uu, vv = np.array(u), np.array(v)
    assert dots(gf, uu, vv).tolist() == [dot(gf, a, b) for a, b in zip(u, v)]
    assert list(map(tuple, crosses(gf, uu, vv).tolist())) == [cross(gf, a, b) for a, b in zip(u, v)]
    want = [scale(gf, t) if any(t) else (0, 0, 0) for t in u]
    idx = point_indices(gf, uu)
    assert idx.tolist() == [point_index(gf, p) if any(p) else -1 for p in want]
    assert list(map(tuple, indexed_points(gf, idx).tolist())) == want


def test_point_index_bijection():
    for s in (2, 3, 5):
        gf = make_field(s)
        n = gf.q * gf.q + gf.q + 1
        seen = set()
        for i in range(n):
            p = point_from_index(gf, i)
            assert point_index(gf, p) == i
            seen.add(p)
        assert len(seen) == n


def test_plane_axioms_exhaustive_q4():
    gf = make_field(2)
    pts = list(all_points(gf))
    assert len(pts) == 21
    lines = list(all_lines(gf))
    assert len(lines) == 21
    # two distinct points span exactly one line; two lines meet in one point
    for p, r in itertools.combinations(pts, 2):
        ln = line_through(gf, p, r)
        assert incident(gf, p, ln) and incident(gf, r, ln)
    for m1, m2 in itertools.combinations(lines, 2):
        x = meet(gf, m1, m2)
        assert incident(gf, x, m1) and incident(gf, x, m2)
    # every line has q+1 points, every point is on q+1 lines
    for m in lines:
        on = line_points(gf, m)
        assert len(on) == 5
        assert all(incident(gf, p, m) for p in on)
        assert on == sorted(on, key=lambda p: point_index(gf, p))
    for p in pts:
        thru = lines_through(gf, p)
        assert len(thru) == 5
        assert all(incident(gf, p, m) for m in thru)


def test_join_meet_random_q32():
    gf = make_field(5)
    rng = random.Random(11)
    pts = list(all_points(gf))
    for _ in range(2000):
        p, r = rng.sample(pts, 2)
        ln = line_through(gf, p, r)
        assert incident(gf, p, ln) and incident(gf, r, ln)
        t = rng.choice(pts)
        assert collinear(gf, p, r, t) == incident(gf, t, ln)
    with pytest.raises(SamePoint):
        line_through(gf, (3, 4, 1), (3, 4, 1))
    with pytest.raises(SameLine):
        meet(gf, (0, 0, 1), (0, 0, 1))


def test_worked_example_join_meet():
    gf = make_field(5, 0x25)
    # line through (0,0,1) and (1,1,1) is X + Y = 0 i.e. [1,1,0]
    assert line_through(gf, (0, 0, 1), (1, 1, 1)) == (1, 1, 0)
    # meets Z = 0 in the direction (1,1,0)
    assert meet(gf, (1, 1, 0), (0, 0, 1)) == (1, 1, 0)


def test_frame_map_properties():
    gf = make_field(5)
    rng = random.Random(4)
    pts = list(all_points(gf))

    def random_frame():
        while True:
            quad = rng.sample(pts, 4)
            if all(
                not collinear(gf, *tri) for tri in itertools.combinations(quad, 3)
            ):
                return quad

    for _ in range(50):
        src = random_frame()
        dst = random_frame()
        t = frame_map(gf, src, dst)
        assert mat_det(gf, t) != 0
        for a, b in zip(src, dst):
            assert apply_point(gf, t, a) == b
        # collineation: preserves collinearity on random triples
        for _ in range(20):
            a, b, c = rng.sample(pts, 3)
            assert collinear(gf, a, b, c) == collinear(
                gf,
                apply_point(gf, t, a),
                apply_point(gf, t, b),
                apply_point(gf, t, c),
            )
        # inverse composes to identity
        ti = mat_inv(gf, t)
        for _ in range(5):
            p = rng.choice(pts)
            assert apply_point(gf, ti, apply_point(gf, t, p)) == p

    with pytest.raises(DegenerateFrame):
        frame_map(
            gf,
            [(0, 0, 1), (1, 0, 1), (2, 0, 1), (1, 1, 1)],
            [(0, 0, 1), (1, 0, 1), (0, 1, 0), (1, 1, 0)],
        )


def test_apply_line_preserves_incidence():
    gf = make_field(3)
    rng = random.Random(9)
    pts = list(all_points(gf))
    frame = [(0, 0, 1), (1, 0, 1), (0, 1, 0), (1, 1, 0)]
    dst = [(1, 1, 1), (0, 0, 1), (1, 0, 0), (3, 5, 1)]
    t = frame_map(gf, frame, dst)
    for m in all_lines(gf):
        im = apply_line(gf, t, m)
        for p in line_points(gf, m):
            assert incident(gf, apply_point(gf, t, p), im)
    # matrix product acts as composition
    t2 = frame_map(gf, dst, frame)
    comp = mat_mul(gf, t2, t)
    for _ in range(30):
        p = rng.choice(pts)
        assert apply_point(gf, comp, p) == apply_point(
            gf, t2, apply_point(gf, t, p)
        )


def test_frobenius_point_is_collineation():
    gf = make_field(5)
    rng = random.Random(13)
    pts = list(all_points(gf))
    for _ in range(500):
        a, b, c = rng.sample(pts, 3)
        i = rng.randrange(1, 5)
        assert collinear(gf, a, b, c) == collinear(
            gf,
            frobenius_point(gf, a, i),
            frobenius_point(gf, b, i),
            frobenius_point(gf, c, i),
        )
        # canonical scaling is preserved: frobenius fixes 0 and 1
        fa = frobenius_point(gf, a, i)
        assert scale(gf, fa) == fa
