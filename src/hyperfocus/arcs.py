"""Arcs, their secants, and focus sets on exterior lines.

An arc is a tuple of points (no 3 collinear), canonically scaled and
sorted by dense point index.  The focus set of an arc K on an exterior
line l collects the intersections of the secants of K with l; K is
hyperfocused on l when there are exactly |K| - 1 of them, the smallest
count an arc can achieve, and sharply focused when there are exactly |K|.

Both facts are decided from the C(k, 2) point pairs alone.  Two of the
secants of k distinct points coincide exactly when three of the points
are collinear, so the points form an arc iff their secants are pairwise
distinct lines.  In characteristic 2 the secant through a and b meets l
in (l.b)a + (l.a)b: a point of the secant whose product with l is
2(l.a)(l.b) = 0, so one scaling per pair gives the focus.

Two consequences of hyperfocusedness drive the search (`search.py`):
through every arc point the |K| - 1 secants meet l in pairwise distinct
points, so they biject onto the focus set; hence every focus is joined to
every arc point by a secant, the secants through one focus pair up the
arc, and |K| is even.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from hyperfocus.field import GF
from hyperfocus.plane import (
    Line,
    Point,
    SamePoint,
    collinear,
    dot,
    incident,
    line_through,
    meet,
    point_index,
    scale,
)

Arc = Tuple[Point, ...]

HYPERFOCUSED = "hyperfocused"
SHARPLY_FOCUSED = "sharply-focused"
NEITHER = "neither"


class ArcError(ValueError):
    """Invalid arc construction or operation."""


class DuplicatePoint(ArcError):
    pass


class NotAnArc(ArcError):
    """Three of the given points are collinear."""


class PointInArc(ArcError):
    pass


class PointOnSecant(ArcError):
    pass


class LineMeetsArc(ArcError):
    """Focus sets are only defined on exterior lines."""


class BadExponent(ArcError):
    """Translation hyperoval exponent i needs gcd(i, s) = 1."""


def make_arc(gf: GF, points: Iterable[Sequence[int]]) -> Arc:
    """Scale, sort, and validate a collection of points as an arc.

    Raises DuplicatePoint for a point given twice (under any scaling) and
    NotAnArc, naming three collinear points, when two secants coincide.
    """
    pts = [scale(gf, p) for p in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoint("repeated point")
    pts.sort(key=lambda p: point_index(gf, p))
    triple = _collinear_triple(gf, pts)
    if triple:
        raise NotAnArc("{}, {}, {} are collinear".format(*triple))
    return tuple(pts)


def is_arc(gf: GF, points: Sequence[Point]) -> bool:
    """True when the points, scaled or not, are distinct and no three are
    collinear; a point given twice or a zero triple gives False."""
    try:
        return _collinear_triple(gf, points) is None
    except SamePoint:  # two of the points span no line
        return False


def _collinear_triple(gf: GF, pts: Sequence[Point]) -> Optional[Tuple[Point, Point, Point]]:
    """Three collinear points of `pts`, from the first two pairs whose
    secants coincide, or None when the secants are pairwise distinct."""
    seen: Dict[Line, Tuple[Point, Point]] = {}
    for pair, line in zip(itertools.combinations(pts, 2), secants(gf, pts)):
        first = seen.setdefault(line, pair)
        if first is not pair:  # all of the (3 or 4) points lie on `line`
            return tuple(dict.fromkeys(first + pair))[:3]
    return None


def secants(gf: GF, arc: Arc) -> List[Line]:
    """The lines through two of the points, in `itertools.combinations`
    order; pairwise distinct exactly when the points form an arc.  Raises
    SamePoint for two points that span no line."""
    return [line_through(gf, a, b) for a, b in itertools.combinations(arc, 2)]


def is_exterior(gf: GF, arc: Arc, m: Line) -> bool:
    return not any(incident(gf, p, m) for p in arc)


def focus_set(gf: GF, arc: Arc, line: Line) -> Tuple[Point, ...]:
    """Intersections of the secants with an exterior line, deduplicated,
    in dense index order.

    Each point p is scaled once to u_p = p / (l.p), so that l.u_p = 1;
    the secant through a and b then meets l in u_a + u_b, the scaled
    (l.b)a + (l.a)b.
    """
    lam = [dot(gf, p, line) for p in arc]
    if not all(lam):
        raise LineMeetsArc(f"line {line} meets the arc")
    u = [tuple(gf.div(x, la) for x in p) for p, la in zip(arc, lam)]
    seen = {
        scale(gf, (a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2]))
        for a, b in itertools.combinations(u, 2)
    }
    return tuple(sorted(seen, key=lambda p: point_index(gf, p)))


def focus_count(gf: GF, arc: Arc, line: Line) -> int:
    return len(focus_set(gf, arc, line))


def classify_focus(gf: GF, arc: Arc, line: Line) -> Tuple[str, int]:
    """Verdict and focus-set size of the arc on an exterior line."""
    n = focus_count(gf, arc, line)
    k = len(arc)
    if n == k - 1:
        return HYPERFOCUSED, n
    if n == k:
        return SHARPLY_FOCUSED, n
    return NEITHER, n


def diagonal_line(gf: GF, arc: Arc) -> Line:
    """The line carrying the three diagonal points of a 4-arc.

    In characteristic 2 the diagonal points of a quadrangle are collinear,
    so every 4-arc is hyperfocused on its diagonal line.
    """
    if len(arc) != 4:
        raise ArcError("diagonal line needs exactly 4 points")
    a, b, c, d = arc
    d1 = meet(gf, line_through(gf, a, b), line_through(gf, c, d))
    d2 = meet(gf, line_through(gf, a, c), line_through(gf, b, d))
    d3 = meet(gf, line_through(gf, a, d), line_through(gf, b, c))
    ln = line_through(gf, d1, d2)
    if not incident(gf, d3, ln):
        raise ArcError("diagonal points not collinear: not characteristic 2?")
    return ln


# --- translation constructions --------------------------------------------


def additive_closure(
    gf: GF, gens: Iterable[Tuple[int, int]]
) -> FrozenSet[Tuple[int, int]]:
    """Subgroup of (F_q x F_q, +) generated by the given vectors."""
    group = {(0, 0)}
    for g in gens:
        gx, gy = int(g[0]), int(g[1])
        if not (0 <= gx < gf.q and 0 <= gy < gf.q):
            raise ArcError(f"generator {g} outside the field")
        new = {(gx ^ a, gy ^ b) for a, b in group}
        group |= new
    return frozenset(group)


def translation_arc(
    gf: GF, group: Iterable[Tuple[int, int]], base: Point = (0, 0, 1)
) -> Arc:
    """Orbit of an affine base point under a translation subgroup.

    Raises NotAnArc when the orbit has three collinear points (the
    subgroup is then not an arc-inducing one for this base).
    """
    if base[2] != 1:
        raise ArcError("base point must be affine")
    pts = [(base[0] ^ a, base[1] ^ b, 1) for a, b in group]
    return make_arc(gf, pts)


def double_translation_arc(
    gf: GF,
    group: FrozenSet[Tuple[int, int]],
    shift: Tuple[int, int],
    base: Point = (0, 0, 1),
) -> Tuple[FrozenSet[Tuple[int, int]], Arc]:
    """Extend a translation arc by a coset: new group = <group, shift>.

    The shifted base must avoid every secant of the original arc; then
    the union of the arc and its translate is again a translation arc of
    twice the size.
    """
    arc = translation_arc(gf, group, base)
    sx, sy = int(shift[0]), int(shift[1])
    moved = (base[0] ^ sx, base[1] ^ sy, 1)
    if moved in arc:
        raise PointInArc(f"{moved} already in the arc")
    for a, b in itertools.combinations(arc, 2):
        if collinear(gf, a, b, moved):
            raise PointOnSecant(f"{moved} lies on a secant of the arc")
    bigger_group = additive_closure(gf, list(group) + [(sx, sy)])
    return bigger_group, translation_arc(gf, bigger_group, base)


def translation_hyperoval(gf: GF, i: int) -> Arc:
    """The hyperoval {(t, t^(2^i), 1)} + {(0,1,0), (1,0,0)}; needs gcd(i, s) = 1."""
    import math

    if math.gcd(i, gf.s) != 1:
        raise BadExponent(f"gcd({i}, {gf.s}) != 1")
    pts: List[Point] = [(t, gf.frobenius(t, i), 1) for t in gf.elements()]
    pts.append((0, 1, 0))
    pts.append((1, 0, 0))
    return make_arc(gf, pts)
