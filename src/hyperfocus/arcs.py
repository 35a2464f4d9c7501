"""Arcs, their secants, and focus sets on exterior lines.

An arc is a tuple of points (no 3 collinear), canonically scaled and
sorted by dense point index.  The focus set of an arc K on an exterior
line l collects the intersections of the secants of K with l; K is
hyperfocused on l when there are exactly |K| - 1 of them, the smallest
count an arc can achieve, and sharply focused when there are exactly |K|.

Both facts are decided from the C(k, 2) point pairs alone, for a whole
(n, k, 3) int64 stack of k-point sets at a time, its field products
gathers from the field's log/exp tables.  The secant through a and b is
the cross product a x b, zero exactly when a and b are one point (or one
is the zero triple); scaled, the secants of a stack are an (n, C(k, 2))
array of dense line indices.  Two secants of k distinct points coincide
exactly when three of the points are collinear, so a set is an arc iff
no cross product is zero and no line index repeats in its row.  In
characteristic 2 the secant through a and b meets l in (l.b)a + (l.a)b:
a point of the secant whose product with l is 2(l.a)(l.b) = 0, so one
scaling per pair gives the focus, and the focus count is the number of
distinct focus indices in a row.  The list kernels take one stack and
have no size loop; a per-arc function calls them on `point_stack`'s
one-row stack.  Lists of point sets are grouped by size
(`stacks_by_size`) only where records are read: `search.record_claims`,
`verify`, `classify` and the public `canon.canonical_forms`.

Two consequences of hyperfocusedness drive the search (`search.py`):
through every arc point the |K| - 1 secants meet l in pairwise distinct
points, so they biject onto the focus set; hence every focus is joined to
every arc point by a secant, the secants through one focus pair up the
arc, and |K| is even.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from hyperfocus.field import GF, tables
from hyperfocus.plane import (
    Line,
    Point,
    SamePoint,
    ZeroTriple,
    crosses,
    dots,
    index_pairs,
    indexed_points,
    point_indices,
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


def stacks_by_size(
    point_sets: Sequence[Sequence[Sequence[int]]],
) -> Iterator[Tuple[List[int], np.ndarray]]:
    """The list positions of the sets of each size, with those sets as one
    (n, k, 3) int64 stack; sizes in order of first appearance.  An (n, k,
    3) array is already one stack.  Each stack is built from the flat run
    of its coordinates; a point that is not a triple raises ValueError."""
    if isinstance(point_sets, np.ndarray) and point_sets.ndim == 3 and point_sets.shape[2] == 3:
        if len(point_sets):
            yield list(range(len(point_sets))), point_sets
        return
    groups: Dict[int, List[int]] = {}
    for i, pts in enumerate(point_sets):
        groups.setdefault(len(pts), []).append(i)
    for k, idx in groups.items():
        pts = list(itertools.chain.from_iterable(point_sets[i] for i in idx))
        if set(map(len, pts)) - {3}:
            raise ValueError(f"a {k}-point set holds a point that is not a triple")
        flat = np.fromiter(itertools.chain.from_iterable(pts), np.int64, 3 * len(pts))
        yield idx, flat.reshape(len(idx), k, 3)


def _secant_indices(gf: GF, stack: np.ndarray) -> np.ndarray:
    """(n, C(k, 2)) dense indices of the secants of each row, in
    `itertools.combinations` order; -1 where two points span no line."""
    i, j = index_pairs(stack.shape[1])
    return point_indices(gf, crosses(gf, stack[:, i], stack[:, j]))


def distinct_rows(lines: np.ndarray) -> np.ndarray:
    """Per row of secant indices: no -1 and no index twice, i.e. the
    points the secants join, scaled or not, form an arc."""
    lines = np.sort(lines, axis=-1)
    return (lines[..., :1] >= 0).all(-1) & (lines[..., 1:] != lines[..., :-1]).all(-1)


def point_stack(points: Iterable[Sequence[int]]) -> np.ndarray:
    """One point set as a (1, k, 3) int64 stack; a point that is not a
    triple raises ValueError."""
    ((_, stack),) = stacks_by_size([list(points)])
    return stack


def are_arcs(gf: GF, stack: np.ndarray) -> List[bool]:
    """is_arc of each row of an (n, k, 3) stack, in one kernel call."""
    return distinct_rows(_secant_indices(gf, stack)).tolist()


def is_arc(gf: GF, points: Sequence[Point]) -> bool:
    """True when the points, scaled or not, are distinct and no three are
    collinear; a point given twice or a zero triple gives False."""
    return are_arcs(gf, point_stack(points))[0]


def make_arcs(gf: GF, stack: np.ndarray) -> List[Arc]:
    """make_arc of each row of an (n, k, 3) stack, in one kernel call.

    Raises what make_arc raises for the first row that is no arc, with
    that row's position as the error's `index`.
    """
    ranks = np.sort(point_indices(gf, stack), axis=1)
    pts = indexed_points(gf, ranks)
    lines = _secant_indices(gf, pts)
    out = [tuple(map(tuple, row)) for row in pts.tolist()]
    bad = np.flatnonzero(~distinct_rows(lines))
    if bad.size:
        r = int(bad[0])
        exc = _arc_error(ranks[r], out[r], lines[r])
        exc.index = r
        raise exc
    return out


def _arc_error(ranks: np.ndarray, pts: Arc, lines: np.ndarray) -> ValueError:
    """What make_arc raises for sorted points that are no arc: ZeroTriple,
    DuplicatePoint, or NotAnArc naming three points of the first pair whose
    secant repeats an earlier one."""
    if ranks[0] < 0:
        return ZeroTriple("zero triple")
    if (ranks[1:] == ranks[:-1]).any():
        return DuplicatePoint("repeated point")
    values, first = np.unique(lines, return_index=True)
    later = np.setdiff1d(np.arange(len(lines)), first)[0]
    earlier = first[np.searchsorted(values, lines[later])]
    pairs = list(itertools.combinations(pts, 2))
    triple = tuple(dict.fromkeys(pairs[earlier] + pairs[later]))[:3]
    return NotAnArc("{}, {}, {} are collinear".format(*triple))


def make_arc(gf: GF, points: Iterable[Sequence[int]]) -> Arc:
    """Scale, sort, and validate a collection of points as an arc.

    Raises ZeroTriple for a zero triple, DuplicatePoint for a point given
    twice (under any scaling) and NotAnArc, naming three collinear points,
    when two secants coincide.
    """
    return make_arcs(gf, point_stack(points))[0]


def secants(gf: GF, arc: Arc) -> List[Line]:
    """The lines through two of the points, in `itertools.combinations`
    order; pairwise distinct exactly when the points form an arc.  Raises
    SamePoint for two points that span no line."""
    lines = _secant_indices(gf, point_stack(arc))[0]
    if (lines < 0).any():
        a, b = list(itertools.combinations(arc, 2))[np.argmin(lines)]
        raise SamePoint(f"{a} and {b} coincide")
    return list(map(tuple, indexed_points(gf, lines).tolist()))


def is_exterior(gf: GF, arc: Arc, m: Line) -> bool:
    """No point of the arc lies on the line."""
    return bool(dots(gf, point_stack(arc), np.array(m)).all())


def _focus_indices(gf: GF, stack: np.ndarray, line: Line) -> np.ndarray:
    """(n, C(k, 2)) dense indices of the meets of each row's secants with
    an exterior line, in `itertools.combinations` order.

    Each point p is scaled once to u_p = p / (l.p), so that l.u_p = 1;
    the secant through a and b then meets l in u_a + u_b, the scaled
    (l.b)a + (l.a)b.
    """
    lam = dots(gf, stack, np.array(line))
    if not lam.all():
        raise LineMeetsArc(f"line {line} meets the arc")
    u = tables(gf).div(stack, lam[..., None])
    i, j = index_pairs(stack.shape[1])
    foci = point_indices(gf, u[:, i] ^ u[:, j])
    if (foci < 0).any():  # u_a = u_b: a point given twice
        raise ZeroTriple("zero triple")
    return foci


def focus_set(gf: GF, arc: Arc, line: Line) -> Tuple[Point, ...]:
    """Intersections of the secants with an exterior line, deduplicated,
    in dense index order (a sorted copy, without `np.unique`, which imports numpy.ma)."""
    foci = np.sort(_focus_indices(gf, point_stack(arc), line), axis=None)
    foci = foci[np.diff(foci, prepend=-1) != 0]
    return tuple(map(tuple, indexed_points(gf, foci).tolist()))


def focus_verdicts(gf: GF, stack: np.ndarray, line: Line) -> List[Tuple[str, int]]:
    """classify_focus of each row of an (n, k, 3) stack on one exterior
    line, in one kernel call: the focus count is the number of distinct
    foci in a row."""
    foci = np.sort(_focus_indices(gf, stack, line), axis=1)
    counts = (foci[:, 1:] != foci[:, :-1]).sum(1) + (foci.shape[1] > 0)
    return [(focus_verdict(stack.shape[1], n), n) for n in counts.tolist()]


def focus_verdict(k: int, count: int) -> str:
    """The verdict on a k-arc with `count` focuses on an exterior line."""
    return {k - 1: HYPERFOCUSED, k: SHARPLY_FOCUSED}.get(count, NEITHER)


def focus_count(gf: GF, arc: Arc, line: Line) -> int:
    return classify_focus(gf, arc, line)[1]


def classify_focus(gf: GF, arc: Arc, line: Line) -> Tuple[str, int]:
    """Verdict and focus-set size of the arc on an exterior line."""
    return focus_verdicts(gf, point_stack(arc), line)[0]


def diagonal_line(gf: GF, arc: Arc) -> Line:
    """The line carrying the three diagonal points of a 4-arc."""
    return diagonal_lines(gf, point_stack(arc))[0]


def diagonal_lines(gf: GF, stack: np.ndarray) -> List[Line]:
    """diagonal_line of each row of an (n, 4, 3) stack, in one kernel call.

    In characteristic 2 the diagonal points of a quadrangle are collinear,
    so every 4-arc is hyperfocused on its diagonal line.  Raises NotAnArc
    when a row is four collinear points, which have no diagonal points.
    """
    if stack.shape[1] != 4:
        raise ArcError("diagonal line needs exactly 4 points")
    s = _secant_indices(gf, stack)  # ab, ac, ad, bc, bd, cd
    for r, i in zip(*np.nonzero(s < 0)):
        a, b = list(itertools.combinations(map(tuple, stack[r].tolist()), 2))[i]
        raise SamePoint(f"{a} and {b} coincide")
    s = indexed_points(gf, s)
    d = crosses(gf, s[:, :3], s[:, :2:-1])  # ab x cd, ac x bd, ad x bc
    ln = crosses(gf, d[:, 0], d[:, 1])
    if not ln.any(1).all():
        raise NotAnArc("the four points are collinear")
    if dots(gf, d[:, 2], ln).any():
        raise ArcError("diagonal points not collinear: not characteristic 2?")
    return list(map(tuple, indexed_points(gf, point_indices(gf, ln)).tolist()))


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
    if not is_arc(gf, arc + (moved,)):
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
