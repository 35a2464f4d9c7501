"""Arcs, their secants, and focus sets on exterior lines.

An arc is a tuple of points (no 3 collinear), canonically scaled and
sorted by dense point index.  The focus set of an arc K on an exterior
line l collects the intersections of the secants of K with l; K is
hyperfocused on l when there are exactly |K| - 1 of them, the smallest
count an arc can achieve, and sharply focused when there are exactly |K|.

Two consequences of hyperfocusedness drive the enumeration code here:
through every arc point the |K| - 1 secants meet l in pairwise distinct
points, so they biject onto the focus set; hence every focus is joined to
every arc point by a secant, the secants through one focus pair up the
arc, and |K| is even.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from hyperfocus.field import GF
from hyperfocus.plane import (
    Line,
    Point,
    all_points,
    collinear,
    incident,
    line_points,
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
    """Scale, sort, and validate a collection of points as an arc."""
    pts = [scale(gf, p) for p in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoint("repeated point")
    pts.sort(key=lambda p: point_index(gf, p))
    for a, b, c in itertools.combinations(pts, 3):
        if collinear(gf, a, b, c):
            raise NotAnArc(f"{a}, {b}, {c} are collinear")
    return tuple(pts)


def is_arc(gf: GF, points: Sequence[Point]) -> bool:
    if len(set(points)) != len(points):
        return False
    return not any(
        collinear(gf, a, b, c) for a, b, c in itertools.combinations(points, 3)
    )


def secants(gf: GF, arc: Arc) -> List[Line]:
    """All lines through two arc points.  Distinct for a genuine arc."""
    return [line_through(gf, a, b) for a, b in itertools.combinations(arc, 2)]


def is_exterior(gf: GF, arc: Arc, m: Line) -> bool:
    return not any(incident(gf, p, m) for p in arc)


def focus_set(gf: GF, arc: Arc, line: Line) -> Tuple[Point, ...]:
    """Intersections of the secants with an exterior line, deduplicated,
    in dense index order."""
    if not is_exterior(gf, arc, line):
        raise LineMeetsArc(f"line {line} meets the arc")
    seen: Set[Point] = set()
    for s in secants(gf, arc):
        seen.add(meet(gf, s, line))
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


# --- exhaustive enumeration of hyperfocused arcs ---------------------------


class _LineTables:
    """Per-line lookup tables for the hyperfocused enumeration.

    Local indices 0..q^2-1 address the points off the line in dense index
    order.  Secant candidate lines get small ids with a point bitmask over
    the local indices and the position (0..q) of their meet with the line.
    """

    def __init__(self, gf: GF, line: Line):
        self.gf = gf
        self.line = scale(gf, line)
        self.on = line_points(gf, self.line)
        self.pos_of = {p: i for i, p in enumerate(self.on)}
        self.off = [p for p in all_points(gf) if not incident(gf, p, self.line)]
        self.loc = {p: i for i, p in enumerate(self.off)}
        n = len(self.off)
        self.masks: List[int] = []
        self.fpos: List[int] = []
        self.lid: Dict[Line, int] = {}
        # lid lookup for pairs of off-line points, n x n
        self.pair_lid = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                t = self._register(line_through(gf, self.off[i], self.off[j]))
                self.pair_lid[i][j] = t
                self.pair_lid[j][i] = t
        # lid of the line joining an off point to an on-line point
        self.point_focus_lid = [
            [self._register(line_through(gf, p, rp)) for rp in self.on]
            for p in self.off
        ]

    def _register(self, ln: Line) -> int:
        t = self.lid.get(ln)
        if t is None:
            t = len(self.masks)
            self.lid[ln] = t
            mask = 0
            for p in line_points(self.gf, ln):
                b = self.loc.get(p)
                if b is not None:
                    mask |= 1 << b
            self.masks.append(mask)
            self.fpos.append(self.pos_of[meet(self.gf, ln, self.line)])
        return t


def _pencil_lines(tab: _LineTables, anchor: int) -> List[int]:
    """Ids of the q lines through the anchor focus other than the base line,
    in id order (deterministic).  Every off point lies on exactly one."""
    return sorted({tab.point_focus_lid[i][anchor] for i in range(len(tab.off))})


def _enumerate_anchor(tab: _LineTables, anchor: int) -> List[Tuple[int, ...]]:
    """All hyperfocused arcs (as sorted local index tuples) whose focus set
    has the anchor as its minimal position.

    DFS over the anchor's pencil lines in id order, choosing at most one
    secant pair per line.  Any secant created with a focus position below
    the anchor belongs to a different anchor's subtree and is cut; a
    feasibility prune drops branches where some member can no longer be
    paired through an existing focus by points still available.
    """
    masks = tab.masks
    fpos = tab.fpos
    pair_lid = tab.pair_lid
    pf_lid = tab.point_focus_lid
    pencil = _pencil_lines(tab, anchor)
    np_ = len(pencil)
    # available points on pencil lines from slot i onward
    suffix = [0] * (np_ + 1)
    for i in range(np_ - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[pencil[i]]
    anchor_bit = 1 << anchor
    out: List[Tuple[int, ...]] = []
    members: List[int] = []

    def feasible(cov: int, focus: int, mem_mask: int, nxt_slot: int) -> bool:
        # In any hyperfocused completion every member is paired through
        # every focus; a member with no partner yet and none available on
        # the remaining pencil lines kills the branch.
        fut = ~cov & suffix[nxt_slot]
        f = focus & ~anchor_bit
        while f:
            r = (f & -f).bit_length() - 1
            f &= f - 1
            for m in members:
                w = masks[pf_lid[m][r]]
                if w & mem_mask != (1 << m):
                    continue  # already paired through r
                if w & fut == 0:
                    return False
        return True

    def walk(slot: int, cov: int, focus: int, mem_mask: int) -> None:
        k = len(members)
        if k >= 2 and focus.bit_count() == k - 1:
            out.append(tuple(sorted(members)))
        for li in range(slot, np_):
            lid = pencil[li]
            free = masks[lid] & ~cov
            if free == 0 or free & (free - 1) == 0:
                continue
            bits = []
            f = free
            while f:
                b = f & -f
                bits.append(b.bit_length() - 1)
                f ^= b
            for ii in range(len(bits)):
                for jj in range(ii + 1, len(bits)):
                    i, j = bits[ii], bits[jj]
                    ncov = cov | masks[lid]
                    nfoc = focus | anchor_bit
                    ok = True
                    for m in members:
                        for nn in (i, j):
                            t = pair_lid[m][nn]
                            if (1 << fpos[t]) < anchor_bit:
                                ok = False
                                break
                            ncov |= masks[t]
                            nfoc |= 1 << fpos[t]
                        if not ok:
                            break
                    if not ok:
                        continue
                    nmem = mem_mask | (1 << i) | (1 << j)
                    members.append(i)
                    members.append(j)
                    if feasible(ncov, nfoc, nmem, li + 1):
                        walk(li + 1, ncov, nfoc, nmem)
                    members.pop()
                    members.pop()

    walk(0, 0, 0, 0)
    return out


def enumerate_hyperfocused(gf: GF, line: Line) -> List[Arc]:
    """Every arc hyperfocused on the given line, exhaustively.

    Intended for small q (the tables are quadratic in the plane size).
    Arcs come back sorted by (size, point indices).
    """
    tab = _LineTables(gf, line)
    found: List[Tuple[int, ...]] = []
    for anchor in range(len(tab.on)):
        found.extend(_enumerate_anchor(tab, anchor))
    found.sort(key=lambda t: (len(t), t))
    return [tuple(tab.off[i] for i in t) for t in found]
