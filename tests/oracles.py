"""Slow, independent reference implementations and test-only helpers.

The oracles are written from the definitions, sharing as little code as
possible with the package under test.  The helpers are what only the
tests need from the geometry: collineation matrices and frame maps, arc
growth and tangent lines, conic point sets, the two small-q exhaustive
enumerators (`enumerate_hyperfocused` by focus pencils, its check by
subsets), and the shard-level entry points into the search.
`stream_shard_python` is the per-candidate shard filter the numpy
stream is checked against, and `extension_oracle` the depth-first
extension search the generate-and-test `closure_completions` is checked
against; the pipeline itself has no second engine.
"""

import hashlib
import json
from itertools import combinations, permutations
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from hyperfocus.arcs import (
    Arc,
    LineMeetsArc,
    PointInArc,
    PointOnSecant,
    make_arc,
)
from hyperfocus.canon import frobenius_orbit_reps, serialize_arc
from hyperfocus.conics import Conic, ConicError
from hyperfocus.field import GF
from hyperfocus.plane import (
    LINE_AT_INFINITY,
    DegenerateFrame,
    Line,
    Point,
    SamePoint,
    ZeroTriple,
    all_points,
    point_index,
)
from hyperfocus.search import new_counters

Matrix = Tuple[Tuple[int, int, int], Tuple[int, int, int], Tuple[int, int, int]]

# the verdicts of `census_verdict` on a candidate that is no stream survivor
NOT_AN_ARC = "not-an-arc"
FOCUS_COUNT = "focus-count"


# ---------------------------------------------------------------------------
# scalar plane arithmetic, one GF.mul/GF.inv at a time: the reference the
# package's array helpers (plane.crosses, dots, point_indices) are checked
# against


class SameLine(ValueError):
    """Two coincident lines do not meet in a single point."""


def scale(gf: GF, t: Sequence[int]) -> Point:
    """Canonical representative: divide by the last nonzero coordinate."""
    x, y, z = t
    if z:
        zi = gf.inv(z)
        return (gf.mul(x, zi), gf.mul(y, zi), 1)
    if y:
        yi = gf.inv(y)
        return (gf.mul(x, yi), 1, 0)
    if x:
        return (1, 0, 0)
    raise ZeroTriple("zero triple")


def cross(gf: GF, u: Sequence[int], v: Sequence[int]) -> Tuple[int, int, int]:
    """Char-2 cross product (unscaled)."""
    m = gf.mul
    return (
        m(u[1], v[2]) ^ m(u[2], v[1]),
        m(u[2], v[0]) ^ m(u[0], v[2]),
        m(u[0], v[1]) ^ m(u[1], v[0]),
    )


def dot(gf: GF, u: Sequence[int], v: Sequence[int]) -> int:
    m = gf.mul
    return m(u[0], v[0]) ^ m(u[1], v[1]) ^ m(u[2], v[2])


def line_through(gf: GF, p: Point, r: Point) -> Line:
    w = cross(gf, p, r)
    if w == (0, 0, 0):
        raise SamePoint(f"{p} and {r} coincide")
    return scale(gf, w)


def meet(gf: GF, m1: Line, m2: Line) -> Point:
    w = cross(gf, m1, m2)
    if w == (0, 0, 0):
        raise SameLine(f"{m1} and {m2} coincide")
    return scale(gf, w)


def incident(gf: GF, p: Point, m: Line) -> bool:
    return dot(gf, p, m) == 0


def point_from_index(gf: GF, i: int) -> Point:
    q = gf.q
    if i < q * q:
        return (i // q, i % q, 1)
    if i < q * q + q:
        return (i - q * q, 1, 0)
    if i == q * q + q:
        return (1, 0, 0)
    raise ValueError(f"index {i} out of range")


def frobenius_point(gf: GF, p: Point, i: int = 1) -> Point:
    """Coordinate-wise field automorphism; a collineation of the plane."""
    return (gf.frobenius(p[0], i), gf.frobenius(p[1], i), gf.frobenius(p[2], i))


def det3(gf: GF, a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
    m = gf.mul
    return (
        m(a[0], m(b[1], c[2]) ^ m(b[2], c[1]))
        ^ m(a[1], m(b[0], c[2]) ^ m(b[2], c[0]))
        ^ m(a[2], m(b[0], c[1]) ^ m(b[1], c[0]))
    )


def collinear(gf: GF, a: Point, b: Point, c: Point) -> bool:
    return det3(gf, a, b, c) == 0


def line_points(gf: GF, m: Line) -> List[Point]:
    """The q + 1 points of a line, in dense index order."""
    a, b, c = m
    if a == 0 and b == 0:
        # Z = 0: all directions plus (1, 0, 0).
        return [(x, 1, 0) for x in gf.elements()] + [(1, 0, 0)]
    pts: List[Point] = []
    if b:
        # y = (a x + c) / b for each x
        bi = gf.inv(b)
        pts.extend((x, gf.mul(gf.mul(a, x) ^ c, bi), 1) for x in gf.elements())
    else:
        # vertical: x = c / a, y free
        xv = gf.div(c, a)
        pts.extend((xv, y, 1) for y in gf.elements())
    # the single direction point satisfies a x + b y = 0: (b, a, 0)
    pts.append(scale(gf, (b, a, 0)))
    pts.sort(key=lambda p: point_index(gf, p))
    return pts


# ---------------------------------------------------------------------------
# conics and nested arcs

def _row(gf: GF, p: Sequence[int]) -> List[int]:
    x, y, z = p
    return [
        gf.mul(x, x),
        gf.mul(y, y),
        gf.mul(z, z),
        gf.mul(x, y),
        gf.mul(x, z),
        gf.mul(y, z),
    ]


def _eval(gf: GF, c: Sequence[int], p: Sequence[int]) -> int:
    acc = 0
    for ci, ri in zip(c, _row(gf, p)):
        acc ^= gf.mul(ci, ri)
    return acc


def solve_conic(gf: GF, pts: Sequence[Sequence[int]]) -> Optional[Tuple[int, ...]]:
    """Unique-up-to-scale conic through the points, or None.

    Column-by-column elimination; independent of the package's solver.
    """
    rows = [_row(gf, p) for p in pts]
    pivots = {}
    for col in range(6):
        pick = None
        for i, r in enumerate(rows):
            if i not in pivots.values() and r[col]:
                pick = i
                break
        if pick is None:
            continue
        inv = gf.inv(rows[pick][col])
        rows[pick] = [gf.mul(inv, v) for v in rows[pick]]
        for i, r in enumerate(rows):
            if i != pick and r[col]:
                f = r[col]
                rows[i] = [v ^ gf.mul(f, w) for v, w in zip(r, rows[pick])]
        pivots[col] = pick
    free = [c for c in range(6) if c not in pivots]
    if len(free) != 1:
        return None
    sol = [0] * 6
    sol[free[0]] = 1
    for col, i in pivots.items():
        sol[col] = rows[i][free[0]]
    return tuple(sol)


def conic_oracle(gf: GF, pts: Sequence[Sequence[int]]) -> Optional[Conic]:
    """The conic through five points by Gauss elimination, scaled so its
    first nonzero coefficient is 1; None when it is not unique."""
    sol = solve_conic(gf, pts)
    if sol is None:
        return None
    li = gf.inv(next(v for v in sol if v))
    return tuple(gf.mul(li, v) for v in sol)


def on_conic(gf: GF, conic: Conic, p: Sequence[int]) -> bool:
    return _eval(gf, conic, p) == 0


def is_nondegenerate(gf: GF, conic: Conic) -> bool:
    """(d, e, f) != 0: the form is not a perfect square."""
    return tuple(conic[3:]) != (0, 0, 0)


def nucleus(gf: GF, conic: Conic) -> Point:
    """The common point of all tangents: (f, e, d), scaled."""
    d, e, f = conic[3], conic[4], conic[5]
    if (d, e, f) == (0, 0, 0):
        raise ConicError("degenerate conic has no nucleus")
    return scale(gf, (f, e, d))


def _is_nucleus(gf: GF, conic_pts: set, n: Tuple[int, int, int]) -> bool:
    """Every line through n is tangent to the conic."""
    if n in conic_pts:
        return False
    for m in lines_through(gf, n):
        if sum(1 for p in line_points(gf, m) if p in conic_pts) != 1:
            return False
    return True


def slope_table(gf: GF) -> List[List[int]]:
    return [
        [gf.mul(dy, gf.inv(dx)) if dx else 0 for dy in range(gf.q)]
        for dx in range(gf.q)
    ]


def census_size(gf: GF, table: List[List[int]], pts) -> int:
    """Number of distinct secant directions of affine points (q = vertical)."""
    dirs = set()
    for (x1, y1, _), (x2, y2, _) in combinations(pts, 2):
        dx = x1 ^ x2
        dirs.add(gf.q if dx == 0 else table[dx][y1 ^ y2])
    return len(dirs)


def assert_no_nested_hyperfocused(gf: GF, arcs) -> int:
    """|K| >= 2|K'| for nested hyperfocused arcs: equivalently, no arc
    has a hyperfocused sub-arc of more than half its size.  Returns the
    number of subsets checked."""
    table = slope_table(gf)
    checked = 0
    for arc in arcs:
        k = len(arc)
        for m in range(k // 2 + 1, k):
            if m % 2:
                continue
            for sub in combinations(arc, m):
                checked += 1
                assert census_size(gf, table, sub) != m - 1, (
                    f"hyperfocused {m}-sub-arc inside a {k}-arc"
                )
    return checked


def hyperconic_oracle(gf: GF, arc: Sequence[Tuple[int, int, int]]) -> bool:
    """Exhaustive test: some 5-subset spans a conic whose point set,
    plus at most one extra arc point acting as nucleus, covers the arc."""
    aset = [tuple(p) for p in arc]
    for quint in combinations(aset, 5):
        conic = solve_conic(gf, quint)
        if conic is None:
            continue
        off = [p for p in aset if _eval(gf, conic, p)]
        if len(off) > 1:
            continue
        conic_pts = {p for p in all_points(gf) if not _eval(gf, conic, p)}
        if len(conic_pts) != gf.q + 1:
            continue
        if not off or _is_nucleus(gf, conic_pts, off[0]):
            return True
    return False


# ---------------------------------------------------------------------------
# lines through a point, collineations, frames

def lines_through(gf: GF, p: Point) -> List[Line]:
    """The q + 1 lines through a point (coefficient triples, index order)."""
    return line_points(gf, p)  # point/line duality: same incidence equation


class SingularMatrix(ValueError):
    """Determinant zero: not a collineation."""


def mat_vec(gf: GF, t: Matrix, v: Sequence[int]) -> Tuple[int, int, int]:
    m = gf.mul
    return tuple(
        m(row[0], v[0]) ^ m(row[1], v[1]) ^ m(row[2], v[2]) for row in t
    )  # type: ignore[return-value]


def apply_point(gf: GF, t: Matrix, p: Point) -> Point:
    return scale(gf, mat_vec(gf, t, p))


def mat_mul(gf: GF, a: Matrix, b: Matrix) -> Matrix:
    m = gf.mul
    return tuple(
        tuple(
            m(a[i][0], b[0][j]) ^ m(a[i][1], b[1][j]) ^ m(a[i][2], b[2][j])
            for j in range(3)
        )
        for i in range(3)
    )  # type: ignore[return-value]


def mat_det(gf: GF, a: Matrix) -> int:
    return det3(gf, a[0], a[1], a[2])


def random_z0_collineation(gf: GF, rng) -> Matrix:
    """A random invertible matrix with last row (0, 0, *): it stabilizes
    the line Z = 0."""
    while True:
        rows = [tuple(rng.randrange(gf.q) for _ in range(3)) for _ in range(2)]
        m = (*rows, (0, 0, 1 + rng.randrange(gf.q - 1)))
        if mat_det(gf, m):
            return m


def moved_arc(gf: GF, arc: Arc, rng, frob: Optional[int] = None) -> Arc:
    """The image of the arc under a random collineation fixing Z = 0: a
    random_z0_collineation, then the Frobenius power `frob` (random when
    None)."""
    t = random_z0_collineation(gf, rng)
    i = rng.randrange(gf.s) if frob is None else frob
    return make_arc(gf, [frobenius_point(gf, apply_point(gf, t, p), i) for p in arc])


def mat_inv(gf: GF, a: Matrix) -> Matrix:
    """Inverse by adjugate; char 2 drops the cofactor signs."""
    d = mat_det(gf, a)
    if d == 0:
        raise SingularMatrix("matrix is singular")
    di = gf.inv(d)
    m = gf.mul

    def cof(i: int, j: int) -> int:
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        return m(a[r[0]][c[0]], a[r[1]][c[1]]) ^ m(a[r[0]][c[1]], a[r[1]][c[0]])

    # adjugate = transpose of cofactor matrix
    return tuple(
        tuple(m(di, cof(j, i)) for j in range(3)) for i in range(3)
    )  # type: ignore[return-value]


def apply_line(gf: GF, t: Matrix, m: Line) -> Line:
    """Image of a line under the point map t: coefficients go through
    the inverse transpose."""
    ti = mat_inv(gf, t)
    w = tuple(
        gf.mul(m[0], ti[0][j]) ^ gf.mul(m[1], ti[1][j]) ^ gf.mul(m[2], ti[2][j])
        for j in range(3)
    )
    return scale(gf, w)


def std_frame_matrix(gf: GF, quad: Sequence[Point]) -> Matrix:
    """Matrix sending the standard frame e1, e2, e3, (1,1,1) to quad."""
    p1, p2, p3, p4 = quad
    d = det3(gf, p1, p2, p3)
    if d == 0:
        raise DegenerateFrame("first three frame points are collinear")
    # Solve [p1 p2 p3] lam = p4 by Cramer.
    l1 = gf.div(det3(gf, p4, p2, p3), d)
    l2 = gf.div(det3(gf, p1, p4, p3), d)
    l3 = gf.div(det3(gf, p1, p2, p4), d)
    if l1 == 0 or l2 == 0 or l3 == 0:
        raise DegenerateFrame("fourth frame point lies on a side of the triangle")
    cols = [[gf.mul(lam, x) for x in p] for lam, p in ((l1, p1), (l2, p2), (l3, p3))]
    return tuple(zip(*cols))  # type: ignore[return-value]


def frame_map(gf: GF, src: Sequence[Point], dst: Sequence[Point]) -> Matrix:
    """The unique projectivity sending the frame src to the frame dst.

    Both arguments are 4-tuples of points with no 3 collinear.
    """
    ms = std_frame_matrix(gf, src)
    md = std_frame_matrix(gf, dst)
    return mat_mul(gf, md, mat_inv(gf, ms))


_DST_FRAME = ((0, 0, 1), (1, 0, 1), (0, 1, 0), (1, 1, 0))


def normalize_frame(
    gf: GF, arc: Arc, line: Line, triple: Sequence[Point]
) -> Tuple[Matrix, Arc]:
    """Projectivity and image arc putting (P1, P2, P3) in reference position.

    The source frame (P3, P1, l^l1, l^l3) is always in general position
    when the triple consists of arc points and the line is exterior, so
    the map exists and is unique.
    """
    p1, p2, p3 = triple
    if any(incident(gf, p, line) for p in (p1, p2, p3)):
        raise LineMeetsArc("triple points must be off the line")
    l1 = line_through(gf, p2, p3)
    l3 = line_through(gf, p1, p2)
    src = (p3, p1, meet(gf, line, l1), meet(gf, line, l3))
    t = frame_map(gf, src, _DST_FRAME)
    image = tuple(
        sorted(
            (apply_point(gf, t, p) for p in arc),
            key=lambda p: point_index(gf, p),
        )
    )
    return t, image


def affine_ordinates_oracle(gf: GF, arc: Sequence[Point], line: Line) -> List[Tuple[int, int]]:
    """canon._affine_ordinates one point at a time: the two coordinates
    other than the line's last nonzero one, divided by the point's dot
    product with the line."""
    t = max(i for i in range(3) if line[i])
    r, u = (i for i in range(3) if i != t)
    out = []
    for p in arc:
        w = dot(gf, p, line)
        if w == 0:
            raise LineMeetsArc(f"{p} lies on the line {line}")
        out.append((gf.div(p[r], w), gf.div(p[u], w)))
    if len(out) < 3:
        raise ValueError("arc too small for a triple")
    return out


def canonical_form_oracle(
    gf: GF, arc: Arc, line: Line = LINE_AT_INFINITY
) -> bytes:
    """canonical_form by its definition: one projective frame map per
    ordered triple, then every Frobenius power of the image, serialized
    and compared as bytes."""
    best: Optional[bytes] = None
    for triple in permutations(arc, 3):
        _, image = normalize_frame(gf, arc, line, triple)
        for i in range(gf.s):
            blob = serialize_arc(gf, [frobenius_point(gf, p, i) for p in image])
            if best is None or blob < best:
                best = blob
    if best is None:
        raise ValueError("arc too small for a triple")
    return best


# ---------------------------------------------------------------------------
# arc growth, tangents, hyperovals, subset enumeration

def arc_oracle(gf: GF, pts: Sequence[Sequence[int]]) -> bool:
    """From the definition, by all C(k, 3) determinants: no two of the
    points fail to span a line (a zero triple, or one point under two
    scalings) and no three are collinear."""
    for a, b in combinations(pts, 2):
        if not any(a) or not any(b) or scale(gf, a) == scale(gf, b):
            return False
    return not any(collinear(gf, a, b, c) for a, b, c in combinations(pts, 3))


def diagonal_line_oracle(gf: GF, quad: Sequence[Point]) -> Line:
    """The join of two diagonal points of a quadrangle, checked to carry
    the third; SameLine when the four points are collinear."""
    ab, ac, ad, bc, bd, cd = (line_through(gf, a, b) for a, b in combinations(quad, 2))
    d1, d2, d3 = meet(gf, ab, cd), meet(gf, ac, bd), meet(gf, ad, bc)
    ln = line_through(gf, d1, d2)
    if not incident(gf, d3, ln):
        raise ValueError("diagonal points not collinear")
    return ln


def focus_set_oracle(gf: GF, arc: Arc, line: Line) -> Tuple[Point, ...]:
    """The meets of the secants with the line, each joined and met by
    cross products, in dense index order."""
    foci = {meet(gf, line_through(gf, a, b), line) for a, b in combinations(arc, 2)}
    return tuple(sorted(foci, key=lambda p: point_index(gf, p)))


def arc_accepts(gf: GF, arc: Arc, p: Point) -> bool:
    """True when arc + p is still an arc: p is new and off every secant."""
    if p in arc:
        return False
    return not any(collinear(gf, a, b, p) for a, b in combinations(arc, 2))


def extend_arc(gf: GF, arc: Arc, p: Point) -> Arc:
    p = scale(gf, p)
    if p in arc:
        raise PointInArc(f"{p} already in arc")
    for a, b in combinations(arc, 2):
        if collinear(gf, a, b, p):
            raise PointOnSecant(f"{p} lies on the secant through {a} and {b}")
    pts = sorted(arc + (p,), key=lambda t: point_index(gf, t))
    return tuple(pts)


def line_type(gf: GF, arc: Arc, m: Line) -> str:
    """'secant', 'tangent', or 'exterior' by number of arc points on m."""
    hits = sum(1 for p in arc if incident(gf, p, m))
    if hits >= 2:
        return "secant"
    return "tangent" if hits == 1 else "exterior"


def tangents_through(gf: GF, arc: Arc, p: Point) -> List[Line]:
    """Tangent lines of the arc passing through an outside point p."""
    p = scale(gf, p)
    if p in arc:
        raise PointInArc(f"{p} is an arc point")
    return [m for m in lines_through(gf, p) if line_type(gf, arc, m) == "tangent"]


def complete_to_hyperovals(gf: GF, arc: Arc, first_only: bool = False) -> List[Arc]:
    """All hyperovals ((q+2)-arcs) containing the given arc.

    Candidate points are those off every secant; the completion is a DFS
    over them in index order.  Intended for small q.
    """
    want = gf.q + 2 - len(arc)
    if want < 0:
        return []
    if want == 0:
        return [arc]
    cands = [p for p in all_points(gf) if arc_accepts(gf, arc, p)]
    out: List[Arc] = []

    def grow(cur: Arc, start: int) -> bool:
        if len(cur) == gf.q + 2:
            out.append(cur)
            return first_only
        for i in range(start, len(cands)):
            p = cands[i]
            if arc_accepts(gf, cur, p):
                nxt = tuple(sorted(cur + (p,), key=lambda t: point_index(gf, t)))
                if grow(nxt, i + 1):
                    return True
        return False

    grow(arc, 0)
    return out


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


def enumerate_hyperfocused_naive(gf: GF, line: Line) -> List[Arc]:
    """Subset-DFS oracle: walk every arc disjoint from the line and keep
    the hyperfocused ones.  Only viable for tiny q."""
    tab = _LineTables(gf, line)
    masks = tab.masks
    fpos = tab.fpos
    pair_lid = tab.pair_lid
    n = len(tab.off)
    out: List[Tuple[int, ...]] = []
    members: List[int] = []

    def walk(start: int, cov: int, focus: int) -> None:
        k = len(members)
        if k >= 2 and focus.bit_count() == k - 1:
            out.append(tuple(members))
        for nxt in range(start, n):
            if cov & (1 << nxt):
                continue
            ncov = cov
            nfoc = focus
            for m in members:
                t = pair_lid[m][nxt]
                ncov |= masks[t]
                nfoc |= 1 << fpos[t]
            members.append(nxt)
            walk(nxt + 1, ncov, nfoc)
            members.pop()

    walk(0, 0, 0)
    out.sort(key=lambda t: (len(t), t))
    return [tuple(tab.off[i] for i in t) for t in out]


def conic_points(gf: GF, conic: Conic) -> List[Point]:
    return [p for p in all_points(gf) if on_conic(gf, conic, p)]


def hyperconic(gf: GF, conic: Conic) -> Arc:
    """Conic plus nucleus as a (q+2)-arc; validates the arc property."""
    pts = conic_points(gf, conic)
    pts.append(nucleus(gf, conic))
    arc = make_arc(gf, pts)
    if len(arc) != gf.q + 2:
        raise ConicError(f"hyperconic has {len(arc)} points, expected {gf.q + 2}")
    return arc


# ---------------------------------------------------------------------------
# the search below the pipeline: shards, candidates, extension

# two 12-arcs, each reached from three of its 8-point sub-candidates
K12_A = (
    (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1), (2, 6, 1),
    (6, 2, 1), (6, 9, 1), (9, 6, 1), (9, 28, 1), (28, 9, 1), (28, 28, 1),
)
K12_B = (
    (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 2, 1), (2, 5, 1),
    (6, 5, 1), (6, 14, 1), (9, 14, 1), (9, 20, 1), (28, 1, 1), (28, 20, 1),
)


class Candidate8(NamedTuple):
    """Seven field elements naming an 8-point candidate configuration;
    as a tuple, one row of `stream_shard`'s survivors."""

    a: int
    c: int
    d: int
    e: int
    f: int
    g: int
    h: int

    def points(self) -> Tuple[Tuple[int, int], ...]:
        """The implied affine point set, third coordinate 1."""
        return (
            (0, 0),
            (0, 1),
            (1, 0),
            (1, self.a),
            (self.c, self.d),
            (self.c, self.e),
            (self.f, self.g),
            (self.f, self.h),
        )


def survivor_array(cands: Sequence[Candidate8]) -> np.recarray:
    """Candidates as the record array `stream_shard` returns survivors in."""
    return np.rec.fromrecords(
        list(cands), dtype=[(name, np.int64) for name in Candidate8._fields]
    )


def shard_size(gf: GF, c: int) -> int:
    """Closed-form candidate count of one (a, c) shard."""
    pairs = gf.q * (gf.q - 1) // 2
    return pairs * (gf.q - 1 - c) * pairs


def slope_index(gf: GF, p: Tuple[int, int], r: Tuple[int, int]) -> int:
    """Secant direction of two affine points: slope, or q when vertical."""
    if p[0] == r[0]:
        return gf.q
    return gf.mul(p[1] ^ r[1], gf.inv(p[0] ^ r[0]))


def _slope_census(
    gf: GF, pts: Sequence[Tuple[int, int]]
) -> Optional[Tuple[int, List[int]]]:
    """Focus bitmask and per-direction secant counts, or None for a non-arc.

    The scalar reference for the stream and the census of `prune8`.  Three
    points are collinear iff two of the secants through the first share
    a direction, so checking each point's directions to the later ones
    catches every collinear triple at its least index.
    """
    if len(set(pts)) != len(pts):
        return None
    counts = [0] * (gf.q + 1)
    mask = 0
    for i, p in enumerate(pts):
        seen = 0
        for r in pts[i + 1:]:
            m = slope_index(gf, p, r)
            if seen >> m & 1:
                return None
            seen |= 1 << m
            counts[m] += 1
        mask |= seen
    return mask, counts


def census_verdict(gf: GF, cand: Candidate8, bounds: Tuple[int, int]):
    """The scalar census of one candidate: NOT_AN_ARC, FOCUS_COUNT, or,
    for an 8-arc within `bounds`, the focus mask and the number of
    directions that carry exactly one secant, as `prune8` derives them."""
    census = _slope_census(gf, cand.points())
    if census is None:
        return NOT_AN_ARC
    mask, counts = census
    if not bounds[0] <= mask.bit_count() <= bounds[1]:
        return FOCUS_COUNT
    return mask, counts.count(1)


def _direction_rows(gf: GF) -> List[List[List[int]]]:
    """rows[dx][y0][y]: the direction bit from any (x0, y0) to (x0 ^ dx, y)."""
    q = gf.q
    return [
        [[1 << slope_index(gf, (0, y0), (dx, y)) for y in range(q)] for y0 in range(q)]
        for dx in range(q)
    ]


def _admissible_columns(
    gf: GF, rows, pts: Sequence[Tuple[int, int]], k: int
) -> Tuple[int, List[Tuple[int, List[Tuple[int, int]]]]]:
    """The focus mask of the 8-arc `pts`, over all q + 1 directions, and
    the columns it leaves free that hold at least two admissible points,
    as (x, [(y, the point's direction bits to the 8-arc)]).

    A point is admissible when its 8 directions to the arc are distinct
    and the arc's focus set stays below k once they are added.
    """
    focus = 0
    for p, r in combinations(pts, 2):
        focus |= 1 << slope_index(gf, p, r)
    used = {x for x, _ in pts}
    cols = []
    for x in range(gf.q):
        if x in used:
            continue
        # per point of the column, the sum of its 8 direction bits: a
        # sum of 8 powers of two has 8 bits iff they are distinct
        dirs = map(sum, zip(*[rows[x ^ x0][y0] for x0, y0 in pts]))
        ok = [
            (y, d) for y, d in enumerate(dirs) if d.bit_count() == 8 and (d | focus).bit_count() < k
        ]
        if len(ok) >= 2:
            cols.append((x, ok))
    return focus, cols


def free_columns(gf: GF, cands: Sequence[Candidate8], k: int) -> List[int]:
    """Per candidate 8-arc, the columns it leaves free that hold at least
    two points admissible for a hyperfocused k-arc on Z=0 through it.

    The reference for the column early exit of `closure_completions`: a
    candidate with at least (k - 8)/2 such columns is one of its roots.
    """
    rows = _direction_rows(gf)
    return [len(_admissible_columns(gf, rows, cand.points(), k)[1]) for cand in cands]


def extension_oracle(gf: GF, cands: Sequence[Candidate8], k: int) -> List[List[Arc]]:
    """Per candidate 8-arc, every hyperfocused k-arc on Z=0 through it
    that adds (k - 8)/2 vertical pairs, sorted: the scalar reference for
    `closure_completions`.

    A depth-first search over the admissible columns in increasing order
    adds a pair of admissible points per column.  It keeps a point only
    when its directions to the points already chosen are distinct and new
    to its directions to the 8-arc, and the focus count stays below k:
    each leaf is then an arc, and an arc has at least k - 1 focuses.
    """
    rows = _direction_rows(gf)
    n_pairs = (k - 8) // 2
    out = []
    for cand in cands:
        base = list(cand.points())
        focus, cols = _admissible_columns(gf, rows, base, k)
        chosen: List[Tuple[int, int]] = []
        leaves: List[Arc] = []

        def joined(x: int, y: int, dirs: int, mask: int) -> int:
            """The focus mask once (x, y) joins `chosen`, or 0 when it cannot."""
            if (mask | dirs).bit_count() >= k:
                return 0
            for cx, cy in chosen:
                bit = rows[x ^ cx][cy][y]
                if dirs & bit:
                    return 0
                dirs |= bit
            mask |= dirs
            return mask if mask.bit_count() < k else 0

        def walk(start: int, mask: int) -> None:
            left = n_pairs - len(chosen) // 2
            if not left:
                leaves.append(tuple(sorted((x, y, 1) for x, y in base + chosen)))
                return
            for ci in range(start, len(cols) - left + 1):
                x, col = cols[ci]
                for i, (y1, d1) in enumerate(col):
                    m1 = joined(x, y1, d1, mask)
                    if not m1:
                        continue
                    chosen.append((x, y1))
                    for y2, d2 in col[i + 1:]:
                        m2 = joined(x, y2, d2, m1)
                        if m2:
                            chosen.append((x, y2))
                            walk(ci + 1, m2)
                            chosen.pop()
                    chosen.pop()

        walk(0, focus)
        out.append(sorted(leaves))
    return out


def schemaless_config_hash(gf: GF, k: int, bounds: Tuple[int, int]) -> str:
    """The checkpoint hash of code whose `config_hash` had no schema."""
    blob = {"q": gf.q, "modulus": gf.modulus, "k": k, "lo": bounds[0], "hi": bounds[1]}
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


def schema1_config_hash(gf: GF, k: int, bounds: Tuple[int, int]) -> str:
    """The checkpoint hash of code whose checkpoints held counters without
    `dfs_roots` (checkpoint schema 1)."""
    blob = {"schema": 1, "q": gf.q, "modulus": gf.modulus, "k": k}
    blob.update(lo=bounds[0], hi=bounds[1])
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


def shard_candidates(
    gf: GF, a: int, c: int, de_pairs: Optional[Sequence[Tuple[int, int]]] = None
) -> Iterator[Candidate8]:
    """Every candidate of one (a, c) shard, lexicographic in (d, e, f, g, h),
    or only those whose (d, e) is in `de_pairs`."""
    pairs = list(combinations(range(gf.q), 2))
    for d, e in pairs if de_pairs is None else de_pairs:
        for f in range(c + 1, gf.q):
            for g, h in pairs:
                yield Candidate8(a, c, d, e, f, g, h)


def enumerate_candidates8(gf: GF) -> Iterator[Candidate8]:
    """Full candidate stream, lexicographic in (a, c, d, e, f, g, h)."""
    for a in frobenius_orbit_reps(gf, exclude=frozenset({0})):
        for c in range(2, gf.q):
            yield from shard_candidates(gf, a, c)


def stream_shard_python(
    gf: GF,
    a: int,
    c: int,
    lo: int,
    hi: int,
    de_pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> Tuple[Dict[str, int], List[Candidate8]]:
    """Brute-force shard filter: per-candidate arc test and slope census.

    Exact but slow; the vectorized `stream_shard` is checked against it.
    """
    counters = new_counters()
    survivors: List[Candidate8] = []
    for cand in shard_candidates(gf, a, c, de_pairs):
        counters["candidates"] += 1
        census = _slope_census(gf, cand.points())
        if census is None:
            continue
        counters["arcs8"] += 1
        size = census[0].bit_count()
        if size in (9, 10):
            counters["focus_9_10"] += 1
        if lo <= size <= hi:
            counters["prepared"] += 1
            survivors.append(cand)
        else:
            counters["focus_rejected"] += 1
    return counters, survivors


def shard_census(
    gf: GF, a: int, c: int, de_pairs: Optional[Sequence[Tuple[int, int]]] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every candidate of one (a, c) shard in `shard_candidates` order, as
    an (n, 7) array of (a, c, d, e, f, g, h), with whether its 8 points
    form an arc and its focus count over all q + 1 directions.

    The definitions, on the whole shard at once: the points form an arc
    iff each sees its 7 others in 7 distinct directions, and the focus
    count is the number of distinct directions of the 28 secants.  The
    directions come from a table built by scalar field arithmetic
    (`slope_index`); the arrays are only broadcast over (d, e), f and
    (g, h), so this is `stream_shard_python` at q = 16 speed.
    """
    q = gf.q
    bit = np.array(
        [[1 << slope_index(gf, (0, 0), (dx, dy)) for dy in range(q)] for dx in range(q)],
        dtype=np.int64,
    )
    pairs = list(combinations(range(q), 2))
    de = np.array(pairs if de_pairs is None else de_pairs, dtype=np.int64).reshape(-1, 2)
    gh = np.array(pairs, dtype=np.int64)
    d, e = (de[:, i, None, None] for i in (0, 1))
    f = np.arange(c + 1, q)[None, :, None]
    g, h = (gh[None, None, :, i] for i in (0, 1))
    xs = [0, 0, 1, 1, c, c, f, f]
    ys = [0, 1, 0, a, d, e, g, h]
    shape = (len(de), q - 1 - c, len(gh))
    seen = [np.zeros(shape, dtype=np.int64) for _ in range(8)]
    for i, j in combinations(range(8), 2):
        b = bit[np.bitwise_xor(xs[i], xs[j]), np.bitwise_xor(ys[i], ys[j])]
        seen[i] |= b
        seen[j] |= b
    is_arc = np.ones(shape, dtype=bool)
    for s in seen:
        is_arc &= np.bitwise_count(s) == 7
    focus = np.bitwise_count(np.bitwise_or.reduce(seen)).astype(np.int64)
    cands = np.stack(np.broadcast_arrays(a, c, d, e, f, g, h), axis=-1)
    return cands.reshape(-1, 7), is_arc.ravel(), focus.ravel()


def census_stream(
    census: Tuple[np.ndarray, np.ndarray, np.ndarray], lo: int, hi: int
) -> Tuple[Dict[str, int], List[Candidate8]]:
    """What `stream_shard_python` returns for the bounds, from a
    `shard_census`: its counters and survivors."""
    cands, is_arc, focus = census
    keep = is_arc & (lo <= focus) & (focus <= hi)
    counters = new_counters()
    counters.update(
        candidates=len(cands),
        arcs8=int(is_arc.sum()),
        focus_rejected=int((is_arc & ~keep).sum()),
        focus_9_10=int((is_arc & ((focus == 9) | (focus == 10))).sum()),
        prepared=int(keep.sum()),
    )
    return counters, [Candidate8._make(row) for row in cands[keep].tolist()]
