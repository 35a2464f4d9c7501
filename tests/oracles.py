"""Slow, independent reference implementations and test-only helpers.

The oracles are written from the definitions, sharing as little code as
possible with the package under test.  The helpers are what only the
tests need from the geometry: collineation matrices and frame maps, arc
growth and tangent lines, conic point sets, the small-q exhaustive
enumerator by subsets, and the shard-level entry points into the search.
`stream_shard_python` is the per-candidate shard filter the numpy
stream is checked against; the pipeline itself has no second engine.
"""

import hashlib
import json
from itertools import combinations, permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from hyperfocus.arcs import (
    Arc,
    LineMeetsArc,
    PointInArc,
    PointOnSecant,
    _LineTables,
    make_arc,
)
from hyperfocus.canon import frobenius_orbit_reps, serialize_arc
from hyperfocus.conics import Conic, ConicError, nucleus, on_conic
from hyperfocus.field import GF
from hyperfocus.plane import (
    LINE_AT_INFINITY,
    DegenerateFrame,
    Line,
    Point,
    all_points,
    collinear,
    det3,
    frobenius_point,
    incident,
    line_points,
    line_through,
    meet,
    point_index,
    scale,
)
from hyperfocus.search import Candidate8, new_counters

Matrix = Tuple[Tuple[int, int, int], Tuple[int, int, int], Tuple[int, int, int]]

# the verdicts of `census_verdict` on a candidate that is no stream survivor
NOT_AN_ARC = "not-an-arc"
FOCUS_COUNT = "focus-count"


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
