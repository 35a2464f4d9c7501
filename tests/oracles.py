"""Slow, independent reference implementations used only by the tests.

Deliberately written from the definitions, sharing as little code as
possible with the package under test.  The candidate enumerators and
`extend_to_12` at the end are the test-only entry points into the
search: the pipeline itself streams shards in numpy.
"""

from itertools import combinations, permutations
from typing import Iterator, List, Optional, Sequence, Tuple

from hyperfocus.arcs import Arc, LineMeetsArc
from hyperfocus.canon import frobenius_orbit_reps, serialize_arc
from hyperfocus.field import GF
from hyperfocus.plane import (
    LINE_AT_INFINITY,
    Line,
    Matrix,
    Point,
    all_points,
    apply_point,
    frame_map,
    frobenius_point,
    incident,
    line_points,
    line_through,
    lines_through,
    meet,
    point_index,
)
from hyperfocus.search import Candidate8, Prepared8, _extend_grid


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


def shard_candidates(gf: GF, a: int, c: int) -> Iterator[Candidate8]:
    """Every candidate of one (a, c) shard, lexicographic in (d, e, f, g, h)."""
    q = gf.q
    for d in range(q):
        for e in range(d + 1, q):
            for f in range(c + 1, q):
                for g in range(q):
                    for h in range(g + 1, q):
                        yield Candidate8(a, c, d, e, f, g, h)


def enumerate_candidates8(gf: GF) -> Iterator[Candidate8]:
    """Full candidate stream, lexicographic in (a, c, d, e, f, g, h)."""
    for a in frobenius_orbit_reps(gf, exclude=frozenset({0})):
        for c in range(2, gf.q):
            yield from shard_candidates(gf, a, c)


def extend_to_12(gf: GF, prep: Prepared8) -> List[Tuple[Point, ...]]:
    """All hyperfocused 12-arcs over the 4x4 grids of 4-tangent focus pairs."""
    return _extend_grid(gf, prep, 4)
