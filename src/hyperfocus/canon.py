"""Canonical forms of arcs under collineations fixing the focus line.

Equivalence here is generated by projectivities stabilizing the line
(as a set) together with the Frobenius automorphisms: the collineations
of PG(2, q) fixing Z = 0.

An ordered triple (P1, P2, P3) of arc points is normalized by the unique
projectivity sending P3, P1 and the points where the line meets P2P3 and
P1P2 to (0,0,1), (1,0,1), (0,1,0) and (1,1,0).  It maps the focus line to
Z = 0 and P2 to (0,1,1).  The canonical form of an arc is the
lexicographically smallest serialization of any normalized image over all
ordered triples and Frobenius powers; two arcs are equivalent iff their
forms agree.

The normalizing map is affine.  When the line is Z = 0 the projectivity
fixes it, so it is the affine map p -> M^-1 (p - P3) with
M = [P1 - P3 | P2 - P3], whose determinant in characteristic 2 is
ad + bc.  Any other exterior line is first sent to Z = 0 by one fixed
collineation; the normalized image of a triple is unique, so the form
does not depend on that choice.  Every normalized point is affine, so its
serialization (x, y, 1) in fixed-width big-endian bytes orders exactly
like the integer x*q + y, its dense point index.  Comparing serialized
images is therefore comparing the sorted rows of those integers, and
canonical_form does that for all n(n-1)(n-2) triples at once in numpy,
using the field's log/exp tables, then serializes only the winning row.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from hyperfocus.field import GF
from hyperfocus.plane import (
    LINE_AT_INFINITY,
    DegenerateFrame,
    Line,
    point_index,
)
from hyperfocus.arcs import Arc, LineMeetsArc

# Image entries per block of triples: bounds the kernel's temporaries for
# large arcs; a 12-arc (1320 triples x 12 points) is one block.
_BLOCK = 1 << 15


def frobenius_orbit_reps(
    gf: GF, exclude: FrozenSet[int] = frozenset({0})
) -> List[int]:
    """Orbit representatives of F_q \\ exclude under x -> x^2.

    The representative of an orbit is its element of minimal discrete log
    (0 itself, if not excluded, is its own orbit).  Sorted by that log.
    """
    seen = set(exclude)
    reps: List[Tuple[int, int]] = []
    for e in range(gf.q - 1):
        a = gf.exp[e]
        if a in seen:
            continue
        reps.append((e, a))
        b = a
        while True:
            seen.add(b)
            b = gf.mul(b, b)
            if b == a:
                break
    if 0 not in seen:
        reps.insert(0, (-1, 0))
    return [a for _, a in reps]


def serialize_arc(gf: GF, arc: Arc) -> bytes:
    """Fixed-width big-endian coordinate dump, points in index order."""
    w = (gf.s + 7) // 8
    pts = sorted(arc, key=lambda p: point_index(gf, p))
    return b"".join(
        c.to_bytes(w, "big") for p in pts for c in p
    )


class _Tables:
    """Per-field lookup arrays for the batched kernel.

    log sends 0 to the sentinel 2(q-1); exp is zero from there on, so a
    log sum involving 0 (at most 4(q-1)) reads back 0.  frob_y[i] sends
    an ordinate to its 2^i-th power and frob_x[i] does the same shifted
    left by s, so frob_x[i][X] | frob_y[i][Y] is the point index of the
    i-th Frobenius image of (X, Y).  uint16 holds every index and log sum
    up to q = 256, uint32 beyond.
    """

    __slots__ = ("log", "exp", "frob_x", "frob_y")

    def __init__(self, gf: GF):
        q = gf.q
        dtype = np.uint16 if gf.s <= 8 else np.uint32
        self.log = np.array([2 * (q - 1)] + gf.log[1:], dtype=dtype)
        self.exp = np.zeros(4 * q, dtype=dtype)
        self.exp[: 2 * (q - 1)] = gf.exp
        frob = np.array(
            [[gf.frobenius(a, i) for a in range(q)] for i in range(gf.s)],
            dtype=dtype,
        )
        self.frob_y = frob
        self.frob_x = frob << gf.s


_TABLES: Dict[Tuple[int, int], _Tables] = {}


def _tables(gf: GF) -> _Tables:
    key = (gf.s, gf.modulus)
    tab = _TABLES.get(key)
    if tab is None:
        tab = _TABLES[key] = _Tables(gf)
    return tab


def _affine_ordinates(gf: GF, arc: Arc, line: Line) -> List[Tuple[int, int]]:
    """(x, y) of each arc point after a fixed collineation sending the line
    to Z = 0: with t the last nonzero coefficient of the line, the map
    keeps the other two coordinates and puts the line's form last."""
    t = max(i for i in range(3) if line[i])
    r, u = (i for i in range(3) if i != t)
    out = []
    for p in arc:
        w = gf.mul(line[0], p[0]) ^ gf.mul(line[1], p[1]) ^ gf.mul(line[2], p[2])
        if w == 0:
            raise LineMeetsArc(f"{p} lies on the line {line}")
        wi = gf.inv(w)
        out.append((gf.mul(p[r], wi), gf.mul(p[u], wi)))
    return out


def _lex_min_row(rows: np.ndarray) -> List[int]:
    """The lexicographically smallest row, by narrowing column by column."""
    idx = np.arange(len(rows))
    for col in range(rows.shape[1]):
        vals = rows[idx, col]
        idx = idx[vals == vals.min()]
        if len(idx) == 1:
            break
    return rows[idx[0]].tolist()


def canonical_form(gf: GF, arc: Arc, line: Line = LINE_AT_INFINITY) -> bytes:
    """Lex-min serialized normalized image over all ordered triples of arc
    points and all Frobenius powers.

    Invariant under every collineation fixing the line: such a map sends
    normalized images of one arc onto those of the other.
    """
    pts = _affine_ordinates(gf, arc, line)
    n = len(pts)
    if n < 3:
        raise ValueError("arc too small for a triple")
    tab = _tables(gf)
    lg, ex = tab.log, tab.exp
    dtype = lg.dtype
    x = np.array([p[0] for p in pts], dtype=dtype)
    y = np.array([p[1] for p in pts], dtype=dtype)
    i1, i2, i3 = np.indices((n, n, n)).reshape(3, -1)
    keep = (i1 != i2) & (i2 != i3) & (i1 != i3)
    i1, i2, i3 = i1[keep], i2[keep], i3[keep]
    best: Optional[List[int]] = None
    step = max(1, _BLOCK // n)
    for lo in range(0, len(i3), step):
        p1, p2, p3 = i1[lo : lo + step], i2[lo : lo + step], i3[lo : lo + step]
        # M = [[a, b], [c, d]]: columns P1 - P3 and P2 - P3, as logs
        la, lc = lg[x[p1] ^ x[p3]], lg[y[p1] ^ y[p3]]
        lb, ld = lg[x[p2] ^ x[p3]], lg[y[p2] ^ y[p3]]
        det = ex[la + ld] ^ ex[lb + lc]
        if not det.all():
            raise DegenerateFrame("three arc points are collinear")
        linv = ((gf.q - 1) - lg[det])[:, None]
        lux = lg[x ^ x[p3][:, None]]
        luy = lg[y ^ y[p3][:, None]]
        # M^-1 = [[d, b], [c, a]] / det in characteristic 2
        img_x = ex[lg[ex[ld[:, None] + lux] ^ ex[lb[:, None] + luy]] + linv]
        img_y = ex[lg[ex[lc[:, None] + lux] ^ ex[la[:, None] + luy]] + linv]
        for fx, fy in zip(tab.frob_x, tab.frob_y):
            rows = fx[img_x] | fy[img_y]
            rows.sort(axis=1)
            cand = _lex_min_row(rows)
            if best is None or cand < best:
                best = cand
    q = gf.q
    return serialize_arc(gf, [(v // q, v % q, 1) for v in best])


def digest(form: bytes) -> str:
    return hashlib.sha256(form).hexdigest()[:16]


def arc_digest(gf: GF, arc: Arc, line: Line = LINE_AT_INFINITY) -> str:
    return digest(canonical_form(gf, arc, line))


def equivalence_classes(
    gf: GF, arcs: Iterable[Arc], line: Line = LINE_AT_INFINITY
) -> List[Tuple[str, List[int]]]:
    """Group arc indices by canonical form; classes ordered by form."""
    groups: Dict[bytes, List[int]] = {}
    for i, arc in enumerate(arcs):
        groups.setdefault(canonical_form(gf, arc, line), []).append(i)
    return [(digest(form), groups[form]) for form in sorted(groups)]
