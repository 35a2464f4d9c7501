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
the kernel does that for all n(n-1)(n-2) triples at once in numpy,
using the field's log/exp tables, then serializes only the winning row.
canonical_forms runs that kernel once per equivalence class of a list:
every other member of the class is recognised by exact lookups of its
first triple's normalized images, which are computed for all arcs of
one size in one numpy pass before the list is walked.  canonical_form is
the one-arc call into it.
"""

from __future__ import annotations

import hashlib
from itertools import permutations
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from hyperfocus.field import GF, Tables, tables
from hyperfocus.plane import (
    LINE_AT_INFINITY,
    DegenerateFrame,
    Line,
    dots,
    point_index,
)
from hyperfocus.arcs import Arc, LineMeetsArc, stacks_by_size

# Image entries per block of triples: bounds the kernel's temporaries for
# large arcs; a 12-arc (1320 triples x 12 points) is one block.
_BLOCK = 1 << 15
# the six orderings of a triple, one per row
_ORDERINGS = np.array(list(permutations(range(3))))


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
            b = gf.frobenius(b)
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


def _affine_ordinates(
    gf: GF, pts: np.ndarray, line: Line
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x and y of the points of an (..., n, 3) stack after a fixed
    collineation sending the line to Z = 0: with t the last nonzero
    coefficient of the line, the map keeps the other two coordinates and
    puts the line's form last.  Also, per arc, the position of its first
    point on the line, or n when none is; such an arc's x and y are
    meaningless."""
    t = max(i for i in range(3) if line[i])
    r, u = (i for i in range(3) if i != t)
    w = dots(gf, pts, np.array(line))
    on = w == 0
    first = np.count_nonzero(on.cumsum(axis=-1) == 0, axis=-1)
    w |= on  # any nonzero divisor for the points on the line
    tab = tables(gf)
    return tab.div(pts[..., r], w), tab.div(pts[..., u], w), first


def _check_arc(arc: Arc, line: Line, first: int) -> None:
    """Raise what canonical_form raises on an arc before any triple: its
    first point on the line (at position `first`), or too few points."""
    if first < len(arc):
        raise LineMeetsArc(f"{arc[first]} lies on the line {line}")
    if len(arc) < 3:
        raise ValueError("arc too small for a triple")


def _lex_min_row(rows: np.ndarray) -> List[int]:
    """The lexicographically smallest row, by narrowing column by column."""
    idx = np.arange(len(rows))
    for col in range(rows.shape[1]):
        vals = rows[idx, col]
        idx = idx[vals == vals.min()]
        if len(idx) == 1:
            break
    return rows[idx[0]].tolist()


def _normalized_images(
    gf: GF, tab: Tables, x: np.ndarray, y: np.ndarray, p1, p2, p3
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x and y of every point's image under the normalizing map of each
    triple (p1, p2, p3) of point numbers, for (..., n) arrays x and y:
    two (..., len(p3), n) arrays.  Also which triples are collinear, a
    (..., len(p3)) mask; their images are meaningless."""
    lg, ex = tab.log.take, tab.exp.take
    x3, y3 = x[..., p3], y[..., p3]
    # M = [[a, b], [c, d]]: columns P1 - P3 and P2 - P3, as logs
    la, lc = lg(x[..., p1] ^ x3), lg(y[..., p1] ^ y3)
    lb, ld = lg(x[..., p2] ^ x3), lg(y[..., p2] ^ y3)
    det = ex(la + ld) ^ ex(lb + lc)
    flat = det == 0
    det |= flat  # any nonzero determinant for the collinear triples
    linv = ((gf.q - 1) - lg(det))[..., None]
    lux = lg(x[..., None, :] ^ x3[..., None])
    luy = lg(y[..., None, :] ^ y3[..., None])
    # M^-1 = [[d, b], [c, a]] / det in characteristic 2
    img_x = ex(lg(ex(ld[..., None] + lux) ^ ex(lb[..., None] + luy)) + linv)
    img_y = ex(lg(ex(lc[..., None] + lux) ^ ex(la[..., None] + luy)) + linv)
    return img_x, img_y, flat


def _kernel(
    gf: GF, x: np.ndarray, y: np.ndarray
) -> Tuple[List[int], List[np.ndarray]]:
    """The lex-min sorted image row over all ordered triples and Frobenius
    powers, and the sorted frame-0 (no Frobenius) rows of the
    index-increasing triples, in blocks.

    Triples are taken ordering by ordering of the index-increasing ones,
    identity first, so those rows are the first C(n, 3).
    """
    tab = tables(gf)
    n = len(x)
    i1, i2, i3 = np.indices((n, n, n)).reshape(3, -1)
    inc = np.stack([v[(i1 < i2) & (i2 < i3)] for v in (i1, i2, i3)])
    i1, i2, i3 = np.concatenate([inc[order] for order in _ORDERINGS], axis=1)
    n_inc = inc.shape[1]
    best: Optional[List[int]] = None
    frame0: List[np.ndarray] = []
    step = max(1, _BLOCK // n)
    for lo in range(0, len(i3), step):
        blk = slice(lo, lo + step)
        img_x, img_y, flat = _normalized_images(gf, tab, x, y, i1[blk], i2[blk], i3[blk])
        if flat.any():
            raise DegenerateFrame("three arc points are collinear")
        # fx[X] | fy[Y] is the point index of a Frobenius image of (X, Y)
        for i, (fx, fy) in enumerate(zip(tab.frob << gf.s, tab.frob)):
            rows = fx.take(img_x) | fy.take(img_y)
            rows.sort(axis=1)
            if i == 0 and lo < n_inc:
                frame0.append(rows[: n_inc - lo])
            cand = _lex_min_row(rows)
            if best is None or cand < best:
                best = cand
    return best, frame0


def _serialize_row(gf: GF, row: List[int]) -> bytes:
    q = gf.q
    return serialize_arc(gf, [(v // q, v % q, 1) for v in row])


def _row_keys(rows: np.ndarray) -> List[bytes]:
    """Each row's bytes, one dict key per row."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


def canonical_form(gf: GF, arc: Arc, line: Line = LINE_AT_INFINITY) -> bytes:
    """Lex-min serialized normalized image over all ordered triples of arc
    points and all Frobenius powers.

    Invariant under every collineation fixing the line: such a map sends
    normalized images of one arc onto those of the other.
    """
    return canonical_forms(gf, [arc], line)[0]


def canonical_forms(
    gf: GF, arcs: Iterable[Arc], line: Line = LINE_AT_INFINITY
) -> List[bytes]:
    """canonical_form of each arc, with one full kernel per equivalence
    class of the list.

    If B is equivalent to an arc A already run, B = g(A) with g a
    projectivity followed by a Frobenius power f.  Some ordering of B's
    first triple is the image under g of an index-increasing triple of
    A, and the normalizing map of that ordering, composed with g, sends
    A's triple to the frame.  The frame has coordinates in GF(2), which f
    fixes, so by uniqueness that map is f after A's normalizing map.  So
    under one Frobenius power the normalized image of one ordering of B's
    first triple is exactly one of A's frame-0 rows.

    The affine ordinates and these probe rows (the six orderings under
    every power) are computed for all arcs of one size in one pass.  The
    list is then walked in order: each arc's probe rows are looked up as
    exact row bytes; a hit is an exact equivalence and returns A's form,
    a miss runs the kernel and adds the new class's frame-0 rows.  A
    non-arc is the image of no arc and never hits, and the flags of a
    point on the line, too few points and a collinear first triple are
    raised as each arc is reached, so the error is that of the first
    rejected arc in the list.
    """
    arcs = arcs if isinstance(arcs, np.ndarray) else list(arcs)
    tab = tables(gf)
    frob_x = tab.frob << gf.s
    n_keys = len(_ORDERINGS) * gf.s
    # per arc: x, y, its first point on the line, a collinear first
    # triple, and its probe rows' keys
    probes: List[tuple] = [()] * len(arcs)
    for idx, stack in stacks_by_size(arcs):
        n = stack.shape[1]
        x, y, first = _affine_ordinates(gf, stack, line)
        flat, keys = [False] * len(idx), [[]] * len(idx)
        if n >= 3:
            img_x, img_y, collinear = _normalized_images(gf, tab, x, y, *_ORDERINGS.T)
            rows = frob_x.take(img_x, axis=1) | tab.frob.take(img_y, axis=1)
            rows = rows.swapaxes(0, 1).reshape(-1, n)
            rows.sort(axis=1)
            flat, keys = collinear[:, 0].tolist(), _row_keys(rows)
            keys = [keys[j:j + n_keys] for j in range(0, len(keys), n_keys)]
        for i, probe in zip(idx, zip(x, y, first.tolist(), flat, keys)):
            probes[i] = probe
    seen: Dict[bytes, bytes] = {}
    forms: List[bytes] = []
    for arc, (x, y, first, flat, keys) in zip(arcs, probes):
        _check_arc(arc, line, first)
        if flat:
            raise DegenerateFrame("three arc points are collinear")
        form = next(filter(None, map(seen.get, keys)), None)
        if form is None:
            best, frame0 = _kernel(gf, x, y)
            form = _serialize_row(gf, best)
            for rows in frame0:
                seen.update(dict.fromkeys(_row_keys(rows), form))
        forms.append(form)
    return forms


def digest(form: bytes) -> str:
    return hashlib.sha256(form).hexdigest()[:16]


def arc_digest(gf: GF, arc: Arc, line: Line = LINE_AT_INFINITY) -> str:
    return digest(canonical_form(gf, arc, line))


def equivalence_classes(
    gf: GF, arcs: Iterable[Arc], line: Line = LINE_AT_INFINITY
) -> List[Tuple[str, List[int]]]:
    """Group arc indices by canonical form; classes ordered by form."""
    groups: Dict[bytes, List[int]] = {}
    for i, form in enumerate(canonical_forms(gf, arcs, line)):
        groups.setdefault(form, []).append(i)
    return [(digest(form), groups[form]) for form in sorted(groups)]
