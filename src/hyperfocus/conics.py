"""Conics and hyperconics in PG(2, q) for q even.

A conic is the coefficient tuple (a, b, c, d, e, f) of
aX^2 + bY^2 + cZ^2 + dXY + eXZ + fYZ = 0, scaled so the first nonzero
coefficient is 1.  In characteristic 2 the quadratic part contributes
nothing to the gradient, so every tangent of a nondegenerate conic passes
through one common point, the nucleus (f, e, d); conic plus nucleus is a
hyperconic, a (q+2)-arc.

(d, e, f) = (0, 0, 0) means the form is a perfect square (a double line).
For forms produced by conic_through on five points of an arc this is the
only degeneracy that needs testing: a two-line conic cannot pass through
five points no three of which are collinear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from hyperfocus.field import GF
from hyperfocus.plane import Point, collinear, scale
from hyperfocus.arcs import Arc

Conic = Tuple[int, int, int, int, int, int]


class ConicError(ValueError):
    pass


class DegenerateInput(ConicError):
    """Duplicate points, or three of the five collinear."""


class NoUniqueConic(ConicError):
    """The five points do not determine a one-dimensional solution space."""


def conic_row(gf: GF, p: Sequence[int]) -> List[int]:
    """Row of the linear system: (x^2, y^2, z^2, xy, xz, yz)."""
    x, y, z = p
    m = gf.mul
    return [m(x, x), m(y, y), m(z, z), m(x, y), m(x, z), m(y, z)]


def _null_vector(gf: GF, rows: List[List[int]]) -> List[int]:
    """The unique (up to scale) null vector of a 5x6 system over GF(2^s).

    Gauss elimination with exact arithmetic; raises NoUniqueConic when the
    nullity is not 1.
    """
    m = [row[:] for row in rows]
    ncols = 6
    pivots: List[Tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = gf.inv(m[r][c])
        m[r] = [gf.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [m[i][j] ^ gf.mul(f, m[r][j]) for j in range(ncols)]
        pivots.append((r, c))
        r += 1
    if r != 5:
        raise NoUniqueConic(f"rank {r}, expected 5")
    free = next(c for c in range(ncols) if c not in {c0 for _, c0 in pivots})
    sol = [0] * ncols
    sol[free] = 1
    for pr, pc in pivots:
        sol[pc] = m[pr][free]  # char 2: -x = x
    return sol


def _scale_conic(gf: GF, coeffs: Sequence[int]) -> Conic:
    lead = next((v for v in coeffs if v), None)
    if lead is None:
        raise ConicError("zero conic")
    li = gf.inv(lead)
    return tuple(gf.mul(li, v) for v in coeffs)  # type: ignore[return-value]


def conic_through(gf: GF, pts: Sequence[Point]) -> Conic:
    """The unique conic through 5 points in general position."""
    if len(pts) != 5:
        raise ConicError(f"need 5 points, got {len(pts)}")
    scaled = [scale(gf, p) for p in pts]
    if len(set(scaled)) != 5:
        raise DegenerateInput("duplicate points")
    for a, b, c in itertools.combinations(scaled, 3):
        if collinear(gf, a, b, c):
            raise DegenerateInput(f"collinear triple {a}, {b}, {c}")
    return _scale_conic(gf, _null_vector(gf, [conic_row(gf, p) for p in pts]))


def on_conic(gf: GF, conic: Conic, p: Point) -> bool:
    a, b, c, d, e, f = conic
    x, y, z = p
    m = gf.mul
    v = (
        m(a, m(x, x))
        ^ m(b, m(y, y))
        ^ m(c, m(z, z))
        ^ m(d, m(x, y))
        ^ m(e, m(x, z))
        ^ m(f, m(y, z))
    )
    return v == 0


def is_nondegenerate(gf: GF, conic: Conic) -> bool:
    """(d, e, f) != 0: the form is not a perfect square.

    Sufficient for conics through five points of an arc; see module notes.
    """
    return conic[3:] != (0, 0, 0)


def nucleus(gf: GF, conic: Conic) -> Point:
    """The common point of all tangents: (f, e, d), scaled."""
    d, e, f = conic[3], conic[4], conic[5]
    if (d, e, f) == (0, 0, 0):
        raise ConicError("degenerate conic has no nucleus")
    return scale(gf, (f, e, d))


@dataclass(frozen=True)
class HyperconicWitness:
    found: bool
    conic: Optional[Conic]
    nucleus: Optional[Point]
    quintuple: Optional[Tuple[int, ...]]  # arc indices used for the conic


def hyperconic_witness(gf: GF, arc: Arc) -> HyperconicWitness:
    """Does a hyperconic (conic + nucleus) contain the whole arc?

    Solves for the conic through the first five points; if the arc is in a
    hyperconic, at most one of the first six points is the nucleus, so one
    of the six drop-one-of-the-first-six quintuples lies on the conic and
    determines it.  Trying exactly those six suffices.
    """
    if len(arc) < 6:
        raise ConicError("hyperconic check needs an arc of 6 or more points")
    first6 = list(range(6))
    quintuples = [tuple(first6[:drop] + first6[drop + 1 :]) for drop in (5, 4, 3, 2, 1, 0)]
    for quint in quintuples:
        conic = conic_through(gf, [arc[i] for i in quint])
        if not is_nondegenerate(gf, conic):
            continue
        nuc = nucleus(gf, conic)
        if all(on_conic(gf, conic, p) or p == nuc for p in arc):
            return HyperconicWitness(True, conic, nuc, quint)
    return HyperconicWitness(False, None, None, None)


def hyperconic_contains(gf: GF, arc: Arc) -> bool:
    return hyperconic_witness(gf, arc).found
