"""Points and lines of PG(2, q) over GF(2^s), and the Frobenius collineation.

A point is a homogeneous triple (x, y, z) canonically scaled so its last
nonzero coordinate is 1; equality is then plain tuple equality.  A line is
the coefficient triple [a, b, c] of aX + bY + cZ = 0 under the same
scaling.  In characteristic 2 the cross product is sign-free, so the same
formula joins two points into a line and meets two lines in a point.

Dense point index: affine (x, y, 1) -> x*q + y, direction (m, 1, 0) ->
q^2 + m, and (1, 0, 0) -> q^2 + q, covering all q^2 + q + 1 points.
`crosses`, `point_indices` and `indexed_points` do the same on numpy
arrays of triples, for the batched kernels of `arcs` and `conics`.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from hyperfocus.field import GF, tables

Point = Tuple[int, int, int]
Line = Tuple[int, int, int]

# The focus line used throughout: Z = 0, the line at infinity.
LINE_AT_INFINITY: Line = (0, 0, 1)


class ZeroTriple(ValueError):
    """(0, 0, 0) is not a projective point or line."""


class SamePoint(ValueError):
    """Two coincident points do not span a line."""


class SameLine(ValueError):
    """Two coincident lines do not meet in a single point."""


class DegenerateFrame(ValueError):
    """A frame needs 4 points, no 3 collinear."""


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


# --- dense point index ---------------------------------------------------


def point_index(gf: GF, p: Point) -> int:
    x, y, z = p
    if z == 1:
        return x * gf.q + y
    if y == 1:
        return gf.q * gf.q + x
    return gf.q * gf.q + gf.q


def point_from_index(gf: GF, i: int) -> Point:
    q = gf.q
    if i < q * q:
        return (i // q, i % q, 1)
    if i < q * q + q:
        return (i - q * q, 1, 0)
    if i == q * q + q:
        return (1, 0, 0)
    raise ValueError(f"index {i} out of range")


# --- the same on numpy arrays of triples, last axis (x, y, z) -----------

# (u x v)_t = u_{t+1} v_{t+2} + u_{t+2} v_{t+1} in characteristic 2
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def crosses(gf: GF, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise char-2 cross products (unscaled) of two triple arrays."""
    tab = tables(gf)
    return tab.mul(u[..., _NEXT], v[..., _PREV]) ^ tab.mul(u[..., _PREV], v[..., _NEXT])


def point_indices(gf: GF, t: np.ndarray) -> np.ndarray:
    """Dense int64 index of each triple, scaled; -1 for a zero triple."""
    tab = tables(gf)
    q = gf.q
    x, y, z = np.moveaxis(t, -1, 0)
    lead = np.where(z != 0, z, np.where(y != 0, y, x))
    lead |= lead == 0  # the zero triple's index is set below
    xs = tab.div(x, lead).astype(np.int64)
    ys = tab.div(y, lead).astype(np.int64)
    return np.where(
        z != 0,
        xs * q + ys,
        np.where(y != 0, q * q + xs, np.where(x != 0, q * q + q, -1)),
    )


def indexed_points(gf: GF, idx: np.ndarray) -> np.ndarray:
    """The canonical int64 triples of dense indices; (0, 0, 0) for -1."""
    q = gf.q
    affine = idx < q * q
    direction = ~affine & (idx < q * q + q)
    x = np.where(affine, idx // q, np.where(direction, idx - q * q, 1))
    y = np.where(affine, idx % q, direction)
    return np.stack([x, y, affine], axis=-1) * (idx >= 0)[..., None]


def all_points(gf: GF) -> Iterator[Point]:
    for i in range(gf.q * gf.q + gf.q + 1):
        yield point_from_index(gf, i)


def all_lines(gf: GF) -> Iterator[Line]:
    # Same canonical triples as points, read as coefficient vectors.
    yield from all_points(gf)


def frobenius_point(gf: GF, p: Point, i: int = 1) -> Point:
    """Coordinate-wise field automorphism; a collineation of the plane."""
    return (gf.frobenius(p[0], i), gf.frobenius(p[1], i), gf.frobenius(p[2], i))
