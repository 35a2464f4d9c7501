"""Points and lines of PG(2, q) over GF(2^s), as numpy arrays of triples.

A point is a homogeneous triple (x, y, z) canonically scaled so its last
nonzero coordinate is 1; equality is then plain tuple equality.  A line is
the coefficient triple [a, b, c] of aX + bY + cZ = 0 under the same
scaling.  In characteristic 2 the cross product is sign-free, so the same
formula joins two points into a line and meets two lines in a point, and
a point lies on a line when their dot product is 0.

Dense point index: affine (x, y, 1) -> x*q + y, direction (m, 1, 0) ->
q^2 + m, and (1, 0, 0) -> q^2 + q, covering all q^2 + q + 1 points.
`crosses`, `dots`, `point_indices` and `indexed_points` are the package's
only plane arithmetic, on numpy arrays of triples (last axis x, y, z)
with every product gathered from the field's tables; scaling is
`point_indices` then `indexed_points`.
"""

from __future__ import annotations

import functools
from typing import Iterator, Tuple

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


class DegenerateFrame(ValueError):
    """A frame needs 4 points, no 3 collinear."""


def point_index(gf: GF, p: Point) -> int:
    x, y, z = p
    if z == 1:
        return x * gf.q + y
    if y == 1:
        return gf.q * gf.q + x
    return gf.q * gf.q + gf.q


# (u x v)_t = u_{t+1} v_{t+2} + u_{t+2} v_{t+1} in characteristic 2
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def crosses(gf: GF, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise char-2 cross products (unscaled) of two triple arrays."""
    tab = tables(gf)
    return tab.mul(u[..., _NEXT], v[..., _PREV]) ^ tab.mul(u[..., _PREV], v[..., _NEXT])


def dots(gf: GF, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise dot products of two triple arrays: 0 exactly where a
    point lies on a line."""
    return np.bitwise_xor.reduce(tables(gf).mul(u, v), axis=-1)


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


@functools.cache
def index_pairs(n: int) -> Tuple[np.ndarray, ...]:
    """The pairs i < j < n in `itertools.combinations` order, read-only and
    built once per n: a build costs about 80 us, a tenth of a k=12 shard's stream."""
    pairs = np.triu_indices(n, 1)
    for v in pairs:
        v.flags.writeable = False
    return pairs


def all_points(gf: GF) -> Iterator[Point]:
    """Every point, in dense index order."""
    q = gf.q
    yield from ((x, y, 1) for x in range(q) for y in range(q))
    yield from ((m, 1, 0) for m in range(q))
    yield (1, 0, 0)


def all_lines(gf: GF) -> Iterator[Line]:
    # Same canonical triples as points, read as coefficient vectors.
    yield from all_points(gf)
