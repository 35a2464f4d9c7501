"""Conics and hyperconics in PG(2, q) for q even.

A conic is the coefficient tuple (a, b, c, d, e, f) of
aX^2 + bY^2 + cZ^2 + dXY + eXZ + fYZ = 0, scaled so the first nonzero
coefficient is 1.  In characteristic 2 the quadratic part contributes
nothing to the gradient, so every tangent of a nondegenerate conic passes
through one common point, the nucleus (f, e, d); conic plus nucleus is a
hyperconic, a (q+2)-arc.  (d, e, f) = (0, 0, 0) means the form is a
perfect square (a double line).

The conics through four points P1..P4, no three collinear, form the
pencil spanned by the line pairs L12L34 and L13L24, where Lij is the
line Pi x Pj through Pi and Pj.  Its member through a fifth point P5 is

    C = (L13.P5)(L24.P5) L12L34 + (L12.P5)(L34.P5) L13L24,

signs dropping out in characteristic 2.  When no three of the five
points are collinear, P5 is on none of the four lines, both weights are
nonzero and C is the unique conic through the five points; it is
nondegenerate, since a line pair or a double line cannot hold five
points no three of which are collinear.  The formula is a handful of
field products, so it runs on whole numpy arrays of quintuples.

`hyperconic_witnesses` takes a list of arcs and runs one kernel per arc
size on an (n, k, 3) stack: the conics of all six drop-one quintuples of
each arc's first six points at once, their nuclei, and the value of each
conic at every arc point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from hyperfocus.arcs import Arc, ArcError, distinct_rows, make_arc, stacks_by_size
from hyperfocus.field import GF, Tables, tables
from hyperfocus.plane import Point, crosses, indexed_points, point_indices

Conic = Tuple[int, int, int, int, int, int]

# the quintuples of an arc's first six points, dropping point 5, 4, ..., 0
QUINTUPLES = tuple(
    tuple(i for i in range(6) if i != drop) for drop in range(5, -1, -1)
)
# each quintuple's 10 secants, in combinations order, as positions among
# the 15 secants of the first six points
_SIX_PAIRS = list(itertools.combinations(range(6), 2))
_QUINTUPLE_SECANTS = np.array(
    [[_SIX_PAIRS.index(pair) for pair in itertools.combinations(q, 2)] for q in QUINTUPLES]
)
# L12, L34, L13, L24 among the 10 secants of P1..P5, and the position of P5
_PENCIL_LINES = np.array([0, 7, 1, 5])
_FIFTH = np.array([q[4] for q in QUINTUPLES])
# a conic's monomials X^2, Y^2, Z^2, XY, XZ, YZ as products of coordinates
_LEFT = np.array([0, 1, 2, 0, 0, 1])
_RIGHT = np.array([0, 1, 2, 1, 2, 2])


class ConicError(ValueError):
    pass


class DegenerateInput(ConicError):
    """Duplicate points, or three of the five collinear."""


def _dots(tab: Tables, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.bitwise_xor.reduce(tab.mul(u, v), axis=-1)


def _line_pairs(tab: Tables, l: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The conic l*m of each pair of line triples, unscaled."""
    c = tab.mul(l[..., _LEFT], m[..., _RIGHT])
    c[..., 3:] ^= tab.mul(l[..., _RIGHT[3:]], m[..., _LEFT[3:]])
    return c


def _pencil_conics(gf: GF, lines: np.ndarray, p5: np.ndarray) -> np.ndarray:
    """The conic C of the module notes from the lines L12, L34, L13, L24
    (..., 4, 3) of P1..P4 and the point P5 (..., 3), scaled; meaningful for
    points in general position."""
    tab = tables(gf)
    l12, l34, l13, l24 = np.moveaxis(lines, -2, 0)
    at = _dots(tab, lines, p5[..., None, :])  # Lij.P5
    w1 = tab.mul(at[..., 2], at[..., 3])[..., None]
    w2 = tab.mul(at[..., 0], at[..., 1])[..., None]
    c = tab.mul(w1, _line_pairs(tab, l12, l34)) ^ tab.mul(w2, _line_pairs(tab, l13, l24))
    lead = np.take_along_axis(c, (c != 0).argmax(-1)[..., None], axis=-1)
    return tab.div(c, lead | (lead == 0))


def conic_through(gf: GF, pts: Sequence[Point]) -> Conic:
    """The unique conic through 5 points in general position."""
    if len(pts) != 5:
        raise ConicError(f"need 5 points, got {len(pts)}")
    try:
        make_arc(gf, pts)
    except ArcError as exc:  # a point given twice, or three collinear
        raise DegenerateInput(str(exc)) from None
    five = np.array(pts, dtype=np.int64)
    i, j = np.triu_indices(5, 1)
    lines = crosses(gf, five[i], five[j])[_PENCIL_LINES]
    return tuple(_pencil_conics(gf, lines, five[4]).tolist())


@dataclass(frozen=True)
class HyperconicWitness:
    found: bool
    conic: Optional[Conic]
    nucleus: Optional[Point]
    quintuple: Optional[Tuple[int, ...]]  # arc indices used for the conic


def _witness_kernel(gf: GF, stack: np.ndarray) -> Tuple[list, list, list, list]:
    """For each arc of an (n, k, 3) stack, k >= 6: the QUINTUPLES position
    of the first quintuple that is not in general position or whose
    nondegenerate conic, with its nucleus, holds every point (-1 if
    none), whether that quintuple is in general position, and its conic
    and nucleus."""
    tab = tables(gf)
    n = len(stack)
    i, j = np.triu_indices(6, 1)
    secants = crosses(gf, stack[:, i], stack[:, j])  # (n, 15, 3)
    quintuple_lines = point_indices(gf, secants)[:, _QUINTUPLE_SECANTS]
    general = distinct_rows(quintuple_lines)  # (n, 6)
    pencil = secants[:, _QUINTUPLE_SECANTS[:, _PENCIL_LINES]]  # (n, 6, 4, 3)
    conics = _pencil_conics(gf, pencil, stack[:, _FIFTH])  # (n, 6, 6)
    nuclei = indexed_points(gf, point_indices(gf, conics[..., 5:2:-1]))
    monomials = tab.mul(stack[..., _LEFT], stack[..., _RIGHT])  # (n, k, 6)
    values = _dots(tab, conics[:, :, None, :], monomials[:, None, :, :])  # (n, 6, k)
    # the nucleus is compared to the points as given
    holds = (values == 0) | (stack[:, None] == nuclei[:, :, None]).all(-1)
    stop = ~general | (conics[..., 3:].any(-1) & holds.all(-1))
    first = np.where(stop.any(1), stop.argmax(1), -1)
    rows = np.arange(n)
    return (
        first.tolist(),
        general[rows, first].tolist(),
        conics[rows, first].tolist(),
        nuclei[rows, first].tolist(),
    )


def hyperconic_witnesses(gf: GF, arcs: Sequence[Arc]) -> List[HyperconicWitness]:
    """hyperconic_witness of each arc, one kernel call per arc size;
    raises what it raises for the first arc in the list that it rejects."""
    rows: List[Optional[tuple]] = [None] * len(arcs)
    for idx, stack in stacks_by_size(arcs):
        if stack.shape[1] >= 6:
            for i, row in zip(idx, zip(*_witness_kernel(gf, stack))):
                rows[i] = row
    out = []
    for arc, row in zip(arcs, rows):
        if row is None:
            raise ConicError("hyperconic check needs an arc of 6 or more points")
        first, general, conic, nuc = row
        if first < 0:
            out.append(HyperconicWitness(False, None, None, None))
        elif not general:  # as the per-quintuple solve always did
            raise DegenerateInput(
                f"quintuple {QUINTUPLES[first]} of {arc} is not in general position"
            )
        else:
            out.append(HyperconicWitness(True, tuple(conic), tuple(nuc), QUINTUPLES[first]))
    return out


def hyperconic_witness(gf: GF, arc: Arc) -> HyperconicWitness:
    """Does a hyperconic (conic + nucleus) contain the whole arc?

    If the arc is in a hyperconic, at most one of its first six points is
    the nucleus, so one of the six drop-one-of-the-first-six quintuples
    lies on the conic and determines it.  The witness is the first of them,
    dropping point 5, 4, ..., 0, whose conic is nondegenerate and holds
    every point but the nucleus.  A quintuple not in general position
    before it raises DegenerateInput.
    """
    return hyperconic_witnesses(gf, [arc])[0]


def hyperconic_contains(gf: GF, arc: Arc) -> bool:
    return hyperconic_witness(gf, arc).found
