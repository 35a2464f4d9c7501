"""Search pipelines for hyperfocused 12- and 14-arcs on Z=0.

The candidate family is the normalized 8-point configuration

    K0 = {(0,0), (0,1), (1,0), (1,a), (c,d), (c,e), (f,g), (f,h)}

in affine coordinates (third coordinate 1), four vertical pairs, with a
ranging over Frobenius orbit representatives and the ordering
constraints 1 < c < f, d < e, g < h removing within-frame duplicates.
A shard is filtered in numpy, bound first (`stream_shard`): focus
bounds cut (d, e) pairs and cells before any (g, h) pair is formed.  A
shard's survivors are one record array of (a, c, d, e, f, g, h) and w,
the focus word the stream counted them by, the one derivation of their
focus sets.  Those with k - 1 focuses, the only ones that can extend,
reach a census of their points and the extension, 256 at a time.  It
adds (k - 8)/2 vertical pairs in free columns: direction tables give
each survivor's admissible points, a column early exit drops those
with too few free columns, and the arc and focus kernels decide the
rest's candidates, so each completion is a hyperfocused arc.  Every
emitted arc is re-verified once, after the orbit closure, by
`record_claims`, the one derivation of a record's claims.

Work is sharded by the (a-index, c) prefix.  One function runs a shard,
in the process or in a pool worker, over direction tables built once
per field and process.  Shards are merged in a fixed order and the
final records are sorted by canonical digest, so worker count never
affects the output file.  A JSON checkpoint stores the last completed
shard, cumulative counters, and the arcs found so far; resuming
reproduces the same bytes, and a corrupt checkpoint is refused before
any shard runs.

Restricting a to orbit representatives finds one arc per Frobenius
orbit; the reported result is the orbit closure, i.e. every
hyperfocused k-arc through the normalized frame, since the Frobenius
collineation fixes the frame and the focus line.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# classify_focus and hyperconic_witness are not called here: they are
# imported for the benchmark's tracer (bench/run.py), which wraps them by name
from hyperfocus.arcs import (  # noqa: F401
    Arc,
    ArcError,
    are_arcs,
    classify_focus,
    focus_verdicts,
    make_arcs,
    stacks_by_size,
)
from hyperfocus.canon import canonical_forms, frobenius_orbit_reps, serialize_arc
from hyperfocus.canon import digest as form_digest
from hyperfocus.conics import hyperconic_witness, hyperconic_witnesses  # noqa: F401
from hyperfocus.field import GF, tables
from hyperfocus.plane import LINE_AT_INFINITY, Line, Point, dots, index_pairs

# target size -> (min, max) focus count demanded of the 8-point stage
FOCUS_BOUNDS = {10: (9, 9), 12: (11, 11), 14: (9, 13)}

# hashed into every checkpoint: raise it whenever a change alters what a
# shard yields or what a checkpoint holds, so old checkpoints are refused
CHECKPOINT_SCHEMA = 2

# classification results the full runs are expected to reproduce
EXPECTED_FOUND = {(32, 0x25, 12): 60, (32, 0x25, 14): 0}

COUNTER_KEYS = (
    "candidates",
    "arcs8",
    "focus_rejected",
    "focus_9_10",
    "prepared",
    "extended",
    "closure_survivors",
    "closure_extended",
    "orbit_reps",
    "found",
    "verified",
    "dfs_roots",
)

# a record's claims about its arc: `search` writes them, `verify` re-checks
# those a record carries and `construct` emits k, focus_count and digest
CLAIMS = ("k", "focus_count", "hyperconic", "conic", "nucleus", "digest")


class SearchError(Exception):
    pass


class CheckpointMismatch(SearchError):
    """Checkpoint belongs to a different search configuration."""


class VerificationError(SearchError):
    """An internal stage produced something its successor rejects."""


def new_counters() -> Dict[str, int]:
    return {k: 0 for k in COUNTER_KEYS}


def merge_counters(into: Dict[str, int], delta: Dict[str, int]) -> None:
    for k, v in delta.items():
        into[k] = into.get(k, 0) + v


# ---------------------------------------------------------------------------
# candidate stream

def shard_list(gf: GF) -> List[Tuple[int, int]]:
    """All (a-index, c) shard coordinates in processing order."""
    reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
    return [(i, c) for i in range(len(reps)) for c in range(2, gf.q)]


# ---------------------------------------------------------------------------
# stream filtering

def _require_small_field(gf: GF) -> None:
    """Focus sets are uint64 masks over the q + 1 directions, counted by numpy 2's bitwise_count."""
    if gf.q >= 64:
        raise SearchError(f"q={gf.q} is not supported: focus bitmasks need q < 64")
    if not hasattr(np, "bitwise_count"):
        raise SearchError(f"numpy {np.__version__} is too old: the search needs numpy >= 2.0")


class _NumpyTables:
    """Per-field lookup tables for the vectorized shard filter, built once
    per (s, modulus) and process: every later call returns the same set."""

    _built: Dict[Tuple[int, int], "_NumpyTables"] = {}

    def __new__(cls, gf: GF) -> "_NumpyTables":
        _require_small_field(gf)  # also when the field's set is already built
        key = (gf.s, gf.modulus)
        if key not in cls._built:
            tab = super().__new__(cls)
            tab.q = q = gf.q
            tab.xs = xs = np.arange(q)
            # slope[dx, dy] = dy / dx, and q (vertical) on the row dx = 0
            slope = tab.slope = np.vstack([np.full((1, q), q), tables(gf).div(xs, xs[1:, None])])
            # rays[y0 * q + dx, y]: the direction from any (x0, y0) to (x0 ^ dx,
            # y), but no bit for vertical, so that q slopes fit 32 bits
            flat = np.where(slope < q, 1 << slope, 0).astype(np.uint32)
            tab.rays = flat[xs[:, None], xs[:, None, None] ^ xs].reshape(q * q, q)
            cls._built[key] = tab
        return cls._built[key]


# 32-bit words per pair chunk, and (g, h) pairs per row block, of the
# stream, so that its temporaries stay small next to the process
_CHUNK = 1 << 14


def stream_shard(
    gf: GF,
    a: int,
    c: int,
    lo: int,
    hi: int,
    de_pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> Tuple[Dict[str, int], np.recarray]:
    """Shard filter: bound-first, batched over chunks of (d, e) pairs.

    For fixed (a, c, d, e) the six fixed points are the anchors and
    (c, d), (c, e).  The row of a cell (f, g), f > c, is the bitmask of
    its six directions to them: the anchors' part R4 is shared by the
    shard, and (c, y)'s part Rc[y] by every pair holding y, so a pair's
    rows are R4 | Rc[d] | Rc[e].  A cell is admissible, on no line
    through two of the six points, iff its row has six bits; (f, g) and
    (f, h) then make an 8-arc with any other admissible cell of the row.
    Since f != c, the cell never lies on the line of (c, d) and (c, e),
    so it is admissible iff R4 | Rc[d] and R4 | Rc[e] both have five
    bits.  Those bits, over g, are one q-bit word W[y, f] per (y, f), so
    the row of (d, e, f) holds n_ok = popcount(W[d, f] & W[e, f])
    admissible cells: `arcs8` is the sum of C(n_ok, 2) over the shard,
    from words alone, and `focus_rejected = arcs8 - prepared`.  A pair
    (d, e) is skipped when d or e lies on a line through two anchors (the
    anchors' directions from (c, y) repeat).

    The focus set of the six points is base6 = base4 | A[d] | A[e], with
    A[y] the directions from (c, y) to the anchors.  The focus count of
    a subset is a lower bound for the whole set, so a cell whose 7-point
    count popcount(base6 | row) exceeds max(hi, 10) is in no survivor
    and no count of 9 or 10.  Every cell's 7-point set holds base6, so a
    pair whose base6 is already over that cap keeps no cell and is
    dropped before any of its rows is built.  The rows of the other pairs
    are built in chunks, each chunk keeps only its live rows, those with
    two cells left, and one (g, h) stage per shard takes them all.
    No direction the stream computes is vertical (f, c > 1), and the
    vertical is a focus through (0,0)(0,1), so the words are 32-bit
    `tab.rays` bits without it and every focus test counts it as one.
    Pair chunks hold at most `_CHUNK` words.  The survivors are one
    record array of int64 fields a ... h and `_row_pairs`' word w, in
    pairs, then (f, g, h) order.  `de_pairs` restricts the (d, e) pairs.
    """
    tab = _NumpyTables(gf)
    q = tab.q
    counters = new_counters()
    de = np.column_stack(index_pairs(q)) if de_pairs is None else np.array(de_pairs, dtype=np.int64)
    de = de.reshape(-1, 2)
    counters["candidates"] = len(de) * (q - 1 - c) * (q * (q - 1) // 2)

    rays = tab.rays
    xs = tab.xs
    fs = xs[c + 1:]
    nf = len(fs)
    anchors = ((0, 0), (0, 1), (1, 0), (1, a))
    # directions of the lines through two anchors: 0, a, 1, a ^ 1 (and vertical)
    base4 = np.uint32(1 | 1 << a | 1 << 1 | 1 << (a ^ 1))
    # rays[y0 * q + dx] holds the directions from (x0, y0) to (x0 ^ dx, *):
    # r4[f] from the anchors to (f, *), anc from them to (c, *), rc[y, f]
    # from (c, y) to (f, *)
    r4 = np.zeros((nf, q), dtype=np.uint32)
    anc = np.zeros(q, dtype=np.uint32)
    for ax, ay in anchors:
        r4 |= rays.take(ay * q + (fs ^ ax), axis=0)
        anc |= rays[ay * q + (c ^ ax)]
    rc = rays.take(xs[:, None] * q + (fs ^ c), axis=0)
    good = np.bitwise_count(anc) == 4
    d, e = de[:, 0], de[:, 1]
    # d == e puts one point twice: no 8-arc, and no split of the cell test
    de = de[good[d] & good[e] & (d != e)]
    d, e = de[:, 0], de[:, 1]
    # words[y, f]: bit g set iff (f, g) is off every line through two of
    # the anchors and (c, y); one little-endian word of q bits
    words = np.packbits(np.bitwise_count(r4 | rc) == 5, axis=2, bitorder="little")
    words = words.view(f"<u{words.shape[2]}")[..., 0]
    n_ok = np.bitwise_count(words[d] & words[e]).astype(np.intp)
    counters["arcs8"] = int((n_ok * (n_ok - 1)).sum()) // 2
    base6 = base4 | anc[d] | anc[e]
    cap = max(hi, 10) - 1  # non-vertical focuses
    pairs = np.flatnonzero(np.bitwise_count(base6) <= cap)
    # per chunk, of its live rows: cell index (pair * nf + f - c - 1), keep, m7, n_keep
    live_rows = [(
        np.zeros(0, np.int64),
        np.zeros((0, q), bool),
        np.zeros((0, q), np.uint32),
        np.zeros(0, np.uint8),
    )]
    step = max(1, _CHUNK // max(1, nf * q))
    for i in range(0, len(pairs), step):
        p = pairs[i:i + step]
        dp, ep = d[p], e[p]
        rows = rc.take(dp, axis=0)
        rows |= rc.take(ep, axis=0)
        rows |= r4
        m7 = rows | base6[p, None, None]
        keep = np.bitwise_count(rows) == 6
        keep &= np.bitwise_count(m7) <= cap
        keep, m7 = keep.reshape(-1, q), m7.reshape(-1, q)
        n_keep = keep.view(np.uint8).sum(axis=1, dtype=np.uint8)
        live = np.flatnonzero(n_keep >= 2)
        cells = (p[:, None] * nf + np.arange(nf)).ravel()
        live_rows.append((cells[live], keep[live], m7[live], n_keep[live]))
    cells, keep, m7, n_keep = map(np.concatenate, zip(*live_rows))
    n910, row, g, h, w = _row_pairs(lo - 1, hi - 1, keep, m7, n_keep)
    counters["focus_9_10"] = n910
    p, f = np.divmod(cells[row], nf)
    survivors = np.empty(len(row), [(name, np.int64) for name in "acdefgh"] + [("w", w.dtype)])
    for name, col in zip("acdefghw", (a, c, de[p, 0], de[p, 1], fs[f], g, h, w)):
        survivors[name] = col
    counters["prepared"] = len(survivors)
    counters["focus_rejected"] = counters["arcs8"] - counters["prepared"]
    return counters, survivors.view(np.recarray)


def _row_pairs(lo: int, hi: int, keep, m7, n_keep) -> tuple:
    """The (g, h) stage over rows of kept cells, g < h both kept.

    `m7` holds 32-bit focus words without the vertical, so `lo`..`hi`
    and the 8..9 of `focus_9_10` count non-vertical focuses.  Returns the
    number of pairs with 9 or 10 focuses and, as arrays in (row, g, h)
    order, the row, g, h and word m7[g] | m7[h] (the 8-arc's focus set
    but the vertical of (f, g)(f, h)) of the pairs with lo..hi bits.
    Each row's kept cells are packed to its left in ascending g, so its
    pairs are the slot pairs i < j < width with j below its count;
    blocks of rows hold at most `_CHUNK` pairs.
    """
    n = len(n_keep)
    width = int(n_keep.max(initial=0))
    r_i, g_i = np.nonzero(keep)
    slot = np.cumsum(keep, axis=1)[r_i, g_i] - 1
    packed = np.zeros((n, width), dtype=np.uint32)
    packed[r_i, slot] = m7[r_i, g_i]
    gs = np.zeros((n, width), dtype=np.int64)
    gs[r_i, slot] = g_i
    si, sj = index_pairs(width)  # a row's slot pairs, in (g, h) order
    n_pairs = max(1, len(si))
    n910 = 0
    hits = [np.zeros(0, np.intp)]  # flat indices into the (n, n_pairs) pair blocks
    block = max(1, _CHUNK // n_pairs)
    for j in range(0, n, block):
        pm = packed[j:j + block]
        cnt = np.bitwise_count(pm[:, si] | pm[:, sj])
        pair = sj < n_keep[j:j + block, None]
        n910 += int(np.count_nonzero(pair & (cnt >= 8) & (cnt <= 9)))
        hits.append(j * n_pairs + np.flatnonzero(pair & (cnt >= lo) & (cnt <= hi)))
    row, p = np.divmod(np.concatenate(hits), n_pairs)
    return n910, row, gs[row, si[p]], gs[row, sj[p]], packed[row, si[p]] | packed[row, sj[p]]


# `resolve_engine` and the `engine` and `tables` arguments of `process_shard`
# remain only for bench/run.py, which passes "auto" and `_NumpyTables(gf)`,
# the one table set of the field that `process_shard` reads anyway.
def resolve_engine(gf: GF, engine: str) -> str:
    if engine not in ("auto", "numpy"):
        raise SearchError(f"unknown engine {engine!r}")
    _require_small_field(gf)
    return "numpy"


# ---------------------------------------------------------------------------
# 8-arc census

# survivors per batch of `process_shard`, six-point frames and direction
# tables per block of `closure_completions`, and candidates per kernel call
# of `_completions`, so that the batches' arrays stay small next to the process
_SURVIVOR_BLOCK = 256
_TABLE_BLOCK = 64
_CANDIDATE_BLOCK = 1 << 12


# `prune8` and `closure_completions` keep their names for bench/run.py,
# whose `--trace 1` wraps them as the prepare and closure stages.
def prune8(survivors: np.ndarray, tab: _NumpyTables) -> Tuple[np.ndarray, ...]:
    """What later stages read of a batch of stream survivors, 8-arcs whose
    focus counts the stream has proved within the bounds; it checks nothing.

    Per survivor (a row of `stream_shard`'s record array): the x and the
    y of its 8 points (0,0), (0,1), (1,0), (1,a), (c,d), (c,e), (f,g),
    (f,h) as two (n, 8) arrays, its focus mask, the stream's word w plus
    the vertical bit q, and the number of directions (slope indices: y/x,
    or q for vertical) that carry one secant, for `closure_survivors`.
    """
    fields = np.asarray(survivors)  # a recarray's field access runs in Python
    a, c, d, e, f, g, h = (fields[name] for name in "acdefgh")
    zero, one = np.zeros_like(a), np.ones_like(a)
    px = np.stack([zero, zero, one, one, c, c, f, f], axis=1)
    py = np.stack([zero, one, zero, a, d, e, g, h], axis=1)
    fmask = fields["w"] | np.uint64(1 << tab.q)
    i, j = index_pairs(8)  # the 28 secants
    dx = px[:, i] ^ px[:, j]
    dy = py[:, i] ^ py[:, j]
    # per-direction secant counts, one bincount over row-offset slopes
    width = tab.q + 1
    slopes = tab.slope[dx, dy] + width * np.arange(len(px))[:, None]
    counts = np.bincount(slopes.ravel(), minlength=len(px) * width)
    single = np.count_nonzero(counts.reshape(-1, width) == 1, axis=1)
    return px, py, fmask, single


# ---------------------------------------------------------------------------
# extension stage

def closure_completions(
    gf: GF, px: np.ndarray, py: np.ndarray, fmask: np.ndarray, k: int, tab: _NumpyTables
) -> Dict[int, List[Tuple[Point, ...]]]:
    """Every hyperfocused k-arc on Z=0 through each 8-arc of a `prune8`
    census, given as its coordinates `px`, `py` and focus masks `fmask`.

    The vertical direction is a focus of every survivor, and the k/2
    secants through a focus of a hyperfocused k-arc match its points in
    pairs.  The 8 points are matched vertically among themselves, so the
    k - 8 added points form (k - 8)/2 vertical pairs, one pair in each of
    some columns the 8-arc leaves free.

    Row D[x, y] of a survivor's direction table is the bitmask of the
    non-vertical directions from (x, y) to its 8 points.  A point is
    admissible iff it has 8 (an arc point, a point of a used column or of
    a secant has fewer) and they leave fewer than k - 1 non-vertical
    focuses.  The part of (0,0), (0,1), (1,0), (1,a), (c,d), (c,e), the
    six-point frame, is built once per (a, c, d, e) in the batch, for at
    most `_TABLE_BLOCK` of them at a time, and blocks of `_TABLE_BLOCK`
    tables of their survivors add the rows of (f,g) and (f,h) in `tab.rays`.
    A survivor with fewer than (k - 8)/2 columns of two admissible points
    has no completion (the column early exit).  The others are the roots:
    the result maps each one's index in the batch to its completions, by
    one generate-and-test pass of `_completions` over all of them.
    """
    n_pairs = (k - 8) // 2
    q, xs, rays = tab.q, tab.xs, tab.rays

    def part(rows, j: int) -> np.ndarray:
        """The directions from point j of each survivor of `rows`."""
        return rays.take(py[rows, j, None] * q + (xs ^ px[rows, j, None]), axis=0)

    key = ((py[:, 3] * q + px[:, 4]) * q + py[:, 4]) * q + py[:, 5]  # a, c, d, e
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    flat = (fmask & np.uint64((1 << q) - 1)).astype(np.uint32)[:, None, None]  # no vertical
    roots, oks = [], []  # the roots' indices in the batch, and their `ok` tables
    for g in range(0, len(first), _TABLE_BLOCK):
        frames = part(first[g:g + _TABLE_BLOCK], 0)
        for j in range(1, 6):
            frames |= part(first[g:g + _TABLE_BLOCK], j)
        rows = np.flatnonzero((group >= g) & (group < g + _TABLE_BLOCK))
        for i in range(0, len(rows), _TABLE_BLOCK):
            blk = rows[i:i + _TABLE_BLOCK]
            table = frames.take(group[blk] - g, axis=0)
            table |= part(blk, 6)
            table |= part(blk, 7)
            ok = np.bitwise_count(table) == 8
            ok &= np.bitwise_count(table | flat[blk]) < k - 1
            n_free = (ok.view(np.uint8).sum(axis=2, dtype=np.uint8) >= 2).sum(axis=1)
            hit = np.flatnonzero(n_free >= n_pairs)
            roots += blk[hit].tolist()
            oks.append(ok[hit])
    if not roots:
        return {}
    leaves = _completions(gf, px[roots], py[roots], np.concatenate(oks), k)
    return dict(sorted(zip(roots, leaves)))


def _completions(
    gf: GF, px: np.ndarray, py: np.ndarray, ok: np.ndarray, k: int
) -> List[List[Tuple[Point, ...]]]:
    """The hyperfocused k-arcs on Z=0 through each 8-arc (px[r], py[r])
    that add a pair of its admissible points ok[r] in each of (k - 8)/2
    columns, by generate and test: every such choice is a row of one
    candidate stack, and one `are_arcs` and one `focus_verdicts` call per
    `_CANDIDATE_BLOCK` rows keep the arcs with exactly k - 1 focuses.
    Each 8-arc's completions, points sorted as `make_arc` sorts them, are
    sorted by `serialize_arc`.  A root of `run_search` (k <= 14, q <= 32)
    has one candidate; at q=32, k=16 one 8-arc can have 4.5 * 10^11.
    """
    q = gf.q
    codes, owner = [], []  # candidates as rows of x * q + y codes, and their 8-arc
    for r, table in enumerate(ok):
        free = np.flatnonzero(np.count_nonzero(table, axis=1) >= 2).tolist()
        points = [x * q + np.flatnonzero(table[x]) for x in free]  # per free column
        cols = [ys[np.column_stack(index_pairs(len(ys)))] for ys in points]  # their (m, 2) pairs
        for pick in itertools.combinations(cols, (k - 8) // 2):
            choice = np.indices([len(pairs) for pairs in pick]).reshape(len(pick), -1)
            added = np.hstack([pairs[c] for pairs, c in zip(pick, choice)])
            codes.append(np.hstack([np.broadcast_to(px[r] * q + py[r], (len(added), 8)), added]))
            owner += [r] * len(added)
    codes = np.sort(np.concatenate(codes), axis=1)
    stack = np.stack([codes // q, codes % q, np.ones_like(codes)], axis=2)
    keep = np.zeros(len(stack), dtype=bool)
    for i in range(0, len(stack), _CANDIDATE_BLOCK):
        blk = stack[i:i + _CANDIDATE_BLOCK]
        arcs = np.flatnonzero(are_arcs(gf, blk))
        verdicts = focus_verdicts(gf, blk[arcs], LINE_AT_INFINITY)
        keep[i + arcs] = [n == k - 1 for _, n in verdicts]
    out: List[List[Tuple[Point, ...]]] = [[] for _ in ok]
    for r, arc in zip(np.array(owner)[keep].tolist(), stack[keep].tolist()):
        out[r].append(tuple(map(tuple, arc)))
    return [sorted(arcs, key=lambda a: serialize_arc(gf, a)) for arcs in out]


# ---------------------------------------------------------------------------
# shard processing

def process_shard(
    gf: GF,
    k: int,
    a: int,
    c: int,
    engine: str = "auto",
    tables: Optional[_NumpyTables] = None,
) -> Tuple[Dict[str, int], List[Tuple[Point, ...]]]:
    """Filter and extend one (a, c) shard; returns counters and raw arcs.

    The stream's survivors with k - 1 focuses pass the census and the
    extension in batches of `_SURVIVOR_BLOCK`; counters are tallied per batch.
    """
    resolve_engine(gf, engine)
    tab = _NumpyTables(gf)
    counters, survivors = stream_shard(gf, a, c, *FOCUS_BOUNDS[k])
    # matching lemma: a focus F of a hyperfocused k-arc K matches K's points in k/2 pairs, s_F
    # in a union S of four vertical pairs of K; S's 8 - 2 s_F others need partners in K \ S, so
    # s_F >= (16 - k)/2 > 0 for k <= 14: S has all k - 1 focuses, k - 2 of them in the word w
    survivors = survivors[np.bitwise_count(survivors.view(np.ndarray)["w"]) == k - 2]
    raw: List[Tuple[Point, ...]] = []
    for i in range(0, len(survivors), _SURVIVOR_BLOCK):
        px, py, fmask, single = prune8(survivors[i:i + _SURVIVOR_BLOCK], tab)
        # tallied apart: k=14 survivors with under two one-secant directions (6-tangent focuses)
        apart = (k == 14) & (single < 2)
        counters["closure_survivors"] += int(np.count_nonzero(apart))
        roots = closure_completions(gf, px, py, fmask, k, tab)
        counters["dfs_roots"] += len(roots)
        for r, arcs in roots.items():
            counters["closure_extended" if apart[r] else "extended"] += len(arcs)
            raw.extend(arcs)
    return counters, raw


# ---------------------------------------------------------------------------
# orchestration

@dataclass
class SearchConfig:
    workers: int = 1
    checkpoint: Optional[str] = None
    output: Optional[str] = None
    max_shards: Optional[int] = None
    progress: bool = False


@dataclass
class SearchReport:
    k: int
    q: int
    modulus: int
    bounds: Tuple[int, int]
    counters: Dict[str, int]
    found: List[Tuple[Point, ...]]
    records: List[dict]
    output: Optional[str]
    cursor: Optional[Tuple[int, int]]
    completed: bool
    experimental: bool
    discrepancy: Optional[str]
    elapsed: float = 0.0


def config_hash(gf: GF, k: int, bounds: Tuple[int, int]) -> str:
    blob = dict(schema=CHECKPOINT_SCHEMA, q=gf.q, modulus=gf.modulus, k=k)
    blob.update(lo=bounds[0], hi=bounds[1])
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


def _atomic_write(path: str, data: str) -> None:
    """Write through a temp file of its own in the target's directory, so
    concurrent writers of one path never share a temp file."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _save_checkpoint(
    path: str,
    digest: str,
    cursor: Tuple[int, int],
    counters: Dict[str, int],
    found: List[Tuple[Point, ...]],
) -> None:
    blob = {
        "config_hash": digest,
        "cursor": list(cursor),
        "counters": counters,
        "found": [[list(p) for p in arc] for arc in found],
    }
    _atomic_write(path, json.dumps(blob, sort_keys=True))


def _load_checkpoint(path: str, digest: str, gf: GF, k: int):
    """A checkpoint's cursor, counters and raw arcs.  CheckpointMismatch
    for another configuration's and for a corrupt one: no JSON object, a
    cursor or counters not integers, or arcs not k field-element triples."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        blob = json.loads(raw)
        if not isinstance(blob, dict):
            raise TypeError("not a JSON object")
        if blob.get("config_hash") != digest:
            raise CheckpointMismatch(f"checkpoint {path} was written by a different configuration")
        cursor = tuple(blob["cursor"])
        if len(cursor) != 2 or any(type(x) is not int for x in cursor):
            raise TypeError(f"cursor {blob['cursor']!r} is not two integers")
        stored = blob["counters"]
        counters = {key: stored[key] for key in COUNTER_KEYS}
        if len(stored) != len(counters) or any(type(v) is not int for v in counters.values()):
            raise TypeError(f"counters {stored!r} are not integers keyed by the counter names")
        found = [tuple(map(tuple, arc)) for arc in blob["found"]]
        for arc in found:
            if len(arc) != k or any(len(p) != 3 for p in arc) or any(
                type(x) is not int or x not in range(gf.q) for p in arc for x in p
            ):
                raise ValueError(f"{arc} is not {k} triples of elements of GF({gf.q})")
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # JSONDecodeError too
        raise CheckpointMismatch(f"corrupt checkpoint {path}: {exc}") from exc
    return cursor, counters, found


def _run_shard(task: Tuple[GF, int, int, int, int]):
    """One shard of `run_search`, in process or in a pool: (gf, k, a-index, a, c)."""
    gf, k, a_idx, a, c = task
    t_shard = time.monotonic()
    counters, raw = process_shard(gf, k, a, c)
    return a_idx, c, counters, raw, time.monotonic() - t_shard


def record_claims(gf: GF, arcs: Sequence[Arc], lines: Sequence[Line]) -> List[dict]:
    """The CLAIMS of each arc, one already proven an arc, on its focus line.

    `focus_count` and `digest` are None when the line meets the arc, and
    `digest` is also None below 3 points (no triple to normalize);
    `hyperconic`, `conic` and `nucleus` are None below 6 points.
    Each size group is one stack, built once (an (n, k, 3) array is its
    own); exteriority is one array test on it, the focus counts and digests
    on a line take the rows exterior to it, and the witnesses all of it.
    """
    claims = [dict.fromkeys(CLAIMS) | {"k": len(arc)} for arc in arcs]
    for idx, stack in stacks_by_size(arcs):
        on_line = dots(gf, stack, np.array([lines[i] for i in idx])[:, None]) == 0
        by_line: Dict[Line, List[int]] = {}
        for r in np.flatnonzero(~on_line.any(1)).tolist():
            by_line.setdefault(lines[idx[r]], []).append(r)
        for line, rows in by_line.items():
            for r, (_, size) in zip(rows, focus_verdicts(gf, stack[rows], line)):
                claims[idx[r]]["focus_count"] = size
            if stack.shape[1] >= 3:
                for r, form in zip(rows, canonical_forms(gf, stack[rows], line)):
                    claims[idx[r]]["digest"] = form_digest(form)
        if stack.shape[1] >= 6:
            for i, wit in zip(idx, hyperconic_witnesses(gf, stack)):
                conic, nucleus = (list(wit.conic), list(wit.nucleus)) if wit.found else (None, None)
                claims[i].update(hyperconic=wit.found, conic=conic, nucleus=nucleus)
    return claims


def _postprocess(
    gf: GF, k: int, found_raw: List[Tuple[Point, ...]], counters: Dict[str, int]
) -> Tuple[List[Tuple[Point, ...]], List[dict]]:
    reps_found = dict.fromkeys(found_raw)
    counters["orbit_reps"] = len(reps_found)
    # the stream fixes the fourth frame ordinate to a Frobenius orbit
    # representative; the full family of frame-normalized arcs is the
    # orbit closure (Frobenius fixes the frame and the focus line)
    reps = np.array(list(reps_found), dtype=np.int64).reshape(-1, k, 3)
    images = tables(gf).frob.take(reps, axis=1).swapaxes(0, 1).reshape(-1, k, 3)
    try:
        unique = list(dict.fromkeys(make_arcs(gf, images)))
    except ArcError as exc:
        # gf.s images per representative, in order
        arc = list(reps_found)[exc.index // gf.s]
        msg = f"emitted arc fails verification: {exc} in {arc}"
        raise VerificationError(msg) from exc
    entries = []
    for arc, claims in zip(unique, record_claims(gf, unique, [LINE_AT_INFINITY] * len(unique))):
        if claims["k"] != k or claims["focus_count"] != k - 1:
            raise VerificationError(f"emitted arc fails verification: {arc}")
        counters["verified"] += 1
        record = {"q": gf.q, "modulus": hex(gf.modulus), "points": [list(p) for p in arc], **claims}
        entries.append((record["digest"], serialize_arc(gf, arc), arc, record))
    entries.sort(key=lambda t: (t[0], t[1]))
    for i, (_, _, _, record) in enumerate(entries):
        record["arc_id"] = i
    counters["found"] = len(entries)
    return [e[2] for e in entries], [e[3] for e in entries]


def run_search(gf: GF, k: int, config: SearchConfig) -> SearchReport:
    """Stream, prune, extend, verify, dedupe, canonicalize, write JSONL."""
    t0 = time.monotonic()
    if k % 2 or not 10 <= k <= 14:
        raise SearchError(f"k={k} is not supported (even k in 10..14)")
    if config.max_shards is not None and config.max_shards < 0:
        raise SearchError(f"max_shards={config.max_shards} must be >= 0")
    _require_small_field(gf)  # before any work
    bounds = FOCUS_BOUNDS[k]
    digest = config_hash(gf, k, bounds)
    shards = shard_list(gf)
    counters = new_counters()
    found_raw: List[Tuple[Point, ...]] = []
    done = 0
    if config.checkpoint and os.path.exists(config.checkpoint):
        cursor, counters, found_raw = _load_checkpoint(config.checkpoint, digest, gf, k)
        try:
            done = shards.index(cursor) + 1
        except ValueError as exc:
            raise CheckpointMismatch(f"checkpoint cursor {cursor} unknown") from exc
    todo = shards[done:]
    if config.max_shards is not None:
        todo = todo[: config.max_shards]

    reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
    workers = max(1, int(config.workers))

    t_start = time.monotonic()
    done_before = done

    def handle(a_idx: int, c: int, delta: Dict[str, int], raw, shard_s: float) -> None:
        nonlocal done
        merge_counters(counters, delta)
        found_raw.extend(raw)
        done += 1
        if config.checkpoint:
            _save_checkpoint(config.checkpoint, digest, (a_idx, c), counters, found_raw)
        if config.progress:
            # rate and ETA cover the shards of this invocation
            ran = done - done_before
            rate = ran / max(time.monotonic() - t_start, 1e-9)
            print(
                f"shard a_idx={a_idx} c={c} prepared={counters['prepared']} "
                f"raw={len(found_raw)} shard_s={shard_s:.3f} "
                f"done={done}/{len(shards)} rate={rate:.3f}/s "
                f"eta_s={(len(todo) - ran) / rate:.1f}",
                file=sys.stderr,
                flush=True,
            )

    tasks = [(gf, k, a_idx, reps[a_idx], c) for a_idx, c in todo]
    pool = Pool(min(workers, len(todo))) if workers > 1 and len(todo) > 1 else None
    with pool or contextlib.nullcontext():
        for result in (pool.imap if pool else map)(_run_shard, tasks):
            handle(*result)

    completed = done == len(shards)
    cursor = shards[done - 1] if done else None
    arcs: List[Tuple[Point, ...]] = []
    records: List[dict] = []
    discrepancy = None
    if completed:
        arcs, records = _postprocess(gf, k, found_raw, counters)
        expected = EXPECTED_FOUND.get((gf.q, gf.modulus, k))
        if expected is not None and len(arcs) != expected:
            discrepancy = (
                f"expected {expected} hyperfocused {k}-arcs for q={gf.q}, "
                f"found {len(arcs)}; counters: "
                + " ".join(f"{key}={counters[key]}" for key in COUNTER_KEYS)
            )
        if config.output:
            lines = (json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
            _atomic_write(config.output, "".join(lines))
    return SearchReport(
        k=k,
        q=gf.q,
        modulus=gf.modulus,
        bounds=bounds,
        counters=counters,
        found=arcs if completed else list(found_raw),
        records=records,
        output=config.output if completed else None,
        cursor=cursor,
        completed=completed,
        experimental=k not in (12, 14),
        discrepancy=discrepancy,
        elapsed=time.monotonic() - t0,
    )
