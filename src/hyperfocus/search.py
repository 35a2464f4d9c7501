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
focus sets, all k - 1 by the matching lemma (`FOCUS_BOUNDS`).  They
reach a census of their points and the extension, 256 at a time.  It
adds (k - 8)/2 vertical pairs in free columns: a point is fixed by its
slopes to (0,0) and (0,1), so the admissible points are pairs of their
tangent directions in w, a column early exit drops survivors with too
few free columns, and arc and focus kernels decide the rest, so each
completion is a hyperfocused arc.  Every emitted arc is re-verified
once, after the orbit closure, by `record_claims`, the one derivation
of a record's claims.

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

Within a shard the four frame maps (x, y) -> (x, y + λx + t), (λ, t) =
(0, 0), (a, 0), (1, 1), (a + 1, 1), fix the frame as a set, each column
and Z=0, so they carry 8-arcs, survivors and completions onto each other
and a focus word's bit m to m + λ.  The stream runs one (d, e) pair and
the extension one survivor per orbit, counted once per member.
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
from hyperfocus.plane import LINE_AT_INFINITY, Line, Point, dots, index_pairs, indexed_points

# supported k -> (min, max) focus count of the 8-point stage, by the matching lemma: a focus F
# of a hyperfocused k-arc K matches K's points in k/2 pairs, s_F in a union S of four vertical
# pairs of K; S's 8 - 2 s_F others need partners in K \ S, so s_F >= (16 - k)/2 > 0 for k <= 14:
# S has all k - 1 focuses, k - 2 of them in the word w
FOCUS_BOUNDS = {k: (k - 1, k - 1) for k in (10, 12, 14)}

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
            slope = np.vstack([np.full((1, q), q), tables(gf).div(xs, xs[1:, None])])
            # rays[y0 * q + dx, y]: the direction from any (x0, y0) to (x0 ^ dx,
            # y), but no bit for vertical, so that q slopes fit 32 bits
            flat = np.where(slope < q, 1 << slope, 0).astype(np.uint32)
            tab.rays = flat[xs[:, None], xs[:, None, None] ^ xs].reshape(q * q, q)
            # the point off column 0 with slopes m0 to (0,0) and m1 to (0,1), x = 1/(m0 + m1) and
            # y = m0 x: cells[m0 * q + m1] is its cell x * q + y, anchors[a, m0 * q + m1] its
            # directions to (0,0), (0,1), (1,0), (1,a), all bits if two coincide or one is vertical
            x, y = np.divmod(np.arange(q, q * q), q)
            bits = tab.rays[x, y] | tab.rays[q + x, y] | tab.rays[x ^ 1, y]
            bits = bits | tab.rays[xs[:, None] * q + (x ^ 1), y]  # per a
            bits[np.bitwise_count(bits) < 4] = np.uint32(0xFFFFFFFF)
            m = slope[x, y] * q + slope[x, y ^ 1]
            tab.cells = np.zeros(q * q, dtype=np.int32)
            tab.cells[m] = x * q + y
            tab.anchors = np.full((q, q * q), 0xFFFFFFFF, dtype=np.uint32)
            tab.anchors[:, m] = bits
            # frame[a, k, x]: map k of a's frame, (x, y) -> (x, y ^ frame[a, k, x]), adds λx + t
            # for (λ, t) = (0, 0), (a, 0), (1, 1), (a + 1, 1); maps k and k' compose to k ^ k'
            k = np.arange(4)
            lam = xs[:, None] * (k & 1) ^ k >> 1
            tab.frame = (tables(gf).mul(lam[..., None], xs) ^ (k >> 1)[:, None]).astype(np.int64)
            # flip[l, b]: the byte b with each bit m moved to m ^ l
            e8 = np.arange(8)
            bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
            tab.flip = np.packbits(bits[:, e8[:, None] ^ e8], axis=2, bitorder="little")[..., 0].T
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
    """Shard filter: the counters and survivors, 8-arcs with lo..hi
    focuses, of the (d, e) pairs `de_pairs` (all d < e by default), in
    pairs, then (f, g, h) order: one record array of int64 fields a ... h
    and the uint32 focus word w.  Each pair takes the survivors of its
    orbit's least pair (`_stream_orbits`) moved by its map, which moves
    bit m of w to m ^ λ, and keeps its own (d, e), reversed or repeated.
    """
    tab = _NumpyTables(gf)
    q, shift = tab.q, tab.frame[a]
    counters, least, p, (de, src, move, weight) = _stream_orbits(gf, a, c, lo, hi, de_pairs)
    fields = np.asarray(least)
    n = np.bincount(p, minlength=len(weight))[src]  # survivors per pair of de
    at = np.repeat(np.searchsorted(p, src) - np.cumsum(n) + n, n) + np.arange(n.sum())
    pair = np.repeat(np.arange(len(de)), n)
    k, f = move[pair], fields["f"][at]
    gh = np.stack((fields["g"][at], fields["h"][at])) ^ shift[k, f]
    gh.sort(axis=0)
    order = np.argsort(((pair * q + f) * q + gh[0]) * q + gh[1])
    pair, k = pair[order], k[order]
    survivors = least[at[order]]  # a, c and f as they are
    survivors["d"], survivors["e"] = de[pair].T
    survivors["g"], survivors["h"] = gh[:, order]
    survivors["w"] = _moved_words(tab, survivors["w"], shift[k, 1] ^ shift[k, 0])
    return counters, survivors


def _moved_words(tab: _NumpyTables, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Focus words w with each bit m moved to m ^ lam, as a frame map moves
    slopes: byte j takes byte j ^ (lam >> 3), its bits flipped by lam & 7."""
    b = w.astype("<u4").view(np.uint8).reshape(-1, 4)
    b = np.take_along_axis(b, np.arange(4) ^ lam[:, None] >> 3, axis=1)
    return tab.flip[lam[:, None] & 7, b].view("<u4").ravel()


def _stream_orbits(gf: GF, a: int, c: int, lo: int, hi: int, de_pairs) -> tuple:
    """The stream, bound-first and batched over chunks of (d, e) pairs, of
    the least pair (m, m ^ d ^ e) of each orbit of the frame maps met by
    the pairs, m the least d ^ u or e ^ u, u a map's shift on column c.
    Its counts weigh once per pair of its orbit.

    For fixed (a, c, d, e) the six fixed points are the anchors and
    (c, d), (c, e).  A cell (f, g), f > c, is admissible, on no line
    through two of the six points, iff its six directions to them are
    distinct; (f, g) and (f, h) then make an 8-arc with any other
    admissible cell of the row (d, e, f).  Since f != c, the cell never
    lies on the line of (c, d) and (c, e), so it is admissible iff its
    directions to the anchors and (c, y) are five for y = d and y = e.
    Those bits, over g, are one q-bit word W[y, f] per (y, f), so the row
    of (d, e, f) holds the n_ok = popcount(W[d, f] & W[e, f]) admissible
    cells that the bits of W[d, f] & W[e, f] name: `arcs8` is the sum of
    C(n_ok, 2) over the shard, from words alone, and `focus_rejected =
    arcs8 - prepared`.  A pair (d, e) is skipped when d or e lies on a
    line through two anchors (the anchors' directions from (c, y) repeat).

    The five-point word X[y, f, g] is the focus set of the anchors, (c, y)
    and (f, g), so a cell's 7-point focus set is X[d, f, g] | X[e, f, g].
    The focus count of a subset is a lower bound for the whole set, so a
    cell whose 7-point count exceeds max(hi, 10) is in no survivor and no
    count of 9 or 10.  Every cell's 7-point set holds the six points' set
    base6, so a pair whose base6 is already over that cap is dropped
    before any of its cells is built.  The cells of the other pairs are
    built in chunks of at most `_CHUNK` words; each chunk keeps only its
    admissible cells under the cap, as flat cell indices and 7-point
    words, and `_cell_pairs` pairs the kept cells of each row, in blocks.
    No direction the stream computes is vertical (f, c > 1), and the
    vertical is a focus through (0,0)(0,1), so the words are 32-bit
    `tab.rays` bits without it and every focus test counts it as one.

    Returns the counters; the least pairs' survivors in (pair, f, g, h)
    order and each one's least pair index p; and the pairs kept, with
    each one's least pair index and map, and each least pair's weight.
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
    # r4[f] from the anchors to (f, *), anc from them to (c, *), and x[y, f]
    # from the anchors and (c, y) to (f, *)
    r4 = np.zeros((nf, q), dtype=np.uint32)
    anc = np.zeros(q, dtype=np.uint32)
    for ax, ay in anchors:
        r4 |= rays.take(ay * q + (fs ^ ax), axis=0)
        anc |= rays[ay * q + (c ^ ax)]
    x = rays.take(xs[:, None] * q + (fs ^ c), axis=0)
    x |= r4
    good = np.bitwise_count(anc) == 4
    d, e = de[:, 0], de[:, 1]
    # d == e puts one point twice: no 8-arc, and no split of the cell test
    de = de[good[d] & good[e] & (d != e)]
    # each pair's orbit is named by its least pair; `move` is a map between the two
    low = np.minimum(de[:, 0] ^ tab.frame[a, :, c, None], de[:, 1] ^ tab.frame[a, :, c, None])
    move = low.argmin(0)
    m = low.min(0)
    orbit = m * q + (m ^ de[:, 0] ^ de[:, 1])
    weight = np.bincount(orbit, minlength=q * q)
    least = np.flatnonzero(weight)
    weight = weight[least]
    src = np.searchsorted(least, orbit)
    d, e = np.divmod(least, q)
    # words[y, f]: bit g set iff (f, g) is off every line through two of
    # the anchors and (c, y); one little-endian word of q bits
    words = np.packbits(np.bitwise_count(x) == 5, axis=2, bitorder="little")
    words = words.view(f"<u{words.shape[2]}")[..., 0]
    n_ok = np.bitwise_count(words[d] & words[e]).astype(np.intp)
    counters["arcs8"] = int((n_ok * (n_ok - 1)).sum(1) @ weight) // 2
    x |= (base4 | anc)[:, None, None]  # now the five-point focus words
    cap = max(hi, 10) - 1  # non-vertical focuses
    pairs = np.flatnonzero(np.bitwise_count(base4 | anc[d] | anc[e]) <= cap)
    # the kept cells, pair * nf * q + (f - c - 1) * q + g, and their 7-point words
    cells, m7s = [np.zeros(0, np.int64)], [np.zeros(0, np.uint32)]
    step = max(1, _CHUNK // max(1, nf * q))
    for i in range(0, len(pairs), step):
        p = pairs[i:i + step]
        m7 = x.take(d[p], axis=0).reshape(len(p), -1)
        m7 |= x.take(e[p], axis=0).reshape(len(p), -1)
        # the admissible cells' bits, per chunk: a shard-long copy living
        # across the chunks' temporaries raised the process's peak RSS
        ok = words[d[p]] & words[e[p]]
        keep = np.unpackbits(ok.view(np.uint8), axis=1, bitorder="little").view(bool)
        keep &= np.bitwise_count(m7) <= cap
        flat = np.flatnonzero(keep)
        pi, cell = np.divmod(flat, nf * q)
        cells.append(p[pi] * (nf * q) + cell)
        m7s.append(m7.ravel()[flat])
    row, g = np.divmod(np.concatenate(cells), q)
    n910, i, j, w = _cell_pairs(lo - 1, hi - 1, row, np.concatenate(m7s), weight[row // nf])
    counters["focus_9_10"] = n910
    p, f = np.divmod(row[i], nf)
    survivors = np.empty(len(i), [(name, np.int64) for name in "acdefgh"] + [("w", w.dtype)])
    for name, col in zip("acdefghw", (a, c, d[p], e[p], fs[f], g[i], g[j], w)):
        survivors[name] = col
    counters["prepared"] = int(weight[p].sum())
    counters["focus_rejected"] = counters["arcs8"] - counters["prepared"]
    return counters, survivors.view(np.recarray), p, (de, src, move, weight)


def _cell_pairs(lo: int, hi: int, row, m7, weight) -> tuple:
    """The (g, h) stage over kept cells in (row, g) order, given by their
    row and `m7`: any two cells of a row make a pair.

    `m7` holds 32-bit focus words without the vertical, so `lo`..`hi`
    and the 8..9 of `focus_9_10` count non-vertical focuses.  Returns the
    number of pairs with 9 or 10 focuses, each counted `weight` times of
    its first cell (the rows a row stands for) and, as arrays in (row, g, h)
    order, the cell indices i < j and the word m7[i] | m7[j] (the 8-arc's
    focus set but the vertical of (f, g)(f, h)) of the pairs with lo..hi
    bits.  Each cell lists its partners to its right in its row; blocks
    of whole rows hold at most `_CHUNK` pairs, or one row.
    """
    n = len(row)
    start = np.append(np.flatnonzero(np.diff(row, prepend=-1)), n)  # each row's first cell
    size = np.diff(start)
    later = np.repeat(start[1:], size) - np.arange(n) - 1  # partners right of each cell
    before = np.concatenate(([0], np.cumsum(size * (size - 1) // 2)))  # pairs before each row
    n910 = 0
    hits = [(np.zeros(0, np.int32), np.zeros(0, np.int32), m7[:0])]
    r = 0
    while r < len(size):
        s = max(r + 1, int(np.searchsorted(before, before[r] + _CHUNK, "right")) - 1)
        cell = np.arange(start[r], start[s], dtype=np.int32)  # int32 halves the block
        n_later = later[start[r]:start[s]]
        i = np.repeat(cell, n_later)
        j = np.repeat((cell + 1 - np.cumsum(n_later) + n_later).astype(np.int32), n_later)
        j += np.arange(len(j), dtype=np.int32)
        w = m7[i] | m7[j]
        bits = np.bitwise_count(w)
        n910 += int(weight.take(i[(bits >= 8) & (bits <= 9)]).sum())
        hit = np.flatnonzero((bits >= lo) & (bits <= hi))
        hits.append((i[hit], j[hit], w[hit]))
        r = s
    i, j, w = map(np.concatenate, zip(*hits))
    return n910, i, j, w


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

# survivors per batch of `process_shard`, and candidates per kernel call of
# `_completions`, so that the batches' arrays stay small next to the process
_SURVIVOR_BLOCK = 256
_CANDIDATE_BLOCK = 1 << 12


# `prune8` and `closure_completions` keep their names for bench/run.py,
# whose `--trace 1` wraps them as the prepare and closure stages; its
# stream span, `stream_shard`, no longer runs inside `process_shard`.
def prune8(survivors: np.ndarray, tab: _NumpyTables) -> Tuple[np.ndarray, ...]:
    """What later stages read of a batch of stream survivors, 8-arcs whose
    focus counts the stream has proved within the bounds; it checks nothing.

    Per survivor (a row of `stream_shard`'s record array): the x and the
    y of its 8 points (0,0), (0,1), (1,0), (1,a), (c,d), (c,e), (f,g),
    (f,h) as two (n, 8) arrays, and its focus mask, the stream's word w
    plus the vertical bit q.
    """
    fields = np.asarray(survivors)  # a recarray's field access runs in Python
    a, c, d, e, f, g, h = (fields[name] for name in "acdefgh")
    zero, one = np.zeros_like(a), np.ones_like(a)
    px = np.stack([zero, zero, one, one, c, c, f, f], axis=1)
    py = np.stack([zero, one, zero, a, d, e, g, h], axis=1)
    fmask = fields["w"] | np.uint64(1 << tab.q)
    return px, py, fmask


def _single_secants(px: np.ndarray, py: np.ndarray, tab: _NumpyTables) -> np.ndarray:
    """Per 8-arc of a `prune8` census, how many directions carry exactly one
    of its 28 secants: bits of the secants' `tab.rays` words that no secant
    shares with those before it (the vertical, with 4 secants, has no bit)."""
    i, j = index_pairs(8)  # the 28 secants
    q = tab.q
    # the flat `tab.rays` index from (x0, y0) to (x, y) is (y0 * q + x0) * q ^ (x * q + y)
    bits = tab.rays.ravel().take(((py * q + px) * q).T[i] ^ (px * q + py).T[j])
    seen = np.bitwise_or.accumulate(bits, axis=0)
    twice = np.bitwise_or.reduce(bits[1:] & seen[:-1], axis=0)
    return np.bitwise_count(seen[-1] & ~twice)


# ---------------------------------------------------------------------------
# extension stage

def closure_completions(
    gf: GF, px: np.ndarray, py: np.ndarray, fmask: np.ndarray, k: int, tab: _NumpyTables
) -> Dict[int, List[Tuple[Point, ...]]]:
    """Every hyperfocused k-arc on Z=0 through each 8-arc of a `prune8`
    census, given as its coordinates `px`, `py` and focus masks `fmask`,
    for a k of `FOCUS_BOUNDS` (the matching lemma needs k <= 14).

    The vertical direction is a focus of every survivor, and the k/2
    secants through a focus of a hyperfocused k-arc match its points in
    pairs.  The 8 points are matched vertically among themselves, so the
    k - 8 added points form (k - 8)/2 vertical pairs, one pair in each of
    some columns the 8-arc leaves free, of `_admissible` points.

    A survivor with fewer than (k - 8)/2 columns of two admissible points
    has no completion (the column early exit, one bincount over row * q +
    x).  The others are the roots: the result maps each one's index in
    the batch to its completions, by one generate-and-test pass of
    `_completions` over all of them.
    """
    if k not in FOCUS_BOUNDS:  # the matching lemma holds for k <= 14 only
        raise ValueError(f"k={k} is not supported (even k in 10..14)")
    n, q = len(px), tab.q
    rows, cell = _admissible(px, py, fmask, k, tab)
    per_column = np.bincount(rows * q + cell // q, minlength=n * q).reshape(n, q)
    roots = np.flatnonzero(np.count_nonzero(per_column >= 2, axis=1) >= (k - 8) // 2)
    if not len(roots):
        return {}
    ok = np.zeros((n, q * q), dtype=bool)
    ok[rows, cell] = True
    leaves = _completions(gf, px[roots], py[roots], ok[roots].reshape(-1, q, q), k)
    return dict(zip(roots.tolist(), leaves))


def _admissible(
    px: np.ndarray, py: np.ndarray, fmask: np.ndarray, k: int, tab: _NumpyTables
) -> Tuple[np.ndarray, ...]:
    """The (row, cell x * q + y) arrays of the points admissible for a
    hyperfocused k-arc on Z=0 through each 8-arc of a `prune8` census:
    its 8 non-vertical directions to them are distinct and in the focus
    word w, which needs k - 2 bits (the matching lemma).  So a point sees
    each P of the 8-arc in P's tangent word, the k - 8 bits of w that no
    secant through P takes, and is fixed by its slopes to (0,0) and (0,1):
    the candidates are the (k - 8)^2 pairs of their tangent directions
    whose `tab.anchors` directions lie in w.  The rows of (c,d), (c,e),
    (f,g), (f,h) in `tab.rays` complete the directions.
    """
    q = tab.q
    w = (fmask & np.uint64((1 << q) - 1)).astype(np.uint32)  # no vertical
    rows = np.flatnonzero(np.bitwise_count(w) == k - 2)
    # m[i, 0, r], m[i, 1, r]: the i-th slopes of the tangent words of (0,0) and (0,1), w but
    # the `tab.rays` bits to the 8 points; key[i, j, r] is m[i, 0, r], m[j, 1, r] in a's anchors
    tangents = tab.rays.ravel().take(px[rows] * q + py[rows] + tab.xs[:2, None, None] * q * q)
    m = _peel(~np.bitwise_or.reduce(tangents, axis=2) & w[rows], k - 8)
    ray_row = (py[:, 4:] * q * q + px[:, 4:] * q).T  # in the flat `tab.rays`
    key = (m[:, 0] * q + py[rows, 3] * q * q)[:, None] + m[:, 1]
    fit = tab.anchors.take(key)
    fit |= w[rows]
    hit = np.flatnonzero(np.bitwise_count(fit, out=fit) < k - 1)
    key, rows = key.take(hit), rows.take(hit % len(rows))
    dirs, cell = tab.anchors.take(key), tab.cells.take(key % (q * q))
    dirs |= np.bitwise_or.reduce(tab.rays.ravel().take(ray_row.take(rows, axis=1) ^ cell))
    ok = (np.bitwise_count(dirs) == 8) & (np.bitwise_count(dirs | w[rows]) < k - 1)
    return rows[ok], cell[ok]


def _peel(t: np.ndarray, n: int) -> np.ndarray:
    """The indices of the n lowest set bits of each uint32 word of `t`, lowest first, on axis 0."""
    out = np.empty((n,) + t.shape, dtype=np.int64)
    for i in range(n):
        low = t & -t  # the lowest bit, of index popcount(low - 1)
        out[i] = np.bitwise_count(low - 1)
        t = t ^ low
    return out


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
    has one candidate.
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
    stack = indexed_points(gf, codes)
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

    One survivor per orbit of the frame maps (`_frame_orbits`), all with
    k - 1 focuses, passes the census and the extension in batches of
    `_SURVIVOR_BLOCK`; its tallies count once per member, and each member
    of a root's orbit takes its completions moved by the map, in stream order.
    """
    resolve_engine(gf, engine)
    tab = _NumpyTables(gf)
    counters, survivors, p, (*_, weight) = _stream_orbits(gf, a, c, *FOCUS_BOUNDS[k], None)
    orbit = _frame_orbits(tab, a, c, survivors, p)
    size = np.bincount(orbit, minlength=len(orbit)) * weight[p]
    reps = np.flatnonzero(size)
    roots: Dict[int, List[Tuple[Point, ...]]] = {}
    for i in range(0, len(reps), _SURVIVOR_BLOCK):
        rows = reps[i:i + _SURVIVOR_BLOCK]
        n = size[rows]
        px, py, fmask = prune8(survivors[rows], tab)
        # tallied apart: k=14 survivors with under two one-secant directions (6-tangent focuses)
        apart = _single_secants(px, py, tab) < 2 if k == 14 else np.zeros(len(px), dtype=bool)
        counters["closure_survivors"] += int(n[apart].sum())
        for r, arcs in closure_completions(gf, px, py, fmask, k, tab).items():
            counters["dfs_roots"] += int(n[r])
            counters["closure_extended" if apart[r] else "extended"] += int(n[r]) * len(arcs)
            roots[int(rows[r])] = arcs
    # a root's orbit, member by member, keyed by (d, e, f, g, h): the stream's order
    members, maps = {}, tab.frame[a].tolist()
    for r, arcs in roots.items():
        _, _, d, e, f, g, h, _ = survivors[r].tolist()
        for s in maps:
            key = (*sorted((d ^ s[c], e ^ s[c])), f, *sorted((g ^ s[f], h ^ s[f])))
            members[key] = [tuple(sorted((x, y ^ s[x], z) for x, y, z in arc)) for arc in arcs]
    raw: List[Tuple[Point, ...]] = []
    for key in sorted(members):
        raw += sorted(members[key], key=lambda arc: serialize_arc(gf, arc))
    return counters, raw


def _frame_orbits(tab: _NumpyTables, a: int, c: int, survivors, p: np.ndarray) -> np.ndarray:
    """Per survivor of `_stream_orbits` over a whole (a, c) shard, in
    (p, f, g, h) order, the index of the first of its orbit under the maps
    that keep its pair (shift column c by 0 or d ^ e): the image with the
    least (p, f, g ^ u, h ^ u) key, u a map's shift on column f.
    """
    fields = np.asarray(survivors)
    q, shift = tab.q, tab.frame[a]
    f = fields["f"]
    gh = np.stack((fields["g"], fields["h"]))[:, None] ^ shift[:, f]
    gh.sort(axis=0)
    key = ((p * q + f) * q + gh[0]) * q + gh[1]  # per map and survivor
    keeps = (shift[:, c, None] == 0) | (shift[:, c, None] == fields["d"] ^ fields["e"])
    return np.searchsorted(key[0], np.where(keeps, key, key[0]).min(0))


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
    if k not in FOCUS_BOUNDS:
        raise SearchError(f"k={k} is not supported (even k in 10..14)")
    if config.max_shards is not None and config.max_shards < 0:
        raise SearchError(f"max_shards={config.max_shards} must be >= 0")
    if config.workers < 1:
        raise SearchError(f"workers={config.workers} must be >= 1")
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
    t_start = time.monotonic()
    done_before = done
    tasks = [(gf, k, a_idx, reps[a_idx], c) for a_idx, c in todo]
    pool = Pool(min(config.workers, len(todo))) if config.workers > 1 and len(todo) > 1 else None
    with pool or contextlib.nullcontext():
        for a_idx, c, delta, raw, shard_s in (pool.imap if pool else map)(_run_shard, tasks):
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
