"""Independent checks of the outputs the benchmark's workloads produce.

Nothing here imports hyperfocus.  Field arithmetic is a carry-less
multiply reduced by the record's own modulus, and every property is
re-derived from its definition: an arc has no three collinear points, its
focus set is where its secants meet Z=0, a hyperconic record's points lie
on the stored conic except the stored nucleus, and that nucleus is the
conic's.  Each check raises CheckFailed naming the first claim that fails.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

Point = Tuple[int, int, int]

# (min, max) focus count the method demands of a candidate 8-arc, by k
FOCUS_BOUNDS = {12: (11, 11), 14: (9, 13)}


class CheckFailed(Exception):
    pass


def _clmul_mod(a: int, b: int, s: int, modulus: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> s:
            a ^= modulus
    return acc


@functools.lru_cache(maxsize=None)
def field(q: int, modulus: int) -> "Field":
    return Field(q, modulus)


class Field:
    """GF(2^s) by carry-less multiplication modulo the given polynomial."""

    def __init__(self, q: int, modulus: int):
        self.q = q
        self.s = q.bit_length() - 1
        self.modulus = modulus
        if 1 << self.s != q or modulus.bit_length() - 1 != self.s:
            raise CheckFailed(f"q={q} with modulus {modulus:#x} is not a field spec")
        self._table = [_clmul_mod(a, b, self.s, modulus) for a in range(q) for b in range(q)]

    def mul(self, a: int, b: int) -> int:
        return self._table[a * self.q + b]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("0 has no inverse")
        # a^(q-2) by square and multiply
        r, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def det3(self, a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
        m = self.mul
        return (
            m(a[0], m(b[1], c[2]) ^ m(b[2], c[1]))
            ^ m(a[1], m(b[0], c[2]) ^ m(b[2], c[0]))
            ^ m(a[2], m(b[0], c[1]) ^ m(b[1], c[0]))
        )

    def normalize(self, p: Sequence[int]) -> Point:
        """Divide by the last nonzero coordinate."""
        for i in (2, 1, 0):
            if p[i]:
                inv = self.inv(p[i])
                return tuple(self.mul(v, inv) for v in p)  # type: ignore[return-value]
        raise CheckFailed("zero triple is not a point")


def secant_traces(gf: Field, pts: Sequence[Point]) -> Dict[Point, int]:
    """Secants through each point of Z=0, for points off Z=0."""
    out: Dict[Point, int] = {}
    for p, r in itertools.combinations(pts, 2):
        m = gf.mul
        line = (
            m(p[1], r[2]) ^ m(p[2], r[1]),
            m(p[2], r[0]) ^ m(p[0], r[2]),
            m(p[0], r[1]) ^ m(p[1], r[0]),
        )
        # the line (l0, l1, l2) meets Z=0 in (l1, l0, 0) in characteristic 2
        trace = gf.normalize((line[1], line[0], 0))
        out[trace] = out.get(trace, 0) + 1
    return out


def focus_set(gf: Field, pts: Sequence[Point]) -> set:
    """Points of Z=0 on a secant, for points off Z=0."""
    return set(secant_traces(gf, pts))


def _on_conic(gf: Field, conic: Sequence[int], p: Sequence[int]) -> bool:
    a, b, c, d, e, f = conic
    x, y, z = p
    m = gf.mul
    return not (
        m(a, m(x, x)) ^ m(b, m(y, y)) ^ m(c, m(z, z))
        ^ m(d, m(x, y)) ^ m(e, m(x, z)) ^ m(f, m(y, z))
    )


def check_record(rec: dict, k: int, i: int = 0) -> Tuple[Point, ...]:
    """Re-derive one hyperfocused k-arc record from its points.

    Returns the arc as a sorted tuple of points.
    """
    where = f"record {i}"
    try:
        gf = field(int(rec["q"]), int(rec["modulus"], 16))
        pts = [tuple(int(v) for v in p) for p in rec["points"]]
        conic = [int(v) for v in rec["conic"]]
        nuc = tuple(int(v) for v in rec["nucleus"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"{where}: malformed: {exc!r}") from None
    if rec.get("k") != k or len(pts) != k:
        raise CheckFailed(f"{where}: k={rec.get('k')} with {len(pts)} points, want {k}")
    if any(len(p) != 3 or not all(0 <= v < gf.q for v in p) for p in pts):
        raise CheckFailed(f"{where}: coordinates outside GF({gf.q})")
    if any(gf.normalize(p) != p for p in pts) or len(set(pts)) != k:
        raise CheckFailed(f"{where}: points not normalized or repeated")
    if any(p[2] == 0 for p in pts):
        raise CheckFailed(f"{where}: a point lies on the focus line Z=0")
    for a, b, c in itertools.combinations(pts, 3):
        if gf.det3(a, b, c) == 0:
            raise CheckFailed(f"{where}: collinear triple {a} {b} {c}")
    focus = focus_set(gf, pts)
    if len(focus) != k - 1 or rec.get("focus_count") != k - 1:
        raise CheckFailed(
            f"{where}: {len(focus)} focuses, stored focus_count="
            f"{rec.get('focus_count')}, want {k - 1}"
        )
    if rec.get("hyperconic") is not True or len(conic) != 6 or len(nuc) != 3:
        raise CheckFailed(f"{where}: no hyperconic witness stored")
    d, e, f = conic[3:]
    if (d, e, f) == (0, 0, 0) or gf.normalize((f, e, d)) != nuc:
        raise CheckFailed(f"{where}: stored nucleus {nuc} is not the conic's")
    for p in pts:
        if _on_conic(gf, conic, p) == (p == nuc):
            raise CheckFailed(f"{where}: {p} is neither on the conic nor its nucleus")
    return tuple(sorted(pts))


def check_records(records: Sequence[dict], k: int, count: int) -> List[Tuple[Point, ...]]:
    """All records valid, `count` distinct arcs, one digest, ids 0..count-1."""
    if len(records) != count:
        raise CheckFailed(f"{len(records)} records, want {count}")
    arcs = [check_record(rec, k, i) for i, rec in enumerate(records)]
    if len(set(arcs)) != count:
        raise CheckFailed(f"{len(set(arcs))} distinct arcs, want {count}")
    digests = {rec.get("digest") for rec in records}
    if len(digests) != 1:
        raise CheckFailed(f"{len(digests)} digests, want one class")
    if sorted(rec.get("arc_id", -1) for rec in records) != list(range(count)):
        raise CheckFailed(f"arc_id values are not 0..{count - 1}")
    return arcs


# ---------------------------------------------------------------------------
# the candidate stream

def shard_candidates(q: int, c: int) -> int:
    """Candidates of one (a, c) shard: (d<e) pairs x f>c x (g<h) pairs."""
    pairs = q * (q - 1) // 2
    return pairs * (q - 1 - c) * pairs


def check_stream_counters(
    counters: Dict[str, int], q: int, shards: Iterable[Tuple[int, int]]
) -> None:
    """Counter identities every slice must satisfy, whatever its k."""
    want = sum(shard_candidates(q, c) for _, c in shards)
    if counters.get("candidates") != want:
        raise CheckFailed(f"candidates={counters.get('candidates')}, closed form {want}")
    split = counters.get("prepared", 0) + counters.get("focus_rejected", 0)
    if counters.get("arcs8") != split:
        raise CheckFailed(f"arcs8={counters.get('arcs8')} != prepared + focus_rejected = {split}")
    if counters.get("focus_9_10") != 0:
        raise CheckFailed(f"focus_9_10={counters.get('focus_9_10')}, want 0")


def is_survivor(
    gf: Field, a: int, c: int, d: int, e: int, f: int, g: int, h: int, k: int
) -> bool:
    """Is the candidate an 8-arc whose focus count is in the bounds for k?"""
    pts = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, a, 1), (c, d, 1), (c, e, 1), (f, g, 1), (f, h, 1)]
    for x, y, z in itertools.combinations(pts, 3):
        if gf.det3(x, y, z) == 0:
            return False
    lo, hi = FOCUS_BOUNDS[k]
    return lo <= len(focus_set(gf, pts)) <= hi


def check_stream_sample(
    gf: Field,
    k: int,
    a: int,
    c: int,
    survivors: Iterable[Tuple[int, ...]],
    rng,
    n_survivors: int = 200,
    n_columns: int = 4,
) -> int:
    """Re-derive a sample of one shard's stream verdicts from the definitions.

    `survivors` are the stream's (d, e, f, g, h) for the shard.  Up to
    `n_survivors` of them, drawn with `rng`, must re-derive as survivors.
    Then one (d, e) row is drawn, from the survivors when there are any,
    and for `n_columns` values of f (one of them a survivor's) every
    (g, h) is re-derived: the stream must keep exactly those that the
    definitions keep.  Returns the number of candidates re-derived.
    """
    q = gf.q
    if c >= q - 1:
        raise ValueError(f"shard c={c} has no candidates to sample")
    kept = set(survivors)
    ordered = sorted(kept)
    sample = rng.sample(ordered, min(n_survivors, len(ordered)))
    for cand in sample:
        if not is_survivor(gf, a, c, *cand, k):
            raise CheckFailed(f"shard a={a} c={c}: stream kept {cand}, which fails the definitions")
    if ordered:
        d, e, f0 = rng.choice(ordered)[:3]
    else:
        (d, e), f0 = sorted(rng.sample(range(q), 2)), rng.randrange(c + 1, q)
    others = [f for f in range(c + 1, q) if f != f0]
    columns = [f0] + rng.sample(others, min(n_columns - 1, len(others)))
    checked = len(sample)
    for f in columns:
        want = set()
        for g in range(q):
            for h in range(g + 1, q):
                checked += 1
                if is_survivor(gf, a, c, d, e, f, g, h, k):
                    want.add((d, e, f, g, h))
        got = {cand for cand in kept if cand[:3] == (d, e, f)}
        if got != want:
            raise CheckFailed(
                f"shard a={a} c={c} row d={d} e={e} f={f}: stream keeps "
                f"{len(got)}, definitions keep {len(want)}"
            )
    return checked


# ---------------------------------------------------------------------------
# which shards must find a 12-arc

def k12_shards(gf: Field, rec_points: Iterable[Sequence[int]]) -> Tuple[int, List[int]]:
    """The (a, c) shards in which the method must find this 12-arc.

    A hyperfocused 12-arc through the frame (0,0), (0,1), (1,0), (1,a) has
    the vertical direction as a focus, so its points form six vertical
    pairs: x = 0, x = 1 and c1 < c2 < c3 < c4.  The candidate made of the
    frame and the pairs ci < cj lies in shard (a, ci).  When those 8 points
    have exactly 11 focuses, the 12-arc has the same 11; when two of them
    carry exactly 2 secants of the 8 points, each has 4 tangents, and the
    4 added points fill a transversal of the 4 x 4 grid those tangents
    make.  So the grid extension of that candidate must return the arc.
    Returns a and the sorted c of every such shard.
    """
    pts = sorted(tuple(int(v) for v in p) for p in rec_points)
    ys: Dict[int, List[Point]] = {}
    for p in pts:
        ys.setdefault(p[0], []).append(p)
    if sorted(ys)[:2] != [0, 1] or len(ys) != 6 or any(len(col) != 2 for col in ys.values()):
        raise CheckFailed(f"{pts} is not six vertical pairs through x=0 and x=1")
    frame = ys[0] + ys[1]
    a = max(p[1] for p in ys[1])
    if (0, 0, 1) not in frame or (0, 1, 1) not in frame or (1, 0, 1) not in frame:
        raise CheckFailed(f"{pts} does not hold the frame (0,0), (0,1), (1,0)")
    lo, hi = FOCUS_BOUNDS[12]
    out = set()
    for ci, cj in itertools.combinations(sorted(x for x in ys if x > 1), 2):
        counts = secant_traces(gf, frame + ys[ci] + ys[cj])
        if lo <= len(counts) <= hi and sum(1 for n in counts.values() if n == 2) >= 2:
            out.add(ci)
    return a, sorted(out)
