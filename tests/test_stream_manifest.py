"""The q=32 stream, shard by shard, against a committed manifest.

`tests/data/stream_q32.json` holds, for every (a-index, c) shard, the
five stream counters and the sha256 of the ordered (d, e, f, g, h)
survivor list, for the bounds of the k=12 run and, under the key 14,
for the window 9..13 around those of the k=14 run.  Totals and a few
pinned shards cannot see a stream that moves survivors between shards,
or loses and gains equal numbers; this can.  Regenerate (only from a stream already
known to be right) with

    PYTHONPATH=src python tests/test_stream_manifest.py
"""

import hashlib
import json
import os
from collections import Counter

import numpy as np
import pytest

from hyperfocus.canon import frobenius_orbit_reps
from hyperfocus.field import make_field
from hyperfocus.search import FOCUS_BOUNDS, shard_list, stream_shard

from oracles import join_arcs

MANIFEST = os.path.join(os.path.dirname(__file__), "data", "stream_q32.json")
K12_RESULTS = os.path.join(os.path.dirname(__file__), "..", "results", "k12.jsonl")
STREAM_KEYS = ("candidates", "arcs8", "focus_rejected", "focus_9_10", "prepared")
# the manifest's bounds per key: k=14 keeps the window that the lemma-free
# checks read, whose survivors with 13 focuses are those of FOCUS_BOUNDS[14]
WINDOWS = {12: FOCUS_BOUNDS[12], 14: (9, 13)}


def stream_shards(gf, k):
    """Per shard, in shard order: its manifest entry, its survivors and
    its a."""
    reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
    for a_idx, c in shard_list(gf):
        counters, survivors = stream_shard(gf, reps[a_idx], c, *WINDOWS[k])
        rows = np.asarray(survivors)[list("defgh")].tolist()
        blob = "".join(f"{d},{e},{f},{g},{h}\n" for d, e, f, g, h in rows)
        entry = {"a_idx": a_idx, "c": c}
        entry.update((key, counters[key]) for key in STREAM_KEYS)
        entry["survivors_sha256"] = hashlib.sha256(blob.encode()).hexdigest()
        yield entry, survivors, reps[a_idx]


@pytest.mark.parametrize("k", [12, 14])
def test_stream_matches_manifest(gf32, k):
    """Every shard's entry equals the manifest's.  At k=14 each shard's
    stream for `FOCUS_BOUNDS[14]` keeps exactly the window's survivors
    whose word has 12 bits, in order, with `arcs8 = prepared +
    focus_rejected`: 73,804 over the 112,900 of the window.

    The lemma's join of the tight survivors (`oracles.join_arcs`) derives
    both headlines without the extension.  At k=12 the 4,248 survivors
    form 4,212 groups, 12 of them over 3 distinct columns: 12 arcs, the
    records of `results/k12.jsonl` whose frame point (1, a) has a among
    the orbit representatives.  At k=14 no group of the 73,804 reaches
    the 4 columns a 14-arc needs."""
    with open(MANIFEST, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert (manifest["q"], int(manifest["modulus"], 0)) == (gf32.q, gf32.modulus)
    expected = manifest["shards"][str(k)]
    assert len(expected) == len(shard_list(gf32)) == 210
    n_tight = 0
    groups, joined = Counter(), []
    for (got, survivors, a), want in zip(stream_shards(gf32, k), expected):
        assert got == want
        tight = survivors
        if k == 14:
            counters, tight = stream_shard(gf32, a, got["c"], *FOCUS_BOUNDS[14])
            assert np.array_equal(tight, survivors[np.bitwise_count(survivors.w) == 12])
            assert counters["arcs8"] == counters["prepared"] + counters["focus_rejected"]
            n_tight += counters["prepared"]
        shard_groups, shard_joined = join_arcs(gf32, tight, k)
        groups += shard_groups
        joined += shard_joined
    if k == 14:
        assert n_tight == 73804 and sum(e["prepared"] for e in expected) == 112900
        assert groups == {1: 45236, 2: 28} and joined == []
    else:
        assert groups == {1: 4188, 2: 12, 3: 12}
        assert len(joined) == 12 and all(hyper for _, hyper in joined)
        reps = set(frobenius_orbit_reps(gf32, exclude=frozenset({0})))
        with open(K12_RESULTS, "r", encoding="utf-8") as fh:
            records = [json.loads(line)["points"] for line in fh]
        on_reps = {
            frozenset(map(tuple, pts)) for pts in records if {y for x, y, _ in pts if x == 1} - {0} <= reps
        }
        assert len(on_reps) == 12 and {frozenset(arc) for arc, _ in joined} == on_reps


if __name__ == "__main__":
    gf = make_field(5, 0x25)
    blob = {
        "q": gf.q,
        "modulus": hex(gf.modulus),
        "shards": {str(k): [entry for entry, _, _ in stream_shards(gf, k)] for k in WINDOWS},
    }
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)
        fh.write("\n")
