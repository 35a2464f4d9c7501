"""The q=32 stream, shard by shard, against a committed manifest.

`tests/data/stream_q32.json` holds, for every (a-index, c) shard of
the k=12 and k=14 runs, the five stream counters and the sha256 of the
ordered (d, e, f, g, h) survivor list.  Totals and a few pinned shards
cannot see a stream that moves survivors between shards, or loses and
gains equal numbers; this can.  Regenerate (only from a stream already
known to be right) with

    PYTHONPATH=src python tests/test_stream_manifest.py
"""

import hashlib
import json
import os

import numpy as np
import pytest

from hyperfocus.canon import frobenius_orbit_reps
from hyperfocus.field import make_field
from hyperfocus.search import FOCUS_BOUNDS, shard_list, stream_shard

MANIFEST = os.path.join(os.path.dirname(__file__), "data", "stream_q32.json")
STREAM_KEYS = ("candidates", "arcs8", "focus_rejected", "focus_9_10", "prepared")


def stream_entries(gf, k):
    """One manifest entry per shard, in shard order."""
    reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
    lo, hi = FOCUS_BOUNDS[k]
    entries = []
    for a_idx, c in shard_list(gf):
        counters, survivors = stream_shard(gf, reps[a_idx], c, lo, hi)
        rows = np.asarray(survivors)[list("defgh")].tolist()
        blob = "".join(f"{d},{e},{f},{g},{h}\n" for d, e, f, g, h in rows)
        entry = {"a_idx": a_idx, "c": c}
        entry.update((key, counters[key]) for key in STREAM_KEYS)
        entry["survivors_sha256"] = hashlib.sha256(blob.encode()).hexdigest()
        entries.append(entry)
    return entries


@pytest.mark.parametrize("k", [12, 14])
def test_stream_matches_manifest(gf32, k):
    with open(MANIFEST, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert (manifest["q"], int(manifest["modulus"], 0)) == (gf32.q, gf32.modulus)
    expected = manifest["shards"][str(k)]
    assert len(expected) == len(shard_list(gf32)) == 210
    for got, want in zip(stream_entries(gf32, k), expected):
        assert got == want


if __name__ == "__main__":
    gf = make_field(5, 0x25)
    blob = {
        "q": gf.q,
        "modulus": hex(gf.modulus),
        "shards": {str(k): stream_entries(gf, k) for k in (12, 14)},
    }
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)
        fh.write("\n")
