"""The q=32 extension, shard by shard, against a committed manifest.

`tests/data/extend_q32.json` holds, for every (a-index, c) shard of the
k=12 and k=14 runs, the `process_shard` counters `extended`,
`closure_survivors` and `closure_extended`, and the sha256 of the
ordered raw arcs.  The full runs check only totals, and the pinned
shards three shards; this sees an extension that moves arcs or tallies
between shards, loses one survivor's arcs, or reorders them.
Regenerate (only from an extension already known to be right) with

    PYTHONPATH=src python tests/test_extend_manifest.py
"""

import hashlib
import json
import os

import pytest

from hyperfocus.canon import frobenius_orbit_reps
from hyperfocus.field import make_field
from hyperfocus.search import _NumpyTables, process_shard, shard_list

MANIFEST = os.path.join(os.path.dirname(__file__), "data", "extend_q32.json")
EXTEND_KEYS = ("extended", "closure_survivors", "closure_extended")


def extend_entries(gf, k):
    """One manifest entry per shard, in shard order."""
    tables = _NumpyTables(gf)
    reps = frobenius_orbit_reps(gf, exclude=frozenset({0}))
    entries = []
    for a_idx, c in shard_list(gf):
        counters, raw = process_shard(gf, k, reps[a_idx], c, tables=tables)
        blob = "".join(" ".join(f"{x},{y},{z}" for x, y, z in arc) + "\n" for arc in raw)
        entry = {"a_idx": a_idx, "c": c}
        entry.update((key, counters[key]) for key in EXTEND_KEYS)
        entry["arcs_sha256"] = hashlib.sha256(blob.encode()).hexdigest()
        entries.append(entry)
    return entries


@pytest.mark.parametrize("k", [12, 14])
def test_extension_matches_manifest(gf32, k):
    with open(MANIFEST, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert (manifest["q"], int(manifest["modulus"], 0)) == (gf32.q, gf32.modulus)
    expected = manifest["shards"][str(k)]
    assert len(expected) == len(shard_list(gf32)) == 210
    for got, want in zip(extend_entries(gf32, k), expected):
        assert got == want


if __name__ == "__main__":
    gf = make_field(5, 0x25)
    blob = {
        "q": gf.q,
        "modulus": hex(gf.modulus),
        "shards": {str(k): extend_entries(gf, k) for k in (12, 14)},
    }
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True)
        fh.write("\n")
