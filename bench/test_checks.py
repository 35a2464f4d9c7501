"""The benchmark's checker rejects corrupted outputs.

    python -m pytest bench/test_checks.py
"""

import copy
import json
import random
from pathlib import Path

import pytest

import checks
from checks import CheckFailed

K12 = Path(__file__).resolve().parent.parent / "results" / "k12.jsonl"
Q = 32


@pytest.fixture(scope="module")
def records():
    return [json.loads(line) for line in K12.read_text().splitlines()]


def corrupt(records, i, **changes):
    out = copy.deepcopy(records)
    out[i].update(changes)
    return out


def test_committed_records_pass(records):
    arcs = checks.check_records(records, 12, 60)
    assert len(set(arcs)) == 60


def test_collinear_triple(records):
    # (0,0,1) and (0,1,1) span X=0; moving a third point onto it
    pts = copy.deepcopy(records[0]["points"])
    pts[-1] = [0, 5, 1]
    with pytest.raises(CheckFailed, match="collinear"):
        checks.check_records(corrupt(records, 0, points=pts), 12, 60)


def test_wrong_focus_count(records):
    with pytest.raises(CheckFailed, match="focus"):
        checks.check_records(corrupt(records, 7, focus_count=12), 12, 60)


def test_wrong_nucleus(records):
    nuc = records[3]["nucleus"]
    other = [nuc[0] ^ 1, nuc[1], nuc[2]]
    with pytest.raises(CheckFailed, match="nucleus"):
        checks.check_records(corrupt(records, 3, nucleus=other), 12, 60)


def test_point_off_the_conic(records):
    conic = list(records[5]["conic"])
    conic[0] ^= 1
    with pytest.raises(CheckFailed):
        checks.check_records(corrupt(records, 5, conic=conic), 12, 60)


def test_59_records(records):
    with pytest.raises(CheckFailed, match="59 records"):
        checks.check_records(records[:59], 12, 60)


def test_duplicate_arc(records):
    dup = copy.deepcopy(records[:59]) + [dict(records[0], arc_id=59)]
    with pytest.raises(CheckFailed, match="distinct"):
        checks.check_records(dup, 12, 60)


def test_two_digests(records):
    with pytest.raises(CheckFailed, match="2 digests"):
        checks.check_records(corrupt(records, 11, digest="deadbeefdeadbeef"), 12, 60)


def test_wrong_k(records):
    with pytest.raises(CheckFailed, match="k=7"):
        checks.check_records(corrupt(records, 0, k=7), 12, 60)


SHARDS = [(0, 2), (0, 31), (3, 9), (3, 24)]


def good_counters():
    total = sum(checks.shard_candidates(Q, c) for _, c in SHARDS)
    return {"candidates": total, "arcs8": 100, "prepared": 3, "focus_rejected": 97, "focus_9_10": 0}


def test_counters_pass():
    checks.check_stream_counters(good_counters(), Q, SHARDS)
    # mirrored c pairs hold the same count whatever the pair
    assert checks.shard_candidates(Q, 2) + checks.shard_candidates(Q, 31) == 29 * 496**2


def test_focus_9_10():
    with pytest.raises(CheckFailed, match="focus_9_10"):
        checks.check_stream_counters(dict(good_counters(), focus_9_10=1), Q, SHARDS)


def test_candidate_total_off_by_one():
    counters = good_counters()
    counters["candidates"] += 1
    with pytest.raises(CheckFailed, match="closed form"):
        checks.check_stream_counters(counters, Q, SHARDS)


def test_arcs8_split():
    with pytest.raises(CheckFailed, match="arcs8"):
        checks.check_stream_counters(dict(good_counters(), prepared=4), Q, SHARDS)


def test_stream_sample():
    gf = checks.field(Q, 0x25)
    a, c, d, e, f = 1, 5, 2, 3, 9
    kept = [
        (d, e, f, g, h)
        for g in range(Q)
        for h in range(g + 1, Q)
        if checks.is_survivor(gf, a, c, d, e, f, g, h, 14)
    ]
    assert kept
    checks.check_stream_sample(gf, 14, a, c, kept, random.Random(0), n_columns=1)
    with pytest.raises(CheckFailed, match="keeps"):
        checks.check_stream_sample(gf, 14, a, c, kept[1:], random.Random(0), n_columns=1)
    bogus = (d, e, f, 0, 1)  # (c,d), (f,0), (f,1): not a survivor
    assert not checks.is_survivor(gf, a, c, *bogus, 14)
    with pytest.raises(CheckFailed, match="fails the definitions"):
        checks.check_stream_sample(gf, 14, a, c, kept + [bogus], random.Random(0))


def test_k12_shards(records):
    gf = checks.field(Q, 0x25)
    for rec in records:
        a, cs = checks.k12_shards(gf, rec["points"])
        columns = sorted({p[0] for p in rec["points"]})
        assert (1, a, 1) in map(tuple, rec["points"])
        assert cs and set(cs) <= set(columns[2:5])
    pts = copy.deepcopy(records[0]["points"])
    pts[-1][0] = 30  # breaks the last vertical pair
    with pytest.raises(CheckFailed, match="vertical pairs"):
        checks.k12_shards(gf, pts)
