"""Command-line interface: exit codes, output formats, round-trips."""

import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

import numpy as np
import pytest

from hyperfocus.cli import (
    EX_CHECKPOINT,
    EX_DATA,
    EX_FAIL,
    EX_IO,
    EX_OK,
    EX_USAGE,
    build_parser,
    main,
    parse_felt,
    parse_pairs,
)
from hyperfocus import arcs as arcs_module
from hyperfocus import canon as canon_module
from hyperfocus import cli as cli_module
from hyperfocus import conics as conics_module
from hyperfocus import search
from hyperfocus.arcs import (
    HYPERFOCUSED,
    are_arcs,
    classify_focus,
    focus_verdicts,
    make_arc,
    make_arcs,
    translation_hyperoval,
)
from hyperfocus.canon import arc_digest, canonical_forms, digest
from hyperfocus.conics import hyperconic_witnesses
from hyperfocus.cli import UsageError
from hyperfocus.field import make_field
from hyperfocus.plane import LINE_AT_INFINITY

from oracles import arc_oracle, moved_arc, scale, schemaless_config_hash

K12_RESULTS = Path(__file__).resolve().parent.parent / "results" / "k12.jsonl"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def k10_cli(tmp_path_factory):
    """One full q=8, k=10 search through the CLI, shared by the module."""
    path = tmp_path_factory.mktemp("cli") / "k10.jsonl"
    code, out, err = run_cli(
        "search", "--s", "3", "--k", "10", "--out", str(path)
    )
    return code, out, err, path


# --- parsing helpers --------------------------------------------------------


def test_parse_felt():
    gf = make_field(3)
    assert parse_felt(gf, "5") == 5
    assert parse_felt(gf, "0x7") == 7
    assert parse_felt(gf, "w") == gf.omega
    assert parse_felt(gf, "w^3") == gf.element(3)
    with pytest.raises(UsageError):
        parse_felt(gf, "8")  # out of range
    with pytest.raises(UsageError):
        parse_felt(gf, "spam")


def test_parse_pairs():
    gf = make_field(3)
    assert parse_pairs(gf, "(1,2);(w,w^2)") == [(1, 2), (2, 4)]
    with pytest.raises(UsageError):
        parse_pairs(gf, "1,2")


# --- search -----------------------------------------------------------------


def test_search_cli_summary(k10_cli):
    code, out, err, path = k10_cli
    assert code == EX_OK
    assert "search k=10 q=8 modulus=0xb bounds=9..9 workers=1" in out
    assert "experimental=true" in out
    # the eleven original counters keep their order; dfs_roots comes last
    assert (
        "candidates=35280 arcs8=62 focus_rejected=14 focus_9_10=48 prepared=48 "
        "extended=48 closure_survivors=0 closure_extended=0 orbit_reps=16 "
        "found=40 verified=40 dfs_roots=48\n"
    ) in out
    assert "found=40 hyperconic=40/40" in out
    assert "discrepancy" not in out
    assert len(path.read_text().splitlines()) == 40


def test_search_cli_partial(tmp_path):
    ckpt = tmp_path / "part.ckpt"
    code, out, _ = run_cli(
        "search",
        "--s",
        "3",
        "--k",
        "10",
        "--checkpoint",
        str(ckpt),
        "--max-shards",
        "2",
    )
    assert code == EX_OK
    assert "partial=true" in out
    assert "hyperconic=" not in out  # no completion summary on a partial run
    assert ckpt.exists()


def test_search_cli_checkpoint_mismatch(tmp_path):
    ckpt = tmp_path / "part.ckpt"
    code, _, _ = run_cli(
        "search", "--s", "3", "--k", "10",
        "--checkpoint", str(ckpt), "--max-shards", "1",
    )
    assert code == EX_OK
    code, _, err = run_cli(
        "search", "--s", "3", "--k", "12", "--checkpoint", str(ckpt)
    )
    assert code == EX_CHECKPOINT
    assert "checkpoint mismatch" in err


def test_search_cli_corrupt_checkpoint(tmp_path):
    ckpt = tmp_path / "part.ckpt"
    code, _, _ = run_cli(
        "search", "--s", "3", "--k", "10",
        "--checkpoint", str(ckpt), "--max-shards", "1",
    )
    assert code == EX_OK
    blob = json.loads(ckpt.read_text())
    blob["cursor"] = ["x", 2]
    ckpt.write_text(json.dumps(blob))
    code, _, err = run_cli(
        "search", "--s", "3", "--k", "10", "--checkpoint", str(ckpt)
    )
    assert code == EX_CHECKPOINT
    assert "checkpoint mismatch: corrupt checkpoint" in err


def _with_coordinate_9(blob):
    blob["found"][0][0][0] = 9  # q = 8: no field element
    return blob


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda blob: [],
        lambda blob: None,
        lambda blob: blob | {"cursor": [0, 3.9]},
        lambda blob: blob | {"counters": []},
        lambda blob: blob | {"counters": blob["counters"] | {"found": "1"}},
        lambda blob: blob | {"found": [[[1, 2]]]},
        _with_coordinate_9,
    ],
    ids=["list", "null", "float cursor", "counters list", "counter string", "short arc", "coordinate 9"],
)
def test_search_cli_rejects_corrupt_checkpoint_contents(tmp_path, corrupt):
    """A checkpoint of the right configuration whose JSON is no object,
    whose cursor or counters are not integers (the counters keyed by the
    counter names), or whose arcs are not k triples of field elements
    exits 2 before any shard runs: no traceback, no output file, and the
    checkpoint unchanged."""
    ckpt, out = tmp_path / "part.ckpt", tmp_path / "k10.jsonl"
    code, _, _ = run_cli(
        "search", "--s", "3", "--k", "10",
        "--checkpoint", str(ckpt), "--max-shards", "3",
    )
    assert code == EX_OK
    blob = json.loads(ckpt.read_text())
    assert blob["found"]  # the first shards of q = 8 find arcs
    ckpt.write_text(json.dumps(corrupt(blob)))
    before = ckpt.read_bytes()
    code, stdout, err = run_cli(
        "search", "--s", "3", "--k", "10", "--checkpoint", str(ckpt), "--out", str(out)
    )
    assert (code, stdout) == (EX_CHECKPOINT, "")
    assert "checkpoint mismatch: corrupt checkpoint" in err
    assert not out.exists()
    assert ckpt.read_bytes() == before


def test_search_cli_old_checkpoint(tmp_path):
    """A checkpoint written by code without a checkpoint schema is a
    config mismatch, not a resume."""
    ckpt = tmp_path / "part.ckpt"
    code, _, _ = run_cli(
        "search", "--s", "3", "--k", "10",
        "--checkpoint", str(ckpt), "--max-shards", "1",
    )
    assert code == EX_OK
    blob = json.loads(ckpt.read_text())
    blob["config_hash"] = schemaless_config_hash(make_field(3), 10, (9, 9))
    ckpt.write_text(json.dumps(blob))
    code, _, err = run_cli(
        "search", "--s", "3", "--k", "10", "--checkpoint", str(ckpt)
    )
    assert code == EX_CHECKPOINT
    assert "written by a different configuration" in err


def test_search_cli_has_no_engine_option():
    code, out, err = run_cli("search", "--s", "3", "--k", "10", "--engine", "numpy")
    assert code == EX_USAGE
    assert "--engine" in err and out == ""


def test_search_cli_discrepancy_fails(monkeypatch):
    """A completed search whose count differs from the expected one is a
    failed verification."""
    monkeypatch.setitem(search.EXPECTED_FOUND, (8, 0xB, 10), 41)
    code, out, _ = run_cli("search", "--s", "3", "--k", "10")
    assert code == EX_FAIL
    assert "found=40 " in out
    assert "discrepancy: expected 41 hyperfocused 10-arcs" in out


def test_search_cli_verification_error_fails(monkeypatch):
    """An emitted arc that fails re-verification is a failed
    verification (exit 1), not a usage error."""

    def refuted(gf, arcs, lines):
        return [dict.fromkeys(search.CLAIMS, 0) for _ in arcs]

    monkeypatch.setattr(search, "record_claims", refuted)
    code, _, err = run_cli("search", "--s", "3", "--k", "10")
    assert code == EX_FAIL
    assert "verification error: emitted arc fails verification" in err


@pytest.mark.parametrize("plant", ["repeated point", "collinear triple", "meets Z = 0"])
def test_search_cli_emitted_non_arc_fails(monkeypatch, plant):
    """A raw arc that is no arc, or an arc that meets the focus line Z = 0
    (the 10-point translation hyperoval), planted after a shard's search,
    is caught by the re-verification of the emitted arcs: exit 1, not a
    traceback."""
    shard = search.process_shard

    def planted(gf, k, a, c, *args, **kwargs):
        counters, raw = shard(gf, k, a, c, *args, **kwargs)
        if raw:
            # raw[0] is sorted, so (0, 0) and (0, 1) come first
            last = raw[0][0] if plant == "repeated point" else (0, 2, 1)
            assert (0, 2, 1) not in raw[0]
            bad = raw[0][:-1] + (last,)
            raw = raw + [translation_hyperoval(gf, 1) if plant == "meets Z = 0" else bad]
        return counters, raw

    monkeypatch.setattr(search, "process_shard", planted)
    code, _, err = run_cli("search", "--s", "3", "--k", "10")
    assert code == EX_FAIL
    assert "verification error: emitted arc fails verification" in err


def test_search_cli_rejects_negative_max_shards(tmp_path):
    """--max-shards -1 would run every shard but the last as a partial run."""
    ckpt = tmp_path / "run.ckpt"
    code, out, err = run_cli(
        "search", "--s", "3", "--k", "10", "--max-shards", "-1", "--checkpoint", str(ckpt)
    )
    assert code == EX_USAGE
    assert "max_shards=-1 must be >= 0" in err and out == ""
    assert not ckpt.exists()


def test_search_cli_rejects_q64():
    code, out, err = run_cli("search", "--s", "6", "--k", "12", "--max-shards", "0")
    assert code == EX_USAGE
    assert "q=64 is not supported" in err
    assert out == ""


def test_search_cli_refuses_numpy_without_bitwise_count(tmp_path, monkeypatch):
    """numpy < 2.0 has no `bitwise_count`: `search` exits 64 with the
    requirement before any shard runs, not with an AttributeError."""
    ckpt = tmp_path / "run.ckpt"
    monkeypatch.delattr(search.np, "bitwise_count")
    code, out, err = run_cli("search", "--s", "3", "--k", "10", "--checkpoint", str(ckpt))
    assert code == EX_USAGE
    assert "search error: numpy" in err and "needs numpy >= 2.0" in err
    assert out == "" and not ckpt.exists()


def test_search_cli_bad_k():
    for k in ("13", "8", "16"):
        code, _, err = run_cli("search", "--s", "3", "--k", k)
        assert code == EX_USAGE
        assert "usage error" in err


def test_search_cli_bad_field():
    code, _, _ = run_cli("search", "--s", "99", "--k", "12")
    assert code == EX_USAGE
    code, _, _ = run_cli(
        "search", "--s", "5", "--modulus", "0xZZ", "--k", "12"
    )
    assert code == EX_USAGE
    # reducible polynomial
    code, _, _ = run_cli(
        "search", "--s", "3", "--modulus", "0x9", "--k", "10",
        "--max-shards", "1",
    )
    assert code == EX_USAGE


def test_search_cli_workers_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERFOCUS_THREADS", "2")
    code, out, _ = run_cli(
        "search", "--s", "3", "--k", "10", "--max-shards", "1"
    )
    assert code == EX_OK
    assert "workers=2" in out
    monkeypatch.setenv("HYPERFOCUS_THREADS", "zero")
    code, _, err = run_cli(
        "search", "--s", "3", "--k", "10", "--max-shards", "1"
    )
    assert code == EX_USAGE
    for bad in ("0", "-2"):
        monkeypatch.setenv("HYPERFOCUS_THREADS", bad)
        code, _, err = run_cli("search", "--s", "3", "--k", "10", "--max-shards", "1")
        assert code == EX_USAGE and "HYPERFOCUS_THREADS must be >= 1" in err
        code, _, err = run_cli(
            "search", "--s", "3", "--k", "10", "--max-shards", "1", "--workers", bad
        )
        assert code == EX_USAGE and "--workers must be >= 1" in err


def test_search_cli_progress_fields(capsys):
    """Each --progress line names its shard and carries the shard's own
    seconds, shards done of the run's total, the rate and the ETA."""
    code = main(["search", "--s", "3", "--k", "10", "--max-shards", "3", "--progress"])
    assert code == EX_OK
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("shard ")]
    shards = search.shard_list(make_field(3))
    assert len(lines) == 3
    for i, line in enumerate(lines, 1):
        fields = dict(kv.split("=", 1) for kv in line.split()[1:])
        assert list(fields) == [
            "a_idx", "c", "prepared", "raw", "shard_s", "done", "rate", "eta_s"
        ]
        assert (int(fields["a_idx"]), int(fields["c"])) == shards[i - 1]
        assert fields["done"] == f"{i}/{len(shards)}"
        assert fields["rate"].endswith("/s")
        rate = float(fields["rate"][:-2])
        assert float(fields["shard_s"]) >= 0 and rate > 0
        assert float(fields["eta_s"]) == pytest.approx((3 - i) / rate, rel=0.01, abs=0.06)
    assert float(fields["eta_s"]) == 0


def test_search_elapsed_covers_shards(gf8, capsys):
    """The report's elapsed time spans the whole run, every shard included."""
    report = search.run_search(gf8, 10, search.SearchConfig(progress=True))
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("shard ")]
    shard_s = [float(ln.split("shard_s=")[1].split()[0]) for ln in lines]
    assert len(shard_s) == len(search.shard_list(gf8))
    assert sum(shard_s) <= report.elapsed + 0.001 * len(shard_s)


def test_search_cli_warns_above_cpu_count(monkeypatch, capsys):
    """One stderr line when --workers or HYPERFOCUS_THREADS asks for more
    processes than CPUs; a one-shard run never starts a pool."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search, "Pool", None)
    argv = ["search", "--s", "3", "--k", "10", "--max-shards", "1"]
    assert main(argv + ["--workers", "3"]) == EX_OK
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: --workers=3 exceeds the 2 CPUs of this machine"]
    monkeypatch.setenv("HYPERFOCUS_THREADS", "5")
    assert main(argv) == EX_OK
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: HYPERFOCUS_THREADS=5 exceeds the 2 CPUs of this machine"]
    assert main(argv + ["--workers", "2"]) == EX_OK
    assert capsys.readouterr().err == ""


# --- verify -----------------------------------------------------------------


def test_verify_roundtrip(k10_cli):
    _, _, _, path = k10_cli
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_OK
    assert out.count("ok=true") == 40
    assert "verified=40/40" in out
    assert "hyperconic=true" in out


def test_verify_four_arc_uses_diagonal(tmp_path):
    rec = {
        "q": 8,
        "modulus": "0xb",
        "points": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
    }
    path = tmp_path / "quad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_OK
    assert "k=4" in out and "verdict=hyperfocused" in out
    assert "hyperconic=-" in out
    assert "verified=1/1" in out


def test_verify_flags_bad_arc(tmp_path):
    rec = {
        "q": 8,
        "modulus": "0xb",
        "points": [[0, 0, 1], [0, 1, 1], [0, 3, 1], [1, 0, 1]],
    }
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_FAIL
    assert "is_arc=false" in out
    assert "verified=0/1" in out


EDITED_CLAIMS = {
    "k": 7,
    "focus_count": 99,
    "hyperconic": False,
    "conic": [0, 0, 0, 0, 0, 1],
    "nucleus": [0, 0, 1],
    "digest": "deadbeef",
}


def _k12_record():
    return json.loads(K12_RESULTS.read_text().splitlines()[0])


def test_verify_checks_stored_claims(tmp_path):
    """An edited k=12 record still holds a hyperfocused arc, but its
    claims are false: verify names them and fails."""
    rec = _k12_record()
    path = tmp_path / "edited.jsonl"
    path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, **EDITED_CLAIMS}) + "\n")
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_FAIL
    first, second, summary = out.splitlines()
    assert first.endswith("failed=- ok=true")
    assert "verdict=hyperfocused" in second
    assert second.endswith("failed=k,focus_count,hyperconic,conic,nucleus,digest ok=false")
    assert summary == "verified=1/2"


@pytest.mark.parametrize("claim", sorted(EDITED_CLAIMS))
def test_verify_names_each_failed_claim(tmp_path, claim):
    rec = {**_k12_record(), claim: EDITED_CLAIMS[claim]}
    path = tmp_path / "edited.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_FAIL
    assert f"failed={claim} ok=false" in out
    assert out.splitlines()[-1] == "verified=0/1"


def test_verify_sixty_records_and_an_edited_digest(tmp_path):
    """The 60 stored records share one class; a copy of one of them with an
    edited digest fails on that record alone."""
    lines = K12_RESULTS.read_text().splitlines()
    edited = {**json.loads(lines[7]), "digest": "0" * 16}
    path = tmp_path / "k12.jsonl"
    path.write_text("\n".join(lines + [json.dumps(edited)]) + "\n")
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_FAIL
    rows = out.splitlines()
    assert rows[-1] == "verified=60/61"
    assert [i for i, row in enumerate(rows[:-1]) if "failed=-" not in row] == [60]
    assert rows[60].endswith("failed=digest ok=false")


def test_verify_digest_on_each_records_line(tmp_path):
    """Records on two focus lines: each digest is checked on the record's
    own line.  The copy of a 12-arc moved by (x, y, z) -> (x, y, x + z)
    lies on X + Z = 0's side and meets Z = 0, and keeps its digest."""
    gf = make_field(5, 0x25)
    rec = _k12_record()
    moved = {
        key: rec[key] for key in ("q", "modulus", "k", "focus_count", "digest")
    }
    moved["points"] = [list(scale(gf, (x, y, x ^ z))) for x, y, z in rec["points"]]
    moved["line"] = [1, 0, 1]
    wrong = {**moved, "digest": "0" * 16}
    path = tmp_path / "lines.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in (rec, moved, wrong, rec)))
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_FAIL
    rows = out.splitlines()
    assert [row.endswith("failed=- ok=true") for row in rows[:4]] == [True, True, False, True]
    assert rows[2].endswith("failed=digest ok=false")
    assert rows[4] == "verified=3/4"


@pytest.mark.parametrize("n", [1, 2])
def test_verify_digest_below_three_points(tmp_path, n):
    """An arc of fewer than 3 points has no triple to normalize, so its
    digest is null: a stored null passes and a stored string fails as
    `failed=digest`, exit 1, not a traceback."""
    rec = {"q": 8, "modulus": "0xb", "points": [[0, 0, 1], [1, 1, 1]][:n], "digest": None}
    path = tmp_path / "small.jsonl"
    path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, "digest": "0" * 16}) + "\n")
    code, out, err = run_cli("verify", str(path))
    assert (code, err) == (EX_FAIL, "")
    verdict = f"arc=0 k={n} is_arc=true focus={n - 1} verdict=hyperfocused hyperconic=-"
    assert out.splitlines() == [
        f"{verdict} failed=- ok=true",
        f"{verdict.replace('arc=0', 'arc=1')} failed=digest ok=false",
        "verified=1/2",
    ]


def test_verify_malformed_json(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("{not json\n")
    code, _, err = run_cli("verify", str(path))
    assert code == EX_DATA
    assert "data error" in err


def test_verify_bad_points(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {"q": 8, "modulus": "0xb", "points": [[9, 0, 1], [0, 1, 1]]}
    path.write_text(json.dumps(rec) + "\n")
    assert run_cli("verify", str(path))[0] == EX_DATA
    rec = {"q": 8, "modulus": "0xb", "points": [[0, 0, 0], [0, 1, 1]]}
    path.write_text(json.dumps(rec) + "\n")
    assert run_cli("verify", str(path))[0] == EX_DATA
    rec = {"q": 8, "modulus": "0xb", "points": [[0, 0, 1]], "line": [0, 0, 0]}
    path.write_text(json.dumps(rec) + "\n")
    assert run_cli("verify", str(path))[0] == EX_DATA


def test_verify_mixed_fields(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(
        json.dumps({"q": 8, "modulus": "0xb", "points": [[0, 0, 1], [1, 1, 1]]})
        + "\n"
        + json.dumps({"q": 4, "modulus": "0x7", "points": [[0, 0, 1], [1, 1, 1]]})
        + "\n"
    )
    assert run_cli("verify", str(path))[0] == EX_DATA


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_read_paths_reject_q_below_one(tmp_path, command):
    """A record with q < 1 is malformed data, exit 65, for both readers:
    q = 0 has no power-of-two exponent to shift by."""
    rec = json.loads(K12_RESULTS.read_text().splitlines()[0])
    path = tmp_path / "q.jsonl"
    for q in (0, -32):
        path.write_text(json.dumps({**rec, "q": q}) + "\n")
        want = (EX_DATA, "", f"data error: q={q} is not a power of two\n")
        assert run_cli(command, str(path)) == want


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_read_paths_reject_boolean_coordinates(tmp_path, command):
    """JSON true is no field element, although Python's True is an int:
    a point or a line that holds one is a bad point or a bad line."""
    rec = json.loads(K12_RESULTS.read_text().splitlines()[0])
    pts = [[True if v == 1 else v for v in p] for p in rec["points"]]
    path = tmp_path / "bool.jsonl"
    for bad, what, v in (
        ({"points": pts}, "point", pts[0]),
        ({"points": pts[:1] + rec["points"][1:]}, "point", pts[0]),
        ({"line": [0, 0, True]}, "line", [0, 0, True]),
    ):
        path.write_text(json.dumps({**rec, **bad}) + "\n")
        want = (EX_DATA, "", f"data error: record 0: bad {what} {v!r}\n")
        assert run_cli(command, str(path)) == want


@pytest.mark.parametrize("command", ["verify", "classify"])
@pytest.mark.parametrize("q", [32.9, 32.0, "32", True])
def test_read_paths_require_an_integer_q(tmp_path, command, q):
    """q is a JSON integer: a float, a numeric string or a boolean is
    malformed data, exit 65, where a reader once took int(q)."""
    rec = {**_k12_record(), "q": q}
    path = tmp_path / "q.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    want = (EX_DATA, "", f"data error: record 0: q {q!r} is not a JSON integer\n")
    assert run_cli(command, str(path)) == want


@pytest.mark.parametrize("claim, value", [("k", 12.0), ("hyperconic", 1), ("focus_count", 11.0)])
def test_verify_compares_claims_as_json(tmp_path, claim, value):
    """A stored claim equals its recomputation only as the same JSON
    value: 12.0 is not the integer 12 and 1 is not true, although Python's
    == says they are."""
    rec = _k12_record()
    assert rec[claim] == value
    path = tmp_path / "claim.jsonl"
    path.write_text(json.dumps({**rec, claim: value}) + "\n")
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_FAIL
    assert out.splitlines() == [
        f"arc=0 k=12 is_arc=true focus=11 verdict=hyperfocused hyperconic=true "
        f"failed={claim} ok=false",
        "verified=0/1",
    ]


def test_main_builds_one_parser(tmp_path, monkeypatch):
    """A usage error, verify and classify through one process's main give
    the exit codes and output of three separate processes, and that
    process builds its parser once."""
    calls = [["verify"], ["verify", str(K12_RESULTS)], ["classify", str(K12_RESULTS)]]
    script = (
        "import contextlib, io, json, sys\n"
        "from hyperfocus.cli import main\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    o, e = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):\n"
        "        out.append([main(argv), o.getvalue(), e.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(K12_RESULTS.parent.parent / "src")}

    def run(argvs):
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            capture_output=True, text=True, check=True, env=env, timeout=120,
        )
        return json.loads(done.stdout)

    together = run(calls)
    assert together == [run([argv])[0] for argv in calls]
    assert [code for code, _, _ in together] == [EX_USAGE, EX_OK, EX_OK]
    assert together[1][1].endswith("verified=60/60\n")
    built = []
    monkeypatch.setattr(cli_module, "build_parser", lambda: built.append(1) or build_parser())
    cli_module._parser.cache_clear()
    try:
        assert [run_cli(*argv) for argv in calls] == [tuple(r) for r in together]
    finally:
        cli_module._parser.cache_clear()
    assert built == [1]


def test_verify_missing_file(tmp_path):
    code, _, err = run_cli("verify", str(tmp_path / "nope.jsonl"))
    assert code == EX_IO
    assert "io error" in err


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_records_not_utf8(tmp_path, command):
    path = tmp_path / "binary.jsonl"
    path.write_bytes(b"\xff\xfe{}\n")
    code, _, err = run_cli(command, str(path))
    assert code == EX_DATA
    assert "is not UTF-8 text" in err


def test_verify_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_OK
    assert "verified=0/0" in out


# --- classify ---------------------------------------------------------------


def test_classify_roundtrip(k10_cli):
    _, _, _, path = k10_cli
    code, out, _ = run_cli("classify", str(path))
    assert code == EX_OK
    m = re.search(r"classes=(\d+) arcs=(\d+)", out)
    assert m and m.group(2) == "40"
    sizes = [int(x) for x in re.findall(r"size=(\d+)", out)]
    assert sum(sizes) == 40
    assert len(sizes) == int(m.group(1))
    for dig in re.findall(r"digest=([0-9a-f]+)", out):
        assert len(dig) == 16


def test_classify_moved_copy_joins_the_class(tmp_path):
    gf = make_field(5, 0x25)
    lines = K12_RESULTS.read_text().splitlines()
    copy = moved_arc(gf, json.loads(lines[0])["points"], random.Random(5), frob=2)
    path = tmp_path / "k12.jsonl"
    extra = {"q": 32, "modulus": "0x25", "points": [list(p) for p in copy]}
    path.write_text("\n".join(lines + [json.dumps(extra)]) + "\n")
    code, out, _ = run_cli("classify", str(path))
    assert code == EX_OK
    rows = out.splitlines()
    assert rows[0] == "classes=1 arcs=61"
    assert rows[1] == f"class=0 size=61 digest={json.loads(lines[0])['digest']}"


def test_classify_one_kernel_per_class(k10_cli, kernel_calls):
    """The 40 q=8 10-arcs cost one full kernel run per class reported."""
    _, _, _, path = k10_cli
    code, out, _ = run_cli("classify", str(path))
    assert code == EX_OK
    classes = int(re.match(r"classes=(\d+) arcs=40", out).group(1))
    assert kernel_calls == [10] * classes


def test_classify_rejects_mixed_lines(tmp_path):
    path = tmp_path / "lines.jsonl"
    rec = {
        "q": 8,
        "modulus": "0xb",
        "points": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
        "line": [1, 0, 0],
    }
    path.write_text(json.dumps(rec) + "\n")
    code, _, err = run_cli("classify", str(path))
    assert code == EX_DATA
    assert "mixed focus lines" in err


def test_classify_reads_the_line_as_verify_does(k10_cli, tmp_path):
    """A stored line is a scaled triple: [0, 0, 2] is Z = 0, and a line
    that is no triple is malformed data."""
    _, _, _, path = k10_cli
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    scaled = tmp_path / "scaled.jsonl"
    scaled.write_text("".join(json.dumps({**r, "line": [0, 0, 2]}) + "\n" for r in recs))
    code, out, _ = run_cli("classify", str(scaled))
    assert code == EX_OK
    assert (code, out) == run_cli("classify", str(path))[:2]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({**recs[0], "line": 5}) + "\n")
    code, _, err = run_cli("classify", str(bad))
    assert code == EX_DATA
    assert "record 0: bad line 5" in err


def test_classify_rejects_non_arc(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {
        "q": 8,
        "modulus": "0xb",
        "points": [[0, 0, 1], [0, 1, 1], [0, 3, 1]],
    }
    path.write_text(json.dumps(rec) + "\n")
    assert run_cli("classify", str(path))[0] == EX_DATA


def test_classify_rejects_point_on_line(tmp_path):
    path = tmp_path / "online.jsonl"
    rec = {
        "q": 8,
        "modulus": "0xb",
        "points": [[0, 0, 1], [0, 1, 1], [1, 0, 0]],
    }
    path.write_text(json.dumps(rec) + "\n")
    assert run_cli("classify", str(path))[0] == EX_DATA


def _records_with_faults(tmp_path, faults):
    """The first five k=12 records, with record 1's third point put on the
    line X = 0 of its first two ("no arc") or record 1 cut to its first
    two points ("few points"), one point of record 2 moved onto the focus
    line, keeping an arc ("on line"), and record 3 carrying an
    out-of-field coordinate ("bad point")."""
    gf = make_field(5, 0x25)
    recs = [json.loads(line) for line in K12_RESULTS.read_text().splitlines()[:5]]
    if "no arc" in faults:
        assert recs[1]["points"][:2] == [[0, 0, 1], [0, 1, 1]]
        recs[1]["points"][2] = [0, 2, 1]
    if "few points" in faults:
        recs[1]["points"] = recs[1]["points"][:2]
    if "on line" in faults:
        pts = recs[2]["points"]
        pts[4] = next(
            [m, 1, 0] for m in range(gf.q) if arc_oracle(gf, pts[:4] + [[m, 1, 0]] + pts[5:])
        )
    if "bad point" in faults:
        recs[3]["points"][5] = [40, 1, 1]
    path = tmp_path / "faults.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    return path


@pytest.mark.parametrize(
    "faults, verify_err, classify_err",
    [
        (("no arc", "bad point"), "record 3: bad point [40, 1, 1]", "record 1 is not an arc"),
        (("on line", "bad point"), "record 3: bad point [40, 1, 1]", "record 2 meets the focus line"),
        (("bad point",), "record 3: bad point [40, 1, 1]", "record 3: bad point [40, 1, 1]"),
        (("no arc", "on line"), None, "record 1 is not an arc"),
        (("few points", "bad point"), "record 3: bad point [40, 1, 1]", "record 1 has fewer than 3 points"),
        (("few points", "on line", "bad point"), "record 3: bad point [40, 1, 1]", "record 1 has fewer than 3 points"),
    ],
)
def test_read_paths_report_the_first_failing_record(tmp_path, faults, verify_err, classify_err):
    """verify rejects a record only for bad data, classify also for a
    non-arc, a point on the focus line or fewer than 3 points; each
    reports the first failing record of the file, with exit 65, and
    prints nothing else."""
    path = _records_with_faults(tmp_path, faults)
    code, out, err = run_cli("classify", str(path))
    assert (code, out, err) == (EX_DATA, "", f"data error: {classify_err}\n")
    code, out, err = run_cli("verify", str(path))
    if verify_err is None:
        assert code == EX_FAIL and err == ""
        rows = out.splitlines()
        assert "is_arc=false" in rows[1] and "verdict=-" in rows[2]
        assert rows[-1] == "verified=3/5"
    else:
        assert (code, out, err) == (EX_DATA, "", f"data error: {verify_err}\n")


def test_postprocess_reports_the_first_failing_image(gf32):
    """Among emitted orbit representatives, the first that is no arc is
    reported, with the error make_arc gives for it, even when a later one
    fails on a repeated point."""
    recs = [json.loads(line) for line in K12_RESULTS.read_text().splitlines()[:4]]
    raw = [tuple(map(tuple, rec["points"])) for rec in recs]
    raw[1] = raw[1][:2] + ((0, 2, 1),) + raw[1][3:]
    raw[3] = raw[3][:-1] + (raw[3][0],)
    with pytest.raises(search.VerificationError) as exc:
        search._postprocess(gf32, 12, raw, search.new_counters())
    assert str(exc.value) == (
        "emitted arc fails verification: (0, 0, 1), (0, 1, 1), (0, 2, 1) "
        f"are collinear in {raw[1]}"
    )
    raw[1] = tuple(map(tuple, recs[1]["points"]))
    with pytest.raises(search.VerificationError) as exc:
        search._postprocess(gf32, 12, raw, search.new_counters())
    assert str(exc.value) == f"emitted arc fails verification: repeated point in {raw[3]}"


def test_k12_paths_run_one_kernel_per_size_group(gf32, monkeypatch):
    """On the 60 stored 12-arcs the write path (`_postprocess`) and the
    read paths (`verify`, `classify`) make one call per size group into
    each list kernel, instead of one per arc: the arc check (secants),
    the focus counts and the hyperconic witness."""
    calls = []
    for module, name in (
        (arcs_module, "_secant_indices"),
        (arcs_module, "_focus_indices"),
        (conics_module, "_witness_kernel"),
    ):

        def counted(gf, stack, *rest, _name=name, _kernel=getattr(module, name)):
            calls.append((_name, stack.shape[:2]))
            return _kernel(gf, stack, *rest)

        monkeypatch.setattr(module, name, counted)
    recs = [json.loads(line) for line in K12_RESULTS.read_text().splitlines()]
    raw = [tuple(map(tuple, rec["points"])) for rec in recs]
    _, records = search._postprocess(gf32, 12, raw, search.new_counters())
    assert records == recs
    assert calls == [
        ("_secant_indices", (300, 12)),
        ("_focus_indices", (60, 12)),
        ("_witness_kernel", (60, 12)),
    ]
    calls.clear()
    code, out, _ = run_cli("verify", str(K12_RESULTS))
    assert code == EX_OK and out.endswith("verified=60/60\n")
    assert calls == [
        ("_secant_indices", (60, 12)),
        ("_focus_indices", (60, 12)),
        ("_witness_kernel", (60, 12)),
    ]
    calls.clear()
    assert run_cli("classify", str(K12_RESULTS))[0] == EX_OK
    assert calls == [("_secant_indices", (60, 12))]



def test_verify_rescaled_records(tmp_path):
    """The 60 stored records with every point given as a seeded nonzero
    multiple of itself verify as the stored file does, line for line.
    The hyperconic witness compares its nucleus to the points as given
    (each of the 60 holds its nucleus), so verify must scale the points
    before it derives the claims: on the points as given it finds no
    hyperconic."""
    gf = make_field(5, 0x25)
    rng = random.Random(11)
    recs = [json.loads(line) for line in K12_RESULTS.read_text().splitlines()]
    for rec in recs:
        scalars = [rng.randrange(1, gf.q) for _ in rec["points"]]
        rec["points"] = [[gf.mul(t, x) for x in p] for t, p in zip(scalars, rec["points"])]
    assert sum(p[2] not in (0, 1) for rec in recs for p in rec["points"]) > 500
    path = tmp_path / "rescaled.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    code, out, err = run_cli("verify", str(path))
    assert (code, err) == (EX_OK, "")
    assert out.splitlines()[-1] == "verified=60/60"
    assert out == run_cli("verify", str(K12_RESULTS))[1]


def test_k12_paths_build_one_stack_per_size_group(gf32, monkeypatch):
    """The write path (`_postprocess`) and the read paths (`verify`,
    `classify`) of the 60 stored 12-arcs build each size group's stack
    from Python lists once and hand that array, or slices of it, to every
    kernel: one build in post, one in verify, and in classify one more
    for the deduplicated arcs.  A list kernel given an (n, k, 3) array
    builds nothing."""
    builds = []
    real = arcs_module.stacks_by_size

    def counted(point_sets):
        for idx, stack in real(point_sets):
            if not isinstance(point_sets, np.ndarray):
                builds.append(stack.shape)
            yield idx, stack

    for module in (arcs_module, canon_module, conics_module, search, cli_module):
        monkeypatch.setattr(module, "stacks_by_size", counted)
    recs = [json.loads(line) for line in K12_RESULTS.read_text().splitlines()]
    raw = [tuple(map(tuple, rec["points"])) for rec in recs]
    assert search._postprocess(gf32, 12, raw, search.new_counters())[1] == recs
    assert builds == [(60, 12, 3)]
    builds.clear()
    assert run_cli("verify", str(K12_RESULTS))[0] == EX_OK
    assert builds == [(60, 12, 3)]
    builds.clear()
    assert run_cli("classify", str(K12_RESULTS))[0] == EX_OK
    assert 1 <= len(builds) <= 2
    builds.clear()
    stack = np.array([rec["points"] for rec in recs], dtype=np.int64)
    arcs = make_arcs(gf32, stack)
    assert arcs == [tuple(map(tuple, rec["points"])) for rec in recs]
    assert are_arcs(gf32, stack) == [True] * 60
    assert focus_verdicts(gf32, stack, LINE_AT_INFINITY) == [(HYPERFOCUSED, 11)] * 60
    assert {digest(form) for form in canonical_forms(gf32, stack)} == {recs[0]["digest"]}
    nuclei = [list(w.nucleus) for w in hyperconic_witnesses(gf32, stack)]
    assert nuclei == [rec["nucleus"] for rec in recs]
    assert builds == []


# --- construct --------------------------------------------------------------


def test_construct_translation(tmp_path):
    code, out, _ = run_cli(
        "construct", "translation", "--s", "3", "--gens", "(1,1);(w,w^2)"
    )
    assert code == EX_OK
    rec = json.loads(out)
    assert rec["construction"] == "translation"
    assert rec["k"] == 4
    assert rec["focus_count"] == 3
    assert rec["line"] == [0, 0, 1]
    assert len(rec["digest"]) == 16


def test_construct_translation_bad_gens():
    code, _, err = run_cli(
        "construct", "translation", "--s", "3", "--gens", "(0,1);(0,2)"
    )
    assert code == EX_USAGE
    assert "do not induce an arc" in err
    code, _, _ = run_cli("construct", "translation", "--s", "3")
    assert code == EX_USAGE


def test_construct_double(tmp_path):
    code, out, _ = run_cli(
        "construct", "double", "--s", "3",
        "--gens", "(1,1)", "--shift", "(1,0)",
    )
    assert code == EX_OK
    rec = json.loads(out)
    assert rec["k"] == 4 and rec["focus_count"] == 3


def test_construct_double_shift_on_secant():
    code, _, err = run_cli(
        "construct", "double", "--s", "3",
        "--gens", "(1,1)", "--shift", "(2,2)",
    )
    assert code == EX_USAGE
    assert "doubling failed" in err


def test_construct_double_needs_one_shift():
    """A second --shift pair is a usage error, not an unpacking ValueError."""
    code, out, err = run_cli(
        "construct", "double", "--s", "3",
        "--gens", "(1,0)", "--shift", "(1,1);(0,1)",
    )
    assert (code, out) == (EX_USAGE, "")
    assert err == "usage error: double needs exactly one --shift pair\n"


def test_construct_hyperoval(tmp_path):
    out_path = tmp_path / "oval.jsonl"
    code, out, _ = run_cli(
        "construct", "hyperoval", "--s", "5", "--modulus", "0x25",
        "--i", "1", "--out", str(out_path),
    )
    assert code == EX_OK
    rec = json.loads(out)
    assert rec["k"] == 34
    assert rec["focus_count"] == 33
    assert rec["sampled_exterior_lines"] == 5
    assert out_path.read_text().strip() == out.strip()


def test_construct_hyperoval_derives_the_claims_once(monkeypatch):
    """construct hyperoval checks k - 1 focuses on each of its five
    sampled lines, and derives the record's claims, digest included, on
    the first one only: one canonical-form call, not one per line."""
    forms, checked = [], []

    def counted_forms(gf, arcs, line):
        forms.append(line)
        return canonical_forms(gf, arcs, line)

    def counted_focus(gf, arc, line):
        checked.append(line)
        return classify_focus(gf, arc, line)

    monkeypatch.setattr(search, "canonical_forms", counted_forms)
    monkeypatch.setattr(cli_module, "classify_focus", counted_focus)
    code, out, _ = run_cli("construct", "hyperoval", "--s", "5", "--i", "1")
    assert code == EX_OK
    rec = json.loads(out)
    assert forms == checked[:1] == [tuple(rec["line"])]
    assert len(set(checked)) == rec["sampled_exterior_lines"] == 5


def test_construct_hyperoval_roundtrip_q8(gf8, tmp_path):
    """The hyperoval record names the first exterior line it sampled and
    carries its digest on that line, so verify passes it."""
    path = tmp_path / "oval.jsonl"
    code, out, _ = run_cli("construct", "hyperoval", "--s", "3", "--i", "1", "--out", str(path))
    assert code == EX_OK
    rec = json.loads(out)
    assert rec["line"] == [1, 1, 1] and rec["k"] == 10 and rec["focus_count"] == 9
    assert rec["digest"] == arc_digest(gf8, make_arc(gf8, rec["points"]), (1, 1, 1))
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_OK
    assert out.splitlines()[-1] == "verified=1/1"


@pytest.mark.parametrize(
    "argv, k",
    [
        (["translation", "--gens", "(1,1)"], 2),
        (["translation", "--gens", "(0,0)"], 1),
        (["double", "--gens", "(0,0)", "--shift", "(1,1)"], 2),
    ],
)
def test_construct_below_three_points_has_null_digest(tmp_path, argv, k):
    """A translation arc of 1 or 2 points is printed with a null digest,
    exit 0, and verify passes the record."""
    path = tmp_path / "small.jsonl"
    code, out, err = run_cli("construct", *argv, "--s", "3", "--out", str(path))
    assert (code, err) == (EX_OK, "")
    rec = json.loads(out)
    assert rec["digest"] is None
    assert (rec["k"], rec["focus_count"], rec["line"]) == (k, k - 1, [0, 0, 1])
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_OK
    assert out.splitlines()[-1] == "verified=1/1"


def test_construct_hyperoval_bad_exponent():
    assert run_cli("construct", "hyperoval", "--s", "5", "--i", "0")[0] == EX_USAGE
    assert run_cli("construct", "hyperoval", "--s", "4", "--i", "2")[0] == EX_USAGE
    assert run_cli("construct", "hyperoval", "--s", "5")[0] == EX_USAGE


# --- field-dump and argument plumbing ---------------------------------------


def test_field_dump():
    code, out, _ = run_cli("field-dump", "--s", "2")
    assert code == EX_OK
    lines = out.splitlines()
    assert lines[0] == "s=2 q=4 modulus=0x7 omega=2"
    assert lines[1:] == [
        "i=0 w^i=1 hex=0x1",
        "i=1 w^i=2 hex=0x2",
        "i=2 w^i=3 hex=0x3",
    ]


def test_unknown_command():
    code, _, _ = run_cli("frobnicate")
    assert code == EX_USAGE


def test_verify_cli_after_construct_roundtrip(tmp_path):
    path = tmp_path / "arc.jsonl"
    code, _, _ = run_cli(
        "construct", "translation", "--s", "5", "--modulus", "0x25",
        "--gens", "(1,1);(w,w^2);(w^2,w^4)", "--out", str(path),
    )
    assert code == EX_OK
    code, out, _ = run_cli("verify", str(path))
    assert code == EX_OK
    assert "verified=1/1" in out
