"""Shared fixtures: fields, exhaustive small-q enumerations, full runs,
and a count of the canon kernel's runs.

The expensive artifacts (the q=8 exhaustive hyperfocused-arc list, its
nested-arc check and the two full q=32 searches) are session-scoped so
the acceptance tests and the module tests share one computation.
"""

import pytest

from hyperfocus import canon
from hyperfocus.field import make_field
from hyperfocus.plane import LINE_AT_INFINITY
from hyperfocus.search import SearchConfig, run_search

from oracles import assert_no_nested_hyperfocused, enumerate_hyperfocused

# criterion number -> (description, passed)
_ACCEPTANCE: dict = {}


def record_criterion(num: int, description: str, passed: bool) -> None:
    _ACCEPTANCE[num] = (description, passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        desc, ok = _ACCEPTANCE[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num}: {verdict} - {desc}")


@pytest.fixture(scope="session")
def gf4():
    return make_field(2)


@pytest.fixture(scope="session")
def gf8():
    return make_field(3)


@pytest.fixture(scope="session")
def gf16():
    return make_field(4)


@pytest.fixture(scope="session")
def gf32():
    return make_field(5, 0x25)


@pytest.fixture(scope="session")
def q8_hyperfocused(gf8):
    """Every hyperfocused arc of PG(2,8) on the line Z=0."""
    return enumerate_hyperfocused(gf8, LINE_AT_INFINITY)


@pytest.fixture(scope="session")
def q4_hyperfocused(gf4):
    return enumerate_hyperfocused(gf4, LINE_AT_INFINITY)


@pytest.fixture(scope="session")
def nested_arc_checks(gf4, gf8, q4_hyperfocused, q8_hyperfocused):
    """q -> number of sub-arcs the nested-arc bound was checked on, over
    every hyperfocused arc of PG(2,q) on Z=0 (it raises on a violation)."""
    return {
        4: assert_no_nested_hyperfocused(gf4, q4_hyperfocused),
        8: assert_no_nested_hyperfocused(gf8, q8_hyperfocused),
    }


@pytest.fixture(scope="session")
def k12_run(gf32, tmp_path_factory):
    """The full q=32, k=12 classification run (single worker)."""
    root = tmp_path_factory.mktemp("k12")
    out = root / "k12.jsonl"
    report = run_search(
        gf32, 12, SearchConfig(workers=1, output=str(out), checkpoint=None)
    )
    return report, out.read_bytes()


@pytest.fixture(scope="session")
def k14_run(gf32, tmp_path_factory):
    """The full q=32, k=14 run (single worker)."""
    root = tmp_path_factory.mktemp("k14")
    out = root / "k14.jsonl"
    report = run_search(
        gf32, 14, SearchConfig(workers=1, output=str(out), checkpoint=None)
    )
    return report, out.read_bytes()


@pytest.fixture
def kernel_calls(monkeypatch):
    """The size of each arc the full all-triples canon kernel runs on."""
    calls = []
    kernel = canon._kernel

    def counted(gf, x, y):
        calls.append(len(x))
        return kernel(gf, x, y)

    monkeypatch.setattr(canon, "_kernel", counted)
    return calls
