"""Every CLI command against committed goldens (tests/golden/).

The cases, the comparison rules and the script that rewrites the
goldens after an intended output change live in tests/golden/regen.py.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

GOLDEN_STREAMS = {r["name"]: r for r in json.loads(regen.STREAMS.read_text())}
GOLDEN_FILES = sorted(p.name for p in regen.FILES.iterdir())


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """({case name: record}, {file name: bytes}) of one run of every case."""
    workdir = tmp_path_factory.mktemp("golden")
    shutil.copy(regen.HERE / regen.INPUT, workdir)
    records = regen.run_cases(workdir)
    return {r["name"]: r for r in records}, regen.written_files(workdir)


def test_every_case_has_a_golden():
    assert [name for name, _ in regen.CASES] == list(GOLDEN_STREAMS)


@pytest.mark.parametrize("name", list(GOLDEN_STREAMS))
def test_exit_code_and_streams_match(run, name):
    records, _ = run
    assert records[name] == GOLDEN_STREAMS[name]


def test_the_cases_write_exactly_the_golden_files(run):
    _, files = run
    assert sorted(files) == GOLDEN_FILES


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_written_file_matches(run, name):
    _, files = run
    golden = (regen.FILES / name).read_bytes()
    assert regen.largest_change(name, golden, files.get(name, b"")) is None


@pytest.mark.parametrize(
    ("name", "golden", "actual", "same"),
    [
        ("a.csv", b"x,1.5\n", b"x,1.5000000000001\n", True),
        ("a.csv", b"x,1.5\n", b"x,1.50000000001\n", False),
        ("a.csv", b"x,0\n", b"x,9e-14\n", True),
        ("a.csv", b"x,0\n", b"x,2e-13\n", False),
        ("a.csv", b"x,1\n", b"y,1\n", False),
        ("a.dirm", b"coef 1 2\n", b"coef 1 2 3\n", False),
        ("a.svg", b"<x y='1.5'/>", b"<x y='1.5000000000001'/>", False),
        ("a.dird", b"ir 1.5\n", b"ir 1.5000000000000002\n", False),
    ],
)
def test_comparison_rules(name, golden, actual, same):
    assert (regen.largest_change(name, golden, actual) is None) is same
