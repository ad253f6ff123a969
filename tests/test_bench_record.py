"""The committed benchmark trajectory: every BENCH_*.json conforms to bench/record.py."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _writer():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_trajectory_record_is_committed():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_committed_record_conforms_to_the_schema(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert _writer().check_record(doc) == []


def test_schema_check_names_what_a_record_lacks():
    writer = _writer()
    doc = json.loads(RECORDS[-1].read_text(encoding="utf-8"))
    short = copy.deepcopy(doc)
    del short["workloads"]["train"]
    assert writer.check_record(short) == ["workloads does not hold exactly sweep, verify, train, powopt"]
    few = copy.deepcopy(doc)
    few["workloads"]["sweep"]["runs"] = few["workloads"]["sweep"]["runs"][:2]
    assert writer.check_record(few) == ["sweep.runs holds fewer than 3 untraced runs"]
    stale = copy.deepcopy(doc)
    stale["workloads"]["verify"]["digest"] = "0" * 64
    assert writer.check_record(stale) == ["verify.digest is not the digest of its seed-1 run"]
