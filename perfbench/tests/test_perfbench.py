"""Tests of the benchmark itself (smoke size; ~1 minute).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import pathlib
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench import run  # noqa: E402  (puts src/ on the path)
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import NAMES, build_plan  # noqa: E402
from repro.sql.normalize import raw_key  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def names(section):
    return [entry["name"] for entry in BENCHMARK[section]]


def test_benchmark_json_names_the_four_workloads():
    assert names("workloads") == list(NAMES)
    assert "setup_s" in names("end_to_end")
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_carries_exactly_the_declared_metrics(trace, section, capsys):
    code = run.main([
        "--workload", "tpcc_steady", "--seed", "3", "--seconds", "1.5",
        "--trace", str(trace), "--smoke",
    ])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert list(result["metrics"]) == names(section)
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert all(
        value["unit"] == units[name]
        for name, value in result["metrics"].items()
    )
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert result["correct"] and code == 0


def test_adhoc_stream_is_deterministic_and_larger_than_the_caches():
    first = build_plan("adhoc_churn", 5)
    again = build_plan("adhoc_churn", 5)
    other = build_plan("adhoc_churn", 6)
    assert first.stream == again.stream and first.warmup == again.warmup
    assert first.stream != other.stream
    keys = {raw_key(sql) for _, batch in first.stream for sql in batch}
    capacity = 5000  # AutoIndexAdvisor's template_capacity default
    assert len(keys) > 4096 and len(keys) > capacity


def test_unparsable_statement_fails_the_run(monkeypatch, capsys):
    def poisoned(name, seed, scale=1.0):
        plan = build_plan(name, seed, scale)
        plan.stream[0][1][0] = "SELEC this is not sql"
        return plan

    monkeypatch.setattr(run, "build_plan", poisoned)
    code = run.main([
        "--workload", "tpcc_steady", "--seed", "3", "--seconds", "1.0",
        "--smoke",
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] > 0 and not result["correct"]
    assert code != 0


def test_trace_self_times_sum_to_the_root_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_timed = tracer.timed(leaf, "leaf", keep=False)

    def middle():
        time.sleep(0.001)
        leaf_timed()
        leaf_timed()

    middle_timed = tracer.timed(middle, "middle")

    def root():
        middle_timed()
        time.sleep(0.001)
        middle_timed()

    tracer.timed(root, "root")()
    total_self = sum(tracer.self_ms(n) for n in ("root", "middle", "leaf"))
    assert total_self == pytest.approx(tracer.ms("root"), rel=0.01)
    assert tracer.calls("leaf") == 4 and tracer.calls("middle") == 2
    by_id = {span[0]: span for span in tracer.spans}
    root_span = next(s for s in tracer.spans if s[2] == "root")
    assert all(
        by_id[s[1]] is root_span for s in tracer.spans if s[2] == "middle"
    )

    assert tracer.durations_ms("middle") and not tracer.durations_ms("leaf")
