"""Tests of the benchmark harness itself (not part of the library suite).

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

import metrics
import run
import spans
import speed

run.import_working_tree()
import workloads  # noqa: E402  (needs the working tree on sys.path)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    jobs_a = workloads.build(workload, 7, tmp_path / "a")
    jobs_b = workloads.build(workload, 7, tmp_path / "b")
    workloads.build(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a and a == b
    assert [j.id for j in jobs_a] == [j.id for j in jobs_b]
    assert any(a[name] != c[name] for name in a)


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER]
    assert bench["paths"] == ["bench"]


def test_jobs_run_the_module_not_the_console_script():
    assert run.CLI == ("-m", "groupfair.cli")
    assert Path(sys.modules["groupfair"].__file__).is_relative_to(run.SRC)


def test_self_times_partition_the_root():
    s = [spans.Span("cli.main", "j", 0.0, 10.0),
         spans.Span("model.parse_instance", "j", 1.0, 3.0, parent=0),
         spans.Span("protocols.rwav2", "j", 4.0, 9.0, parent=0),
         spans.Span("fairness.democratic_report", "j", 7.0, 8.5, parent=2)]
    spans.assign_self_times(s)
    assert [x.self_s for x in s] == [3.0, 2.0, 3.5, 1.5]
    assert spans.check_accounting(s)["j"]["self_sum_s"] == 10.0


def test_recorder_wraps_bound_names_and_restores_them():
    from groupfair import cli, model

    original = model.parse_instance
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert cli.parse_instance is model.parse_instance is not original
        recorder.job = "t"
        text = '{"goods": ["a"], "groups": [[{"type": "binary", "desired": ["a"]}]]}'
        cli.parse_instance(text)
        recorder.count()
    finally:
        recorder.uninstall()
    assert recorder.spans[0].counts == {"input_bytes": len(text)}
    assert cli.parse_instance is model.parse_instance is original
    assert [(x.name, x.job) for x in recorder.spans] == [("model.parse_instance", "t")]
    assert spans.missing_spans(recorder.spans, "t", ("model.parse_instance", "cli.main")) == [
        "cli.main"]


def test_end_to_end_divides_each_time_by_the_slowdown_around_it():
    def row(wall, slow):
        return {"probes": [{"wall_s": 0.2 * slow, "slow": (slow, slow)}],
                "jobs": {"a": {"wall_s": wall * slow, "cpu_s": wall * slow,
                               "rss_mb": 40.0, "slow": (slow, slow)}}}

    rows = [row(1.0, 1.0), row(1.0, 1.5), row(1.1, 1.2)]
    assert run.end_to_end(rows) == pytest.approx(
        {"wall_s": 1.0, "cpu_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 40.0})
    assert run.end_to_end(rows, scaled=False)["wall_s"] == pytest.approx(1.32)


def test_host_slowdown_is_positive():
    wall, cpu = speed.measure()
    assert wall > 0 and cpu > 0
