"""Tests of the benchmark itself: seeded inputs, metric names, the verdict gate."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import measure  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, attribute, sum_error  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.stream_fingerprint(workload, 7) == workloads.stream_fingerprint(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_give_different_streams(workload):
    fingerprints = {workloads.stream_fingerprint(workload, seed) for seed in range(6)}
    assert len(fingerprints) > 1


def test_serve_stream_seed_changes_order_and_renumbering():
    first, second = workloads.serve_stream(1), workloads.serve_stream(2)
    assert [job.text for job in first] != [job.text for job in second]


def test_resubmissions_are_isomorphic_and_follow_their_original():
    from repro.aiger.parser import parse_aiger

    stream = workloads.serve_stream(3)
    resubmissions = [job for job in stream if job.is_resubmission]
    assert len(resubmissions) == sum(not job.is_resubmission for job in stream) // 2
    for job in resubmissions:
        origin = stream[job.resubmits]
        assert not origin.is_resubmission
        assert job.index - origin.index >= workloads.SERVE_RESUB_LAG
        assert job.text != origin.text
        assert (
            parse_aiger(job.text).structural_digest()
            == parse_aiger(origin.text).structural_digest()
        )


def test_paper_medium_runs_the_heavy_case_first():
    for seed in range(5):
        for pass_index in range(3):
            cases, configs = workloads.paper_medium_inputs(seed, pass_index)
            assert cases[0].name in workloads.PAPER_MEDIUM_HEAVY
            assert len(configs) == 6


# ----------------------------------------------------------------------
# Metric names and units
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    spec = _benchmark_json()
    end_to_end = {entry["name"]: entry for entry in spec["end_to_end"]}
    per_layer = {entry["name"]: entry for entry in spec["per_layer"]}
    assert set(end_to_end) == set(metrics.GATED_END_TO_END)
    assert set(per_layer) == set(metrics.GATED_PER_LAYER)
    for name, entry in end_to_end.items():
        assert entry["unit"] == metrics.END_TO_END[name][0]
        assert entry["better"] == metrics.END_TO_END[name][1]
        assert 0 < entry["bound"] <= 0.25
    for name, entry in per_layer.items():
        assert (entry["unit"], entry["better"]) == metrics.PER_LAYER[name]
    assert end_to_end["setup_s"]["bound"] == max(e["bound"] for e in end_to_end.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in list(end_to_end) + list(per_layer) + [w["name"] for w in spec["workloads"]]:
        assert NAME.match(name), name
    for entry in list(end_to_end.values()) + list(per_layer.values()):
        assert UNIT.match(entry["unit"]), entry


def _run_benchmark(trace: int):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # run.py points PYTHONPATH at the checkout's src/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quick-batch",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(trace):
    spec = _benchmark_json()
    lines, result = _run_benchmark(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in expected}
    for entry in expected:
        reported = result["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert isinstance(reported["value"], (int, float))
    # The human-readable record lists all ten end-to-end metrics, failed_frac
    # too, and with --trace 1 every per-layer metric.
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert set(metrics.END_TO_END) <= printed
    if trace:
        assert set(metrics.PER_LAYER) <= printed
    if trace:
        values = {name: item["value"] for name, item in result["metrics"].items()}
        assert values["attribution.sum_err_frac"] <= metrics.SUM_TOLERANCE
        assert values["engines.check_frac"] < 0.5  # quick-batch is overhead-bound


def test_missing_program_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "quick-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# The verdict gate
# ----------------------------------------------------------------------
class _LyingEngine:
    """Answers UNSAFE for every model, without a trace."""

    name = "perfbench-liar"

    def __init__(self, aig, **_kwargs):
        self.aig = aig

    def check(self, time_limit=None):
        from repro.core.result import CheckOutcome, CheckResult

        return CheckOutcome(result=CheckResult.UNSAFE, engine=self.name)


def test_wrong_verdict_from_a_fake_engine_counts_as_failed():
    from repro.benchgen.registers import token_ring
    from repro.engines import register_engine
    from repro.harness.configs import EngineConfig

    register_engine("perfbench-liar", _LyingEngine, overwrite=True)
    workload = measure.HarnessWorkload("quick-batch", seed=0)
    workload.cases = [token_ring(3, safe=True), token_ring(3, safe=False)]
    workload.configs = [EngineConfig(name="liar", engine="perfbench-liar")]
    run = {
        "passes": [measure._pass_record(workload.run_pass(None))],
        "baseline": [],
        "peak_rss_mb": 1.0,
        "limit_s": workload.limit,
    }
    e2e, _notes = metrics.end_to_end(run, [0.1])
    # The SAFE case gets a wrong verdict; the UNSAFE one has no trace to check.
    assert e2e["failed_frac"] == 1.0
    assert metrics.count_outcomes(run) == (2, 2)
    reasons = metrics.failures(run)
    assert any("wrong verdict" in line for line in reasons)
    assert any("no witness" in line for line in reasons)


def test_classify_accepts_a_validated_correct_verdict():
    task = measure.Task(name="c", config="x", expected="safe", result="safe",
                       latency_s=1.0, runtime_s=1.0)
    assert measure.classify(task, True).failure is None
    assert measure.classify(task, False).failure is not None


# ----------------------------------------------------------------------
# Attribution arithmetic
# ----------------------------------------------------------------------
def test_attribution_sums_to_wall_and_splits_contended_bins():
    from layers import BIN_S, _SLOTS

    sat = 2 * LAYERS.index("sat") + 1
    harness = 2 * LAYERS.index("harness")
    busy = [0.0] * _SLOTS
    busy[sat] = 2 * BIN_S  # two workers in SAT for a whole bin
    half = [0.0] * _SLOTS
    half[harness] = BIN_S / 2
    totals = attribute({100: busy, 101: half}, [(100 * BIN_S, 103 * BIN_S)])
    assert totals["sat"] == pytest.approx(BIN_S)
    assert totals["engines.check"] == pytest.approx(BIN_S)
    assert totals["harness"] == pytest.approx(BIN_S / 2)
    assert totals["unattributed"] == pytest.approx(1.5 * BIN_S)
    assert sum_error(totals) == pytest.approx(0.0, abs=1e-12)


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in (20, 24, 120, 1728):
        p = metrics.tail_percentile(count)
        values = list(range(count))
        assert sum(v > metrics.percentile(values, p) for v in values) >= 10
        assert sum(v > metrics.percentile(values, p + 1) for v in values) < 10
    assert metrics.tail_percentile(19) == 100
