"""End-to-end and per-layer metrics computed from one measured run.

Pure functions over measure.py's JSON output (and, for traced runs, the
spool directories it left), so the tests can feed them synthetic runs.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

from layers import LAYERS, Spool, attribute, hist_median, sum_error

# name -> (unit, better).  failed_frac is printed with the others but is
# not a BENCHMARK.json metric: it is 0 on a healthy run, and the result
# line carries it as its ``failed``/``attempted`` counts.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "latency_s_p50": ("s", "lower"),
    "latency_s_tail": ("s", "lower"),
    "par2_s": ("s", "lower"),
    "solved_frac": ("fraction", "higher"),
    "failed_frac": ("fraction", "lower"),
    "tasks_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
GATED_END_TO_END = tuple(name for name in END_TO_END if name != "failed_frac")

# Self time per layer, in wall-equivalent seconds per pass (see layers.py).
_LAYER_ROWS: Dict[str, str] = {
    "aiger.parse": "aiger.parse_s",
    "aiger.digest": "aiger.digest_s",
    "reduce": "reduce.s",
    "ts": "ts.encode_s",
    "sat": "sat.solve_s",
    "core": "core.s",
    "core.generalize": "core.generalize_s",
    "core.predict": "core.predict_s",
    "core.invariant": "core.invariant.validate_s",
    "engines.build": "engines.build_s",
    "engines": "engines.s",
    "harness": "harness.s",
    "serve": "serve.s",
    "obs": "obs.s",
}
assert set(_LAYER_ROWS) == set(LAYERS)

# name -> (unit, better).  Work counts are better lower; rates of useful
# outcomes (prediction success, cache hits, useful imports) better higher.
PER_LAYER: Dict[str, Tuple[str, str]] = {row: ("s", "lower") for row in _LAYER_ROWS.values()}
PER_LAYER.update({
    "unattributed_s": ("s", "lower"),
    "unattributed_frac": ("fraction", "lower"),
    "engines.check_s": ("s", "lower"),
    "engines.check_frac": ("fraction", "higher"),
    "attribution.sum_err_frac": ("fraction", "lower"),
    "sat.calls": ("count", "lower"),
    "sat.solve_us_p50": ("us", "lower"),
    "sat.conflicts": ("count", "lower"),
    "sat.propagations": ("count", "lower"),
    "core.generalize.calls": ("count", "lower"),
    "core.mic.drop_attempts": ("count", "lower"),
    "core.mic.drop_success_frac": ("fraction", "higher"),
    "core.predict.queries": ("count", "lower"),
    "core.predict.successes": ("count", "higher"),
    "core.predict.sr_lp": ("fraction", "higher"),
    "core.predict.sr_fp": ("fraction", "higher"),
    "core.predict.sr_adv": ("fraction", "higher"),
    "core.pl_par2_ratio.RIC3": ("ratio", "lower"),
    "core.pl_par2_ratio.IC3ref": ("ratio", "lower"),
    "core.propagate_s": ("s", "lower"),
    "core.consecution.calls": ("count", "lower"),
    "core.lemmas": ("count", "lower"),
    "core.obligations": ("count", "lower"),
    "core.frames": ("count", "lower"),
    "harness.dispatch_s": ("s", "lower"),
    "harness.processes": ("count", "lower"),
    "harness.overhead_frac": ("fraction", "lower"),
    "reduce.latch_ratio": ("ratio", "lower"),
    "serve.post_s_p50": ("s", "lower"),
    "serve.queue_wait_s_p50": ("s", "lower"),
    "serve.cache_hit_frac": ("fraction", "higher"),
    "serve.rejected_frac": ("fraction", "lower"),
    "serve.worker_replacements": ("count", "lower"),
    "engines.portfolio.members_spawned": ("count", "lower"),
    "engines.portfolio.lemmas_published": ("count", "lower"),
    "engines.portfolio.lemmas_imported": ("count", "higher"),
    "engines.portfolio.import_useful_frac": ("fraction", "higher"),
    "engines.portfolio.import_validation_s": ("s", "lower"),
    "engines.portfolio.winner_ic3_frac": ("fraction", "higher"),
    "obs.trace_overhead_frac": ("fraction", "lower"),
})

# Times of layers that only some workloads touch.  They are 0 on every run
# of the others, and a time that reads the same on every run is not a
# measurement, so they are printed but left out of BENCHMARK.json.
WORKLOAD_SPECIFIC = (
    "aiger.parse_s",
    "aiger.digest_s",
    "serve.s",
    "serve.post_s_p50",
    "serve.queue_wait_s_p50",
    "harness.s",
    "harness.dispatch_s",
    "core.invariant.validate_s",
    "engines.portfolio.import_validation_s",
)
GATED_PER_LAYER = tuple(name for name in PER_LAYER if name not in WORKLOAD_SPECIFIC)

SUM_TOLERANCE = 0.01
"""Layers plus unattributed must equal wall_s within this share of it."""


# ----------------------------------------------------------------------
def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> int:
    """Highest whole percentile that leaves at least ten samples beyond it.

    Below 20 samples that percentile would not even reach the median, so
    the maximum (100) is used instead; the output header names the choice.
    """
    if count < 20:
        return 100
    return math.floor(100.0 * (count - 10) / count)


def _sum(tasks, key: str) -> float:
    return float(sum(float(task["stats"].get(key, 0) or 0) for task in tasks))


def _frac(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def par2(tasks, limit: float) -> float:
    """PAR-2 over tasks: runtime if solved, twice the limit otherwise."""
    return sum(
        task["runtime_s"] if task["result"] in ("safe", "unsafe") else 2.0 * limit
        for task in tasks
    )


def _solving(tasks) -> List[dict]:
    """Tasks that ran an engine (serve cache hits did not)."""
    return [task for task in tasks if not task["cache_hit"]]


def _failed(task: dict) -> bool:
    return task["failure"] is not None


def end_to_end(run: dict, setup_samples: Sequence[float]) -> Tuple[Dict[str, float], dict]:
    """The end-to-end metrics of an untraced run, plus a small note record."""
    passes = run["passes"]
    tasks = [task for item in passes for task in item["tasks"]]
    latencies = [task["latency_s"] for task in tasks]
    tail_p = tail_percentile(len(latencies))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(item["t1"] - item["t0"] for item in passes),
        "latency_s_p50": statistics.median(latencies),
        "latency_s_tail": percentile(latencies, tail_p),
        "par2_s": statistics.median(
            par2(_solving(item["tasks"]), run["limit_s"]) for item in passes
        ),
        "solved_frac": _frac(
            sum(task["result"] in ("safe", "unsafe") for task in tasks), len(tasks)
        ),
        "failed_frac": _frac(sum(_failed(task) for task in tasks), len(tasks)),
        "tasks_per_s": statistics.median(
            len(item["tasks"]) / (item["t1"] - item["t0"]) for item in passes
        ),
        "cpu_s": statistics.median(item["cpu_s"] for item in passes),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "passes": len(passes),
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail_p,
        "setup_samples": len(setup_samples),
    }
    return metrics, notes


def _is_prediction(task: dict) -> bool:
    if task["config"] == "portfolio":
        return (task.get("winner") or "").startswith("ic3-pl")
    return task["config"].endswith("-pl")


def _task_metrics(tasks: List[dict], limit: float) -> Dict[str, float]:
    """Per-pass sums and ratios read from each task's engine statistics."""
    solving = _solving(tasks)
    predicting = [task for task in solving if _is_prediction(task)]
    n_g = _sum(predicting, "generalizations")
    n_p = _sum(predicting, "prediction_queries")
    n_sp = _sum(predicting, "prediction_successes")
    by_config: Dict[str, List[dict]] = {}
    for task in solving:
        by_config.setdefault(task["config"], []).append(task)

    def pl_ratio(base: str) -> float:
        if base not in by_config or base + "-pl" not in by_config:
            return 0.0
        return _frac(par2(by_config[base + "-pl"], limit), par2(by_config[base], limit))

    reductions = [task["reduction"] for task in solving if task.get("reduction")]
    sharing = [task["sharing"] for task in solving if task.get("sharing")]
    members = [member for summary in sharing for member in summary["members"].values()]
    overheads = [task["latency_s"] - task["runtime_s"] for task in solving]
    posts = [task["post_s"] for task in tasks if task["post_s"]]
    fresh = [task for task in tasks if task["post_s"] and not task["cache_hit"]]
    races = [task for task in solving if task["config"] == "portfolio"]
    return {
        "sat.calls": _sum(solving, "sat_calls"),
        "sat.conflicts": _sum(solving, "solver_conflicts"),
        "sat.propagations": _sum(solving, "solver_propagations"),
        "core.generalize.calls": _sum(solving, "generalizations"),
        "core.mic.drop_attempts": _sum(solving, "mic_drop_attempts"),
        "core.mic.drop_success_frac": _frac(
            _sum(solving, "mic_drop_successes"), _sum(solving, "mic_drop_attempts")
        ),
        "core.predict.queries": _sum(solving, "prediction_queries"),
        "core.predict.successes": _sum(solving, "prediction_successes"),
        "core.predict.sr_lp": _frac(n_sp, n_p),
        "core.predict.sr_fp": _frac(_sum(predicting, "parent_lemma_hits"), n_g),
        "core.predict.sr_adv": _frac(n_sp, n_g),
        "core.pl_par2_ratio.RIC3": pl_ratio("RIC3"),
        "core.pl_par2_ratio.IC3ref": pl_ratio("IC3ref"),
        "core.propagate_s": _sum(solving, "time_propagation"),
        "core.consecution.calls": _sum(solving, "consecution_calls"),
        "core.lemmas": _sum(solving, "lemmas_added"),
        "core.obligations": _sum(solving, "obligations_processed"),
        "core.frames": float(sum(task["frames"] for task in solving)),
        "harness.dispatch_s": statistics.median(overheads) if overheads else 0.0,
        "harness.overhead_frac": _frac(
            sum(overheads), sum(task["latency_s"] for task in solving)
        ),
        "reduce.latch_ratio": _frac(
            sum(r["reduced"]["latches"] for r in reductions),
            sum(r["original"]["latches"] for r in reductions),
        ),
        "serve.post_s_p50": statistics.median(posts) if posts else 0.0,
        "serve.queue_wait_s_p50": (
            statistics.median(t["queue_wait_s"] for t in fresh) if fresh else 0.0
        ),
        "serve.cache_hit_frac": _frac(sum(t["cache_hit"] for t in tasks), len(tasks)),
        "serve.rejected_frac": _frac(
            sum((t["failure"] or "").startswith(("HTTP 429", "HTTP 503")) for t in tasks),
            len(tasks),
        ),
        "engines.portfolio.lemmas_published": float(
            sum(summary["bus_published"] for summary in sharing)
        ),
        "engines.portfolio.lemmas_imported": float(
            sum(member["lemmas_imported"] for member in members)
        ),
        "engines.portfolio.import_useful_frac": _frac(
            sum(member["lemmas_imported"] for member in members),
            sum(member["lemmas_received"] for member in members),
        ),
        "engines.portfolio.import_validation_s": _sum(races, "time_import_validation"),
        "engines.portfolio.winner_ic3_frac": _frac(
            sum((t.get("winner") or "").startswith("ic3") for t in races), len(races)
        ),
    }


def _layer_metrics(item: dict) -> Tuple[Dict[str, float], Spool]:
    spool = Spool(item["spool"])
    totals = attribute(spool.bins, [(item["t0"], item["t1"])])
    wall = totals["wall"]
    metrics = {row: totals[layer] for layer, row in _LAYER_ROWS.items()}
    metrics.update({
        "unattributed_s": totals["unattributed"],
        "unattributed_frac": _frac(totals["unattributed"], wall),
        "engines.check_s": totals["engines.check"],
        "engines.check_frac": _frac(totals["engines.check"], wall),
        "attribution.sum_err_frac": sum_error(totals),
        "harness.processes": float(len(spool.pids)),
        "engines.portfolio.members_spawned": float(spool.roots.get("_run_member", 0)),
        "serve.worker_replacements": float(item["extra"].get("worker_recycles", 0.0)),
    })
    return metrics, spool


def _mean(rows: Iterable[Dict[str, float]]) -> Dict[str, float]:
    rows = list(rows)
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}


def per_layer(run: dict) -> Dict[str, float]:
    """The per-layer metrics of a traced run (means over its traced passes)."""
    passes = run["passes"]
    rows = []
    hist: Dict[int, int] = {}
    for item in passes:
        row, spool = _layer_metrics(item)
        row.update(_task_metrics(item["tasks"], run["limit_s"]))
        rows.append(row)
        for bucket, count in spool.hist.items():
            hist[bucket] = hist.get(bucket, 0) + count
    metrics = _mean(rows)
    metrics["sat.solve_us_p50"] = hist_median(hist)
    traced = statistics.median(item["t1"] - item["t0"] for item in passes)
    untraced = statistics.median(item["t1"] - item["t0"] for item in run["baseline"])
    metrics["obs.trace_overhead_frac"] = traced / untraced - 1.0
    return metrics


def count_outcomes(run: dict) -> Tuple[int, int]:
    """(attempted, failed) over every pass, the untraced baseline included."""
    tasks = [t for item in run["passes"] + run["baseline"] for t in item["tasks"]]
    return len(tasks), sum(_failed(task) for task in tasks)


def _listed(run: dict, key: str, limit: int) -> List[str]:
    found = []
    for item in run["passes"] + run["baseline"]:
        for task in item["tasks"]:
            if task[key] is not None:
                found.append(f"{task['config']} {task['name']}: {task[key]}")
    return found[:limit]


def failures(run: dict, limit: int = 10) -> List[str]:
    """The first ``limit`` failed tasks, one line each."""
    return _listed(run, "failure", limit)


def unchecked(run: dict, limit: int = 10) -> List[str]:
    """Solved tasks whose witness no validator could check."""
    return _listed(run, "unchecked", limit)
