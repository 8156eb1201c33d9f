"""Calibrate the medium case pools of ``paper-medium`` and ``portfolio-medium``.

Runs every candidate case under every paper configuration (and under the
default portfolio) through :class:`~repro.harness.runner.BenchmarkRunner`
at ``jobs=2`` and records, per (case, configuration), the verdict and the
engine runtime, plus the rule that kept or excluded the case.  The
committed ``calibration.json`` is the output of::

    PYTHONPATH=src python3 perfbench/calibrate.py --output perfbench/calibration.json

A case is in band when every configuration decides it correctly within
``[MIN_S, MAX_S]`` seconds and no configuration comes within
``NEAR_LIMIT_FRAC`` of the calibration time limit (a case that sometimes
times out would make ``solved_frac`` flip from run to run).  The pools in
``workloads.py`` take their cases from the in-band ones; ``selected``
marks them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    MEDIUM_CANDIDATES,
    PAPER_MEDIUM_POOL,
    PORTFOLIO_CANDIDATES,
    PORTFOLIO_MEDIUM_POOL,
    build_case,
)

JOBS = 2  # as in the workloads
LIMIT_S = 20.0
MIN_S = 0.2
MAX_S = 10.0
NEAR_LIMIT_FRAC = 0.5


def _measure(case_names, configs):
    from repro.harness.runner import BenchmarkRunner

    cases = [build_case(name) for name in case_names]
    suite = BenchmarkRunner(cases, configs, timeout=LIMIT_S, jobs=JOBS).run()
    table = {}
    for result in suite.results:
        table.setdefault(result.case_name, {})[result.config_name] = {
            "result": result.result.value,
            "expected": result.expected.value if result.expected else None,
            "runtime_s": round(result.runtime, 3),
        }
        if result.winner:
            table[result.case_name][result.config_name]["winner"] = result.winner
    return table


def _verdict(per_config):
    times = [entry["runtime_s"] for entry in per_config.values()]
    timed_out = sorted(n for n, e in per_config.items() if e["result"] == "unknown")
    if timed_out:
        return False, (
            f"near the limit: {len(timed_out)} of {len(per_config)} configurations "
            f"timed out at {LIMIT_S:.0f}s ({', '.join(timed_out)})"
        )
    for name, entry in per_config.items():
        if entry["result"] != entry["expected"]:
            return False, f"{name} returned {entry['result']} (expected {entry['expected']})"
    if max(times) >= NEAR_LIMIT_FRAC * LIMIT_S:
        return False, f"near the limit: slowest configuration {max(times):.2f}s"
    if min(times) < MIN_S:
        return False, f"too short: fastest configuration {min(times):.2f}s < {MIN_S}s"
    if max(times) > MAX_S:
        return False, f"too long: slowest configuration {max(times):.2f}s > {MAX_S}s"
    return True, f"every configuration decided it in {min(times):.2f}-{max(times):.2f}s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, help="write the calibration JSON here")
    args = parser.parse_args(argv)

    from repro.harness.configs import EngineConfig, paper_configurations

    started = time.perf_counter()
    record = {
        "schema": "perfbench/calibration/v1",
        "limit_s": LIMIT_S,
        "band_s": [MIN_S, MAX_S],
        "near_limit_frac": NEAR_LIMIT_FRAC,
        "jobs": JOBS,
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(terse=True),
        },
        "pools": {},
    }
    pools = (
        ("paper-medium", MEDIUM_CANDIDATES, PAPER_MEDIUM_POOL, paper_configurations()),
        (
            "portfolio-medium", PORTFOLIO_CANDIDATES, PORTFOLIO_MEDIUM_POOL,
            [EngineConfig(name="portfolio", engine="portfolio")],
        ),
    )
    for pool, candidates, selected, configs in pools:
        table = _measure(candidates, configs)
        entries = {}
        for name in candidates:
            keep, reason = _verdict(table[name])
            entries[name] = {
                "in_band": keep,
                "selected": name in selected,
                "reason": reason,
                "configs": table[name],
            }
            flag = "SELECTED" if name in selected else ("in band" if keep else "dropped")
            print(f"[{pool}] {name:22s} {flag:8s}  {reason}", flush=True)
        record["pools"][pool] = entries
    record["elapsed_s"] = round(time.perf_counter() - started, 1)
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
