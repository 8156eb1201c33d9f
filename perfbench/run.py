"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-medium --seed 1 --seconds 20 --trace 0

The script times ``SETUP_REPEATS`` set-ups of a fresh interpreter (imports,
input generation, and for serve-mixed the daemon until ``/health`` is ok),
then runs ``measure.py`` for the measured passes.  It prints every metric
with its unit, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is 0 only if every verdict and witness was correct (and, when
traced, the layer attribution summed to the wall time).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import (  # noqa: E402
    END_TO_END,
    GATED_END_TO_END,
    GATED_PER_LAYER,
    PER_LAYER,
    SUM_TOLERANCE,
    count_outcomes,
    end_to_end,
    failures,
    per_layer,
    unchecked,
)
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 2
"""Set-up-only interpreters per run; with the measured one, three samples."""

RUN_TIMEOUT_S = 170.0
"""Whole-run deadline; a run must end within 180 s."""


def _measure(args, workdir: str, env, extra, deadline: float) -> tuple:
    """Start measure.py in a fresh interpreter; return (spawn time, its JSON)."""
    command = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ] + extra
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"the run exceeded {RUN_TIMEOUT_S:.0f}s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited with code {proc.returncode}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def _print_metrics(title: str, values, units) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro-check checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "tmp"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            spawned, ready = _measure(args, workdir, env, ["--setup-only"], deadline)
            setup.append(ready["ready_at"] - spawned)
        spawned, run = _measure(args, workdir, env, [], deadline)
        setup.append(run["ready_at"] - spawned)

        e2e, notes = end_to_end(run, setup)
        attempted, failed = count_outcomes(run)
        correct = failed == 0
        print(
            f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
            f"{notes['passes']} passes, {notes['latency_samples']} latency samples, "
            f"tail = p{notes['latency_tail_percentile']}, "
            f"{notes['setup_samples']} set-up samples"
        )
        _print_metrics("end-to-end", e2e, {k: unit for k, (unit, _) in END_TO_END.items()})
        if args.trace:
            layer = per_layer(run)
            _print_metrics("per-layer", layer, {k: unit for k, (unit, _) in PER_LAYER.items()})
            if layer["attribution.sum_err_frac"] > SUM_TOLERANCE:
                print(f"FAIL layers + unattributed differ from wall_s by more than "
                      f"{SUM_TOLERANCE:.0%}")
                correct = False
            chosen = {name: (layer[name], PER_LAYER[name][0]) for name in GATED_PER_LAYER}
        else:
            chosen = {name: (e2e[name], END_TO_END[name][0]) for name in GATED_END_TO_END}
        for line in unchecked(run):
            print(f"UNCHECKED {line}")
        for line in failures(run):
            print(f"FAIL {line}")
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()
            },
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
