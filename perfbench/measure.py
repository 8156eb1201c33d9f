"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script, so the set-up it measures (imports, input
generation and, for serve-mixed, daemon start) begins at interpreter start.
The script runs a fixed number of passes over the workload's inputs,
checks every verdict and witness, and prints one JSON object as its last
line of output.  ``--setup-only`` stops right before the first dispatch.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Nominal seconds one pass takes on two cores; ``--seconds`` divided by it
# gives the number of passes (at least MIN_PASSES), so the amount of work
# in a run is fixed and the latency sample count (and with it the tail
# percentile) never varies.  The medium workloads run more passes than
# ``--seconds`` alone would give: on a shared machine one pass does not
# average out the drift in CPU speed.
NOMINAL_PASS_S = {
    "paper-medium": 15.0,
    "quick-batch": 1.5,
    "serve-mixed": 3.7,
    "portfolio-medium": 4.2,
}
MIN_PASSES = {
    "paper-medium": 3,
    "quick-batch": 1,
    "serve-mixed": 1,
    "portfolio-medium": 5,
}
TIME_LIMIT_S = {
    "paper-medium": 20.0,
    "quick-batch": 5.0,
    "serve-mixed": 10.0,
    "portfolio-medium": 20.0,
}
JOBS = 2
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
_POLL_START_S = 0.002
_POLL_MAX_S = 0.02


@dataclass
class Task:
    """One dispatched task as the caller saw it."""

    name: str
    config: str
    expected: Optional[str]
    result: str
    latency_s: float
    runtime_s: float
    failure: Optional[str] = None
    stats: Dict[str, object] = field(default_factory=dict)
    frames: int = 0
    reduction: Optional[dict] = None
    cache_hit: bool = False
    post_s: float = 0.0
    queue_wait_s: float = 0.0
    sharing: Optional[dict] = None
    winner: Optional[str] = None
    unchecked: Optional[str] = None
    """Why a verdict's witness could not be validated (None = it was)."""

    @property
    def solved(self) -> bool:
        return self.result in ("safe", "unsafe")


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    t0: float
    t1: float
    tasks: List[Task]
    cpu_s: float
    spool: Optional[str] = None
    extra: Dict[str, float] = field(default_factory=dict)


def _cpu_s() -> float:
    """User+system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _children(pid: int) -> List[int]:
    """Live child pids of a process (empty if it has exited)."""
    found: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
    except OSError:
        pass  # the process exited between listing and reading
    return found


def _proc_tree_cpu_s(pid: int) -> float:
    """CPU of a live process, its reaped children and its live descendants."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0  # exited
    own = sum(int(value) for value in fields[11:15]) / os.sysconf("SC_CLK_TCK")
    return own + sum(_proc_tree_cpu_s(child) for child in _children(pid))


def _witness_failure(validated: Optional[bool], result: str) -> Optional[str]:
    if result not in ("safe", "unsafe"):
        return None
    if validated is False:
        return "witness rejected by the validator"
    if validated is None:
        return "no witness to validate"
    return None


def classify(task: Task, validated: Optional[bool], error: Optional[str] = None) -> Task:
    """Set ``task.failure`` for a crash, a wrong verdict or a bad witness."""
    if error:
        task.failure = f"crashed: {error}"
    elif task.solved and task.expected is not None and task.result != task.expected:
        task.failure = f"wrong verdict {task.result} (expected {task.expected})"
    else:
        task.failure = _witness_failure(validated, task.result)
    return task


# ----------------------------------------------------------------------
# Harness workloads: BenchmarkRunner at jobs=2
# ----------------------------------------------------------------------
def _timed_runner_class():
    from repro.harness.runner import BenchmarkRunner

    class TimedRunner(BenchmarkRunner):
        """BenchmarkRunner that notes when each result reaches the caller.

        ``run`` reports every result through ``_report`` as it arrives
        (the runner's ``verbose`` progress hook); this override records
        the arrival time instead of printing.
        """

        def run(self):
            self.arrivals: Dict[Tuple[str, str], float] = {}
            self.arrival_order: List[float] = []
            self.started = time.perf_counter()
            return super().run()

        def _report(self, result) -> None:
            now = time.perf_counter()
            self.arrivals[(result.case_name, result.config_name)] = now
            self.arrival_order.append(now)

    return TimedRunner


class HarnessWorkload:
    """paper-medium and quick-batch: configurations x cases through the runner."""

    def __init__(self, name: str, seed: int):
        self.make = (
            workloads.paper_medium_inputs
            if name == "paper-medium"
            else workloads.quick_batch_inputs
        )
        self.seed = seed
        self.passes_run = 0
        self.cases, self.configs = self.make(seed, 0)
        self.limit = TIME_LIMIT_S[name]
        self.runner_class = _timed_runner_class()

    def run_pass(self, spool: Optional[str]) -> Pass:
        if self.passes_run:
            self.cases, self.configs = self.make(self.seed, self.passes_run)
        self.passes_run += 1
        runner = self.runner_class(
            self.cases, self.configs, timeout=self.limit, jobs=JOBS,
            validate=True, verbose=True,
        )
        cpu0 = _cpu_s()
        suite = runner.run()
        cpu1 = _cpu_s()
        arrivals = sorted(runner.arrival_order)
        tasks = []
        for index, result in enumerate(suite.results):
            # The pool refills a lane as soon as a result arrives, in task
            # order: task k >= JOBS starts when the (k - JOBS)-th result
            # (in arrival order) has come back.
            dispatched = runner.started if index < JOBS else arrivals[index - JOBS]
            arrived = runner.arrivals[(result.case_name, result.config_name)]
            task = Task(
                name=result.case_name,
                config=result.config_name,
                expected=result.expected.value if result.expected else None,
                result=result.result.value,
                latency_s=arrived - dispatched,
                runtime_s=result.runtime,
                stats=result.stats.as_dict(),
                frames=result.frames,
                reduction=result.reduction,
            )
            tasks.append(classify(task, result.validated, result.error))
        return Pass(runner.started, arrivals[-1], tasks, cpu1 - cpu0, spool)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# portfolio-medium: create_engine("portfolio").check, one task at a time
# ----------------------------------------------------------------------
class PortfolioWorkload:
    def __init__(self, seed: int):
        self.cases = workloads.portfolio_medium_inputs(seed)
        self.limit = TIME_LIMIT_S["portfolio-medium"]

    def run_pass(self, spool: Optional[str]) -> Pass:
        import repro.core.invariant as invariant
        import repro.engines as engines

        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        finished = []
        for case in self.cases:
            start = time.perf_counter()
            engine = engines.create_engine("portfolio", case.aig)
            outcome = engine.check(time_limit=self.limit)
            finished.append((case, outcome, time.perf_counter() - start))
        t1 = time.perf_counter()
        cpu1 = _cpu_s()
        tasks = []
        for case, outcome, elapsed in finished:
            # Witness checks run after the pass, outside the timed region.
            validated: Optional[bool] = None
            unchecked = None
            try:
                if outcome.result.value == "safe" and outcome.certificate is not None:
                    if outcome.certificate.clauses:
                        validated = invariant.check_certificate(case.aig, outcome.certificate)
                    else:
                        # k-induction proves "P is k-inductive" and returns no
                        # clauses; check_certificate demands that the clauses
                        # alone imply P, so it rejects every such certificate.
                        # The verdict is checked against the ground truth only.
                        validated = True
                        unchecked = f"clause-free certificate from {outcome.winner}"
                elif outcome.result.value == "unsafe" and outcome.trace is not None:
                    validated = invariant.check_counterexample(case.aig, outcome.trace)
            except invariant.CertificateError:
                validated = False
            task = Task(
                name=case.name,
                config="portfolio",
                expected=case.expected.value if case.expected else None,
                result=outcome.result.value,
                latency_s=elapsed,
                runtime_s=elapsed,
                stats=outcome.stats.as_dict(),
                frames=outcome.frames,
                reduction=outcome.reduction,
                sharing=outcome.sharing,
                winner=outcome.winner,
                unchecked=unchecked,
            )
            tasks.append(classify(task, validated))
        return Pass(t0, t1, tasks, cpu1 - cpu0, spool)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve-mixed: a repro-check serve daemon and a closed-loop client
# ----------------------------------------------------------------------
def _http(method: str, url: str, body: Optional[bytes] = None) -> Tuple[int, dict]:
    request = urllib.request.Request(url, data=body, method=method)
    if body is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read())
        except ValueError:
            payload = {}
        return exc.code, payload


def _trace_from_witness(witness: dict):
    from repro.core.result import CounterexampleTrace, TraceStep
    from repro.logic.cube import Cube

    return CounterexampleTrace(steps=[
        TraceStep(
            state=Cube(step["state"]),
            inputs={int(lit): bool(value) for lit, value in step["inputs"].items()},
        )
        for step in witness["steps"]
    ])


class Daemon:
    """A ``repro-check serve`` process on an ephemeral port."""

    def __init__(self, env: Dict[str, str], spool: Optional[str]):
        args = [
            "serve", "--port", "0", "--workers", str(SERVE_WORKERS),
            "--queue-depth", "64", "--tenant-rate", "10000", "--tenant-burst", "10000",
        ]
        if spool:
            env = dict(env, PERFBENCH_SPOOL=spool)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_daemon.py")] + args,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.url = None
        for line in self.proc.stdout:
            if "listening on" in line:
                self.url = line.split("listening on", 1)[1].strip()
                break
        if self.url is None:
            self.stop()
            raise RuntimeError("serve daemon exited before listening")
        # Keep draining the daemon's stdout so that it never blocks on a full pipe.
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()
        deadline = time.perf_counter() + 60
        while True:
            status, health = _http("GET", self.url + "/health")
            if status == 200 and health.get("status") == "ok":
                break
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("serve daemon never reported healthy")
            time.sleep(0.01)

    def stop(self) -> None:
        """SIGINT (graceful: the daemon stops its workers), SIGKILL if stuck."""
        if self.proc.poll() is not None:
            return
        workers = _children(self.proc.pid)
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            # Warm workers sit in process groups of their own; kill them too.
            for pid in [self.proc.pid] + workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.wait(timeout=20)


class ServeWorkload:
    """One daemon per pass, so every pass starts with a cold result cache.

    The first daemon starts during set-up (it counts toward setup_s); a
    traced pass needs a daemon started with the layer clock.
    """

    def __init__(self, seed: int, env: Dict[str, str]):
        self.stream = workloads.serve_stream(seed)
        self.limit = TIME_LIMIT_S["serve-mixed"]
        self.env = env
        self.daemon: Optional[Daemon] = Daemon(env, None)

    def run_pass(self, spool: Optional[str]) -> Pass:
        if self.daemon is None or spool is not None:
            if self.daemon is not None:
                self.daemon.stop()
            self.daemon = Daemon(self.env, spool)
        daemon, self.daemon = self.daemon, None
        try:
            return self._drive(daemon, spool)
        finally:
            daemon.stop()

    def _drive(self, daemon: Daemon, spool: Optional[str]) -> Pass:
        stream = self.stream
        seen = [threading.Event() for _ in stream]
        tasks: List[Optional[Task]] = [None] * len(stream)
        cursor = [0]
        lock = threading.Lock()
        errors: List[BaseException] = []

        def client() -> None:
            try:
                while True:
                    with lock:
                        index = cursor[0]
                        cursor[0] += 1
                    if index >= len(stream):
                        return
                    job = stream[index]
                    original = None
                    if job.is_resubmission:
                        seen[job.resubmits].wait(timeout=120)
                        original = tasks[job.resubmits]
                    tasks[index] = self._submit(daemon.url, job, original)
                    seen[index].set()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                for event in seen:
                    event.set()

        cpu0 = _cpu_s() + _proc_tree_cpu_s(daemon.proc.pid)
        t0 = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        t1 = time.perf_counter()
        cpu1 = _cpu_s() + _proc_tree_cpu_s(daemon.proc.pid)
        if errors:
            raise errors[0]
        _status, snapshot = _http("GET", daemon.url + "/metrics.json")
        extra = {"worker_recycles": float(snapshot.get("worker_recycles", 0))}
        return Pass(t0, t1, list(tasks), cpu1 - cpu0, spool, extra)

    def _submit(self, url: str, job, original: Optional[Task]) -> Task:
        """POST one job, poll it to a terminal status and check the answer."""
        body = json.dumps(
            {"model": job.text, "engine": job.engine, "timeout": self.limit}
        ).encode()
        expected = job.case.expected.value if job.case.expected else None
        start = time.perf_counter()
        status, payload = _http("POST", url + "/jobs", body)
        post_s = time.perf_counter() - start
        task = Task(
            name=job.case.name, config=job.engine, expected=expected, result="unknown",
            latency_s=0.0, runtime_s=0.0, post_s=post_s,
        )
        if status not in (200, 202):
            task.latency_s = post_s
            task.failure = f"HTTP {status}: {payload.get('error', '')}"
            return task
        delay = _POLL_START_S
        while payload.get("status") not in ("done", "failed"):
            time.sleep(delay)
            delay = min(_POLL_MAX_S, delay * 1.5)
            status, payload = _http("GET", f"{url}/jobs/{payload['id']}")
            if status != 200:
                task.latency_s = time.perf_counter() - start
                task.failure = f"HTTP {status} while polling"
                return task
        task.latency_s = time.perf_counter() - start
        record = payload.get("result") or {}
        task.result = record.get("result", "unknown")
        task.runtime_s = float(record.get("runtime", 0.0) or 0.0)
        task.stats = record.get("stats") or {}
        task.frames = int(record.get("frames", 0) or 0)
        task.reduction = record.get("reduction")
        task.cache_hit = bool(payload.get("cache_hit"))
        task.queue_wait_s = float(payload.get("waited", 0.0) or 0.0)
        if payload.get("status") == "failed" or record.get("error"):
            task.failure = f"job failed: {record.get('error')}"
            return task
        if job.is_resubmission:
            if not task.cache_hit:
                task.failure = "resubmission was not served from the cache"
            elif original is None or task.result != original.result:
                task.failure = "resubmission changed the verdict"
            else:
                classify(task, True)  # its witness was checked with the original
            return task
        # SAFE records carry only the certificate's size, so a SAFE verdict
        # is checked against the ground truth alone; UNSAFE traces replay.
        validated: Optional[bool] = True
        if task.result == "unsafe":
            from repro.core.invariant import CertificateError, check_counterexample

            witness = record.get("witness")
            try:
                validated = witness is not None and check_counterexample(
                    job.case.aig, _trace_from_witness(witness)
                )
            except CertificateError:
                validated = False
        return classify(task, validated)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


# ----------------------------------------------------------------------
def make_workload(name: str, seed: int, env: Dict[str, str]):
    if name in ("paper-medium", "quick-batch"):
        return HarnessWorkload(name, seed)
    if name == "portfolio-medium":
        return PortfolioWorkload(seed)
    if name == "serve-mixed":
        return ServeWorkload(seed, env)
    raise ValueError(f"unknown workload {name!r}")


def passes_for(name: str, seconds: float) -> int:
    return max(MIN_PASSES[name], round(seconds / NOMINAL_PASS_S[name]))


def _traced_pass(workload, name: str, spool: str) -> Pass:
    """One pass with the layer clock spooling to ``spool``.

    The serve daemon installs its own clock (see serve_daemon.py); the
    other workloads run the program in this process and its children.
    """
    from layers import LayerClock

    os.makedirs(spool)
    if name == "serve-mixed":
        return workload.run_pass(spool)
    clock = LayerClock(spool).install()
    try:
        return workload.run_pass(spool)
    finally:
        clock.uninstall()


def _pass_record(item: Pass) -> dict:
    return {
        "t0": item.t0,
        "t1": item.t1,
        "cpu_s": item.cpu_s,
        "spool": item.spool,
        "extra": item.extra,
        "tasks": [task.__dict__ for task in item.tasks],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    workload = make_workload(args.workload, args.seed, env)
    ready_at = time.perf_counter()
    if args.setup_only:
        workload.close()
        print(json.dumps({"ready_at": ready_at}))
        return 0

    passes: List[Pass] = []
    baseline: List[Pass] = []
    try:
        if args.trace:
            # One untraced pass first: the traced passes' wall time over its
            # wall time is the wrappers' overhead.
            baseline.append(workload.run_pass(None))
        for index in range(passes_for(args.workload, args.seconds)):
            if args.trace:
                spool = os.path.join(args.workdir, f"spool-{index}")
                passes.append(_traced_pass(workload, args.workload, spool))
            else:
                passes.append(workload.run_pass(None))
    finally:
        workload.close()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({
        "ready_at": ready_at,
        "passes": [_pass_record(item) for item in passes],
        "baseline": [_pass_record(item) for item in baseline],
        "peak_rss_mb": peak_kb / 1024.0,
        "limit_s": TIME_LIMIT_S[args.workload],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
