"""Warm worker-process pool of the verification service.

The benchmark harness (:mod:`repro.harness.pool`) forks one process per
task because each task is disposable; a service cannot afford that — the
fork/import cost would dominate small jobs and nothing would ever stay
warm.  This pool keeps ``size`` long-lived worker processes, each running
a recv/execute/send loop, and reuses the harness pool's *hard-timeout
discipline*: every worker is its own process group, an overdue or crashed
worker is SIGKILLed group-wide (portfolio members die with it) and
replaced with a fresh process **without touching the queue** — jobs that
were still queued simply run on the replacement.

Warm state kept inside a worker between jobs:

* the interpreter, imports and engine registries (the dominant cost of
  the one-process-per-task model);
* a bounded memo of reduction-pipeline results keyed by the submission's
  *exact source hash* — resubmitting the same file with different engine
  options (the parent result cache keys on options too) skips the
  reduction pipeline entirely.  The memo key is deliberately the text
  hash, not the structural digest: reconstruction maps are tied to the
  original literal numbering, so only byte-identical models may share
  one.

Workers are recycled (gracefully stopped and respawned) after
``max_jobs_per_worker`` jobs, bounding memory growth from solver and
memo state, and on every crash or hard timeout.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.harness.pool import _kill_hard, default_grace
from repro.obs.heartbeat import (
    DEFAULT_INTERVAL,
    NULL_HEARTBEAT,
    Heartbeat,
    HeartbeatMonitor,
    heartbeat_path,
    install_heartbeat,
    uninstall_heartbeat,
)
from repro.obs.tracer import FLIGHT_PREFIX, JsonlSink, Tracer, get_tracer, install, uninstall
from repro.serve.jobqueue import JobQueue
from repro.serve.metrics import Metrics
from repro.serve.protocol import JobOptions, error_record, outcome_to_record

_POLL_INTERVAL = 0.05
_WARM_MEMO_LIMIT = 32

# Engine kinds whose reduction step the worker may hoist out of the
# engine (and memoize): plain safety engines with generic witness
# lift-back.  Liveness/scheduler kinds manage their own compilation
# pipelines and are constructed untouched.
_SAFETY_KINDS = {"ic3", "ic3-pl", "bmc", "kind", "k-induction", "portfolio"}


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
def _engine_kwargs(options: JobOptions) -> Dict[str, Any]:
    """Per-kind constructor keywords (mirrors the CLI's dispatch)."""
    kwargs: Dict[str, Any] = {}
    if options.sat_backend:
        kwargs["sat_backend"] = options.sat_backend
    if options.engine == "bmc":
        kwargs["max_depth"] = options.max_depth
    elif options.engine in ("kind", "k-induction"):
        kwargs["max_k"] = options.max_k
    elif options.engine in ("klive", "k-liveness"):
        kwargs["max_k"] = options.max_k
    elif options.engine in ("l2s", "liveness-to-safety"):
        kwargs["max_depth"] = options.max_depth
    elif options.engine == "portfolio":
        kwargs["member_kwargs"] = {
            "bmc": {"max_depth": options.max_depth},
            "kind": {"max_k": options.max_k},
        }
    return kwargs


def _execute_job(payload: Dict[str, Any], warm: Dict[Any, Any]) -> Dict[str, Any]:
    """Run one verification job in-process and build its result record."""
    from repro.engines.adapters import finish_outcome
    from repro.engines.registry import create_engine
    from repro.reduce import reduce_aig

    aig = payload["aig"]
    options: JobOptions = payload["options"]
    start = time.perf_counter()
    reduction_reused = False
    try:
        if options.all_properties or options.property_index is not None:
            properties = (
                None if options.all_properties else [options.property_index]
            )
            engine = create_engine(
                "scheduler",
                aig,
                engine=(
                    options.engine
                    if options.engine in _SAFETY_KINDS
                    else "ic3-pl"
                ),
                properties=properties,
                reduce=options.reduce,
                passes=options.passes,
                max_k=options.max_k,
                max_depth=options.max_depth,
                sat_backend=options.sat_backend,
            )
            outcome = engine.check(time_limit=options.timeout)
        elif options.engine in _SAFETY_KINDS and options.reduce:
            # Hoist the reduction pipeline out of the engine so the warm
            # memo can serve it; the lift-back is identical to what the
            # adapters do internally.
            memo_key = (payload["text_sha"], tuple(options.passes or ()))
            reduction = warm.get(memo_key)
            if reduction is not None:
                reduction_reused = True
            else:
                reduction = reduce_aig(aig, passes=options.passes)
                if len(warm) >= _WARM_MEMO_LIMIT:
                    warm.pop(next(iter(warm)))
                warm[memo_key] = reduction
            engine = create_engine(
                options.engine,
                aig=reduction.aig,
                property_index=reduction.property_index,
                reduce=False,
                **_engine_kwargs(options),
            )
            outcome = engine.check(time_limit=options.timeout)
            outcome = finish_outcome(outcome, reduction)
        else:
            engine = create_engine(
                options.engine,
                aig,
                reduce=options.reduce,
                passes=options.passes,
                **_engine_kwargs(options),
            )
            outcome = engine.check(time_limit=options.timeout)
    except Exception as exc:  # noqa: BLE001 - job errors must not kill the worker
        return error_record(
            f"{type(exc).__name__}: {exc}", runtime=time.perf_counter() - start
        )
    record = outcome_to_record(outcome, runtime=time.perf_counter() - start)
    record["warm"] = {"reduction_reused": reduction_reused}
    return record


def _traced_execute(job_id: str, payload: Dict[str, Any], warm, trace_dir: str):
    """Run one job under a per-job tracer writing ``<trace_dir>/<job_id>.jsonl``.

    The sink flushes incrementally and a flight ring snapshots the tail,
    so ``GET /jobs/{id}/trace`` has something to serve even when the
    dispatcher SIGKILLs this worker mid-job.
    """
    tracer = None
    try:
        os.makedirs(trace_dir, exist_ok=True)
        tracer = install(
            Tracer(
                sink=JsonlSink(os.path.join(trace_dir, f"{job_id}.jsonl")),
                ring_capacity=512,
                flight_path=os.path.join(trace_dir, f"{FLIGHT_PREFIX}{job_id}.jsonl"),
            )
        )
    except OSError:  # pragma: no cover - unwritable trace dir
        return _execute_job(payload, warm)
    try:
        with tracer.span(
            "serve.job", cat="serve", job=job_id, engine=payload["options"].engine
        ):
            return _execute_job(payload, warm)
    finally:
        uninstall()
        tracer.close()


def _worker_main(
    conn,
    trace_dir: Optional[str] = None,
    heartbeat_dir: Optional[str] = None,
    heartbeat_interval: float = DEFAULT_INTERVAL,
) -> None:
    """Worker-process body: isolate a process group, then serve jobs.

    With a ``heartbeat_dir`` the worker installs a publishing
    :class:`~repro.obs.heartbeat.Heartbeat` (independent of tracing —
    the liveness channel works with tracing off) that the engines feed
    and the dispatcher's stall watchdog reads; fields are reset at job
    boundaries so a poll never sees a previous job's progress.
    """
    try:
        os.setpgid(0, 0)
    except OSError:  # pragma: no cover - already a group leader
        pass
    heartbeat = NULL_HEARTBEAT
    if heartbeat_dir:
        try:
            heartbeat = install_heartbeat(
                Heartbeat(
                    role="serve",
                    path=heartbeat_path(heartbeat_dir, "serve"),
                    interval=heartbeat_interval,
                )
            )
        except OSError:  # pragma: no cover - unwritable heartbeat dir
            heartbeat = NULL_HEARTBEAT
    warm: Dict[Any, Any] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            job_id, payload = message
            heartbeat.reset(
                state="running", job=job_id, engine=payload["options"].engine
            )
            if trace_dir:
                record = _traced_execute(job_id, payload, warm, trace_dir)
            else:
                record = _execute_job(payload, warm)
            heartbeat.reset(state="idle")
            try:
                conn.send((job_id, record))
            except (BrokenPipeError, OSError):
                break
    finally:
        uninstall_heartbeat()
        heartbeat.close()
        conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Parent-side state of one warm worker process."""

    def __init__(
        self,
        ctx,
        index: int,
        trace_dir: Optional[str] = None,
        heartbeat_dir: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_INTERVAL,
    ):
        self.index = index
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, trace_dir, heartbeat_dir, heartbeat_interval),
            name=f"serve-worker-{index}",
        )
        self.proc.start()
        child_conn.close()
        self.jobs_done = 0
        self.job_id: Optional[str] = None
        self.payload: Optional[Dict[str, Any]] = None
        self.deadline = 0.0
        self.started_at = 0.0

    @property
    def busy(self) -> bool:
        return self.job_id is not None

    def assign(self, job_id: str, payload: Dict[str, Any], grace: Optional[float]) -> None:
        timeout = payload["options"].timeout or 30.0
        self.job_id = job_id
        self.payload = payload
        self.started_at = time.perf_counter()
        self.deadline = self.started_at + timeout + (
            grace if grace is not None else default_grace(timeout)
        )
        self.conn.send((job_id, payload))

    def clear(self) -> None:
        self.job_id = None
        self.payload = None

    def stop(self, kill: bool = False) -> None:
        if not kill:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                kill = True
        if kill:
            _kill_hard(self.proc)
        else:
            self.proc.join(timeout=1.0)
            if self.proc.is_alive():
                _kill_hard(self.proc)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass


class WarmWorkerPool:
    """Dispatches queued jobs onto warm workers with hard deadlines.

    ``on_result(job_id, record, kind)`` is invoked from the dispatcher
    thread for every finished job; ``kind`` is ``"ok"``, ``"crash"``,
    ``"timeout"`` or ``"stall"``.  ``on_start(job_id)`` (optional) fires
    when a job is handed to a worker.

    With a ``heartbeat_dir``, workers publish heartbeat records into it
    and the dispatcher runs a **stall watchdog**: a busy worker whose
    heartbeat record is older than ``stall_timeout`` seconds is killed
    and replaced *early* — before its hard deadline — because a silent
    publisher thread means the process is frozen (SIGSTOP), wedged
    outside the interpreter, or dead.  A worker that is merely slow
    keeps beating (the GIL preempts into the publisher thread even
    mid-SAT-call) and is never stalled.
    """

    def __init__(
        self,
        queue: JobQueue,
        on_result: Callable[[str, Dict[str, Any], str], None],
        *,
        size: int = 2,
        max_jobs_per_worker: int = 32,
        grace: Optional[float] = None,
        metrics: Optional[Metrics] = None,
        on_start: Optional[Callable[[str], None]] = None,
        trace_dir: Optional[str] = None,
        heartbeat_dir: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_INTERVAL,
        stall_timeout: Optional[float] = None,
    ):
        if size <= 0:
            raise ValueError("pool size must be positive")
        if max_jobs_per_worker <= 0:
            raise ValueError("max_jobs_per_worker must be positive")
        self.queue = queue
        self.on_result = on_result
        self.on_start = on_start
        self.size = size
        self.max_jobs_per_worker = max_jobs_per_worker
        self.grace = grace
        self.trace_dir = trace_dir
        self.heartbeat_dir = heartbeat_dir
        self.heartbeat_interval = heartbeat_interval
        self.stall_timeout = stall_timeout
        self._monitor = HeartbeatMonitor(heartbeat_dir) if heartbeat_dir else None
        self.metrics = metrics or Metrics()
        self._ctx = multiprocessing.get_context()
        self._workers: List[_WorkerHandle] = []
        self._next_index = 0
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("pool already started")
        for _ in range(self.size):
            self._workers.append(self._spawn())
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop dispatching and terminate every worker (queue untouched)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        for worker in self._workers:
            if worker.busy:
                _kill_hard(worker.proc)
                self.on_result(
                    worker.job_id,
                    error_record("service shut down while the job was running"),
                    "crash",
                )
                worker.clear()
                try:
                    worker.conn.close()
                except OSError:
                    pass
            else:
                worker.stop()
        self._workers.clear()

    def pause(self) -> None:
        """Stop handing out new jobs (running jobs continue)."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    # -- introspection --------------------------------------------------
    @property
    def busy_workers(self) -> int:
        with self._lock:
            return sum(1 for worker in self._workers if worker.busy)

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def worker_for_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Pid and busy time of the worker currently running ``job_id``."""
        with self._lock:
            for worker in self._workers:
                if worker.job_id == job_id:
                    return {
                        "pid": worker.proc.pid,
                        "busy_seconds": time.perf_counter() - worker.started_at,
                        "deadline_seconds": worker.deadline - time.perf_counter(),
                    }
        return None

    def worker_heartbeat(self, pid: int) -> Optional[Dict[str, Any]]:
        """The latest heartbeat record of one worker process (or None)."""
        if self._monitor is None:
            return None
        return self._monitor.latest_for(pid)

    # -- internals ------------------------------------------------------
    def _spawn(self) -> _WorkerHandle:
        handle = _WorkerHandle(
            self._ctx,
            self._next_index,
            self.trace_dir,
            self.heartbeat_dir,
            self.heartbeat_interval,
        )
        self._next_index += 1
        return handle

    def _replace(self, worker: _WorkerHandle, *, kill: bool) -> None:
        worker.stop(kill=kill)
        if self.heartbeat_dir and worker.proc.pid is not None:
            # Drop the dead worker's record so a recycled OS pid can
            # never inherit a stale heartbeat.
            try:
                os.remove(heartbeat_path(self.heartbeat_dir, "serve", worker.proc.pid))
            except OSError:
                pass
        with self._lock:
            position = self._workers.index(worker)
            self._workers[position] = self._spawn()
        self.metrics.incr("worker_recycles")

    def _finish(self, worker: _WorkerHandle, record: Dict[str, Any], kind: str) -> None:
        job_id = worker.job_id
        worker.clear()
        worker.jobs_done += 1
        if job_id is not None:
            self.on_result(job_id, record, kind)

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            self._assign_idle()
            busy = [worker for worker in self._workers if worker.busy]
            if busy:
                ready = multiprocessing.connection.wait(
                    [worker.conn for worker in busy], timeout=_POLL_INTERVAL
                )
                by_conn = {worker.conn: worker for worker in busy}
                for conn in ready:
                    self._collect(by_conn[conn])
                self._reap_overdue()
                self._reap_stalled()
            else:
                time.sleep(_POLL_INTERVAL)

    def _assign_idle(self) -> None:
        if self._paused.is_set():
            return
        for worker in self._workers:
            if worker.busy:
                continue
            item = self.queue.get(timeout=0)
            if item is None:
                return
            job_id, payload = item
            try:
                worker.assign(job_id, payload, self.grace)
            except (BrokenPipeError, OSError):
                # The worker died while idle; replace it and fail over.
                worker.clear()
                self._replace(worker, kill=True)
                self.metrics.incr("worker_crashes")
                try:
                    self.queue.put((job_id, payload), payload.get("priority", 0))
                except Exception:  # noqa: BLE001 - queue refilled meanwhile
                    self.on_result(job_id, error_record("worker pool unavailable"), "crash")
                continue
            if self.on_start is not None:
                self.on_start(job_id)

    def _collect(self, worker: _WorkerHandle) -> None:
        try:
            job_id, record = worker.conn.recv()
        except (EOFError, OSError):
            # Crashed mid-job (killed, segfault, ...): fail the job,
            # recycle the worker, leave the queue alone.
            elapsed = time.perf_counter() - worker.started_at
            self.metrics.incr("worker_crashes")
            self._finish(
                worker,
                error_record("worker died without reporting", runtime=elapsed),
                "crash",
            )
            self._replace(worker, kill=True)
            return
        if job_id != worker.job_id:  # pragma: no cover - protocol safety net
            record = error_record(f"worker answered for foreign job {job_id}")
        self._finish(worker, record, "ok")
        if worker.jobs_done >= self.max_jobs_per_worker:
            self._replace(worker, kill=False)

    def _reap_overdue(self) -> None:
        now = time.perf_counter()
        for worker in self._workers:
            if worker.busy and now > worker.deadline:
                elapsed = time.perf_counter() - worker.started_at
                self.metrics.incr("worker_timeouts")
                self._finish(
                    worker,
                    error_record("hard timeout: worker killed", runtime=elapsed),
                    "timeout",
                )
                self._replace(worker, kill=True)

    def _reap_stalled(self) -> None:
        """Early replacement of workers whose heartbeat went silent.

        Only workers that have been busy longer than ``stall_timeout``
        are examined (a fresh assignment gets that long to publish its
        first beat), and a worker with no record at all is judged by its
        busy time — a crashed-on-arrival worker is caught by the pipe
        EOF in :meth:`_collect` first.
        """
        if self._monitor is None or self.stall_timeout is None:
            return
        now = time.perf_counter()
        for worker in self._workers:
            if not worker.busy:
                continue
            busy_for = now - worker.started_at
            if busy_for <= self.stall_timeout:
                continue
            record = self._monitor.latest_for(worker.proc.pid)
            age = self._monitor.age(record) if record is not None else busy_for
            if age <= self.stall_timeout:
                continue
            self.metrics.incr("worker_stalls")
            tracer = get_tracer()
            if tracer.enabled:
                tracer.instant(
                    "serve.stall",
                    cat="serve",
                    job=worker.job_id,
                    pid=worker.proc.pid,
                    age=round(age, 2),
                )
            self._finish(
                worker,
                error_record(
                    f"stalled: no heartbeat for {age:.1f}s", runtime=busy_for
                ),
                "stall",
            )
            self._replace(worker, kill=True)
