"""The verification service: queue + budgets + cache + warm worker pool.

:class:`VerificationService` is the transport-independent core — the
asyncio HTTP server (:mod:`repro.serve.server`), the CLI client and the
tests all drive this object directly.  A submission flows through:

1. **tenant budget** — token bucket per ``X-Tenant``; an empty bucket
   rejects with 429 + ``Retry-After``;
2. **parse + digest** — the AAG text is parsed once in the parent and
   the structural digest computed; malformed models reject with 400;
3. **result cache** — digest × verdict-relevant options; a hit creates
   an already-``done`` job carrying the cached record with
   ``cache_hit: true`` — no queue slot, no worker, no solver query;
4. **bounded priority queue** — a full queue rejects with 503 +
   ``Retry-After`` (estimated from the drain rate); admitted jobs wait
   for a warm worker;
5. **warm worker pool** — hard per-job deadlines, crash/timeout
   recovery and recycling (see :mod:`repro.serve.workers`); results
   land back here, feed the cache and flip the job to ``done``.

Every mutation of the job table happens under one lock; the HTTP
handlers, the dispatcher thread and test threads can interleave freely.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.aiger.aig import AigerError
from repro.aiger.parser import parse_aiger
from repro.engines import available_engines
from repro.reduce import available_passes
from repro.sat.context import available_sat_backends
from repro.serve.cache import ResultCache
from repro.serve.jobqueue import BudgetExceeded, JobQueue, QueueFull, TenantBudgets
from repro.serve.metrics import Metrics
from repro.serve.protocol import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobSpec,
    ProtocolError,
    cache_key,
    error_record,
    job_summary,
    new_job_id,
    options_from_document,
    parse_job_body,
    text_sha,
)
from repro.serve.workers import WarmWorkerPool


@dataclass
class Job:
    """Parent-side lifecycle record of one submission.

    Wall-clock ``*_at`` timestamps are for display; every duration (the
    ``waited`` queue latency) is computed from the parallel ``*_mono``
    monotonic stamps so a wall-clock step mid-job cannot skew it.
    """

    spec: JobSpec
    status: str = QUEUED
    cache_hit: bool = False
    submitted_at: float = field(default_factory=time.time)
    submitted_mono: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    started_mono: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    done_event: threading.Event = field(default_factory=threading.Event)

    def summary(self) -> Dict[str, Any]:
        waited_until = (
            self.started_mono if self.started_mono is not None else time.monotonic()
        )
        return job_summary(
            self.spec.job_id,
            self.status,
            tenant=self.spec.tenant,
            priority=self.spec.priority,
            cache_hit=self.cache_hit,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
            waited=waited_until - self.submitted_mono,
            result=self.result,
            options=self.spec.options,
        )


class VerificationService:
    """Long-lived verification-as-a-service core (transport-agnostic)."""

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_depth: int = 16,
        max_jobs_per_worker: int = 32,
        default_timeout: float = 30.0,
        max_timeout: float = 300.0,
        cache_size: int = 256,
        tenant_rate: float = 5.0,
        tenant_burst: float = 20.0,
        max_jobs_kept: int = 1024,
        grace: Optional[float] = None,
        trace_dir: Optional[str] = None,
        heartbeats: bool = True,
        heartbeat_interval: float = 0.25,
        stall_timeout: Optional[float] = 10.0,
    ):
        import tempfile

        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        self.trace_dir = trace_dir
        self.metrics = Metrics()
        self.cache = ResultCache(max_entries=cache_size)
        self.budgets = TenantBudgets(rate=tenant_rate, burst=tenant_burst)
        self.queue = JobQueue(maxsize=queue_depth)
        self.heartbeat_dir: Optional[str] = (
            tempfile.mkdtemp(prefix="repro-serve-hb-") if heartbeats else None
        )
        self.pool = WarmWorkerPool(
            self.queue,
            self._on_result,
            size=workers,
            max_jobs_per_worker=max_jobs_per_worker,
            grace=grace,
            metrics=self.metrics,
            on_start=self._on_start,
            trace_dir=trace_dir,
            heartbeat_dir=self.heartbeat_dir,
            heartbeat_interval=heartbeat_interval,
            stall_timeout=stall_timeout if heartbeats else None,
        )
        self.max_jobs_kept = max_jobs_kept
        self._jobs: "Dict[str, Job]" = {}
        self._job_order: List[str] = []
        self._lock = threading.Lock()
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self.pool.start()
        self._started = True

    def stop(self) -> None:
        if not self._started:
            return
        self.pool.stop()
        self._started = False
        for item in self.queue.drain():
            job_id, _payload = item
            self._finish_job(
                job_id, error_record("service shut down before the job started"), FAILED
            )
        if self.heartbeat_dir is not None:
            import shutil

            shutil.rmtree(self.heartbeat_dir, ignore_errors=True)
            self.heartbeat_dir = None

    # -- submission -----------------------------------------------------
    def submit_raw(
        self, body: bytes, *, tenant: str = "anonymous"
    ) -> Tuple[int, Dict[str, Any]]:
        """Full ``POST /jobs`` path from raw bytes; returns (status, payload)."""
        try:
            document = parse_job_body(body)
        except ProtocolError as exc:
            return 400, {"error": str(exc)}
        model = document.pop("model")
        priority = int(document.pop("priority", 0) or 0)
        try:
            options = options_from_document(
                document,
                default_timeout=self.default_timeout,
                max_timeout=self.max_timeout,
            )
        except ProtocolError as exc:
            return 400, {"error": str(exc)}
        return self.submit(model, options=options, tenant=tenant, priority=priority)

    def submit(
        self,
        model_text: str,
        *,
        options=None,
        tenant: str = "anonymous",
        priority: int = 0,
    ) -> Tuple[int, Dict[str, Any]]:
        """Admit one job; returns an HTTP-shaped ``(status, payload)`` pair.

        * 200 — served from the result cache (payload is the full job
          summary, ``cache_hit: true``);
        * 202 — queued (payload carries the job id to poll);
        * 400 — malformed model or options;
        * 429 — tenant over budget (payload carries ``retry_after``);
        * 503 — queue full (payload carries ``retry_after``).
        """
        from repro.serve.protocol import JobOptions

        if options is None:
            options = JobOptions(timeout=self.default_timeout)
        try:
            self.budgets.admit(tenant)
        except BudgetExceeded as exc:
            self.metrics.incr("budget_rejections")
            return 429, {
                "error": str(exc),
                "retry_after": max(1, int(exc.retry_after + 0.999)),
            }
        if options.engine not in available_engines(include_aliases=True):
            return 400, {
                "error": f"unknown engine {options.engine!r} "
                f"(available: {', '.join(available_engines(include_aliases=True))})"
            }
        if options.sat_backend and options.sat_backend not in available_sat_backends():
            return 400, {
                "error": f"unknown SAT backend {options.sat_backend!r} "
                f"(available: {', '.join(available_sat_backends())})"
            }
        known_passes = available_passes()
        unknown_passes = [p for p in options.passes or () if p not in known_passes]
        if unknown_passes:
            return 400, {
                "error": f"unknown reduction passes {unknown_passes!r} "
                f"(available: {', '.join(known_passes)})"
            }
        try:
            aig = parse_aiger(model_text)
            aig.validate()
        except (AigerError, UnicodeEncodeError) as exc:
            return 400, {"error": f"invalid model: {exc}"}

        digest = aig.structural_digest()
        key = cache_key(digest, options)
        spec = JobSpec(
            job_id=new_job_id(digest),
            model_text=model_text,
            aig=aig,
            digest=digest,
            text_sha=text_sha(model_text),
            options=options,
            tenant=tenant,
            priority=priority,
        )
        self.metrics.incr("jobs_submitted")

        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.incr("cache_hits")
            job = Job(spec=spec, status=DONE, cache_hit=True, result=cached)
            job.started_at = job.finished_at = job.submitted_at
            job.started_mono = job.submitted_mono
            job.done_event.set()
            self._remember(job)
            return 200, job.summary()
        self.metrics.incr("cache_misses")

        job = Job(spec=spec)
        retry_after = self._retry_after_estimate()
        with self._lock:
            try:
                self.queue.put(
                    (spec.job_id, spec.payload()), priority, retry_after=retry_after
                )
            except QueueFull as exc:
                self.metrics.incr("queue_rejections")
                return 503, {
                    "error": str(exc),
                    "retry_after": max(1, int(exc.retry_after + 0.999)),
                }
            self._remember_locked(job)
        return 202, job.summary()

    def _retry_after_estimate(self) -> float:
        """Seconds until a queue slot likely frees up.

        Estimated from the *observed* drain rate: the mean solve latency
        so far (falling back to the default budget before the first job
        finishes) times the current backlog, spread across the pool.
        """
        avg = self.metrics.mean_solve_latency()
        if avg is None:
            avg = self.default_timeout
        backlog = len(self.queue) + self.pool.busy_workers
        return max(1.0, avg * max(1, backlog) / max(1, self.pool.size))

    # -- job table ------------------------------------------------------
    def _remember(self, job: Job) -> None:
        with self._lock:
            self._remember_locked(job)

    def _remember_locked(self, job: Job) -> None:
        self._jobs[job.spec.job_id] = job
        self._job_order.append(job.spec.job_id)
        while len(self._job_order) > self.max_jobs_kept:
            stale = self._job_order.pop(0)
            candidate = self._jobs.get(stale)
            if candidate is not None and candidate.status in (DONE, FAILED):
                del self._jobs[stale]
            else:  # pragma: no cover - active job outliving the window
                self._job_order.append(stale)
                break

    def get_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return job.summary() if job is not None else None

    def job_trace(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The recorded trace of one job as a Chrome trace document.

        Returns None when tracing is off, the job is unknown, or no
        events were recorded yet.  A job whose worker was SIGKILLed
        still answers here — from the incrementally flushed sink, or
        failing that the last flight-recorder snapshot.
        """
        if not self.trace_dir:
            return None
        with self._lock:
            if job_id not in self._jobs:
                return None
        import os

        from repro.obs.export import read_jsonl_events, to_chrome_document

        path = os.path.join(self.trace_dir, f"{job_id}.jsonl")
        if not os.path.exists(path):
            path = os.path.join(self.trace_dir, f"flight-{job_id}.jsonl")
        if not os.path.exists(path):
            return None
        events = read_jsonl_events(path)
        if not events:
            return None
        return to_chrome_document(events)

    def job_progress(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Live progress of one job from its worker's heartbeat.

        The document always carries the job's lifecycle status; while the
        job is running on a heartbeat-enabled pool it additionally carries
        the worker's pid/busy time and the latest heartbeat record (IC3
        frame, lemma/obligation totals, BMC bound, RSS/CPU, …) with its
        age in seconds.  Returns None for unknown jobs.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            progress: Dict[str, Any] = {
                "id": job_id,
                "status": job.status,
                "cache_hit": job.cache_hit,
            }
        worker = self.pool.worker_for_job(job_id)
        if worker is not None:
            progress["worker"] = worker
            record = self.pool.worker_heartbeat(worker["pid"])
            if record is not None:
                from repro.obs.heartbeat import HeartbeatMonitor

                heartbeat = dict(record.get("progress", {}))
                heartbeat["seq"] = record.get("seq")
                heartbeat["age_seconds"] = round(HeartbeatMonitor.age(record), 3)
                for key in ("rss_kb", "cpu_seconds"):
                    if record.get(key) is not None:
                        heartbeat[key] = record[key]
                progress["heartbeat"] = heartbeat
        return progress

    def list_jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {
                    "id": job.spec.job_id,
                    "status": job.status,
                    "tenant": job.spec.tenant,
                    "cache_hit": job.cache_hit,
                }
                for job in self._jobs.values()
            ]

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Block until a job finishes (tests and the CLI client use this)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return None
        job.done_event.wait(timeout)
        return job.summary()

    # -- pool callbacks -------------------------------------------------
    def _on_start(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                job.status = RUNNING
                job.started_at = time.time()
                job.started_mono = time.monotonic()
                self.metrics.observe_queue_latency(
                    job.started_mono - job.submitted_mono
                )

    def _on_result(self, job_id: str, record: Dict[str, Any], kind: str) -> None:
        if kind == "timeout":
            # A hard kill is an answer, not a malfunction: the job is
            # done with verdict UNKNOWN, like a harness timeout.
            record = dict(record)
            record["error"] = None
            status = DONE
        elif record.get("error") is not None:
            status = FAILED
        else:
            status = DONE
        warm = record.pop("warm", None) if isinstance(record, dict) else None
        if warm and warm.get("reduction_reused"):
            self.metrics.incr("reduction_reuses")
        self._finish_job(job_id, record, status)

    def _finish_job(self, job_id: str, record: Dict[str, Any], status: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:  # pragma: no cover - result for an evicted job
                return
            job.status = status
            job.result = record
            job.finished_at = time.time()
            if job.started_at is None:
                job.started_at = job.finished_at
                job.started_mono = time.monotonic()
            spec = job.spec
        if status == DONE:
            self.metrics.incr("jobs_completed")
            self.cache.put(cache_key(spec.digest, spec.options), record)
        else:
            self.metrics.incr("jobs_failed")
        verdict = "error" if status == FAILED else str(record.get("result", "unknown"))
        self.metrics.observe_solve_latency(verdict, float(record.get("runtime", 0.0) or 0.0))
        job.done_event.set()

    # -- introspection --------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok" if (self._started and self.pool.alive) else "stopped",
            "workers": self.pool.size,
            "busy_workers": self.pool.busy_workers,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.maxsize,
            "jobs_tracked": len(self._jobs),
            "cache_entries": len(self.cache),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        data = self.metrics.snapshot()
        data.update(
            {
                "queue_depth": len(self.queue),
                "busy_workers": self.pool.busy_workers,
                "cache_entries": len(self.cache),
                "tenant_tokens": self.budgets.snapshot(),
            }
        )
        return data

    def metrics_prometheus(self) -> str:
        """The daemon's full Prometheus text exposition.

        Merges the service's private registry (counters, latency
        histograms, point-in-time gauges refreshed here) with the global
        process registry (engine/SAT/harness families) into one page.
        """
        from repro.obs.metrics import get_registry, merge_snapshots, render_prometheus

        registry = self.metrics.registry
        registry.gauge(
            "repro_serve_queue_depth", "Jobs currently waiting in the queue."
        ).set(len(self.queue))
        registry.gauge(
            "repro_serve_busy_workers", "Warm workers currently running a job."
        ).set(self.pool.busy_workers)
        registry.gauge(
            "repro_serve_cache_entries", "Entries in the structural-digest cache."
        ).set(len(self.cache))
        registry.gauge(
            "repro_serve_uptime_seconds", "Seconds since the service metrics started."
        ).set(time.monotonic() - self.metrics._started_monotonic)
        tokens = registry.gauge(
            "repro_serve_tenant_tokens",
            "Remaining token-bucket budget per tenant.",
            labels=("tenant",),
        )
        for tenant, value in sorted(self.budgets.snapshot().items()):
            tokens.set(float(value), tenant=str(tenant))
        merged = merge_snapshots([get_registry().snapshot(), registry.snapshot()])
        return render_prometheus(merged)
