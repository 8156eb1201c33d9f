"""End-to-end tests of the verification service core.

Covers the PR's acceptance criteria: an isomorphic resubmission is served
from the structural-hash cache with the identical verdict and zero solver
work, and concurrent submissions against a bounded queue split cleanly
into admitted jobs (correct verdicts) and 503-style rejections — with the
metrics counters matching what was observed.
"""

import json
import threading

import pytest

from repro.aiger.parser import parse_aiger
from repro.aiger.writer import to_aag_string
from repro.benchgen import modular_counter, token_ring
from repro.serve.protocol import JobOptions
from repro.serve.service import VerificationService

SAFE_TEXT = to_aag_string(token_ring(3, safe=True).aig)
UNSAFE_TEXT = to_aag_string(modular_counter(3, modulus=8, bad_value=2).aig)


def isomorphic_variant(text: str) -> str:
    """A renumbered, gate-permuted rebuild of the same circuit.

    Round-tripping through the binary writer renumbers every variable
    densely in a fresh topological order — byte-wise a different file,
    structurally the same AIG.
    """
    from repro.aiger.writer import to_aig_bytes

    return to_aag_string(parse_aiger(to_aig_bytes(parse_aiger(text))))


@pytest.fixture
def service():
    svc = VerificationService(
        workers=2, queue_depth=8, default_timeout=20.0, tenant_burst=100.0
    )
    svc.start()
    yield svc
    svc.stop()


class TestSubmission:
    def test_submit_and_wait_safe(self, service):
        status, payload = service.submit(SAFE_TEXT)
        assert status == 202
        assert payload["status"] == "queued"
        summary = service.wait(payload["id"], timeout=60)
        assert summary["status"] == "done"
        assert summary["result"]["result"] == "safe"
        assert summary["result"]["error"] is None
        assert summary["cache_hit"] is False

    def test_submit_unsafe_carries_witness(self, service):
        status, payload = service.submit(UNSAFE_TEXT)
        assert status == 202
        summary = service.wait(payload["id"], timeout=60)
        assert summary["result"]["result"] == "unsafe"
        witness = summary["result"]["witness"]
        assert witness is not None and witness["kind"] == "trace"
        assert witness["steps"]

    def test_rejects_invalid_model(self, service):
        status, payload = service.submit("not an aiger file")
        assert status == 400
        assert "invalid model" in payload["error"]

    def test_rejects_unknown_engine(self, service):
        status, payload = service.submit(
            SAFE_TEXT, options=JobOptions(engine="nonsense", timeout=5.0)
        )
        assert status == 400
        assert "unknown engine" in payload["error"]
        # Unknown SAT kernels, reduction passes and fields are refused at
        # the door too, instead of taking a queue slot and failing later.
        for fields, message in (
            ({"sat_backend": "bogus"}, "unknown SAT backend"),
            ({"passes": ["nope"]}, "unknown reduction passes"),
            ({"passes": ["coi", 3]}, "unknown reduction passes"),
            ({"frame_backend": "monolithic"}, "unknown submission fields"),
        ):
            body = json.dumps({"model": SAFE_TEXT, **fields}).encode()
            status, payload = service.submit_raw(body)
            assert status == 400, fields
            assert message in payload["error"]
        assert service.metrics.get("jobs_submitted") == 0

    def test_get_job_and_list_jobs(self, service):
        _, payload = service.submit(SAFE_TEXT)
        service.wait(payload["id"], timeout=60)
        assert service.get_job(payload["id"])["id"] == payload["id"]
        assert service.get_job("job-nope") is None
        assert any(j["id"] == payload["id"] for j in service.list_jobs())


class TestStructuralCache:
    def test_isomorphic_resubmission_hits_cache(self, service):
        status, payload = service.submit(SAFE_TEXT)
        assert status == 202
        first = service.wait(payload["id"], timeout=60)
        assert first["result"]["result"] == "safe"

        variant = isomorphic_variant(SAFE_TEXT)
        assert variant != SAFE_TEXT  # byte-wise different submission
        status, second = service.submit(variant)
        assert status == 200  # answered inline, no queue slot
        assert second["cache_hit"] is True
        assert second["status"] == "done"
        # Identical verdict record, straight from the cache.
        assert second["result"] == first["result"]
        # Zero solver work: one completed run, one cache hit, and the
        # second job never touched the queue or a worker.
        assert service.metrics.get("jobs_submitted") == 2
        assert service.metrics.get("jobs_completed") == 1
        assert service.metrics.get("cache_hits") == 1
        assert service.metrics.get("cache_misses") == 1
        assert len(service.queue) == 0

    def test_different_options_miss_cache(self, service):
        _, payload = service.submit(SAFE_TEXT)
        service.wait(payload["id"], timeout=60)
        status, second = service.submit(
            SAFE_TEXT, options=JobOptions(engine="bmc", timeout=20.0)
        )
        assert status == 202  # different engine => different cache key
        service.wait(second["id"], timeout=60)
        assert service.metrics.get("cache_hits") == 0

    def test_unknown_verdicts_are_not_cached(self, service):
        # A budget far too small for even the reduced model: verdict
        # unknown, which must not be served to the next caller.
        opts = JobOptions(timeout=0.000001)
        _, payload = service.submit(SAFE_TEXT, options=opts)
        summary = service.wait(payload["id"], timeout=60)
        assert summary["result"]["result"] == "unknown"
        status, again = service.submit(SAFE_TEXT, options=opts)
        assert status == 202
        assert again["cache_hit"] is False
        service.wait(again["id"], timeout=60)


class TestBackpressure:
    def test_concurrent_overflow_rejected_with_503(self):
        service = VerificationService(
            workers=1, queue_depth=4, default_timeout=20.0, tenant_burst=100.0
        )
        service.start()
        try:
            # Keep the dispatcher from draining so occupancy is exact.
            service.pool.pause()
            outcomes = []
            lock = threading.Lock()

            def submit_one():
                status, payload = service.submit(SAFE_TEXT)
                with lock:
                    outcomes.append((status, payload))

            threads = [threading.Thread(target=submit_one) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            accepted = [p for s, p in outcomes if s == 202]
            rejected = [p for s, p in outcomes if s == 503]
            assert len(accepted) == 4
            assert len(rejected) == 4
            for payload in rejected:
                assert payload["retry_after"] >= 1
                assert "full" in payload["error"]
            assert service.metrics.get("jobs_submitted") == 8
            assert service.metrics.get("queue_rejections") == 4

            service.pool.resume()
            for payload in accepted:
                summary = service.wait(payload["id"], timeout=120)
                assert summary["status"] == "done"
                assert summary["result"]["result"] == "safe"
            snapshot = service.metrics_snapshot()
            assert snapshot["jobs_completed"] == 4
            assert snapshot["cache_hits"] == 0
            assert snapshot["queue_rejections"] == 4
            assert snapshot["worker_recycles"] == 0
        finally:
            service.stop()

    def test_tenant_budget_rejected_with_429(self):
        service = VerificationService(
            workers=1, queue_depth=8, tenant_rate=0.001, tenant_burst=2.0
        )
        service.start()
        try:
            service.pool.pause()
            assert service.submit(SAFE_TEXT, tenant="alice")[0] == 202
            assert service.submit(SAFE_TEXT, tenant="alice")[0] == 202
            status, payload = service.submit(SAFE_TEXT, tenant="alice")
            assert status == 429
            assert payload["retry_after"] >= 1
            # An independent tenant is unaffected.
            assert service.submit(SAFE_TEXT, tenant="bob")[0] == 202
            assert service.metrics.get("budget_rejections") == 1
        finally:
            service.stop()

    def test_stop_fails_queued_jobs(self):
        service = VerificationService(workers=1, queue_depth=8, tenant_burst=100.0)
        service.start()
        service.pool.pause()
        _, payload = service.submit(SAFE_TEXT)
        service.stop()
        summary = service.get_job(payload["id"])
        assert summary["status"] in ("failed", "done")
        if summary["status"] == "failed":
            assert "shut down" in summary["result"]["error"]

    def test_health_reports_capacity(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["queue_capacity"] == 8
