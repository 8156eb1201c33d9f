"""Wire protocol of the verification service.

Defines the request/response shapes shared by the HTTP server, the worker
pool and the clients:

* :class:`JobOptions` — the engine-facing knobs of one submission.  The
  subset that can change a verdict (everything except the time budget)
  forms the :meth:`JobOptions.cache_fields`, which combine with the
  model's structural digest into the result-cache key;
* :class:`JobSpec` — one admitted job: id, tenant, priority, the parsed
  model plus its digests, and the options;
* :func:`outcome_to_record` — flattens a
  :class:`~repro.core.result.CheckOutcome` into the JSON result record a
  ``GET /jobs/{id}`` response carries.  The record is *manifest
  compatible*: it has the same ``result``/``runtime``/``frames``/
  ``engine``/``winner``/``stats``/``reduction``/``properties``/
  ``transformation``/``error`` fields as one ``results`` row of a
  ``repro-check/manifest/v7`` document, plus the serialized witness;
* :func:`parse_job_body` — decodes a ``POST /jobs`` body, which is
  either a raw AIGER document (``aag``/``aig`` magic) or a JSON object
  ``{"model": "<aag text>", "engine": ..., ...}``.

Job states: ``queued`` → ``running`` → ``done`` | ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.aiger.aig import AIG
from repro.core.result import CheckOutcome, CounterexampleTrace, LassoTrace

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class ProtocolError(Exception):
    """Malformed submission body or options (maps to HTTP 400)."""


@dataclass(frozen=True)
class JobOptions:
    """Engine configuration of one verification job."""

    engine: str = "ic3-pl"
    all_properties: bool = False
    property_index: Optional[int] = None
    timeout: Optional[float] = None
    max_depth: int = 50
    max_k: int = 20
    reduce: bool = True
    passes: Optional[Sequence[str]] = None
    sat_backend: Optional[str] = None

    def cache_fields(self) -> Dict[str, Any]:
        """The verdict-relevant fields (the time budget is excluded: only
        *solved* results are cached, and a SAFE/UNSAFE verdict reached
        under a shorter budget is just as valid under a longer one)."""
        return {
            "engine": self.engine,
            "all_properties": self.all_properties,
            "property_index": self.property_index,
            "max_depth": self.max_depth,
            "max_k": self.max_k,
            "reduce": self.reduce,
            "passes": list(self.passes) if self.passes is not None else None,
            "sat_backend": self.sat_backend,
        }

    def as_dict(self) -> Dict[str, Any]:
        data = dict(self.cache_fields())
        data["timeout"] = self.timeout
        return data


def cache_key(digest: str, options: JobOptions) -> str:
    """Result-cache key: structural digest × canonical option encoding."""
    encoded = json.dumps(options.cache_fields(), sort_keys=True, separators=(",", ":"))
    return digest + ":" + hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


@dataclass
class JobSpec:
    """One admitted verification job (parent-side bookkeeping)."""

    job_id: str
    model_text: str
    aig: AIG
    digest: str
    """Structural digest of the model (the cache key component)."""

    text_sha: str
    """Exact-source hash (worker-side reduction memo key: literal
    numbering must match for reconstruction maps to be reusable)."""

    options: JobOptions = field(default_factory=JobOptions)
    tenant: str = "anonymous"
    priority: int = 0

    def payload(self) -> Dict[str, Any]:
        """What is shipped to a worker process over the pipe."""
        return {
            "job_id": self.job_id,
            "aig": self.aig,
            "digest": self.digest,
            "text_sha": self.text_sha,
            "options": self.options,
        }


def new_job_id(digest: str) -> str:
    """Opaque but debuggable job id (digest prefix + random suffix)."""
    return f"job-{digest[:10]}-{uuid.uuid4().hex[:10]}"


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------
def _serialize_trace(trace: CounterexampleTrace) -> Dict[str, Any]:
    return {
        "kind": "trace",
        "depth": max(0, len(trace.steps) - 1),
        "steps": [
            {
                "state": list(step.state),
                "inputs": {str(lit): bool(value) for lit, value in step.inputs.items()},
            }
            for step in trace.steps
        ],
    }


def _serialize_lasso(lasso: LassoTrace) -> Dict[str, Any]:
    data = _serialize_trace(lasso)  # type: ignore[arg-type] - same step shape
    data.update(
        {
            "kind": "lasso",
            "loop_start": lasso.loop_start,
            "justice_index": lasso.justice_index,
        }
    )
    data.pop("depth", None)
    return data


def outcome_to_record(
    outcome: CheckOutcome, *, runtime: Optional[float] = None
) -> Dict[str, Any]:
    """Manifest-v6-compatible result record of one finished check."""
    witness: Optional[Dict[str, Any]] = None
    if outcome.lasso is not None:
        witness = _serialize_lasso(outcome.lasso)
    elif outcome.trace is not None:
        witness = _serialize_trace(outcome.trace)
    certificate = None
    if outcome.certificate is not None:
        certificate = {
            "clauses": len(outcome.certificate),
            "level": outcome.certificate.level,
        }
    return {
        "result": outcome.result.value,
        "runtime": round(outcome.runtime if runtime is None else runtime, 6),
        "frames": outcome.frames,
        "engine": outcome.engine,
        "winner": outcome.winner,
        "reason": outcome.reason,
        "stats": outcome.stats.as_dict(),
        "reduction": outcome.reduction,
        "properties": outcome.properties,
        "transformation": outcome.transformation,
        "witness": witness,
        "certificate": certificate,
        "error": None,
    }


def error_record(message: str, *, runtime: float = 0.0) -> Dict[str, Any]:
    """Result record of a crashed / killed / rejected job."""
    return {
        "result": "unknown",
        "runtime": round(runtime, 6),
        "frames": 0,
        "engine": None,
        "winner": None,
        "reason": message,
        "stats": {},
        "reduction": None,
        "properties": None,
        "transformation": None,
        "witness": None,
        "certificate": None,
        "error": message,
    }


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------
_OPTION_TYPES = {
    "engine": str,
    "all_properties": bool,
    "property_index": int,
    "timeout": (int, float),
    "max_depth": int,
    "max_k": int,
    "reduce": bool,
    "passes": list,
    "sat_backend": str,
    "priority": int,
}


def parse_job_body(body: bytes) -> Dict[str, Any]:
    """Decode a ``POST /jobs`` body into ``{"model": str, **options}``.

    Raw AIGER documents (``aag``/``aig`` magic) are accepted as-is with
    default options; anything else must be a JSON object with a
    ``model`` field.  Raises :class:`ProtocolError` on malformed input.
    """
    if body.startswith(b"aag") or body.startswith(b"aig"):
        if body.startswith(b"aig"):
            # Binary AIGER survives neither JSON nor latin-1 round-trips
            # reliably; require base64 via the JSON envelope instead.
            raise ProtocolError(
                "binary AIGER bodies are not supported; submit the ASCII "
                "(aag) form or a JSON envelope"
            )
        try:
            return {"model": body.decode("ascii")}
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"model is not ASCII AIGER: {exc}") from None
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"body is neither AIGER nor valid JSON: {exc}") from None
    if not isinstance(document, dict) or "model" not in document:
        raise ProtocolError('JSON submissions need a "model" field with AAG text')
    if not isinstance(document["model"], str):
        raise ProtocolError('"model" must be a string of ASCII AIGER text')
    unknown = set(document) - set(_OPTION_TYPES) - {"model"}
    if unknown:
        raise ProtocolError(f"unknown submission fields: {', '.join(sorted(unknown))}")
    for name, types in _OPTION_TYPES.items():
        if name in document and document[name] is not None:
            value = document[name]
            if isinstance(value, bool) and types is not bool:
                raise ProtocolError(f"field {name!r} has the wrong type")
            if not isinstance(value, types):
                raise ProtocolError(f"field {name!r} has the wrong type")
    return document


def options_from_document(
    document: Dict[str, Any], *, default_timeout: float, max_timeout: float
) -> JobOptions:
    """Build validated :class:`JobOptions` from a parsed submission."""
    timeout = document.get("timeout")
    timeout = float(timeout) if timeout is not None else default_timeout
    if timeout <= 0:
        raise ProtocolError("timeout must be positive")
    passes = document.get("passes")
    return JobOptions(
        engine=document.get("engine", "ic3-pl"),
        all_properties=bool(document.get("all_properties", False)),
        property_index=document.get("property_index"),
        timeout=min(timeout, max_timeout),
        max_depth=int(document.get("max_depth", 50)),
        max_k=int(document.get("max_k", 20)),
        reduce=bool(document.get("reduce", True)),
        passes=list(passes) if passes is not None else None,
        sat_backend=document.get("sat_backend"),
    )


def job_summary(
    job_id: str,
    status: str,
    *,
    tenant: str,
    priority: int,
    cache_hit: bool,
    submitted_at: float,
    started_at: Optional[float],
    finished_at: Optional[float],
    waited: float,
    result: Optional[Dict[str, Any]],
    options: JobOptions,
) -> Dict[str, Any]:
    """The ``GET /jobs/{id}`` response body.

    The ``*_at`` fields are wall-clock timestamps for display; ``waited``
    (queue latency) is computed by the caller from monotonic clocks so a
    wall-clock step (NTP, DST) can never produce a negative or inflated
    latency.
    """
    return {
        "id": job_id,
        "status": status,
        "tenant": tenant,
        "priority": priority,
        "cache_hit": cache_hit,
        "submitted_at": round(submitted_at, 6),
        "started_at": round(started_at, 6) if started_at is not None else None,
        "finished_at": round(finished_at, 6) if finished_at is not None else None,
        "waited": round(max(0.0, waited), 6),
        "options": options.as_dict(),
        "result": result,
    }


def text_sha(model_text: str) -> str:
    """Exact-source hash of a submission (worker reduction-memo key)."""
    return hashlib.sha256(model_text.encode("utf-8")).hexdigest()


__all__: List[str] = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "ProtocolError",
    "JobOptions",
    "JobSpec",
    "cache_key",
    "new_job_id",
    "outcome_to_record",
    "error_record",
    "parse_job_body",
    "options_from_document",
    "job_summary",
    "text_sha",
]
