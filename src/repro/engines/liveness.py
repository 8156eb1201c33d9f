"""Liveness engines behind the uniform Engine protocol.

``l2s`` compiles one justice property to a safety circuit
(:mod:`repro.props.l2s`) and hands it to any registered inner safety
engine — both proofs and refutations come back, and UNSAFE verdicts are
lifted to a :class:`~repro.core.result.LassoTrace` on the original AIG.

``klive`` runs the k-liveness sweep (:mod:`repro.props.klive`): one
counter circuit with ``max_k + 1`` bad literals, checked at increasing
``k`` until the inner engine proves a bound (SAFE) or the budget runs
out.  Bounds follow a doubling schedule (0, 1, 2, 4, ..., ``max_k``):
any bound at or above the minimal provable one is provable, so skipping
intermediate bounds only loosens the reported ``k`` while cutting the
number of from-scratch inner runs to O(log ``max_k``) on hard proofs
and on violated properties (which refute every bound).  k-liveness can
only *prove* justice properties; violations fall through as UNKNOWN and
are the l2s engine's job.

Both engines accept ``justice_index`` (defaulting to ``property_index``
so registry/harness call sites that number properties generically keep
working) and forward ``reduce``/``passes`` to the inner engine, which
therefore shrinks the *compiled* circuit and lifts witnesses back to it
before the liveness layer lifts them to the original model.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.aiger.aig import AIG
from repro.core.options import IC3Options
from repro.core.result import CheckOutcome, CheckResult
from repro.core.stats import IC3Stats
from repro.engines.registry import create_engine, register_engine
from repro.props.klive import kliveness
from repro.props.l2s import liveness_to_safety


def _inner_kwargs(
    inner: str,
    reduce: bool,
    passes: Optional[Sequence[str]],
    sat_backend: Optional[str],
    max_depth: int,
) -> dict:
    kwargs: dict = {"reduce": reduce, "passes": passes}
    if sat_backend is not None:
        kwargs["sat_backend"] = sat_backend
    if inner == "bmc":
        kwargs["max_depth"] = max_depth
    return kwargs


class L2SEngine:
    """Liveness-to-safety behind the Engine protocol."""

    def __init__(
        self,
        aig: AIG,
        options: Optional[IC3Options] = None,
        justice_index: Optional[int] = None,
        property_index: int = 0,
        inner: str = "ic3-pl",
        reduce: bool = True,
        passes: Optional[Sequence[str]] = None,
        sat_backend: Optional[str] = None,
        max_depth: int = 50,
        name: Optional[str] = None,
        **_ignored,
    ):
        index = property_index if justice_index is None else justice_index
        self.inner = inner
        self.name = name or "l2s"
        self.l2s = liveness_to_safety(aig, index)
        self._engine = create_engine(
            inner,
            self.l2s.aig,
            options=options,
            property_index=0,
            **_inner_kwargs(inner, reduce, passes, sat_backend, max_depth),
        )

    def check(self, time_limit: Optional[float] = None) -> CheckOutcome:
        outcome = self._engine.check(time_limit=time_limit)
        transformation = self.l2s.summary()
        transformation["inner"] = self.inner
        outcome.transformation = transformation
        if outcome.result == CheckResult.UNSAFE and outcome.trace is not None:
            outcome.lasso = self.l2s.lift_trace(outcome.trace)
            outcome.trace = None  # the safety trace speaks the compiled model
        outcome.engine = self.name
        return outcome


class KLivenessEngine:
    """The k-liveness sweep behind the Engine protocol (proof-only)."""

    def __init__(
        self,
        aig: AIG,
        options: Optional[IC3Options] = None,
        justice_index: Optional[int] = None,
        property_index: int = 0,
        max_k: int = 16,
        inner: str = "ic3-pl",
        reduce: bool = True,
        passes: Optional[Sequence[str]] = None,
        sat_backend: Optional[str] = None,
        name: Optional[str] = None,
        **_ignored,
    ):
        index = property_index if justice_index is None else justice_index
        self.inner = inner
        self.name = name or "klive"
        self.options = options
        self.reduce = reduce
        self.passes = passes
        self.sat_backend = sat_backend
        self.compiled = kliveness(aig, index, max_k=max_k)

    @property
    def bound_schedule(self):
        """The doubling bound schedule: 0, 1, 2, 4, ..., max_k."""
        bounds = [0]
        k = 1
        while k < self.compiled.max_k:
            bounds.append(k)
            k *= 2
        if self.compiled.max_k > 0:
            bounds.append(self.compiled.max_k)
        return bounds

    def check(self, time_limit: Optional[float] = None) -> CheckOutcome:
        start = time.perf_counter()
        deadline = start + time_limit if time_limit is not None else None
        stats = IC3Stats()
        frames = 0
        refuted_at = -1
        for k in self.bound_schedule:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
            engine = create_engine(
                self.inner,
                self.compiled.aig,
                options=self.options,
                property_index=k,
                **_inner_kwargs(
                    self.inner,
                    self.reduce,
                    self.passes,
                    self.sat_backend,
                    max_depth=50,
                ),
            )
            outcome = engine.check(time_limit=remaining)
            stats = stats.merge(outcome.stats)
            frames = max(frames, outcome.frames)
            if outcome.result == CheckResult.SAFE:
                transformation = self.compiled.summary()
                transformation["k"] = k
                transformation["inner"] = self.inner
                outcome.transformation = transformation
                outcome.engine = self.name
                outcome.stats = stats
                outcome.frames = frames
                outcome.runtime = time.perf_counter() - start
                return outcome
            if outcome.result == CheckResult.UNSAFE:
                refuted_at = k  # the bound is too small; raise k and retry
                continue
            return self._unknown(
                start,
                stats,
                frames,
                f"k-liveness inconclusive at k={k}: {outcome.reason or 'unknown'}",
            )
        if deadline is not None and time.perf_counter() > deadline:
            reason = f"time limit reached (largest refuted bound: k={refuted_at})"
        else:
            reason = (
                f"k-liveness bound exhausted at max_k={self.compiled.max_k} "
                f"(the property may be violated; try the l2s engine)"
            )
        return self._unknown(start, stats, frames, reason)

    def _unknown(
        self, start: float, stats: IC3Stats, frames: int, reason: str
    ) -> CheckOutcome:
        transformation = self.compiled.summary()
        transformation["inner"] = self.inner
        return CheckOutcome(
            result=CheckResult.UNKNOWN,
            runtime=time.perf_counter() - start,
            frames=frames,
            stats=stats,
            engine=self.name,
            reason=reason,
            transformation=transformation,
        )


# ----------------------------------------------------------------------
# Default registrations
# ----------------------------------------------------------------------
@register_engine("l2s", aliases=("liveness-to-safety",))
def _make_l2s(aig: AIG, options: Optional[IC3Options] = None, **kwargs) -> L2SEngine:
    return L2SEngine(aig, options=options, **kwargs)


@register_engine("klive", aliases=("k-liveness",))
def _make_klive(
    aig: AIG, options: Optional[IC3Options] = None, **kwargs
) -> KLivenessEngine:
    return KLivenessEngine(aig, options=options, **kwargs)


@register_engine("scheduler", aliases=("sched", "multi"))
def _make_scheduler(aig: AIG, options: Optional[IC3Options] = None, **kwargs):
    # Imported lazily: repro.props.scheduler itself pulls in the engine
    # registry, so a module-level import here would be circular.
    from repro.props.scheduler import SchedulerEngine

    return SchedulerEngine(aig, options=options, **kwargs)
