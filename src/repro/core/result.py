"""Results returned by the model-checking engines.

A run ends in one of three verdicts: SAFE (with an inductive-invariant
:class:`Certificate`), UNSAFE (with a :class:`CounterexampleTrace` that can
be replayed on the AIG), or UNKNOWN (resource limit reached).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from repro.logic.cnf import CNF
from repro.logic.cube import Clause, Cube
from repro.core.stats import IC3Stats


class CheckResult(str, Enum):
    """Verdict of a model-checking run."""

    SAFE = "safe"
    UNSAFE = "unsafe"
    UNKNOWN = "unknown"

    @property
    def solved(self) -> bool:
        """True if the run produced a definite answer."""
        return self in (CheckResult.SAFE, CheckResult.UNSAFE)


@dataclass
class Certificate:
    """An inductive invariant proving the property.

    ``clauses`` are over the transition system's current-state (latch)
    variables.  The invariant is their conjunction together with the
    property itself; :func:`repro.core.invariant.check_certificate`
    validates the three defining conditions.
    """

    clauses: List[Clause] = field(default_factory=list)
    level: int = 0
    """The frame index at which ``F_i = F_{i+1}`` was detected."""

    def to_cnf(self) -> CNF:
        """The invariant clauses as a CNF formula."""
        cnf = CNF()
        for clause in self.clauses:
            cnf.add(clause)
        return cnf

    def __len__(self) -> int:
        return len(self.clauses)


@dataclass
class TraceStep:
    """One step of a counterexample trace."""

    state: Cube
    """Partial assignment of latch variables entering this step."""

    inputs: Dict[int, bool] = field(default_factory=dict)
    """AIG input literal -> value applied during this step."""


@dataclass
class CounterexampleTrace:
    """A finite path from an initial state to a bad state."""

    steps: List[TraceStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def depth(self) -> int:
        """Number of transitions in the trace."""
        return max(0, len(self.steps) - 1)

    def input_sequence(self) -> List[Dict[int, bool]]:
        """Per-step AIG input assignments, ready for :meth:`AIG.simulate`."""
        return [step.inputs for step in self.steps]


@dataclass
class LassoTrace:
    """An infinite counterexample to a liveness (justice) property.

    The witnessed run is ``steps[0 .. loop_start-1]`` (the stem) followed
    by ``steps[loop_start ..]`` repeated forever: applying the last step's
    inputs returns the system to ``steps[loop_start].state``.  Every
    literal of the violated justice property (and every fairness
    constraint) holds at some step inside the loop;
    :func:`repro.props.witness.check_lasso` validates all of this against
    the original AIG by simulation.
    """

    steps: List[TraceStep] = field(default_factory=list)
    loop_start: int = 0
    justice_index: int = 0
    """Index of the violated justice property in the AIG's justice list."""

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def stem_length(self) -> int:
        """Number of steps before the loop is entered."""
        return self.loop_start

    @property
    def loop_length(self) -> int:
        """Number of steps in the repeating loop."""
        return len(self.steps) - self.loop_start

    def input_sequence(self) -> List[Dict[int, bool]]:
        """Per-step AIG input assignments, ready for :meth:`AIG.simulate`."""
        return [step.inputs for step in self.steps]


@dataclass
class CheckOutcome:
    """Everything a model-checking run produced."""

    result: CheckResult
    runtime: float = 0.0
    frames: int = 0
    certificate: Optional[Certificate] = None
    trace: Optional[CounterexampleTrace] = None
    stats: IC3Stats = field(default_factory=IC3Stats)
    engine: str = "ic3"
    reason: str = ""
    """Free-form explanation for UNKNOWN results (timeout, budget, ...)."""

    winner: Optional[str] = None
    """For portfolio runs: name of the member engine that produced the verdict."""

    reduction: Optional[Dict[str, object]] = None
    """Preprocessing shrinkage summary (see ``ReductionResult.summary``),
    None when the engine ran without reduction."""

    lasso: Optional[LassoTrace] = None
    """For liveness engines: the lasso counterexample on the original AIG
    (UNSAFE justice verdicts carry this instead of ``trace``)."""

    transformation: Optional[Dict[str, object]] = None
    """Liveness-transformation statistics (l2s/k-liveness compiler summary),
    None for plain safety runs."""

    properties: Optional[List[Dict[str, object]]] = None
    """For multi-property scheduler runs: one per-property verdict record
    (see ``ScheduleResult.as_dict``), None for single-property runs."""

    sharing: Optional[Dict[str, object]] = None
    """Always None: portfolio members no longer exchange lemmas.  Kept
    because benchmark drivers still read the attribute."""

    @property
    def solved(self) -> bool:
        """True if the verdict is SAFE or UNSAFE."""
        return self.result.solved

    def summary(self) -> str:
        """A one-line human-readable summary."""
        parts = [f"{self.engine}: {self.result.value}", f"{self.runtime:.2f}s"]
        if self.result == CheckResult.SAFE and self.certificate is not None:
            parts.append(f"invariant with {len(self.certificate)} clauses")
        if self.result == CheckResult.UNSAFE and self.lasso is not None:
            parts.append(
                f"lasso with stem {self.lasso.stem_length} + loop {self.lasso.loop_length}"
            )
        elif self.result == CheckResult.UNSAFE and self.trace is not None:
            parts.append(f"counterexample of depth {self.trace.depth}")
        if self.result == CheckResult.UNKNOWN and self.reason:
            parts.append(self.reason)
        if self.winner:
            parts.append(f"won by {self.winner}")
        return ", ".join(parts)
