"""Pluggable incremental SAT-context layer.

A :class:`SatContext` is one persistent incremental solver plus the
bookkeeping that model-checking engines need around it: activation-literal
*scopes* for removable clause groups, timed and counted ``solve`` calls,
and clause-loading accounting.  (IC3's lemma-clause traffic on top of
a context is counted in :class:`repro.core.stats.IC3Stats`, where the
manifest reads it.)

The concrete solver behind a context is chosen by name from a small
factory registry, so alternative backends (a different CDCL
implementation, an instrumented wrapper, a native binding) can be plugged
in without touching the engines::

    @register_sat_backend("counting")
    def _make():
        return MyInstrumentedSolver()

    ctx = SatContext(backend="counting")

Every registered backend must provide the :class:`~repro.sat.solver.Solver`
interface (``add_clause``, ``solve``, assumptions, ``unsat_core``,
``get_model`` and the activation-literal API).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.sat.arena import ArenaSolver
from repro.sat.exceptions import SolverError
from repro.sat.solver import Solver

SolverFactory = Callable[[], Solver]

_BACKENDS: Dict[str, SolverFactory] = {}


# Backends every installation must keep: "default" is the reference
# oracle the differential tests and benchmarks compare against, "arena"
# is the flat-arena production kernel.
_PROTECTED_BACKENDS = frozenset({"default", "arena"})


def register_sat_backend(
    name: str, factory: Optional[SolverFactory] = None, override: bool = False
):
    """Register a solver factory under ``name`` (usable as a decorator).

    Re-registering an existing name raises :class:`SolverError` unless
    ``override=True`` is passed explicitly, so a plugin cannot silently
    shadow another backend (or the built-in ones).
    """

    def _register(fn: SolverFactory) -> SolverFactory:
        if name in _BACKENDS and not override:
            raise SolverError(
                f"SAT backend {name!r} is already registered "
                "(pass override=True to replace it)"
            )
        _BACKENDS[name] = fn
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def unregister_sat_backend(name: str) -> None:
    """Remove a backend registration (primarily for tests).

    The built-in backends cannot be unregistered: ``default`` is the
    reference oracle behind the differential-soundness guarantees and
    ``arena`` is the shipped production kernel.
    """
    if name in _PROTECTED_BACKENDS:
        raise SolverError(
            f"SAT backend {name!r} is built in and cannot be unregistered"
        )
    _BACKENDS.pop(name, None)


def sat_backend(name: str) -> SolverFactory:
    """Look up a registered solver factory by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise SolverError(
            f"unknown SAT backend {name!r} "
            f"(available: {', '.join(sorted(_BACKENDS))})"
        ) from None


def available_sat_backends() -> List[str]:
    """Names of all registered backends."""
    return sorted(_BACKENDS)


register_sat_backend("default", Solver)
register_sat_backend("arena", ArenaSolver)


def apply_solver_seed(solver, seed: int) -> None:
    """Seed a solver's branching randomization if the backend supports it.

    Both built-in kernels expose ``set_seed``; custom registered backends
    may not, in which case the seed is silently ignored (the solver just
    stays deterministic-unseeded, which is always sound).
    """
    if seed:
        set_seed = getattr(solver, "set_seed", None)
        if set_seed is not None:
            set_seed(seed)


@dataclass
class ContextStats:
    """Counters accumulated over the lifetime of one context."""

    solve_calls: int = 0
    sat_answers: int = 0
    unsat_answers: int = 0
    solve_time: float = 0.0
    clauses_loaded: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "solve_calls": self.solve_calls,
            "sat_answers": self.sat_answers,
            "unsat_answers": self.unsat_answers,
            "solve_time": self.solve_time,
            "clauses_loaded": self.clauses_loaded,
        }


class SatContext:
    """A reusable incremental solving context.

    Wraps one solver instance for the whole lifetime of an engine run;
    callers express clause removability through *scopes* (activation
    literals) instead of creating fresh solvers, and solve under
    assumptions that select which scopes are active.
    """

    def __init__(self, backend: str = "default", seed: int = 0):
        self.backend_name = backend
        self.solver = sat_backend(backend)()
        if seed:
            apply_solver_seed(self.solver, seed)
        self.stats = ContextStats()

    # ------------------------------------------------------------------
    # Clause loading
    # ------------------------------------------------------------------
    def load(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Bulk-add permanent clauses (e.g. a transition relation)."""
        ok = True
        for clause in clauses:
            ok = self.solver.add_clause(clause) and ok
            self.stats.clauses_loaded += 1
        return ok

    def add_clause(self, literals: Sequence[int]) -> bool:
        """Add one permanent clause."""
        self.stats.clauses_loaded += 1
        return self.solver.add_clause(literals)

    # ------------------------------------------------------------------
    # Scopes (removable clause groups)
    # ------------------------------------------------------------------
    def new_scope(self) -> int:
        """Open a removable clause scope; returns its activation literal."""
        return self.solver.new_activation()

    def add_to_scope(self, act: int, literals: Sequence[int]):
        """Add a clause active only while ``act`` is assumed.

        Returns the stored clause handle (None when simplified away),
        usable with :meth:`remove_from_scope`.
        """
        _, handle = self.solver.add_guarded(act, literals)
        return handle

    def remove_from_scope(self, act: int, handle) -> None:
        """Remove one clause from a scope (caller guarantees implication)."""
        self.solver.remove_guarded(act, handle)

    def release_scope(self, act: int) -> None:
        """Drop a scope's clauses and recycle its activation literal."""
        self.solver.release(act)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Timed, counted solve under assumptions."""
        start = time.perf_counter()
        result = self.solver.solve(assumptions)
        self.stats.solve_time += time.perf_counter() - start
        self.stats.solve_calls += 1
        if result:
            self.stats.sat_answers += 1
        else:
            self.stats.unsat_answers += 1
        return result

    def get_model(self) -> Dict[int, bool]:
        return self.solver.get_model()

    def unsat_core(self) -> List[int]:
        return self.solver.unsat_core()
