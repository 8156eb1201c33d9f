"""Frame sequence management and the SAT queries of IC3.

The frame sequence is *delta encoded*: ``frames[i]`` stores only the cubes
whose lemma lives exactly at level ``i``; the logical frame ``F_i`` is the
conjunction of the lemmas stored at every level ``j >= i``.

:class:`FrameManager` answers the SAT queries on **one** persistent
incremental solver for the whole run.  Frame membership is expressed by
activation literals: the lemma ``¬c`` at level ``i`` is added once as
``¬act_i ∨ ¬c`` and a query against the logical frame ``F_i`` simply
assumes ``{act_i, …, act_top}``.  Temporary per-query clauses live in
recyclable activation scopes that are truly deleted after the query, so
no garbage-driven solver rebuilds are needed.

The three queries every IC3 variant needs:

* :meth:`FrameManager.get_bad_state` — ``SAT?(F_k ∧ Bad)``;
* :meth:`FrameManager.consecution` — ``SAT?(F_i ∧ ¬c ∧ T ∧ c')`` with
  assumption-core extraction on UNSAT and CTI/CTP extraction on SAT;
* :meth:`FrameManager.lift_predecessor` — assumption-core shrinking of
  a concrete predecessor state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.options import IC3Options
from repro.core.stats import IC3Stats
from repro.logic.cube import Clause, Cube
from repro.sat.context import SatContext
from repro.ts.system import TransitionSystem


@dataclass
class ConsecutionResult:
    """Outcome of one relative-induction query."""

    holds: bool
    core_cube: Optional[Cube] = None
    """On UNSAT: the subset of the cube present in the assumption core."""

    predecessor: Optional[Cube] = None
    """On SAT: the pre-state s of the counterexample (full latch cube)."""

    inputs: Optional[Cube] = None
    """On SAT: the input assignment of the counterexample transition."""

    successor: Optional[Cube] = None
    """On SAT: the post-state t (the CTP state), over current-state vars."""

    input_values: Dict[int, bool] = field(default_factory=dict)
    """On SAT: AIG input literal -> value (for trace reconstruction)."""


@dataclass
class BadState:
    """A state of the top frame that can violate the property."""

    state: Cube
    inputs: Cube
    input_values: Dict[int, bool] = field(default_factory=dict)



class FrameManager:
    """Frame management on a single persistent incremental solver.

    One :class:`~repro.sat.context.SatContext` holds the transition
    relation for the whole run.  Every frame ``i >= 1`` owns a persistent
    activation literal ``act_i``; the lemma ``¬c`` at level ``i`` becomes
    the single clause ``¬act_i ∨ ¬c`` and a query against the logical
    frame ``F_i`` assumes ``{act_i, …, act_top}``.  Frame 0 is exactly
    the initial states and never receives lemmas, so its queries run in a
    small dedicated context with the initial cube asserted as persistent
    unit clauses.  Per-query clauses — the ``¬c`` of a consecution
    fallback, the ``¬t'`` of a lift — live in recyclable scopes that are
    deleted right after the query, so the solver never accumulates
    garbage from temporary clauses and no rebuild heuristic is needed.
    """

    def __init__(self, ts: TransitionSystem, options: IC3Options, stats: IC3Stats):
        self.ts = ts
        self.options = options
        self.stats = stats
        self.frames: List[List[Cube]] = [[]]
        self._ctx = self._new_trans_context()
        # ``_acts[0]`` is a placeholder keeping ``_acts[level]`` aligned
        # with frame levels: frame 0 lives in ``_init_ctx`` below.
        self._acts: List[int] = [0]

        # Frame 0 is exactly the initial states and never receives
        # lemmas, so it lives in its own small context with the initial
        # cube as hard unit clauses: their unit-propagation closure then
        # persists at level 0 across every frame-0 query instead of being
        # replayed through an assumption each time.
        self._init_ctx = self._new_trans_context()
        for lit in ts.init_cube:
            self._init_ctx.add_clause([lit])

        # Predecessor lifting runs against the bare transition relation
        # (no frame lemmas), so it gets its own small context: routing it
        # through the main solver would flush the reusable assumption
        # trail between consecutive consecution queries.
        self._lift_ctx = self._new_trans_context()

        # One live clause per lemma: ``_lemma_handles`` maps a cube's
        # literal set to ``(coverage level, solver clause handle)``.  The
        # frame implication chain ``act_L -> act_{L+1}`` added per frame
        # makes a lemma's lower-coverage copy implied by a higher one, so
        # promotion and subsumption can physically *remove* clauses while
        # every learnt clause stays sound.  ``_lemma_copies`` counts how
        # many frames-list entries share the literal set (CTG blocking
        # can re-add a cube below an existing higher-level copy): the
        # physical clause is only deleted when the last copy dies.
        self._lemma_handles: Dict[frozenset, tuple] = {}
        self._lemma_copies: Dict[frozenset, int] = {}

        # Deferred promotion moves: when a lemma moves from level f to
        # level t its old clause (guarded by act_f) stays live, so the new
        # act_t copy is only *required* by queries at levels f < L <= t.
        # Batching the moves keeps the reusable assumption trail intact
        # across a whole propagation sweep.
        self._pending_moves: List[tuple] = []  # (from_level, to_level, cube)
        self._pending_removals: List[frozenset] = []

    @property
    def context(self) -> SatContext:
        """The solving context backing every query of this run."""
        return self._ctx

    # ------------------------------------------------------------------
    # Frame construction
    # ------------------------------------------------------------------
    @property
    def top_level(self) -> int:
        """Index of the highest frame currently open (the k of IC3)."""
        return len(self.frames) - 1

    def add_frame(self) -> int:
        """Open a new top frame F_{k+1} = ⊤ and return its index."""
        level = len(self.frames)
        self.frames.append([])
        act = self._ctx.new_scope()
        self._acts.append(act)
        if level >= 2:
            # Frame implication chain: a query at level <= L-1 always
            # assumes act_L too, so act_{L-1} -> act_L encodes the
            # assumption discipline as a clause.  It never changes a
            # query's answer, but it makes a lemma's pre-promotion copy
            # implied by its promoted copy — which is what allows real
            # clause deletion below.
            self._ctx.add_clause([-self._acts[level - 1], act])
        self.stats.frames_opened += 1
        return level

    # ------------------------------------------------------------------
    # Lemma bookkeeping
    # ------------------------------------------------------------------
    def add_blocked_cube(self, cube: Cube, level: int) -> None:
        """Record that ``cube`` is blocked in frames 1..level (lemma ¬cube)."""
        if level < 1 or level > self.top_level:
            raise ValueError(f"lemma level {level} out of range 1..{self.top_level}")
        # Subsumption: drop weaker cubes made redundant by the new lemma.
        for frame_level in range(1, level + 1):
            kept = []
            for existing in self.frames[frame_level]:
                if cube.literal_set <= existing.literal_set:
                    self.stats.subsumed_lemmas += 1
                    self._note_subsumed(existing)
                    continue
                kept.append(existing)
            self.frames[frame_level] = kept
        self.frames[level].append(cube)
        self._install_lemma(cube, level)
        self.stats.lemmas_added += 1

    def promote_cube(self, cube: Cube, from_level: int, to_level: int) -> None:
        """Move a lemma up after a successful propagation push."""
        if cube in self.frames[from_level]:
            self.frames[from_level].remove(cube)
        self.frames[to_level].append(cube)
        # The solver side moves once a query needs it (``_flush_pending``).
        self._pending_moves.append((from_level, to_level, cube))
        self.stats.solver_clauses_shared += max(to_level - from_level - 1, 0)
        self.stats.lemmas_pushed += 1

    def lemmas_exactly_at(self, level: int) -> List[Cube]:
        """Cubes whose lemma lives exactly at ``level`` (F_level \\ F_{level+1})."""
        if level < 0 or level > self.top_level:
            return []
        return list(self.frames[level])

    def lemmas_at_or_above(self, level: int) -> List[Cube]:
        """All cubes of the logical frame F_level."""
        result: List[Cube] = []
        for frame_level in range(max(level, 1), len(self.frames)):
            result.extend(self.frames[frame_level])
        return result

    def frame_clauses(self, level: int) -> List[Clause]:
        """The lemma clauses of the logical frame F_level."""
        return [cube.negate() for cube in self.lemmas_at_or_above(level)]

    def is_blocked_syntactically(self, cube: Cube, level: int) -> bool:
        """True if an existing lemma at level >= ``level`` already blocks ``cube``."""
        for frame_level in range(level, len(self.frames)):
            for blocked in self.frames[frame_level]:
                if blocked.literal_set <= cube.literal_set:
                    return True
        return False

    def frames_equal(self, level: int) -> bool:
        """True if F_level = F_{level+1}, i.e. no lemma lives exactly at level."""
        return not self.frames[level]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def lemma_counts(self) -> List[int]:
        """Number of lemmas stored exactly at each level."""
        return [len(frame) for frame in self.frames]

    def total_lemmas(self) -> int:
        """Number of lemmas across all frames."""
        return sum(len(frame) for frame in self.frames)

    # ------------------------------------------------------------------
    # Solver side of the lemma bookkeeping
    # ------------------------------------------------------------------
    def _new_trans_context(self) -> SatContext:
        """A fresh context of the configured backend loaded with T."""
        ctx = SatContext(backend=self.options.sat_backend, seed=self.options.seed)
        ctx.solver.ensure_var(self.ts.num_vars)
        ctx.load(clause.literals for clause in self.ts.trans)
        return ctx

    def _process_removals(self) -> None:
        """Physically delete the clauses of fully-subsumed lemmas."""
        if not self._pending_removals:
            return
        for key in self._pending_removals:
            if self._pending_moves:
                self._pending_moves = [
                    m for m in self._pending_moves if m[2].literal_set != key
                ]
            entry = self._lemma_handles.pop(key, None)
            if entry is not None and entry[1] is not None:
                self._remove_clause_at(entry[0], entry[1])
        self._pending_removals.clear()

    def _remove_clause_at(self, level: int, handle) -> None:
        self._ctx.remove_from_scope(self._acts[level], handle)
        self.stats.lemma_clauses_removed += 1

    def _install_clause(self, cube: Cube, level: int):
        handle = self._ctx.add_to_scope(self._acts[level], cube.negate().literals)
        self.stats.lemma_clauses_added += 1
        return handle

    def _install_lemma(self, cube: Cube, level: int) -> None:
        self._process_removals()
        key = cube.literal_set
        self._lemma_copies[key] = self._lemma_copies.get(key, 0) + 1
        existing = self._lemma_handles.get(key)
        if existing is not None and existing[0] >= level:
            # An identical lemma already lives with equal-or-higher
            # coverage; through the contiguous assumption suffix its
            # clause serves this placement too — nothing to add.
            self.stats.solver_clauses_shared += level
            return
        handle = self._install_clause(cube, level)
        if existing is not None and existing[1] is not None:
            # The old clause covered strictly less; it is implied by the
            # new copy through the frame chain, so delete it.
            self._remove_clause_at(existing[0], existing[1])
        self._lemma_handles[key] = (level, handle)
        # Frames 1..level-1 see the same physical clause through the
        # contiguous assumption range instead of getting their own copy.
        self.stats.solver_clauses_shared += max(level - 1, 0)

    def _flush_pending(self, level: int) -> None:
        """Apply deferred promotion moves once a query needs one of them.

        A pending move is required when the query level lies strictly
        above the promotion source (the old copy no longer applies) and
        at or below its target.  Applying a move flushes the solver
        trail, so once one is needed the whole batch goes through: each
        lemma's old clause is removed (it is implied by the new copy via
        the frame chain) and the new copy installed in its place.
        """
        if not self._pending_moves:
            return
        if not any(f < level <= t for f, t, _ in self._pending_moves):
            return
        for _, to_level, cube in self._pending_moves:
            key = cube.literal_set
            old = self._lemma_handles.get(key)
            if old is None or old[0] >= to_level:
                # The lemma was fully removed meanwhile, or another copy
                # already covers the promotion target.
                continue
            new_handle = self._install_clause(cube, to_level)
            if old[1] is not None:
                self._remove_clause_at(old[0], old[1])
            self._lemma_handles[key] = (to_level, new_handle)
        self._pending_moves.clear()

    def _note_subsumed(self, cube: Cube) -> None:
        # Queue the subsumed lemma's clause for physical removal once no
        # frames-list entry shares its literal set anymore; it is implied
        # by the subsuming lemma (a sub-clause at a level at least as
        # high, reachable through the frame chain), so deletion is sound
        # once the subsuming clause is installed.
        key = cube.literal_set
        remaining = self._lemma_copies.get(key, 1) - 1
        if remaining <= 0:
            self._lemma_copies.pop(key, None)
            self._pending_removals.append(key)
        else:
            self._lemma_copies[key] = remaining

    # ------------------------------------------------------------------
    # SAT queries
    # ------------------------------------------------------------------
    def _frame_assumptions(self, level: int) -> List[int]:
        """Activation literals selecting the logical frame F_level.

        Ordered from the top frame downwards: successive queries at
        nearby levels then share an assumption-list prefix, which the
        solver's trail reuse turns into skipped re-propagation of the
        whole active lemma set.
        """
        if level == 0:
            return []  # frame 0 queries run in the dedicated init context
        return self._acts[len(self._acts) - 1:level - 1:-1]

    def _query_ctx(self, level: int) -> SatContext:
        return self._init_ctx if level == 0 else self._ctx

    def get_bad_state(self, level: int) -> Optional[BadState]:
        """Return a state of F_level that can reach Bad combinationally."""
        self._flush_pending(level)
        ctx = self._query_ctx(level)
        start = time.perf_counter()
        satisfiable = ctx.solve(
            self._frame_assumptions(level) + [self.ts.bad_lit]
        )
        self.stats.sat_time += time.perf_counter() - start
        self.stats.sat_calls += 1
        if not satisfiable:
            return None
        model = ctx.get_model()
        self.stats.bad_cubes += 1
        return BadState(
            state=self.ts.state_cube_from_model(model),
            inputs=self.ts.input_cube_from_model(model),
            input_values=self.ts.input_assignment_from_model(model),
        )

    def consecution(
        self, level: int, cube: Cube, extract_model: bool = True
    ) -> ConsecutionResult:
        """Check whether ``¬cube`` is inductive relative to ``F_level``.

        The query is ``SAT?(F_level ∧ ¬cube ∧ T ∧ cube')``.  When it is
        UNSAT the lemma ``¬cube`` may be added at ``level + 1``; the
        assumption core is translated back into a sub-cube to accelerate
        generalization.  When it is SAT the model yields the predecessor
        ``s``, the inputs, and the successor ``t`` — the latter is exactly
        the counterexample-to-propagation state used by lemma prediction.

        The ``¬cube`` conjunct is handled lazily: the query first runs
        without it (clause-free, so the reusable assumption trail stays
        intact); only when the model's predecessor happens to lie inside
        ``cube`` — a self-loop, which the relaxed query cannot rule out —
        is the blocking clause added in a temporary scope and the exact
        query re-run.  UNSAT answers of the relaxed query are always
        answers of the exact one (it has strictly more models).
        """
        self._flush_pending(level)
        ctx = self._query_ctx(level)
        assumptions = self._frame_assumptions(level) + [
            self.ts.prime_lit(lit) for lit in cube
        ]

        start = time.perf_counter()
        satisfiable = ctx.solve(assumptions)
        self.stats.sat_time += time.perf_counter() - start
        self.stats.sat_calls += 1
        self.stats.consecution_calls += 1

        scope: Optional[int] = None
        if satisfiable:
            model = ctx.get_model()
            predecessor = self.ts.state_cube_from_model(model)
            if cube.literal_set <= predecessor.literal_set:
                # Rare fallback: exclude cube itself and ask again.
                self.stats.consecution_fallbacks += 1
                scope = ctx.new_scope()
                ctx.add_to_scope(scope, [-lit for lit in cube])
                start = time.perf_counter()
                satisfiable = ctx.solve([scope] + assumptions)
                self.stats.sat_time += time.perf_counter() - start
                self.stats.sat_calls += 1
                if satisfiable:
                    model = ctx.get_model()
                    predecessor = self.ts.state_cube_from_model(model)

        if satisfiable:
            result = ConsecutionResult(holds=False)
            if extract_model:
                result.predecessor = predecessor
                result.inputs = self.ts.input_cube_from_model(model)
                result.successor = self.ts.state_cube_from_model(model, primed=True)
                result.input_values = self.ts.input_assignment_from_model(model)
        else:
            core = set(ctx.unsat_core())
            reduced = [lit for lit in cube if self.ts.prime_lit(lit) in core]
            result = ConsecutionResult(holds=True, core_cube=Cube(reduced))

        if scope is not None:
            ctx.release_scope(scope)
        return result

    def lift_predecessor(
        self, predecessor: Cube, inputs: Cube, successor: Cube
    ) -> Cube:
        """Shrink a concrete predecessor with an assumption core.

        ``predecessor ∧ inputs ∧ T ⇒ successor'`` holds by construction, so
        the query ``predecessor ∧ inputs ∧ T ∧ ¬successor'`` is UNSAT and
        the core restricted to the predecessor literals is a generalized
        predecessor cube.  The query uses no frame lemmas, so it runs in
        the dedicated lift context against the bare transition relation.
        """
        ctx = self._lift_ctx
        scope = ctx.new_scope()
        ctx.add_to_scope(scope, [-self.ts.prime_lit(lit) for lit in successor])
        assumptions = [scope] + list(predecessor) + list(inputs)

        start = time.perf_counter()
        satisfiable = ctx.solve(assumptions)
        self.stats.sat_time += time.perf_counter() - start
        self.stats.sat_calls += 1
        self.stats.lifting_calls += 1

        if satisfiable:
            # Should not happen; fall back to the unshrunk predecessor.
            lifted = predecessor
        else:
            core = set(ctx.unsat_core())
            kept = [lit for lit in predecessor if lit in core]
            lifted = Cube(kept) if kept else predecessor

        ctx.release_scope(scope)
        return lifted

    # ------------------------------------------------------------------
    def finalize_stats(self) -> None:
        """Mirror the solvers' kernel and activation counters into the run stats."""
        for ctx in (self._ctx, self._lift_ctx, self._init_ctx):
            solver_stats = ctx.solver.stats
            self.stats.solver_conflicts += solver_stats.conflicts
            self.stats.solver_decisions += solver_stats.decisions
            self.stats.solver_propagations += solver_stats.propagations
            self.stats.watch_traversals += solver_stats.watch_traversals
            self.stats.blocker_hits += solver_stats.blocker_hits
            self.stats.literal_pool_bytes += solver_stats.literal_pool_bytes
            self.stats.arena_compactions += solver_stats.arena_compactions
            self.stats.solver_removed_clauses += (
                solver_stats.removed_clauses
                + solver_stats.guarded_clauses_freed
                + solver_stats.learnts_purged
            )
            self.stats.activation_vars_allocated += (
                solver_stats.activation_vars_allocated
            )
            self.stats.activation_vars_recycled += (
                solver_stats.activation_vars_recycled
            )
            self.stats.activation_vars_retired += (
                solver_stats.activation_vars_retired
            )
        self.stats.assumption_levels_reused = (
            self._ctx.solver.stats.assumption_levels_reused
        )
