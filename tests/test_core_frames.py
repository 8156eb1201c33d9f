"""Tests for frame management and the IC3 SAT queries.

Every test in this module runs under both registered SAT kernels via the
autouse ``sat_kernel`` fixture.  Query answers are cross-checked against
:class:`FreshSolverOracle`, which re-answers each query on a solver built
from scratch on the *other* kernel — on hand-written workloads and on
random operation sequences drawn by ``hypothesis``.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchgen import (
    combination_lock,
    counter_overflow,
    fifo_controller,
    gray_counter,
    johnson_counter,
    lfsr,
    lockstep_counters,
    modular_counter,
    parity_counter,
    pipeline_tag,
    round_robin_arbiter,
    saturating_counter,
    token_ring,
    traffic_light,
)
from repro.core.frames import FrameManager
from repro.core.options import IC3Options
from repro.core.stats import IC3Stats
from repro.logic import Cube
from repro.sat.context import sat_backend
from repro.ts import TransitionSystem

# The SAT kernel every manager in this file runs on; the autouse fixture
# below sweeps it so the whole suite exercises both kernels.
_SAT_KERNEL = "default"


@pytest.fixture(params=["default", "arena"], autouse=True)
def sat_kernel(request, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "_SAT_KERNEL", request.param)
    return request.param


def _manager(case=None, **option_kwargs):
    case = case if case is not None else token_ring(3)
    ts = TransitionSystem(case.aig)
    option_kwargs.setdefault("sat_backend", _SAT_KERNEL)
    options = IC3Options(**option_kwargs)
    stats = IC3Stats()
    manager = FrameManager(ts, options, stats)
    return manager, ts, stats


class FreshSolverOracle:
    """Re-answers every frame query on a solver built from scratch.

    Each query gets a new solver of the *other* registered kernel, loaded
    with T, the logical frame (the initial-state units at level 0,
    ``frame_clauses(level)`` above it) and the query's own ``¬cube``.  It
    shares neither the manager's activation literals, nor its deferred
    promotion moves, nor its SAT kernel.  Each method runs the manager's
    query, checks the answer and its witness, and returns the result.
    """

    def __init__(self, manager: FrameManager):
        self.manager = manager
        self.ts = manager.ts
        self.kernel = "arena" if manager.options.sat_backend == "default" else "default"

    def _solver(self, level, blocked=None):
        solver = sat_backend(self.kernel)()
        solver.ensure_var(self.ts.num_vars)
        for clause in self.ts.trans:
            solver.add_clause(list(clause.literals))
        if level == 0:
            for lit in self.ts.init_cube:
                solver.add_clause([lit])
        else:
            for clause in self.manager.frame_clauses(level):
                solver.add_clause(list(clause.literals))
        if blocked is not None:
            solver.add_clause([-lit for lit in blocked])
        return solver

    def consecution(self, level, cube):
        result = self.manager.consecution(level, cube)
        primed = [self.ts.prime_lit(lit) for lit in cube]
        expected_holds = not self._solver(level, cube).solve(primed)
        assert result.holds == expected_holds, (level, cube)
        if result.holds:
            # The core must still prove F ∧ ¬cube ∧ T ∧ core' UNSAT.
            assert result.core_cube.literal_set <= cube.literal_set
            core = [self.ts.prime_lit(lit) for lit in result.core_cube]
            assert not self._solver(level, cube).solve(core), (level, cube)
        else:
            # The predecessor satisfies F_level ∧ ¬cube and, under the
            # returned inputs, steps into the cube.
            witness = list(result.predecessor) + list(result.inputs) + primed
            assert self._solver(level, cube).solve(witness), (level, cube)
            assert cube.literal_set <= result.successor.literal_set
        return result

    def get_bad_state(self, level):
        bad = self.manager.get_bad_state(level)
        expected_sat = self._solver(level).solve([self.ts.bad_lit])
        assert (bad is not None) == expected_sat, level
        if bad is not None:
            witness = list(bad.state) + list(bad.inputs) + [self.ts.bad_lit]
            assert self._solver(level).solve(witness), level
        return bad


def _value_cube(ts, value):
    """The full state cube of a counter value (latches are LSB first)."""
    return Cube(
        [var if (value >> bit) & 1 else -var for bit, var in enumerate(ts.latch_vars)]
    )


class TestFrameBookkeeping:
    def test_initial_state(self):
        manager, _, _ = _manager()
        assert manager.top_level == 0
        assert manager.lemma_counts() == [0]

    def test_add_frame(self):
        manager, _, stats = _manager()
        assert manager.add_frame() == 1
        assert manager.add_frame() == 2
        assert manager.top_level == 2
        assert stats.frames_opened == 2

    def test_add_blocked_cube_levels(self):
        manager, ts, stats = _manager()
        manager.add_frame()
        manager.add_frame()
        cube = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        manager.add_blocked_cube(cube, 2)
        assert manager.lemmas_exactly_at(2) == [cube]
        assert manager.lemmas_exactly_at(1) == []
        assert manager.lemmas_at_or_above(1) == [cube]
        assert stats.lemmas_added == 1

    def test_add_blocked_cube_invalid_level(self):
        manager, ts, _ = _manager()
        with pytest.raises(ValueError):
            manager.add_blocked_cube(Cube([ts.latch_vars[0]]), 1)

    def test_subsumption_removes_weaker_lemmas(self):
        manager, ts, stats = _manager()
        manager.add_frame()
        weak = Cube([ts.latch_vars[0], ts.latch_vars[1], ts.latch_vars[2]])
        strong = Cube([ts.latch_vars[0]])
        manager.add_blocked_cube(weak, 1)
        manager.add_blocked_cube(strong, 1)
        assert manager.lemmas_exactly_at(1) == [strong]
        assert stats.subsumed_lemmas == 1

    def test_subsumption_only_below_new_level(self):
        manager, ts, _ = _manager()
        manager.add_frame()
        manager.add_frame()
        weak = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        strong = Cube([ts.latch_vars[0]])
        manager.add_blocked_cube(weak, 2)
        manager.add_blocked_cube(strong, 1)
        # The weak lemma lives at level 2 > 1, so it must survive.
        assert weak in manager.lemmas_exactly_at(2)

    def test_promote_cube(self):
        manager, ts, stats = _manager()
        manager.add_frame()
        manager.add_frame()
        cube = Cube([ts.latch_vars[1]])
        manager.add_blocked_cube(cube, 1)
        manager.promote_cube(cube, 1, 2)
        assert manager.lemmas_exactly_at(1) == []
        assert manager.lemmas_exactly_at(2) == [cube]
        assert stats.lemmas_pushed == 1

    def test_is_blocked_syntactically(self):
        manager, ts, _ = _manager()
        manager.add_frame()
        manager.add_frame()
        lemma = Cube([ts.latch_vars[1]])
        manager.add_blocked_cube(lemma, 2)
        bigger = Cube([ts.latch_vars[1], ts.latch_vars[2]])
        assert manager.is_blocked_syntactically(bigger, 1)
        assert manager.is_blocked_syntactically(bigger, 2)
        assert not manager.is_blocked_syntactically(Cube([ts.latch_vars[2]]), 1)

    def test_frames_equal_detection(self):
        manager, ts, _ = _manager()
        manager.add_frame()
        assert manager.frames_equal(1)  # nothing stored at level 1 yet
        manager.add_blocked_cube(Cube([ts.latch_vars[1]]), 1)
        assert not manager.frames_equal(1)

    def test_frame_clauses_are_negations(self):
        manager, ts, _ = _manager()
        manager.add_frame()
        cube = Cube([ts.latch_vars[1], -ts.latch_vars[2]])
        manager.add_blocked_cube(cube, 1)
        clauses = manager.frame_clauses(1)
        assert clauses == [cube.negate()]


class TestQueries:
    def test_get_bad_state_level0_for_safe_design(self):
        manager, _, _ = _manager(token_ring(3))
        assert manager.get_bad_state(0) is None

    def test_get_bad_state_finds_violation(self):
        # bad value 0 is the initial state itself.
        case = modular_counter(3, modulus=8, bad_value=0)
        manager, ts, _ = _manager(case)
        bad = manager.get_bad_state(0)
        assert bad is not None
        assert ts.cube_intersects_init(bad.state)

    def test_consecution_holds_for_unreachable_cube(self):
        # In the token ring, "two tokens at once" is unreachable and its
        # negation is inductive relative to the one-token initial frame.
        case = token_ring(3)
        manager, ts, _ = _manager(case)
        manager.add_frame()
        two_tokens = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        result = manager.consecution(0, two_tokens)
        assert result.holds
        assert result.core_cube is not None
        assert result.core_cube.literal_set <= two_tokens.literal_set

    def test_consecution_fails_with_counterexample(self):
        # "token in stage 1" is reachable from the initial state in one step.
        case = token_ring(3)
        manager, ts, _ = _manager(case)
        manager.add_frame()
        reachable = Cube([ts.latch_vars[1]])
        result = manager.consecution(0, reachable)
        assert not result.holds
        assert result.predecessor is not None
        assert result.successor is not None
        # The CTP successor satisfies the queried cube.
        assert reachable.literal_set <= result.successor.literal_set
        # The predecessor is an initial state (frame 0 = I).
        assert ts.cube_intersects_init(result.predecessor)

    def test_consecution_uses_frame_lemmas(self):
        case = token_ring(3)
        manager, ts, _ = _manager(case)
        manager.add_frame()
        target = Cube([ts.latch_vars[1], -ts.latch_vars[0], -ts.latch_vars[2]])
        # Without extra lemmas the cube is reachable from F_1 = ⊤ ...
        assert not manager.consecution(1, target).holds
        # ... but once the frame says "token never in stage 0", it is not.
        manager.add_blocked_cube(Cube([ts.latch_vars[0]]), 1)
        assert manager.consecution(1, target).holds

    def test_counters_track_sat_calls(self):
        manager, ts, stats = _manager(token_ring(3))
        manager.add_frame()
        manager.consecution(0, Cube([ts.latch_vars[1]]))
        manager.get_bad_state(0)
        assert stats.sat_calls == 2
        assert stats.consecution_calls == 1

    def test_lift_predecessor_returns_subcube(self):
        case = token_ring(4)
        manager, ts, _ = _manager(case)
        manager.add_frame()
        result = manager.consecution(0, Cube([ts.latch_vars[1]]))
        assert not result.holds
        lifted = manager.lift_predecessor(
            result.predecessor, result.inputs, Cube([ts.latch_vars[1]])
        )
        assert lifted.literal_set <= result.predecessor.literal_set
        assert len(lifted) >= 1

    def test_repeated_consecution_preserves_answers(self):
        case = token_ring(3)
        manager, ts, _ = _manager(case)
        manager.add_frame()
        cube = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        results = [manager.consecution(0, cube).holds for _ in range(8)]
        assert all(results)

    def test_total_lemmas(self):
        manager, ts, _ = _manager()
        manager.add_frame()
        manager.add_blocked_cube(Cube([ts.latch_vars[1]]), 1)
        manager.add_blocked_cube(Cube([ts.latch_vars[2]]), 1)
        assert manager.total_lemmas() == 2


class TestBackendSelection:
    def test_unknown_backend_rejected_by_options(self):
        with pytest.raises(ValueError, match="sat_backend"):
            IC3Options(sat_backend="nonsense").validate()

    def test_honours_sat_backend_option(self):
        from repro.sat import register_sat_backend, unregister_sat_backend
        from repro.sat.solver import Solver

        instances = []

        class Tagged(Solver):
            def __init__(self):
                super().__init__()
                instances.append(self)

        register_sat_backend("frames-test", Tagged)
        try:
            _manager(sat_backend="frames-test")
            assert len(instances) >= 2  # main + init (+ lift) contexts
        finally:
            unregister_sat_backend("frames-test")


class TestClauseAccounting:
    def test_lemma_added_once_and_shared(self):
        manager, ts, stats = _manager()
        for _ in range(3):
            manager.add_frame()
        cube = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        manager.add_blocked_cube(cube, 3)
        # One physical clause serves logical frames 1..3.
        assert stats.lemma_clauses_added == 1
        assert stats.solver_clauses_shared == 2

    def test_promotion_moves_single_clause(self):
        manager, ts, stats = _manager()
        manager.add_frame()
        manager.add_frame()
        cube = Cube([ts.latch_vars[1]])
        manager.add_blocked_cube(cube, 1)
        manager.promote_cube(cube, 1, 2)
        # The move is deferred until a query needs it, then the old copy
        # is deleted: net one live clause.
        manager.consecution(2, Cube([ts.latch_vars[0]]))
        assert stats.lemma_clauses_added == 2
        assert stats.lemma_clauses_removed == 1

    def test_subsumed_lemma_clause_physically_removed(self):
        manager, ts, stats = _manager()
        manager.add_frame()
        weak = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        strong = Cube([ts.latch_vars[0]])
        manager.add_blocked_cube(weak, 1)
        manager.add_blocked_cube(strong, 1)
        assert stats.subsumed_lemmas == 1
        assert stats.lemma_clauses_removed == 1

    def test_duplicate_cube_below_higher_copy_shares_one_clause(self):
        # CTG blocking can re-add a cube at a level below an existing
        # higher-level copy; the higher clause already covers the lower
        # placement through the assumption suffix, so no copy is added
        # and subsuming one list entry must not delete the shared clause.
        manager, ts, stats = _manager(token_ring(4))
        for _ in range(5):
            manager.add_frame()
        x = Cube([ts.latch_vars[0], ts.latch_vars[1]])
        manager.add_blocked_cube(x, 5)
        manager.add_blocked_cube(x, 2)
        assert stats.lemma_clauses_added == 1
        manager.add_blocked_cube(Cube([ts.latch_vars[0]]), 2)  # subsumes @2 only
        assert stats.lemma_clauses_removed == 0
        # The level-5 placement still blocks the cube for level-4 queries.
        assert manager.consecution(4, x) is not None

    def test_finalize_stats_reports_activation_accounting(self):
        manager, ts, stats = _manager(token_ring(4))
        manager.add_frame()
        result = manager.consecution(0, Cube([ts.latch_vars[1]]))
        assert not result.holds
        manager.lift_predecessor(
            result.predecessor, result.inputs, Cube([ts.latch_vars[1]])
        )
        manager.finalize_stats()
        assert stats.activation_vars_allocated >= 1


class TestFreshSolverOracle:
    def test_lemma_workload_matches_oracle(self):
        manager, ts, _ = _manager(token_ring(4))
        oracle = FreshSolverOracle(manager)
        manager.add_frame()
        manager.add_frame()
        latches = ts.latch_vars
        manager.add_blocked_cube(Cube([latches[0], latches[1]]), 1)
        manager.add_blocked_cube(Cube([latches[1], latches[2]]), 2)
        for level in (0, 1, 2):
            for i in range(len(latches)):
                oracle.consecution(
                    level, Cube([latches[i], latches[(i + 1) % len(latches)]])
                )
            oracle.get_bad_state(level)

    def test_promoted_lemma_applies_at_its_target_level(self):
        # The bad value 6 and its predecessor 5 move up one frame; level-2
        # queries must see both lemmas although the moves are deferred.
        manager, ts, _ = _manager(modular_counter(3, modulus=8, bad_value=6))
        oracle = FreshSolverOracle(manager)
        manager.add_frame()
        manager.add_frame()
        for value in (5, 6):
            manager.add_blocked_cube(_value_cube(ts, value), 1)
        for value in (5, 6):
            manager.promote_cube(_value_cube(ts, value), 1, 2)
        assert oracle.get_bad_state(2) is None
        assert oracle.consecution(2, _value_cube(ts, 6)).holds

    def test_self_loop_as_only_witness_is_excluded(self):
        # The saturating counter idles at its limit 6.  With 5 and 7
        # blocked in F_1, the only F_1-predecessor of 6 is 6 itself, so
        # ¬6 is inductive relative to F_1 although the relaxed query
        # (without ¬6 in the pre-state) has a self-loop model.
        manager, ts, stats = _manager(saturating_counter(3, limit=6, bad_value=7))
        oracle = FreshSolverOracle(manager)
        manager.add_frame()
        for value in (5, 7):
            manager.add_blocked_cube(_value_cube(ts, value), 1)
        assert oracle.consecution(1, _value_cube(ts, 6)).holds


# ----------------------------------------------------------------------
# Random operation sequences against the oracle
# ----------------------------------------------------------------------
_MODELS = {
    "ring": lambda: token_ring(4),
    "modcnt": lambda: modular_counter(3, modulus=8, bad_value=5),
    "satcnt": lambda: saturating_counter(3, limit=6, bad_value=7),
    "ovf": lambda: counter_overflow(3, safe=False),
    "parity": lambda: parity_counter(3),
    "johnson": lambda: johnson_counter(3, safe=False),
    "lfsr": lambda: lfsr(3),
    "pipe": lambda: pipeline_tag(3),
    "gray": lambda: gray_counter(3),
    "lockstep": lambda: lockstep_counters(3, safe=False),
    "fifo": lambda: fifo_controller(2),
    "arbiter": lambda: round_robin_arbiter(2, safe=False),
    "lock": lambda: combination_lock([1, 2]),
    "traffic": lambda: traffic_light(),
}
_MAX_TOP = 5

_cube_spec = st.lists(
    st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=3
)
_operation = st.one_of(
    st.tuples(st.just("frame")),
    st.tuples(st.just("block"), _cube_spec, st.integers(0, 7)),
    st.tuples(st.just("duplicate-below"), st.integers(0, 63), st.integers(0, 7)),
    st.tuples(st.just("subsume"), st.integers(0, 63), st.integers(0, 7)),
    st.tuples(st.just("promote"), st.integers(0, 63), st.integers(1, 3)),
    st.tuples(st.just("consecution"), _cube_spec, st.integers(0, 7)),
    st.tuples(st.just("bad"), st.integers(0, 7)),
)


def _spec_cube(ts, spec):
    literals = {}
    for index, positive in spec:
        var = ts.latch_vars[index % len(ts.latch_vars)]
        literals.setdefault(var, var if positive else -var)
    return Cube(list(literals.values()))


def _placed_lemmas(manager, lowest):
    return [
        (level, cube)
        for level in range(lowest, manager.top_level + 1)
        for cube in manager.lemmas_exactly_at(level)
    ]


def _apply(manager, oracle, ts, operation):
    kind, args = operation[0], operation[1:]
    top = manager.top_level
    if kind == "frame":
        if top < _MAX_TOP:
            manager.add_frame()
    elif kind == "block":
        if top == 0:
            manager.add_frame()
            top = 1
        manager.add_blocked_cube(_spec_cube(ts, args[0]), 1 + args[1] % top)
    elif kind == "duplicate-below":
        # Re-add a cube below an existing higher copy (CTG blocking).
        placed = _placed_lemmas(manager, 2)
        if placed:
            level, cube = placed[args[0] % len(placed)]
            manager.add_blocked_cube(cube, 1 + args[1] % (level - 1))
    elif kind == "subsume":
        # Add a strict sub-cube of an existing lemma at any level.
        placed = [(lv, c) for lv, c in _placed_lemmas(manager, 1) if len(c) > 1]
        if placed:
            _, cube = placed[args[0] % len(placed)]
            literals = list(cube)
            del literals[args[0] % len(literals)]
            manager.add_blocked_cube(Cube(literals), 1 + args[1] % top)
    elif kind == "promote":
        placed = [(lv, c) for lv, c in _placed_lemmas(manager, 1) if lv < top]
        if placed:
            level, cube = placed[args[0] % len(placed)]
            manager.promote_cube(cube, level, min(level + args[1], top))
    elif kind == "consecution":
        oracle.consecution(args[1] % (top + 1), _spec_cube(ts, args[0]))
    elif kind == "bad":
        oracle.get_bad_state(args[0] % (top + 1))


class TestRandomSequencesAgainstOracle:
    @pytest.mark.parametrize("model", sorted(_MODELS))
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(operations=st.lists(_operation, min_size=1, max_size=25))
    def test_queries_match_fresh_solver(self, model, operations):
        manager, ts, _ = _manager(_MODELS[model]())
        oracle = FreshSolverOracle(manager)
        for operation in operations:
            _apply(manager, oracle, ts, operation)
        # Final sweep: every level, including 0, answers the bad query
        # and the propagation query of each lemma stored exactly there.
        for level in range(manager.top_level + 1):
            oracle.get_bad_state(level)
            for cube in manager.lemmas_exactly_at(level):
                oracle.consecution(level, cube)
