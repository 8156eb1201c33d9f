"""Portfolio races: verdicts, teardown hygiene, seeding.

Four contracts pinned here:

* a race of independent members returns a definite verdict, names its
  winner and carries no lemma-sharing accounting;
* the member plan is a pure function of :class:`PortfolioOptions`
  (``base_seed`` and ``diversify``, nothing else) and the substrate
  settings, which reach every member;
* killing the losers leaks nothing — no member process survives a
  race, whether it lost cleanly or was killed mid-search;
* ``--seed`` is deterministic end to end: the same seed reproduces a
  byte-identical evaluation manifest (modulo wall-clock fields), seeded
  kernels are self-consistent, and seed 0 is exactly the unseeded order.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.aiger import write_aag
from repro.benchgen import modular_counter, token_ring
from repro.cli import main
from repro.core.options import IC3Options
from repro.core.result import CheckResult
from repro.core.stats import IC3Stats
from repro.engines import create_engine
from repro.engines.portfolio import PortfolioEngine, PortfolioOptions
from repro.harness.configs import EngineConfig, apply_seed
from repro.harness.manifest import build_manifest
from repro.harness.runner import BenchmarkRunner
from repro.obs.metrics import REGISTRY
from repro.sat.arena import ArenaSolver
from repro.sat.solver import Solver


def _assert_no_new_children(children_before):
    for proc in multiprocessing.active_children():
        if proc.pid not in children_before:
            proc.join(timeout=5)
    children_after = {
        p.pid for p in multiprocessing.active_children() if p.is_alive()
    }
    assert children_after <= children_before


class TestRace:
    def test_race_names_winner_without_sharing(self):
        outcome = PortfolioEngine(
            modular_counter(3, modulus=6, bad_value=7).aig,
            engines=("ic3-pl", "ic3", "bmc", "kind"),
        ).check(time_limit=60)
        assert outcome.result == CheckResult.SAFE
        assert outcome.winner in ("ic3-pl", "ic3", "kind")
        assert outcome.sharing is None

    @pytest.mark.parametrize("sat_backend", ["default", "arena"])
    @pytest.mark.parametrize("safe", [True, False], ids=["safe", "unsafe"])
    def test_substrate_race_is_sound(self, safe, sat_backend):
        aig = token_ring(3, safe=safe).aig
        engine = PortfolioEngine(
            aig,
            engines=("ic3-pl", "ic3", "bmc"),
            sat_backend=sat_backend,
        )
        for plan in engine._plan:
            assert plan.kwargs["sat_backend"] == sat_backend
        outcome = engine.check(time_limit=60)
        expected = CheckResult.SAFE if safe else CheckResult.UNSAFE
        assert outcome.result == expected
        assert outcome.result == create_engine(outcome.winner, aig).check(
            time_limit=60
        ).result


class TestPlan:
    def test_options_are_seed_and_diversify_only(self):
        names = [f.name for f in dataclasses.fields(PortfolioOptions)]
        assert names == ["base_seed", "diversify"]

    @pytest.mark.parametrize(
        "removed", ["share", "transport", "capacity", "max_lits", "min_level"]
    )
    def test_sharing_options_are_gone(self, removed):
        with pytest.raises(TypeError):
            PortfolioOptions(**{removed: 1})

    def test_member_seeds_are_base_plus_index(self):
        engine = PortfolioEngine(
            token_ring(3).aig,
            engines=("ic3-pl", "bmc", "kind"),
            portfolio_options=PortfolioOptions(base_seed=10),
        )
        assert [plan.kwargs["seed"] for plan in engine._plan] == [10, 11, 12]

    def test_seed_zero_leaves_members_unseeded(self):
        engine = PortfolioEngine(
            token_ring(3).aig,
            engines=("ic3-pl", "ic3-pl", "bmc"),
            portfolio_options=PortfolioOptions(base_seed=0),
        )
        assert all("seed" not in plan.kwargs for plan in engine._plan)

    def test_no_diversify_runs_identical_duplicates(self):
        engine = PortfolioEngine(
            token_ring(3).aig,
            engines=("ic3-pl", "ic3-pl"),
            portfolio_options=PortfolioOptions(base_seed=4, diversify=False),
        )
        first, second = engine._plan
        assert (first.label, second.label) == ("ic3-pl#1", "ic3-pl#2")
        assert first.options == second.options
        assert first.kwargs == second.kwargs == {"reduce": False, "seed": 4}

    def test_member_kwargs_win_over_jitter(self):
        engine = PortfolioEngine(
            token_ring(3).aig,
            engines=("ic3", "ic3"),
            member_kwargs={"ic3#2": {"sat_backend": "default", "seed": 99}},
        )
        assert engine._plan[1].kwargs["sat_backend"] == "default"
        assert engine._plan[1].kwargs["seed"] == 99

    def test_members_race_on_the_parent_reduced_model(self):
        engine = PortfolioEngine(
            token_ring(3).aig, engines=("ic3-pl", "bmc", "kind")
        )
        assert all(plan.kwargs["reduce"] is False for plan in engine._plan)


class TestNoSharingLeft:
    @pytest.mark.parametrize("engine", ["ic3", "ic3-pl", "bmc", "kind", "portfolio"])
    def test_outcome_sharing_is_always_none(self, engine):
        # ``CheckOutcome.sharing`` stays as an attribute that benchmark
        # readers may inspect; no engine fills it any more.
        outcome = create_engine(engine, token_ring(3, safe=False).aig).check(
            time_limit=60
        )
        assert outcome.result == CheckResult.UNSAFE
        assert outcome.sharing is None

    def test_stats_and_metrics_carry_no_bus_accounting(self):
        stats = {f.name for f in dataclasses.fields(IC3Stats)}
        assert not stats & {
            "lemmas_published",
            "lemmas_received",
            "lemmas_validated",
            "lemmas_rejected",
            "lemmas_imported",
            "bus_overflows",
            "time_import_validation",
        }
        assert not [n for n in REGISTRY.names() if n.startswith("repro_lemmas_")]


class TestTeardown:
    def test_no_process_leak_after_race(self):
        children_before = {p.pid for p in multiprocessing.active_children()}
        for _ in range(3):
            outcome = PortfolioEngine(
                modular_counter(3, modulus=6, bad_value=7).aig,
                engines=("ic3-pl", "bmc", "kind"),
            ).check(time_limit=60)
            assert outcome.solved
        _assert_no_new_children(children_before)

    def test_no_leak_when_losers_are_killed_midway(self):
        # BMC wins UNSAFE quickly; the IC3 members are killed mid-search.
        children_before = {p.pid for p in multiprocessing.active_children()}
        case = modular_counter(4, modulus=14, bad_value=3)
        outcome = PortfolioEngine(
            case.aig, engines=("ic3", "ic3-pl", "bmc")
        ).check(time_limit=60)
        assert outcome.result == CheckResult.UNSAFE
        _assert_no_new_children(children_before)


SEED_CASES = [token_ring(3), modular_counter(3, modulus=6, bad_value=7)]


def _seeded_manifest(seed):
    configs = apply_seed(
        [EngineConfig(name="ic3-seeded", options=IC3Options())], seed
    )
    suite_result = BenchmarkRunner(
        SEED_CASES, configs, timeout=60.0, jobs=1, validate=True
    ).run()
    return build_manifest(
        suite_result, suite="seeded", jobs=1, validate=True, configs=configs
    )


TIMING_FIELDS = {
    "runtime",
    "penalized_runtime",
    "sat_time",
    "time_total",
    "time_generalization",
    "time_prediction",
    "time_propagation",
    "par1_time",
    "phase_times",
    "wall_clock",
    "created_at",
}


def _normalize(node):
    if isinstance(node, dict):
        return {
            key: (0 if key in TIMING_FIELDS else _normalize(value))
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [_normalize(item) for item in node]
    return node


class TestSeedDeterminism:
    def test_same_seed_byte_identical_manifest(self):
        one = json.dumps(_normalize(_seeded_manifest(7)), sort_keys=True)
        two = json.dumps(_normalize(_seeded_manifest(7)), sort_keys=True)
        assert one == two
        assert json.loads(one)["configs"]["ic3-seeded"]["seed"] == 7

    def test_seed_zero_matches_unseeded(self):
        zero = json.dumps(_normalize(_seeded_manifest(0)), sort_keys=True)
        unseeded = json.dumps(_normalize(_seeded_manifest(None)), sort_keys=True)
        assert zero == unseeded

    @pytest.mark.parametrize("solver_cls", [Solver, ArenaSolver])
    def test_seeded_kernel_is_reproducible(self, solver_cls):
        def run(seed):
            solver = solver_cls()
            solver.set_seed(seed)
            # A loose pigeonhole-ish instance with many solutions, so the
            # model found depends on the branching order.
            n = 12
            for var in range(1, n + 1):
                solver.ensure_var(var)
            for a in range(1, n, 2):
                solver.add_clause([a, a + 1])
            for a in range(1, n - 2, 3):
                solver.add_clause([-a, -(a + 2)])
            assert solver.solve([])
            model = solver.get_model()
            return [model[v] for v in range(1, n + 1)]

        assert run(5) == run(5)
        assert run(1) == run(1)


class TestCLISwitches:
    @pytest.fixture()
    def safe_model(self, tmp_path):
        path = tmp_path / "safe.aag"
        write_aag(token_ring(3).aig, path)
        return str(path)

    def test_check_seed_flag(self, safe_model, capsys):
        assert main(["check", safe_model, "--seed", "3"]) == 0
        assert "safe" in capsys.readouterr().out

    def test_portfolio_check_seed_flag(self, safe_model, capsys):
        assert main(["check", safe_model, "--engine", "portfolio", "--seed", "3"]) == 0
        assert "safe" in capsys.readouterr().out
