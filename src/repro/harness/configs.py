"""Engine configurations evaluated by the harness.

Each configuration is one row of the paper's Table 1.  The paper compares
two independent IC3 code bases (IC3ref in C++ and RIC3 in Rust), each with
and without the proposed lemma prediction, plus the CAV'23 "i-Good lemmas"
variant and ABC's PDR.  Those exact binaries are not available here, so
every row is a differently-configured instance of this library's IC3
engine, and the ``plays_role_of`` field records the mapping.  What the
substitution keeps is the paper's comparison: each tool profile is run
with and without prediction on one shared engine, so a difference
between ``X`` and ``X-pl`` comes from prediction alone, not from a
different code base.  Absolute times and the cross-tool ranking are not
comparable with the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.options import IC3Options


@dataclass
class EngineConfig:
    """A named engine configuration.

    ``engine`` is a registry kind from :mod:`repro.engines` (``"ic3"``,
    ``"bmc"``, ``"kind"``, ``"portfolio"``, ...); ``options`` configures
    IC3-based engines and is ignored by the others; ``engine_kwargs`` is
    forwarded verbatim to the engine factory (e.g. BMC's ``max_depth``).
    """

    name: str
    options: Optional[IC3Options] = None
    plays_role_of: str = ""
    description: str = ""
    engine: str = "ic3"
    engine_kwargs: Dict[str, object] = field(default_factory=dict)

    @property
    def uses_prediction(self) -> bool:
        """True if this configuration has the paper's optimization enabled."""
        return self.options is not None and self.options.enable_prediction


def paper_configurations() -> List[EngineConfig]:
    """The six configurations of Table 1, in the paper's order."""
    return [
        EngineConfig(
            name="RIC3",
            options=IC3Options.profile_ic3_b(),
            plays_role_of="RIC3 (Rust IC3 by the authors)",
            description="activity-ordered MIC, no lifting, no aggressive push",
        ),
        EngineConfig(
            name="RIC3-pl",
            options=IC3Options.profile_ic3_b().with_prediction(),
            plays_role_of="RIC3 + predicting lemmas",
            description="RIC3 profile with CTP-based lemma prediction",
        ),
        EngineConfig(
            name="IC3ref",
            options=IC3Options.profile_ic3_a(),
            plays_role_of="IC3ref (Bradley's reference implementation)",
            description="index-ordered MIC, core lifting, aggressive push",
        ),
        EngineConfig(
            name="IC3ref-pl",
            options=IC3Options.profile_ic3_a().with_prediction(),
            plays_role_of="IC3ref + predicting lemmas",
            description="IC3ref profile with CTP-based lemma prediction",
        ),
        EngineConfig(
            name="IC3ref-CAV23",
            options=IC3Options.profile_cav23(),
            plays_role_of="IC3ref with i-Good lemmas (Xia et al., CAV'23)",
            description="parent-lemma-ordered generalization",
        ),
        EngineConfig(
            name="ABC-PDR",
            options=IC3Options.profile_pdr(),
            plays_role_of="PDR as implemented in ABC",
            description="CTG generalization, activity ordering, aggressive push",
        ),
    ]


def apply_sat_backend(
    configs: Sequence[EngineConfig], sat_backend: Optional[str]
) -> List[EngineConfig]:
    """Override the SAT kernel of every configuration carrying options.

    The single source of truth for the ``--sat-backend`` override: one
    helper serves both the harness (engine construction) and the CLI
    (manifest recording), so the two cannot drift.
    """
    if sat_backend is None:
        return list(configs)
    return [
        replace(config, options=replace(config.options, sat_backend=sat_backend))
        if config.options is not None
        else config
        for config in configs
    ]


def apply_seed(
    configs: Sequence[EngineConfig], seed: Optional[int]
) -> List[EngineConfig]:
    """Override the SAT-kernel RNG seed of every configuration.

    Mirrors :func:`apply_sat_backend` for the ``--seed`` override.  The
    same seed is applied to every configuration — per-run determinism,
    not portfolio diversification (the portfolio derives distinct
    per-member seeds itself, see ``PortfolioOptions.base_seed``).
    """
    if seed is None:
        return list(configs)
    return [
        replace(config, options=replace(config.options, seed=seed))
        if config.options is not None
        else replace(
            config, engine_kwargs={**config.engine_kwargs, "seed": seed}
        )
        for config in configs
    ]


def prediction_pairs() -> List[Tuple[str, str]]:
    """(base, prediction) configuration name pairs used by Figures 3 and 4."""
    return [("RIC3", "RIC3-pl"), ("IC3ref", "IC3ref-pl")]


def config_by_name(name: str) -> EngineConfig:
    """Look up one of the paper configurations by name."""
    for config in paper_configurations():
        if config.name == name:
            return config
    raise KeyError(f"unknown configuration {name!r}")
