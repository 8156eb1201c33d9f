"""End-to-end paper evaluation and text reporting.

:func:`run_paper_evaluation` is the one-call entry point used by the
examples and by ``repro-check evaluate``: it runs the six configurations
over a suite and packages Table 1, Table 2 and the data behind Figures
2-4 into a :class:`PaperReport`, whose :meth:`PaperReport.to_text` output
is what EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.benchgen.case import BenchmarkCase
from repro.benchgen.suite import default_suite
from repro.harness.configs import (
    EngineConfig,
    apply_sat_backend,
    apply_seed,
    paper_configurations,
    prediction_pairs,
)
from repro.harness.figures import (
    RatioData,
    ScatterData,
    cactus_data,
    ratio_vs_sradv,
    scatter_data,
)
from repro.harness.runner import BenchmarkRunner, SuiteResult
from repro.harness.tables import Table, success_rate_table, summary_table


@dataclass
class PaperReport:
    """All reproduced tables and figure data of one evaluation run."""

    suite_result: SuiteResult
    table1: Table
    table2: Table
    cactus: Dict[str, object]
    scatters: List[ScatterData] = field(default_factory=list)
    ratios: List[RatioData] = field(default_factory=list)
    timeout: float = 0.0
    num_cases: int = 0

    def to_text(self) -> str:
        """Render the whole report as plain text."""
        lines: List[str] = []
        lines.append(
            f"Paper evaluation: {self.num_cases} cases, "
            f"per-case timeout {self.timeout:.1f}s"
        )
        lines.append("")
        lines.append(self.table1.to_text())
        lines.append("")
        lines.append(self.table2.to_text())
        lines.append("")

        lines.append("Figure 2: cases solved within a time limit (cactus)")
        limits = _cactus_limits(self.timeout)
        header = "Configuration".ljust(16) + "".join(f"{l:>8.2f}s" for l in limits)
        lines.append(header)
        for name, series in self.cactus.items():
            row = name.ljust(16) + "".join(
                f"{series.solved_within(l):>9d}" for l in limits
            )
            lines.append(row)
        lines.append("")

        for scatter in self.scatters:
            lines.append(
                f"Figure 3 ({scatter.base_config} vs {scatter.pl_config}): "
                f"{scatter.below_diagonal_count} of {len(scatter.points)} cases "
                f"faster with prediction, {scatter.above_diagonal_count} slower; "
                f"solved only with prediction: {len(scatter.only_pl_solved())}, "
                f"solved only without: {len(scatter.only_base_solved())}"
            )
        lines.append("")

        for ratio in self.ratios:
            lines.append(
                f"Figure 4 ({ratio.base_config} vs {ratio.pl_config}): "
                f"{len(ratio.points)} cases after exclusions "
                f"({len(ratio.excluded_cases)} excluded)"
            )
            for bucket, rate in ratio.improvement_rate_by_bucket():
                lines.append(f"  {bucket}: {100.0 * rate:.0f}% of cases improved")
        return "\n".join(lines)


def run_paper_evaluation(
    cases: Optional[Sequence[BenchmarkCase]] = None,
    configs: Optional[Sequence[EngineConfig]] = None,
    timeout: float = 5.0,
    validate: bool = False,
    verbose: bool = False,
    figure4_min_runtime: Optional[float] = None,
    jobs: int = 1,
    reduce: bool = True,
    sat_backend: Optional[str] = None,
    seed: Optional[int] = None,
) -> PaperReport:
    """Run the full evaluation and return the assembled report.

    ``jobs`` parallelizes the (configuration, case) cross product over
    worker processes; the report is deterministic for any jobs value.
    ``reduce=False`` disables the reduction preprocessing pipeline.
    ``sat_backend`` overrides the SAT kernel of every IC3-based
    configuration (``"default"`` or ``"arena"``); ``seed`` sets the
    kernels' RNG seed on every configuration (0/None keeps the
    deterministic unseeded order).
    """
    if cases is None:
        cases = default_suite()
    if configs is None:
        configs = paper_configurations()
    configs = apply_sat_backend(configs, sat_backend)
    configs = apply_seed(configs, seed)

    runner = BenchmarkRunner(
        cases,
        configs,
        timeout=timeout,
        validate=validate,
        verbose=verbose,
        jobs=jobs,
        reduce=reduce,
    )
    suite_result = runner.run()
    return build_report(
        suite_result,
        timeout=timeout,
        num_cases=len(cases),
        figure4_min_runtime=figure4_min_runtime,
    )


def build_report(
    suite_result: SuiteResult,
    timeout: float,
    num_cases: Optional[int] = None,
    figure4_min_runtime: Optional[float] = None,
) -> PaperReport:
    """Assemble a :class:`PaperReport` from an existing suite result.

    ``figure4_min_runtime`` is the Figure 4 exclusion threshold ("both runs
    faster than this are ignored"); the paper uses 1 s of its 1000 s budget,
    so the default scales proportionally to the harness timeout (with a
    20 ms floor).
    """
    if figure4_min_runtime is None:
        figure4_min_runtime = max(0.02, timeout / 100.0)
    config_names = suite_result.configs()
    scatters = []
    ratios = []
    for base_name, pl_name in prediction_pairs():
        if base_name in config_names and pl_name in config_names:
            scatters.append(scatter_data(suite_result, base_name, pl_name))
            ratios.append(
                ratio_vs_sradv(
                    suite_result, base_name, pl_name, min_runtime=figure4_min_runtime
                )
            )
    return PaperReport(
        suite_result=suite_result,
        table1=summary_table(suite_result),
        table2=success_rate_table(suite_result),
        cactus=cactus_data(suite_result),
        scatters=scatters,
        ratios=ratios,
        timeout=timeout,
        num_cases=num_cases if num_cases is not None else len(suite_result.cases()),
    )


def _cactus_limits(timeout: float) -> List[float]:
    fractions = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
    return [round(timeout * f, 3) for f in fractions]
