"""IC3 verdicts match the expected ones and their witnesses validate.

Every case runs once on each registered SAT kernel.  Every SAFE answer's
certificate must pass ``check_certificate`` (a fresh solver on the
original model) and every UNSAFE answer's trace must pass
``check_counterexample`` (circuit simulation).
"""

import pytest

from repro.benchgen import modular_counter, token_ring
from repro.benchgen.suite import quick_suite
from repro.core import IC3, IC3Options, CheckResult
from repro.core.invariant import check_certificate, check_counterexample

KERNELS = ("default", "arena")


def _check_and_validate(case, options):
    outcome = IC3(case.aig, options).check(time_limit=30)
    assert outcome.result == case.expected, f"wrong verdict on {case.name}"
    if outcome.result == CheckResult.SAFE:
        assert check_certificate(case.aig, outcome.certificate)
    else:
        assert check_counterexample(case.aig, outcome.trace)


class TestVerdicts:
    @pytest.mark.parametrize("case", quick_suite(), ids=lambda c: c.name)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_quick_suite_verdicts_match_and_validate(self, kernel, case):
        _check_and_validate(case, IC3Options(sat_backend=kernel))

    @pytest.mark.parametrize(
        "case",
        [token_ring(5), modular_counter(4, modulus=16, bad_value=11)],
        ids=lambda c: c.name,
    )
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_lemma_prediction_verdicts_match_and_validate(self, kernel, case):
        _check_and_validate(case, IC3Options(sat_backend=kernel).with_prediction())
