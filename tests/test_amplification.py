import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldpshuffle.amplification import (_general_bound, amplify_group, amplify_shuffle,
                                      per_step_epsilon, rdp_bound)
from ldpshuffle.errors import InvalidParameterError, OutOfRegimeError

from reference.amplification import binary_case_bound
from reference.core import advanced_composition


class TestPerStepEpsilon:
    def test_closed_form(self):
        assert per_step_epsilon(0.4, 10 ** 6) == pytest.approx(2.18915198848816e-06, rel=1e-12)
        assert per_step_epsilon(0.1, 10 ** 4) == pytest.approx(2.5691209883166655e-05, rel=1e-12)

    def test_overflow_is_infinite(self):
        assert per_step_epsilon(400.0, 1000) == math.inf

    def test_n_past_float_range_is_refused(self):
        # not inf: n itself, not e^(2 eps0), is what overflows
        with pytest.raises(InvalidParameterError):
            per_step_epsilon(0.5, 10 ** 400)


class TestAmplifyShuffle:
    def test_simplified_regime_is_an_upper_bound(self):
        res = amplify_shuffle(0.4, 10 ** 6, 1e-8)
        simplified = 12 * 0.4 * math.sqrt(math.log(1e8) / 1e6)
        assert simplified == pytest.approx(0.020601273852377738, rel=1e-12)
        assert res.epsilon_central <= simplified
        assert res.bounds["simplified"] == pytest.approx(simplified, rel=1e-12)

    def test_no_amplification_regime(self):
        res = amplify_shuffle(10.0, 100, 1e-6)
        assert res.regime == "no-amplification"
        assert res.epsilon_central == 10.0
        assert res.bounds["general"] > 10.0

    def test_moderate_regime_threshold(self):
        # moderate bound appears only once eps0 <= ln(n/4)/3
        n = 100
        threshold = math.log(n / 4.0) / 3.0
        assert "moderate" in amplify_shuffle(threshold - 1e-9, n, 1e-6).bounds
        assert "moderate" not in amplify_shuffle(threshold + 1e-9, n, 1e-6).bounds

    def test_simplified_regime_hypotheses(self):
        assert "simplified" in amplify_shuffle(0.4, 1000, 1e-3).bounds
        assert "simplified" not in amplify_shuffle(0.4, 999, 1e-3).bounds
        assert "simplified" not in amplify_shuffle(0.5, 1000, 1e-3).bounds
        assert "simplified" not in amplify_shuffle(0.4, 1000, 0.02).bounds

    def test_never_worse_than_local_budget(self):
        for eps0 in (0.05, 0.3, 0.8, 2.0, 6.0):
            for n in (2, 10, 1000, 10 ** 5):
                for delta in (1e-3, 1e-8):
                    assert amplify_shuffle(eps0, n, delta).epsilon_central <= eps0

    @pytest.mark.parametrize("eps0,n,delta", [(400.0, 1000, 1e-6),
                                              (200.0, 10 ** 300, 0.5)])
    def test_overflowing_budget_falls_back_to_eps0(self, eps0, n, delta):
        res = amplify_shuffle(eps0, n, delta)
        assert res.regime == "no-amplification"
        assert res.epsilon_central == eps0

    def test_monotone_in_n(self):
        a = amplify_shuffle(0.4, 10 ** 4, 1e-8).epsilon_central
        b = amplify_shuffle(0.4, 10 ** 6, 1e-8).epsilon_central
        assert b < a

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            amplify_shuffle(0.4, 1, 1e-8)
        with pytest.raises(InvalidParameterError):
            amplify_shuffle(0.4, 100, 0.0)
        with pytest.raises(InvalidParameterError):
            amplify_shuffle(0.0, 100, 1e-8)


class TestGeneralBound:
    """The general closed form eps1 sqrt(2 n log(1/delta)) + n eps1 (e^eps1 - 1),
    the advanced composition of n eps1-DP steps."""

    def test_closed_form_values(self):
        assert _general_bound(0.1, 100, 1e-6) == pytest.approx(6.308230950513408, abs=1e-9)
        assert _general_bound(0.5, 1, 1e-6) == pytest.approx(2.95262152022853, abs=1e-9)

    def test_single_step_never_tightens(self):
        for eps in (0.1, 0.5, 1.0, 2.0):
            assert _general_bound(eps, 1, 1e-9) >= eps

    def test_equals_advanced_composition(self):
        # bit for bit the epsilon of composing n eps1-DP steps with slack delta
        for eps1 in np.geomspace(1e-6, 5.0, 12):
            for n in (1, 2, 10, 1000, 10 ** 6):
                for delta in (1e-12, 1e-6, 0.01):
                    assert _general_bound(eps1, n, delta) == \
                        advanced_composition(eps1, 0.0, n, delta).epsilon


class TestAmplifyGroup:
    def test_closed_form_value(self):
        res = amplify_group(0.25, 1000, 1e-3)
        assert res.epsilon_central == pytest.approx(0.24933872044036648, rel=1e-12)

    def test_inverse_sqrt_group_scaling(self):
        small = amplify_group(0.25, 1000, 1e-3).epsilon_central
        large = amplify_group(0.25, 4000, 1e-3).epsilon_central
        assert large == pytest.approx(small / 2.0, rel=1e-12)

    @pytest.mark.parametrize("eps0,size,delta", [
        (0.6, 1000, 1e-3),   # budget too large
        (0.5, 1000, 1e-3),   # budget at the open boundary
        (0.25, 999, 1e-3),   # group too small
        (0.25, 1000, 0.01),  # slack at the open boundary
        (0.25, 1000, 0.5),   # slack too large
    ])
    def test_out_of_regime_errors(self, eps0, size, delta):
        with pytest.raises(OutOfRegimeError):
            amplify_group(eps0, size, delta)

    def test_capped_at_local_budget(self):
        res = amplify_group(0.25, 1000, 1e-300)
        assert res.bounds["simplified"] > 2.0
        assert res.epsilon_central == 0.25
        assert res.regime == "no-amplification"

    def test_underflow_is_refused(self):
        with pytest.raises(InvalidParameterError, match="underflows"):
            amplify_group(1e-300, 10 ** 300, 1e-3)


class TestRdpBound:
    def test_closed_form_value(self):
        assert rdp_bound(0.5, 10 ** 4, 2.0) == pytest.approx(0.0012438420402845485, rel=1e-12)

    def test_linear_in_order(self):
        assert rdp_bound(0.5, 10 ** 4, 2.0) == pytest.approx(
            2.0 * rdp_bound(0.5, 10 ** 4, 1.0), rel=1e-15)

    def test_inverse_n_scaling(self):
        assert rdp_bound(0.5, 2 * 10 ** 4, 2.0) == pytest.approx(
            rdp_bound(0.5, 10 ** 4, 2.0) / 2.0, rel=1e-15)

    def test_overflow_is_infinite(self):
        assert rdp_bound(400.0, 1000, 2.0) == math.inf

    def test_rejects_small_order(self):
        with pytest.raises(InvalidParameterError):
            rdp_bound(0.5, 100, 0.5)


class TestBinaryCaseBound:
    def test_closed_form_value(self):
        assert binary_case_bound(0.5, 10 ** 4, 1e-6) == pytest.approx(
            0.023863112811669127, rel=1e-12)

    def test_min_clamps_large_budgets(self):
        v1 = binary_case_bound(1.0, 10 ** 4, 1e-6)
        v2 = binary_case_bound(1.0, 10 ** 4, 1e-6) * math.exp(0.5) / math.exp(0.5)
        assert binary_case_bound(2.0, 10 ** 4, 1e-6) == pytest.approx(
            v1 * math.exp(0.5), rel=1e-12)
        assert v1 == v2

    def test_same_scaling_as_group_bound(self):
        r1 = binary_case_bound(0.25, 1000, 1e-3)
        r4 = binary_case_bound(0.25, 4000, 1e-3)
        assert r4 == pytest.approx(r1 / 2.0, rel=1e-12)

    def test_overflow_is_infinite(self):
        assert binary_case_bound(1420.0, 1000, 1e-6) == math.inf


class TestExtremeParameters:
    """The accountant over eps0 in [1e-300, 1e6], n in [2, 10**400] and any
    delta in (0, 1): a claim is a positive float no larger than eps0, and a
    refusal is an InvalidParameterError, never an arithmetic error. The
    group bound takes n as its group size."""

    @settings(deadline=None, max_examples=300)
    @given(st.floats(1e-300, 1e6), st.integers(2, 10 ** 400),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    # eps1 underflows: the general bound was nan, then 0 on its own
    @example(1e-300, 10 ** 308, 0.5)
    @example(1e-20, 10 ** 305, 1e-3)
    @example(1e-300, 10 ** 308, 5e-324)
    @example(0.5, 10 ** 400, 1e-6)
    # the group bound was neither capped (2.49 at eps0 0.25) nor refused on
    # underflow (0.0)
    @example(0.25, 1000, 1e-300)
    @example(1e-300, 10 ** 300, 1e-3)
    def test_claims_are_positive_and_capped(self, eps0, n, delta):
        for amplify in (amplify_shuffle, amplify_group):
            try:
                res = amplify(eps0, n, delta)
            except InvalidParameterError:
                continue
            assert 0.0 < res.epsilon_central <= eps0

    @settings(deadline=None, max_examples=300)
    @given(st.floats(1e-300, 1e6), st.integers(2, 10 ** 400),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(1.0, 1e6))
    @example(1420.0, 1000, 1e-6, 2.0)
    @example(1e-300, 10 ** 308, 5e-324, 1.0)
    def test_reference_curves_are_nonnegative(self, eps0, n, delta, alpha):
        if n > sys.float_info.max:
            for call in (lambda: rdp_bound(eps0, n, alpha),
                         lambda: binary_case_bound(eps0, n, delta)):
                with pytest.raises(InvalidParameterError):
                    call()
            return
        for value in (rdp_bound(eps0, n, alpha), binary_case_bound(eps0, n, delta)):
            assert isinstance(value, float) and value >= 0.0  # inf passes, nan fails


class TestRegimeRelations:
    def test_general_dominance_on_simplified_domain(self):
        # wherever the simplified form applies, the general bound is tighter
        for eps0 in np.linspace(0.03, 0.49, 8):
            for n in (1000, 10 ** 4, 10 ** 6):
                for delta in (1e-3, 1e-7, 1e-12):
                    res = amplify_shuffle(float(eps0), n, delta)
                    assert res.bounds["general"] <= res.bounds["simplified"] + 1e-12

    def test_winning_regime_is_the_minimum(self):
        res = amplify_shuffle(0.3, 10 ** 5, 1e-9)
        assert res.epsilon_central == min(res.bounds.values())
        assert res.bounds[res.regime] == res.epsilon_central
