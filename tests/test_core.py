import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpshuffle.core import rr_probability, scale_factor
from ldpshuffle.errors import InvalidParameterError

from reference.core import PrivacyParams, advanced_composition, hockey_stick_delta


class TestPrivacyParams:
    def test_valid(self):
        p = PrivacyParams(0.5, 1e-6)
        assert p.epsilon == 0.5 and p.delta == 1e-6

    @pytest.mark.parametrize("eps,delta", [(-0.1, 0.0), (1.0, 1.0), (1.0, -1e-9),
                                           (float("nan"), 0.0)])
    def test_invalid(self, eps, delta):
        with pytest.raises(InvalidParameterError):
            PrivacyParams(eps, delta)


class TestRrProbability:
    def test_zero_budget_is_fair_coin(self):
        assert rr_probability(0.0) == 0.5

    def test_closed_form_values(self):
        assert rr_probability(2.0) == pytest.approx(0.7310585786300049, abs=1e-15)
        assert rr_probability(20.0) == pytest.approx(0.9999546021312976, abs=1e-12)

    def test_monotone_increasing_and_in_range(self):
        grid = np.linspace(0.0, 20.0, 200)
        values = [rr_probability(e) for e in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.5 <= v < 1.0 for v in values)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            rr_probability(-1e-9)


class TestScaleFactor:
    def test_closed_form_values(self):
        assert scale_factor(1.0) == pytest.approx(4.082988165073596, abs=1e-12)
        assert scale_factor(2.0) == pytest.approx(2.163953413738653, abs=1e-12)

    def test_no_noise_limit(self):
        assert scale_factor(100.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [75.0, 1419.0, 1420.0, 1e308])
    def test_overflowing_budget_is_the_exact_limit(self, eps):
        # e^(eps/2) overflows past eps ~1419.57; the limit 1 is also the
        # float value from eps ~75 on
        assert scale_factor(eps) == 1.0

    def test_monotone_decreasing(self):
        grid = np.linspace(0.05, 20.0, 200)
        values = [scale_factor(e) for e in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_rejects_nonpositive(self, eps):
        with pytest.raises(InvalidParameterError):
            scale_factor(eps)

    def test_debiasing_identity(self):
        # the scale factor is exactly the reciprocal of the response bias
        for eps in np.linspace(1e-3, 20.0, 500):
            assert scale_factor(eps) * (2.0 * rr_probability(eps) - 1.0) == \
                pytest.approx(1.0, abs=1e-12)


class TestAdvancedComposition:
    def test_perfect_privacy_composes_to_slack_only(self):
        out = advanced_composition(0.0, 0.0, 10, 1e-6)
        assert out.epsilon == 0.0 and out.delta == 1e-6

    def test_closed_form_values(self):
        out = advanced_composition(0.1, 0.0, 100, 1e-6)
        assert out.epsilon == pytest.approx(6.308230950513408, abs=1e-9)
        assert out.delta == pytest.approx(1e-6, rel=1e-12)
        out = advanced_composition(0.5, 1e-8, 1, 1e-6)
        assert out.epsilon == pytest.approx(2.95262152022853, abs=1e-9)
        assert out.delta == pytest.approx(1.01e-6, rel=1e-12)

    def test_single_step_never_tightens(self):
        for eps in (0.1, 0.5, 1.0, 2.0):
            assert advanced_composition(eps, 0.0, 1, 1e-9).epsilon >= eps

    def test_rejects_zero_slack(self):
        with pytest.raises(InvalidParameterError):
            advanced_composition(0.1, 0.0, 10, 0.0)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            advanced_composition(0.1, 0.0, 0, 1e-6)


def _random_distribution(rng, size):
    v = rng.random(size) + 1e-3
    return v / v.sum()


class TestHockeyStickDelta:
    def test_identical_distributions(self):
        p = [0.25, 0.5, 0.25]
        assert hockey_stick_delta(p, p, 0.0) == 0.0

    def test_disjoint_point_masses(self):
        assert hockey_stick_delta([1.0, 0.0], [0.0, 1.0], 0.0) == 1.0

    def test_hand_summed_positive_parts(self):
        assert hockey_stick_delta([0.8, 0.2], [0.2, 0.8], math.log(2.0)) == \
            pytest.approx(0.4, abs=1e-15)

    def test_rejects_mismatched_support(self):
        with pytest.raises(InvalidParameterError):
            hockey_stick_delta([0.5, 0.5], [0.2, 0.3, 0.5], 0.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidParameterError):
            hockey_stick_delta([0.5, 0.6], [0.5, 0.5], 0.0)

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidParameterError):
            hockey_stick_delta([1.1, -0.1], [0.5, 0.5], 0.0)

    def test_renormalizes_within_tolerance(self):
        p = np.array([0.5, 0.5]) * (1.0 + 5e-10)
        assert hockey_stick_delta(p, [0.5, 0.5], 0.0) == pytest.approx(0.0, abs=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 10))
    def test_matches_total_variation_at_zero(self, seed, size):
        rng = np.random.default_rng(seed)
        p = _random_distribution(rng, size)
        q = _random_distribution(rng, size)
        tv = 0.5 * float(np.abs(p - q).sum())
        assert hockey_stick_delta(p, q, 0.0) == pytest.approx(tv, abs=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_non_increasing_in_epsilon(self, seed):
        rng = np.random.default_rng(seed)
        p = _random_distribution(rng, 6)
        q = _random_distribution(rng, 6)
        values = [hockey_stick_delta(p, q, e) for e in np.linspace(0.0, 3.0, 25)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_is_the_exact_closeness_slack(self):
        # delta from the positive-part formula makes the two-sided closeness
        # inequalities hold over every event, and nothing smaller does
        rng = np.random.default_rng(7)
        for _ in range(20):
            size = int(rng.integers(2, 7))
            p = _random_distribution(rng, size)
            q = _random_distribution(rng, size)
            eps = float(rng.uniform(0.0, 1.5))
            delta = hockey_stick_delta(p, q, eps)
            e_eps = math.exp(eps)
            worst = 0.0
            for mask in itertools.product((0, 1), repeat=size):
                sel = np.array(mask, dtype=bool)
                pa, qa = float(p[sel].sum()), float(q[sel].sum())
                worst = max(worst, pa - e_eps * qa, qa - e_eps * pa)
                assert pa <= e_eps * qa + delta + 1e-12
                assert math.exp(-eps) * (qa - delta) <= pa + 1e-12
            assert worst == pytest.approx(delta, abs=1e-12)
