import math

import numpy as np
import pytest

from ldpshuffle.errors import InvalidParameterError
from ldpshuffle.randomizer import RandomnessStream
from ldpshuffle.core import rr_probability

from conftest import ScriptedStream
from reference.randomizer import (OneBitRandomizer, ParityRandomizer, binary_rr,
                                  max_likelihood_ratio, uniform_sign)


class TestRandomnessStream:
    def test_same_key_replays_identically(self):
        a = RandomnessStream(123, 9).uniform(size=1000)
        b = RandomnessStream(123, 9).uniform(size=1000)
        assert np.array_equal(a, b)

    def test_bulk_and_scalar_draws_agree(self):
        bulk = RandomnessStream(5, 5).uniform(size=16)
        one = RandomnessStream(5, 5)
        scalars = np.array([one.uniform() for _ in range(16)])
        assert np.array_equal(bulk, scalars)

    def test_distinct_streams_decorrelated(self):
        n = 10 ** 6
        a = RandomnessStream(42, 0).uniform(size=n)
        b = RandomnessStream(42, 1).uniform(size=n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_integer_draws_in_range(self):
        s = RandomnessStream(0, 0)
        draws = s.integers(1, 5, size=1000)
        assert draws.min() >= 1 and draws.max() <= 4


class TestUniformSign:
    def test_values_and_determinism(self):
        s = RandomnessStream(7, 7)
        draws = [uniform_sign(s) for _ in range(100)]
        assert set(draws) <= {-1, 1}
        s2 = RandomnessStream(7, 7)
        assert draws == [uniform_sign(s2) for _ in range(100)]

    def test_empirical_mean_clt_bound(self):
        n = 10 ** 6
        coins = RandomnessStream(11, 0).uniform(size=n)
        signs = np.where(coins < 0.5, 1, -1)
        assert abs(signs.mean()) <= 3.0 / math.sqrt(n)

    def test_threshold_semantics(self):
        assert uniform_sign(ScriptedStream(uniforms=[0.499])) == 1
        assert uniform_sign(ScriptedStream(uniforms=[0.5])) == -1


class TestBinaryRr:
    def test_rejects_zero_and_other_values(self):
        for bad in (0, 2, -2):
            with pytest.raises(InvalidParameterError):
                binary_rr(bad, 1.0, ScriptedStream(uniforms=[0.1]))

    def test_rejects_negative_epsilon(self):
        with pytest.raises(InvalidParameterError):
            binary_rr(1, -0.5, ScriptedStream(uniforms=[0.1]))

    def test_zero_budget_is_a_fair_coin(self):
        assert binary_rr(1, 0.0, ScriptedStream(uniforms=[0.499])) == 1
        assert binary_rr(1, 0.0, ScriptedStream(uniforms=[0.501])) == -1
        coins = RandomnessStream(19, 0).uniform(size=10 ** 5)
        outs = np.where(coins < 0.5, 1, -1)
        assert abs(outs.mean()) <= 3.0 / math.sqrt(len(coins))

    def test_keep_flip_threshold_is_rr_probability(self):
        p = rr_probability(2.0)
        assert binary_rr(-1, 2.0, ScriptedStream(uniforms=[p - 1e-12])) == -1
        assert binary_rr(-1, 2.0, ScriptedStream(uniforms=[p + 1e-12])) == 1

    def test_no_noise_limit(self):
        s = RandomnessStream(3, 3)
        assert all(binary_rr(1, 60.0, s) == 1 for _ in range(200))

    def test_flip_rate_matches_closed_form(self):
        n = 10 ** 5
        coins = RandomnessStream(13, 1).uniform(size=n)
        outs = np.where(coins < rr_probability(2.0), -1, 1)  # c = -1
        keep_rate = float(np.mean(outs == -1))
        sigma = math.sqrt(0.731 * 0.269 / n)
        assert abs(keep_rate - 0.7310585786300049) <= 3 * sigma

    def test_unbiased_after_scaling(self):
        from ldpshuffle.core import scale_factor

        n = 10 ** 6
        eps = 1.0
        coins = RandomnessStream(17, 2).uniform(size=n)
        outs = np.where(coins < rr_probability(eps), 1, -1)  # c = +1
        scaled = scale_factor(eps) * outs
        assert abs(scaled.mean() - 1.0) <= 3.0 * scale_factor(eps) / math.sqrt(n)


class TestOneBitRandomizer:
    def test_truth_probability_closed_form(self):
        r = OneBitRandomizer(math.log(3.0))
        assert r.truth_probability == pytest.approx(0.75, abs=1e-15)

    def test_zero_budget_limit(self):
        r = OneBitRandomizer(1e-9)
        assert r.truth_probability == pytest.approx(0.5, abs=1e-9)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(InvalidParameterError):
            OneBitRandomizer(0.0)

    def test_exhaustive_likelihood_ratio_is_exact(self):
        r = OneBitRandomizer(0.5)
        assert max_likelihood_ratio(r) == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_ignores_prior_outputs(self):
        r = OneBitRandomizer(1.0)
        assert np.array_equal(r.response_distribution((), 1),
                              r.response_distribution((0, 1, 1), 1))

    def test_respond_validates_input(self):
        with pytest.raises(InvalidParameterError):
            OneBitRandomizer(1.0).respond((), 2, ScriptedStream(uniforms=[0.1]))

    def test_adaptive_randomizer_certifies_at_its_budget(self):
        import itertools

        r = ParityRandomizer(0.8)
        priors = [p for length in range(4)
                  for p in itertools.product((0, 1), repeat=length)]
        assert max_likelihood_ratio(r, priors=priors) == \
            pytest.approx(math.exp(0.8), abs=1e-12)

    def test_adaptive_randomizer_actually_adapts(self):
        r = ParityRandomizer(0.8)
        assert not np.array_equal(r.response_distribution((1,), 1),
                                  r.response_distribution((1, 1), 1))
