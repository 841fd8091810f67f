import itertools
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from ldpshuffle.errors import InvalidParameterError
from ldpshuffle.randomizer import RandomnessStream

from conftest import ScriptedStream
from reference.randomizer import OneBitRandomizer, ParityRandomizer
from reference.shuffle import (distribution_to_cells, exact_local_distribution,
                               exact_response_shuffle_distribution,
                               exact_shuffled_distribution, exact_swap_distribution,
                               pack_outputs, run_local, run_shuffled, run_swap,
                               sample_onebit_batch, shuffle_responses)


def _rr_team(eps0, n):
    return [OneBitRandomizer(eps0)] * n


class TestRunners:
    def test_single_element_local(self):
        out = run_local([1], _rr_team(50.0, 1), RandomnessStream(1, 0))
        assert out == [1]

    def test_no_noise_limit_is_identity(self):
        data = [0, 1, 1, 0, 1]
        out = run_local(data, _rr_team(50.0, 5), RandomnessStream(2, 0))
        assert out == data

    def test_deterministic_under_fixed_stream(self):
        data = [0, 1, 1]
        a = run_local(data, _rr_team(0.5, 3), RandomnessStream(3, 9))
        b = run_local(data, _rr_team(0.5, 3), RandomnessStream(3, 9))
        assert a == b

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_local([1, 0], _rr_team(1.0, 3), RandomnessStream(4, 0))

    def test_swap_definition(self):
        # scripted draw picks index 1, so elements 0 and 1 swap before the
        # no-noise randomizers echo the data
        stream = ScriptedStream(ints=[1], uniforms=[0.1, 0.1])
        out = run_swap([1, 0], _rr_team(50.0, 2), stream)
        assert out == [0, 1]

    def test_swap_identity_when_first_index_drawn(self):
        stream = ScriptedStream(ints=[0], uniforms=[0.1, 0.1])
        assert run_swap([1, 0], _rr_team(50.0, 2), stream) == [1, 0]


class TestShuffleResponses:
    def test_singleton_subset_is_identity(self):
        out = shuffle_responses([0, 1, 1], [1], RandomnessStream(5, 0))
        assert out == [0, 1, 1]

    def test_identical_outputs_unchanged(self):
        out = shuffle_responses([1, 1, 1], [0, 1, 2], RandomnessStream(6, 0))
        assert out == [1, 1, 1]

    def test_permutes_only_the_subset(self):
        stream = RandomnessStream(7, 0)
        for _ in range(50):
            out = shuffle_responses(list(range(6)), [1, 3, 5], stream)
            assert out[0] == 0 and out[2] == 2 and out[4] == 4
            assert sorted(out[i] for i in (1, 3, 5)) == [1, 3, 5]

    def test_out_of_range_subset_rejected(self):
        with pytest.raises(InvalidParameterError):
            shuffle_responses([1, 0], [2], RandomnessStream(8, 0))

    def test_mismatched_randomizers_rejected(self):
        rs = [OneBitRandomizer(0.5), OneBitRandomizer(0.7)]
        with pytest.raises(InvalidParameterError):
            shuffle_responses([0, 1], [0, 1], RandomnessStream(9, 0), randomizers=rs)

    def test_identical_randomizers_accepted(self):
        rs = _rr_team(0.5, 2)
        shuffle_responses([0, 1], [0, 1], RandomnessStream(10, 0), randomizers=rs)


class TestExactOracles:
    def test_local_distribution_tiny_case(self):
        r = OneBitRandomizer(math.log(3.0))  # truthful w.p. 3/4
        dist = exact_local_distribution([1], [r])
        assert dist[(1,)] == pytest.approx(0.75)
        assert dist[(0,)] == pytest.approx(0.25)

    def test_distributions_normalize(self):
        team = _rr_team(1.0, 3)
        for dist in (exact_local_distribution([1, 0, 0], team),
                     exact_shuffled_distribution([1, 0, 0], team),
                     exact_swap_distribution([1, 0, 0], team),
                     exact_response_shuffle_distribution([1, 0, 0], team, [0, 1, 2])):
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_constant_data_shuffle_equals_local(self):
        team = _rr_team(0.8, 3)
        local = exact_local_distribution([1, 1, 1], team)
        shuffled = exact_shuffled_distribution([1, 1, 1], team)
        for key in local:
            assert shuffled[key] == pytest.approx(local[key], abs=1e-15)

    def test_pre_and_post_shuffle_agree_exactly(self):
        team = _rr_team(1.0, 3)
        pre = exact_shuffled_distribution([1, 0, 0], team)
        post = exact_response_shuffle_distribution([1, 0, 0], team, [0, 1, 2])
        for key in pre:
            assert post[key] == pytest.approx(pre[key], abs=1e-12)

    @pytest.mark.parametrize("runner,oracle", [
        (run_local, exact_local_distribution),
        (run_shuffled, exact_shuffled_distribution),
        (run_swap, exact_swap_distribution),
    ])
    def test_runners_drive_adaptive_randomizers(self, runner, oracle):
        # a team whose middle member reacts to prior outputs: the sequential
        # runners must feed the growing transcript through, matching the
        # enumerated distribution
        team = [OneBitRandomizer(0.8), ParityRandomizer(0.8),
                OneBitRandomizer(0.8)]
        data = [1, 1, 0]
        runs = 100_000
        stream = RandomnessStream(18, 0)
        counts = np.zeros(8)
        for _ in range(runs):
            out = runner(data, team, stream)
            counts[(out[0] << 2) | (out[1] << 1) | out[2]] += 1
        expected = distribution_to_cells(oracle(data, team), 3) * runs
        assert chisquare(counts, expected).pvalue > 0.01


class TestBatchSampler:
    @pytest.mark.parametrize("mode,oracle", [
        ("shuffle", exact_shuffled_distribution),
        ("swap", exact_swap_distribution),
        ("local", exact_local_distribution),
    ])
    def test_batch_matches_exact_distribution(self, mode, oracle):
        data, eps0 = [1, 0, 0], 1.0
        team = _rr_team(eps0, 3)
        runs = 200_000
        outs = sample_onebit_batch(data, eps0, runs, RandomnessStream(11, 3), mode=mode)
        counts = np.bincount(pack_outputs(outs), minlength=8)
        expected = distribution_to_cells(oracle(data, team), 3) * runs
        assert chisquare(counts, expected).pvalue > 0.01

    def test_runner_api_matches_exact_distribution(self):
        data, eps0 = [1, 0, 0], 1.0
        team = _rr_team(eps0, 3)
        runs = 100_000
        stream = RandomnessStream(12, 0)
        counts = np.zeros(8)
        for _ in range(runs):
            out = run_shuffled(data, team, stream)
            counts[(out[0] << 2) | (out[1] << 1) | out[2]] += 1
        expected = distribution_to_cells(exact_shuffled_distribution(data, team), 3) * runs
        assert chisquare(counts, expected).pvalue > 0.01

    def test_swap_runner_matches_exact_distribution(self):
        data, eps0 = [1, 0, 1], 0.9
        team = _rr_team(eps0, 3)
        runs = 100_000
        stream = RandomnessStream(13, 0)
        counts = np.zeros(8)
        for _ in range(runs):
            out = run_swap(data, team, stream)
            counts[(out[0] << 2) | (out[1] << 1) | out[2]] += 1
        expected = distribution_to_cells(exact_swap_distribution(data, team), 3) * runs
        assert chisquare(counts, expected).pvalue > 0.01

    def test_rejects_non_binary_data(self):
        with pytest.raises(InvalidParameterError):
            sample_onebit_batch([0, 2], 1.0, 10, RandomnessStream(14, 0))


class TestPermutationStructure:
    def test_permutation_sampler_uniform(self):
        runs = 600_000
        stream = RandomnessStream(15, 0)
        perms = np.argsort(stream.generator.random((runs, 4)), axis=1)
        labels = perms @ np.array([64, 16, 4, 1])
        _, counts = np.unique(labels, return_counts=True)
        assert len(counts) == 24
        freq = counts / runs
        sigma = math.sqrt((1 / 24) * (23 / 24) / runs)
        assert np.all(np.abs(freq - 1 / 24) <= 3.5 * sigma)

    def test_api_permutation_uniform(self):
        runs = 120_000
        stream = RandomnessStream(16, 0)
        counts = {}
        for _ in range(runs):
            key = tuple(stream.permutation(4))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 24
        expected = runs / 24
        assert chisquare(list(counts.values()),
                         [expected] * 24).pvalue > 0.01

    def test_swap_decomposition_yields_uniform_permutation(self):
        # moving a chosen element to the front, permuting the rest, then
        # applying one uniform swap must reach every arrangement equally
        n = 4
        for star in range(n):
            counts = {}
            rest = [i for i in range(n) if i != star]
            for tail in itertools.permutations(rest):
                moved = [star, *tail]
                for i in range(n):
                    swapped = list(moved)
                    swapped[0], swapped[i] = swapped[i], swapped[0]
                    key = tuple(swapped)
                    counts[key] = counts.get(key, 0) + 1
            assert len(counts) == math.factorial(n)
            assert len(set(counts.values())) == 1
