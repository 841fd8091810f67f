import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.stats import chisquare

from ldpshuffle.divergence import certify_amplification, divergence_scan, worst_case_divergence
from ldpshuffle.errors import InvalidParameterError
from ldpshuffle.randomizer import RandomnessStream

from reference.core import hockey_stick_delta
from reference.divergence import shuffled_rr_count_distribution
from reference.shuffle import sample_onebit_batch


class TestCountDistribution:
    def test_single_report_zero_input(self):
        eps0 = 0.9
        p = 1.0 / (1.0 + math.exp(-eps0))
        probs = shuffled_rr_count_distribution(1, 0, eps0)
        assert probs == pytest.approx([p, 1.0 - p], abs=1e-15)

    def test_hand_convolved_pair(self):
        probs = shuffled_rr_count_distribution(2, 1, math.log(3.0))
        assert probs == pytest.approx([3 / 16, 10 / 16, 3 / 16], abs=1e-15)

    def test_bit_flip_symmetry(self):
        for n, m in [(5, 1), (9, 4), (30, 11)]:
            a = shuffled_rr_count_distribution(n, m, 0.7)
            b = shuffled_rr_count_distribution(n, n - m, 0.7)
            assert a == pytest.approx(b[::-1], abs=1e-14)

    def test_large_n_normalization(self):
        for m in (0, 1234, 2000):
            probs = shuffled_rr_count_distribution(2000, m, 0.25)
            assert abs(float(probs.sum()) - 1.0) <= 1e-9
            assert np.all(probs >= 0.0)

    def test_huge_local_budget(self):
        # the truth probability rounds to 1; the lie probability must not
        probs = shuffled_rr_count_distribution(5, 2, 40.0)
        assert np.all(np.isfinite(probs))
        assert probs[2] == pytest.approx(1.0, abs=1e-15)
        # one of the two ones lies, or one of the three zeros does
        assert probs[1] == pytest.approx(2 * math.exp(-40.0), rel=1e-12, abs=0.0)
        assert probs[3] == pytest.approx(3 * math.exp(-40.0), rel=1e-12, abs=0.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            shuffled_rr_count_distribution(5, 6, 1.0)
        with pytest.raises(InvalidParameterError):
            shuffled_rr_count_distribution(5, -1, 1.0)
        with pytest.raises(InvalidParameterError):
            shuffled_rr_count_distribution(5, 2, 0.0)
        with pytest.raises(InvalidParameterError):
            shuffled_rr_count_distribution(20_000, 2, 1.0)

    @pytest.mark.parametrize("n,m", [(3, 1), (10, 4)])
    def test_matches_simulated_counts(self, n, m):
        # 1e6 sampled pipeline runs against the closed-form convolution
        eps0 = 1.0
        runs = 10 ** 6
        data = [1] * m + [0] * (n - m)
        outs = sample_onebit_batch(data, eps0, runs, RandomnessStream(31, n),
                                   mode="shuffle")
        counts = np.bincount(outs.sum(axis=1), minlength=n + 1)
        expected = shuffled_rr_count_distribution(n, m, eps0) * runs
        keep = expected >= 5.0  # chi-squared validity floor
        observed = counts[keep].astype(float)
        expect = expected[keep]
        if not keep.all():  # merge any dropped tail into one cell
            observed = np.append(observed, counts[~keep].sum())
            expect = np.append(expect, expected[~keep].sum())
        assert chisquare(observed, expect, sum_check=False).pvalue > 0.01


class TestWorstCaseDivergence:
    def test_group_privacy_exhaustion(self):
        assert worst_case_divergence(6, 0.5, 6 * 0.5) == 0.0

    def test_hand_computed_two_report_value(self):
        # three-point distributions at eps0 = ln 3, eps = 0: worst adjacent
        # total variation is 6/16
        assert worst_case_divergence(2, math.log(3.0), 0.0) == pytest.approx(
            0.375, abs=1e-12)

    def test_pure_dp_at_local_budget(self):
        # the pointwise likelihood ratio never exceeds e^eps0, so the exact
        # slack at eps >= eps0 is zero, and the scan returns it without rounding
        assert worst_case_divergence(40, 0.5, 0.5) == 0.0
        assert worst_case_divergence(40, 0.5, 0.7) == 0.0

    def test_monotone_in_epsilon(self):
        values = [worst_case_divergence(30, 0.8, e) for e in np.linspace(0.0, 1.2, 13)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_full_scan_dominates_candidate_shortlist(self):
        # no extremality assumption: the full scan must produce the max, and
        # in particular never fall below the endpoint/midpoint candidates
        n = 37
        worst, scan = worst_case_divergence(n, 0.6, 0.2), divergence_scan(n, 0.6, 0.2)
        assert worst == float(scan.max())
        shortlist = scan[[0, n // 2, n - 2]]
        assert worst >= float(shortlist.max()) - 1e-18

    def test_matches_pairwise_hockey_stick(self):
        n, eps0, eps = 12, 0.9, 0.25
        worst = worst_case_divergence(n, eps0, eps)
        direct = max(
            hockey_stick_delta(shuffled_rr_count_distribution(n, m, eps0),
                               shuffled_rr_count_distribution(n, m + 1, eps0), eps)
            for m in range(n)
        )
        assert worst == pytest.approx(direct, abs=1e-14)

    def test_oracle_cap(self):
        with pytest.raises(InvalidParameterError):
            worst_case_divergence(20_000, 0.5, 0.1)


# passed, regime and claimed_epsilon as the unwindowed oracle (bar = 0)
# gave them on the benchmark's certify grid, which holds the README's
# n=1000, eps0=0.25 example, and on the points of acceptance 5; delta = 1e-4
PINNED_VERDICTS = {
    (1000, 0.25): (True, "general", 0.1279897639110036),
    (1000, 0.5): (True, "general", 0.49112954696479266),
    (2000, 0.25): (True, "general", 0.09032058052580634),
    (2000, 0.5): (True, "general", 0.3446949106820764),
    (3000, 0.25): (True, "general", 0.07368069607299331),
    (3000, 0.5): (True, "general", 0.28050835047830797),
    (100, 0.1): (True, "no-amplification", 0.1),
    (100, 0.25): (True, "no-amplification", 0.25),
    (100, 0.5): (True, "no-amplification", 0.5),
    (1000, 0.1): (True, "general", 0.03493484389390107),
    (5000, 0.1): (True, "general", 0.015607016649832611),
    (5000, 0.25): (True, "general", 0.05702175427093634),
    (5000, 0.5): (True, "general", 0.2165559207654326),
}


class TestCertification:
    @pytest.mark.parametrize("n,eps0", sorted(PINNED_VERDICTS))
    def test_verdicts_unchanged_by_the_window(self, n, eps0):
        record = certify_amplification(n, eps0, 1e-4)
        assert (record.passed, record.regime, record.claimed_epsilon) == PINNED_VERDICTS[n, eps0]
        assert 0.0 <= record.delta_bar <= 1e-12 * record.delta_target

    def test_amplified_claim_certifies(self):
        record = certify_amplification(1000, 0.25, 1e-4)
        assert record.passed
        assert record.exact_delta < record.delta_target
        assert record.claimed_epsilon < 0.25
        assert record.exact_delta <= 1e-4

    def test_no_amplification_claim_trivially_sound(self):
        record = certify_amplification(2, 5.0, 1e-4)
        assert record.regime == "no-amplification"
        assert record.claimed_epsilon == 5.0
        assert record.passed

    def test_json_round_trip_fields(self):
        record = certify_amplification(100, 0.5, 1e-4)
        assert set(asdict(record)) == {"n", "eps0", "delta_target", "claimed_epsilon",
                                       "regime", "exact_delta", "delta_bar", "passed"}
