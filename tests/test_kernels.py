import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpshuffle import divergence
from ldpshuffle.amplification import amplify_shuffle
from ldpshuffle.core import level_count, rr_probability
from ldpshuffle.divergence import _cut, _entry_error, divergence_bounds, divergence_scan
from ldpshuffle.errors import InvalidParameterError
from ldpshuffle.kernels import emit_reports
from ldpshuffle.randomizer import RandomnessStream

from conftest import ScriptedStream
from reference.client import ClientState, client_update
from reference.core import hockey_stick_delta
from reference.divergence import (_pmf_terms, count_pmf, reference_divergence_scan,
                                  shuffled_rr_count_distribution)


def _scale(eps0, eps):
    """a + b = (p - q)(1 + e^eps): what a pair's delta moves by per unit of
    mass its windows drop, so that a tail mass tau is the bar tau (a + b)."""
    return math.tanh(eps0 / 2.0) * (1.0 + math.exp(eps))


def _random_population(seed, n, d, k):
    rng = RandomnessStream(seed, 0)
    levels = rng.integers(1, level_count(d) + 1, size=n).astype(np.int64)
    x = np.zeros((n, d), dtype=np.int8)
    for i in range(n):
        count = int(rng.integers(0, k + 1))
        times = np.sort(rng.generator.choice(d, size=count, replace=False))
        signs = np.where(np.arange(count) % 2 == 0, 1, -1)
        x[i, times] = signs
    target = rng.integers(1, k + 1, size=n).astype(np.int64)
    nonzero = np.cumsum(np.abs(x), axis=1)
    hit = (nonzero == target[:, None]) & (x != 0)
    has = hit.any(axis=1)
    sig_t = np.where(has, hit.argmax(axis=1) + 1, 0).astype(np.int64)
    sig_v = np.where(has, x[np.arange(n), np.maximum(sig_t - 1, 0)], 0).astype(np.int64)
    coins = rng.uniform(size=int((d >> (levels - 1)).sum()))
    return x, target, levels, sig_t, sig_v, coins


def _high_precision_errors(n, eps0, eps, ms, *scans):
    """Relative error of each scan against a 60-digit evaluation of the
    divergence of the pair (m, m+1), for every m in ms; one list per scan."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        q = 1 / (1 + mpmath.e ** mpmath.mpf(eps0))
        p = 1 - q
        e_eps = mpmath.e ** mpmath.mpf(eps)

        def pmf(m):
            ones = [mpmath.binomial(m, j) * p ** j * q ** (m - j) for j in range(m + 1)]
            zeros = [mpmath.binomial(n - m, i) * q ** i * p ** (n - m - i)
                     for i in range(n - m + 1)]
            out = [mpmath.mpf(0)] * (n + 1)
            for j, a in enumerate(ones):
                for i, b in enumerate(zeros):
                    out[i + j] += a * b
            return out

        pmfs = {m: pmf(m) for m in set(ms) | {m + 1 for m in ms}}
        errors = [[] for _ in scans]
        for m in ms:
            pairs = list(zip(pmfs[m], pmfs[m + 1]))
            truth = max(sum(max(x - e_eps * y, 0) for x, y in pairs),
                        sum(max(y - e_eps * x, 0) for x, y in pairs))
            for out, scan in zip(errors, scans):
                out.append(float(abs(scan[m] - truth) / truth))
    return errors


class TestEmitReports:
    def test_matches_sequential_client(self):
        # feed the reference state machine its own slice of the flat coin
        # vector, one coin per report; outputs must agree exactly
        d, k, eps = 16, 3, 1.3
        x, target, levels, sig_t, sig_v, coins = _random_population(7, 120, d, k)
        h, t, u = emit_reports(sig_t, sig_v, levels, coins, rr_probability(eps), d)
        pos = 0
        for i in range(len(levels)):
            state = ClientState(d, k, int(target[i]), int(levels[i]))
            stream = ScriptedStream(uniforms=coins[pos: pos + state.reports_per_run])
            for tt in range(1, d + 1):
                report = client_update(state, tt, int(x[i, tt - 1]), eps, stream)
                if report is not None:
                    assert (h[pos], t[pos], u[pos]) == (report.level, report.t, report.u)
                    pos += 1
            assert stream.exhausted
        assert pos == len(h)

    def test_report_counts_follow_levels(self):
        d = 8
        _, _, levels, sig_t, sig_v, coins = _random_population(11, 50, d, 2)
        h, t, u = emit_reports(sig_t, sig_v, levels, coins, 0.7, d)
        expected = int((d >> (levels - 1)).sum())
        assert len(h) == expected
        assert np.all(t % (1 << (h - 1)) == 0)
        assert set(np.unique(u)) <= {-1, 1}

    def test_shape_mismatch_rejected(self):
        # three level-1 clients over d = 4 emit exactly 12 reports
        for shape in [(11,), (13,), (3, 4)]:
            with pytest.raises(InvalidParameterError):
                emit_reports(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
                             np.ones(3, dtype=np.int64), np.zeros(shape), 0.7, 4)


class TestDivergenceScan:
    def test_matches_direct_hockey_stick(self):
        n, eps0, eps = 24, 0.8, 0.3
        scan = divergence_scan(n, eps0, eps)
        for m in (0, 7, 12, 23):
            p = shuffled_rr_count_distribution(n, m, eps0)
            q = shuffled_rr_count_distribution(n, m + 1, eps0)
            assert scan[m] == pytest.approx(hockey_stick_delta(p, q, eps), abs=1e-14)

    def test_validates_arguments(self):
        with pytest.raises(InvalidParameterError):
            divergence_scan(1, 0.5, 0.1)
        with pytest.raises(InvalidParameterError):
            divergence_scan(10, 0.0, 0.1)
        with pytest.raises(InvalidParameterError):
            divergence_scan(10, 0.5, -0.1)

    @staticmethod
    def _assert_matches_reference(n, eps0, eps, tau=0.0):
        bar = tau * _scale(eps0, eps)
        scan, bars = divergence_bounds(n, eps0, eps, bar)
        ref = reference_divergence_scan(n, eps0, eps)
        # the reference forms P - e^eps Q directly and so loses about
        # 1/(1 - e^(eps - e0)) in relative precision as eps nears e0; the
        # high-precision test below checks the scan itself at such a point
        rtol = 1e-9 + 1e-13 / max(-math.expm1(eps - eps0), 1e-13)
        large = ref >= 1e-12
        error = np.abs(scan - ref) - bars
        assert np.all(error[large] <= rtol * ref[large])
        assert np.all(error[~large] <= 1e-14)
        assert np.all(bars <= bar)

    @settings(deadline=None, max_examples=150)
    @given(n=st.integers(2, 100), eps0=st.floats(0.05, 3.0),
           eps_share=st.floats(0.0, 1.2))
    def test_matches_reference_scan(self, n, eps0, eps_share):
        # n up to 100 spans ranges under one block, ragged last blocks and
        # several block widths
        self._assert_matches_reference(n, eps0, eps_share * eps0)

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(2, 400), eps0=st.floats(0.05, 2.0, exclude_min=True, exclude_max=True),
           eps_share=st.floats(0.0, 1.0, exclude_max=True),
           tau=st.sampled_from([0.0, 1e-30, 1e-18, 1e-12, 1e-6]))
    def test_windowed_scan_within_its_bar_of_reference(self, n, eps0, eps_share, tau):
        # every pmf loses its tails of mass up to a share of tau, and each
        # delta moves by at most its bar; at tau = 0 every bar is 0
        self._assert_matches_reference(n, eps0, eps_share * eps0, tau)

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(17, 400), eps0=st.floats(0.05, 2.0), eps_share=st.floats(0.0, 0.99),
           tau=st.sampled_from([1e-18, 1e-12, 1e-6, 1e-3]))
    def test_bar_covers_the_mass_the_windows_drop(self, n, eps0, eps_share, tau):
        # with a forward sum that returns each row's mass, the scan gives the
        # mass of R_m on [0, cut] (or of R_n-1-m, whichever is larger); the
        # windowed R_m is below the exact one entrywise, so the mass it lacks
        # is its L1 distance from it, which the bar over a + b must cover.
        # n > BLOCK, so that the split windows pmfs and binomial slices
        eps = eps_share * eps0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divergence, "_forward_sum", lambda R, a, b, log_b=None: R.sum(axis=-1))
            exact = divergence_scan(n, eps0, eps)
            kept, bars = divergence_bounds(n, eps0, eps, tau * _scale(eps0, eps))
        lost = bars / _scale(eps0, eps)
        assert np.all(exact - kept <= lost + 2 * _entry_error(n, eps0) * exact)

    @pytest.mark.parametrize("eps0,eps", [(0.25, 0.05), (0.5, 0.2), (1.0, 0.3)])
    def test_windowed_scan_within_its_bar_at_the_cap(self, eps0, eps):
        exact = divergence_scan(10_000, eps0, eps)
        scan, bars = divergence_bounds(10_000, eps0, eps, 1e-12 * _scale(eps0, eps))
        assert 0.0 < bars.max() <= 1e-12 * _scale(eps0, eps)
        assert np.all(np.abs(scan - exact) <= bars + _entry_error(10_000, eps0) * exact)

    @pytest.mark.parametrize("eps", [0.0, 2.0, 3.99])
    def test_matches_reference_where_tails_underflow(self, eps):
        # at e0 = 4 the left tail of Bin(lo, p) underflows to 0 past
        # lo ~ 185, so the scan drops leading zeros and, at eps = 3.99
        # (a cut of 4 entries), whole ranges whose cut pmf is all 0; the
        # cut drops part of the support at every eps here
        assert _cut(400, 4.0, eps) < 400 - 1
        self._assert_matches_reference(400, 4.0, eps)

    @settings(deadline=None, max_examples=150)
    @given(n=st.integers(2, 60), m_share=st.floats(0.0, 1.0),
           eps0=st.floats(0.05, 3.0), eps_share=st.floats(0.0, 1.0, exclude_max=True))
    def test_no_forward_term_past_the_cut_is_positive(self, n, m_share, eps0, eps_share):
        # R, the count pmf of N = n-1 reports m of which hold 1, rises by at
        # most (N-x+1) e^e0 / x from x-1 to x, so the pair (m, m+1) has no
        # positive term P_m(x) - e^eps P_{m+1}(x) past the scan's cut
        eps, reports = eps_share * eps0, n - 1
        m = round(m_share * reports)
        x = np.arange(1, n)
        R = count_pmf(reports, m, *_pmf_terms(reports, eps0))
        assert np.all(x * R[1:] <= (reports - x + 1) * math.exp(eps0) * R[:-1] * (1 + 1e-12))
        terms = _pmf_terms(n, eps0)
        past = slice(_cut(n, eps0, eps) + 1, n + 1)
        forward = count_pmf(n, m, *terms) - math.exp(eps) * count_pmf(n, m + 1, *terms)
        assert np.all(forward[past] <= 0.0)

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_worst_pair_matches_reference_at_scale(self, n):
        claimed = amplify_shuffle(0.5, n, 1e-4).epsilon_central
        for eps in (0.05, claimed):
            scan = divergence_scan(n, 0.5, eps)
            ref = reference_divergence_scan(n, 0.5, eps)
            assert scan.max() == pytest.approx(ref.max(), rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("n,eps0,eps", [(300, 0.25, None), (28, 1.0, 0.99999)])
    def test_closer_than_reference_to_high_precision_truth(self, n, eps0, eps):
        # eps None is the accountant's claim; 0.99999 e0 is where the
        # reference's cancellation is worst. Every delta checked is positive
        # there, and m spread over the whole range reaches its R_m through
        # different branches of the scan's split
        if eps is None:
            eps = amplify_shuffle(eps0, n, 1e-4).epsilon_central
        scan = divergence_scan(n, eps0, eps)
        ref = reference_divergence_scan(n, eps0, eps)
        ms = (0, 1, 2, n // 2, n - 3, n - 2, n - 1)
        assert np.all(scan[list(ms)] > 0.0)
        scan_errs, ref_errs = _high_precision_errors(n, eps0, eps, ms, scan, ref)
        for scan_err, ref_err in zip(scan_errs, ref_errs):
            assert scan_err <= 1e-9
            assert scan_err <= ref_err

    def test_worst_pairs_near_high_precision_truth_at_scale(self):
        # each R_m is formed from the coin [p, q] by convolutions of
        # nonnegative vectors alone; at the accountant's claim the worst
        # pairs are m = 0 and n-1, and m = 1 and n-2 go through other
        # branches of the split
        n = 3000
        eps = amplify_shuffle(0.5, n, 1e-4).epsilon_central
        scan = divergence_scan(n, 0.5, eps)
        (errors,) = _high_precision_errors(n, 0.5, eps, (0, 1, n - 2), scan)
        assert max(errors) <= 2e-13

    @pytest.mark.parametrize("eps0,eps", [(800.0, 750.0), (720.0, 715.0)])
    def test_epsilon_past_float_exp_range(self, eps0, eps):
        # e^eps overflows a float here, so the scan must never form it
        scan = divergence_scan(10, eps0, eps)
        assert np.all(np.isfinite(scan))
        assert np.all((scan >= 0.0) & (scan <= 1.0))
        (errors,) = _high_precision_errors(10, eps0, eps, range(10), scan)
        assert max(errors) <= 1e-9

    def test_large_local_budget_is_deterministic_count(self):
        # at e0 = 800 the lie probability underflows to 0, so the count is the
        # number of ones and adjacent pairs are disjoint point masses
        assert divergence_scan(20, 800.0, 1.0) == pytest.approx(np.ones(20), abs=0.0)
