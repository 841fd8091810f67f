import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldpshuffle import divergence
from ldpshuffle.amplification import amplify_shuffle
from ldpshuffle.core import level_count, rr_probability
from ldpshuffle.divergence import (_cut, _entry_error, _range_cut, divergence_bounds,
                                   divergence_scan)
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


def _two_cumsum_window(values, tau):
    """`divergence._window` as a plain reference: both cumsums formed
    whatever the ends hold, each run found in its own."""
    if not len(values) or values[0] > tau and values[-1] > tau:
        return 0, len(values), 0.0, float(values.sum())
    head = values.cumsum()
    first = int(head.searchsorted(tau, "right"))
    tail = values[::-1].cumsum()
    trail = int(tail.searchsorted(tau, "right"))
    dropped = (head[first - 1] if first else 0.0) + (tail[trail - 1] if trail else 0.0)
    return first, len(values) - trail, float(dropped), float(head[-1])


class TestWindow:
    @settings(deadline=None, max_examples=300)
    @given(values=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                                     st.floats(0.0, 1e-12), st.floats(0.0, 1e-300)),
                           max_size=40),
           tau=st.one_of(st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 0.5, 50.0]),
                         st.floats(0.0, 2.0)))
    @example(values=[], tau=0.0)
    @example(values=[], tau=1.0)
    @example(values=[0.5, 0.2, 0.3], tau=0.25)        # first above, last above
    @example(values=[0.1, 0.5, 0.4], tau=0.25)        # first below, last above
    @example(values=[0.4, 0.5, 0.1], tau=0.25)        # first above, last below
    @example(values=[0.1, 0.8, 0.1], tau=0.25)        # both below
    @example(values=[1e-3, 2e-3, 1e-3], tau=0.25)     # all mass below tau
    @example(values=[0.0, 0.0, 0.0], tau=0.0)
    @example(values=[0.3, 0.4, 0.3], tau=0.3)         # ends equal to tau
    def test_equals_the_two_cumsum_reference(self, values, tau):
        values = np.array(values, dtype=float)
        got, want = divergence._window(values, tau), _two_cumsum_window(values, tau)
        assert [type(x) for x in got] == [type(x) for x in want]
        assert got[:2] == want[:2]
        assert (repr(got[2]), repr(got[3])) == (repr(want[2]), repr(want[3]))


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
        # mass of R_m on [0, cut(hi)], hi the last pair of m's leaf range (or
        # that of R_n-1-m, whichever is larger); the
        # windowed R_m is below the exact one entrywise, so the mass it lacks
        # is its L1 distance from it, which the bar over a + b must cover.
        # n > BLOCK, so that the split windows pmfs and binomial slices
        eps = eps_share * eps0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divergence, "_forward_sum", lambda R, a, b: R.sum(axis=-1))
            exact = divergence_scan(n, eps0, eps)
            kept, bars = divergence_bounds(n, eps0, eps, tau * _scale(eps0, eps))
        lost = bars / _scale(eps0, eps)
        assert np.all(exact - kept <= lost + 2 * _entry_error(n, eps0) * exact)

    @settings(deadline=None, max_examples=100)
    @given(size=st.integers(2, 300), eps0=st.floats(0.05, 3.0),
           tau=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]), ones=st.booleans())
    def test_windowed_build_drops_at_most_its_share(self, size, eps0, tau, ones):
        # a build of size s windows s - 1 convolutions, each losing runs of
        # mass <= tau at both ends, and convolving windows loses at most the
        # sum of what each lacks, so the kept entries lie below Bin(s, q)
        # (or Bin(s, p)) and miss at most dropped <= 2 tau (s - 1) of its mass
        log_p, log_q, lgam = _pmf_terms(size, eps0)
        p, q = math.exp(log_p), math.exp(log_q)
        first, kept, dropped = divergence._binomials(p, q, tau)(size, ones)
        exact = count_pmf(size, size if ones else 0, log_p, log_q, lgam)
        window = np.zeros(size + 1)
        window[first:first + len(kept)] = kept
        assert np.all(window <= exact * (1 + 1e-10) + 1e-300)
        assert np.abs(exact - window).sum() <= dropped + 1e-12
        assert dropped <= 2 * tau * (size - 1)
        if tau == 0.0:
            assert dropped == 0.0

    @pytest.mark.parametrize("tau", [0.0, 1e-3])
    def test_build_whose_mass_is_off_raises(self, tau):
        # a coin whose two sides do not sum to 1 builds no count pmf
        with pytest.raises(ArithmeticError):
            divergence._binomials(0.6, 0.5, tau)(8)

    @pytest.mark.parametrize("eps0", [0.25, 0.5, 2.0])
    def test_builds_drop_mass_at_a_large_bar(self, eps0):
        # at the bars of the property below the builds really drop mass, not
        # only the shared pmfs' windows
        n, bar = 300, 1e-3
        tau_node = bar / _scale(eps0, 0.0) / (4 * (math.ceil(math.log2(n)) + 2))
        log_p, log_q, _ = _pmf_terms(n, eps0)
        binomial = divergence._binomials(math.exp(log_p), math.exp(log_q), tau_node / (2 * n))
        assert binomial(n // 2)[2] > 0.0

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(2, 300), eps0=st.floats(0.05, 4.0),
           eps_share=st.floats(0.0, 1.0, exclude_max=True),
           bar=st.floats(1e-8, 1e-3))
    def test_windowed_builds_within_their_bar_of_reference(self, n, eps0, eps_share, bar):
        # bars this large window the binomials as they are built, and every
        # delta stays within its bar, and every bar within bar; at bar = 0
        # only exact zeros are dropped, so the deltas are those of a scan that
        # forms every binomial and pmf in full, up to the order of rounding
        eps = eps_share * eps0
        self._assert_matches_reference(n, eps0, eps, bar / _scale(eps0, eps))
        scan = divergence_scan(n, eps0, eps)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divergence, "_window",
                          lambda values, tau: (0, len(values), 0.0, float(values.sum())))
            full = divergence_scan(n, eps0, eps)
        assert np.all((scan == 0.0) == (full == 0.0))
        assert np.all(np.abs(scan - full) <= 1e-12 * full)

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

    @settings(deadline=None, max_examples=60)
    @given(block=st.sampled_from([1, 3, 32]), n=st.integers(2, 120),
           eps0=st.floats(0.05, 2.0, exclude_min=True, exclude_max=True),
           eps_share=st.floats(0.0, 1.0, exclude_max=True), tau=st.sampled_from([0.0, 1e-12]))
    def test_matches_reference_at_other_block_sizes(self, block, n, eps0, eps_share, tau):
        # leaf blocks of every width up to 31, not only under 16; _entry_error
        # reads BLOCK, so the tolerance follows it
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divergence, "BLOCK", block)
            self._assert_matches_reference(n, eps0, eps_share * eps0, tau)

    @pytest.mark.parametrize("tau", [0.0, 1e-12])
    @pytest.mark.parametrize("block", [1, 3, 32])
    def test_cut_leaf_columns_at_other_block_sizes(self, block, tau):
        # at (400, 4, 3.99) the cut leaves a leaf fewer columns than its
        # shifted copies span, at every block size above 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(divergence, "BLOCK", block)
            self._assert_matches_reference(400, 4.0, 3.99, tau)

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

    @settings(deadline=None, max_examples=150)
    @given(n=st.integers(2, 60), hi_share=st.floats(0.0, 1.0), m_share=st.floats(0.0, 1.0),
           eps0=st.floats(0.05, 3.0), eps_share=st.floats(0.0, 1.0, exclude_max=True))
    def test_no_forward_term_past_the_range_cut_is_positive(self, n, hi_share, m_share,
                                                            eps0, eps_share):
        # R rises by at most (S_m - (x-1) e^-e0) / x from x-1 to x, with
        # S_m = m e^e0 + (N-m) e^-e0 the odds sum of its N = n-1 reports;
        # S_m rises in m, so no pair m <= hi has a positive term past hi's
        # cut, which is never above the cut of every pair
        eps, reports = eps_share * eps0, n - 1
        hi = round(hi_share * reports)
        m = round(m_share * hi)
        x = np.arange(1, n)
        R = count_pmf(reports, m, *_pmf_terms(reports, eps0))
        odds = m * math.exp(eps0) + (reports - m) * math.exp(-eps0)
        assert np.all(x * R[1:] <= (odds - (x - 1) * math.exp(-eps0)) * R[:-1] * (1 + 1e-12))
        cut = _range_cut(n, eps0, eps)(hi)
        assert cut <= _cut(n, eps0, eps)
        terms = _pmf_terms(n, eps0)
        forward = count_pmf(n, m, *terms) - math.exp(eps) * count_pmf(n, m + 1, *terms)
        assert np.all(forward[cut + 1:] <= 0.0)

    @pytest.mark.parametrize("eps0", [0.25, 0.5])
    @pytest.mark.parametrize("n", [1000, 3000])
    def test_range_cuts_at_the_accountants_epsilon(self, n, eps0):
        # where the range cuts prune most: the windowed scan reaches no leaf
        # block on this grid, yet every delta stays within its bar of the
        # bar = 0 scan, whose worst pair matches the reference
        eps = amplify_shuffle(eps0, n, 1e-4).epsilon_central
        exact = divergence_scan(n, eps0, eps)
        scan, bars = divergence_bounds(n, eps0, eps, 1e-16)
        assert np.all(np.abs(scan - exact) <= bars + _entry_error(n, eps0) * exact)
        ref = reference_divergence_scan(n, eps0, eps)
        assert exact.max() == pytest.approx(ref.max(), rel=1e-8, abs=0.0)

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

    @pytest.mark.parametrize("eps,ms", [(695.0, range(10)), (699.999, (0, 1, 8, 9))])
    def test_near_the_top_of_the_domain(self, eps, ms):
        # e0 = EXP_SAFE, where e^eps is largest and q ~ 1e-304. At 699.999
        # the deltas of pairs 2 to 7 are of order q^2, below the float
        # range, and the scan gives them 0
        scan = divergence_scan(10, divergence.EXP_SAFE, eps)
        (errors,) = _high_precision_errors(10, divergence.EXP_SAFE, eps, ms, scan)
        assert max(errors) <= 1e-9
        assert not np.delete(scan, ms).any()

    @pytest.mark.parametrize("eps", [0.0, 699.0])
    def test_at_the_cap_and_the_top_of_the_domain(self, eps):
        # every factor e^eps, a + b and the range cut's scale is finite at
        # n = 10^4, e0 = EXP_SAFE, and no operation warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan, bars = divergence_bounds(10_000, divergence.EXP_SAFE, eps, 0.0)
        assert np.all(np.isfinite(scan)) and np.all((scan >= 0.0) & (scan <= 1.0))
        assert scan.max() > 0.0 and not bars.any()

    def test_scan_past_the_domain_is_refused(self):
        # past e0 = EXP_SAFE a one-bit report equals its input to float
        # precision; only the scan at eps >= e0, all zeros, is taken there
        with pytest.raises(InvalidParameterError, match=r"\(0, 700\]"):
            divergence_scan(10, 800.0, 750.0)
        assert not divergence_scan(10, 800.0, 800.0).any()

    @pytest.mark.parametrize("bar", [0.0, 1e-12])
    def test_scan_at_the_least_float_is_refused(self, bar):
        # half of e0 = 5e-324 rounds to 0, so a + b is 0 and no bar can be
        # scaled by it; twice that e0 is scanned, to zeros
        with pytest.raises(InvalidParameterError, match="a \\+ b underflows"):
            divergence_bounds(10, 5e-324, 0.0, bar)
        assert not divergence_bounds(10, 5e-324, 5e-324, bar)[0].any()
        scan, bars = divergence_bounds(10, 1e-323, 0.0, bar)
        assert not scan.any() and np.all((bars >= 0.0) & (bars <= bar))
