import numpy as np
import pytest

from ldpshuffle.client import ClientState, client_update, level_count
from ldpshuffle.core import rr_probability
from ldpshuffle.divergence import divergence_scan, shuffled_rr_count_distribution
from ldpshuffle.errors import InvalidParameterError
from ldpshuffle.kernels import emit_reports
from ldpshuffle.randomizer import RandomnessStream

from conftest import ScriptedStream


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
    coins = rng.uniform(size=(n, d))
    return x, target, levels, sig_t, sig_v, coins


class TestEmitReports:
    def test_matches_sequential_client(self):
        # feed the reference state machine the same coins the kernel reads,
        # in the order it consumes them; outputs must agree exactly
        d, k, eps = 16, 3, 1.3
        x, target, levels, sig_t, sig_v, coins = _random_population(7, 120, d, k)
        h, t, u = emit_reports(sig_t, sig_v, levels, coins, rr_probability(eps), d)
        pos = 0
        for i in range(len(levels)):
            state = ClientState(d, k, int(target[i]), int(levels[i]))
            period = state.report_period
            stream = ScriptedStream(
                uniforms=[coins[i, tt - 1] for tt in range(period, d + 1, period)])
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
        with pytest.raises(InvalidParameterError):
            emit_reports(np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
                         np.ones(3, dtype=np.int64), np.zeros((3, 5)), 0.7, 4)


class TestDivergenceScan:
    def test_matches_direct_hockey_stick(self):
        from ldpshuffle.core import hockey_stick_delta

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
