"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime against the stated budget. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they land."""

import math
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from ldpshuffle.aggregator import dyadic_cover
from ldpshuffle.amplification import amplify_group, amplify_shuffle
from ldpshuffle.divergence import certify_amplification
from ldpshuffle.harness import SimulationConfig, run_trial, simulate, write_results
from ldpshuffle.randomizer import RandomnessStream

from reference.aggregator import cover_leaf_range, dyadic_cover_merge
from reference.client import max_transcript_ratio
from reference.randomizer import OneBitRandomizer
from reference.shuffle import (distribution_to_cells, exact_response_shuffle_distribution,
                               exact_shuffled_distribution, pack_outputs, sample_onebit_batch)


def _report(number, name, passed, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:2d} ({name}): {status} "
          f"[{elapsed:.1f}s of {budget:.0f}s budget]")
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} ({name}) blew its runtime budget"


def test_01_exact_local_privacy_of_client_transcripts():
    start = time.perf_counter()
    ok = True
    for d, k in [(2, 1), (4, 1), (4, 2)]:
        for eps in (0.5, 1.0, 2.0):
            ratio = max_transcript_ratio(d, k, eps)
            ok = ok and ratio <= math.exp(eps) + 1e-9
    _report(1, "exact transcript-level local privacy", ok,
            time.perf_counter() - start, 10.0)


def test_02_estimator_unbiasedness_with_scaling_power():
    # 3-standard-error band around truth for every timestep; tight enough
    # to reject a level-count weighting that is off by ~33 percent at d=8
    start = time.perf_counter()
    cfg = SimulationConfig(n=100_000, d=8, k=1, epsilon=1.0, trials=50, seed=20,
                           input_model="step-function", step_time=2)
    cfg.validate()
    estimates = np.array([run_trial(cfg, t)[0] for t in range(cfg.trials)])
    truth = run_trial(cfg, 0)[1]
    assert np.array_equal(truth, np.r_[0, np.full(7, cfg.n)])
    mean = estimates.mean(axis=0)
    stderr = estimates.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
    ok = bool(np.all(np.abs(mean - truth) <= 3.0 * stderr))
    _report(2, "estimator unbiasedness", ok, time.perf_counter() - start, 60.0)


def test_03_utility_bound_holds_on_most_trials():
    start = time.perf_counter()
    cfg = SimulationConfig(n=10_000, d=64, k=4, epsilon=1.0, beta=1.0 / 3.0,
                           trials=30, seed=21, input_model="random-changes")
    results = simulate(cfg)
    satisfied = sum(r.bound_satisfied for r in results)
    _report(3, "high-probability utility bound", satisfied >= 20,
            time.perf_counter() - start, 120.0)


def test_04_error_scales_with_sqrt_of_population():
    start = time.perf_counter()
    medians = {}
    for n, seed in ((10_000, 22), (40_000, 23)):
        cfg = SimulationConfig(n=n, d=64, k=4, epsilon=1.0, trials=50, seed=seed,
                               input_model="random-changes")
        medians[n] = float(np.median([r.max_abs_error for r in simulate(cfg)]))
    ratio = medians[40_000] / medians[10_000]
    print(f"  sqrt-n scaling ratio: {ratio:.3f}")
    _report(4, "sqrt(n) error scaling", 1.6 <= ratio <= 2.5,
            time.perf_counter() - start, 300.0)


def test_05_amplification_sound_against_exact_oracle():
    start = time.perf_counter()
    ok = True
    for n in (100, 1000, 5000):
        for eps0 in (0.1, 0.25, 0.5):
            record = certify_amplification(n, eps0, 1e-4)
            print(f"  n={n:5d} eps0={eps0:4.2f}: claimed eps "
                  f"{record.claimed_epsilon:.5f} ({record.regime}), exact delta "
                  f"{record.exact_delta:.3e} (bar {record.delta_bar:.1e}), "
                  f"target {record.delta_target:.0e}")
            ok = ok and record.passed
            ok = ok and record.exact_delta + record.delta_bar < record.delta_target
    _report(5, "amplification soundness vs oracle", ok,
            time.perf_counter() - start, 600.0)


def test_06_calculator_regime_consistency():
    start = time.perf_counter()
    ok = True
    eps0_grid = np.linspace(0.04, 0.49, 10)
    n_grid = np.unique(np.logspace(3, 7, 10).astype(np.int64))
    delta_grid = np.logspace(-12, -3, 4)
    for eps0 in eps0_grid:
        for n in n_grid:
            for delta in delta_grid:
                res = amplify_shuffle(float(eps0), int(n), float(delta))
                simplified = 12.0 * eps0 * math.sqrt(math.log(1.0 / delta) / n)
                ok = ok and res.bounds["general"] <= simplified + 1e-12
                ok = ok and res.epsilon_central <= eps0
    _report(6, "calculator regime consistency", ok,
            time.perf_counter() - start, 1.0)


def test_07_headline_group_bound_value():
    start = time.perf_counter()
    expected = 12.0 * 0.25 * math.sqrt(math.log(1000.0) / 1000.0)  # direct evaluation
    value = amplify_group(0.25, 1000, 1e-3).epsilon_central
    _report(7, "headline group-bound value", abs(value - expected) <= 1e-5,
            time.perf_counter() - start, 10.0)


def test_08_shuffling_before_and_after_randomization_agree():
    start = time.perf_counter()
    data, eps0, n = [1, 0, 0], 1.0, 3
    team = [OneBitRandomizer(eps0)] * n
    pre = exact_shuffled_distribution(data, team)
    post = exact_response_shuffle_distribution(data, team, range(n))
    exact_ok = all(abs(pre[key] - post[key]) <= 1e-12 for key in pre)

    runs = 10 ** 6
    outs = sample_onebit_batch(data, eps0, runs, RandomnessStream(30, 0), mode="post")
    counts = np.bincount(pack_outputs(outs), minlength=1 << n)
    expected = distribution_to_cells(pre, n) * runs
    pvalue = chisquare(counts, expected, sum_check=False).pvalue
    print(f"  exact match to 1e-12: {exact_ok}; chi-squared p = {pvalue:.4f}")
    _report(8, "pre/post shuffle equivalence", exact_ok and pvalue > 0.01,
            time.perf_counter() - start, 60.0)


def test_09_dyadic_cover_closed_form_equals_merge_loop():
    start = time.perf_counter()
    ok = True
    for exp in range(11):
        d = 1 << exp
        for t in range(1, d + 1):
            closed = dyadic_cover(t, d)
            ok = ok and set(closed) == dyadic_cover_merge(t, d)
            ok = ok and len(closed) == bin(t).count("1") <= max(exp, 1)
            leaves = []
            for h, j in closed:
                lo, hi = cover_leaf_range(h, j)
                leaves.extend(range(lo, hi + 1))
            ok = ok and sorted(leaves) == list(range(1, t + 1))
    _report(9, "dyadic cover oracle equivalence", ok,
            time.perf_counter() - start, 5.0)


def test_10_simulation_is_bit_reproducible(tmp_path):
    start = time.perf_counter()
    blobs = []
    for run in range(2):
        cfg = SimulationConfig(n=2000, d=32, k=2, epsilon=0.8, trials=3, seed=77,
                               input_model="random-changes",
                               shuffle_mode="post-shuffle")
        results = simulate(cfg)
        json_path = tmp_path / f"run{run}.json"
        csv_path = tmp_path / f"run{run}.csv"
        write_results(cfg, results, json_path)
        write_results(cfg, results, csv_path)
        blobs.append((json_path.read_bytes(), csv_path.read_bytes()))
    ok = blobs[0] == blobs[1]
    _report(10, "byte-identical reproducibility", ok,
            time.perf_counter() - start, 30.0)
