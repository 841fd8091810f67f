"""The results document as numpy summarized it and the pure-Python JSON
encoder printed it, and Floyd's subset draw over an (n, k) layout: the
references for `harness.summarize`, `harness.results_to_json` and
`harness._floyd_subsets`."""

import dataclasses
import json
import operator

import numpy as np


def summarize(results):
    errs = np.array([r.max_abs_error for r in results])
    # two middle errors near the float limit sum to inf, as they do in
    # float arithmetic; numpy only warns about it
    with np.errstate(over="ignore", invalid="ignore"):
        median, q10, q90 = np.median(errs), np.quantile(errs, 0.10), np.quantile(errs, 0.90)
    return {
        "trials": len(results),
        "median_max_abs_error": float(median),
        "q10_max_abs_error": float(q10),
        "q90_max_abs_error": float(q90),
        "bound_satisfied_fraction": float(np.mean([r.bound_satisfied for r in results])),
        "theorem_bound": results[0].theorem_bound,
        "clipped_clients": int(results[0].clipped_clients),
    }


def results_to_json(config, results):
    """Canonical JSON text for a run; every float prints as its exact repr."""
    payload = {
        "config": dataclasses.asdict(config),
        "summary": summarize(results),
        "trials": [
            {
                "trial": r.trial,
                "max_abs_error": r.max_abs_error,
                "theorem_bound": r.theorem_bound,
                "bound_satisfied": r.bound_satisfied,
                "errors": [float(e) for e in r.errors],
            }
            for r in results
        ],
    }
    # default: a numpy integer in the config prints as a plain int
    return json.dumps(payload, sort_keys=True, indent=2, default=operator.index) + "\n"


def floyd_subsets(n, d, k, rng):
    """One uniform k-subset of [0, d) per row, by Floyd's algorithm: column
    i draws from [0, d - k + i] and takes d - k + i when its draw repeats
    an earlier column of its row."""
    cols = np.empty((n, k), dtype=np.int64)
    for i, j in enumerate(range(d - k, d)):
        pick = rng.integers(0, j + 1, size=n)
        taken = (cols[:, :i] == pick[:, None]).any(axis=1)
        cols[:, i] = np.where(taken, j, pick)
    return cols
