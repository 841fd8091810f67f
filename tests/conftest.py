import math

import numpy as np

from ldpshuffle.core import hockey_stick_sum
from ldpshuffle.divergence import _count_pmf, _pmf_terms
from ldpshuffle.randomizer import LocalRandomizer


class ParityRandomizer(LocalRandomizer):
    """Adaptive toy randomizer: flips its truthful side with the parity of
    prior 1s; still meets its budget for every prior fixing."""

    output_symbols = (0, 1)
    input_symbols = (0, 1)

    def __init__(self, epsilon0):
        self.epsilon0 = epsilon0

    def _truth_prob(self, prior):
        p = 1.0 / (1.0 + math.exp(-self.epsilon0))
        return p if sum(prior) % 2 == 0 else 1.0 - p

    def respond(self, prior, x, rng):
        return x if rng.uniform() < self._truth_prob(prior) else 1 - x

    def response_distribution(self, prior, x):
        p = self._truth_prob(prior)
        return np.array([p, 1.0 - p]) if x == 0 else np.array([1.0 - p, p])


class ScriptedStream:
    """Stream stub replaying prescribed draws; makes randomized paths exact.

    `uniforms` feeds .uniform() scalar calls in order; `ints` feeds
    .integers() calls. Raises when a test consumes more than it scripted.
    """

    def __init__(self, uniforms=(), ints=()):
        self._uniforms = list(uniforms)
        self._ints = list(ints)

    def uniform(self, size=None):
        if size is not None:
            raise AssertionError("scripted stream only supports scalar draws")
        if not self._uniforms:
            raise AssertionError("scripted stream ran out of uniforms")
        return self._uniforms.pop(0)

    def integers(self, low, high, size=None):
        if size is not None:
            raise AssertionError("scripted stream only supports scalar draws")
        if not self._ints:
            raise AssertionError("scripted stream ran out of integers")
        value = self._ints.pop(0)
        assert low <= value < high, f"scripted integer {value} outside [{low}, {high})"
        return value

    @property
    def exhausted(self):
        return not self._uniforms and not self._ints



def reference_divergence_scan(n, epsilon0, epsilon):
    """O(n^3) reference for `divergence.divergence_scan`: a fresh count pmf
    for every m and the full two-sided hockey-stick sum of each pair."""
    terms = _pmf_terms(n, epsilon0)
    e_eps = math.exp(epsilon)
    deltas = np.empty(n)
    prev = _count_pmf(n, 0, *terms)
    for m in range(n):
        cur = _count_pmf(n, m + 1, *terms)
        deltas[m] = hockey_stick_sum(prev, cur, e_eps)
        prev = cur
    return deltas
