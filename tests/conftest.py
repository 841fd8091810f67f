import math

import numpy as np

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

