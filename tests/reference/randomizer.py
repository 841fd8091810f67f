"""Scalar randomizers: binary randomized response, the local-randomizer
interface of the sequential runners, and an exact likelihood-ratio check."""

import math
from dataclasses import dataclass

import numpy as np

from ldpshuffle.core import check_budget, rr_probability
from ldpshuffle.errors import InvalidParameterError


def uniform_sign(rng):
    """A +/-1 coin that is fair and independent of all data."""
    return 1 if rng.uniform() < 0.5 else -1


def binary_rr(c, epsilon, rng):
    """Randomized response on a +/-1 value: keep c with probability
    e^(eps/2)/(1+e^(eps/2)), flip it otherwise. Zero budget degenerates to
    a fair coin.

    c = 0 is rejected: emitting cover noise for an absent value is the
    caller's branch, not a randomizer input.
    """
    if c not in (-1, 1):
        raise InvalidParameterError(f"binary_rr input must be -1 or +1, got {c}")
    b = 1 if rng.uniform() < rr_probability(epsilon) else -1
    return b * c


class LocalRandomizer:
    """One step of a sequential local protocol.

    A randomizer maps (prior outputs, data element, fresh randomness) to one
    output symbol and declares a per-invocation budget `epsilon0` that must
    hold for every fixing of the prior outputs. Implementations with a small
    finite symbol space also expose `response_distribution`, which drives the
    exact enumeration oracles and the exhaustive privacy certification.
    """

    epsilon0 = None
    output_symbols = ()
    input_symbols = ()

    def respond(self, prior, x, rng):
        """Sample one output symbol given the prior outputs and the element x."""
        raise NotImplementedError

    def response_distribution(self, prior, x):
        """Exact output distribution over `output_symbols`; finite case only."""
        raise NotImplementedError


@dataclass(frozen=True)
class OneBitRandomizer(LocalRandomizer):
    """Randomized response on {0, 1}: truthful with probability e^e0/(1+e^e0).

    Ignores prior outputs; the likelihood ratio of every output equals
    e^epsilon0 exactly.
    """

    epsilon0: float

    output_symbols = (0, 1)
    input_symbols = (0, 1)

    def __post_init__(self):
        check_budget(self.epsilon0, "epsilon0")

    @property
    def truth_probability(self):
        return 1.0 / (1.0 + math.exp(-self.epsilon0))

    def respond(self, prior, x, rng):
        if x not in (0, 1):
            raise InvalidParameterError(f"input bit must be 0 or 1, got {x}")
        return x if rng.uniform() < self.truth_probability else 1 - x

    def response_distribution(self, prior, x):
        if x not in (0, 1):
            raise InvalidParameterError(f"input bit must be 0 or 1, got {x}")
        p = self.truth_probability
        return np.array([p, 1.0 - p]) if x == 0 else np.array([1.0 - p, p])


def max_likelihood_ratio(randomizer, priors=((),)):
    """Exact worst-case output likelihood ratio over all input pairs.

    Enumerates, for every supplied prior fixing, every output symbol and
    every ordered pair of inputs; no sampling. A randomizer meets its
    declared budget iff the result is <= e^epsilon0.
    """
    worst = 0.0
    inputs = randomizer.input_symbols
    if not inputs:
        raise InvalidParameterError("randomizer does not declare a finite input space")
    for prior in priors:
        dists = [np.asarray(randomizer.response_distribution(prior, x), dtype=float)
                 for x in inputs]
        for a in dists:
            for b in dists:
                for pa, pb in zip(a, b):
                    if pa > 0.0 and pb == 0.0:
                        return math.inf
                    if pa > 0.0:
                        worst = max(worst, pa / pb)
    return worst


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
