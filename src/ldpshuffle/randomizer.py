"""Local randomizers and the deterministic randomness streams they draw from."""

import math
from dataclasses import dataclass

import numpy as np

from .core import check_budget, rr_probability
from .errors import InvalidParameterError

_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    # One splitmix64 round; folds derivation labels into a 64-bit stream id.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RandomnessStream:
    """Counter-based random stream keyed by (seed, stream id).

    Backed by Philox, whose 128-bit key is exactly the (seed, stream) pair,
    so equal keys replay bit-identical draws and distinct keys give
    statistically independent streams. A stream is stateful: do not share
    one instance across threads. Use `derive` to key streams by a tuple of
    labels such as (trial, client) or (client, timestep).
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @classmethod
    def derive(cls, seed, *labels):
        """Stream whose id mixes the given labels; distinct tuples, distinct streams."""
        sid = 0
        for label in labels:
            sid = _splitmix64(sid ^ (int(label) & _MASK64))
        return cls(seed, sid)

    def __repr__(self):
        return f"RandomnessStream(seed={self.seed}, stream={self.stream})"

    @property
    def generator(self):
        """The underlying numpy Generator, for vectorized bulk draws."""
        return self._gen

    def uniform(self, size=None):
        """Uniform float64 draws on [0, 1); scalar when size is None."""
        return self._gen.random(size)

    def integers(self, low, high, size=None):
        """Uniform integers on [low, high); scalar when size is None."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n):
        """Uniformly random permutation of range(n) as an index array."""
        return self._gen.permutation(n)


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


def one_bit_rr_randomizer(epsilon0):
    """The canonical one-bit randomized-response randomizer."""
    return OneBitRandomizer(epsilon0)


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
