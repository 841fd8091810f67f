"""The deterministic randomness stream every simulation draw comes from.

The scalar randomizers (`binary_rr`, `OneBitRandomizer`) are test
references in `tests/reference/randomizer.py`.
"""

import numpy as np

from .core import check_count


class RandomnessStream:
    """Counter-based random stream keyed by (seed, stream id).

    Backed by Philox, whose 128-bit key is exactly the (seed, stream) pair,
    so equal keys replay bit-identical draws and distinct keys give
    statistically independent streams. A stream is stateful: do not share
    one instance across threads.
    """

    def __init__(self, seed, stream=0):
        self.seed = check_count(seed, "seed", low=0, high=2 ** 64 - 1)
        self.stream = check_count(stream, "stream id", low=0, high=2 ** 64 - 1)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

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
