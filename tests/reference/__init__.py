"""Test references: slow, scalar or exhaustive implementations that the
tests check the package against. Nothing under `src/` imports them.

`client` is the scalar per-client protocol, its transcript oracles and
the whole-file per-row report parser, `randomizer` the scalar
randomizers, `shuffle` the sequential, shuffled and swap runners with
their enumeration oracles, `core` the checked hockey-stick divergence and
the advanced composition theorem, `amplification` the asymptotic one-bit
reference curve, `aggregator` the per-report tree updates and the
pairwise-merge cover, `divergence` the count pmf and the O(n^3) scan, and
`harness` numpy's summary, the pure-Python results encoder and Floyd's
draw over an (n, k) layout.
"""
