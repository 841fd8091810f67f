"""Sequential local-response execution and its shuffled variants.

Three runners produce a transcript z_1..z_n from a dataset and a matching
sequence of local randomizers: plain sequential execution, execution after
a uniform shuffle of the data, and execution after swapping element one
with a uniformly chosen element. A fourth operation shuffles already
produced responses within an index set. Exact enumeration oracles for all
of them live here too; they drive the equivalence and soundness tests.
"""

import itertools

import numpy as np

from ldpshuffle.core import check_count
from ldpshuffle.errors import InvalidParameterError

from reference.randomizer import OneBitRandomizer

_ENUMERATION_LIMIT = 8  # n! blowup; oracles are for small instances only


def _check_lengths(data, randomizers):
    n = len(data)
    if n < 1:
        raise InvalidParameterError("dataset must hold at least one element")
    if len(randomizers) != n:
        raise InvalidParameterError(
            f"need one randomizer per element: {len(randomizers)} for {n}"
        )
    return n


def run_local(data, randomizers, rng):
    """Sequential local responses: each output sees all prior outputs."""
    n = _check_lengths(data, randomizers)
    outputs = []
    for i in range(n):
        outputs.append(randomizers[i].respond(tuple(outputs), data[i], rng))
    return outputs


def run_shuffled(data, randomizers, rng):
    """Uniformly permute the data, then run the local responses.

    The sampled permutation is internal state and is not returned; its
    secrecy is what the amplification guarantee rests on.
    """
    n = _check_lengths(data, randomizers)
    pi = rng.permutation(n)
    return run_local([data[i] for i in pi], randomizers, rng)


def run_swap(data, randomizers, rng):
    """Swap element one with a uniformly chosen element, then run locally."""
    n = _check_lengths(data, randomizers)
    i = int(rng.integers(0, n))
    swapped = list(data)
    swapped[0], swapped[i] = swapped[i], swapped[0]
    return run_local(swapped, randomizers, rng)


def shuffle_responses(transcript, subset, rng, randomizers=None):
    """Uniformly permute the responses at the given (0-based) indices.

    Only valid when the randomizers at those indices are identical; pass
    them to have that checked (they must compare equal), or omit them to
    assert it yourself.
    """
    n = len(transcript)
    subset = sorted(set(int(i) for i in subset))
    if subset and not (0 <= subset[0] and subset[-1] < n):
        raise InvalidParameterError(f"subset indices must lie in [0, {n})")
    if randomizers is not None:
        chosen = [randomizers[i] for i in subset]
        if any(r != chosen[0] for r in chosen[1:]):
            raise InvalidParameterError(
                "responses can only be shuffled across identical randomizers"
            )
    out = list(transcript)
    perm = rng.permutation(len(subset))
    for dst, src in zip(subset, perm):
        out[dst] = transcript[subset[src]]
    return out


# ---------------------------------------------------------------------------
# Exact enumeration oracles. All require randomizers exposing
# response_distribution and a finite output_symbols tuple.
# ---------------------------------------------------------------------------

def _output_space(randomizers):
    spaces = [tuple(r.output_symbols) for r in randomizers]
    if any(len(s) == 0 for s in spaces):
        raise InvalidParameterError("enumeration needs finite output spaces")
    return spaces


def exact_local_distribution(data, randomizers):
    """Exact transcript distribution of run_local as {output tuple: prob}."""
    n = _check_lengths(data, randomizers)
    spaces = _output_space(randomizers)
    dist = {}
    for outputs in itertools.product(*spaces):
        prob = 1.0
        for i in range(n):
            d = randomizers[i].response_distribution(outputs[:i], data[i])
            prob *= float(d[spaces[i].index(outputs[i])])
            if prob == 0.0:
                break
        dist[outputs] = prob
    return dist


def exact_shuffled_distribution(data, randomizers):
    """Exact transcript distribution of run_shuffled (average over n! orders)."""
    n = _check_lengths(data, randomizers)
    if n > _ENUMERATION_LIMIT:
        raise InvalidParameterError(f"enumeration capped at n <= {_ENUMERATION_LIMIT}")
    dist = {}
    count = 0
    for order in itertools.permutations(range(n)):
        count += 1
        local = exact_local_distribution([data[i] for i in order], randomizers)
        for key, prob in local.items():
            dist[key] = dist.get(key, 0.0) + prob
    return {key: prob / count for key, prob in dist.items()}


def exact_swap_distribution(data, randomizers):
    """Exact transcript distribution of run_swap (average over n swaps)."""
    n = _check_lengths(data, randomizers)
    dist = {}
    for i in range(n):
        swapped = list(data)
        swapped[0], swapped[i] = swapped[i], swapped[0]
        local = exact_local_distribution(swapped, randomizers)
        for key, prob in local.items():
            dist[key] = dist.get(key, 0.0) + prob
    return {key: prob / n for key, prob in dist.items()}


def exact_response_shuffle_distribution(data, randomizers, subset):
    """Exact distribution of shuffle_responses applied to run_local output."""
    n = _check_lengths(data, randomizers)
    subset = sorted(set(int(i) for i in subset))
    if len(subset) > _ENUMERATION_LIMIT:
        raise InvalidParameterError(f"enumeration capped at |S| <= {_ENUMERATION_LIMIT}")
    local = exact_local_distribution(data, randomizers)
    dist = {}
    orders = list(itertools.permutations(range(len(subset))))
    for key, prob in local.items():
        share = prob / len(orders)
        for order in orders:
            out = list(key)
            for dst, src in zip(subset, order):
                out[dst] = key[subset[src]]
            out = tuple(out)
            dist[out] = dist.get(out, 0.0) + share
    return dist


# ---------------------------------------------------------------------------
# Vectorized batch simulation for the one-bit randomized-response case.
# The chi-squared agreement tests need 1e6 runs; per-call runners would
# dominate test time, so this samples whole batches with numpy. Its
# agreement with the per-call runners is itself under test.
# ---------------------------------------------------------------------------

def sample_onebit_batch(data, epsilon0, runs, rng, mode="shuffle"):
    """Sample many transcripts of a one-bit RR protocol as an int8 matrix.

    mode selects the pipeline: "local" (no permutation), "shuffle"
    (permute data first), "swap" (one uniform swap with position 0), or
    "post" (permute the responses afterwards). Rows are runs.
    """
    data = np.asarray(data, dtype=np.int8)
    n = len(data)
    if n < 1:
        raise InvalidParameterError("dataset must hold at least one element")
    if np.any((data != 0) & (data != 1)):
        raise InvalidParameterError("one-bit data must be 0/1")
    runs = check_count(runs, "runs")
    truth = OneBitRandomizer(epsilon0).truth_probability
    gen = rng.generator

    if mode == "local" or mode == "post":
        inputs = np.broadcast_to(data, (runs, n))
    elif mode == "shuffle":
        order = np.argsort(gen.random((runs, n)), axis=1)
        inputs = data[order]
    elif mode == "swap":
        swap_to = gen.integers(0, n, size=runs)
        order = np.tile(np.arange(n), (runs, 1))
        rows = np.arange(runs)
        order[rows, 0] = swap_to
        order[rows, swap_to] = 0
        inputs = data[order]
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")

    coins = gen.random((runs, n))
    outputs = np.where(coins < truth, inputs, 1 - inputs).astype(np.int8)
    if mode == "post":
        order = np.argsort(gen.random((runs, n)), axis=1)
        outputs = np.take_along_axis(outputs, order, axis=1)
    return outputs


def pack_outputs(outputs):
    """Collapse 0/1 transcript rows to integer cell labels for histogramming."""
    outputs = np.asarray(outputs)
    weights = 1 << np.arange(outputs.shape[1] - 1, -1, -1, dtype=np.int64)
    return outputs.astype(np.int64) @ weights


def distribution_to_cells(dist, n):
    """Exact {tuple: prob} map as a dense vector indexed like pack_outputs."""
    cells = np.zeros(1 << n, dtype=np.float64)
    for key, prob in dist.items():
        idx = 0
        for bit in key:
            idx = (idx << 1) | int(bit)
        cells[idx] += prob
    return cells
