"""Host gauge: how fast the shared host runs right now.

The gauge is a fixed kernel that calls nothing in ldpshuffle, so no change
to the program moves it. One half draws, sums, permutes and compares numpy
arrays of a few MB, as the collection layers do; the other half builds,
encodes and decodes Python objects, as the JSONL client and the CLI do.
Each half takes about the same time, so the gauge slows down with the host
whether the host's memory or its processor is the busy part.
"""

import json
import time

import numpy as np

SIZE = 2_000_000
ROWS = 4_000


def run_once():
    """Seconds of one run of the gauge kernel."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    values = rng.random(SIZE)
    np.cumsum(values)
    values[rng.permutation(SIZE // 2)]
    np.count_nonzero(values < 0.5)
    counts = {}
    for round_ in range(4):
        rows = [{"user": i, "round": round_, "value": i * 0.5} for i in range(ROWS)]
        for row in json.loads(json.dumps(rows)):
            counts[row["user"] % 64] = counts.get(row["user"] % 64, 0) + row["value"]
    return time.perf_counter() - start
