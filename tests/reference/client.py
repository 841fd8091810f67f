"""The scalar per-client protocol, one timestep at a time, exact
transcript oracles for small horizons, and the whole-file per-row report
parser.

`client_update` is the reference for `ldpshuffle.kernels.emit_reports`:
fed the same coins, both emit the same reports. `parse_report_rows` is the
reference for the chunked `ldpshuffle.client.read_reports`.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ldpshuffle.client import INT64_MAX, _check_tree
from ldpshuffle.core import check_budget, check_count, level_count, rr_probability
from ldpshuffle.errors import InvalidParameterError, ParseError

from reference.randomizer import binary_rr, uniform_sign


class ProtocolError(RuntimeError):
    """A sequencing contract was broken (out-of-order update, changed budget mid-run)."""


@dataclass(frozen=True)
class Report:
    """One emitted triple: tree level, timestep, and the +/-1 response."""

    level: int
    t: int
    u: int

    def __post_init__(self):
        check_count(self.level, "level")
        check_count(self.t, "timestep")
        if self.t % (1 << (self.level - 1)) != 0:
            raise InvalidParameterError(
                f"timestep {self.t} is not divisible by the level-{self.level} period"
            )
        if self.u not in (-1, 1):
            raise InvalidParameterError(f"report value must be -1 or +1, got {self.u}")

    @property
    def node(self):
        """(level, index) of the tree node this report lands in."""
        return (int(self.level), int(self.t) >> (int(self.level) - 1))


@dataclass
class ClientState:
    """Mutable per-client run state: the four counters plus bookkeeping.

    `report_change` is the sampled index (in [1, k]) of the one change this
    client reports on, `report_level` the sampled tree level. `pending`
    holds the sampled change's value between observation and the next report
    and is zero forever after it is consumed.
    """

    horizon: int
    change_budget: int
    report_change: int
    report_level: int
    changes_seen: int = 0
    pending: int = 0
    last_t: int = 0
    epsilon: float = None

    @property
    def report_period(self):
        return 1 << (self.report_level - 1)

    @property
    def reports_per_run(self):
        return self.horizon // self.report_period


def client_setup(d, k, rng):
    """Initialize a client run: sample the reported change index and level.

    The change index is uniform on [1, k], the level uniform on
    [1, log2(d) + 1]; both are sampled before any data is seen.
    """
    levels = level_count(d)
    k = check_count(k, "change budget k")
    report_change = int(rng.integers(1, k + 1))
    report_level = int(rng.integers(1, levels + 1))
    return ClientState(int(d), k, report_change, report_level)


def client_update(state, t, x_t, epsilon, rng):
    """Feed one timestep to a client; returns the emitted Report or None.

    Timesteps must arrive strictly sequentially and the budget must be
    constant over the run. A report is emitted iff t is divisible by the
    sampled level's period; it carries randomized response of the pending
    change if one is waiting, otherwise a fair cover coin.
    """
    if x_t not in (-1, 0, 1):
        raise InvalidParameterError(f"change value must be in {{-1, 0, 1}}, got {x_t}")
    check_budget(epsilon)
    if t != state.last_t + 1:
        raise ProtocolError(f"expected timestep {state.last_t + 1}, got {t}")
    if t > state.horizon:
        raise ProtocolError(f"timestep {t} beyond horizon {state.horizon}")
    if state.epsilon is None:
        state.epsilon = float(epsilon)
    elif state.epsilon != epsilon:
        raise ProtocolError(
            f"budget changed mid-run: {state.epsilon} then {epsilon}"
        )
    state.last_t = t

    if x_t != 0:
        state.changes_seen += 1
        if state.changes_seen == state.report_change:
            state.pending = int(x_t)

    if t % state.report_period != 0:
        return None
    if state.pending == 0:
        u = uniform_sign(rng)
    else:
        u = binary_rr(state.pending, epsilon, rng)
        state.pending = 0
    return Report(state.report_level, t, u)


def run_client(x, k, epsilon, rng, state=None):
    """Run a full client pass over a change vector; returns the report list."""
    x = np.asarray(x)
    d = len(x)
    if state is None:
        state = client_setup(d, k, rng)
    reports = []
    for t in range(1, d + 1):
        r = client_update(state, t, int(x[t - 1]), epsilon, rng)
        if r is not None:
            reports.append(r)
    return reports


def changes_to_states(x):
    """Boolean state trajectory implied by a change vector (prefix sums)."""
    return np.cumsum(np.asarray(x, dtype=np.int64))


# ---------------------------------------------------------------------------
# Exact certification tooling: closed-form transcript distributions.
# ---------------------------------------------------------------------------

def enumerate_change_sequences(d, k):
    """All change vectors of length d with <= k changes and state in {0, 1}."""
    level_count(d)
    k = check_count(k, "change budget k")
    out = []

    def extend(prefix, state, used):
        if len(prefix) == d:
            out.append(tuple(prefix))
            return
        extend(prefix + [0], state, used)
        if used < k:
            step = 1 if state == 0 else -1
            extend(prefix + [step], state + step, used + 1)

    extend([], 0, 0)
    return out


def exact_transcript_distribution(x, k, epsilon):
    """Closed-form distribution over full report transcripts for one client.

    Marginalizes the sampled change index, the sampled level, and every coin
    analytically. A transcript is keyed as (level, (u_1, ..., u_m)) with the
    u's in report-time order; report timing is level-determined, so this key
    captures everything observable. Intended for small horizons (the table
    has sum_h 2^(d / 2^(h-1)) entries).
    """
    x = tuple(int(v) for v in x)
    d = len(x)
    levels = level_count(d)
    if any(v not in (-1, 0, 1) for v in x):
        raise InvalidParameterError("change values must be in {-1, 0, 1}")
    k = check_count(k, "change budget k")
    p = rr_probability(epsilon)
    change_times = [t for t in range(1, d + 1) if x[t - 1] != 0]

    dist = {}
    for h in range(1, levels + 1):
        period = 1 << (h - 1)
        m = d // period
        for u in itertools.product((-1, 1), repeat=m):
            prob = 0.0
            for kappa in range(1, k + 1):
                if kappa <= len(change_times):
                    t_sig = change_times[kappa - 1]
                    c = x[t_sig - 1]
                    slot = (t_sig + period - 1) // period - 1
                    coin = p if u[slot] == c else 1.0 - p
                    prob += coin * 0.5 ** (m - 1)
                else:
                    prob += 0.5 ** m
            dist[(h, u)] = prob / (k * levels)
    return dist


def max_transcript_ratio(d, k, epsilon):
    """Worst transcript likelihood ratio over all pairs of valid inputs.

    Exhaustive: enumerates every valid change sequence, every pair, every
    transcript. The local-DP claim holds iff the result is <= e^epsilon.
    """
    sequences = enumerate_change_sequences(d, k)
    dists = [exact_transcript_distribution(x, k, epsilon) for x in sequences]
    keys = dists[0].keys()
    worst = 0.0
    for da in dists:
        for db in dists:
            for key in keys:
                pa, pb = da[key], db[key]
                if pa > 0.0 and pb == 0.0:
                    return math.inf
                if pa > 0.0:
                    worst = max(worst, pa / pb)
    return worst


def parse_report_rows(rows, d):
    """(h, t, u) int64 arrays from the (line number, decoded row) pairs of
    `json_lines` over a whole file, one row at a time, then checked against
    the tree over horizon d: a bad row raises ParseError at its line, and a
    report that addresses no node only once every row has been read."""
    hs, ts, us, lines = [], [], [], []
    for lineno, row in rows:
        try:
            h, t, u = row["h"], row["t"], row["u"]
        except (KeyError, TypeError) as exc:
            raise ParseError("expected an object with fields h, t, u", lineno) from exc
        if type(h) is not int or type(t) is not int or type(u) is not int:
            raise ParseError("expected integer fields h, t, u", lineno)
        if not (0 < h <= INT64_MAX and 0 < t <= INT64_MAX):
            raise ParseError(f"h and t must be positive integers, got h={h}, t={t}", lineno)
        if u != 1 and u != -1:
            raise ParseError(f"report value must be -1 or +1, got {u}", lineno)
        hs.append(h)
        ts.append(t)
        us.append(u)
        lines.append(lineno)
    columns = tuple(np.array(c, dtype=np.int64) for c in (hs, ts, us))
    _check_tree(columns, d, lines.__getitem__)
    return columns
