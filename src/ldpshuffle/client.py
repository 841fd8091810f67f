"""Per-client online reporting of bounded state changes over a dyadic horizon.

Each client tracks a sequence of state changes x_t in {-1, 0, +1} over d
timesteps (d a power of two, at most k nonzero changes). At setup it samples
which single change it will report on and which tree level it will report
at; it then emits one +/-1 report at every timestep divisible by the level's
period. Exactly one report per run can carry data-dependent randomness; all
others are fair coins, kept unconditionally as cover traffic.
"""

import io
import itertools
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .core import check_budget, check_count, level_count, rr_probability
from .errors import InvalidParameterError, ParseError, ProtocolError
from .randomizer import binary_rr, uniform_sign


def next_power_of_two(n):
    """Smallest power of two >= n."""
    return 1 << (check_count(n, "n") - 1).bit_length()


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


def clip_changes(x, k):
    """Zero out every nonzero change after the k-th; first k survive intact."""
    k = check_count(k, "change budget k")
    x = np.asarray(x).copy()
    nz = np.flatnonzero(x)
    if len(nz) > k:
        x[nz[k:]] = 0
    return x


def pad_to_power_of_two(x):
    """Append zero-change steps until the horizon is a power of two."""
    x = np.asarray(x)
    d = next_power_of_two(max(len(x), 1))
    if d == len(x):
        return x.copy()
    out = np.zeros(d, dtype=x.dtype)
    out[: len(x)] = x
    return out


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


# ---------------------------------------------------------------------------
# Report serialization: JSON lines, one object per report.
# ---------------------------------------------------------------------------

INT64_MAX = 2 ** 63 - 1

# The canonical report line: what `write_report_arrays` emits, the bytes of
# `json.dumps({"h": H, "t": T, "u": U}, sort_keys=True)` plus a newline.
REPORT_LINE = '{"h": %d, "t": %d, "u": %d}\n'
# A run of canonical lines whose values fit an int64 and need no range check
# but the tree's: h and t have 1 to 18 digits and no leading zero.
_CANONICAL_LINES = re.compile(
    rb'(?:\{"h": [1-9][0-9]{0,17}, "t": [1-9][0-9]{0,17}, "u": -?1\}\n)*')
_MAX_LINE = len(REPORT_LINE % (10 ** 18 - 1, 10 ** 18 - 1, -1))

# Rows formatted per write, and bytes read per chunk; neither changes a
# result, and both keep the buffers of one file small.
WRITE_ROWS = 1 << 14
READ_BYTES = 1 << 16


def write_report_arrays(path, h, t, u):
    """Write reports held as parallel arrays as JSON lines, one
    `REPORT_LINE` per report, formatted WRITE_ROWS rows at a time; the
    anonymized stream carries no client identifier."""
    with open_output(path) as fh:
        for lo in range(0, len(h), WRITE_ROWS):
            hi = lo + WRITE_ROWS
            rows = np.column_stack((h[lo:hi], t[lo:hi], u[lo:hi]))
            fh.write(REPORT_LINE * len(rows) % tuple(rows.ravel().tolist()))


def open_input(path, mode="r"):
    """Open an input file as text ("r"), where undecodable bytes read as
    U+FFFD, or as bytes ("rb"); one that cannot be opened raises
    InvalidParameterError."""
    text = {} if "b" in mode else {"encoding": "utf-8", "errors": "replace"}
    try:
        return open(path, mode, **text)
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc.strerror}") from exc


def open_output(path, mode="w"):
    """Open a text output file for writing ("w") or appending ("a"); one
    that cannot be created raises InvalidParameterError naming the path."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc.strerror}") from exc


def read_json_lines(path):
    """Yield (1-based line number, decoded value) for each non-blank line
    of the text file at path; a line that is not JSON raises ParseError
    with its line number."""
    with open_input(path) as fh:
        yield from json_lines(fh)


def json_lines(fh):
    """`read_json_lines` over an open text file."""
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", lineno) from exc
        yield lineno, value


def read_reports(path, d=None):
    """Read a JSON-lines report stream into (h, t, u) int64 arrays.

    Every row must be an object whose h and t are positive integers and
    whose u is -1 or +1; floats, booleans and strings are refused. Given the
    horizon d, a row must also address a node of its tree: h <= log2(d) + 1
    and t <= d. Raises ParseError with the 1-based line number on the first
    bad row.

    A file of canonical lines (`REPORT_LINE`, as the writer emits them) is
    checked READ_BYTES at a time against one pattern and converted with
    array operations. Any other spelling of the rows, or a row outside the
    tree, sends the whole file again through `parse_report_rows`, which
    returns the same arrays or names the bad line. A pipe is read into
    memory first, so that it can be read twice.
    """
    levels = None if d is None else level_count(d)
    with open_input(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        columns = _read_canonical(fh, levels, d)
        if columns is None:
            fh.seek(0)
            text = io.TextIOWrapper(fh, encoding="utf-8", errors="replace")
            columns = parse_report_rows(json_lines(text), d)
    return columns


def _read_canonical(fh, levels, d):
    """(h, t, u) of a stream of canonical lines inside the tree, or None
    once a chunk is not all canonical lines or a row is outside the tree."""
    blocks = []
    tail = b""
    while True:
        data = fh.read(READ_BYTES)
        chunk = tail + data
        cut = chunk.rfind(b"\n") + 1 if data else len(chunk)
        chunk, tail = chunk[:cut], chunk[cut:]
        # an unfinished line longer than any canonical one ends the fast
        # path at once, so a file without newlines is not gathered here
        if len(tail) > _MAX_LINE or not _CANONICAL_LINES.fullmatch(chunk):
            return None
        # the chunk is validated: only digits, signs and blanks are left
        digits = chunk.translate(None, b'{}"htu:,')
        blocks.append(np.fromstring(digits, dtype=np.int64, sep=" ").reshape(-1, 3))
        if not data:
            break
    h, t, u = np.concatenate(blocks).T.copy()
    if levels is not None and len(h) and (h.max() > levels or t.max() > d):
        return None
    return h, t, u


def parse_report_rows(rows, d=None):
    """(h, t, u) arrays from the (line number, decoded row) pairs of
    `json_lines`, one row at a time: the path for every spelling of the
    rows JSON allows, and the reference for the chunked one."""
    levels = None if d is None else level_count(d)
    hs, ts, us = [], [], []
    for lineno, row in rows:
        try:
            h, t, u = row["h"], row["t"], row["u"]
        except (KeyError, TypeError) as exc:
            raise ParseError("expected an object with fields h, t, u", lineno) from exc
        if type(h) is not int or type(t) is not int or type(u) is not int:
            raise ParseError("expected integer fields h, t, u", lineno)
        if not (0 < h <= INT64_MAX and 0 < t <= INT64_MAX):
            raise ParseError(f"h and t must be positive integers, got h={h}, t={t}", lineno)
        if levels is not None and (h > levels or t > d):
            raise ParseError(f"report (h={h}, t={t}) outside the tree over horizon {d}",
                             lineno)
        if u != 1 and u != -1:
            raise ParseError(f"report value must be -1 or +1, got {u}", lineno)
        hs.append(h)
        ts.append(t)
        us.append(u)
    return (np.array(hs, dtype=np.int64),
            np.array(ts, dtype=np.int64),
            np.array(us, dtype=np.int64))
