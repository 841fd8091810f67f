"""Client-side input handling and the report file format.

Each client tracks a sequence of state changes x_t in {-1, 0, +1} over d
timesteps (d a power of two) and reports on at most k of them;
`clip_changes` enforces that budget. The anonymized report stream is
stored as JSON lines, one (h, t, u) object per report and no client
identifier, written and read here; the reader checks each line's syntax
and then, given the horizon, the tree's rule (`aggregator.stray_report`).

The scalar per-client protocol (`client_update`) and its exact transcript
oracles are test references in `tests/reference/client.py`; the bulk
emitter `kernels.emit_reports` is what a mode-none simulation runs.
"""

import io
import json
import re

import numpy as np

from .aggregator import stray_report
from .core import check_count, level_count
from .errors import InvalidParameterError, ParseError


def clip_changes(x, k):
    """Zero out every nonzero change after the k-th; first k survive intact."""
    k = check_count(k, "change budget k")
    x = np.asarray(x).copy()
    nz = np.flatnonzero(x)
    if len(nz) > k:
        x[nz[k:]] = 0
    return x


# ---------------------------------------------------------------------------
# Report serialization: JSON lines, one object per report.
# ---------------------------------------------------------------------------

INT64_MAX = 2 ** 63 - 1

# The canonical report line: what `write_report_arrays` emits, the bytes of
# `json.dumps({"h": H, "t": T, "u": U}, sort_keys=True)` plus a newline.
REPORT_LINE = '{"h": %d, "t": %d, "u": %d}\n'
# A run of canonical lines whose values fit an int64 and need no check but
# the tree's: h and t have 1 to 18 digits and no leading zero.
_CANONICAL_LINES = re.compile(
    rb'(?:\{"h": [1-9][0-9]{0,17}, "t": [1-9][0-9]{0,17}, "u": -?1\}\n)*')
_MAX_LINE = len(REPORT_LINE % (10 ** 18 - 1, 10 ** 18 - 1, -1))

# Rows formatted per write, and bytes read per chunk; neither changes a
# result, and both keep the buffers of one file small.
WRITE_ROWS = 1 << 14
READ_BYTES = 1 << 16


def write_report_arrays(path, h, t, u, mode="w"):
    """Write reports held as parallel arrays as JSON lines, one
    `REPORT_LINE` per report and no client identifier, WRITE_ROWS rows at a
    time, replacing the file (mode "w") or appending to it (mode "a")."""
    with open_output(path, mode) as fh:
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

    Every row must be an object whose h and t are positive int64 integers
    and whose u is -1 or +1; floats, booleans and strings are refused. Given
    the horizon d, every row must also address a node of its tree
    (`aggregator.stray_report`), checked once the file is read. Raises
    ParseError naming the first bad row's 1-based line, a row of bad syntax
    before any row that addresses no node.

    A file of canonical lines (`REPORT_LINE`, as the writer emits them) is
    checked READ_BYTES at a time against one pattern and converted with
    array operations. Any other spelling of the rows sends the whole file
    again through `parse_report_rows`, which returns the same arrays or
    names the bad line. A pipe is read into memory first, so that it can be
    read twice.
    """
    if d is not None:
        level_count(d)
    with open_input(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        columns = _read_canonical(fh)
        if columns is None:
            fh.seek(0)
            text = io.TextIOWrapper(fh, encoding="utf-8", errors="replace")
            return parse_report_rows(json_lines(text), d)
    _check_tree(columns, d, range(1, len(columns[0]) + 1))  # one report per line
    return columns


def _read_canonical(fh):
    """(h, t, u) of a stream of canonical lines, or None once a chunk is
    not all canonical lines."""
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
    return tuple(np.concatenate(blocks).T.copy())


def _check_tree(columns, d, lines):
    """Raise ParseError naming lines[i] if report i of columns is the first
    that addresses no node of the tree over horizon d (None: no tree)."""
    bad = None if d is None else stray_report(*columns, d)
    if bad is not None:
        raise ParseError("report (h=%d, t=%d, u=%d) addresses no node of the tree over "
                         "horizon %d" % (*(c[bad] for c in columns), d), lines[bad])


def parse_report_rows(rows, d=None):
    """(h, t, u) arrays from the (line number, decoded row) pairs of
    `json_lines`, one row at a time: the path for every spelling of the
    rows JSON allows, and the reference for the chunked one; given d, the
    arrays are then checked against the tree as in `read_reports`."""
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
    _check_tree(columns, d, lines)
    return columns
