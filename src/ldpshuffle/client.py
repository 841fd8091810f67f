"""The report file format and the opening of every input and output file.

The anonymized report stream is stored as JSON lines, one (h, t, u)
object per report and no client identifier, written and read here; the
reader checks each line's syntax and then the rule of the tree over the
horizon it is given (`aggregator.stray_report`). `json_lines` decodes any
JSON-lines file, such as the file input model's change vectors, which
`harness.read_change_vectors` clips to the change budget.

A report stream over horizon d holds at most 2(2d - 1) distinct lines, one
per (node, sign) cell of its `SumTree`, so both ends go through the tree's
table of lines, `line_table`. The writer takes each report as its cell and
joins the lines of the cells that occur, each formatted once. The reader
returns the stream's histogram, since once reports are anonymized the
server needs only their multiset: it counts each chunk's cells into one
vector over the tree as it reads it, so its memory is bounded by d and one
chunk. Under a cap of READ_LINES cells each line's cell is read off its
bytes by numpy arithmetic (a chunk that is not its cells' table lines is
converted whole); past the cap every chunk is converted whole.

The scalar per-client protocol (`client_update`) and its exact transcript
oracles are test references in `tests/reference/client.py`; the bulk
emitter `kernels.emit_reports` is what a mode-none simulation runs.
"""

import io
import json
import os
import re

import numpy as np

from .aggregator import SumTree, stray_report
from .errors import InvalidParameterError, ParseError


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

# Reports joined per write, bytes read per chunk, and the most (node, sign)
# cells of a tree whose lines the reader looks up (d <= 2^11); none changes
# a result, and all keep the buffers of one file small. When the reader
# still returned a row per cell of the tree under the cap, a higher cap
# slowed files of few reports or many cells: past the cap a
# one-report file at d = 2^12 read in 0.14 ms and a 300,000-report file at
# d = 2^14 in 135 ms; under caps of 2^15 and 2^17 they took 1.5 ms and
# 215 ms (the read sweep of BENCH_26.json).
WRITE_ROWS = 1 << 14
READ_BYTES = 1 << 16
READ_LINES = 1 << 13
# The value of each byte as a digit (0 for any other byte), and 10 for a
# digit byte (1 for any other): a canonical line's h is _DIGIT[b6] *
# _PLACE[b7] + _DIGIT[b7] of its bytes 6 and 7.
_DIGIT = np.zeros(256, dtype=np.int64)
_DIGIT[48:58] = np.arange(10)
_PLACE = np.ones(256, dtype=np.int64)
_PLACE[48:58] = 10


def line_table(tree, cells, table=None):
    """Put the `REPORT_LINE` of each of the given (node, sign) cells of tree
    (`SumTree.cells`) into table, an object array indexed by cell (a new one
    holding None at every other cell, if table is None), and return it: what
    `write_report_arrays` looks reports up in, and what the reader checks
    each chunk against."""
    if table is None:
        table = np.empty(tree.counts.size, dtype=object)
    # WRITE_ROWS cells at a time, so that only the lines outlive their values
    for lo in range(0, len(cells), WRITE_ROWS):
        part = cells[lo:lo + WRITE_ROWS]
        table[part] = [REPORT_LINE % row
                       for row in zip(*(a.tolist() for a in tree.reports(part)))]
    return table


def write_report_arrays(path, cells, lines):
    """Append reports held as an array of their (node, sign) cells to a file
    as JSON lines, the line of each from the table `lines` (`line_table`)
    and no client identifier, WRITE_ROWS reports at a time."""
    with open_output(path, "a") as fh:
        for lo in range(0, len(cells), WRITE_ROWS):
            fh.write("".join(lines[cells[lo:lo + WRITE_ROWS]].tolist()))


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


def check_distinct_paths(paths, names):
    """Refuse, before any is opened, two of the given paths (None for an
    unset one) that name the same file, so that no output overwrites an
    input or another output; names says which paths these are."""
    files = [os.path.realpath(p) for p in paths if p]
    if len(set(files)) < len(files):
        raise InvalidParameterError(f"{names} paths must differ")


def json_lines(fh):
    """Yield (1-based line number, decoded value) for each non-blank line
    of an open text file; a line that is not JSON raises ParseError with
    its line number."""
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", lineno) from exc
        yield lineno, value


def read_reports(path, d):
    """Read a JSON-lines report stream over horizon d as its histogram:
    (counts, h, t, u), int64 arrays holding each distinct report (h[i],
    t[i], u[i]) of the file once, with the count counts[i] >= 1 of its
    lines, in the tree's storage order (`SumTree.nodes()`, -1 before +1).
    The file's order is not kept: the multiset is what
    `aggregator.accumulate_arrays(h, t, u, d, counts)` counts. Each chunk
    is counted into one int64 vector per (node, sign) cell as it is read,
    so only the per-row parser holds an array of one entry per report.

    Every row must be an object whose h and t are positive int64 integers
    and whose u is -1 or +1; floats, booleans and strings are refused.
    Every report must also address a node of the tree over horizon d
    (`aggregator.stray_report`). Raises ParseError naming the first bad
    report's 1-based line, a report of bad syntax before any report that
    addresses no node.

    A file of canonical lines (`REPORT_LINE`, as the writer emits them) is
    read READ_BYTES at a time. When the tree has at most READ_LINES cells,
    each line's cell is computed from the bytes at the canonical line's
    fixed offsets (`_cells`), and the chunk is taken only if it equals,
    byte for byte, the lines of those cells in the writer's own
    `line_table`, each formatted when a chunk first reads it: a line is
    taken only if it is a cell's own line. Any other chunk, such as one
    holding a report that addresses no node, and every chunk past the cap,
    is checked against one pattern for the canonical line, converted whole
    with array operations and checked against the tree. Which path a chunk
    takes depends on d and on the chunk's own lines, never on earlier
    ones. Any other spelling of the rows sends the whole file again through
    `parse_report_rows`, which counts the same reports or names the bad
    line. A pipe is read into memory first, so that it can be read twice.
    """
    tree = SumTree(d)
    counts = tree.counts.ravel()  # one int64 count per (node, sign) cell
    with open_input(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        if not _read_canonical(fh, tree, counts):
            counts[:] = 0
            fh.seek(0)
            text = io.TextIOWrapper(fh, encoding="utf-8", errors="replace")
            np.add.at(counts, tree.cells(*parse_report_rows(json_lines(text), d)), 1)
    cells = np.flatnonzero(counts)
    return counts[cells], *tree.reports(cells)


def _read_canonical(fh, tree, counts):
    """Count a stream of canonical lines into counts, a vector over the
    (node, sign) cells of tree (see `read_reports`), and return True, or
    return False once a line is not canonical."""
    lines = None
    if tree.counts.size <= READ_LINES:
        # lines[c] is cell c's line, formatted once a chunk first reads it
        lines = np.empty(tree.counts.size, dtype=object)
        known = np.zeros(tree.counts.size, dtype=bool)
    reports = 0  # the reports counted, all of them before the chunk
    stray = None  # the ParseError of the first report that addresses no node
    tail = b""
    while data := fh.read(READ_BYTES):
        chunk = tail + data
        cut = chunk.rfind(b"\n") + 1
        chunk, tail = chunk[:cut], chunk[cut:]
        # an unfinished line longer than any canonical one ends the fast
        # path at once, so a file without newlines is not gathered here
        if len(tail) > _MAX_LINE:
            return False
        if not chunk:
            continue
        cells = _cells(chunk, tree) if lines is not None else None
        if cells is not None:
            fresh = cells[~known[cells]]
            if len(fresh):
                fresh = np.flatnonzero(np.bincount(fresh))
                line_table(tree, fresh, lines)
                known[fresh] = True
            # the cells hold only if their lines are the chunk, byte for byte
            if "".join(lines[cells].tolist()).encode() != chunk:
                cells = None
        if cells is None:
            columns = _convert(chunk)
            if columns is None:
                return False
            if stray is None:
                try:
                    _check_tree(columns, tree.d, lambda row: reports + row + 1)
                    cells = tree.cells(*columns)
                except ParseError as exc:
                    stray = exc  # raised unless a later line is not canonical
        if stray is None:
            np.add.at(counts, cells, 1)
            reports += len(cells)
    if tail:
        return False  # an unterminated last line goes per row
    if stray is not None:
        raise stray
    return True


def _cells(chunk, tree):
    """The (node, sign) cell of tree of each line of chunk, a run of whole
    lines, read at the fixed offsets of the canonical line, or None if a
    line is too short to be one. `{"h": H, "t": T, "u": U}` is 21 + |H| +
    |T| + |U| bytes: H is at bytes 6 and 7, and with e its newline, U's
    sign is at e - 3 and T's digits end at e - 10 - (U < 0). A byte that is
    not a digit reads as 0, so T's digits are read at a width of d's, and
    any other line still maps to some cell, whose own line it is not."""
    buf = np.frombuffer(chunk, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    # each line at least 24 bytes keeps every byte read below in its line,
    # but for T's leading bytes at a width past 14 digits, kept in the chunk
    if ends[0] < 24 or (ends[1:] - ends[:-1]).min(initial=25) < 25:
        return None
    at = np.concatenate(([6], ends[:-1] + 7))
    h, second = _DIGIT.take(buf.take(at)), buf.take(at + 1)
    h = h * _PLACE.take(second) + _DIGIT.take(second)
    neg = buf.take(ends - 3) == ord("-")
    at = ends - 10 - neg
    t = _DIGIT.take(buf.take(at))
    for place in 10 ** np.arange(1, len(str(tree.d))):
        at = np.maximum(at - 1, 0)
        t += place * _DIGIT.take(buf.take(at))
    h = np.minimum(np.maximum(h, 1), tree.levels)
    return np.minimum(np.maximum(tree.cells(h, t, ~neg), 0), tree.counts.size - 1)


def _convert(chunk):
    """The (h, t, u) columns of a run of canonical lines, as one C-ordered
    (3, lines) int64 array, or None if chunk is not one."""
    if not _CANONICAL_LINES.fullmatch(chunk):
        return None
    # the chunk is validated: only digits, signs and blanks are left
    digits = chunk.translate(None, b'{}"htu:,')
    return np.fromstring(digits, dtype=np.int64, sep=" ").reshape(-1, 3).T.copy()


def _check_tree(columns, d, line):
    """Raise ParseError naming line(row) if row is the first of columns
    that addresses no node of the tree over horizon d."""
    bad = stray_report(*columns, d)
    if bad is not None:
        raise ParseError("report (h=%d, t=%d, u=%d) addresses no node of the tree over "
                         "horizon %d" % (*(c[bad] for c in columns), d), line(bad))


def parse_report_rows(rows, d):
    """(h, t, u) arrays from the (line number, decoded row) pairs of
    `json_lines`, one row at a time: the path for every spelling of the
    rows JSON allows, and the reference for the chunked one; the arrays are
    then checked against the tree over horizon d as in `read_reports`."""
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
