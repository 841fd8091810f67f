"""The report file format and the opening of every input and output file.

The anonymized report stream is stored as JSON lines, one (h, t, u)
object per report and no client identifier, written and read here; the
reader checks each line's syntax and then the rule of the tree over the
horizon it is given (`aggregator.stray_report`). `json_lines` decodes any
JSON-lines file, such as the file input model's change vectors, which
`harness.read_change_vectors` clips to the change budget.

A report stream over horizon d holds at most 2(2d - 1) distinct lines, one
per (node, sign) cell of its `SumTree`, so both ends go through one
`LineTable` per file, the one owner of the rule for formatting lines: a
cell's line is formatted once, on the first lookup that meets the cell,
and a cell never looked up is never formatted. The writer takes each
report as its cell and joins the table's lines of the cells. The reader
returns the stream's histogram, since once reports are anonymized the
server needs only their multiset: it reads its input once, a chunk of
whole lines at a time, and counts each chunk's cells into one vector over
the tree, so its memory is bounded by d and one chunk, for a file or a
pipe and for any spelling of the rows. Under a cap of READ_LINES cells
each line's cell is read off its bytes by numpy arithmetic; a chunk that
is not its cells' table lines, and every chunk past the cap, is converted
whole if its lines are canonical and parsed one row at a time if not.

The scalar per-client protocol (`client_update`) and its exact transcript
oracles are test references in `tests/reference/client.py`; the bulk
emitter `kernels.emit_reports` is what a mode-none simulation runs.
"""

import io
import itertools
import json
import os
import re

import numpy as np

from .aggregator import SumTree, stray_report
from .errors import InvalidParameterError, ParseError, quote


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

# Reports joined per write, bytes read per chunk, and the most (node, sign)
# cells of a tree whose lines the reader looks up (d <= 2^11); none changes
# a result, and all keep the buffers of one file small. A cap of 2^15
# (d <= 2^13) reads a 300,000-report file at d = 2^12 in 52 ms against
# 78 ms, but raises its RSS by 3.2 MB against 1.9 MB (5.6 against 2.9 MB
# at d = 2^13), and reads 300 reports at d = 2^13 in 10.1 against 9.4 ms
# (the `estimate` read sweep of BENCH_30.json), so the cap stays.
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


class LineTable:
    """The `REPORT_LINE` of each (node, sign) cell of tree (`SumTree.cells`),
    each formatted once, on the first lookup that meets its cell:
    `table[cells]` is the object array of the given cells' lines. What
    `write_report_arrays` looks reports up in, and what the reader checks
    each chunk against."""

    def __init__(self, tree):
        self._tree = tree
        self._lines = np.empty(tree.counts.size, dtype=object)
        self._known = np.zeros(tree.counts.size, dtype=bool)

    def __getitem__(self, cells):
        fresh = np.flatnonzero(np.bincount(cells[~self._known[cells]]))
        # WRITE_ROWS cells at a time, so that only the lines outlive their values
        for lo in range(0, len(fresh), WRITE_ROWS):
            part = fresh[lo:lo + WRITE_ROWS]
            self._lines[part] = [REPORT_LINE % row
                                 for row in zip(*(a.tolist() for a in self._tree.reports(part)))]
        self._known[fresh] = True
        return self._lines[cells]


def write_report_arrays(path, cells, lines):
    """Append reports held as an array of their (node, sign) cells to a file
    as JSON lines, the line of each from lines, the file's `LineTable`,
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


def json_lines(fh, start=1):
    """Yield (line number, decoded value) for each non-blank line of an
    open text file, or of any iterable of its lines, numbered from start;
    a line that is not JSON raises ParseError with its line number."""
    for lineno, line in enumerate(fh, start=start):
        line = line.strip()
        if not line:
            continue
        try:
            value = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also an int past 4300 digits, deep nesting
            why = getattr(exc, "msg", str(exc).split(";")[0])  # not its advice to Python code
            raise ParseError(f"invalid JSON: {why}", lineno) from exc
        yield lineno, value


def read_reports(path, d):
    """Read a JSON-lines report stream over horizon d as its histogram:
    (counts, h, t, u), int64 arrays holding each distinct report (h[i],
    t[i], u[i]) of the input once, with the count counts[i] >= 1 of its
    lines, in the tree's storage order (`SumTree.nodes()`, -1 before +1).
    The input's order is not kept: the multiset is what
    `aggregator.accumulate_arrays(h, t, u, d, counts)` counts.

    Every row must be an object whose h and t are positive int64 integers
    and whose u is -1 or +1; floats, booleans and strings are refused.
    Every report must also address a node of the tree over horizon d
    (`aggregator.stray_report`). Raises ParseError naming the first bad
    report's 1-based line, a report of bad syntax before any report that
    addresses no node.

    The input, a file or a pipe, is read once, one chunk of whole lines at
    a time (`_chunks`), of at most 2 max(READ_BYTES, the longest line)
    bytes. Each chunk's cells are counted into one int64 vector per (node,
    sign) cell of the tree, so only one chunk's rows are held. The cheapest
    reader that accepts a chunk takes it. When the tree has at most
    READ_LINES cells, each line's cell is computed from the bytes at the
    canonical line's fixed offsets (`_cells`), and the chunk is taken only
    if it equals, byte for byte, the lines of those cells in the writer's
    own `LineTable`: a line is taken only if it is a cell's own line.
    Otherwise a chunk of canonical lines (`REPORT_LINE`) is converted whole
    with array operations (`_convert`), and any other chunk goes one row at
    a time through `parse_rows`, its lines numbered as a text file's (a
    line ends in \\n, \\r or \\r\\n). Either is then checked against the
    tree (`_check_tree`). Which path a chunk takes depends on d and on the
    chunk's own lines, never on earlier ones. A syntax error is raised when
    it is met; the first report that addresses no node is raised once the
    input is read.
    """
    tree = SumTree(d)
    counts = tree.counts.ravel()  # one int64 count per (node, sign) cell
    lines = LineTable(tree) if tree.counts.size <= READ_LINES else None
    read = 0  # the lines read, all of them before the chunk
    stray = None  # the ParseError of the first report that addresses no node
    with open_input(path, "rb") as fh:
        for chunk in _chunks(fh):
            cells = None
            if lines is not None and chunk.endswith(b"\n"):
                cells = _cells(chunk, tree)
            # the cells hold only if their lines are the chunk, byte for byte
            if cells is not None and "".join(lines[cells].tolist()).encode() != chunk:
                cells = None
            if cells is None:
                columns, line, taken = _columns(chunk, read + 1)
                if stray is None:
                    try:
                        _check_tree(columns, d, line)
                        cells = tree.cells(*columns)
                    except ParseError as exc:
                        stray = exc  # raised unless a later line has bad syntax
            else:
                taken = len(cells)
            if stray is None:
                np.add.at(counts, cells, 1)
            read += taken
    if stray is not None:
        raise stray
    cells = np.flatnonzero(counts)
    return counts[cells], *tree.reports(cells)


def _chunks(fh):
    """The chunks of an open binary file, each a run of whole lines: the
    partial line the last chunk left and the next max(READ_BYTES, its
    length) bytes, cut after their last \\n or a later lone \\r that is not
    their last byte (which may begin a \\r\\n), or carried whole into the
    next read if they hold no line end. Reads double while a line runs on,
    so a chunk holds at most 2 max(READ_BYTES, the longest line) bytes."""
    rest = b""
    while block := fh.read(max(READ_BYTES, len(rest))):
        window = rest + block
        cut = max(window.rfind(b"\n"), window.rfind(b"\r", 0, -1)) + 1
        rest = window[cut:]
        if cut:
            yield window[:cut]
    if rest:
        yield rest


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


def _columns(chunk, first):
    """The (h, t, u) columns of chunk, a run of whole lines whose first is
    line first, with the line of each row as a function of its index and
    the count of lines: converted whole if every line is canonical, and
    otherwise one row at a time."""
    columns = _convert(chunk)
    if columns is not None:
        return columns, lambda row: first + row, len(columns[0])
    text = io.StringIO(chunk.decode("utf-8", "replace"), newline=None)
    # the lines json_lines numbers, counted as it takes them, blank or not
    taken = itertools.count()
    columns, lines = parse_rows(json_lines((line for line, _ in zip(text, taken)), first))
    return columns, lines.__getitem__, next(taken)


def _check_tree(columns, d, line):
    """Raise ParseError naming line(row) if row is the first of columns
    that addresses no node of the tree over horizon d."""
    bad = stray_report(*columns, d)
    if bad is not None:
        raise ParseError("report (h=%d, t=%d, u=%d) addresses no node of the tree over "
                         "horizon %d" % (*(c[bad] for c in columns), d), line(bad))


def parse_rows(rows):
    """The (h, t, u) int64 columns of the (line number, decoded row) pairs
    of `json_lines`, one row at a time, and the list of each row's line:
    the reader's path for every spelling of the rows JSON allows. The rows
    are not checked against the tree."""
    hs, ts, us, lines = [], [], [], []
    for lineno, row in rows:
        try:
            h, t, u = row["h"], row["t"], row["u"]
        except (KeyError, TypeError) as exc:
            raise ParseError("expected an object with fields h, t, u", lineno) from exc
        if type(h) is not int or type(t) is not int or type(u) is not int:
            raise ParseError("expected integer fields h, t, u", lineno)
        if not (0 < h <= INT64_MAX and 0 < t <= INT64_MAX):
            raise ParseError(f"h and t must be positive integers, got h={quote(h)}, "
                             f"t={quote(t)}", lineno)
        if u != 1 and u != -1:
            raise ParseError(f"report value must be -1 or +1, got {quote(u)}", lineno)
        hs.append(h)
        ts.append(t)
        us.append(u)
        lines.append(lineno)
    return tuple(np.array(c, dtype=np.int64) for c in (hs, ts, us)), lines
