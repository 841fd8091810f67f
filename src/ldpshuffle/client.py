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
returns the stream dictionary-encoded, as rows and one row index per
report: for a tree of at most READ_LINES cells the rows are its cells, and
each report is looked up by its line; a chunk of the file that holds a
line off that table, and every chunk of a larger tree, is converted whole,
each report a row of its own. Once reports are anonymized the server needs
only their multiset, which is the rows and the count of each.

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
from .core import level_count
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
# cells of a tree whose line table the reader looks lines up in (d <= 2^11);
# none changes a result, and all keep the buffers of one file small. The cap
# also keeps the reader fast: past it, dict lookups in a table of hundreds of
# thousands of lines (262k at d = 2^16) ran slower than converting each
# chunk whole and raised RSS by tens of MB more.
WRITE_ROWS = 1 << 14
READ_BYTES = 1 << 16
READ_LINES = 1 << 13


def line_table(tree, cells, table=None):
    """Put the `REPORT_LINE` of each of the given (node, sign) cells of tree
    (`SumTree.cells`) into table, an object array indexed by cell (a new one
    holding None at every other cell, if table is None), and return it: what
    `write_report_arrays` looks reports up in."""
    if table is None:
        table = np.empty(tree.counts.size, dtype=object)
    h, t = tree.nodes()
    # WRITE_ROWS cells at a time, so that only the lines outlive their values
    for lo in range(0, len(cells), WRITE_ROWS):
        part = cells[lo:lo + WRITE_ROWS]
        table[part] = [REPORT_LINE % row for row in zip(
            h[part >> 1].tolist(), t[part >> 1].tolist(), (2 * (part & 1) - 1).tolist())]
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
    """Read a JSON-lines report stream over horizon d, dictionary-encoded:
    (index, h, t, u), int64 arrays where report i of the file is row
    index[i] of (h, t, u), so that (h[index], t[index], u[index]) are the
    file's reports in order. When the tree over d has at most READ_LINES
    (node, sign) cells, the rows start with its cells in storage order
    (`SumTree.nodes()`, -1 before +1), some perhaps read by no report.
    After them, or from the first row for a larger tree, come the reports
    of each chunk converted whole (below), a row each, in file order. A
    server that counts reports needs only the rows and `np.bincount(index)`
    (`aggregator.accumulate_arrays`).

    Every row must be an object whose h and t are positive int64 integers
    and whose u is -1 or +1; floats, booleans and strings are refused.
    Every row must also address a node of the tree over horizon d
    (`aggregator.stray_report`), checked once per row once the file is
    read, so the first bad row's first report is the first bad report.
    Raises ParseError naming the first bad report's 1-based line, a report
    of bad syntax before any report that addresses no node.

    A file of canonical lines (`REPORT_LINE`, as the writer emits them) is
    read READ_BYTES at a time. Under the cap the tree's table (the
    `line_table` of every cell) is built before the first read, and each
    chunk is split into lines, each looked up in it. A chunk that holds a
    line off the table, such as a report that addresses no node, and every
    chunk past the cap, is checked against one pattern for the canonical
    line and converted whole with array operations. Which path a chunk
    takes depends on d and on the chunk's own lines, never on earlier ones.
    Any other spelling of the rows sends the whole file again through
    `parse_report_rows`, which returns the same reports or names the bad
    line, one row per report. A pipe is read into memory first, so that it
    can be read twice.
    """
    level_count(d)
    with open_input(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        encoded = _read_canonical(fh, d)
        if encoded is None:
            fh.seek(0)
            text = io.TextIOWrapper(fh, encoding="utf-8", errors="replace")
            columns = parse_report_rows(json_lines(text), d)
            return np.arange(len(columns[0])), *columns
    index, *columns = encoded
    # one report per line: a row's line is that of its first report
    _check_tree(columns, d, lambda row: int((index == row).argmax()) + 1)
    return encoded


def _read_canonical(fh, d):
    """(index, h, t, u) of a stream of canonical lines over horizon d (see
    `read_reports`), or None once a line is not canonical."""
    table, rows = {}, [np.empty((0, 3), dtype=np.int64)]
    if 4 * int(d) - 2 <= READ_LINES:
        # row c is (node, sign) cell c of the tree, found by its line; zip
        # drops the empty piece after the last newline
        tree = SumTree(d)
        text = "".join(line_table(tree, np.arange(tree.counts.size)).tolist())
        table = dict(zip(text.encode().split(b"\n"), range(tree.counts.size)))
        h, t = tree.nodes()
        rows[0] = np.stack([h.repeat(2), t.repeat(2), np.tile([-1, 1], len(h))], axis=1)
    size = len(table)  # the rows so far
    # each looked-up chunk's rows, or (start, stop) of a chunk's own rows
    index = [np.empty(0, dtype=np.intp)]
    tail = b""
    while data := fh.read(READ_BYTES):
        chunk = tail + data
        cut = chunk.rfind(b"\n") + 1
        chunk, tail = chunk[:cut], chunk[cut:]
        # an unfinished line longer than any canonical one ends the fast
        # path at once, so a file without newlines is not gathered here
        if len(tail) > _MAX_LINE:
            return None
        if table:
            lines = chunk.split(b"\n")
            lines.pop()  # the empty piece after the last newline
            try:
                index.append(np.fromiter(map(table.__getitem__, lines), np.intp, len(lines)))
                continue
            except KeyError:
                pass  # a line off the tree's table: the chunk is converted whole
        block = _convert(chunk)
        if block is None:
            return None
        rows.append(block)
        index.append((size, size + len(block)))
        size += len(block)
    if tail:
        return None  # an unterminated last line goes per row
    columns = [np.concatenate([block[:, j] for block in rows]) for j in range(3)]
    rows.clear()  # copied into the columns; freed before the ranges are filled in
    return np.concatenate([np.arange(*part) if type(part) is tuple else part
                           for part in index]), *columns


def _convert(chunk):
    """The (rows, 3) int64 array of a run of canonical lines, or None if
    chunk is not one."""
    if not _CANONICAL_LINES.fullmatch(chunk):
        return None
    # the chunk is validated: only digits, signs and blanks are left
    digits = chunk.translate(None, b'{}"htu:,')
    return np.fromstring(digits, dtype=np.int64, sep=" ").reshape(-1, 3)


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
