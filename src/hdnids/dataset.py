"""NSL-KDD ingestion: parsing, schema inference, label mapping, splitting.

Input lines carry 41 feature fields, an attack label, and (in the plus
files) a difficulty score, comma-separated with no header. The 40 raw
label strings collapse onto five classes (normal, dos, probe, r2l, u2r)
through an editable mapping file shipped with the package.

Schema inference is train-side only: vocabularies and min/max ranges come
from the records given to infer_schema, never from test data.

Parsed records are dictionary-encoded columns (RecordTable): per field, a
list of decoded strings and a code per record, in the narrowest signed
integer dtype that holds the codes (int8 for a dictionary of at most 128
strings, which most NSL-KDD feature columns have). NSL-KDD repeats
itself heavily (on a 125,973-line train file 3% of the feature fields are
distinct strings), so schema inference, label mapping and binning each
run once per distinct string and gather their results by code, and no
Python object is made per field.

parse_file reads the file in Python's text mode, so line ends and invalid
UTF-8 (read as U+FFFD) are text mode's. It takes about _READ_CHARS
characters of whole lines at a time, encodes them back to UTF-8, and works
through the bytes in blocks of _BLOCK_LINES lines. In a block it finds the
commas, keys every field of a well-formed line by its bytes and its
length, so embedded NUL bytes cannot merge two strings, and adds the keys
to the field's RunningKeys, which numbers the file's distinct strings
block by block as it first meets them. Only each record's line number
and field numbers, and the bytes of the strings new in the block, outlive
the block, so the transients stay a few MB whatever the file's size. The
numbers go straight into one staging area, an anonymous mapping sized
from the file's length, outside the malloc heap, so they leave no small
survivors between the blocks' transients there. At the end each field's
new bytes are decoded in one call, and the line numbers and every field's
codes, narrowed, are copied into one allocation and the staging unmapped.
On a large file that one block is mapped apart from the heap, so the
table neither pins heap the parse freed nor leaves holes in it, and its
memory goes back to the system whole when the table dies.

A key holds at most _KEY_BYTES bytes; a longer field gets a key, and so a
value entry, of its own. A line is a record when it has 41 or 42 commas
(or 40 with allow_unlabeled) and, after 42, a difficulty that int() takes.
Any other line is malformed, and its reason names the field count or the
difficulty, or else blank and skipped. Only a line with no comma is
decoded, to tell a blank line from a one-field one.
"""

from __future__ import annotations

import logging
import math
import mmap
import numbers
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .codebook import (
    KIND_CATEGORICAL,
    KIND_CONTINUOUS,
    TRANSFORM_LOG1P,
    TRANSFORM_NONE,
    FeatureSchema,
    FeatureSpec,
    stream,
)

log = logging.getLogger(__name__)

NUM_FEATURES = 41

COLUMN_NAMES = [
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins", "logged_in",
    "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files", "num_outbound_cmds",
    "is_host_login", "is_guest_login", "count", "srv_count", "serror_rate",
    "srv_serror_rate", "rerror_rate", "srv_rerror_rate", "same_srv_rate",
    "diff_srv_rate", "srv_diff_host_rate", "dst_host_count", "dst_host_srv_count",
    "dst_host_same_srv_rate", "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate", "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
]

# Columns 1-3 are symbolic by definition; other columns go categorical only
# when the training data shows a pure {"0","1"} indicator.
SYMBOLIC_COLUMNS = (1, 2, 3)

CLASS_NAMES = ["normal", "dos", "probe", "r2l", "u2r"]

_SPLIT_STREAM_TAG = 0x5B117

# fields a line can hold: the features, the label and the difficulty
_FIELDS = NUM_FEATURES + 2
# characters of whole lines read at a time
_READ_CHARS = 1 << 19
# lines per parse block: a block's field bounds take _FIELDS + 1 int64 per
# line, 1.4 MB at 4096 lines
_BLOCK_LINES = 4096
# the longest field keyed by its bytes; a longer one gets a key of its own
_KEY_BYTES = 63
# the most records a first staging holds: 180 MB of address space, which a system
# that refuses mappings larger than its memory still grants; a longer file's grows
_STAGE_RECORDS = 1 << 20
# zero bytes after the lines read, so every 8-byte key word read stays inside the buffer
_PAD = _KEY_BYTES + 8
# _MASKS[k] keeps the first k bytes of a little-endian word
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


class ParseError(ValueError):
    """Malformed dataset input (wrong arity, bad numerics, wrong file)."""


def numeric_column(values, name: str, transform: str, codes=None, lines=None) -> np.ndarray:
    """A continuous column's strings as float64, log1p(max(v, 0)) when
    transform is "log1p": the one reader of continuous values, for schema
    inference and binning alike, each string read once.

    codes is each record's index into values (each value is a record when
    it is None), and lines each record's line. A ParseError names the column
    and the value of the first record that is not a finite number, with its
    line when lines is given and the line is not 0, which stands for no
    line. A string no record holds is never an error, and reads as 0.0.
    """
    try:
        vals = np.asarray(values, dtype=np.float64)
    except ValueError:  # one float() per string, None and so NaN where it fails
        vals = np.array([_parsed(v, float) for v in values], dtype=np.float64)
    bad = ~np.isfinite(vals)
    if bad.any():
        held = np.flatnonzero(bad if codes is None else bad[codes])
        if held.size:
            i = held[0]
            where = f"line {lines[i]}: " if lines is not None and lines[i] else ""
            value = values[i if codes is None else codes[i]]
            raise ParseError(f"{where}column {name!r} has non-numeric value {value!r}")
        vals = np.where(bad, 0.0, vals)
    if transform == TRANSFORM_LOG1P:
        vals = np.log1p(np.maximum(vals, 0.0))
    return vals


class UnknownLabelError(ValueError):
    """A raw attack label missing from the mapping, in strict mode."""


@dataclass
class RawRecord:
    """One NSL-KDD line: 41 feature strings plus label and difficulty."""

    values: tuple
    label: str | None = None
    difficulty: int | None = None
    line_no: int = 0


@dataclass(frozen=True, eq=False)
class Column:
    """One field of many records, dictionary-encoded.

    Record i holds values[codes[i]], or no such field when codes[i] is -1,
    which no feature column holds. values may repeat a string (parse_file
    gives each field longer than _KEY_BYTES an entry of its own) and, in a
    table cut by RecordTable.take, hold strings no record uses. codes is in
    the dtype _code_dtype(len(values)) gives, int8 up to 128 strings.
    """

    values: list
    codes: np.ndarray

    def strings(self) -> list:
        """Each record's string, None where it has none."""
        values = self.values + [None]  # a code of -1 picks the None
        return [values[c] for c in self.codes.tolist()]

    def present(self) -> list:
        """The strings of values that some record holds."""
        counts = np.bincount(self.codes[self.codes >= 0], minlength=len(self.values))
        return [v for v, n in zip(self.values, counts.tolist()) if n]


def _code_dtype(size: int) -> np.dtype:
    """The smallest signed integer dtype that holds -1 and size - 1."""
    return np.min_scalar_type(-max(size, 1))


def _dictionary(strings) -> Column:
    """Column of a sequence of values, none of them None, in first-occurrence
    order: every code points at a value."""
    lut: dict = {}
    # keyed with the type too, so 1, 1.0 and True stay apart as they do as strings
    codes = [lut.setdefault((type(s), s), len(lut)) for s in strings]
    return Column([s for _, s in lut], np.array(codes, dtype=_code_dtype(len(lut))))


class RecordTable(Sequence):
    """Parsed records as dictionary-encoded columns.

    features holds one Column per feature; labels and difficulty hold the
    raw label and difficulty strings as read (code -1 where a line had
    none), and line_no each record's 1-based line. As a read-only sequence
    it gives RawRecords, built on access.
    """

    def __init__(self, features: list, labels: Column, difficulty: Column,
                 line_no: np.ndarray):
        self.features = features
        self.labels = labels
        self.difficulty = difficulty
        self.line_no = line_no

    def __len__(self) -> int:
        return len(self.line_no)

    def __getitem__(self, i) -> RawRecord:
        i = range(len(self))[i]  # an int or numpy integer, negatives and IndexError as a list
        label, difficulty = ((c.values + [None])[c.codes[i]]  # a code of -1 picks the None
                             for c in (self.labels, self.difficulty))
        return _record(tuple(c.values[c.codes[i]] for c in self.features), label, difficulty,
                       int(self.line_no[i]))

    def __iter__(self):
        columns = zip(*(c.strings() for c in self.features))
        return map(_record, columns, self.labels.strings(), self.difficulty.strings(),
                   self.line_no.tolist())

    def take(self, rows) -> "RecordTable":
        """The records at index array or slice rows, in that order; the
        dictionaries are shared."""
        def cut(c: Column) -> Column:
            return Column(c.values, c.codes[rows])

        return RecordTable([cut(c) for c in self.features], cut(self.labels),
                           cut(self.difficulty), self.line_no[rows])

    def lines(self) -> list:
        """Each record's line as read: decoded, without its line end."""
        fields = [c.strings() for c in (*self.features, self.labels, self.difficulty)]
        return [",".join(f for f in row if f is not None) for row in zip(*fields)]

    @classmethod
    def from_rows(cls, rows, width: int) -> "RecordTable":
        """Table of plain value rows: no labels, no difficulty, and every
        line number 0, as the rows have no lines.

        Every row must have width values, none of them None; a ValueError
        names the first record that does not, and the feature it lacks. Each
        field is dictionary-encoded one Python value at a time.
        """
        rows = [tuple(r) for r in rows]
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ValueError(f"record {i} has {len(r)} values, expected {width}")
            if None in r:
                raise ValueError(f"record {i} has no value for feature {r.index(None)}")
        none = Column([], np.full(len(rows), -1, dtype=_code_dtype(0)))
        return cls([_dictionary([r[j] for r in rows]) for j in range(width)], none, none,
                   np.zeros(len(rows), dtype=np.int64))


def _record(values, label, difficulty, line_no) -> RawRecord:
    return RawRecord(values=tuple(values),
                     label=None if label is None else label.strip(),
                     difficulty=None if difficulty is None else int(difficulty),
                     line_no=line_no)


@dataclass
class ParseResult:
    records: RecordTable
    malformed: list  # (line_no, reason) pairs

    @property
    def malformed_count(self) -> int:
        return len(self.malformed)


def _runs(fh):
    """The lines of a text file about _READ_CHARS characters at a time, as
    (buf, size): buf[:size] holds whole lines UTF-8 encoded, each ended by
    '\\n' but perhaps the file's last, and _PAD zero bytes follow."""
    while lines := fh.readlines(_READ_CHARS):
        lines.append("\0" * _PAD)
        buf = np.frombuffer("".join(lines).encode(), dtype=np.uint8)
        del lines  # the line strings die before the run is worked through
        yield buf, len(buf) - _PAD


def _line_bounds(buf: np.ndarray, size: int):
    """First and end byte offset of every line of buf[:size], the end
    excluding the '\\n'; a last line needs none."""
    ends = np.flatnonzero(buf[:size] == 10)
    starts = np.concatenate(([0], ends + 1))
    stops = np.append(ends, size)
    if starts[-1] == size:  # nothing after the last line end
        starts, stops = starts[:-1], stops[:-1]
    return starts, stops


def _keys(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """(w, n) uint64 keys of the fields buf[starts[i]:starts[i] + lens[i]],
    none longer than _KEY_BYTES.

    A key holds a field's bytes, little-endian, zero past the field, and
    the field's length in the top byte of word len // 8, which the field
    leaves free; w is the least word count that holds every field. Equal
    keys therefore mean equal bytes, whatever the machine's byte order, and
    a key with zero words appended is the same field's key.
    """
    words_at = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    w = int(lens.max()) // 8 + 1 if len(lens) else 1
    keys = np.empty((w, len(lens)), dtype=np.uint64)
    length, word = lens.astype(np.uint64) << np.uint64(56), lens >> 3
    for k in range(w):
        np.bitwise_and(words_at[starts + 8 * k], _MASKS[np.clip(lens - 8 * k, 0, 8)],
                       out=keys[k])
        np.bitwise_or(keys[k], length, out=keys[k], where=word == k)
    return keys


def _distinct(x: np.ndarray):
    """(inverse, rep) of a 1-D array, of numbers or of void byte strings:
    each entry's distinct number, in the sorted order of the distinct
    values, and the index of one entry holding each distinct value."""
    order = np.argsort(x)
    s = x[order]
    new = np.empty(len(x), dtype=bool)
    new[:1] = True
    new[1:] = s[1:] != s[:-1]  # void arrays compare by operator, not by ufunc
    del s
    number = np.cumsum(new)
    number -= 1
    inverse = np.empty(len(x), dtype=np.int64)
    inverse[order] = number
    return inverse, order[new]


class RunningKeys:
    """The distinct keys of batches added one after another, each with an id.

    A key is a row of unsigned integer words, of one dtype in every batch,
    and is the same key with zero words appended. Ids count from 0 in the
    order keys are first met: batch by batch, and in a batch in sorted key
    order. The keys are held sorted, as numbers while one word wide and
    else as their words' big-endian bytes, which sort as the rows do and
    keep their order when zero bytes are appended.
    """

    def __init__(self):
        self._width, self._word = 0, None  # words per held key, and their dtype
        self._sorted = self._ids = np.empty(0, dtype=np.int64)  # the keys, and their ids

    def __len__(self) -> int:
        return len(self._ids)

    def add(self, keys: np.ndarray):
        """(ids, new) of a (n, w) batch of keys: each key's id, and the index
        in keys of one entry of each key not held before, in id order."""
        if keys.shape[1] > self._width:  # the held keys gain zero words
            held = (self._sorted[:, None] if self._width <= 1 else
                    self._sorted.view(self._word.newbyteorder(">")).reshape(-1, self._width))
            self._word, self._width = keys.dtype, keys.shape[1]
            self._sorted = self._flat(held)
        keys = self._flat(keys)
        inverse, rep = _distinct(keys)
        keys = keys[rep]  # the batch's distinct keys, sorted
        if not len(self._ids):
            self._sorted, self._ids = keys, np.arange(len(keys))
            return self._ids[inverse], rep
        at = np.searchsorted(self._sorted, keys)
        ids = self._ids.take(at, mode="clip")
        new = np.flatnonzero(self._sorted.take(at, mode="clip") != keys)
        if len(new):
            ids[new] = len(self._ids) + np.arange(len(new))
            self._sorted = np.insert(self._sorted, at[new], keys[new])
            self._ids = np.insert(self._ids, at[new], ids[new])
        return ids[inverse], rep[new]

    def _flat(self, keys: np.ndarray) -> np.ndarray:
        """(n,) keys of (n, w) rows of words, as held."""
        if self._width == 1:
            return keys[:, 0]
        if keys.shape[1] < self._width:
            keys = np.pad(keys, ((0, 0), (0, self._width - keys.shape[1])))
        rows = np.ascontiguousarray(keys, dtype=self._word.newbyteorder(">"))
        return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]


def _add_fields(store: RunningKeys, buf: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """(ids, new) of the byte fields buf[starts[i]:starts[i] + lens[i]]
    added to store, as RunningKeys.add gives them: equal fields share an
    id, and a field longer than _KEY_BYTES has one of its own."""
    long = lens > _KEY_BYTES
    keys = _keys(buf, starts, np.where(long, 0, lens))
    if long.any():  # a new key no field has: UTF-8 holds no byte 0xFF
        serial = len(store) + np.arange(long.sum(), dtype=np.uint64)
        keys[0, long] = serial | np.uint64(0xFF << 56)
    return store.add(keys.T)


def _joined(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The byte fields buf[starts[i]:starts[i] + lens[i]] end to end, each
    followed by a comma."""
    width = lens + 1
    stops = np.cumsum(width)
    at = np.repeat(starts - (stops - width), width) + np.arange(stops[-1] if len(stops) else 0)
    joined = buf[at]
    joined[stops - 1] = 44
    return joined


def _fields(buf: np.ndarray, first: np.ndarray, end: np.ndarray):
    """(count, seps, lens) of the lines buf[first[i]:end[i]]: each line's
    comma count, and its first _FIELDS fields, field k running from
    seps[k, i] + 1 to seps[k + 1, i] and lens[k, i] bytes long, or -1 bytes
    when the line lacks it."""
    commas = np.flatnonzero(buf[first[0]:end[-1]] == 44) + first[0]
    commas = np.append(commas, end[-1])  # past every line's commas
    at = np.searchsorted(commas, first)
    count = np.searchsorted(commas, end) - at
    step = np.arange(_FIELDS - 1)[:, None]
    seps = np.empty((_FIELDS + 1, len(first)), dtype=np.int64)
    seps[0] = first - 1
    np.take(commas, at + step, out=seps[1:_FIELDS], mode="clip")
    short = np.flatnonzero(count < _FIELDS - 1)  # past its last comma, a line ends
    seps[1:_FIELDS, short] = np.where(step < count[short], seps[1:_FIELDS, short], end[short])
    seps[_FIELDS] = end
    lens = np.subtract(seps[1:], seps[:-1])
    lens -= 1
    return count, seps, lens


def _parsed(text: str, kind):
    """kind(text), or None where kind rejects text."""
    try:
        return kind(text)
    except ValueError:
        return None


def _stage(n: int):
    """(line_no, ids): room for n records' line numbers, (n,) int64, and
    field numbers, (_FIELDS, n) int32, views of one new anonymous mapping.

    The mapping lies outside the malloc heap, so it leaves no hole there
    when it is unmapped with its last view, and its pages take no memory
    until they are written. It opts out of transparent huge pages: where
    the system grants them unasked, each field's written ids would
    otherwise take whole 2 MB pages."""
    mapping = mmap.mmap(-1, n * (8 + 4 * _FIELDS), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        mapping.madvise(mmap.MADV_NOHUGEPAGE)
    line_no = np.frombuffer(mapping, dtype=np.int64, count=n)
    ids = np.frombuffer(mapping, dtype=np.int32, offset=8 * n)
    return line_no, ids.reshape(_FIELDS, n)


def _scan(fh, allow_unlabeled: bool):
    """Number every field of the lines of fh through a RunningKeys per field.

    Returns (line_no, ids, new_bytes, sizes, malformed): each kept record's
    line number and its fields' numbers (-1 where it lacks the field), as
    views of _stage whose first len(line_no) entries are the records'; per
    field, per block, the bytes of the strings new in the block in number
    order, each followed by a comma; per field, the count of numbers; and
    the (line_no, reason) pairs of the malformed lines. A block's comma
    counts and difficulty fields alone pick its records, and name why each
    other line is malformed: its field count, the comma count plus one, or
    its difficulty, decoded once with the block's other distinct ones.

    A kept line holds NUM_FEATURES - 1 commas or more and, but for the
    last, a line end, so a file of s bytes holds at most s // NUM_FEATURES
    + 1 records, and the staging is made that large up front, up to
    _STAGE_RECORDS. Where that is too small (a longer file, a pipe, which
    reports size 0, or a file that grew after it was opened), a full
    staging is copied into one at least twice as large.
    """
    arity = [NUM_FEATURES, NUM_FEATURES + 1] + ([NUM_FEATURES - 1] if allow_unlabeled else [])
    stores = [RunningKeys() for _ in range(_FIELDS)]
    line_no, ids = _stage(min(os.fstat(fh.fileno()).st_size // NUM_FEATURES + 1,
                              _STAGE_RECORDS))
    kept = 0
    new_bytes = [[] for _ in range(_FIELDS)]
    malformed: list[tuple[int, str]] = []
    lines_before = 0
    for buf, size in _runs(fh):
        starts, stops = _line_bounds(buf, size)
        for b in range(0, len(starts), _BLOCK_LINES):
            first, end = starts[b:b + _BLOCK_LINES], stops[b:b + _BLOCK_LINES]
            base = lines_before + b + 1  # the block's first line number
            count, seps, lens = _fields(buf, first, end)
            keep = np.isin(count, arity)
            scored = np.flatnonzero(keep & (count == NUM_FEATURES + 1))
            unscored = {}  # a difficulty int() rejects, by its line's place in the block
            if scored.size:
                field_at = seps[_FIELDS - 1, scored] + 1
                field_len = lens[_FIELDS - 1, scored]
                inverse, rep = _add_fields(RunningKeys(), buf, field_at, field_len)
                scores = _joined(buf, field_at[rep], field_len[rep]).tobytes().decode()
                scores = scores.split(",")[:-1]
                bad = np.array([_parsed(v, int) is None for v in scores])[inverse]
                unscored = dict(zip(scored[bad].tolist(),
                                    (scores[k] for k in inverse[bad].tolist())))
                keep[scored[bad]] = False

            for i in np.flatnonzero(~keep).tolist():
                if i in unscored:
                    reason = f"difficulty column {unscored[i]!r} is not an integer"
                elif count[i] or bytes(buf[first[i]:end[i]]).decode().strip():
                    reason = (f"expected {NUM_FEATURES + 1} or {NUM_FEATURES + 2} "
                              f"comma-separated fields, got {count[i] + 1}")
                else:  # a blank line
                    continue
                malformed.append((base + i, f"line {base + i}: {reason}"))

            rows = np.flatnonzero(keep)
            if kept + len(rows) > len(line_no):
                grown = _stage(max(2 * len(line_no), kept + len(rows)))
                grown[0][:kept] = line_no[:kept]
                grown[1][:, :kept] = ids[:, :kept]
                line_no, ids = grown  # the full mapping is unmapped here
            at = slice(kept, kept + len(rows))
            kept += len(rows)
            line_no[at] = base + rows
            if len(rows) < len(keep):
                seps, lens = seps[:, rows], lens[:, rows]
            for j in range(_FIELDS):
                has = slice(None) if j < NUM_FEATURES else lens[j] >= 0
                field_at, field_len = seps[j, has] + 1, lens[j, has]
                field_ids, new = _add_fields(stores[j], buf, field_at, field_len)
                if j >= NUM_FEATURES:
                    ids[j, at] = -1
                ids[j, at][has] = field_ids
                new_bytes[j].append(_joined(buf, field_at[new], field_len[new]).tobytes())
        lines_before += len(starts)
    return line_no[:kept], ids[:, :kept], new_bytes, [len(s) for s in stores], malformed


def parse_file(path, allow_unlabeled: bool = False) -> ParseResult:
    """Parse a whole NSL-KDD text file into a RecordTable.

    Line ends and blank lines are read as in Python's text mode, with
    invalid UTF-8 replaced by U+FFFD. Malformed lines are collected (with
    reasons), not silently dropped; more than 1% malformed lines aborts
    with a ParseError since that almost certainly means the wrong file was
    given, and so does a file with no records at all (empty or blank lines
    only). Blank lines count toward line numbers but not toward the 1%.
    A field of any length is read alike. A malformed line's reason is
    "line N: expected 42 or 43 comma-separated fields, got n" or "line N:
    difficulty column '...' is not an integer".

    _scan stages every record's line number and field numbers in one
    anonymous mapping. The table's line numbers and every field's codes,
    narrowed to its dtype, are then copied into one allocation, and the
    staging is unmapped: the table is one block of memory, taken and given
    back whole, and the heap holds none of the staging.
    """
    path = Path(path)
    # the block transients die with _scan, before the columns are built
    with open(path, encoding="utf-8", errors="replace") as fh:
        line_no, ids, new_bytes, sizes, malformed = _scan(fh, allow_unlabeled)

    total = len(line_no) + len(malformed)  # the lines that are not blank
    if not total:
        raise ParseError(f"{path}: no records")
    if len(malformed) / total > 0.01:
        raise ParseError(
            f"{path}: {len(malformed)} of {total} lines malformed (>1%); "
            f"first: {malformed[0][1]}"
        )
    if malformed:
        log.warning("%s: %d malformed line(s) skipped", path, len(malformed))

    numbers, *columns = _carve(len(line_no), [np.dtype(np.int64)]
                               + [_code_dtype(n) for n in sizes])
    numbers[:] = line_no
    for j in range(_FIELDS):
        columns[j][:] = ids[j]
        columns[j] = Column(b"".join(new_bytes[j]).decode().split(",")[:-1], columns[j])
        new_bytes[j] = None
    del line_no, ids  # the staging's last views: it is unmapped here
    table = RecordTable(columns[:NUM_FEATURES], columns[NUM_FEATURES],
                        columns[NUM_FEATURES + 1], numbers)
    return ParseResult(records=table, malformed=malformed)


def _carve(n: int, dtypes: list) -> list:
    """An uninitialized (n,) array of each dtype, all views of one buffer,
    the widest first so that each is aligned."""
    buf = np.empty(n * sum(d.itemsize for d in dtypes), dtype=np.uint8)
    out = [None] * len(dtypes)
    at = 0
    for k in sorted(range(len(dtypes)), key=lambda k: -dtypes[k].itemsize):
        out[k] = buf[at:at + n * dtypes[k].itemsize].view(dtypes[k])
        at += n * dtypes[k].itemsize
    return out


def infer_schema(table: RecordTable, log_scale: bool = False) -> FeatureSchema:
    """Infer the per-feature schema from a RecordTable of training records
    only.

    Symbolic columns (protocol_type, service, flag) become categorical with
    lexicographically sorted vocabularies. Numeric columns whose raw strings
    are all "0"/"1" become two-category indicators; the rest are continuous
    with [min, max] taken over the (optionally log1p-transformed) training
    values, gathered by the records' codes: a string no record holds, as
    after RecordTable.take, neither raises nor reaches the range. A range
    FeatureSpec rejects, as float64 cannot bin it, is a ParseError.
    """
    if not len(table):
        raise ValueError("cannot infer a schema from zero records")
    transform = TRANSFORM_LOG1P if log_scale else TRANSFORM_NONE
    specs: list[FeatureSpec] = []
    for j, name in enumerate(COLUMN_NAMES):
        column = table.features[j]
        if j in SYMBOLIC_COLUMNS:
            specs.append(FeatureSpec(name=name, kind=KIND_CATEGORICAL,
                                     vocabulary=sorted(set(column.present()))))
            continue
        if set(column.present()) <= {"0", "1"}:
            specs.append(FeatureSpec(name=name, kind=KIND_CATEGORICAL,
                                     vocabulary=["0", "1"]))
            continue
        vals = numeric_column(column.values, name, transform, column.codes,
                              table.line_no)[column.codes]
        try:
            specs.append(FeatureSpec(name=name, kind=KIND_CONTINUOUS,
                                     min=float(vals.min()), max=float(vals.max()),
                                     transform=transform))
        except ValueError as exc:  # a range float64 cannot bin
            raise ParseError(str(exc)) from None
    return FeatureSchema(features=specs)


@dataclass(frozen=True)
class LabelMap:
    """Raw attack label -> class index, with an unknown-label policy, valid
    once built.

    raw_to_class is held as a read-only mapping and class_names as a tuple.
    Construction, dataclasses.replace included, raises ValueError when the
    class names are not distinct strings, when strict is not a bool, or when
    fallback_class or a mapped class index is not an integer in
    [0, len(class_names)).
    """

    raw_to_class: Mapping[str, int]
    class_names: tuple[str, ...] = tuple(CLASS_NAMES)
    strict: bool = False
    fallback_class: int = 0

    def __post_init__(self):
        object.__setattr__(self, "raw_to_class", MappingProxyType(dict(self.raw_to_class)))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        names = self.class_names
        if not all(isinstance(n, str) for n in names) or len(set(names)) != len(names):
            raise ValueError(f"label map class names must be distinct strings, got {names!r}")
        if not isinstance(self.strict, bool):
            raise ValueError(f"label map strict must be true or false, got {self.strict!r}")
        classes = len(self.class_names)
        for c in (*self.raw_to_class.values(), self.fallback_class):
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < classes:
                raise ValueError(f"label map class index {c!r} is not an integer "
                                 f"in [0, {classes})")

    def to_dict(self) -> dict:
        return {
            "raw_to_class": dict(sorted(self.raw_to_class.items())),
            "class_names": list(self.class_names),
            "strict": self.strict,
            "fallback_class": self.fallback_class,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LabelMap":
        """The label map to_dict wrote."""
        return cls(
            raw_to_class=d["raw_to_class"],
            class_names=d["class_names"],
            strict=d.get("strict", False),
            fallback_class=d.get("fallback_class", 0),
        )


def load_label_map(path=None) -> LabelMap:
    """Load 'raw_label,category' pairs; default is the file shipped in-package.

    The map's policy is the default one: unknown labels warn and map to
    class 0. The map is frozen; dataclasses.replace(load_label_map(),
    strict=True) or (..., fallback_class=1) gives one with another policy.
    """
    if path is None:
        text = (resources.files("hdnids") / "data" / "attack_categories.txt").read_text(
            encoding="utf-8")
        source = "<packaged attack_categories.txt>"
    else:
        text = Path(path).read_text(encoding="utf-8")
        source = str(path)
    mapping: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"{source} line {line_no}: expected 'raw_label,category'")
        raw, category = parts
        if category not in CLASS_NAMES:
            raise ParseError(
                f"{source} line {line_no}: unknown category {category!r} "
                f"(expected one of {CLASS_NAMES})"
            )
        if raw in mapping:
            raise ParseError(f"{source} line {line_no}: duplicate label {raw!r}")
        mapping[raw] = CLASS_NAMES.index(category)
    if not mapping:
        raise ParseError(f"{source}: empty label map")
    return LabelMap(raw_to_class=mapping)


def map_label(raw: str, label_map: LabelMap) -> int:
    """Class index for a raw label, applying the unknown-label policy: an
    unknown label raises UnknownLabelError under a strict map, and else
    warns, on every call, and maps to the fallback class."""
    idx = label_map.raw_to_class.get(raw)
    if idx is not None:
        return idx
    if label_map.strict:
        raise UnknownLabelError(f"unknown attack label {raw!r}")
    log.warning(
        "unknown attack label %r mapped to fallback class %r",
        raw, label_map.class_names[label_map.fallback_class],
    )
    return label_map.fallback_class


def _classes(labels: Column, label_map: LabelMap, rows=None) -> np.ndarray:
    """Class index of every record, or of the records at index array rows in
    that order, each distinct raw label stripped and looked up once.

    Each distinct unknown label goes through map_label once, in the order
    the records meet them, so strict mode raises on the first and fallback
    mode warns once per call about each, in that order.
    """
    codes = labels.codes if rows is None else labels.codes[rows]
    raw = [v.strip() for v in labels.values] + [None]  # a code of -1 picks the None
    known = np.array([label_map.raw_to_class.get(v, -1) for v in raw], dtype=np.int64)
    out = known[codes]
    unknown = np.flatnonzero(out < 0)
    if unknown.size:
        _, first = np.unique(codes[unknown], return_index=True)
        mapped: dict = {}  # codes whose strings strip to one label share its call
        for i in np.sort(unknown[first]).tolist():
            label = raw[codes[i]]
            if label not in mapped:
                mapped[label] = map_label(label, label_map)
            known[codes[i]] = mapped[label]
        out = known[codes]
    return out


@dataclass(frozen=True)
class SplitSpec:
    """A seeded stratified cut of one labelled file into (train, test), valid
    once built: construction raises ValueError naming the field when seed is
    not an integer or train_fraction is not a number in (0, 1)."""

    train_fraction: float = 0.8
    seed: int = 42

    def __post_init__(self):
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        fraction = self.train_fraction
        if not (isinstance(fraction, numbers.Real) and not isinstance(fraction, bool)
                and 0.0 < fraction < 1.0):
            raise ValueError(f"train_fraction must be in (0, 1), got {fraction!r}")


def split(table: RecordTable, spec: SplitSpec, label_map: LabelMap):
    """Cut a RecordTable into (train, test) RecordTables, each in file order
    and sharing the table's dictionaries.

    Shuffles with the seed's split stream (codebook.stream, so any integer
    seed works, taken mod 2**64) and cuts per class so every class with at
    least two members lands on both sides; singleton classes go wholly to
    train with a warning (never an abort; u2r is tiny).
    """
    if len(table) < 2:
        raise ValueError("random split needs at least 2 records")

    perm = stream(spec.seed, _SPLIT_STREAM_TAG).permutation(len(table))
    classes = _classes(table.labels, label_map, perm)
    train_idx = [np.empty(0, dtype=np.int64)]
    test_idx = [np.empty(0, dtype=np.int64)]
    for cls in np.unique(classes).tolist():
        idxs = perm[classes == cls]
        if len(idxs) < 2:
            log.warning(
                "class %r has %d record(s); placing all in train",
                label_map.class_names[cls], len(idxs),
            )
            train_idx.append(idxs)
            continue
        k = int(math.floor(spec.train_fraction * len(idxs) + 0.5))
        k = min(max(k, 1), len(idxs) - 1)
        train_idx.append(idxs[:k])
        test_idx.append(idxs[k:])
    return (table.take(np.sort(np.concatenate(train_idx))),
            table.take(np.sort(np.concatenate(test_idx))))


def class_indices(table: RecordTable, label_map: LabelMap) -> np.ndarray:
    """Mapped class index of each record of a RecordTable, as an int64 array."""
    return _classes(table.labels, label_map)
