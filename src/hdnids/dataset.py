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
commas and keys every field of a well-formed line by its bytes and its
length, so embedded NUL bytes cannot merge two strings, and groups equal
keys by sorting. Only one field's bytes per group and each record's group
number in the block (int8 or int16, as a block holds at most _BLOCK_LINES
groups) outlive the block, so the transients stay a few MB whatever the
file's size. At the end each field's groups are merged the same way and
each distinct byte string is decoded once; then, with the merges'
transients freed, the line numbers and every field's codes are built in
one allocation. On a large file that one block is mapped apart from the
heap, so the table neither pins heap the parse freed nor leaves holes in
it, and its memory goes back to the system whole when the table dies.

A field is keyed by at most _KEY_BYTES bytes, which bounds a key's width
whatever a line holds. Lines that are not plainly well formed (a blank
line, a comma count other than 41 or 42, or 40 with allow_unlabeled, a
field longer than _KEY_BYTES, a difficulty that int() rejects) are decoded
and read by parse_line, so their records, errors and line numbers are its
own.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

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
# the longest field keyed by its bytes; a line with a longer one goes to parse_line
_KEY_BYTES = 63
# zero bytes after the lines read, so every 8-byte key word read stays inside the buffer
_PAD = _KEY_BYTES + 8
# _MASKS[k] keeps the first k bytes of a little-endian word
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


class ParseError(ValueError):
    """Malformed dataset input (wrong arity, bad numerics, wrong file)."""


def numeric_column(values, name: str, transform: str, lines=None) -> np.ndarray:
    """A continuous column's raw strings as float64, log1p(max(v, 0)) when
    transform is "log1p".

    The one reader of continuous values, for schema inference and binning
    alike, so a schema's [min, max] and the bins always see the same
    numbers. Raises ParseError naming the column and the first value that
    is not a finite number, with its line number when lines (one per value)
    is given and the line is not 0, which stands for no line.
    """
    try:
        vals = np.asarray(values, dtype=np.float64)
        finite = bool(np.isfinite(vals).all())
    except ValueError:
        finite = False
    if not finite:
        for i, v in enumerate(values):
            try:
                if math.isfinite(float(v)):
                    continue
            except ValueError:
                pass
            where = f"line {lines[i]}: " if lines is not None and lines[i] else ""
            raise ParseError(f"{where}column {name!r} has non-numeric value {v!r}")
        raise ParseError(f"column {name!r} has a non-numeric value")
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

    Record i holds values[codes[i]], or no such field when codes[i] is -1.
    values may repeat a string (parse_file gives each field longer than
    _KEY_BYTES an entry of its own) and, in a table cut by RecordTable.take,
    hold strings no record uses. codes is in the dtype
    _code_dtype(len(values)) gives, int8 up to 128 strings.
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
    """Column of a sequence of strings (None for none), in first-occurrence order."""
    lut: dict = {}
    # keyed with the type too, so 1, 1.0 and True stay apart as they do as strings
    codes = [-1 if s is None else lut.setdefault((type(s), s), len(lut)) for s in strings]
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
        return _record(tuple(c.values[c.codes[i]] for c in self.features),
                       self._string(self.labels, i), self._string(self.difficulty, i),
                       int(self.line_no[i]))

    def __iter__(self):
        columns = zip(*(c.strings() for c in self.features))
        return map(_record, columns, self.labels.strings(), self.difficulty.strings(),
                   self.line_no.tolist())

    @staticmethod
    def _string(column: Column, i: int):
        code = column.codes[i]
        return None if code < 0 else column.values[code]

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

        Every row must have width values; a ValueError names the first that
        does not. Each field is dictionary-encoded one Python value at a time.
        """
        rows = [tuple(r) for r in rows]
        for i, r in enumerate(rows):
            if len(r) != width:
                raise ValueError(f"record {i} has {len(r)} values, expected {width}")
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


def parse_line(line: str, line_no: int = 0, allow_unlabeled: bool = False) -> RawRecord:
    """Parse one comma-separated record line.

    Accepts 42 fields (features + label) or 43 (+ difficulty); 41 bare
    feature fields are allowed only when allow_unlabeled is set.
    """
    fields = line.split(",")
    n = len(fields)
    if n == NUM_FEATURES + 1:
        values, label, difficulty = fields[:NUM_FEATURES], fields[NUM_FEATURES], None
    elif n == NUM_FEATURES + 2:
        values, label = fields[:NUM_FEATURES], fields[NUM_FEATURES]
        try:
            difficulty = int(fields[NUM_FEATURES + 1])
        except ValueError:
            raise ParseError(
                f"line {line_no}: difficulty column {fields[NUM_FEATURES + 1]!r} "
                "is not an integer"
            ) from None
    elif allow_unlabeled and n == NUM_FEATURES:
        values, label, difficulty = fields, None, None
    else:
        raise ParseError(
            f"line {line_no}: expected {NUM_FEATURES + 1} or {NUM_FEATURES + 2} "
            f"comma-separated fields, got {n}"
        )
    return RawRecord(
        values=tuple(values),
        label=None if label is None else label.strip(),
        difficulty=difficulty,
        line_no=line_no,
    )


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

    A key holds a field's bytes, little-endian, in w words, zero past the
    field, and the field's length in the top byte of the last word; w is
    the least word count that leaves that byte free for every field. Equal
    keys therefore mean equal bytes, whatever the machine's byte order.
    """
    words_at = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    w = int(lens.max()) // 8 + 1 if len(lens) else 1
    keys = np.empty((w, len(lens)), dtype=np.uint64)
    for k in range(w):
        np.bitwise_and(words_at[starts + 8 * k], _MASKS[np.clip(lens - 8 * k, 0, 8)],
                       out=keys[k])
    keys[-1] |= lens.astype(np.uint64) << np.uint64(56)
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


def _group(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """(inverse, rep) of byte fields: fields with equal keys share a number;
    a field longer than _KEY_BYTES has one of its own."""
    long = np.flatnonzero(lens > _KEY_BYTES)
    short = np.flatnonzero(lens <= _KEY_BYTES) if long.size else slice(None)
    keys = _keys(buf, starts[short], lens[short])
    inverse, rep = _distinct(keys[0])
    for word in keys[1:]:  # pairs of numbers to one number, word by word
        word_inverse, word_rep = _distinct(word)
        inverse, rep = _distinct(inverse * len(word_rep) + word_inverse)
    if not long.size:
        return inverse, rep
    out = np.empty(len(lens), dtype=np.int64)
    out[short] = inverse
    out[long] = len(rep) + np.arange(len(long))
    return out, np.concatenate((short[rep], long))


def _joined(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The byte fields buf[starts[i]:starts[i] + lens[i]] end to end, each
    followed by a comma."""
    width = lens + 1
    stops = np.cumsum(width)
    at = np.repeat(starts - (stops - width), width) + np.arange(stops[-1] if len(stops) else 0)
    joined = buf[at]
    joined[stops - 1] = 44
    return joined


def _decode(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> list:
    """The decoded strings of the byte fields buf[starts[i]:starts[i] + lens[i]].

    Fields hold no commas, so the fields joined by commas decode in one
    call and split back into each field.
    """
    if not len(lens):
        return []
    return _joined(buf, starts, lens)[:-1].tobytes().decode().split(",")


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


def _merge(rep_bytes: list):
    """(values, lut) of one field: the groups' bytes, end to end with a comma
    after each, grouped again over the blocks; values holds each distinct
    byte string decoded once, lut[g] the index in values of group g, and
    lut[-1] is -1, in the dtype _code_dtype(len(values)) gives."""
    blob = np.frombuffer(b"".join([*rep_bytes, bytes(_PAD)]), dtype=np.uint8)
    field_len = np.flatnonzero(blob == 44)  # each field's end, until made its length
    field_at = np.empty_like(field_len)
    field_at[:1] = 0
    np.add(field_len[:-1], 1, out=field_at[1:])
    field_len -= field_at
    inverse, rep = _group(blob, field_at, field_len)
    lut = np.empty(len(inverse) + 1, dtype=_code_dtype(len(rep)))
    lut[:-1] = inverse
    lut[-1] = -1
    del inverse
    # the distinct fields decoded in the blob's order, picked by a byte
    # mask, then put in rep's order
    first = np.zeros(len(field_len), dtype=bool)
    first[rep] = True
    keep = np.repeat(first, field_len + 1)
    del first, field_at, field_len
    text = blob[:len(keep)][keep].tobytes()
    del blob, keep
    decoded = text.decode().split(",")[:-1]
    del text
    rank = np.empty(len(rep), dtype=np.int64)
    rank[np.argsort(rep)] = np.arange(len(rep))
    return [decoded[r] for r in rank.tolist()], lut


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _scan(fh, allow_unlabeled: bool):
    """Group every field of the lines of fh, block by block.

    Returns (rep_bytes, slots, line_no, malformed, total): per field, per
    block, the bytes of one field of each group, each followed by a comma
    (fields hold none), and (the groups counted over the blocks before it,
    each record's group in the block or -1 where it lacks the field); per
    block, each record's line number; the (line_no, reason) pairs of the
    malformed lines; and the count of lines that are not blank.
    """
    arity = [NUM_FEATURES, NUM_FEATURES + 1] + ([NUM_FEATURES - 1] if allow_unlabeled else [])
    rep_bytes = [[] for _ in range(_FIELDS)]
    reps = [0] * _FIELDS
    slots = [[] for _ in range(_FIELDS)]
    line_no: list[np.ndarray] = []
    malformed: list[tuple[int, str]] = []
    total = 0
    lines_before = 0
    for buf, size in _runs(fh):
        text = memoryview(buf)
        starts, stops = _line_bounds(buf, size)
        for b in range(0, len(starts), _BLOCK_LINES):
            first, end = starts[b:b + _BLOCK_LINES], stops[b:b + _BLOCK_LINES]
            base = lines_before + b + 1  # the block's first line number
            count, seps, lens = _fields(buf, first, end)
            fast = np.isin(count, arity) & (lens.max(axis=0) <= _KEY_BYTES)
            scored = np.flatnonzero(fast & (count == NUM_FEATURES + 1))
            if scored.size:  # a difficulty int() rejects makes parse_line's error
                field_at = seps[_FIELDS - 1, scored] + 1
                field_len = lens[_FIELDS - 1, scored]
                inverse, rep = _group(buf, field_at, field_len)
                ok = [_is_int(v) for v in _decode(buf, field_at[rep], field_len[rep])]
                fast[scored[~np.array(ok)[inverse]]] = False

            keep = fast.copy()
            for i in np.flatnonzero(~fast).tolist():
                line = str(text[first[i]:end[i]], "utf-8")
                if not line.strip():
                    continue
                total += 1
                try:
                    parse_line(line, base + i, allow_unlabeled=allow_unlabeled)
                    keep[i] = True
                except ParseError as exc:
                    malformed.append((base + i, str(exc)))
            total += int(fast.sum())

            rows = np.flatnonzero(keep)
            line_no.append(base + rows)
            if len(rows) < len(keep):
                seps, lens = seps[:, rows], lens[:, rows]
            for j in range(_FIELDS):
                has = slice(None) if j < NUM_FEATURES else lens[j] >= 0
                field_at, field_len = seps[j, has] + 1, lens[j, has]
                inverse, rep = _group(buf, field_at, field_len)
                slot = np.full(len(rows), -1, dtype=_code_dtype(len(rep)))
                slot[has] = inverse
                slots[j].append((reps[j], slot))
                rep_bytes[j].append(_joined(buf, field_at[rep], field_len[rep]).tobytes())
                reps[j] += len(rep)
        lines_before += len(starts)
    return rep_bytes, slots, line_no, malformed, total


def parse_file(path, allow_unlabeled: bool = False) -> ParseResult:
    """Parse a whole NSL-KDD text file into a RecordTable.

    Line ends and blank lines are read as in Python's text mode, with
    invalid UTF-8 replaced by U+FFFD. Malformed lines are collected (with
    reasons), not silently dropped; more than 1% malformed lines aborts
    with a ParseError since that almost certainly means the wrong file was
    given, and so does a file with no records at all (empty or blank lines
    only). Blank lines count toward line numbers but not toward the 1%.
    """
    path = Path(path)
    # the block transients die with _scan, before the fields are merged
    with open(path, encoding="utf-8", errors="replace") as fh:
        rep_bytes, slots, line_no, malformed, total = _scan(fh, allow_unlabeled)

    if not total:
        raise ParseError(f"{path}: no records")
    if len(malformed) / total > 0.01:
        raise ParseError(
            f"{path}: {len(malformed)} of {total} lines malformed (>1%); "
            f"first: {malformed[0][1]}"
        )
    if malformed:
        log.warning("%s: %d malformed line(s) skipped", path, len(malformed))

    merged = []
    for j in range(_FIELDS):
        merged.append(_merge(rep_bytes[j]))
        rep_bytes[j] = None
    # the line numbers and every field's codes share one allocation, made
    # once the merges' transients are freed: the table is one block of
    # memory, taken and given back whole
    records = sum(map(len, line_no))
    numbers, *codes = _carve(records, [np.dtype(np.int64)] + [lut.dtype for _, lut in merged])
    np.concatenate(line_no, out=numbers)
    columns = []
    for j, (values, lut) in enumerate(merged):  # each field's blocks freed as its codes are built
        at = 0
        for before, slot in slots[j]:
            # lut[before:][-1] is lut[-1], -1, for a record that lacks the field
            codes[j][at:at + len(slot)] = lut[before:][slot]
            at += len(slot)
        slots[j] = merged[j] = None
        columns.append(Column(values, codes[j]))
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
    only; the schema's class names are CLASS_NAMES.

    Symbolic columns (protocol_type, service, flag) become categorical with
    lexicographically sorted vocabularies. Numeric columns whose raw strings
    are all "0"/"1" become two-category indicators; the rest are continuous
    with [min, max] taken over the (optionally log1p-transformed) training
    values.
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
        try:
            vals = numeric_column(column.values, name, transform)[column.codes]
        except ParseError:
            # record by record: names the first bad value and its line, or
            # reads a table whose dictionary holds a bad string no record uses
            vals = numeric_column(column.strings(), name, transform, table.line_no)
        specs.append(FeatureSpec(name=name, kind=KIND_CONTINUOUS,
                                 min=float(vals.min()), max=float(vals.max()),
                                 transform=transform))
    return FeatureSchema(features=specs, class_names=list(CLASS_NAMES))


@dataclass
class LabelMap:
    """Raw attack label -> class index, with an unknown-label policy."""

    raw_to_class: dict
    class_names: list = field(default_factory=lambda: list(CLASS_NAMES))
    strict: bool = False
    fallback_class: int = 0
    _warned: set = field(default_factory=set, repr=False)

    def to_dict(self) -> dict:
        return {
            "raw_to_class": dict(sorted(self.raw_to_class.items())),
            "class_names": list(self.class_names),
            "strict": self.strict,
            "fallback_class": self.fallback_class,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LabelMap":
        """The label map to_dict wrote; a mistyped policy raises ValueError."""
        strict = d.get("strict", False)
        fallback = d.get("fallback_class", 0)
        if not isinstance(strict, bool):
            raise ValueError(f"label map strict must be true or false, got {strict!r}")
        if not isinstance(fallback, int) or isinstance(fallback, bool):
            raise ValueError(f"label map fallback_class must be an integer, got {fallback!r}")
        return cls(
            raw_to_class=dict(d["raw_to_class"]),
            class_names=list(d["class_names"]),
            strict=strict,
            fallback_class=fallback,
        )


def load_label_map(path=None) -> LabelMap:
    """Load 'raw_label,category' pairs; default is the file shipped in-package.

    The map's policy is the default one: unknown labels warn and map to
    class 0. Set its strict and fallback_class fields to change that.
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
    """Class index for a raw label, applying the unknown-label policy."""
    idx = label_map.raw_to_class.get(raw)
    if idx is not None:
        return idx
    if label_map.strict:
        raise UnknownLabelError(f"unknown attack label {raw!r}")
    if raw not in label_map._warned:
        label_map._warned.add(raw)
        log.warning(
            "unknown attack label %r mapped to fallback class %r",
            raw, label_map.class_names[label_map.fallback_class],
        )
    return label_map.fallback_class


def _classes(labels: Column, label_map: LabelMap, rows=None) -> np.ndarray:
    """Class index of every record, or of the records at index array rows in
    that order, each distinct raw label stripped and looked up once.

    Unknown labels go through map_label in the order the records meet
    them, so strict mode raises on, and fallback mode warns about, the same
    labels in the same order as one map_label call per record.
    """
    codes = labels.codes if rows is None else labels.codes[rows]
    raw = [v.strip() for v in labels.values] + [None]  # a code of -1 picks the None
    known = np.array([label_map.raw_to_class.get(v, -1) for v in raw], dtype=np.int64)
    out = known[codes]
    unknown = np.flatnonzero(out < 0)
    if unknown.size:
        _, first = np.unique(codes[unknown], return_index=True)
        for i in np.sort(unknown[first]).tolist():
            known[codes[i]] = map_label(raw[codes[i]], label_map)
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
