"""Record encoding: bind each feature's base and value vectors, sum, binarize.

A record's encoding sets coordinate i when more than `threshold` of its
features' (base XOR value) rows have bit i set. EncoderTables holds those
bound rows per feature as packed uint64 words, and the whole count runs in
that packed domain, 64 coordinates per word:

- Counting. A carry-save tree of full adders folds the F gathered feature
  rows of a record block into ceil(log2(F + 1)) bit planes of the per-bit
  count (35 full and 3 half adders for NSL-KDD's 41 features), with no
  per-coordinate sums held anywhere.
- Threshold. `count > t` equals `count >= k` for k = floor(t) + 1, and a
  bit-sliced compare of the planes against that constant computes it. A
  negative t sets every coordinate and a t >= F none, for any float t.
- Padding. A row's bits past dim are zero in every table, so their count
  is zero and they stay clear; the one case that sets coordinates without
  counting (t < 0) takes them from a mask of the dim real bits.
- Distinct rows. Records with the same table row indices have the same
  encoding, so encode_dataset encodes each distinct index row once, and
  its EncodedDataset holds those rows and each record's index into them.
  The index rows are held in the narrowest unsigned dtype that indexes
  every table (uint8 for NSL-KDD), and the per-record matrix is freed
  once deduplicated, so only the distinct ones are alive while encoding.

The uint64 words are only ever gathered whole and combined by AND, XOR
and OR, never shifted or added, so bit j of a word stays bit j of the
same byte of the packed row whatever the machine's byte order. Batches
are fixed slices of the distinct rows and every row's bytes depend on its
own values alone, so the output is bit-identical at any worker count.
"""

from __future__ import annotations

import concurrent.futures
import math
import numbers
import os
import queue
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .codebook import KIND_CONTINUOUS, Codebook, FeatureSchema, FeatureSpec, padding_bits
from .dataset import RecordTable, RunningKeys, numeric_column

# Distinct records per encoder batch. Measured on the bench corpus (seed
# 3001, D=10000, 2 vCPUs, jobs 2, best of 3, whole encode_dataset, test /
# train file): 64: 0.22 / 1.06 s, 128: 0.22 / 1.00 s, 192: 0.18 / 0.83 s,
# 256: 0.17 / 0.79 s, 384: 0.17 / 0.80 s, 512: 0.19 / 0.87 s, 1024: 0.23 /
# 1.00 s, 2048: 0.24 / 1.00 s. At 256 the four (batch, D/64) word buffers
# a full adder touches take 1.3 MB, inside one core's 2 MB L2; at 512 not.
DEFAULT_BATCH_SIZE = 256


def default_threshold(schema: FeatureSchema) -> float:
    """Half the feature count; strict > makes half-integers tie-free."""
    return schema.num_features / 2.0


def checked_jobs(jobs):
    """jobs, when it is None or an integer >= 1: the one rule for every
    worker count the library and the CLI take. Anything else, 0 and a
    bool included, raises ValueError."""
    if jobs is not None and not (isinstance(jobs, numbers.Integral)
                                 and not isinstance(jobs, bool) and jobs >= 1):
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    return jobs


def run_chunks(fn: Callable[[int, int, object], None], n: int, chunk: int,
               jobs: int | None, scratch: Callable[[], object]) -> None:
    """Call fn(start, stop, held) on each fixed slice [k*chunk, (k+1)*chunk)
    of range(n), held one of the scratch() objects, which no two slices
    hold at once.

    With jobs > 1 the slices run on a thread pool of at most jobs, the
    slice count and four times the CPU count threads. Slice bounds depend
    on chunk alone, so the worker count cannot change what fn computes.
    One scratch() is made per thread, none when n is 0, all by the calling
    thread, so a worker's scratch comes from that thread's heap, which holds
    memory earlier steps freed, and not from a heap the C allocator would
    add for the worker. A slice that raises returns its scratch, so the
    other slices still run and the error reaches the caller. jobs is
    checked by checked_jobs; None runs one thread.
    """
    bounds = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
    workers = min(checked_jobs(jobs) or 1, len(bounds), 4 * (os.cpu_count() or 1))
    free: queue.SimpleQueue = queue.SimpleQueue()
    for _ in range(workers):
        free.put(scratch())

    def run(bound: tuple[int, int]) -> None:
        held = free.get()
        try:
            fn(*bound, held)
        finally:
            free.put(held)

    if workers <= 1:
        for bound in bounds:
            run(bound)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, bounds))  # re-raises a worker's exception


def value_index(column: Sequence, spec: FeatureSpec, bins: int, codes=None,
                lines=None) -> np.ndarray:
    """Index of each raw value among its feature's value rows, as int32.

    Continuous values are read by numeric_column (parsed, checked finite,
    transformed when the spec asks) and put in one of `bins` uniform-width
    bins over [min, max]; values are clipped into it first, so any value past
    it takes the edge bin, and a degenerate range (min == max) maps everything
    to bin 0. Categorical values take their position in the sorted
    vocabulary, and unseen ones len(vocabulary), the OOV row.

    Raises ParseError naming the column on a non-numeric or non-finite
    continuous value. column may be a dictionary, with codes each record's
    index into it and lines each record's line, as numeric_column reads them.
    """
    if spec.kind != KIND_CONTINUOUS:
        lut = {v: i for i, v in enumerate(spec.vocabulary)}
        return np.array([lut.get(str(v), len(lut)) for v in column], dtype=np.int32)
    lo, hi = spec.min, spec.max
    vals = np.clip(numeric_column(column, spec.name, spec.transform, codes, lines), lo, hi)
    if lo == hi:
        return np.zeros(vals.shape, dtype=np.int32)
    width = (hi - lo) / bins
    return np.clip(np.floor((vals - lo) / width), 0, bins - 1).astype(np.int32)


def lookup_level(
    feature_index: int,
    raw_value,
    codebook: Codebook,
    schema: FeatureSchema,
) -> np.ndarray:
    """Packed value row for one feature of one record.

    A level row for a continuous value, the category row for a known
    categorical value, the shared OOV row otherwise, so the lookup is total.
    """
    spec = schema.features[feature_index]
    row = (codebook.offsets[feature_index] + 1
           + int(value_index([raw_value], spec, codebook.bins)[0]))
    return codebook.matrix[row if row < codebook.offsets[feature_index + 1] else -1]


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """Packed binary encodings of many records, plus optional labels.

    Record i's encoding is rows[inverse[i]], so records with equal
    encodings can share one row; inverse None means one row per record, in
    order. Rows are packed uint8 (8 bits/byte, little bit order), so even
    one row per record of KDDTrain+ at D=10,000 fits in ~160 MB. The bits
    past dim in a row's last byte are always zero, so a popcount over a
    row's bytes counts only its dim real bits: given rows with padding bits
    set are copied and cleared, and others are kept as they are.

    The dataset is frozen, and rows, inverse and labels are read-only views
    of the arrays given (labels converted to int64 first), never copies of
    them: what was checked stays so through these names.
    """

    rows: np.ndarray
    dim: int
    labels: np.ndarray | None = None
    inverse: np.ndarray | None = None

    def __post_init__(self):
        rows, dim, labels, inverse = self.rows, self.dim, self.labels, self.inverse
        if rows.ndim != 2 or rows.dtype != np.uint8:
            raise ValueError("rows must be a 2-D uint8 array")
        if rows.shape[1] != (dim + 7) // 8:
            raise ValueError(
                f"rows have {rows.shape[1]} bytes, dim {dim} needs {(dim + 7) // 8}"
            )
        if inverse is None:
            inverse = np.arange(len(rows))
        inverse = np.asarray(inverse)
        if (inverse.ndim != 1 or inverse.dtype.kind not in "iu" or inverse.size
                and not 0 <= inverse.min() <= inverse.max() < len(rows)):
            raise ValueError(f"inverse must be 1-D integers in [0, {len(rows)})")
        if labels is not None and len(labels) != len(inverse):
            raise ValueError("labels length must match record count")
        padding = padding_bits(dim)
        if (rows[:, -1] & padding).any():
            rows = rows.copy()
            rows[:, -1] &= ~padding
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
        for name, array in (("rows", rows), ("inverse", inverse), ("labels", labels)):
            if array is not None:
                array = array.view()
                array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.inverse)

    @property
    def packed(self) -> np.ndarray:
        """Every record's encoding, (records, ceil(dim/8)) uint8. Allocates a
        new array of that size on each access; the library reads rows."""
        return self.rows[self.inverse]

    def unpack(self, sel) -> np.ndarray:
        """The records a slice or an index array selects, as (n, dim) uint8 0/1 rows."""
        return np.unpackbits(self.rows[self.inverse[sel]], axis=1, count=self.dim,
                             bitorder="little")


class EncoderTables:
    """Packed (base_j XOR value row) rows per feature, as uint64 words.

    tables[j] has one row per value index of feature j (see value_index):
    one per bin for a continuous feature; one per sorted vocabulary entry
    plus a final OOV row for a categorical one. Each row is the codebook's
    packed bytes zero-padded to whole 64-bit words, so a record's feature
    rows are gathered and counted a word (64 coordinates) at a time.
    """

    def __init__(self, codebook: Codebook, schema: FeatureSchema):
        self.schema = schema
        self.bins = codebook.bins
        self.dim = codebook.dim
        self.words = (self.dim + 63) // 64
        self.planes = schema.num_features.bit_length()  # ceil(log2(F + 1))
        matrix, offsets = codebook.matrix, codebook.offsets
        self.tables: list[np.ndarray] = []
        for j, spec in enumerate(schema.features):
            rows = matrix[offsets[j] + 1 : offsets[j + 1]]
            if spec.kind != KIND_CONTINUOUS:
                rows = np.vstack([rows, matrix[-1:]])
            bound = np.zeros((len(rows), self.words * 8), dtype=np.uint8)
            bound[:, : matrix.shape[1]] = np.bitwise_xor(rows, matrix[offsets[j]])
            self.tables.append(bound.view(np.uint64))
        # the narrowest dtype that indexes every table's rows
        self.index_dtype = np.min_scalar_type(max((len(t) for t in self.tables), default=1) - 1)
        # the most count buffers one encode_rows call holds at once; the
        # carry-save tree's shape depends on the feature count alone
        spare: list = []
        planes = self._count_planes(np.zeros((1, len(self.tables)), dtype=np.intp), spare)
        self.buffers = len(planes) + len(spare)
        # the dim real coordinates of a row; the bits past them stay zero
        self.real_bits = np.packbits(np.arange(self.words * 64) < self.dim,
                                     bitorder="little").view(np.uint64)

    def row_indices(self, table: RecordTable) -> np.ndarray:
        """(records, features) table row index of every value of a RecordTable,
        as index_dtype, each feature's distinct strings indexed once; a
        ParseError names the first record whose code points at a bad value."""
        idx = np.empty((len(table), self.schema.num_features), dtype=self.index_dtype)
        for j, (spec, column) in enumerate(zip(self.schema.features, table.features)):
            lut = value_index(column.values, spec, self.bins, column.codes, table.line_no)
            idx[:, j] = lut.astype(self.index_dtype)[column.codes]
        return idx

    def distinct_rows(self, table: RecordTable) -> tuple[np.ndarray, np.ndarray]:
        """(distinct, inverse): the distinct row index rows of a RecordTable,
        sorted as byte strings, and each record's position among them.

        One batch of byte keys into an empty RunningKeys. table is released
        once its row indices are built, so a caller that passes its last
        reference has it freed before the sort (CPython 3.11 and later move
        call arguments into the callee); the per-record index matrix is
        freed before this returns. Raises ValueError on a table without
        records or with other than one value per schema feature.
        """
        width = self.schema.num_features
        if len(table.features) != width:
            raise ValueError(f"records have {len(table.features)} values, expected {width}")
        if not len(table):
            raise ValueError("no records to encode")
        idx = self.row_indices(table)
        del table
        inverse, rep = RunningKeys().add(idx.view(np.uint8))
        return idx[rep], inverse

    def buffer_pool(self) -> list[np.ndarray]:
        """The buffers encode_rows needs for up to DEFAULT_BATCH_SIZE records:
        self.buffers (DEFAULT_BATCH_SIZE, words) uint64 arrays."""
        return [np.empty((DEFAULT_BATCH_SIZE, self.words), dtype=np.uint64)
                for _ in range(self.buffers)]

    def encode_rows(self, idx: np.ndarray, threshold: float, pool=None) -> np.ndarray:
        """(records, words) uint64 encodings of the records with row indices idx.

        pool is an optional list of (at least len(idx), words) uint64
        buffers, such as buffer_pool's, whose first len(idx) rows the count
        uses before it allocates any; self.buffers of them are enough, and
        the result may be one of them.

        Coordinate i of a record is set when more than threshold of its
        feature rows have bit i set, the strict rule, for any float
        threshold. With k the least count above threshold, the compare
        count >= k runs over the count's bit planes from the lowest set bit
        of k upwards: a set bit of k ANDs its plane in, a clear one ORs it
        in, so it needs no negation and no carries.
        """
        features = self.schema.num_features
        if threshold < 0:  # every count exceeds it: all dim real bits, no padding
            return np.broadcast_to(self.real_bits, (len(idx), self.words))
        if not threshold < features:  # no count exceeds it (NaN included)
            return np.zeros((len(idx), self.words), dtype=np.uint64)
        k = math.floor(threshold) + 1
        planes = self._count_planes(idx, [b[: len(idx)] for b in pool or ()])
        low = (k & -k).bit_length() - 1
        at_least = planes[low]
        for i in range(low + 1, len(planes)):
            op = np.bitwise_and if k >> i & 1 else np.bitwise_or
            op(at_least, planes[i], out=at_least)
        return at_least

    def _count_planes(self, idx: np.ndarray, spare: list) -> list[np.ndarray]:
        """Bit planes of every coordinate's count of set feature rows.

        planes[w] holds bit w of the count, for w below self.planes.
        Gathered rows enter a carry-save tree as they come: each weight
        keeps at most two pending rows, and a third is folded in by a full
        adder, whose sum stays at the weight and whose carry moves one
        weight up. Half adders then leave one row per weight (for every
        feature count below 5000 no weight ends empty and no carry passes
        the top one). Buffers are taken from spare before any is allocated,
        and those no plane holds at the end are left in it.
        """
        shape = (len(idx), self.words)

        def buffer() -> np.ndarray:
            return spare.pop() if spare else np.empty(shape, dtype=np.uint64)

        pending: list[list[np.ndarray]] = [[] for _ in range(self.planes)]

        def add(x: np.ndarray, w: int) -> None:
            while len(pending[w]) == 2:
                a, b = pending[w]
                t = buffer()
                np.bitwise_xor(a, b, out=t)
                np.bitwise_and(a, b, out=a)
                np.bitwise_and(t, x, out=b)
                np.bitwise_or(a, b, out=a)  # a: carry, majority of a, b, x
                np.bitwise_xor(t, x, out=x)  # x: sum, a ^ b ^ x
                spare.extend((b, t))
                pending[w] = [x]
                x, w = a, w + 1
            pending[w].append(x)

        # row_indices only yields in-range rows; mode="raise" would also
        # route every gather through a temporary copy of out
        for table, col in zip(self.tables, np.ascontiguousarray(idx.T)):
            add(np.take(table, col, axis=0, out=buffer(), mode="clip"), 0)
        planes = []
        for w, level in enumerate(pending):
            if len(level) == 2:
                a, b = level
                carry = buffer()
                np.bitwise_and(a, b, out=carry)
                np.bitwise_xor(a, b, out=a)
                spare.append(b)
                add(carry, w + 1)
            planes.append(level[0])
        return planes


def encode_dataset(
    records,
    codebook: Codebook,
    schema: FeatureSchema,
    threshold: float,
    labels: Sequence[int] | None = None,
    jobs: int | None = None,
) -> EncodedDataset:
    """Encode many records, each distinct one once, in fixed batches.

    records is a RecordTable or a sequence of plain value rows (read
    through RecordTable.from_rows); either way each record must have one
    value per schema feature. Records with equal table row indices have equal
    encodings, so only the distinct index rows are encoded, in
    DEFAULT_BATCH_SIZE slices of their sorted order, into the rows of the
    result; its inverse maps each record to its row. A row's bytes depend
    on its own values alone, so neither the batch size nor the worker count
    changes the output.

    records is read only, and released once its row indices are built: a
    caller that hands over its last reference has the table freed before
    they are deduplicated and the encodings allocated. That needs CPython
    3.11 or later, which moves call arguments into the callee; on 3.10 the
    caller's stack keeps the table until this returns.
    """
    held = [records if isinstance(records, RecordTable)
            else RecordTable.from_rows(records, schema.num_features)]
    del records
    tables = EncoderTables(codebook, schema)
    # popped as it is passed, so distinct_rows holds the last reference and
    # frees the table before its sort, unless the caller keeps one
    distinct, inverse = tables.distinct_rows(held.pop())
    rows = np.empty((len(distinct), (codebook.dim + 7) // 8), dtype=np.uint8)

    def encode(start: int, stop: int, pool: list) -> None:
        words = tables.encode_rows(distinct[start:stop], threshold, pool)
        rows[start:stop] = words.view(np.uint8)[:, : rows.shape[1]]

    run_chunks(encode, len(rows), DEFAULT_BATCH_SIZE, jobs, tables.buffer_pool)
    return EncodedDataset(rows, codebook.dim, labels, inverse)
