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

The uint64 words are only ever gathered whole and combined by AND, XOR
and OR, never shifted or added, so bit j of a word stays bit j of the
same byte of the packed row whatever the machine's byte order. Batches
are fixed slices of the distinct rows and every row's bytes depend on its
own values alone, so the output is bit-identical at any worker count.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from typing import Callable, Sequence

import numpy as np

from .codebook import KIND_CONTINUOUS, Codebook, FeatureSchema, FeatureSpec
from .dataset import ParseError, RecordTable, numeric_column

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


def run_chunks(fn: Callable[[int, int], None], n: int, chunk: int,
               jobs: int | None) -> None:
    """Call fn(start, stop) on each fixed slice [k*chunk, (k+1)*chunk) of range(n).

    With jobs > 1 the slices run on a thread pool of at most jobs, the
    slice count and four times the CPU count threads. Slice bounds depend
    on chunk alone, so the worker count cannot change what fn computes.
    """
    bounds = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
    workers = min(jobs or 1, len(bounds), 4 * (os.cpu_count() or 1))
    if workers <= 1:
        for s, e in bounds:
            fn(s, e)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda b: fn(*b), bounds))  # re-raises a worker's exception


def value_index(column: Sequence, spec: FeatureSpec, bins: int, lines=None) -> np.ndarray:
    """Index of each raw value among its feature's value rows, as int32.

    Continuous values are read by numeric_column (parsed, checked finite,
    transformed when the spec asks) and put in one of `bins` uniform-width
    bins over [min, max]; out-of-range values clamp to the edge bins and a
    degenerate range (min == max) maps everything to bin 0. Categorical
    values take their position in the sorted vocabulary, and unseen ones
    len(vocabulary), the OOV row.

    Raises ParseError naming the column on a non-numeric or non-finite
    continuous value, and its line when lines (one per value) is given.
    """
    if spec.kind != KIND_CONTINUOUS:
        lut = {v: i for i, v in enumerate(sorted(spec.vocabulary))}
        return np.array([lut.get(str(v), len(lut)) for v in column], dtype=np.int32)
    vals = numeric_column(column, spec.name, spec.transform, lines)
    lo, hi = spec.min, spec.max
    if lo == hi:
        return np.zeros(vals.shape, dtype=np.int32)
    width = (hi - lo) / bins
    idx = np.clip(np.floor((vals - lo) / width), 0, bins - 1).astype(np.int32)
    idx[vals >= hi] = bins - 1
    return idx


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


class EncodedDataset:
    """Packed binary encodings of many records, plus optional labels.

    Record i's encoding is rows[inverse[i]], so records with equal
    encodings can share one row; inverse None means one row per record, in
    order. Rows are packed uint8 (8 bits/byte, little bit order), so even
    one row per record of KDDTrain+ at D=10,000 fits in ~160 MB. The bits
    past dim in a row's last byte are always zero, so a popcount over a
    row's bytes counts only its dim real bits: given rows with padding bits
    set are copied and cleared, and others are kept as they are.
    """

    def __init__(self, rows: np.ndarray, dim: int, labels: np.ndarray | None = None,
                 inverse: np.ndarray | None = None):
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
        padding = np.uint8(0xFF << (dim % 8 or 8) & 0xFF)
        if (rows[:, -1] & padding).any():
            rows = rows.copy()
            rows[:, -1] &= ~padding
        self.rows = rows
        self.dim = dim
        self.inverse = inverse
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)

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
        # the dim real coordinates of a row; the bits past them stay zero
        self.real_bits = np.packbits(np.arange(self.words * 64) < self.dim,
                                     bitorder="little").view(np.uint64)

    def row_indices(self, table: RecordTable) -> np.ndarray:
        """(records, features) table row index of every value of a RecordTable,
        as int32, each feature's distinct strings indexed once."""
        idx = np.empty((len(table), self.schema.num_features), dtype=np.int32)
        for j, (spec, column) in enumerate(zip(self.schema.features, table.features)):
            try:
                idx[:, j] = value_index(column.values, spec, self.bins)[column.codes]
            except ParseError:
                # record by record: names the first bad value, or reads a table
                # whose dictionary holds a bad string no record uses
                idx[:, j] = value_index(column.strings(), spec, self.bins, table.line_no)
        return idx

    def encode_rows(self, idx: np.ndarray, threshold: float) -> np.ndarray:
        """(records, words) uint64 encodings of the records with row indices idx.

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
        planes = self._count_planes(idx)
        low = (k & -k).bit_length() - 1
        at_least = planes[low]
        for i in range(low + 1, len(planes)):
            op = np.bitwise_and if k >> i & 1 else np.bitwise_or
            op(at_least, planes[i], out=at_least)
        return at_least

    def _count_planes(self, idx: np.ndarray) -> list[np.ndarray]:
        """Bit planes of every coordinate's count of set feature rows.

        planes[w] holds bit w of the count, for w below self.planes.
        Gathered rows enter a carry-save tree as they come: each weight
        keeps at most two pending rows, and a third is folded in by a full
        adder, whose sum stays at the weight and whose carry moves one
        weight up. Half adders then leave one row per weight (for every
        feature count below 5000 no weight ends empty and no carry passes
        the top one).
        """
        shape = (len(idx), self.words)
        spare: list[np.ndarray] = []

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
    """
    width = schema.num_features
    table = records if isinstance(records, RecordTable) else RecordTable.from_rows(records, width)
    if len(table.features) != width:
        raise ValueError(f"records have {len(table.features)} values, expected {width}")
    if not len(table):
        raise ValueError("no records to encode")
    tables = EncoderTables(codebook, schema)
    idx = tables.row_indices(table)
    keys = idx.view(np.dtype((np.void, idx.shape[1] * idx.itemsize))).ravel()
    keys, inverse = np.unique(keys, return_inverse=True)
    distinct = keys.view(idx.dtype).reshape(len(keys), idx.shape[1])
    rows = np.empty((len(distinct), (codebook.dim + 7) // 8), dtype=np.uint8)

    def encode(start: int, stop: int) -> None:
        words = tables.encode_rows(distinct[start:stop], threshold)
        rows[start:stop] = words.view(np.uint8)[:, : rows.shape[1]]

    run_chunks(encode, len(rows), DEFAULT_BATCH_SIZE, jobs)
    return EncodedDataset(rows, codebook.dim, labels, inverse)
