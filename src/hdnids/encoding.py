"""Record encoding: bind each feature's base and value vectors, sum, binarize.

encode_dataset gathers precomputed per-feature XOR rows and accumulates
whole record blocks with numpy, optionally across a thread pool. Batch
boundaries are fixed by batch size alone, so the output is bit-identical
regardless of worker count. All arithmetic is integer until the final
threshold comparison.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Sequence

import numpy as np

from .codebook import KIND_CONTINUOUS, TRANSFORM_LOG1P, Codebook, FeatureSchema, FeatureSpec
from .dataset import ParseError

DEFAULT_BATCH_SIZE = 2048


def default_threshold(schema: FeatureSchema) -> float:
    """Half the feature count; strict > makes half-integers tie-free."""
    return schema.num_features / 2.0


def run_chunks(fn: Callable[[int, int], None], n: int, chunk: int,
               jobs: int | None) -> None:
    """Call fn(start, stop) on each fixed slice [k*chunk, (k+1)*chunk) of range(n).

    With jobs > 1 the slices run on a thread pool. Slice bounds depend on
    chunk alone, so the worker count cannot change what fn computes.
    """
    bounds = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]
    if jobs is None or jobs <= 1 or len(bounds) <= 1:
        for s, e in bounds:
            fn(s, e)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(lambda b: fn(*b), bounds))  # re-raises a worker's exception


def value_index(column: Sequence, spec: FeatureSpec, bins: int) -> np.ndarray:
    """Index of each raw value among its feature's value rows, as int32.

    Continuous values are parsed, transformed when the spec asks, and put
    in one of `bins` uniform-width bins over [min, max]; out-of-range values
    clamp to the edge bins and a degenerate range (min == max) maps
    everything to bin 0. Categorical values take their position in the
    sorted vocabulary, and unseen ones len(vocabulary), the OOV row.

    Raises ParseError naming the column on a non-numeric or non-finite
    continuous value.
    """
    if spec.kind != KIND_CONTINUOUS:
        lut = {v: i for i, v in enumerate(sorted(spec.vocabulary))}
        return np.array([lut.get(str(v), len(lut)) for v in column], dtype=np.int32)
    try:
        vals = np.asarray(column, dtype=np.float64)
    except ValueError as exc:
        raise ParseError(
            f"non-numeric value in continuous column {spec.name!r}: {exc}"
        ) from None
    if not np.all(np.isfinite(vals)):
        raise ParseError(f"non-finite value in continuous column {spec.name!r}")
    if spec.transform == TRANSFORM_LOG1P:
        vals = np.log1p(np.maximum(vals, 0.0))
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

    Rows are packed uint8 (8 bits/byte, little bit order) so a full
    KDDTrain+ encoding at D=10,000 fits in ~160 MB.
    """

    def __init__(self, packed: np.ndarray, dim: int, labels: np.ndarray | None = None):
        if packed.ndim != 2 or packed.dtype != np.uint8:
            raise ValueError("packed must be a 2-D uint8 array")
        if packed.shape[1] != (dim + 7) // 8:
            raise ValueError(
                f"packed rows have {packed.shape[1]} bytes, dim {dim} needs {(dim + 7) // 8}"
            )
        if labels is not None and len(labels) != packed.shape[0]:
            raise ValueError("labels length must match record count")
        self.packed = packed
        self.dim = dim
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)

    def __len__(self) -> int:
        return self.packed.shape[0]

    def unpack(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows [start:stop) as a float64 (n, dim) matrix for BLAS work."""
        block = self.packed[start:stop]
        bits = np.unpackbits(block, axis=1, count=self.dim, bitorder="little")
        return bits.astype(np.float64)


class EncoderTables:
    """Precomputed unpacked (base_j XOR value row) rows per feature.

    tables[j] has one row per value index of feature j (see value_index):
    one per bin for a continuous feature; one per sorted vocabulary entry
    plus a final OOV row for a categorical one. Encoding a record is then a
    row gather and add.
    """

    def __init__(self, codebook: Codebook, schema: FeatureSchema):
        self.schema = schema
        self.bins = codebook.bins
        self.dim = codebook.dim
        matrix, offsets = codebook.matrix, codebook.offsets
        self.tables: list[np.ndarray] = []
        for j, spec in enumerate(schema.features):
            rows = matrix[offsets[j] + 1 : offsets[j + 1]]
            if spec.kind != KIND_CONTINUOUS:
                rows = np.vstack([rows, matrix[-1:]])
            bound = np.bitwise_xor(rows, matrix[offsets[j]])
            self.tables.append(
                np.unpackbits(bound, axis=1, count=self.dim, bitorder="little")
            )
        # uint8 row sums are exact only while every coordinate fits in a byte
        self.sum_dtype = np.uint8 if schema.num_features < 250 else np.uint16

    def row_indices(self, rows: Sequence[Sequence], start: int, stop: int) -> np.ndarray:
        """Table row index for every (record, feature) in rows[start:stop)."""
        idx = np.empty((stop - start, self.schema.num_features), dtype=np.int32)
        for j, spec in enumerate(self.schema.features):
            idx[:, j] = value_index([rows[i][j] for i in range(start, stop)], spec, self.bins)
        return idx

    def encode_block(self, rows: Sequence[Sequence], start: int, stop: int,
                     threshold: float) -> np.ndarray:
        """Packed binary encodings for rows[start:stop)."""
        idx = self.row_indices(rows, start, stop)
        sums = np.zeros((stop - start, self.dim), dtype=self.sum_dtype)
        for j, table in enumerate(self.tables):
            sums += table[idx[:, j]]
        return np.packbits(sums > threshold, axis=1, bitorder="little")


def encode_dataset(
    rows: Sequence[Sequence],
    codebook: Codebook,
    schema: FeatureSchema,
    threshold: float,
    labels: Sequence[int] | None = None,
    jobs: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> EncodedDataset:
    """Encode many records through the gather-and-add batch path.

    Batches are fixed [k*batch_size, (k+1)*batch_size) slices, so worker
    count never changes the output bytes. Each batch is written straight
    into its rows of the one output array: collecting per-batch results
    and stacking them would hold two copies of the encodings at once.
    """
    if not rows:
        raise ValueError("no records to encode")
    for i, row in enumerate(rows):
        if len(row) != schema.num_features:
            raise ValueError(
                f"record {i} has {len(row)} values, schema expects {schema.num_features}"
            )
    tables = EncoderTables(codebook, schema)
    packed = np.empty((len(rows), (codebook.dim + 7) // 8), dtype=np.uint8)

    def encode(start: int, stop: int) -> None:
        packed[start:stop] = tables.encode_block(rows, start, stop, threshold)

    run_chunks(encode, len(rows), batch_size, jobs)
    lab = None if labels is None else np.asarray(labels, dtype=np.int64)
    return EncodedDataset(packed, codebook.dim, lab)
