"""Class-representative model: centroid training, retraining, inference, IO.

A model holds one (classes, dim) float64 matrix, a representative row per
class. The rows start as per-class sums of the binary training encodings.
Retraining then walks the samples in one fixed seeded order per run and,
for every sample the current model gets wrong, moves alpha times the
sample's bits from the wrongly predicted class's row onto the true class's.
Correct samples cause no update, so a fully correct epoch is a fixed
point and triggers early stop.

The inner loop is chunked for speed but is exactly equivalent to the
one-sample-at-a-time procedure: within a chunk, samples before the first
miss were scored under the unchanged model, and a miss update touches at
most two representative rows, so only the chunk tail's scores against
those two rows change. Each chunk's rows are gathered from the packed
rows through the dataset's inverse, unpacked once and scored with one
GEMM. After a miss on row h, a later row h' has dot(h', h) =
popcount(h' AND h) (EncodedDataset keeps padding bits clear), so its dots
against the two moved rows shift by exactly alpha times that count and
are updated in place, in the packed domain.
All dots are sums of representative entries, which stay integers, or
multiples of alpha, small enough for float64 to hold exactly; for a dyadic
alpha (1, 0.5, 0.25, 2, ...) the in-place update therefore equals a fresh
dot product to the bit, and the representatives and trace come out
byte-identical to rescoring the tail.

Every float64 dot product (retraining's chunk-start scores, and those of
_score, which predict_batch and predict_table use) goes through _dots. It
converts unpacked 0/1 rows to float64 a few rows at a time into one reused
block of _DOT_BLOCK_BYTES and runs the thin (rows, dim) @ (dim, classes)
GEMM on it. At D=10000 a whole 64-row chunk is 5 MB of float64, more than a
core's 2 MB L2 on the 2-vCPU Xeon this was tuned on, so converting it in
one go and then multiplying reads it back from memory; an 8-row block (640
KB) is read while still in cache. Each retraining miss's tail popcount runs
over the chunk's rows padded to whole uint64 words (157 words at D=10000,
not 1,250 bytes).

Blocking cannot change a dot product that is exact: a sum of integers, or
of multiples of a dyadic alpha, below 2**53 has one float64 value whatever
order a BLAS kernel adds it in, so any block size gives the same bits. A
non-dyadic alpha rounds the representatives; there the last bits of a dot
product depend on the GEMM kernel, which BLAS picks by the call's shape
and, within a call, by the row's place in the kernel's unrolled tiles.
Every GEMM therefore runs on a whole block of the same shape, the last
block of a call zero-filled past its real rows, and a block's row count is
a multiple of 8, so no row falls in a short tail tile (on OpenBLAS's
Haswell kernel, 7-row blocks of one shape still gave position-dependent
bits; multiples of 4 did not). A record's scores then do not depend on
where it sits in the input or how many records come with it. They may
still differ between BLAS builds and between block sizes. Retraining only
takes argmaxes of those scores, and its models matched bytes across block
sizes at alpha 0.1 on the test and benchmark corpora.

Model files are a versioned binary container (magic, format version,
JSON header, raw array payload, SHA-256 trailer); see README for the
exact byte layout.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import logging
import math
import numbers
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import encoding
from .codebook import Codebook, FeatureSchema, row_offsets, stream
from .dataset import LabelMap, RecordTable
from .encoding import (
    DEFAULT_BATCH_SIZE,
    EncodedDataset,
    default_threshold,
    padding_bits,
    run_chunks,
)

log = logging.getLogger(__name__)

MAGIC = b"HDNIDS01"
FORMAT_VERSION = 1

_RETRAIN_STREAM_TAG = 0x7EA11
# rows per scoring and centroid-summing chunk
_CHUNK = 128
# results are chunk-size independent; 64 measured fastest on the 125,973-record
# benchmark corpus on 2 vCPUs (48 to 192 tried): larger chunks redo a longer
# tail argmax after every miss, smaller ones make more per-chunk GEMM calls
_RETRAIN_CHUNK = 64
# bytes of the float64 block _dots converts unpacked rows into before each
# GEMM, rounded down to a multiple of 8 rows (at least 8): 8 rows at D=10000,
# which stays in L2 (see the module docstring)
_DOT_BLOCK_BYTES = 640_000


class CorruptModelError(ValueError):
    """Model file is truncated, checksum-mismatched, wrongly versioned, or
    has a header inconsistent with its arrays."""


@dataclass(frozen=True)
class Hyperparams:
    """The classifier's settings, valid once built.

    Construction, dataclasses.replace included, raises ValueError naming the
    first field that is out of range: dim, bins, iterations and seed are
    integers with dim >= 1, 1 <= bins <= dim and iterations >= 0; alpha is
    finite and > 0; threshold is None or finite.
    """

    dim: int = 10000
    bins: int = 10
    threshold: float | None = None  # None means features/2, resolved at train time
    alpha: float = 1.0
    iterations: int = 50
    seed: int = 42
    log_scale: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        """The fields d holds; other keys are ignored."""
        return cls(**{f.name: d[f.name] for f in dataclasses.fields(cls) if f.name in d})

    def __post_init__(self) -> None:
        for name in ("dim", "bins", "iterations", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 1 <= self.bins <= self.dim:
            raise ValueError(f"bins must be in [1, dim={self.dim}], got {self.bins}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not _finite(self.alpha) or self.alpha <= 0:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha!r}")
        if self.threshold is not None and not _finite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")


def _finite(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class ClassModel:
    """A trained classifier, valid once built. reps holds one float64
    representative row per class: a (len(label_map.class_names),
    hyperparams.dim) matrix.

    Construction, dataclasses.replace included, raises ValueError when reps
    has another type, dtype or shape, or holds a NaN or infinite entry or a
    row whose squared norm is not finite, against which every cosine reads 0.
    """

    reps: np.ndarray
    codebook: Codebook
    schema: FeatureSchema
    label_map: LabelMap
    hyperparams: Hyperparams

    def __post_init__(self) -> None:
        shape = (len(self.label_map.class_names), self.hyperparams.dim)
        reps = self.reps
        if not (isinstance(reps, np.ndarray) and reps.dtype == np.float64
                and reps.shape == shape):
            got = (f"{reps.dtype} {reps.shape}" if isinstance(reps, np.ndarray)
                   else type(reps).__name__)
            raise ValueError(f"reps must be a {shape} float64 array, got {got}")
        if not np.isfinite(reps).all():
            raise ValueError("representatives hold a non-finite value")
        with np.errstate(over="ignore"):  # checked here, not warned about
            if not np.isfinite(np.linalg.norm(reps, axis=1)).all():
                raise ValueError("a representative's squared norm is not finite")

    @property
    def num_classes(self) -> int:
        return len(self.reps)

    @property
    def threshold(self) -> float:
        t = self.hyperparams.threshold
        return default_threshold(self.schema) if t is None else t

    @property
    def representatives(self) -> list:
        """Each row of reps, a view, as .values. Only the benchmark's oracle
        check reads this; ROADMAP item 2 deletes it."""
        return [SimpleNamespace(values=row) for row in self.reps]


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Raise ValueError naming the first label outside [0, num_classes)."""
    bad = labels[(labels < 0) | (labels >= num_classes)]
    if bad.size:
        raise ValueError(f"class index {int(bad[0])} outside [0, {num_classes})")


def _dot_block(dim: int) -> np.ndarray:
    """A float64 block for _dots at dim: a multiple of 8 rows (at least 8)
    that fits _DOT_BLOCK_BYTES."""
    return np.empty((8 * max(1, _DOT_BLOCK_BYTES // (64 * dim)), dim), dtype=np.float64)


def _dots(bits: np.ndarray, reps: np.ndarray, block: np.ndarray) -> np.ndarray:
    """float64 (n, classes) dot products of unpacked 0/1 rows (uint8, (n, dim))
    with each representative row, one cache-sized float64 block at a time.

    block is _dot_block(dim), the buffer each block's rows are converted
    into. Every GEMM runs on the whole block, its row count a multiple of 8,
    the last one zero-filled past its real rows, so a row's dots do not
    depend on where it sits in bits even when BLAS rounds them (see the
    module docstring)."""
    n = len(bits)
    step = len(block)
    out = np.empty((-(-n // step) * step, reps.shape[0]), dtype=np.float64)
    for start in range(0, n, step):
        rows = bits[start:start + step]
        block[:len(rows)] = rows
        block[len(rows):] = 0
        np.matmul(block, reps.T, out=out[start:start + step])
    return out[:n]


def train_initial(encoded: EncodedDataset, num_classes: int) -> np.ndarray:
    """Per-class sums of the binary training vectors: the (num_classes, dim)
    float64 matrix a ClassModel holds.

    A class with no samples keeps an all-zero row (logged); cosine
    against an all-zero representative is defined as 0, so inference
    still works.
    """
    if len(encoded) == 0:
        raise ValueError("empty training set")
    if encoded.labels is None:
        raise ValueError("training data must carry labels")
    _check_labels(encoded.labels, num_classes)
    # exact integer counts: each chunk of at most _CHUNK rows of one class is
    # summed in uint16, which cannot overflow, then added to the int64 total
    counts = np.zeros((num_classes, encoded.dim), dtype=np.int64)
    for c in range(num_classes):
        members = np.flatnonzero(encoded.labels == c)
        for start in range(0, len(members), _CHUNK):
            bits = encoded.unpack(members[start:start + _CHUNK])
            counts[c] += bits.sum(axis=0, dtype=np.uint16)
    for c in range(num_classes):
        if not counts[c].any():
            log.warning("class %d has no training samples; representative is zero", c)
    return counts.astype(np.float64)


def _reps_and_norms(model: ClassModel) -> tuple[np.ndarray, np.ndarray]:
    """What _score reads of a model: its (classes, dim) representatives and
    their norms, an all-zero row's taken as 1."""
    norms = np.linalg.norm(model.reps, axis=1)
    return model.reps, np.where(norms > 0, norms, 1.0)


def _score(packed: np.ndarray, dim: int, reps: np.ndarray, safe_norms: np.ndarray,
           block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(preds, sims) of packed rows, whose bits past dim are clear, against
    _reps_and_norms' (reps, safe_norms): int64 (n,) and float64 (n, classes).

    The similarity is dot(h, r) / (sqrt(|h|) * ||r||), |h| the set bits of
    h, and 0 when either side is all-zero; argmax wins, lowest index on
    ties. packed may run past the row's ceil(dim/8) bytes, zero-filled."""
    ones = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    h_norm = np.sqrt(ones.astype(np.float64))
    safe_h = np.where(h_norm > 0, h_norm, 1.0)
    bits = np.unpackbits(packed, axis=1, count=dim, bitorder="little")
    sims = (_dots(bits, reps, block) / safe_norms) / safe_h[:, None]
    return np.argmax(sims, axis=1), sims


def predict_batch(model: ClassModel, data: EncodedDataset, jobs: int | None = None):
    """Predictions and cosine similarities for a whole encoded dataset.

    Returns (preds, sims): int64 (n,) and float64 (n, num_classes), scored
    as _score says. Read-only on the model, chunked, and safe to
    parallelize; chunk boundaries are fixed so worker count cannot change
    the output. Each of data.rows is scored once and its results gathered
    to every record it encodes: a row's scores do not depend on its
    position (see the module docstring), so this gives the bits scoring
    every record would.
    """
    reps, safe_norms = _reps_and_norms(model)
    rows = data.rows
    preds = np.empty(len(rows), dtype=np.int64)
    sims = np.empty((len(rows), model.num_classes), dtype=np.float64)

    def score(start: int, stop: int, block: np.ndarray) -> None:
        preds[start:stop], sims[start:stop] = _score(rows[start:stop], data.dim, reps,
                                                     safe_norms, block)

    run_chunks(score, len(rows), _CHUNK, jobs, lambda: _dot_block(data.dim))
    return preds[data.inverse], sims[data.inverse]


def predict_table(model: ClassModel, table: RecordTable, jobs: int | None = None):
    """Predictions and cosine similarities for a RecordTable, without
    holding its encodings.

    Returns (preds, sims, inverse): int64 (u,) and float64 (u, num_classes)
    for the u distinct records, in encode_dataset's row order, and each
    record's int64 index into them, so record i is predicted preds[inverse[i]]
    with similarities sims[inverse[i]]. These are the bytes of
    predict_batch(model, encode_dataset(table, ...)), at any jobs.

    The distinct index rows are encoded in DEFAULT_BATCH_SIZE slices, each
    by one worker into its own buffers and scored in _CHUNK-row pieces while
    they are still in cache; only a slice's encodings exist at a time per
    worker. table is read only, and released once its distinct index rows
    are found: a caller that hands over its last reference (CPython 3.11
    and later) has it freed before any encoding is made.
    """
    # looked up in encoding, where hdbench's tracer times its construction
    tables = encoding.EncoderTables(model.codebook, model.schema)
    distinct, inverse = tables.distinct_rows(table)
    del table  # freed here unless the caller keeps it
    reps, safe_norms = _reps_and_norms(model)
    dim, threshold = model.codebook.dim, model.threshold
    preds = np.empty(len(distinct), dtype=np.int64)
    sims = np.empty((len(distinct), model.num_classes), dtype=np.float64)

    def encode_and_score(start: int, stop: int, scratch: tuple) -> None:
        pool, block = scratch
        words = tables.encode_rows(distinct[start:stop], threshold, pool)
        packed = words.view(np.uint8)  # whole words: the bytes past the row's are zero
        for s in range(start, stop, _CHUNK):
            e = min(s + _CHUNK, stop)
            preds[s:e], sims[s:e] = _score(packed[s - start:e - start], dim, reps,
                                           safe_norms, block)

    run_chunks(encode_and_score, len(distinct), DEFAULT_BATCH_SIZE, jobs,
               lambda: (tables.buffer_pool(), _dot_block(dim)))
    return preds, sims, inverse


def retrain(model: ClassModel, encoded: EncodedDataset):
    """Iterative miss/match refinement of the representatives, with the
    alpha, iterations and seed of model.hyperparams.

    For each misclassified sample, alpha times its vector is subtracted
    from the wrongly predicted representative and added to the true one;
    correct samples change nothing. Samples are visited in one seeded
    shuffle that is fixed across epochs, drawn from the seed's retrain
    stream (codebook.stream, so any integer seed works, taken mod 2**64).
    Stops early on a zero-update epoch, and raises ValueError when an
    update leaves a representative whose squared norm is not finite, where
    every cosine would read 0. Returns (updated model, per-epoch
    accuracy trace); the trace records the fraction of samples correct at
    the moment they were visited. At 0 iterations the representatives are
    unchanged and the trace is empty.
    """
    if encoded.labels is None:
        raise ValueError("retraining data must carry labels")
    _check_labels(encoded.labels, model.num_classes)
    alpha = float(model.hyperparams.alpha)  # an int alpha would keep alpha * bits in uint8
    m = len(encoded)

    reps = model.reps.copy()
    norms = np.linalg.norm(reps, axis=1)
    order = stream(model.hyperparams.seed, _RETRAIN_STREAM_TAG).permutation(m)
    at = encoded.inverse[order]  # each visited sample's row; EncodedDataset range-checks it
    dim = encoded.dim
    width = encoded.rows.shape[1]
    # each chunk's rows, zero-padded to whole uint64 words so the tail
    # popcounts after a miss run a word at a time
    padded = np.zeros((_RETRAIN_CHUNK, -(-width // 8) * 8), dtype=np.uint8)
    words = padded.view(np.uint64)
    block = _dot_block(dim)

    trace: list[float] = []
    for _ in range(model.hyperparams.iterations):
        correct = 0
        updates = 0
        for start in range(0, m, _RETRAIN_CHUNK):
            idx = order[start:start + _RETRAIN_CHUNK]
            b = len(idx)
            rows = padded[:b, :width]
            np.take(encoded.rows, at[start:start + b], axis=0, out=rows, mode="clip")
            y = encoded.labels[idx]
            bits = np.unpackbits(rows, axis=1, count=dim, bitorder="little")
            dots = _dots(bits, reps, block)
            pos = 0
            while pos < b:
                safe = np.where(norms > 0, norms, 1.0)
                preds = np.argmax(dots[pos:] / safe, axis=1)
                misses = np.nonzero(preds != y[pos:])[0]
                if misses.size == 0:
                    correct += b - pos
                    break
                i = pos + int(misses[0])
                correct += int(misses[0])
                wrong = int(preds[misses[0]])
                true = int(y[i])
                step = alpha * bits[i]
                reps[wrong] -= step
                reps[true] += step
                with np.errstate(over="ignore"):  # checked below, not warned about
                    norms[wrong] = np.linalg.norm(reps[wrong])
                    norms[true] = np.linalg.norm(reps[true])
                if not (math.isfinite(norms[wrong]) and math.isfinite(norms[true])):
                    raise ValueError(f"alpha {alpha!r} overflows the representatives: "
                                     "a squared norm passes float64's range")
                updates += 1
                pos = i + 1
                if pos < b:
                    # dot(h', h) for every later row h' is the popcount of
                    # their AND, so each tail dot moves by exactly alpha times it
                    delta = alpha * np.bitwise_count(words[pos:b] & words[i]).sum(axis=1)
                    dots[pos:, wrong] -= delta
                    dots[pos:, true] += delta
        trace.append(correct / m)
        if updates == 0:
            break

    return dataclasses.replace(model, reps=reps), trace


@contextlib.contextmanager
def atomic_write(path):
    """Binary handle on a temp file beside path, renamed to path when the
    block ends and removed when it raises, so a failing run never leaves a
    partial file behind."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _array_manifest(rows: int, width: int, classes: int, dim: int) -> list:
    return [
        {"name": "codebook", "dtype": "uint8", "shape": [rows, width]},
        {"name": "representatives", "dtype": "float64", "shape": [classes, dim]},
    ]


def save_model(model: ClassModel, path) -> None:
    """Write the model container atomically (temp file + rename)."""
    cb = model.codebook
    matrix = np.ascontiguousarray(cb.matrix)
    reps = np.ascontiguousarray(model.reps)
    header = {
        "format_version": FORMAT_VERSION,
        "hyperparams": model.hyperparams.to_dict(),
        "schema": model.schema.to_dict(),
        "label_map": model.label_map.to_dict(),
        "codebook": {"dim": cb.dim, "bins": cb.bins, "seed": cb.seed,
                     "rows": matrix.shape[0]},
        "arrays": _array_manifest(*matrix.shape, *reps.shape),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    body = bytearray()
    body += MAGIC
    body += FORMAT_VERSION.to_bytes(4, "little")
    body += len(header_bytes).to_bytes(8, "little")
    body += header_bytes
    body += matrix.tobytes()
    body += reps.tobytes()
    body += hashlib.sha256(body).digest()
    with atomic_write(path) as fh:
        fh.write(body)


def load_model(path) -> ClassModel:
    """Read a model container; any structural damage raises CorruptModelError."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 4 + 8 + 32:
        raise CorruptModelError(f"{path}: file too short to be a model")
    if blob[: len(MAGIC)] != MAGIC:
        raise CorruptModelError(f"{path}: bad magic bytes")
    digest = hashlib.sha256(blob[:-32]).digest()
    if digest != blob[-32:]:
        raise CorruptModelError(f"{path}: checksum mismatch (truncated or edited?)")
    version = int.from_bytes(blob[8:12], "little")
    if version != FORMAT_VERSION:
        raise CorruptModelError(
            f"{path}: format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    header_end = 20 + int.from_bytes(blob[12:20], "little")
    if header_end > len(blob) - 32:
        raise CorruptModelError(f"{path}: header runs past the end of the file")
    try:
        header = json.loads(blob[20:header_end].decode("utf-8"))
        fields = _header_fields(header)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptModelError(f"{path}: bad header: {exc!r}") from None
    try:
        return _model_from(*fields, blob[header_end:-32])
    except ValueError as exc:
        raise CorruptModelError(f"{path}: bad arrays: {exc!r}") from None


def _header_fields(header: dict) -> tuple:
    """(hyperparams, schema, label map, codebook row offsets) of a decoded
    header. Raises ValueError, KeyError or TypeError when a field is missing,
    mistyped or out of range, when the codebook manifest's dim, bins or seed
    differ from the hyperparams', or when the array manifest does not give
    the shapes the schema, codebook manifest and label map imply."""
    schema = FeatureSchema.from_dict(header["schema"])
    label_map = LabelMap.from_dict(header["label_map"])
    hyper = Hyperparams.from_dict(header["hyperparams"])
    manifest = header["codebook"]
    dim, bins, seed = hyper.dim, hyper.bins, hyper.seed
    if [manifest["dim"], manifest["bins"], manifest["seed"]] != [dim, bins, seed]:
        raise ValueError(f"codebook {manifest} was not built with the hyperparams' "
                         f"dim {dim}, bins {bins} and seed {seed}")
    classes = len(label_map.class_names)
    indices = [*label_map.raw_to_class.values(), label_map.fallback_class]
    if not all(isinstance(c, int) and not isinstance(c, bool) and 0 <= c < classes
               for c in indices):
        raise ValueError(f"label map has class indices that are not integers in [0, {classes})")

    offsets = row_offsets(schema, bins)
    rows = offsets[-1] + 1
    expected = _array_manifest(rows, (dim + 7) // 8, classes, dim)
    if manifest["rows"] != rows or header["arrays"] != expected:
        raise ValueError(f"arrays {header['arrays']} do not match the schema's {expected}")
    return hyper, schema, label_map, offsets


def _model_from(hyper: Hyperparams, schema: FeatureSchema, label_map: LabelMap,
                offsets: list, payload: bytes) -> ClassModel:
    """The model of _header_fields' parts and the array bytes. Raises
    ValueError when the payload's length is not the arrays', when a codebook
    row has bits set past dim, or when ClassModel rejects the representatives."""
    dim, classes = hyper.dim, len(label_map.class_names)
    rows, width = offsets[-1] + 1, (dim + 7) // 8
    need = rows * width + classes * dim * 8
    if len(payload) != need:
        raise ValueError(f"arrays take {len(payload)} bytes, the header implies {need}")
    matrix = np.frombuffer(payload, np.uint8, count=rows * width).reshape(rows, width)
    if (matrix[:, -1] & padding_bits(dim)).any():
        raise ValueError(f"codebook rows have bits set past dim {dim}")
    reps = np.frombuffer(payload, np.float64, offset=rows * width).reshape(classes, dim)
    codebook = Codebook(dim=dim, bins=hyper.bins, seed=hyper.seed, matrix=matrix.copy(),
                        offsets=offsets)
    return ClassModel(reps.copy(), codebook, schema, label_map, hyper)
