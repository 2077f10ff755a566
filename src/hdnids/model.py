"""Class-representative model: centroid training, retraining, inference, IO.

Representatives start as per-class sums of the binary training encodings.
Retraining then walks the samples in one fixed seeded order per run and,
for every sample the current model gets wrong, moves alpha times the
sample vector from the wrongly predicted class onto the true class.
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

Every float64 dot product (retraining's chunk-start scores, predict_batch's
scores) goes through _dots. It converts unpacked 0/1 rows to float64 a few
rows at a time into one reused block of _DOT_BLOCK_BYTES and runs the thin
(rows, dim) @ (dim, classes) GEMM on it. At D=10000 a whole 64-row chunk is
5 MB of float64, more than a core's 2 MB L2 on the 2-vCPU Xeon this was
tuned on, so converting it in one go and then multiplying reads it back
from memory; an 8-row block (640 KB) is read while still in cache. Each
retraining miss's tail popcount runs over the chunk's rows padded to whole
uint64 words (157 words at D=10000, not 1,250 bytes).

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

import numpy as np

from .codebook import Codebook, FeatureSchema, row_offsets, stream
from .dataset import LabelMap
from .encoding import EncodedDataset, default_threshold, run_chunks

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


@dataclass
class Hyperparams:
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

    def validate(self) -> None:
        """Raise ValueError naming the first field that is out of range.

        dim, bins, iterations and seed are integers with dim >= 1,
        1 <= bins <= dim and iterations >= 0; alpha is finite and > 0;
        threshold is None or finite.
        """
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


class AccumulatorVector:
    """One class representative: a real-valued (dim,) float64 vector.

    float64 keeps integer arithmetic exact far beyond any dataset size
    while still admitting fractional learning rates.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("accumulator values must be a non-empty 1-D array")
        self.values = values


@dataclass
class ClassModel:
    representatives: list  # one AccumulatorVector per class
    codebook: Codebook
    schema: FeatureSchema
    label_map: LabelMap
    hyperparams: Hyperparams

    @property
    def num_classes(self) -> int:
        return len(self.representatives)

    @property
    def threshold(self) -> float:
        t = self.hyperparams.threshold
        return default_threshold(self.schema) if t is None else t

    def rep_matrix(self) -> np.ndarray:
        """Representatives stacked to a (num_classes, dim) float64 matrix."""
        return np.stack([r.values for r in self.representatives])


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Raise ValueError naming the first label outside [0, num_classes)."""
    bad = labels[(labels < 0) | (labels >= num_classes)]
    if bad.size:
        raise ValueError(f"class index {int(bad[0])} outside [0, {num_classes})")


def _dots(bits: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """float64 (n, classes) dot products of unpacked 0/1 rows (uint8, (n, dim))
    with each representative row, one cache-sized float64 block at a time.

    Every GEMM runs on a whole (step, dim) block, step a multiple of 8, the
    last one zero-filled past its real rows, so a row's dots do not depend
    on where it sits in bits even when BLAS rounds them (see the module
    docstring)."""
    n, dim = bits.shape
    step = 8 * max(1, _DOT_BLOCK_BYTES // (64 * dim))
    out = np.empty((-(-n // step) * step, reps.shape[0]), dtype=np.float64)
    block = np.empty((step, dim), dtype=np.float64)
    for start in range(0, n, step):
        rows = bits[start:start + step]
        block[:len(rows)] = rows
        block[len(rows):] = 0
        np.matmul(block, reps.T, out=out[start:start + step])
    return out[:n]


def train_initial(encoded: EncodedDataset, num_classes: int) -> list:
    """Per-class sums of the binary training vectors.

    A class with no samples keeps the all-zero vector (logged); cosine
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
    reps = counts.astype(np.float64)
    return [AccumulatorVector(reps[c]) for c in range(num_classes)]


def predict_batch(model: ClassModel, data: EncodedDataset, jobs: int | None = None):
    """Predictions and cosine similarities for a whole encoded dataset.

    Returns (preds, sims): int64 (n,) and float64 (n, num_classes). The
    similarity is dot(h, r) / (sqrt(|h|) * ||r||), |h| the set bits of h,
    and 0 when either side is all-zero; argmax wins, lowest index on ties.
    Read-only on the model, chunked, and safe to parallelize; chunk
    boundaries are fixed so worker count cannot change the output. Each of
    data.rows is scored once and its results gathered to every record it
    encodes: a row's scores do not depend on its position (see the module
    docstring), so this gives the bits scoring every record would.
    """
    reps = model.rep_matrix()
    norms = np.linalg.norm(reps, axis=1)
    safe_norms = np.where(norms > 0, norms, 1.0)
    rows = data.rows
    preds = np.empty(len(rows), dtype=np.int64)
    sims = np.empty((len(rows), model.num_classes), dtype=np.float64)

    def score(start: int, stop: int) -> None:
        packed = rows[start:stop]
        ones = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
        h_norm = np.sqrt(ones.astype(np.float64))
        safe_h = np.where(h_norm > 0, h_norm, 1.0)
        bits = np.unpackbits(packed, axis=1, count=data.dim, bitorder="little")
        s = (_dots(bits, reps) / safe_norms) / safe_h[:, None]
        sims[start:stop] = s
        preds[start:stop] = np.argmax(s, axis=1)

    run_chunks(score, len(rows), _CHUNK, jobs)
    return preds[data.inverse], sims[data.inverse]


def retrain(model: ClassModel, encoded: EncodedDataset, alpha: float, iterations: int):
    """Iterative miss/match refinement of the representatives.

    For each misclassified sample, alpha times its vector is subtracted
    from the wrongly predicted representative and added to the true one;
    correct samples change nothing. Samples are visited in one seeded
    shuffle that is fixed across epochs, drawn from the seed's retrain
    stream (codebook.stream, so any integer seed works, taken mod 2**64).
    Stops early on a zero-update epoch. Returns (updated model, per-epoch
    accuracy trace); the model's hyperparams carry the alpha (as a float)
    and iterations asked for, and the trace records the fraction of
    samples correct at the moment they were visited.
    """
    dataclasses.replace(model.hyperparams, alpha=alpha, iterations=iterations).validate()
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if encoded.labels is None:
        raise ValueError("retraining data must carry labels")
    _check_labels(encoded.labels, model.num_classes)
    alpha = float(alpha)  # an int alpha would keep alpha * bits in uint8
    m = len(encoded)

    reps = model.rep_matrix().copy()
    norms = np.linalg.norm(reps, axis=1)
    order = stream(model.hyperparams.seed, _RETRAIN_STREAM_TAG).permutation(m)
    at = encoded.inverse[order]  # each visited sample's row; EncodedDataset range-checks it
    dim = encoded.dim
    width = encoded.rows.shape[1]
    # each chunk's rows, zero-padded to whole uint64 words so the tail
    # popcounts after a miss run a word at a time
    padded = np.zeros((_RETRAIN_CHUNK, -(-width // 8) * 8), dtype=np.uint8)
    words = padded.view(np.uint64)

    trace: list[float] = []
    for _ in range(iterations):
        correct = 0
        updates = 0
        for start in range(0, m, _RETRAIN_CHUNK):
            idx = order[start:start + _RETRAIN_CHUNK]
            b = len(idx)
            rows = padded[:b, :width]
            np.take(encoded.rows, at[start:start + b], axis=0, out=rows, mode="clip")
            y = encoded.labels[idx]
            bits = np.unpackbits(rows, axis=1, count=dim, bitorder="little")
            dots = _dots(bits, reps)
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
                norms[wrong] = np.linalg.norm(reps[wrong])
                norms[true] = np.linalg.norm(reps[true])
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

    hyper = dataclasses.replace(model.hyperparams, alpha=alpha, iterations=iterations)
    return dataclasses.replace(
        model, representatives=[AccumulatorVector(r) for r in reps], hyperparams=hyper), trace


def atomic_write(path, data: bytes) -> None:
    """Write data to path via a temp file and a rename, so a failing run
    never leaves a partial file behind."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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
    reps = np.ascontiguousarray(model.rep_matrix())
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
    body += hashlib.sha256(bytes(body)).digest()
    atomic_write(path, bytes(body))


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
        return _model_from(header, blob[header_end:-32])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptModelError(f"{path}: bad header: {exc!r}") from None


def _model_from(header: dict, payload: bytes) -> ClassModel:
    """The model a decoded header and its array bytes describe.

    Raises ValueError, KeyError or TypeError when a header field is missing,
    mistyped or out of range, when the arrays do not have the shapes the
    schema, codebook manifest and label map imply, or when a representative
    entry is NaN or infinite.
    """
    schema = FeatureSchema.from_dict(header["schema"])
    label_map = LabelMap.from_dict(header["label_map"])
    hyper = Hyperparams.from_dict(header["hyperparams"])
    hyper.validate()
    manifest = header["codebook"]
    dim, bins, seed = manifest["dim"], manifest["bins"], manifest["seed"]
    # the codebook's own dim, bins and seed obey the hyperparameter ranges
    Hyperparams(dim=dim, bins=bins, seed=seed).validate()
    classes = len(label_map.class_names)
    indices = [*label_map.raw_to_class.values(), label_map.fallback_class]
    if not all(isinstance(c, int) and 0 <= c < classes for c in indices):
        raise ValueError(f"label map has class indices outside [0, {classes})")

    offsets = row_offsets(schema, bins)
    rows, width = offsets[-1] + 1, (dim + 7) // 8
    expected = _array_manifest(rows, width, classes, dim)
    if manifest["rows"] != rows or header["arrays"] != expected:
        raise ValueError(f"arrays {header['arrays']} do not match the schema's {expected}")
    need = rows * width + classes * dim * 8
    if len(payload) != need:
        raise ValueError(f"arrays take {len(payload)} bytes, the header implies {need}")
    matrix = np.frombuffer(payload, np.uint8, count=rows * width).reshape(rows, width)
    reps = np.frombuffer(payload, np.float64, offset=rows * width).reshape(classes, dim)
    if not np.isfinite(reps).all():
        raise ValueError("representatives hold a non-finite value")
    return ClassModel(
        representatives=[AccumulatorVector(r) for r in reps.copy()],
        codebook=Codebook(dim=dim, bins=bins, seed=seed, matrix=matrix.copy(),
                          offsets=offsets),
        schema=schema,
        label_map=label_map,
        hyperparams=hyper,
    )
