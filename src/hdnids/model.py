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
encodings by index, unpacked once and scored with one GEMM. After a miss
on row h, a later row h' has dot(h', h) = popcount(h' AND h) (padding bits
masked off), so its dots against the two moved rows shift by exactly
alpha times that count and are updated in place, in the packed domain.
All dots are sums of representative entries, which stay integers, or
multiples of alpha, small enough for float64 to hold exactly; for a dyadic
alpha (1, 0.5, 0.25, 2, ...) the in-place update therefore equals a fresh
dot product to the bit, and the representatives and trace come out
byte-identical to rescoring the tail.

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

from .codebook import Codebook, FeatureSchema, row_offsets
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
        return {
            "dim": self.dim, "bins": self.bins, "threshold": self.threshold,
            "alpha": self.alpha, "iterations": self.iterations,
            "seed": self.seed, "log_scale": self.log_scale,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        return cls(**{k: d[k] for k in cls().to_dict() if k in d})

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


def _real_bits(rows: np.ndarray, dim: int) -> np.ndarray:
    """Packed rows with the padding bits past dim cleared, in place, so
    popcounts see only the dim real bits."""
    rows[:, -1] &= np.uint8((1 << (dim % 8 or 8)) - 1)
    return rows


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
    if int(encoded.labels.max()) >= num_classes or int(encoded.labels.min()) < 0:
        raise ValueError(
            f"class index {int(encoded.labels.max())} outside [0, {num_classes})"
        )
    # exact integer counts, summed over chunks of one class's rows at a time
    counts = np.zeros((num_classes, encoded.dim), dtype=np.int64)
    for c in range(num_classes):
        members = np.flatnonzero(encoded.labels == c)
        for start in range(0, len(members), _CHUNK):
            bits = np.unpackbits(encoded.packed[members[start:start + _CHUNK]], axis=1,
                                 count=encoded.dim, bitorder="little")
            counts[c] += bits.sum(axis=0, dtype=np.int64)
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
    boundaries are fixed so worker count cannot change the output.
    """
    reps = model.rep_matrix()
    norms = np.linalg.norm(reps, axis=1)
    safe_norms = np.where(norms > 0, norms, 1.0)
    n = len(data)
    preds = np.empty(n, dtype=np.int64)
    sims = np.empty((n, model.num_classes), dtype=np.float64)

    def score(start: int, stop: int) -> None:
        block = data.unpack(start, stop)
        rows = _real_bits(data.packed[start:stop].copy(), data.dim)
        ones = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        h_norm = np.sqrt(ones.astype(np.float64))
        safe_h = np.where(h_norm > 0, h_norm, 1.0)
        dots = block @ reps.T
        s = (dots / safe_norms) / safe_h[:, None]
        sims[start:stop] = s
        preds[start:stop] = np.argmax(s, axis=1)

    run_chunks(score, n, _CHUNK, jobs)
    return preds, sims


def retrain(model: ClassModel, encoded: EncodedDataset, alpha: float, iterations: int):
    """Iterative miss/match refinement of the representatives.

    For each misclassified sample, alpha times its vector is subtracted
    from the wrongly predicted representative and added to the true one;
    correct samples change nothing. Samples are visited in one seeded
    shuffle that is fixed across epochs. Stops early on a zero-update
    epoch. Returns (updated model, per-epoch accuracy trace); the trace
    records the fraction of samples correct at the moment they were
    visited.
    """
    dataclasses.replace(model.hyperparams, alpha=alpha, iterations=iterations).validate()
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if encoded.labels is None:
        raise ValueError("retraining data must carry labels")
    m = len(encoded)

    reps = model.rep_matrix().copy()
    norms = np.linalg.norm(reps, axis=1)
    rng = np.random.Generator(
        np.random.PCG64(
            np.random.SeedSequence([model.hyperparams.seed, _RETRAIN_STREAM_TAG])
        )
    )
    order = rng.permutation(m)
    dim = encoded.dim

    trace: list[float] = []
    for _ in range(iterations):
        correct = 0
        updates = 0
        for start in range(0, m, _RETRAIN_CHUNK):
            idx = order[start:start + _RETRAIN_CHUNK]
            rows = _real_bits(encoded.packed[idx], dim)
            y = encoded.labels[idx]
            block = np.unpackbits(rows, axis=1, count=dim, bitorder="little").astype(np.float64)
            dots = block @ reps.T
            pos = 0
            b = len(idx)
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
                h = block[i]
                reps[wrong] -= alpha * h
                reps[true] += alpha * h
                norms[wrong] = np.linalg.norm(reps[wrong])
                norms[true] = np.linalg.norm(reps[true])
                updates += 1
                pos = i + 1
                if pos < b:
                    # dot(h', h) for every later row h' is the popcount of
                    # their AND, so each tail dot moves by exactly alpha times it
                    delta = alpha * np.bitwise_count(rows[pos:] & rows[i]).sum(axis=1)
                    dots[pos:, wrong] -= delta
                    dots[pos:, true] += delta
        trace.append(correct / m)
        if updates == 0:
            break

    out = ClassModel(
        representatives=[AccumulatorVector(reps[c]) for c in range(reps.shape[0])],
        codebook=model.codebook,
        schema=model.schema,
        label_map=model.label_map,
        hyperparams=model.hyperparams,
    )
    return out, trace


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
    mistyped or out of range, or when the arrays do not have the shapes the
    schema, codebook manifest and label map imply.
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
    return ClassModel(
        representatives=[AccumulatorVector(r) for r in reps.copy()],
        codebook=Codebook(dim=dim, bins=bins, seed=seed, matrix=matrix.copy(),
                          offsets=offsets),
        schema=schema,
        label_map=label_map,
        hyperparams=hyper,
    )
