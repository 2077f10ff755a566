"""Feature schema and the deterministic hypervector codebook.

A codebook assigns every feature a random base hypervector plus, per
feature kind:
    continuous  - a chain of K level vectors where adjacent levels differ
                  by exactly floor(D/K) flipped bits, so nearby value bins
                  stay correlated and distant bins drift apart;
    categorical - one independent random vector per vocabulary entry
                  (categories carry no order, so no flip chain).
A single reserved out-of-vocabulary vector covers category values never
seen during training.

Vectors are packed rows: uint8 words, 8 logical bits per byte in little
bit order, padding bits past dim forced to zero, so popcount over the raw
bytes is exact.

Every vector is drawn from stream(seed, purpose tag, feature key): the
PCG64 generator of SeedSequence([seed mod 2**64, tag, key]), where the key
is the first 16 bytes of sha256 of the feature name (the OOV vector's
stream has no key). Adding or reordering features therefore never
perturbs the codes of existing ones.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

KIND_CONTINUOUS = "continuous"
KIND_CATEGORICAL = "categorical"

TRANSFORM_NONE = "none"
TRANSFORM_LOG1P = "log1p"

# Sub-stream purpose tags (documented layout of the master seed).
_TAG_BASE = 1
_TAG_LEVELS = 2
_TAG_CATEGORIES = 3
_TAG_OOV = 4


def _name_key(name: str) -> int:
    """Stable 128-bit integer key for a feature name."""
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:16], "little")


@dataclass
class FeatureSpec:
    """Metadata for one feature column.

    Continuous features carry the training-data [min, max] (in transformed
    space when transform != "none"); categorical features carry a sorted,
    duplicate-free vocabulary.
    """

    name: str
    kind: str
    min: float | None = None
    max: float | None = None
    vocabulary: list[str] | None = None
    transform: str = TRANSFORM_NONE

    def __post_init__(self):
        if self.kind not in (KIND_CONTINUOUS, KIND_CATEGORICAL):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == KIND_CONTINUOUS:
            if self.min is None or self.max is None:
                raise ValueError(f"continuous feature {self.name!r} needs min and max")
            if not (math.isfinite(self.min) and math.isfinite(self.max)):
                raise ValueError(f"feature {self.name!r}: min and max must be finite")
            if self.min > self.max:
                raise ValueError(f"feature {self.name!r}: min {self.min} > max {self.max}")
            if self.transform not in (TRANSFORM_NONE, TRANSFORM_LOG1P):
                raise ValueError(f"unknown transform {self.transform!r}")
        else:
            if not self.vocabulary:
                raise ValueError(f"categorical feature {self.name!r} needs a vocabulary")
            if not all(isinstance(v, str) for v in self.vocabulary):
                raise ValueError(f"feature {self.name!r}: vocabulary entries must be strings")
            if len(set(self.vocabulary)) != len(self.vocabulary):
                raise ValueError(f"feature {self.name!r}: vocabulary has duplicates")

    def to_dict(self) -> dict:
        d = {"name": self.name, "kind": self.kind}
        if self.kind == KIND_CONTINUOUS:
            d["min"] = self.min
            d["max"] = self.max
            d["transform"] = self.transform
        else:
            d["vocabulary"] = list(self.vocabulary)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        return cls(
            name=d["name"],
            kind=d["kind"],
            min=d.get("min"),
            max=d.get("max"),
            vocabulary=d.get("vocabulary"),
            transform=d.get("transform", TRANSFORM_NONE),
        )


@dataclass
class FeatureSchema:
    """Ordered feature specs plus the class-name list.

    Feature order is fixed at inference-schema time and must be identical
    between training and inference; names must be unique because codebook
    sub-streams are keyed by them.
    """

    features: list[FeatureSpec]
    class_names: list[str]

    def __post_init__(self):
        if not self.features:
            raise ValueError("schema needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")

    @property
    def num_features(self) -> int:
        return len(self.features)

    def to_dict(self) -> dict:
        return {
            "features": [f.to_dict() for f in self.features],
            "class_names": list(self.class_names),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        return cls(
            features=[FeatureSpec.from_dict(f) for f in d["features"]],
            class_names=list(d["class_names"]),
        )


def stream(seed: int, *tags: int) -> np.random.Generator:
    """The PCG64 stream keyed by SeedSequence([seed mod 2**64, *tags]).

    Distinct tag tuples give independent streams, so one master seed is
    partitioned into documented sub-streams without cross-talk.
    """
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *tags])))


def random_hv(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Packed row of dim i.i.d. fair-coin bits drawn from rng."""
    packed = rng.integers(0, 256, size=(dim + 7) // 8, dtype=np.uint8)
    if dim % 8:
        packed[-1] &= (1 << dim % 8) - 1
    return packed


def flip_bits(row: np.ndarray, dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Copy of a packed dim-bit row with exactly `count` distinct bits inverted.

    Positions are sampled without replacement, so the result differs from
    row in exactly count positions; count == dim gives the complement.
    """
    out = row.copy()
    if count:
        positions = rng.choice(dim, size=count, replace=False)
        np.bitwise_xor.at(
            out,
            positions // 8,
            np.left_shift(np.uint8(1), (positions % 8).astype(np.uint8)),
        )
    return out


def row_offsets(schema: FeatureSchema, bins: int) -> list[int]:
    """Codebook row of each feature's base vector, then of the OOV vector.

    A feature's value rows follow its base: bins level rows for a
    continuous feature, one row per vocabulary entry for a categorical one.
    """
    offsets = [0]
    for spec in schema.features:
        values = bins if spec.kind == KIND_CONTINUOUS else len(spec.vocabulary)
        offsets.append(offsets[-1] + 1 + values)
    return offsets


@dataclass
class Codebook:
    """All hypervectors needed to encode records under one schema.

    matrix holds one packed row per vector, (rows, ceil(dim / 8)) uint8, in
    the model file's order: per feature j its base at offsets[j], then its
    K-vector level chain (continuous) or its vectors in sorted vocabulary
    order (categorical); the shared out-of-vocabulary vector is the last
    row, at offsets[-1]. Immutable after build.
    """

    dim: int
    bins: int
    seed: int
    matrix: np.ndarray
    offsets: list[int]


def build_codebook(schema: FeatureSchema, dim: int, bins: int, seed: int) -> Codebook:
    """Deterministically generate the codebook for a schema.

    Fully determined by (schema, dim, bins, seed): same inputs give
    bit-identical vectors. Adjacent level vectors differ by exactly
    floor(dim / bins) positions.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if dim < bins:
        raise ValueError(f"bins ({bins}) cannot exceed hypervector dim ({dim})")
    flips = dim // bins

    rows: list[np.ndarray] = []
    for spec in schema.features:
        key = _name_key(spec.name)
        rows.append(random_hv(dim, stream(seed, _TAG_BASE, key)))
        if spec.kind == KIND_CONTINUOUS:
            rng = stream(seed, _TAG_LEVELS, key)
            rows.append(random_hv(dim, rng))
            for _ in range(1, bins):
                rows.append(flip_bits(rows[-1], dim, flips, rng))
        else:
            rng = stream(seed, _TAG_CATEGORIES, key)
            rows.extend(random_hv(dim, rng) for _ in spec.vocabulary)
    rows.append(random_hv(dim, stream(seed, _TAG_OOV)))
    return Codebook(dim=dim, bins=bins, seed=seed, matrix=np.vstack(rows),
                    offsets=row_offsets(schema, bins))
