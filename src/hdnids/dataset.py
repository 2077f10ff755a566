"""NSL-KDD ingestion: parsing, schema inference, label mapping, splitting.

Input lines carry 41 feature fields, an attack label, and (in the plus
files) a difficulty score, comma-separated with no header. The 40 raw
label strings collapse onto five classes (normal, dos, probe, r2l, u2r)
through an editable mapping file shipped with the package.

Schema inference is train-side only: vocabularies and min/max ranges come
from the records given to infer_schema, never from test data.
"""

from __future__ import annotations

import logging
import math
import sys
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


class ParseError(ValueError):
    """Malformed dataset input (wrong arity, bad numerics, wrong file)."""


def numeric_column(values, name: str, transform: str, lines=None) -> np.ndarray:
    """A continuous column's raw strings as float64, log1p(max(v, 0)) when
    transform is "log1p".

    The one reader of continuous values, for schema inference and binning
    alike, so a schema's [min, max] and the bins always see the same
    numbers. Raises ParseError naming the column and the first value that
    is not a finite number, with its line number when lines (one per value)
    is given.
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
            where = "" if lines is None else f"line {lines[i]}: "
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
    raw: str | None = None


@dataclass
class ParseResult:
    records: list
    malformed: list  # (line_no, reason) pairs
    path: str = ""

    @property
    def malformed_count(self) -> int:
        return len(self.malformed)


def parse_line(line: str, line_no: int = 0, allow_unlabeled: bool = False,
               keep_raw: bool = False) -> RawRecord:
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
    values = tuple(sys.intern(v) for v in values)
    return RawRecord(
        values=values,
        label=None if label is None else sys.intern(label.strip()),
        difficulty=difficulty,
        line_no=line_no,
        raw=line if keep_raw else None,
    )


def parse_file(path, allow_unlabeled: bool = False, keep_raw: bool = False) -> ParseResult:
    """Parse a whole NSL-KDD text file.

    Malformed lines are collected (with reasons), not silently dropped;
    more than 1% malformed lines aborts with a ParseError since that
    almost certainly means the wrong file was given, and so does a file
    with no records at all (empty or blank lines only).
    """
    path = Path(path)
    records: list[RawRecord] = []
    malformed: list[tuple[int, str]] = []
    total = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            total += 1
            try:
                records.append(
                    parse_line(line, line_no, allow_unlabeled=allow_unlabeled,
                               keep_raw=keep_raw)
                )
            except ParseError as exc:
                malformed.append((line_no, str(exc)))
    if not total:
        raise ParseError(f"{path}: no records")
    if len(malformed) / total > 0.01:
        raise ParseError(
            f"{path}: {len(malformed)} of {total} lines malformed (>1%); "
            f"first: {malformed[0][1]}"
        )
    if malformed:
        log.warning("%s: %d malformed line(s) skipped", path, len(malformed))
    return ParseResult(records=records, malformed=malformed, path=str(path))


def infer_schema(records, class_names=None, log_scale: bool = False) -> FeatureSchema:
    """Infer the per-feature schema from training records only.

    Symbolic columns (protocol_type, service, flag) become categorical with
    lexicographically sorted vocabularies. Numeric columns whose raw strings
    are all "0"/"1" become two-category indicators; the rest are continuous
    with [min, max] taken over the (optionally log1p-transformed) training
    values.
    """
    if not records:
        raise ValueError("cannot infer a schema from zero records")
    transform = TRANSFORM_LOG1P if log_scale else TRANSFORM_NONE
    lines = [r.line_no for r in records]
    specs: list[FeatureSpec] = []
    for j, name in enumerate(COLUMN_NAMES):
        column = [r.values[j] for r in records]
        if j in SYMBOLIC_COLUMNS:
            specs.append(FeatureSpec(name=name, kind=KIND_CATEGORICAL,
                                     vocabulary=sorted(set(column))))
            continue
        distinct = set(column)
        if distinct <= {"0", "1"}:
            specs.append(FeatureSpec(name=name, kind=KIND_CATEGORICAL,
                                     vocabulary=["0", "1"]))
            continue
        vals = numeric_column(column, name, transform, lines)
        specs.append(FeatureSpec(name=name, kind=KIND_CONTINUOUS,
                                 min=float(vals.min()), max=float(vals.max()),
                                 transform=transform))
    return FeatureSchema(features=specs,
                         class_names=list(class_names or CLASS_NAMES))


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


def load_label_map(path=None, strict: bool = False, fallback_class: int = 0) -> LabelMap:
    """Load 'raw_label,category' pairs; default is the file shipped in-package."""
    if path is None:
        text = (resources.files("hdnids") / "data" / "attack_categories.txt").read_text()
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
    return LabelMap(raw_to_class=mapping, strict=strict, fallback_class=fallback_class)


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


@dataclass
class SplitSpec:
    """A seeded stratified cut of one labelled file into (train, test)."""

    train_fraction: float = 0.8
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


def split(records, spec: SplitSpec, label_map: LabelMap):
    """Produce (train, test) record lists.

    Shuffles with the seed and cuts per class so every class with at least
    two members lands on both sides; singleton classes go wholly to train
    with a warning (never an abort; u2r is tiny).
    """
    if len(records) < 2:
        raise ValueError("random split needs at least 2 records")

    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([spec.seed, _SPLIT_STREAM_TAG]))
    )
    perm = rng.permutation(len(records))
    buckets: dict[int, list[int]] = {}
    for i in perm:
        cls = map_label(records[i].label, label_map)
        buckets.setdefault(cls, []).append(int(i))

    train_idx: list[int] = []
    test_idx: list[int] = []
    for cls in sorted(buckets):
        idxs = buckets[cls]
        if len(idxs) < 2:
            log.warning(
                "class %r has %d record(s); placing all in train",
                label_map.class_names[cls], len(idxs),
            )
            train_idx.extend(idxs)
            continue
        k = int(math.floor(spec.train_fraction * len(idxs) + 0.5))
        k = min(max(k, 1), len(idxs) - 1)
        train_idx.extend(idxs[:k])
        test_idx.extend(idxs[k:])

    train_idx.sort()
    test_idx.sort()
    return [records[i] for i in train_idx], [records[i] for i in test_idx]


def class_indices(records, label_map: LabelMap) -> np.ndarray:
    """Mapped class index per record, as an int64 array."""
    return np.array([map_label(r.label, label_map) for r in records], dtype=np.int64)
