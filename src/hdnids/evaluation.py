"""Confusion matrix, per-class metrics, and report rendering.

Metric conventions for classes missing from the test set: precision is 0
when the class was never predicted, recall is 0 when it has no support,
and the F1 of a (0, 0) pair is 0. Macro F1 averages over all classes the
model knows, absent ones included, and the report flags which those are
so a deceptively low macro score is explainable.

A report is its confusion matrix and its config: every figure it renders
is computed from the matrix when read, so none can disagree with it. Both
check themselves when built and are frozen, so a report that exists is
valid and stays as it was built. Rendering is deterministic: a report's
bytes in every format depend only on its matrix and config, and no report
carries timing.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .dataset import RecordTable, class_indices
from .model import ClassModel, _check_labels, predict_table

# evaluate calls neither encode_dataset nor predict_batch, but hdbench's
# tracer wraps both where this module binds them, and a traced run fails
# with AttributeError when they are missing
from .encoding import encode_dataset  # noqa: F401
from .model import predict_batch  # noqa: F401

REPORT_FORMATS = ("text", "json", "csv")


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """counts[i, j] = records of actual class i predicted as class j, valid
    once built.

    Construction raises ValueError unless class_names are distinct strings,
    at least one, and counts is an (n, n) array of non-negative integers, n
    the number of class names. class_names is held as a tuple and counts as
    a read-only int64 copy.
    """

    counts: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self) -> None:
        names = self.class_names
        if (not isinstance(names, (list, tuple)) or not names
                or not all(isinstance(n, str) for n in names) or len(set(names)) != len(names)):
            raise ValueError(f"confusion matrix class names must be distinct strings, "
                             f"at least one, got {names!r}")
        n = len(names)
        counts = np.asarray(self.counts)
        if not np.issubdtype(counts.dtype, np.integer) or counts.shape != (n, n):
            raise ValueError(f"counts must be a ({n}, {n}) integer array, "
                             f"got {counts.dtype} {counts.shape}")
        counts = counts.astype(np.int64)  # a copy; a uint64 past int64 turns negative
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "class_names", tuple(names))

    @classmethod
    def from_pairs(cls, truth, preds, class_names) -> "ConfusionMatrix":
        """Count (truth[i], preds[i]) pairs of class indices in [0, n), n the
        number of class names; ValueError on any other index or on
        sequences of unequal length."""
        n = len(class_names)
        truth = np.asarray(truth, dtype=np.int64)
        preds = np.asarray(preds, dtype=np.int64)
        if truth.shape != preds.shape or truth.ndim != 1:
            raise ValueError(f"{truth.shape} true and {preds.shape} predicted classes "
                             "must be 1-D of one length")
        _check_labels(truth, n)
        _check_labels(preds, n)
        counts = np.bincount(truth * n + preds, minlength=n * n)
        return cls(counts.reshape(n, n), tuple(class_names))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        total = self.total
        if total == 0:
            raise ValueError("empty confusion matrix")
        return float(np.trace(self.counts)) / total


@dataclass(frozen=True)
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int
    predicted: int
    absent: bool  # no records of this class in the test set


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """A confusion matrix of at least one record and the config it was made
    under, valid once built; every figure is computed from the matrix.

    Construction raises ValueError when matrix is not a ConfusionMatrix or
    holds no record, or when config is not a mapping. config is held as a
    read-only mapping, its list values as tuples.
    """

    matrix: ConfusionMatrix
    config: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.matrix, ConfusionMatrix):
            raise ValueError(f"matrix must be a ConfusionMatrix, got {type(self.matrix).__name__}")
        if self.matrix.total == 0:
            raise ValueError("empty confusion matrix")
        if not isinstance(self.config, Mapping):
            raise ValueError(f"config must be a mapping, got {self.config!r}")
        config = {k: tuple(v) if isinstance(v, list) else v for k, v in self.config.items()}
        object.__setattr__(self, "config", MappingProxyType(config))

    @property
    def num_records(self) -> int:
        return self.matrix.total

    @property
    def accuracy(self) -> float:
        return self.matrix.accuracy

    @property
    def per_class(self) -> tuple[ClassMetrics, ...]:
        counts = self.matrix.counts
        out = []
        for c, name in enumerate(self.matrix.class_names):
            tp, support, predicted = int(counts[c, c]), int(counts[c].sum()), int(counts[:, c].sum())
            precision = tp / predicted if predicted else 0.0
            recall = tp / support if support else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
            out.append(ClassMetrics(name, precision, recall, f1, support, predicted, support == 0))
        return tuple(out)

    @property
    def macro_f1(self) -> float:
        per_class = self.per_class
        return sum(m.f1 for m in per_class) / len(per_class)


def evaluate(model: ClassModel, table: RecordTable, jobs: int | None = None) -> EvaluationReport:
    """Score a RecordTable of labelled records with predict_table.

    Labels are mapped first, so an unknown label under a strict map is
    reported before any value is read. predict_table gets this call's last
    reference to the table, as train's encode_dataset does."""
    if not len(table):
        raise ValueError("empty test set")
    labels = class_indices(table, model.label_map)
    held = [table]
    del table
    preds, _, inverse = predict_table(model, held.pop(), jobs=jobs)
    matrix = ConfusionMatrix.from_pairs(labels, preds[inverse], model.label_map.class_names)
    config = dict(model.hyperparams.to_dict())
    config["classes"] = model.label_map.class_names
    return EvaluationReport(matrix, config)


def _config_items(config: dict):
    for key in sorted(config):
        value = config[key]
        if isinstance(value, (list, tuple)):
            value = " ".join(str(v) for v in value)
        yield key, value


def render_report(report: EvaluationReport, fmt: str = "text") -> str:
    """Serialize a report; identical reports give identical bytes."""
    if fmt == "json":
        return _render_json(report)
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown report format {fmt!r} (expected one of {REPORT_FORMATS})")


def _render_json(report: EvaluationReport) -> str:
    obj = {
        "records": report.num_records,
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
        "classes": {
            m.name: {
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "support": m.support,
                "predicted": m.predicted,
                "absent": m.absent,
            }
            for m in report.per_class
        },
        "confusion": {
            "class_names": list(report.matrix.class_names),
            "counts": report.matrix.counts.tolist(),
        },
        "config": dict(report.config),
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _render_csv(report: EvaluationReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["section", "name", "value"])
    w.writerow(["summary", "records", report.num_records])
    w.writerow(["summary", "accuracy", repr(report.accuracy)])
    w.writerow(["summary", "macro_f1", repr(report.macro_f1)])
    for m in report.per_class:
        w.writerow(["precision", m.name, repr(m.precision)])
        w.writerow(["recall", m.name, repr(m.recall)])
        w.writerow(["f1", m.name, repr(m.f1)])
        w.writerow(["support", m.name, m.support])
        w.writerow(["predicted", m.name, m.predicted])
        w.writerow(["absent", m.name, int(m.absent)])
    names = report.matrix.class_names
    for i, actual in enumerate(names):
        for j, pred in enumerate(names):
            w.writerow(["confusion", f"{actual}->{pred}", int(report.matrix.counts[i, j])])
    for key, value in _config_items(report.config):
        w.writerow(["config", key, value])
    return buf.getvalue()


def _render_text(report: EvaluationReport) -> str:
    lines = []
    lines.append(f"records:  {report.num_records}")
    lines.append(f"accuracy: {report.accuracy:.4f}")
    absent = [m.name for m in report.per_class if m.absent]
    note = f"  (absent from test set: {', '.join(absent)})" if absent else ""
    lines.append(f"macro F1: {report.macro_f1:.4f}{note}")
    lines.append("")
    lines.append(f"{'class':<10} {'support':>8} {'precision':>10} {'recall':>8} {'f1':>8}")
    for m in report.per_class:
        lines.append(
            f"{m.name:<10} {m.support:>8d} {m.precision:>10.4f} "
            f"{m.recall:>8.4f} {m.f1:>8.4f}"
        )
    lines.append("")
    names = report.matrix.class_names
    width = max(8, max(len(n) for n in names) + 1)
    lines.append("confusion matrix (rows actual, columns predicted):")
    lines.append(" " * 10 + "".join(f"{n:>{width}}" for n in names))
    for i, actual in enumerate(names):
        row = "".join(f"{int(c):>{width}d}" for c in report.matrix.counts[i])
        lines.append(f"{actual:<10}{row}")
    lines.append("")
    lines.append("config:")
    for key, value in _config_items(report.config):
        lines.append(f"  {key} = {value}")
    return "\n".join(lines) + "\n"
