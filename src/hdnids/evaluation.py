"""Confusion matrix, per-class metrics, and report rendering.

Metric conventions for classes missing from the test set: precision is 0
when the class was never predicted, recall is 0 when it has no support,
and the F1 of a (0, 0) pair is 0. Macro F1 averages over all classes the
model knows, absent ones included, and the report flags which those are
so a deceptively low macro score is explainable.

Rendering is deterministic: identical reports serialize to identical
bytes in every format. Timing is therefore kept out of the rendered
output and only carried on the report object.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import RecordTable, class_indices
from .model import ClassModel, _check_labels, predict_table

# evaluate calls neither encode_dataset nor predict_batch, but hdbench's
# tracer wraps both where this module binds them, and a traced run fails
# with AttributeError when they are missing
from .encoding import encode_dataset  # noqa: F401
from .model import predict_batch  # noqa: F401

REPORT_FORMATS = ("text", "json", "csv")


@dataclass
class ConfusionMatrix:
    """counts[i, j] = records of actual class i predicted as class j."""

    counts: np.ndarray
    class_names: list

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
        counts = np.bincount(truth * n + preds, minlength=n * n).astype(np.int64, copy=False)
        return cls(counts=counts.reshape(n, n), class_names=list(class_names))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        total = self.total
        if total == 0:
            raise ValueError("empty confusion matrix")
        return float(np.trace(self.counts)) / total


@dataclass
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int
    predicted: int
    absent: bool  # no records of this class in the test set


@dataclass
class EvaluationReport:
    accuracy: float
    per_class: list
    macro_f1: float
    matrix: ConfusionMatrix
    config: dict = field(default_factory=dict)
    num_records: int = 0
    wall_time: float = 0.0  # informational only, never rendered


def _metrics_from_matrix(matrix: ConfusionMatrix) -> list:
    out = []
    counts = matrix.counts
    for c, name in enumerate(matrix.class_names):
        tp = int(counts[c, c])
        support = int(counts[c].sum())
        predicted = int(counts[:, c].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        out.append(
            ClassMetrics(
                name=name, precision=precision, recall=recall, f1=f1,
                support=support, predicted=predicted, absent=support == 0,
            )
        )
    return out


def report_from_matrix(
    matrix: ConfusionMatrix, config: dict | None = None, wall_time: float = 0.0
) -> EvaluationReport:
    per_class = _metrics_from_matrix(matrix)
    macro = sum(m.f1 for m in per_class) / len(per_class)
    return EvaluationReport(
        accuracy=matrix.accuracy,
        per_class=per_class,
        macro_f1=macro,
        matrix=matrix,
        config=dict(config or {}),
        num_records=matrix.total,
        wall_time=wall_time,
    )


def evaluate(model: ClassModel, table: RecordTable, jobs: int | None = None) -> EvaluationReport:
    """Score a RecordTable of labelled records with predict_table.

    Labels are mapped first, so an unknown label under a strict map is
    reported before any value is read. predict_table gets this call's last
    reference to the table, as train's encode_dataset does."""
    if not len(table):
        raise ValueError("empty test set")
    t0 = time.perf_counter()
    labels = class_indices(table, model.label_map)
    held = [table]
    del table
    preds, _, inverse = predict_table(model, held.pop(), jobs=jobs)
    wall = time.perf_counter() - t0
    matrix = ConfusionMatrix.from_pairs(labels, preds[inverse], model.label_map.class_names)
    config = dict(model.hyperparams.to_dict())
    config["classes"] = list(model.label_map.class_names)
    return report_from_matrix(matrix, config=config, wall_time=wall)


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
        "config": report.config,
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
