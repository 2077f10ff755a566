"""Metrics arithmetic, report content, and deterministic rendering."""

import csv
import dataclasses
import io
import json
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdnids.evaluation import (
    REPORT_FORMATS,
    ConfusionMatrix,
    EvaluationReport,
    evaluate,
    render_report,
)
from hdnids.dataset import parse_file
from hdnids.model import predict_batch, retrain
from conftest import FLAGS, PROTOS, SERVICES, train_small_model, with_hyperparams
from reference import ref_report_figures


def file_of(tmp_path, lines, name="data.txt"):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p


class TestConfusionMatrix:
    def test_from_pairs(self):
        m = ConfusionMatrix.from_pairs([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], ["a", "b"])
        assert m.counts.tolist() == [[1, 1], [1, 2]]
        assert m.total == 5
        assert m.accuracy == pytest.approx(3 / 5)

    @pytest.mark.parametrize("truth, preds", [
        ([-1, 0], [0, -2]),  # wrapped to the last rows and columns before
        ([0, 2], [0, 1]),
        ([0, 1], [1, 2]),
        ([0, 1, 1], [0, 1]),
    ])
    def test_index_out_of_range_or_length_mismatch_rejected(self, truth, preds):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_pairs(truth, preds, ["a", "b"])

    def test_empty_pairs(self):
        m = ConfusionMatrix.from_pairs([], [], ["a", "b"])
        assert m.counts.tolist() == [[0, 0], [0, 0]] and m.counts.dtype == np.int64

    def test_empty_matrix_has_no_accuracy(self):
        m = ConfusionMatrix(np.zeros((2, 2), dtype=np.int64), ["a", "b"])
        with pytest.raises(ValueError):
            m.accuracy

    @pytest.mark.parametrize("counts, names", [
        (np.zeros((2, 2), np.int64), ["a", "b", "c"]),  # an IndexError at render before
        (np.zeros((2, 3), np.int64), ["a", "b"]),
        (np.zeros(4, np.int64), ["a", "b"]),
        (np.zeros((0, 0), np.int64), []),
        (np.array([[3, -1], [0, 2]]), ["a", "b"]),  # rendered accuracy 1.25 before
        (np.array([[2**63 + 1, 0], [0, 1]], dtype=np.uint64), ["a", "b"]),
        (np.array([[1.0, 0.0], [0.0, 1.0]]), ["a", "b"]),
        (np.array([[True, False], [False, True]]), ["a", "b"]),
        (np.ones((2, 2), np.int64), ["a", "a"]),
        (np.ones((2, 2), np.int64), ["a", 1]),
        (np.ones((2, 2), np.int64), "ab"),
    ], ids=["names-outnumber-counts", "not-square", "1-d", "no-class", "negative",
            "past-int64", "float", "bool", "repeated-name", "non-string-name", "names-a-str"])
    def test_invalid_rejected_when_built(self, counts, names):
        with pytest.raises(ValueError):
            ConfusionMatrix(counts, names)

    def test_counts_are_a_read_only_copy(self):
        counts = np.array([[1, 2], [3, 4]], dtype=np.int32)
        m = ConfusionMatrix(counts, ["a", "b"])
        counts[0, 0] = 9
        assert m.counts.tolist() == [[1, 2], [3, 4]] and m.counts.dtype == np.int64
        assert m.class_names == ("a", "b")
        with pytest.raises(ValueError, match="read-only"):
            m.counts[0, 0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.counts = np.zeros((2, 2), np.int64)


class TestMetrics:
    def test_known_matrix(self):
        # a: 8 right, 2 predicted as b; b: 9 right, 1 as a
        counts = np.array([[8, 2], [1, 9]], dtype=np.int64)
        report = EvaluationReport(ConfusionMatrix(counts, ["a", "b"]))
        a, b = report.per_class
        assert a.precision == pytest.approx(8 / 9)
        assert a.recall == pytest.approx(8 / 10)
        assert a.f1 == pytest.approx(2 * (8 / 9) * 0.8 / ((8 / 9) + 0.8))
        assert b.support == 10 and b.predicted == 11
        assert report.accuracy == pytest.approx(17 / 20)
        assert report.macro_f1 == pytest.approx((a.f1 + b.f1) / 2)

    def test_absent_class_flagged_and_scores_zero(self):
        counts = np.array([[10, 0, 0], [0, 5, 0], [0, 0, 0]], dtype=np.int64)
        report = EvaluationReport(ConfusionMatrix(counts, ["a", "b", "c"]))
        c = report.per_class[2]
        assert c.absent and c.support == 0
        assert c.precision == 0.0 and c.recall == 0.0 and c.f1 == 0.0
        # macro still averages over all three classes
        assert report.macro_f1 == pytest.approx((1.0 + 1.0 + 0.0) / 3)

    def test_never_predicted_class_has_zero_precision(self):
        counts = np.array([[10, 0], [3, 0]], dtype=np.int64)
        report = EvaluationReport(ConfusionMatrix(counts, ["a", "b"]))
        b = report.per_class[1]
        assert b.predicted == 0 and b.precision == 0.0
        assert not b.absent  # it has support, the model just never picks it

    def test_fields_are_the_matrix_and_config(self):
        assert [f.name for f in dataclasses.fields(EvaluationReport)] == ["matrix", "config"]

    def test_report_cannot_be_changed(self):
        counts = np.array([[8, 2], [1, 9]], dtype=np.int64)
        report = EvaluationReport(ConfusionMatrix(counts, ["a", "b"]),
                                  {"classes": ["a", "b"], "dim": 8})
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.accuracy = 0.1
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.matrix = ConfusionMatrix(np.eye(2, dtype=np.int64), ["a", "b"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.per_class[0].f1 = 1.0
        with pytest.raises(TypeError):
            report.config["dim"] = 16
        assert report.config["classes"] == ("a", "b")
        with pytest.raises(ValueError, match="read-only"):
            report.matrix.counts[0, 0] = 0
        assert "accuracy: 0.8500" in render_report(report)

    @pytest.mark.parametrize("matrix, config", [
        (ConfusionMatrix(np.zeros((2, 2), np.int64), ["a", "b"]), {}),
        (np.eye(2, dtype=np.int64), {}),
        (ConfusionMatrix(np.eye(2, dtype=np.int64), ["a", "b"]), [("dim", 8)]),
    ], ids=["no-record", "not-a-matrix", "config-not-a-mapping"])
    def test_invalid_report_rejected_when_built(self, matrix, config):
        with pytest.raises(ValueError):
            EvaluationReport(matrix, config)


@st.composite
def count_matrices(draw, most=10**6):
    """Nested lists of n x n counts, 1 <= n <= 6, with some rows and columns
    all zero; every count zero now and then."""
    n = draw(st.integers(1, 6))
    counts = draw(st.lists(st.lists(st.integers(0, most), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1))):
        counts[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1))):
        for row in counts:
            row[j] = 0
    return counts


class TestFiguresOracle:
    @settings(max_examples=300, deadline=None)
    @given(count_matrices())
    def test_prop_figures_equal_the_oracle(self, counts):
        """Every figure equals ref_report_figures' to the bit, in the report
        and in its JSON; a matrix of no record is rejected."""
        names = [f"c{i}" for i in range(len(counts))]
        matrix = ConfusionMatrix(np.array(counts, dtype=np.int64), names)
        if not any(map(any, counts)):
            with pytest.raises(ValueError, match="empty"):
                EvaluationReport(matrix)
            return
        report = EvaluationReport(matrix)
        per_class, accuracy, macro_f1 = ref_report_figures(counts, names)
        assert [dataclasses.asdict(m) for m in report.per_class] == per_class
        assert (report.accuracy, report.macro_f1) == (accuracy, macro_f1)
        assert report.num_records == sum(map(sum, counts))
        obj = json.loads(render_report(report, "json"))
        assert (obj["accuracy"], obj["macro_f1"]) == (accuracy, macro_f1)
        assert [dict(obj["classes"][m["name"]], name=m["name"]) for m in per_class] == per_class

    @settings(max_examples=100, deadline=None)
    @given(count_matrices(most=20), st.randoms(use_true_random=False))
    def test_prop_bytes_depend_only_on_matrix_and_config(self, counts, rng):
        """A report's bytes in every format are those of any other report of
        equal counts, class names and config: here one counted from the
        shuffled (true, predicted) pairs, with the names, counts and config
        held in other types."""
        n = len(counts)
        if not any(map(any, counts)):
            return
        names = [f"c{i}" for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) for _ in range(counts[i][j])]
        rng.shuffle(pairs)
        truth, preds = zip(*pairs)
        config = {"dim": 8, "classes": names, "threshold": None, "alpha": 0.1}
        a = EvaluationReport(ConfusionMatrix.from_pairs(truth, preds, names), config)
        b = EvaluationReport(ConfusionMatrix(np.array(counts, dtype=np.uint16), tuple(names)),
                             MappingProxyType(dict(config, classes=tuple(names))))
        for fmt in REPORT_FORMATS:
            assert render_report(a, fmt).encode() == render_report(b, fmt).encode()


class TestEvaluate:
    def test_end_to_end(self, tmp_path, synth_lines):
        model, _, records = self.trained(tmp_path, synth_lines)
        report = evaluate(model, records)
        assert report.num_records == len(records)
        assert report.accuracy == 1.0
        assert report.config["dim"] == 512
        assert report.config["classes"] == model.label_map.class_names
        assert report.matrix.counts.sum() == len(records)

    def trained(self, tmp_path, synth_lines):
        src = file_of(tmp_path, synth_lines)
        return train_small_model(src, dim=512, iterations=5)

    def test_empty_test_set_rejected(self, tmp_path, synth_lines):
        model, _, _ = self.trained(tmp_path, synth_lines)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, [])

    def test_matches_predict_batch(self, tmp_path, synth_lines):
        model, data, records = self.trained(tmp_path, synth_lines)
        report = evaluate(model, records)
        preds, _ = predict_batch(model, data)
        assert report.accuracy == (preds == data.labels).mean()

    def test_converged_model_matches_final_trace(self, tmp_path, synth_lines):
        model, data, records = self.trained(tmp_path, synth_lines)
        out, trace = retrain(with_hyperparams(model, iterations=50), data)
        assert trace[-1] == 1.0  # converged (zero-update fixed point)
        report = evaluate(out, records)
        assert report.accuracy == trace[-1]


class TestScoringMemory:
    def test_encodings_not_held(self, tmp_path, synth_lines):
        """At D=10000, evaluate's scoring allocates less than half of what
        the distinct records' packed encodings would take together: it
        holds one worker's scratch and the per-distinct-record results."""
        model, _, _ = train_small_model(file_of(tmp_path, synth_lines, "train.txt"),
                                        dim=10000, iterations=1)
        rng = np.random.default_rng(11)
        u = 16000
        numbers = rng.integers(0, 5000, size=(u, 41)).astype(str)
        numbers[:, 1] = rng.choice(PROTOS, u)
        numbers[:, 2] = rng.choice(SERVICES, u)
        numbers[:, 3] = rng.choice(FLAGS, u)
        test = file_of(tmp_path, [",".join(r) + ",normal" for r in numbers.tolist()])
        table = parse_file(test).records
        encodings = u * -(-10000 // 8)  # 20 MB if every record is distinct
        tracemalloc.start()
        try:
            report = evaluate(model, table, jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.num_records == u
        assert peak < encodings / 2


class TestRender:
    def report(self, tmp_path, synth_lines):
        src = file_of(tmp_path, synth_lines)
        model, _, records = train_small_model(src, dim=512, iterations=5)
        return evaluate(model, records)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_byte_identical_rendering(self, tmp_path, synth_lines, fmt):
        report = self.report(tmp_path, synth_lines)
        assert render_report(report, fmt).encode() == render_report(report, fmt).encode()

    def test_json_parses_back(self, tmp_path, synth_lines):
        report = self.report(tmp_path, synth_lines)
        obj = json.loads(render_report(report, "json"))
        assert obj["accuracy"] == report.accuracy
        assert obj["records"] == report.num_records
        assert set(obj["classes"]) == set(report.matrix.class_names)
        counts = np.array(obj["confusion"]["counts"])
        assert np.array_equal(counts, report.matrix.counts)

    def test_csv_structure(self, tmp_path, synth_lines):
        report = self.report(tmp_path, synth_lines)
        rows = list(csv.reader(io.StringIO(render_report(report, "csv"))))
        assert rows[0] == ["section", "name", "value"]
        assert all(len(r) == 3 for r in rows)
        sections = {r[0] for r in rows[1:]}
        assert {"summary", "precision", "recall", "f1", "confusion", "config"} <= sections
        acc = [r for r in rows if r[:2] == ["summary", "accuracy"]]
        assert float(acc[0][2]) == report.accuracy

    def test_text_contains_all_classes(self, tmp_path, synth_lines):
        report = self.report(tmp_path, synth_lines)
        text = render_report(report, "text")
        for name in report.matrix.class_names:
            assert name in text

    def test_timing_never_rendered(self, tmp_path, synth_lines):
        """A report holds its matrix and config alone, so no timing can reach
        its bytes: it has no field to carry one and takes no new attribute."""
        report = self.report(tmp_path, synth_lines)
        assert [f.name for f in dataclasses.fields(report)] == ["matrix", "config"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.wall_time = 123.456789
        for fmt in ("text", "json", "csv"):
            assert "123.456789" not in render_report(report, fmt)

    def test_unknown_format_rejected(self, tmp_path, synth_lines):
        report = self.report(tmp_path, synth_lines)
        with pytest.raises(ValueError, match="xml"):
            render_report(report, "xml")
