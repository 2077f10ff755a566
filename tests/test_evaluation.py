"""Metrics arithmetic, report content, and deterministic rendering."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from hdnids.evaluation import (
    ConfusionMatrix,
    evaluate,
    render_report,
    report_from_matrix,
)
from hdnids.dataset import parse_file
from hdnids.model import predict_batch, retrain
from conftest import FLAGS, PROTOS, SERVICES, train_small_model, with_hyperparams


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


class TestMetrics:
    def test_known_matrix(self):
        # a: 8 right, 2 predicted as b; b: 9 right, 1 as a
        counts = np.array([[8, 2], [1, 9]], dtype=np.int64)
        report = report_from_matrix(ConfusionMatrix(counts, ["a", "b"]))
        a, b = report.per_class
        assert a.precision == pytest.approx(8 / 9)
        assert a.recall == pytest.approx(8 / 10)
        assert a.f1 == pytest.approx(2 * (8 / 9) * 0.8 / ((8 / 9) + 0.8))
        assert b.support == 10 and b.predicted == 11
        assert report.accuracy == pytest.approx(17 / 20)
        assert report.macro_f1 == pytest.approx((a.f1 + b.f1) / 2)

    def test_absent_class_flagged_and_scores_zero(self):
        counts = np.array([[10, 0, 0], [0, 5, 0], [0, 0, 0]], dtype=np.int64)
        report = report_from_matrix(ConfusionMatrix(counts, ["a", "b", "c"]))
        c = report.per_class[2]
        assert c.absent and c.support == 0
        assert c.precision == 0.0 and c.recall == 0.0 and c.f1 == 0.0
        # macro still averages over all three classes
        assert report.macro_f1 == pytest.approx((1.0 + 1.0 + 0.0) / 3)

    def test_never_predicted_class_has_zero_precision(self):
        counts = np.array([[10, 0], [3, 0]], dtype=np.int64)
        report = report_from_matrix(ConfusionMatrix(counts, ["a", "b"]))
        b = report.per_class[1]
        assert b.predicted == 0 and b.precision == 0.0
        assert not b.absent  # it has support, the model just never picks it


class TestEvaluate:
    def test_end_to_end(self, tmp_path, synth_lines):
        model, _, records = self.trained(tmp_path, synth_lines)
        report = evaluate(model, records)
        assert report.num_records == len(records)
        assert report.accuracy == 1.0
        assert report.config["dim"] == 512
        assert report.config["classes"] == list(model.label_map.class_names)
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
        report = self.report(tmp_path, synth_lines)
        report.wall_time = 123.456789
        for fmt in ("text", "json", "csv"):
            assert "123.456789" not in render_report(report, fmt)

    def test_unknown_format_rejected(self, tmp_path, synth_lines):
        report = self.report(tmp_path, synth_lines)
        with pytest.raises(ValueError, match="xml"):
            render_report(report, "xml")
