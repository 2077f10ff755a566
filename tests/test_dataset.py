"""Parsing, schema inference, label mapping, and splitting."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdnids
from hdnids.dataset import (
    CLASS_NAMES,
    COLUMN_NAMES,
    NUM_FEATURES,
    ParseError,
    SplitSpec,
    UnknownLabelError,
    class_indices,
    infer_schema,
    load_label_map,
    map_label,
    parse_file,
    split,
)
from conftest import make_synth_lines


def make_line(label="normal", difficulty=None, features=None):
    feats = features or [str(i) for i in range(NUM_FEATURES)]
    parts = list(feats) + [label]
    if difficulty is not None:
        parts.append(str(difficulty))
    return ",".join(parts)


class TestParseLine:
    """One line as parse_file reads it: its fields, or why it is malformed."""

    @staticmethod
    def parse(tmp_path, lines, allow_unlabeled=False):
        p = tmp_path / "f.txt"
        p.write_text("\n".join(lines) + "\n")
        return parse_file(p, allow_unlabeled=allow_unlabeled)

    def test_with_difficulty(self, tmp_path):
        r = self.parse(tmp_path, ["", "", make_line("neptune", 21)]).records[0]
        assert len(r.values) == NUM_FEATURES
        assert r.label == "neptune"
        assert r.difficulty == 21
        assert r.line_no == 3

    def test_without_difficulty(self, tmp_path):
        r = self.parse(tmp_path, [make_line("smurf")]).records[0]
        assert r.label == "smurf" and r.difficulty is None

    def test_unlabeled_only_when_allowed(self, tmp_path):
        bare = ",".join(str(i) for i in range(NUM_FEATURES))
        r = self.parse(tmp_path, [bare], allow_unlabeled=True).records[0]
        assert r.label is None
        with pytest.raises(ParseError, match="42 or 43"):
            self.parse(tmp_path, [bare])

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ParseError, match="first: line 9: expected 42 or 43 "
                                             "comma-separated fields, got 5$"):
            self.parse(tmp_path, [make_line()] * 8 + ["a,b,c,d,e"])

    def test_bad_difficulty(self, tmp_path):
        with pytest.raises(ParseError, match="first: line 1: difficulty column 'high' "
                                             "is not an integer$"):
            self.parse(tmp_path, [make_line("normal") + ",high"])


class TestParseFile:
    def test_skips_blank_lines(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text(make_line() + "\n\n  \n" + make_line("neptune", 2) + "\n")
        res = parse_file(p)
        assert len(res.records) == 2 and res.malformed_count == 0

    def test_few_malformed_lines_are_collected(self, tmp_path):
        good = [make_line("normal", i) for i in range(200)]
        p = tmp_path / "f.txt"
        p.write_text("\n".join(good + ["oops,line"]) + "\n")
        res = parse_file(p)
        assert len(res.records) == 200
        assert res.malformed_count == 1
        assert res.malformed[0][0] == 201  # line number kept for diagnosis

    def test_too_many_malformed_aborts(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("\n".join([make_line(), "bad,line", "worse"]) + "\n")
        with pytest.raises(ParseError, match="malformed"):
            parse_file(p)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_file(tmp_path / "nope.txt")


class TestInferSchema:
    def build(self, lines, tmp_path, **kw):
        p = tmp_path / "s.txt"
        p.write_text("\n".join(lines) + "\n")
        return parse_file(p).records, infer_schema(parse_file(p).records, **kw)

    def test_symbolic_columns_are_categorical(self, tmp_path, synth_lines):
        _, schema = self.build(synth_lines, tmp_path)
        assert schema.num_features == NUM_FEATURES
        for j in (1, 2, 3):
            assert schema.features[j].kind == "categorical"
            vocabulary = schema.features[j].vocabulary
            assert vocabulary == tuple(sorted(set(vocabulary)))

    def test_indicator_columns_detected(self, tmp_path, synth_lines):
        _, schema = self.build(synth_lines, tmp_path)
        for j in (6, 11, 13):  # conftest emits only "0"/"1" in these
            assert schema.features[j].kind == "categorical"
            assert schema.features[j].vocabulary == ("0", "1")
        assert schema.features[0].kind == "continuous"

    def test_continuous_range_covers_data(self, tmp_path, synth_lines):
        records, schema = self.build(synth_lines, tmp_path)
        col0 = [float(r.values[0]) for r in records]
        assert schema.features[0].min == min(col0)
        assert schema.features[0].max == max(col0)

    def test_log_scale_transforms_range(self, tmp_path, synth_lines):
        records, schema = self.build(synth_lines, tmp_path, log_scale=True)
        spec = schema.features[0]
        assert spec.transform == "log1p"
        col0 = [float(r.values[0]) for r in records]
        assert spec.max == pytest.approx(np.log1p(max(col0)))

    def test_non_numeric_column_names_line(self, tmp_path):
        feats = [str(i) for i in range(NUM_FEATURES)]
        feats[4] = "banana"
        lines = [make_line(), make_line(features=feats)]
        records, _ = self.build([make_line()], tmp_path)
        p = tmp_path / "bad.txt"
        p.write_text("\n".join(lines) + "\n")
        records = parse_file(p).records
        with pytest.raises(ParseError, match=f"line 2.*{COLUMN_NAMES[4]}"):
            infer_schema(records)

    @pytest.mark.parametrize("low, high", [("-1e308", "1e308"), ("0", "5e-324")])
    def test_range_float64_cannot_bin_names_column(self, tmp_path, low, high):
        """A continuous column whose max - min is infinite or below float64's
        smallest normal number is a ParseError naming it, not FeatureSpec's
        ValueError."""
        lines = []
        for value in (low, high):
            feats = [str(i) for i in range(NUM_FEATURES)]
            feats[4] = value
            lines.append(make_line(features=feats))
        p = tmp_path / "wide.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"'{COLUMN_NAMES[4]}'"):
            infer_schema(parse_file(p).records)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            infer_schema([])


class TestLabelMap:
    def test_packaged_map_covers_standard_labels(self):
        lm = load_label_map()
        assert lm.class_names == tuple(CLASS_NAMES)
        assert map_label("normal", lm) == 0
        assert map_label("neptune", lm) == 1
        assert map_label("nmap", lm) == 2
        assert map_label("guess_passwd", lm) == 3
        assert map_label("rootkit", lm) == 4
        assert len(lm.raw_to_class) == 40

    def test_packaged_map_read_as_utf8(self):
        """Not in the locale's encoding: no EncodingWarning on the way."""
        src = str(Path(hdnids.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", "import hdnids; hdnids.load_label_map()"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_unknown_label_fallback_default(self):
        lm = load_label_map()
        assert map_label("zero-day-thing", lm) == 0

    def test_unknown_label_strict_raises(self):
        lm = dataclasses.replace(load_label_map(), strict=True)
        with pytest.raises(UnknownLabelError):
            map_label("zero-day-thing", lm)

    def test_custom_fallback_class(self):
        lm = dataclasses.replace(load_label_map(), fallback_class=1)
        assert map_label("mystery", lm) == 1

    def test_custom_file_with_comments(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("# comment\nfoo,dos\nbar,u2r  # inline\n")
        lm = load_label_map(p)
        assert map_label("foo", lm) == 1 and map_label("bar", lm) == 4

    @pytest.mark.parametrize("text", ["foo,dos,extra\n", "normal,normal\nfoo\n"])
    def test_not_one_pair_rejected(self, tmp_path, text):
        p = tmp_path / "map.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match="expected 'raw_label,category'"):
            load_label_map(p)

    def test_bad_category_rejected(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("foo,exfiltration\n")
        with pytest.raises(ParseError, match="exfiltration"):
            load_label_map(p)

    def test_duplicate_rejected(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("foo,dos\nfoo,probe\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_label_map(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("# nothing here\n")
        with pytest.raises(ParseError, match="empty"):
            load_label_map(p)

    def test_dict_roundtrip(self):
        lm = dataclasses.replace(load_label_map(), strict=True, fallback_class=2)
        back = type(lm).from_dict(lm.to_dict())
        assert back.raw_to_class == lm.raw_to_class
        assert back.strict and back.fallback_class == 2


class TestSplit:
    def records(self, tmp_path, lines):
        p = tmp_path / "all.txt"
        p.write_text("\n".join(lines) + "\n")
        return parse_file(p).records

    def test_one_record_rejected(self, tmp_path, synth_lines):
        recs = self.records(tmp_path, synth_lines[:1])
        with pytest.raises(ValueError, match="at least 2 records"):
            split(recs, SplitSpec(), load_label_map())

    def test_fraction_respected_per_class(self, tmp_path, synth_lines):
        recs = self.records(tmp_path, synth_lines)
        lm = load_label_map()
        train, test = split(recs, SplitSpec(train_fraction=0.8, seed=42), lm)
        assert len(train) + len(test) == len(recs)
        for c in range(5):
            n_tr = sum(1 for r in train if map_label(r.label, lm) == c)
            n_te = sum(1 for r in test if map_label(r.label, lm) == c)
            n = n_tr + n_te
            assert n_tr == round(0.8 * n)
            assert n_te >= 1  # every class with >=2 members lands on both sides

    def test_deterministic_per_seed(self, tmp_path, synth_lines):
        recs = self.records(tmp_path, synth_lines)
        lm = load_label_map()
        a = split(recs, SplitSpec(seed=42), lm)
        b = split(recs, SplitSpec(seed=42), lm)
        c = split(recs, SplitSpec(seed=43), lm)
        assert [r.line_no for r in a[0]] == [r.line_no for r in b[0]]
        assert [r.line_no for r in a[0]] != [r.line_no for r in c[0]]

    def test_singleton_class_goes_to_train(self, tmp_path, synth_lines):
        lines = list(synth_lines) + [make_line("perl", 20)]  # lone u2r variant
        recs = self.records(tmp_path, lines)
        lm = load_label_map()
        # drop all other u2r records so the class has exactly one member
        recs = recs.take(np.flatnonzero([r.label != "rootkit" for r in recs]))
        train, test = split(recs, SplitSpec(seed=1), lm)
        assert any(r.label == "perl" for r in train)
        assert not any(r.label == "perl" for r in test)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.5)

    @pytest.mark.parametrize("field, value", [
        ("train_fraction", 0), ("train_fraction", 1),
        ("train_fraction", float("nan")), ("train_fraction", float("inf")),
        ("train_fraction", True), ("train_fraction", "0.5"), ("train_fraction", None),
        ("seed", 1.5), ("seed", True), ("seed", "7"), ("seed", None),
    ])
    def test_spec_rejects(self, field, value):
        """A SplitSpec is valid once built: seed 1.5 would split as seed 1."""
        with pytest.raises(ValueError, match=field):
            SplitSpec(**{field: value})
        # a copy is checked as it is built
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(SplitSpec(), **{field: value})
        # nor can a built one be changed
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(SplitSpec(), field, value)

    def test_class_indices(self, tmp_path, synth_lines):
        recs = self.records(tmp_path, synth_lines)
        lm = load_label_map()
        idx = class_indices(recs, lm)
        assert idx.dtype == np.int64 and len(idx) == len(recs)
        assert set(idx.tolist()) == {0, 1, 2, 3, 4}
