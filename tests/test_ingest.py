"""Bytes-level ingestion: parse_file's dictionary-encoded columns against the
line-by-line text oracle in tests/reference.py, and the names the benchmark
harness reads from the library."""

import ast
import dataclasses
import logging
import os
import re
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hdnids.dataset as dataset
from hdnids import build_codebook, encode_dataset, evaluate, load_label_map, render_report
from hdnids.codebook import FeatureSchema, FeatureSpec
from hdnids.dataset import (
    NUM_FEATURES,
    ParseError,
    RawRecord,
    RecordTable,
    SplitSpec,
    UnknownLabelError,
    class_indices,
    infer_schema,
    parse_file,
    split,
)
from hdnids.encoding import EncodedDataset, EncoderTables
from conftest import train_small_model
from reference import (
    ref_class_indices,
    ref_infer_schema,
    ref_parse_file,
    ref_row_indices,
    ref_scan,
    ref_split,
)

CAP = dataset._KEY_BYTES
FEATURES = [str(i) for i in range(NUM_FEATURES)]


def line(label="normal", difficulty=None, features=FEATURES):
    fields = list(features) + [label] + ([] if difficulty is None else [difficulty])
    return ",".join(fields)


def write(tmp_path, data: bytes) -> Path:
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    return path


def as_tuples(records):
    return [(r.values, r.label, r.difficulty, r.line_no) for r in records]


def label_map(strict=False):
    """The packaged label map with its unknown-label policy set as the CLI sets it."""
    return dataclasses.replace(load_label_map(), strict=strict)


class TestLines:
    def test_line_ends_as_text_mode(self, tmp_path):
        # '\r' alone ends a line, '\r\n' is one line end, blank lines count
        a, b, c = (line(n).encode() for n in ("normal", "smurf", "back"))
        path = write(tmp_path, a + b"\r" + b + b"\r\n\r\n" + c)
        assert [r.line_no for r in parse_file(path).records] == [1, 2, 4]

    def test_whitespace_lines_are_skipped_and_not_counted(self, tmp_path):
        # 150 good lines, 2 malformed (1.3% of 152): unicode whitespace-only
        # lines are skipped and do not lower the share below 1%
        blank = " \t\x0b\x0c\x1c 　".encode()
        good = [line().encode()] * 150
        path = write(tmp_path, b"\n".join(good + [blank] * 100 + [b"bad", b"worse"]))
        with pytest.raises(ParseError, match="2 of 152 lines malformed"):
            parse_file(path)

    @pytest.mark.parametrize("read_chars", [1, 2, 5, 64, 1000])
    def test_reads_split_anywhere(self, tmp_path, monkeypatch, read_chars):
        # reads that end between '\r' and '\n', inside a field, at a line end
        a, b = line("normal", "3").encode(), line("smurf").encode()
        data = a + b"\r\n" + b + b"\r\r\n\n" + a + b"\r" + b + b"\n\r" + a
        path = write(tmp_path, data)
        want = as_tuples(parse_file(path).records)
        monkeypatch.setattr(dataset, "_READ_CHARS", read_chars)
        assert as_tuples(parse_file(path).records) == want
        assert [r[3] for r in want] == [1, 2, 5, 6, 8]

    def test_reads_a_pipe(self, tmp_path, synth_lines):
        # a pipe reports no size, so the record arrays grow as lines arrive
        data = "\n".join(synth_lines).encode()
        want = as_tuples(parse_file(write(tmp_path, data)).records)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            got = as_tuples(parse_file(fifo).records)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == want

    def test_well_formed_lines_are_all_records(self, tmp_path, synth_lines):
        path = write(tmp_path, "\r\n".join(synth_lines).encode())
        result = parse_file(path)
        assert len(result.records) == len(synth_lines)
        assert result.malformed == []


class TestFields:
    def test_nul_bytes_keep_strings_apart(self, tmp_path):
        feats = list(FEATURES)
        rows = []
        for value in ("0", "0\x00", "\x00", "", "0\x00\x00"):
            feats[1] = value
            rows.append(line(features=feats))
        table = parse_file(write(tmp_path, "\n".join(rows).encode())).records
        assert [r.values[1] for r in table] == ["0", "0\x00", "\x00", "", "0\x00\x00"]

    @pytest.mark.parametrize("width", [7, 8, 15, 16, CAP - 1, CAP, CAP + 1, 5 * CAP])
    def test_any_field_width(self, tmp_path, width):
        # a field past the key width is keyed by the scan like any other
        feats = list(FEATURES)
        feats[2] = "s" * width
        text = "\n".join([line(features=feats), line(), line(features=feats)])
        result = parse_file(write(tmp_path, text.encode()))
        assert [r.values[2] for r in result.records] == ["s" * width, "2", "s" * width]
        assert result.malformed == []

    @pytest.mark.parametrize("block_lines", [1, 2, 3])
    def test_each_string_is_one_value(self, tmp_path, monkeypatch, block_lines):
        """A string keyed in blocks whose widest field takes one word, two or
        six is one entry of its column's values, which come in the order the
        blocks first hold them; each field past the key width has its own."""
        monkeypatch.setattr(dataset, "_BLOCK_LINES", block_lines)
        column = ["zz", "x" * 12, "ab", "ab", "y" * 40, "ab", "s" * (CAP + 1), "ab", "x" * 12,
                  "t" * (CAP + 2)]
        feats = list(FEATURES)
        rows = []
        for value in column:
            feats[2] = value
            rows.append(line(features=feats))
        table = parse_file(write(tmp_path, "\n".join(rows).encode())).records
        values = table.features[2].values
        assert table.features[2].strings() == column
        assert sorted(values) == sorted(set(column))
        if block_lines == 1:
            assert values == ["zz", "x" * 12, "ab", "y" * 40, "s" * (CAP + 1), "t" * (CAP + 2)]

    def test_invalid_utf8_decodes_as_the_file_does(self, tmp_path):
        # a cut multi-byte sequence before a comma, and two invalid start bytes
        feats = [f.encode() for f in FEATURES]
        feats[2], feats[3] = b"\xe2\x82", b"\xff\xfe"
        data = b",".join(feats + [b"normal"])
        records = parse_file(write(tmp_path, data)).records
        assert records[0].values[2:4] == ("\ufffd", "\ufffd\ufffd")
        assert records[0].values[2:4] == tuple(data.decode(errors="replace").split(",")[2:4])

    def test_bad_difficulty_is_malformed(self, tmp_path):
        # each line's reason names its own difficulty, whatever order the
        # block's distinct difficulties sort in
        text = "\n".join([line(difficulty="21")] * 300
                         + [line(difficulty="hard"), line(difficulty="x")])
        result = parse_file(write(tmp_path, text.encode()))
        assert result.malformed == [
            (301, "line 301: difficulty column 'hard' is not an integer"),
            (302, "line 302: difficulty column 'x' is not an integer")]
        assert {r.difficulty for r in result.records} == {21}

    def test_long_difficulty_checked_by_the_scan(self, tmp_path):
        """A difficulty past the key width is read once, as a short one is:
        an integer one keeps its line, and one that is not names it in its
        line's reason."""
        hard = "h" * (CAP + 1)
        text = "\n".join([line(difficulty="21")] * 200
                         + [line(difficulty="0" * CAP + "7"), line(difficulty=hard)])
        result = parse_file(write(tmp_path, text.encode()))
        assert result.malformed == [
            (202, f"line 202: difficulty column {hard!r} is not an integer")]
        assert [r.difficulty for r in result.records][-2:] == [21, 7]
        assert result.records.difficulty.values == ["21", "0" * CAP + "7"]


class TestOrder:
    """Results that depend on the order values are met in follow the records."""

    def lines(self, labels, column0):
        feats = list(FEATURES)
        out = []
        for label, value in zip(labels, column0):
            feats[0] = value
            out.append(line(label, features=feats))
        return "\n".join(out).encode()

    def test_unknown_labels_warn_and_raise_in_record_order(self, tmp_path):
        path = write(tmp_path, self.lines(["zzz", "normal", "aaa", "zzz", "aaa"], "01234"))
        table, (records, lines, _) = parse_file(path).records, ref_parse_file(path)
        for strict in (False, True):
            got = outcome(class_indices, table, label_map(strict))
            same(got, outcome(ref_class_indices, records, label_map(strict)))
            assert "'zzz'" in (got[1][0] if got[1] else got[0][1])
        spec = SplitSpec(seed=3)
        got = outcome(split, table, spec, load_label_map())
        want = outcome(ref_split, records, lines, spec, load_label_map())
        assert got[1] == want[1] and len(got[1]) == 2

    def test_signed_zero_range_as_per_record(self, tmp_path):
        # numpy's min over equal values keeps the last, so the order matters
        for column0 in (["-0", "0", "5"], ["0", "-0", "5"], ["5", "-0", "0"]):
            path = write(tmp_path, self.lines(["normal"] * 3, column0))
            got = infer_schema(parse_file(path).records).features[0]
            want = ref_infer_schema(ref_parse_file(path)[0]).features[0]
            assert (repr(got.min), repr(got.max)) == (repr(want.min), repr(want.max))


class TestRecordTable:
    def table(self, tmp_path):
        text = "\n".join([line("normal", "3"), "", line(" smurf "), line("back", " 7")])
        return parse_file(write(tmp_path, text.encode())).records

    def test_sequence_of_raw_records(self, tmp_path):
        table = self.table(tmp_path)
        assert len(table) == 3
        assert table[-1] == RawRecord(tuple(FEATURES), "back", 7, 4)
        assert list(table) == [table[0], table[1], table[2]]
        assert table[1].label == "smurf" and table[1].difficulty is None
        with pytest.raises(IndexError):
            table[3]

    def test_take_and_lines(self, tmp_path):
        table = self.table(tmp_path)
        cut = table.take(np.array([2, 0]))
        assert [r.line_no for r in cut] == [4, 1]
        assert cut.lines() == [line("back", " 7"), line("normal", "3")]

    def test_from_rows_checks_width(self):
        with pytest.raises(ValueError, match="record 1 has 2 values, expected 3"):
            RecordTable.from_rows([("a", "b", "c"), ("a", "b")], 3)

    @pytest.mark.parametrize("row, feature", [((None, "b"), 0), (("a", None), 1),
                                              ((None, None), 0)])
    def test_from_rows_rejects_none(self, row, feature):
        # a record has a value for every feature; a None is not another record's
        with pytest.raises(ValueError, match=f"^record 1 has no value for feature {feature}$"):
            RecordTable.from_rows([("a", "b"), row], 2)

    def test_from_rows_codes_are_narrow(self):
        table = RecordTable.from_rows([("a", str(i)) for i in range(129)], 2)
        assert [c.codes.dtype for c in table.features] == [np.int8, np.int16]
        assert table.labels.codes.dtype == table.difficulty.codes.dtype == np.int8
        assert table[128] == RawRecord(("a", "128"), None, None, 0)

    def test_split_side_reads_as_its_lines_parsed_again(self, tmp_path, synth_file):
        """split's tables share the file's dictionaries, so they hold strings
        none of their records use; sweep trains on and scores such tables."""
        model, _, table = train_small_model(synth_file, dim=512, iterations=2)
        _, test = split(table, SplitSpec(seed=5), model.label_map)
        assert any(len(c.present()) < len(c.values) for c in test.features)
        text = "".join(s + "\n" for s in test.lines())
        again = parse_file(write(tmp_path, text.encode())).records

        def packed(t):
            return encode_dataset(t, model.codebook, model.schema, model.threshold).packed

        assert repr(infer_schema(test)) == repr(infer_schema(again))
        assert np.array_equal(class_indices(test, model.label_map),
                              class_indices(again, model.label_map))
        assert packed(test).tobytes() == packed(again).tobytes()
        assert (render_report(evaluate(model, test), "json")
                == render_report(evaluate(model, again), "json"))


# --- the oracle property -------------------------------------------------------

NUMBERS = ["0", "1", "2", "0.5", "10", "1e3", "-0", "+1", "1_000", "007", " 3 ", "0.00"]
ODD_NUMBERS = ["inf", "nan", "-inf", "abc", "", "\x00", "0\x00", b"\xff", b"\xe2(",
               "٣", "9" * (CAP + 1), "1" * CAP]
SYMBOLS = ["tcp", "udp", "http", "ftp_data", " private", b"\xc3", "\x00", "",
           "x" * CAP, "y" * (CAP + 1), "z" * 100]
LABELS = ["normal", "neptune", " smurf ", "zero-day", b"\xffnormal", "normal\x00",
          "rootkit", "", " normal", "q" * (CAP + 2)]
# unknown labels that strip to the string of another: each distinct stripped
# label is mapped, and warned about, once per call, in the order records meet it
UNKNOWN = [" zero-day", "mystery", "mystery\t"]
# int() takes the first ten, and its error names each of the others
DIFFICULTIES = ["21", "0", " 3", "+2", " 7 ", "1_0", "٣", "-1", "7" * (CAP + 3), "0" * CAP + "7",
                "x", b"\xff", "x" * (CAP + 1), "h" * 71, "2.5", ""]
# a lone CR is a line end of its own, so a CR-only line is blank
BLANKS = [b"", b"  ", b"\t", b"\x0b", b"\x1c", " ".encode(), "　".encode(), b"\r"]
ENDS = [b"\n", b"\r\n", b"\r"]


def _bytes(value) -> bytes:
    return value if isinstance(value, bytes) else value.encode()


@st.composite
def field(draw, common, odd, odds=40):
    pool = odd if draw(st.integers(1, odds)) == 1 else common
    return _bytes(draw(st.sampled_from(pool)))


@st.composite
def record_line(draw, common_numbers):
    feats = []
    for j in range(NUM_FEATURES):
        if j in (1, 2, 3):
            feats.append(draw(field(SYMBOLS[:4], SYMBOLS)))
        else:
            feats.append(draw(field(common_numbers, ODD_NUMBERS)))
    kind = draw(st.sampled_from(["labelled"] * 3 + ["difficulty"] * 2 + ["bare"]))
    if kind == "bare":
        return b",".join(feats)
    feats.append(draw(field(LABELS[:3], LABELS)))
    if kind == "difficulty":
        # often odd, so a block can hold several difficulties int() rejects
        feats.append(draw(field(DIFFICULTIES[:2], DIFFICULTIES, odds=4)))
    return b",".join(feats)


@st.composite
def corpus(draw, pad=True):
    # most columns come from a few numbers, some from "0"/"1" alone, so the
    # schema's indicator test sees both outcomes
    common = draw(st.sampled_from([NUMBERS[:2], NUMBERS[:5], NUMBERS]))
    # lines of every field count from 1 to 50, 42 and 43 among them
    junk = st.integers(1, 50).flatmap(
        lambda n: st.lists(st.sampled_from([b"1", b"x", b"", b" "]), min_size=n, max_size=n)
    ).map(b",".join)
    records = record_line(common)
    lines = draw(st.lists(st.one_of(records, records, records, records, records,
                                    st.sampled_from(BLANKS), junk),
                          min_size=1, max_size=40))
    if pad and draw(st.booleans()):  # up to three malformed lines then pass the 1% rule
        lines = [line().encode()] * 300 + lines
    ends = draw(st.lists(st.sampled_from(ENDS), min_size=len(lines), max_size=len(lines)))
    data = b"".join(a + b for a, b in zip(lines, ends))
    if draw(st.booleans()):  # no line end after the last line
        data = data[:-len(ends[-1])]
    return data


class TestNarrowCodes:
    """A column's codes take the smallest signed dtype holding -1 and its
    last index: int8 up to 128 strings, int16 up to 32,768, int32 above."""

    N = 32_769  # lines, nine parse blocks
    DISTINCT = {0: 32_769, 4: 32_768, 5: 129, 6: 128, 7: 127}  # column: strings

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        feats = np.zeros((self.N, NUM_FEATURES), dtype=np.int64)
        for j, k in self.DISTINCT.items():
            feats[:, j] = np.arange(self.N) % k
        text = "\n".join(",".join(map(str, row)) + ",normal" for row in feats.tolist())
        return parse_file(write(tmp_path_factory.mktemp("narrow"), text.encode())).records

    def want(self, j, rows):
        return [str(i % self.DISTINCT.get(j, 1)) for i in rows]

    def test_dtypes(self, table):
        assert [table.features[j].codes.dtype for j in (0, 4, 5, 6, 7, 1)] == [
            np.int32, np.int16, np.int16, np.int8, np.int8, np.int8]
        assert [len(table.features[j].values) for j in (0, 4, 5, 6, 7, 1)] == [
            32_769, 32_768, 129, 128, 127, 1]
        assert table.labels.codes.dtype == np.int8

    def test_all_missing_difficulty_holds_minus_one(self, table):
        difficulty = table.difficulty
        assert difficulty.values == [] and difficulty.codes.dtype == np.int8
        assert (difficulty.codes == -1).all()
        assert difficulty.present() == [] and table[5].difficulty is None

    def test_strings_present_and_records(self, table):
        rows = range(self.N)
        for j in (0, 4, 5, 6, 7):
            assert table.features[j].strings() == self.want(j, rows)
            assert sorted(table.features[j].present(), key=int) == self.want(j, range(
                self.DISTINCT[j]))
        assert table[-1] == RawRecord(tuple(self.want(j, [self.N - 1])[0]
                                            for j in range(NUM_FEATURES)),
                                      "normal", None, self.N)
        assert table[200].values[6] == "72"

    def test_take_keeps_dtypes_and_strings(self, table):
        rows = np.array([self.N - 1, 0, 4095, 4096, 200])
        cut = table.take(rows)
        for j in (0, 4, 5, 6, 7):
            assert cut.features[j].codes.dtype == table.features[j].codes.dtype
            assert cut.features[j].strings() == self.want(j, rows)
        assert sorted(cut.features[6].present(), key=int) == ["0", "72", "127"]
        assert cut.difficulty.strings() == [None] * len(rows)
        assert [r.line_no for r in cut] == (rows + 1).tolist()


class TestRunningKeys:
    """RunningKeys against a dict keyed by each row padded with zero words to
    eight, which numbers the keys a batch adds in sorted order."""

    @staticmethod
    def padded(row) -> tuple:
        return tuple(row) + (0,) * (8 - len(row))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.uint8, np.uint64]),
           steps=st.integers(1, 8))
    def test_against_a_dict(self, data, dtype, steps):
        top = int(np.iinfo(dtype).max)
        word = st.sampled_from([0, 1, 2, top // 2 + 1, top])  # few: many duplicates
        store, seen, given = dataset.RunningKeys(), {}, 0
        for _ in range(steps):
            width = data.draw(st.integers(1, 8), label="width")
            rows = data.draw(st.lists(st.lists(word, min_size=width, max_size=width),
                                      max_size=12), label="rows")
            keys = np.array(rows, dtype=dtype).reshape(len(rows), width)
            ids, new = store.add(keys)
            unseen = sorted({self.padded(r) for r in rows} - seen.keys())
            for key in unseen:
                seen[key] = given
                given += 1
            assert ids.tolist() == [seen[self.padded(r)] for r in rows]
            assert [self.padded(rows[i]) for i in new.tolist()] == unseen
            assert len(store) == given


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(fn, *args, **kwargs):
    """("ok", result) or (exception type name, message), with the warnings
    hdnids.dataset logged on the way."""
    handler = _Warnings()
    logger = logging.getLogger("hdnids.dataset")
    logger.addHandler(handler)
    try:
        result = ("ok", fn(*args, **kwargs))
    except (ParseError, UnknownLabelError) as exc:
        result = (type(exc).__name__, str(exc))
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


def same(a, b):
    """Equal outcomes, comparing arrays by value and everything else by repr,
    so -0.0 and 0.0 differ."""
    (kind_a, val_a), warn_a = a
    (kind_b, val_b), warn_b = b
    assert (kind_a, warn_a) == (kind_b, warn_b)
    if isinstance(val_a, np.ndarray):
        assert val_a.dtype == val_b.dtype and np.array_equal(val_a, val_b)
    else:
        assert repr(val_a) == repr(val_b)


def same_classes_and_split(table, records, lines, strict, seed):
    """class_indices and split of a RecordTable give the oracle's classes,
    lines, error and warnings, in order, for the RawRecords and lines it
    was parsed from."""
    same(outcome(class_indices, table, label_map(strict)),
         outcome(ref_class_indices, records, label_map(strict)))
    if len(records) >= 2:
        spec = SplitSpec(train_fraction=0.6, seed=seed)
        got = outcome(split, table, spec, label_map(strict))
        want = outcome(ref_split, records, lines, spec, label_map(strict))
        event(f"split: {got[0][0]}, {len(got[1])} warnings")
        if got[0][0] == "ok":
            got = (("ok", tuple(t.lines() for t in got[0][1])), got[1])
        same(got, want)


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=corpus(), allow_unlabeled=st.booleans(), log_scale=st.booleans(),
           strict=st.booleans(), seed=st.integers(0, 2**64 - 1))
    def test_same_records_schema_indices_and_split(self, data, allow_unlabeled, log_scale,
                                                   strict, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.txt"
            path.write_bytes(data)
            got = outcome(parse_file, path, allow_unlabeled=allow_unlabeled)
            want = outcome(ref_parse_file, path, allow_unlabeled=allow_unlabeled)
        (kind, result), _ = got
        event(f"parse: {kind}")
        if kind != "ok":
            assert got == want
            return
        records, lines, malformed = want[0][1]
        table = result.records
        assert as_tuples(table) == as_tuples(records)
        assert result.malformed == malformed
        assert table.lines() == lines

        schema = outcome(infer_schema, table, log_scale=log_scale)
        same(schema, outcome(ref_infer_schema, records, log_scale=log_scale))
        event(f"schema: {schema[0][0]}")
        if schema[0][0] == "ok":
            tables = EncoderTables(build_codebook(schema[0][1], dim=64, bins=7, seed=1),
                                   schema[0][1])
            same(outcome(tables.row_indices, table),
                 outcome(ref_row_indices, [r.values for r in records], schema[0][1], 7))

        same_classes_and_split(table, records, lines, strict, seed)

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.sampled_from([None, *LABELS, *UNKNOWN]), min_size=1, max_size=30),
           strict=st.booleans(), seed=st.integers(0, 2**64 - 1))
    def test_same_classes_and_split_of_any_labels(self, labels, strict, seed):
        """Well-formed lines whose labels are often unknown, or absent."""
        text = ",".join(FEATURES).encode()
        data = b"\n".join(text if v is None else text + b"," + _bytes(v) for v in labels)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.txt"
            path.write_bytes(data)
            table = parse_file(path, allow_unlabeled=True).records
            records, lines, _ = ref_parse_file(path, allow_unlabeled=True)
        same_classes_and_split(table, records, lines, strict, seed)

    @settings(max_examples=150, deadline=None)
    @given(data=corpus(pad=False), read_chars=st.integers(1, 300),
           block_lines=st.integers(1, 5), allow_unlabeled=st.booleans())
    def test_reads_and_blocks_change_nothing(self, data, read_chars, block_lines,
                                             allow_unlabeled):
        """Wherever a read or a block starts, parse_file gives the oracle's
        outcome, and the scan names every malformed line the oracle names,
        with its line number and reason, past the 1% that aborts the parse."""
        scan, named = dataset._scan, []

        def spy(*args):
            out = scan(*args)
            named.append(out[-1])
            return out

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.txt"
            path.write_bytes(data)
            want = outcome(ref_parse_file, path, allow_unlabeled=allow_unlabeled)
            with mock.patch.object(dataset, "_READ_CHARS", read_chars), \
                    mock.patch.object(dataset, "_BLOCK_LINES", block_lines), \
                    mock.patch.object(dataset, "_scan", spy):
                (kind, result), _ = outcome(parse_file, path, allow_unlabeled=allow_unlabeled)
            assert named == [ref_scan(path, allow_unlabeled)[2]]
        if kind != "ok":
            assert (kind, result) == want[0]
        else:
            records, _, malformed = want[0][1]
            assert as_tuples(result.records) == as_tuples(records)
            assert result.malformed == malformed


# --- one reader per column: a bad value is found through the codes ---------------

BAD = ["abc", "inf", "nan"]
# the columns bad values go to, continuous unless a table holds only "0" and "1"
TAINTED = (0, 4, 5, 22)


@st.composite
def tainted_lines(draw):
    """Lines of 1-12 records with a few bad values in the TAINTED columns,
    at random records."""
    n = draw(st.integers(1, 12))
    rows = [[draw(st.sampled_from(["0", "1", "7", "300", "-2.5"])) if j in TAINTED
             else draw(st.sampled_from(["tcp", "udp"])) if j in dataset.SYMBOLIC_COLUMNS
             else "0" for j in range(NUM_FEATURES)] for _ in range(n)]
    for i, j, bad in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(TAINTED),
                                             st.sampled_from(BAD)), max_size=4)):
        rows[i][j] = bad
    return [",".join(row) + ",normal" for row in rows]


def encoding_schema(log_scale):
    """The schema tainted tables are encoded with, as a model trained on
    clean records would hold it."""
    lo, hi = (0.0, float(np.log1p(300.0))) if log_scale else (-2.5, 300.0)
    specs = [FeatureSpec(name=name, kind="continuous", min=lo, max=hi,
                         transform="log1p" if log_scale else "none") if j in TAINTED
             else FeatureSpec(name=name, kind="categorical",
                              vocabulary=["tcp", "udp"] if j in dataset.SYMBOLIC_COLUMNS
                              else ["0", "1"])
             for j, name in enumerate(dataset.COLUMN_NAMES)]
    return FeatureSchema(features=specs)


def ref_encoded(records, codebook, schema, threshold):
    """Packed encodings of RawRecords, their value indices taken from the
    oracle: the first bad value in record order raises, with its line."""
    idx = ref_row_indices([r.values for r in records], schema, codebook.bins,
                          [r.line_no for r in records])
    words = EncoderTables(codebook, schema).encode_rows(idx, threshold)
    return words.view(np.uint8)[:, :(codebook.dim + 7) // 8]


class TestOneReader:
    @settings(max_examples=200, deadline=None)
    @given(lines=tainted_lines(), data=st.data(), log_scale=st.booleans())
    def test_schema_and_encodings_of_tables_and_cuts(self, lines, data, log_scale):
        """infer_schema and encode_dataset of a table, or of a take of it
        that may leave a bad string unused, give the oracle's results or
        raise its error; a string no record holds is neither an error nor
        a NaN that warns when binned."""
        rows = data.draw(st.none() | st.lists(st.integers(0, len(lines) - 1), min_size=1,
                                              max_size=len(lines)), label="rows")
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "\n".join(lines).encode())
            table = parse_file(path).records
            records = ref_parse_file(path)[0]
        if rows is not None:
            table, records = table.take(np.array(rows)), [records[i] for i in rows]
        unused = any(set(table.features[j].values) - set(table.features[j].present())
                     & set(BAD) for j in TAINTED)
        event(f"{'whole table' if rows is None else 'take'}, unused bad string: {unused}")
        same(outcome(infer_schema, table, log_scale=log_scale),
             outcome(ref_infer_schema, records, log_scale=log_scale))
        schema = encoding_schema(log_scale)
        codebook = build_codebook(schema, dim=64, bins=7, seed=1)
        (kind, got), warned = outcome(encode_dataset, table, codebook, schema, 20.5)
        event(f"encode: {kind}")
        if kind == "ok":
            got = got.packed
        same(((kind, got), warned), outcome(ref_encoded, records, codebook, schema, 20.5))


# --- the staging of record numbers ---------------------------------------------

def staged(path, allow_unlabeled=False):
    """(what parse_file read, the sizes of the stagings it made): its table's
    columns and line numbers and its malformed lines, or its ParseError's
    message without the path."""
    sizes = []
    stage = dataset._stage
    with mock.patch.object(dataset, "_stage", lambda n: sizes.append(n) or stage(n)):
        try:
            result = parse_file(path, allow_unlabeled=allow_unlabeled)
        except ParseError as exc:
            return ("ParseError", str(exc).replace(str(path), "")), sizes
    table = result.records
    columns = [(c.values, c.codes.dtype, c.codes.tolist())
               for c in (*table.features, table.labels, table.difficulty)]
    return ("ok", columns, table.line_no.tolist(), result.malformed), sizes


class TestStaging:
    def test_lines_of_forty_commas_fill_the_bound(self, tmp_path):
        # the shortest line kept: 41 empty fields. n of them, the last without
        # its line end, take 41n - 1 bytes, and the one staging made for a
        # file that long holds exactly n records
        n = 3 * 4096 + 5
        path = write(tmp_path, b"\n".join([b"," * (NUM_FEATURES - 1)] * n))
        (kind, columns, line_no, malformed), sizes = staged(path, allow_unlabeled=True)
        assert sizes == [n]
        assert line_no == list(range(1, n + 1)) and malformed == []
        assert all(values == [""] for values, _, _ in columns[:NUM_FEATURES])
        assert all(values == [] and set(codes) == {-1}
                   for values, _, codes in columns[NUM_FEATURES:])

    def test_a_huge_file_stages_within_the_cap(self, tmp_path):
        # a file of 1 PiB bounds its records at 27 trillion, whose staging
        # (5 PB) no system maps; the first staging stops at the cap, and a
        # longer file's grows from there
        path = write(tmp_path, "\n".join([line()] * 5).encode())
        with mock.patch.object(dataset.os, "fstat", lambda fd: SimpleNamespace(st_size=1 << 50)):
            got, sizes = staged(path)
        assert sizes == [dataset._STAGE_RECORDS]
        with mock.patch.object(dataset, "_STAGE_RECORDS", 2), \
                mock.patch.object(dataset, "_BLOCK_LINES", 1):
            assert staged(path) == (got, [2, 4, 8])

    @settings(max_examples=40, deadline=None)
    @given(data=corpus(), block_lines=st.integers(1, 5))
    def test_a_pipe_reads_as_the_file(self, data, block_lines):
        # a pipe reports size 0: its staging starts at one record and grows,
        # and two well-formed lines first make it grow at least once
        data = f"{line()}\r\n{line('smurf', '3')}\n".encode() + data
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(dataset, "_BLOCK_LINES", block_lines):
            path, fifo = Path(tmp) / "in.txt", Path(tmp) / "fifo"
            path.write_bytes(data)
            want, file_sizes = staged(path)
            os.mkfifo(fifo)
            writer = threading.Thread(target=fifo.write_bytes, args=(data,))
            writer.start()
            try:
                got, pipe_sizes = staged(fifo)
            finally:
                writer.join(timeout=10)
        assert not writer.is_alive()
        event(f"parse: {got[0]}, {len(pipe_sizes)} stagings")
        assert got == want
        assert len(file_sizes) == 1 and pipe_sizes[0] == 1 and len(pipe_sizes) >= 2


# --- what the benchmark harness reads from the library ---------------------------

HARNESS = Path(__file__).resolve().parent.parent / "hdbench" / "child.py"


class TestHarnessCouplings:
    def test_parse_result_records(self, synth_file):
        result = parse_file(synth_file)
        want, _, malformed = ref_parse_file(synth_file)
        assert len(result.records) == len(want)
        assert result.malformed_count == len(malformed) == 0
        for i in (0, 1, len(want) // 2, len(want) - 1):
            values = result.records[i].values
            assert isinstance(values, tuple) and len(values) == NUM_FEATURES
            assert all(type(v) is str for v in values)
            assert values == want[i].values

    def test_value_rows_encode_as_the_parse_result(self, synth_file):
        table = parse_file(synth_file).records
        schema = infer_schema(table)
        cb = build_codebook(schema, dim=256, bins=10, seed=3)
        rows = [r.values for r in table]
        a = encode_dataset(rows, cb, schema, 20.5, jobs=2)
        b = encode_dataset(table, cb, schema, 20.5, jobs=2)
        assert a.packed.tobytes() == b.packed.tobytes()

    def test_encoded_dataset_names(self, synth_file):
        """The oracle check reads .packed[i] and .dim off an encode_dataset
        result, and the span callbacks len() of it."""
        table = parse_file(synth_file).records
        schema = infer_schema(table)
        cb = build_codebook(schema, dim=251, bins=10, seed=3)
        rows = [r.values for r in table]
        rows += rows[:7]  # duplicates share a row
        data = encode_dataset(rows, cb, schema, 20.5, jobs=2)
        assert data.dim == 251
        assert len(data) == len(rows)
        for i in (0, 1, len(rows) // 2, len(rows) - 1):
            row = data.packed[i]
            assert row.dtype == np.uint8 and row.shape == (32,)
            alone = encode_dataset([rows[i]], cb, schema, 20.5)
            assert row.tobytes() == alone.packed[0].tobytes()

    def test_retrain_args_and_result(self, tmp_path, synth_file, monkeypatch, capsys):
        """The retrain span reads the encoded data as args[1] and the
        per-epoch trace as result[1] of the call cli makes."""
        import hdnids.cli

        calls, real = [], hdnids.cli.retrain

        def recorded(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        monkeypatch.setattr(hdnids.cli, "retrain", recorded)
        assert hdnids.cli.main(["train", "--train", str(synth_file), "--model",
                                str(tmp_path / "m.hdm"), "--dim", "256",
                                "--iterations", "2"]) == 0
        (args, kwargs, result), = calls
        assert kwargs == {}
        assert isinstance(args[1], EncodedDataset)
        assert len(args[1]) == len(parse_file(synth_file).records)
        epochs = re.findall(r"epoch +[1-9]\d*: train accuracy ([0-9.]+)", capsys.readouterr().out)
        assert [f"{acc:.4f}" for acc in result[1]] == epochs

    def test_wrapped_names_exist(self):
        import hdnids.cli
        import hdnids.encoding
        import hdnids.evaluation

        modules = {"cli": hdnids.cli, "encoding": hdnids.encoding,
                   "evaluation": hdnids.evaluation}
        tree = ast.parse(HARNESS.read_text())
        install = next(n for n in tree.body
                       if isinstance(n, ast.FunctionDef) and n.name == "install_tracer")
        wrapped = set()
        for node in ast.walk(install):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "w":
                owner, name = node.args[0], node.args[1]
                if isinstance(name, ast.JoinedStr):  # f"cmd_{cmd}" over the commands
                    wrapped |= {(owner.id, f"cmd_{c}") for c in ("train", "evaluate", "predict")}
                else:
                    wrapped.add((owner.id, name.value))
        assert len(wrapped) == 19
        missing = [f"{m}.{n}" for m, n in sorted(wrapped) if not hasattr(modules[m], n)]
        assert missing == []
