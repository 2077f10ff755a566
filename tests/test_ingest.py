"""Bytes-level ingestion: parse_file's dictionary-encoded columns against the
line-by-line text oracle in tests/reference.py, and the names the benchmark
harness reads from the library."""

import ast
import logging
import os
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hdnids.dataset as dataset
from hdnids import build_codebook, encode_dataset, evaluate, load_label_map, render_report
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
from hdnids.encoding import EncoderTables
from conftest import train_small_model
from reference import (
    ref_class_indices,
    ref_infer_schema,
    ref_parse_file,
    ref_row_indices,
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
    lm = load_label_map()
    lm.strict = strict
    return lm


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

    @pytest.mark.parametrize("read_bytes", [1, 2, 5, 64, 1000])
    def test_reads_split_anywhere(self, tmp_path, monkeypatch, read_bytes):
        # reads that end between '\r' and '\n', inside a field, at a line end
        a, b = line("normal", "3").encode(), line("smurf").encode()
        data = a + b"\r\n" + b + b"\r\r\n\n" + a + b"\r" + b + b"\n\r" + a
        path = write(tmp_path, data)
        want = as_tuples(parse_file(path).records)
        monkeypatch.setattr(dataset, "_READ_BYTES", read_bytes)
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

    def test_well_formed_lines_skip_the_line_parser(self, tmp_path, monkeypatch, synth_lines):
        calls = []
        monkeypatch.setattr(dataset, "parse_line",
                            lambda *a, **k: calls.append(a) or RawRecord(()))
        path = write(tmp_path, "\r\n".join(synth_lines).encode())
        assert len(parse_file(path).records) == len(synth_lines)
        assert calls == []


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
    def test_any_field_width(self, tmp_path, monkeypatch, width):
        # lines with a field past the key width are read by parse_line
        calls = []
        read = dataset.parse_line
        monkeypatch.setattr(dataset, "parse_line",
                            lambda *a, **k: calls.append(a) or read(*a, **k))
        feats = list(FEATURES)
        feats[2] = "s" * width
        text = "\n".join([line(features=feats), line(), line(features=feats)])
        records = parse_file(write(tmp_path, text.encode())).records
        assert [r.values[2] for r in records] == ["s" * width, "2", "s" * width]
        assert len(calls) == (2 if width > CAP else 0)

    def test_invalid_utf8_decodes_as_the_file_does(self, tmp_path):
        # a cut multi-byte sequence before a comma, and two invalid start bytes
        feats = [f.encode() for f in FEATURES]
        feats[2], feats[3] = b"\xe2\x82", b"\xff\xfe"
        data = b",".join(feats + [b"normal"])
        records = parse_file(write(tmp_path, data)).records
        assert records[0].values[2:4] == ("\ufffd", "\ufffd\ufffd")
        assert records[0].values[2:4] == tuple(data.decode(errors="replace").split(",")[2:4])

    def test_bad_difficulty_is_parse_lines_error(self, tmp_path):
        text = "\n".join([line(difficulty="21")] * 200 + [line(difficulty="hard")])
        result = parse_file(write(tmp_path, text.encode()))
        assert result.malformed == [
            (201, "line 201: difficulty column 'hard' is not an integer")]
        assert {r.difficulty for r in result.records} == {21}


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
DIFFICULTIES = ["21", "0", " 3", "+2", "1_0", "٣", "x", b"\xff", "-1", "7" * (CAP + 3)]
BLANKS = [b"", b"  ", b"\t", b"\x0b", b"\x1c", " ".encode(), "　".encode()]
ENDS = [b"\n", b"\r\n", b"\r"]


def _bytes(value) -> bytes:
    return value if isinstance(value, bytes) else value.encode()


@st.composite
def field(draw, common, odd):
    pool = odd if draw(st.integers(0, 39)) == 0 else common
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
        feats.append(draw(field(DIFFICULTIES[:2], DIFFICULTIES)))
    return b",".join(feats)


@st.composite
def corpus(draw, pad=True):
    # most columns come from a few numbers, some from "0"/"1" alone, so the
    # schema's indicator test sees both outcomes
    common = draw(st.sampled_from([NUMBERS[:2], NUMBERS[:5], NUMBERS]))
    junk = st.lists(st.sampled_from([b"1", b"x", b""]), min_size=1, max_size=45).map(b",".join)
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


    @settings(max_examples=150, deadline=None)
    @given(data=corpus(pad=False), read_bytes=st.integers(1, 300),
           block_lines=st.integers(1, 5))
    def test_reads_and_blocks_change_nothing(self, data, read_bytes, block_lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.txt"
            path.write_bytes(data)
            want = outcome(ref_parse_file, path)
            with mock.patch.object(dataset, "_READ_BYTES", read_bytes), \
                    mock.patch.object(dataset, "_BLOCK_LINES", block_lines):
                (kind, result), _ = outcome(parse_file, path)
        if kind != "ok":
            assert (kind, result) == want[0]
        else:
            records, _, malformed = want[0][1]
            assert as_tuples(result.records) == as_tuples(records)
            assert result.malformed == malformed


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
