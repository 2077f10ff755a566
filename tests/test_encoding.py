"""The batch encoder against the unpacked reference, and encoding edge cases."""

import hashlib
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdnids.encoding as encoding
from hdnids import infer_schema
from hdnids.codebook import FeatureSchema, FeatureSpec, build_codebook
from hdnids.dataset import NUM_FEATURES, RecordTable, parse_file
from hdnids.encoding import (
    DEFAULT_BATCH_SIZE,
    EncodedDataset,
    EncoderTables,
    default_threshold,
    encode_dataset,
    lookup_level,
    run_chunks,
)
from reference import ref_encode_binary, ref_unpack


def cont(name, lo=0.0, hi=100.0, transform="none"):
    return FeatureSpec(name=name, kind="continuous", min=lo, max=hi, transform=transform)


def cat(name, vocab):
    return FeatureSpec(name=name, kind="categorical", vocabulary=list(vocab))


def mixed_schema(n_cont=4, n_cat=2, transform="none"):
    feats = [cont(f"c{i}", 0.0, 1000.0, transform=transform) for i in range(n_cont)]
    feats += [cat(f"k{i}", ["a", "b", "c", "d"]) for i in range(n_cat)]
    return FeatureSchema(features=feats)


def random_rows(schema, n, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        row = []
        for spec in schema.features:
            if spec.kind == "continuous":
                # spill past both range edges now and then
                row.append(str(rng.uniform(-100.0, 1200.0)))
            else:
                vocab = list(spec.vocabulary) + ["never-seen"]
                row.append(vocab[rng.integers(len(vocab))])
        rows.append(tuple(row))
    return rows


def oracle(row, cb, schema, threshold):
    return ref_encode_binary(
        row, cb, schema, threshold,
        level_for=lambda j, raw: lookup_level(j, raw, cb, schema),
    )


def bits(data, i):
    return ref_unpack(data.packed[i], data.dim)


class TestScalarPath:
    """Single-record behaviour of the batch encoder."""

    def test_default_threshold_is_half_feature_count(self):
        assert default_threshold(mixed_schema(4, 2)) == 3.0
        assert default_threshold(mixed_schema(5, 2)) == 3.5

    def test_binarize_is_strict(self):
        # one feature: every coordinate sum is 0 or 1, so threshold 1 is
        # never exceeded while threshold 0 keeps exactly the set bits
        schema = FeatureSchema(features=[cont("c0")])
        cb = build_codebook(schema, dim=64, bins=4, seed=3)
        row = [("50",)]
        assert not encode_dataset(row, cb, schema, 1.0).packed.any()
        assert bits(encode_dataset(row, cb, schema, 0.0), 0) == oracle(row[0], cb, schema, 0.0)

    def test_encode_coordinate_range(self):
        # coordinate sums lie in [0, N]: below 0 sets every bit, N sets none
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        rows = random_rows(schema, 5, 0)
        assert all(all(bits(encode_dataset(rows, cb, schema, -0.5), i)) for i in range(5))
        assert not encode_dataset(rows, cb, schema, schema.num_features).packed.any()

    def test_encode_rejects_wrong_arity(self):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        with pytest.raises(ValueError, match="6"):
            encode_dataset([("1", "2")], cb, schema, 3.0)

    def test_matches_unpacked_reference(self):
        schema = mixed_schema(3, 2)
        cb = build_codebook(schema, dim=64, bins=8, seed=11)
        threshold = default_threshold(schema)
        rows = random_rows(schema, 25, seed=1)
        data = encode_dataset(rows, cb, schema, threshold)
        for i, row in enumerate(rows):
            assert bits(data, i) == oracle(row, cb, schema, threshold)

    def test_encode_binary_keeps_sum_and_label(self):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        data = encode_dataset(random_rows(schema, 4, 0), cb, schema,
                              default_threshold(schema), labels=[3, 0, 1, 3])
        assert data.labels.tolist() == [3, 0, 1, 3]
        assert data.labels.dtype == np.int64


class TestEncodedDataset:
    def test_from_records_and_access(self):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        t = default_threshold(schema)
        rows = random_rows(schema, 5, 0)
        data = encode_dataset(rows, cb, schema, t, labels=[i % 2 for i in range(5)])
        assert len(data) == 5
        assert data.labels.tolist() == [0, 1, 0, 1, 0]
        for i, row in enumerate(rows):
            assert data.unpack(slice(i, i + 1))[0].tolist() == oracle(row, cb, schema, t)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            EncodedDataset(np.zeros((3, 2), dtype=np.uint8), 16, labels=np.zeros(2))

    def test_requires_uint8(self):
        with pytest.raises(ValueError):
            EncodedDataset(np.zeros((3, 2), dtype=np.int32), 16)

    def test_padding_bits_cleared_on_a_copy(self):
        # dim 11 leaves 5 padding bits in the second byte
        rows = np.array([[0xFF, 0xFF], [0x01, 0x07]], dtype=np.uint8)
        data = EncodedDataset(rows, 11)
        assert data.packed.tolist() == [[0xFF, 0x07], [0x01, 0x07]]
        assert rows[0, 1] == 0xFF  # the caller's array is left alone
        clean = data.rows
        assert np.shares_memory(EncodedDataset(clean, 11).rows, clean)  # nothing to clear, no copy

    def test_records_share_rows_through_inverse(self):
        rows = np.array([[0b101], [0b011]], dtype=np.uint8)
        data = EncodedDataset(rows, 3, labels=[0, 1, 1], inverse=np.array([1, 1, 0]))
        assert len(data) == 3
        assert data.packed.tolist() == [[0b011], [0b011], [0b101]]
        assert data.unpack(slice(1, 3)).tolist() == [[1, 1, 0], [1, 0, 1]]
        with pytest.raises(ValueError, match="labels"):
            EncodedDataset(rows, 3, labels=[0, 1], inverse=np.array([1, 1, 0]))

    @pytest.mark.parametrize("inverse", [
        [0, 3, 1],  # past the last row
        [0, -1, 1],  # negative
        [[0], [1], [2]],  # 2-D
        [0.0, 1.0, 2.0],  # float
    ])
    def test_bad_inverse_rejected(self, inverse):
        with pytest.raises(ValueError, match="inverse"):
            EncodedDataset(np.zeros((3, 2), dtype=np.uint8), 16, inverse=np.array(inverse))

    def test_unpack_slice_or_indices(self):
        rows = np.array([[0b101], [0b011], [0b110]], dtype=np.uint8)
        data = EncodedDataset(rows, 3)
        assert data.unpack(slice(1, 3)).tolist() == [[1, 1, 0], [0, 1, 1]]
        assert data.unpack(np.array([2, 0])).tolist() == [[0, 1, 1], [1, 0, 1]]
        assert data.unpack(slice(0, 1)).dtype == np.uint8


class TestBatchPath:
    @pytest.mark.parametrize("transform", ["none", "log1p"])
    def test_batch_equals_scalar(self, transform):
        schema = mixed_schema(5, 3, transform=transform)
        cb = build_codebook(schema, dim=333, bins=7, seed=21)
        t = default_threshold(schema)
        rows = random_rows(schema, 40, seed=2)
        data = encode_dataset(rows, cb, schema, t)
        for i, row in enumerate(rows):
            assert bits(data, i) == oracle(row, cb, schema, t)

    def test_batch_boundaries_do_not_matter(self, monkeypatch):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        t = default_threshold(schema)
        rows = random_rows(schema, 57, seed=4)
        monkeypatch.setattr(encoding, "DEFAULT_BATCH_SIZE", 2048)
        reference = encode_dataset(rows, cb, schema, t)
        for bs in (1, 7, 56, 57, 58):
            monkeypatch.setattr(encoding, "DEFAULT_BATCH_SIZE", bs)
            other = encode_dataset(rows, cb, schema, t)
            assert np.array_equal(other.packed, reference.packed)

    def test_worker_count_does_not_matter(self, monkeypatch):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        t = default_threshold(schema)
        rows = random_rows(schema, 64, seed=5)
        monkeypatch.setattr(encoding, "DEFAULT_BATCH_SIZE", 8)
        a = encode_dataset(rows, cb, schema, t, jobs=1)
        b = encode_dataset(rows, cb, schema, t, jobs=4)
        assert np.array_equal(a.packed, b.packed)

    def test_one_row_per_distinct_index_row(self):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        rows = random_rows(schema, 40, seed=8)
        rows += rows[::2] + [rows[0]] * 5
        data = encode_dataset(rows, cb, schema, default_threshold(schema))
        table = RecordTable.from_rows(rows, schema.num_features)
        idx = EncoderTables(cb, schema).row_indices(table)
        assert len(data.rows) == len(np.unique(idx, axis=0)) < len(data) == len(rows)

    def test_wide_schema_uses_exact_sums(self):
        # >=250 features forces the uint16 accumulator; coordinate sums
        # past 255 must not wrap
        feats = [cont(f"c{i}", 0.0, 10.0) for i in range(300)]
        schema = FeatureSchema(features=feats)
        cb = build_codebook(schema, dim=64, bins=4, seed=8)
        t = default_threshold(schema)
        rows = [tuple(str(v % 10) for v in range(300)) for _ in range(3)]
        data = encode_dataset(rows, cb, schema, t)
        for i, row in enumerate(rows):
            assert bits(data, i) == oracle(row, cb, schema, t)

    def test_arity_checked_on_every_row(self):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        rows = random_rows(schema, 5, seed=6)
        rows[3] = rows[3][:-1]
        with pytest.raises(ValueError, match="record 3"):
            encode_dataset(rows, cb, schema, default_threshold(schema))

    def test_missing_value_rejected(self):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        rows = [list(r) for r in random_rows(schema, 2, seed=6)]
        t = default_threshold(schema)
        with pytest.raises(ValueError, match="^record 0 has no value for feature 0$"):
            encode_dataset([[None] + rows[0][1:]], cb, schema, t)
        # a categorical None is not read as the next record's value
        rows[0][4] = None
        with pytest.raises(ValueError, match="^record 0 has no value for feature 4$"):
            encode_dataset(rows, cb, schema, t)

    def test_table_width_checked(self):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        narrow = [r[:-1] for r in random_rows(schema, 5, seed=6)]
        table = RecordTable.from_rows(narrow, schema.num_features - 1)
        with pytest.raises(ValueError, match=f"values, expected {schema.num_features}"):
            encode_dataset(table, cb, schema, default_threshold(schema))

    def test_non_numeric_value_names_column(self):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        rows = [list(r) for r in random_rows(schema, 3, seed=7)]
        rows[1][2] = "not-a-number"
        # value rows have no lines, so the message names none
        with pytest.raises(ValueError, match="^column 'c2' has non-numeric value 'not-a-number'$"):
            encode_dataset(rows, cb, schema, default_threshold(schema))

    def test_non_finite_value_names_column(self):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        rows = [list(r) for r in random_rows(schema, 3, seed=7)]
        rows[2][0] = "inf"
        with pytest.raises(ValueError, match="^column 'c0' has non-numeric value 'inf'$"):
            encode_dataset(rows, cb, schema, default_threshold(schema))

    def test_empty_input_rejected(self):
        schema = mixed_schema()
        cb = build_codebook(schema, dim=128, bins=8, seed=3)
        with pytest.raises(ValueError):
            encode_dataset([], cb, schema, 3.0)


class TestPackedKernel:
    """The bit-sliced counter and the distinct-row pass against the oracle."""

    @settings(max_examples=100, deadline=None)
    @given(
        features=st.sampled_from([1, 2, 3, 63, 64, 65, 300]),
        dim=st.sampled_from([1, 7, 8, 63, 64, 65, 333]),
        kind=st.sampled_from(["negative", "zero", "integer", "half", "at_least_f"]),
        duplicate=st.booleans(),
        data=st.data(),
    )
    def test_prop_matches_reference(self, features, dim, kind, duplicate, data):
        # plane counts cross powers of two (F = 1..3, 63..65, 300) and rows
        # end mid-word and mid-byte; padding bits past dim must stay clear
        bins = min(dim, 8)
        feats = [cat(f"k{j}", ["a", "b", "c"]) if j % 5 == 4 else cont(f"c{j}", 0.0, bins)
                 for j in range(features)]
        schema = FeatureSchema(features=feats)
        cb = build_codebook(schema, dim=dim, bins=bins, seed=data.draw(st.integers(0, 99)))
        m = data.draw(st.integers(0, features))
        threshold = {"negative": -0.5 - m, "zero": 0.0, "integer": float(m),
                     "half": m + 0.5, "at_least_f": features + m / 2}[kind]
        draw_row = st.tuples(*[
            st.sampled_from(["a", "b", "c", "zz"]) if spec.kind == "categorical"
            else st.integers(0, bins - 1).map(lambda v: str(v + 0.5))
            for spec in feats])
        if duplicate:
            rows = [data.draw(draw_row)] * data.draw(st.integers(1, 9))
        else:  # distinct raw values give distinct table rows
            rows = list(dict.fromkeys(data.draw(st.lists(draw_row, min_size=1, max_size=9))))
        want = {row: oracle(row, cb, schema, threshold) for row in set(rows)}
        pad = [0] * (-dim % 8)
        for batch_size in (1, 7, DEFAULT_BATCH_SIZE):
            for jobs in (1, 2):
                with mock.patch.object(encoding, "DEFAULT_BATCH_SIZE", batch_size):
                    got = encode_dataset(rows, cb, schema, threshold, jobs=jobs)
                for i, row in enumerate(rows):
                    assert ref_unpack(got.packed[i], dim + len(pad)) == want[row] + pad

    @pytest.mark.parametrize("dim, log_scale, threshold, digest", [
        (2000, False, None, "23be9b1de7ac9d962419f7510db645be53f92f732632e13f6d067393688fd2a4"),
        (333, True, 17.0, "556b5822b7222e0672b944181686dbe4ea0fd3f584d9b8d197263faeae78a1b5"),
        (333, False, -1.5, "8b5cc6a4b6747d7238926973fba42fe41b52ec159ad6271f6d0f0683971baf66"),
    ])
    def test_packed_bytes_match_recorded_digest(self, synth_lines, dim, log_scale,
                                                threshold, digest):
        """Encodings of the conftest corpus, a third of its records twice, are
        pinned to the bytes the unpacked gather-and-add encoder wrote."""
        rows = [tuple(line.split(",")[:NUM_FEATURES]) for line in synth_lines]
        schema = infer_schema(RecordTable.from_rows(rows, NUM_FEATURES), log_scale=log_scale)
        rows += rows[::3]
        cb = build_codebook(schema, dim=dim, bins=10, seed=42)
        t = default_threshold(schema) if threshold is None else threshold
        packed = encode_dataset(rows, cb, schema, t).packed
        assert hashlib.sha256(packed.tobytes()).hexdigest() == digest


class TestMemory:
    """encode_dataset holds little beyond the distinct rows it returns."""

    @pytest.mark.parametrize("vocabulary, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_index_dtype_holds_every_table_row(self, vocabulary, dtype):
        # a categorical feature's last row, OOV, has index len(vocabulary)
        vocab = [f"v{i:03d}" for i in range(vocabulary)]
        schema = FeatureSchema(features=[cat("k", vocab), cont("c", 0.0, 9.0)])
        cb = build_codebook(schema, dim=96, bins=10, seed=2)
        tables = EncoderTables(cb, schema)
        assert tables.index_dtype == dtype
        rows = [(vocab[-1], "9"), ("unseen", "0"), (vocab[0], "4.5")] * 2
        idx = tables.row_indices(RecordTable.from_rows(rows, 2))
        assert idx.dtype == dtype and idx[:3].tolist() == [[vocabulary - 1, 9],
                                                           [vocabulary, 0], [0, 5]]
        data = encode_dataset(rows, cb, schema, 0.5)
        for i, row in enumerate(rows):
            assert bits(data, i) == oracle(row, cb, schema, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), vocabulary=st.sampled_from([3, 300]),
           seed=st.integers(0, 2**32 - 1))
    def test_dedup_matches_np_unique(self, n, vocabulary, seed):
        """The distinct rows and the inverse are np.unique's of the index
        rows, byte for byte, in uint8 and in uint16 indices."""
        vocab = [f"v{i:03d}" for i in range(vocabulary)]
        schema = FeatureSchema(features=[cat("k", vocab), cont("c", 0.0, 9.0), cat("j", "ab")])
        cb = build_codebook(schema, dim=64, bins=10, seed=2)
        rng = np.random.default_rng(seed)
        rows = [(vocab[a], str(b), "ab"[c]) for a, b, c in
                rng.integers(0, [min(vocabulary, 4), 10, 2], size=(n, 3)).tolist()]
        tables = EncoderTables(cb, schema)
        idx = tables.row_indices(RecordTable.from_rows(rows, 3))
        keys = idx.view(np.dtype((np.void, idx.shape[1] * idx.itemsize))).ravel()
        want, want_inverse = np.unique(keys, return_inverse=True)
        data = encode_dataset(rows, cb, schema, 1.5)
        assert data.inverse.dtype == want_inverse.dtype
        assert data.inverse.tobytes() == want_inverse.tobytes()
        np.testing.assert_array_equal(data.rows, tables.encode_rows(
            want.view(idx.dtype).reshape(len(want), -1), 1.5).view(np.uint8)[:, :8])

    @pytest.mark.parametrize("features", [1, 2, 7, 41, 100])
    def test_count_buffers_cover_one_call(self, features):
        """EncoderTables.buffers is what one count holds at once, so a worker
        handed that many allocates none, and the encodings do not change."""
        schema = FeatureSchema(features=[cont(f"c{j}", 0.0, 9.0) for j in range(features)])
        cb = build_codebook(schema, dim=200, bins=10, seed=3)
        tables = EncoderTables(cb, schema)
        idx = np.random.default_rng(features).integers(0, 10, size=(37, features))
        pool = [np.empty((len(idx), tables.words), dtype=np.uint64)
                for _ in range(tables.buffers)]
        spare = list(pool)
        planes = tables._count_planes(idx, spare)
        assert sorted(map(id, planes + spare)) == sorted(map(id, pool))
        threshold = features / 2
        assert np.array_equal(tables.encode_rows(idx, threshold, list(pool)),
                              tables.encode_rows(idx, threshold))

    def test_traced_peak_per_record(self, tmp_path):
        """Above its rows, a narrow index matrix, its sorted copy and 8-byte
        order and inverse entries: about 78 bytes per record here. np.unique,
        which first copies the matrix flat, came to about 122, and an int32
        matrix kept alive beside the rows to about 540."""
        rng = np.random.default_rng(5)
        patterns = rng.integers(0, 40, size=(4000, NUM_FEATURES))
        values = patterns[rng.integers(0, len(patterns), size=8000)]
        path = tmp_path / "in.txt"
        path.write_text("\n".join(",".join(map(str, row)) + ",normal"
                                  for row in values.tolist()))
        table = parse_file(path).records
        schema = infer_schema(table)
        cb = build_codebook(schema, dim=1000, bins=10, seed=1)
        tracemalloc.start()
        try:
            data = encode_dataset(table, cb, schema, default_threshold(schema), jobs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data.rows) < len(data) == 8000
        assert (peak - data.rows.nbytes) / len(data) < 80


class TestRunChunks:
    @pytest.mark.parametrize("jobs", [-3, 0, 1.5, True, "2"])
    def test_jobs_must_be_a_count(self, jobs):
        """jobs is None or an integer >= 1; anything else is a ValueError, not
        a run that waits for scratch no thread was given. The call runs on a
        thread joined with a timeout, so a hang fails the test."""
        outcome = []

        def call():
            try:
                run_chunks(lambda s, e, held: None, 10, 4, jobs, object)
                outcome.append("returned")
            except ValueError as exc:
                outcome.append(str(exc))

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive(), "run_chunks did not return"
        assert outcome == [f"jobs must be >= 1, got {jobs!r}"]

    def test_thread_pool_capped(self, monkeypatch):
        """No more threads than jobs, slices or four per CPU, one scratch
        per thread and none for no slices; no thread starts here."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(encoding.concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(encoding.os, "cpu_count", lambda: 2)
        done, made = [], []

        def scratch():
            made.append(object())
            return made[-1]

        for n, jobs, threads in ((100, 500, 8), (5, 500, 5), (100, 3, 3), (100, 1, 1),
                                 (1, 500, 1), (0, 500, 0)):
            run_chunks(lambda s, e, held: done.append((s, e, held)), n, 1, jobs, scratch)
            assert sorted((s, e) for s, e, _ in done) == [(i, i + 1) for i in range(n)]
            assert len(made) == threads
            assert {id(held) for _, _, held in done} <= {id(m) for m in made}
            done.clear()
            made.clear()
        assert sizes == [8, 5, 3]

    def test_scratch_held_by_one_slice_at_a_time(self):
        """Real threads switching every microsecond: every scratch is made on
        the calling thread, and no two slices hold one at once."""
        lock = threading.Lock()
        made, held, clashes, done = [], set(), [], []

        def scratch():
            made.append(threading.get_ident())
            return [len(made)]

        def fn(start, stop, mine):
            with lock:
                if mine[0] in held:
                    clashes.append(mine[0])
                held.add(mine[0])
            sum(range(2000))  # long enough for the other threads to run
            with lock:
                held.discard(mine[0])
                done.append(start)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_chunks(fn, 300, 1, 3, scratch)
        finally:
            sys.setswitchinterval(interval)
        assert made == [threading.get_ident()] * 3
        assert not clashes and sorted(done) == list(range(300))
