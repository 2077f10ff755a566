"""Centroid training, retraining invariants, prediction, persistence."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hdnids.codebook import FeatureSchema, FeatureSpec, build_codebook
from hdnids.dataset import LabelMap, RecordTable
from hdnids.encoding import EncodedDataset, encode_dataset
from hdnids.evaluation import evaluate
import hdnids.model
from hdnids.model import (
    _RETRAIN_STREAM_TAG,
    ClassModel,
    CorruptModelError,
    Hyperparams,
    atomic_write,
    load_model,
    predict_batch,
    predict_table,
    retrain,
    save_model,
    train_initial,
)
from conftest import (
    CRAFTED_HEADERS, DEFAULT_COUNTS, edit_header, make_synth_lines, reframe,
    train_small_model, with_hyperparams,
)
from reference import ref_cosine, ref_retrain_epoch, ref_unpack


def packed(bits):
    return np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")


def tiny_label_map(names):
    return LabelMap(raw_to_class={n: i for i, n in enumerate(names)},
                    class_names=list(names))


def tiny_schema():
    return FeatureSchema(
        features=[FeatureSpec(name="f", kind="continuous", min=0.0, max=1.0)])


def toy_clusters(seed=6, n_per=30, dim=64, flip=24, classes=3):
    """Bit clusters around random prototypes; separable but the centroids
    start out wrong on a few samples, so retraining has real work to do."""
    rng = np.random.default_rng(seed)
    protos = (rng.random((classes, dim)) < 0.5).astype(np.uint8)
    rows, labels = [], []
    for c in range(classes):
        for _ in range(n_per):
            bits = protos[c].copy()
            pos = rng.choice(dim, size=flip, replace=False)
            bits[pos] ^= 1
            rows.append(np.packbits(bits, bitorder="little"))
            labels.append(c)
    return EncodedDataset(np.vstack(rows), dim, np.array(labels))


def toy_model(data, classes=3, seed=6, alpha=1.0, iterations=50):
    names = ["a", "b", "c", "d", "e"][:classes]
    return ClassModel(
        reps=train_initial(data, classes),
        codebook=None,
        schema=tiny_schema(),
        label_map=tiny_label_map(names),
        hyperparams=Hyperparams(dim=data.dim, alpha=alpha, iterations=iterations, seed=seed),
    )


# several retrain chunks; dims that are not multiples of 8; dyadic alphas
ORACLE_CASES = dict(
    n=st.integers(300, 360),
    dim=st.sampled_from([9, 30, 47]),
    classes=st.integers(2, 4),
    alpha=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**16),
)


def check_retrain_against_oracle(n, dim, classes, alpha, seed):
    """retrain on seeded clustered rows (set padding bits, an empty last
    class) must give the naive sequential loop's trace and representatives."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    labels[labels == classes - 1] = 0  # the last class has no samples
    protos = rng.random((classes, dim)) < 0.5
    bits = protos[labels] ^ (rng.random((n, dim)) < 0.3)
    rows = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    rows[:, -1] |= rng.integers(0, 256, size=n, dtype=np.uint8) & ~np.uint8(
        (1 << dim % 8) - 1)
    data = EncodedDataset(rows, dim, labels)
    names = ["a", "b", "c", "d"][:classes]
    epochs = 2
    model = ClassModel(
        reps=train_initial(data, classes), codebook=None,
        schema=tiny_schema(), label_map=tiny_label_map(names),
        hyperparams=Hyperparams(dim=dim, bins=1, alpha=alpha, iterations=epochs, seed=seed),
    )
    got, trace = retrain(model, data)

    order = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, _RETRAIN_STREAM_TAG]))).permutation(n)
    samples = [bits[i].astype(int).tolist() for i in order]
    visit_labels = [int(labels[i]) for i in order]
    reps = model.reps.tolist()
    want = []
    for _ in range(epochs):
        reps, updates, correct = ref_retrain_epoch(reps, samples, visit_labels, alpha)
        want.append(correct / n)
        if updates == 0:
            break
    assert trace == want
    assert np.array_equal(got.reps, np.array(reps))


# SHA-256 of the model file overlap_model_digest trains, one per alpha;
# 0.1 is not dyadic, so its representatives are not multiples of alpha
MODEL_DIGESTS = [
    (1.0, "b15e2391035b82763dfafb62962f938b3f82cd8e6910d109a3edd0d6eb611900"),
    (0.5, "8e719546b6f94c6290b0047c1048e2aa36ef743c6d37b5721b9b0a8b8c929c32"),
    (0.1, "7ac5cf898db4b7ff8fd5ac13c6b1b50a4930fc4b484eee6d1ef9f4ad147f6935"),
]


def overlap_model_digest(tmp_path, alpha):
    """SHA-256 of a D=2000 model trained for 10 epochs on 340 records whose
    class ranges overlap."""
    src = tmp_path / "train.txt"
    src.write_text("\n".join(make_synth_lines(DEFAULT_COUNTS, seed=7, gap=-280)) + "\n")
    model, _, _ = train_small_model(src, dim=2000, alpha=alpha, iterations=10)
    save_model(model, tmp_path / "m.hdm")
    return hashlib.sha256((tmp_path / "m.hdm").read_bytes()).hexdigest()


class TestTrainInitial:
    def test_sums_exact(self):
        rows = [packed([1, 1, 0, 0]), packed([1, 0, 1, 0]), packed([0, 0, 1, 1])]
        data = EncodedDataset(np.vstack(rows), 4, np.array([0, 0, 1]))
        reps = train_initial(data, 2)
        assert reps[0].tolist() == [2, 1, 1, 0]
        assert reps[1].tolist() == [0, 0, 1, 1]

    def test_empty_class_is_zero_vector(self, caplog):
        data = EncodedDataset(np.vstack([packed([1, 0])]), 2, np.array([0]))
        with caplog.at_level("WARNING"):
            reps = train_initial(data, 3)
        assert not reps[1].any() and not reps[2].any()
        assert "no training samples" in caplog.text

    def test_class_of_all_zero_encodings_has_samples(self, caplog):
        """A class whose records all encode to zero keeps a zero row, but it
        has samples: only the class no label names is warned about."""
        data = EncodedDataset(np.vstack([packed([1, 0]), packed([0, 0])]), 2, np.array([0, 1]))
        with caplog.at_level("WARNING"):
            reps = train_initial(data, 3)
        assert not reps[1].any() and not reps[2].any()
        assert "class 1 " not in caplog.text
        assert "class 2 has no training samples" in caplog.text

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_initial([], 2)

    def test_labels_required(self):
        data = EncodedDataset(np.vstack([packed([1, 0])]), 2)
        with pytest.raises(ValueError, match="labels"):
            train_initial(data, 2)

    def test_label_out_of_range(self):
        data = EncodedDataset(np.vstack([packed([1, 0])]), 2, np.array([5]))
        with pytest.raises(ValueError, match="5"):
            train_initial(data, 2)
        # the message names the offending label, not the largest one
        data = EncodedDataset(np.vstack([packed([1, 0])] * 3), 2, np.array([1, -3, 0]))
        with pytest.raises(ValueError, match=r"class index -3 outside \[0, 2\)"):
            train_initial(data, 2)


class TestPredict:
    def test_separable_clusters_classified(self):
        data = toy_clusters(flip=8)
        preds, _ = predict_batch(toy_model(data), data)
        assert np.array_equal(preds, data.labels)

    def test_tie_breaks_to_lowest_index(self):
        rep = np.array([1.0, 1.0, 0.0, 0.0])
        model = ClassModel(
            reps=np.array([rep, rep]),
            codebook=None, schema=tiny_schema(),
            label_map=tiny_label_map(["a", "b"]),
            hyperparams=Hyperparams(dim=4, bins=1),
        )
        preds, sims = predict_batch(model, EncodedDataset(packed([1, 1, 0, 0])[None, :], 4))
        assert sims[0, 0] == sims[0, 1]
        assert preds[0] == 0

    def test_degenerate_flag(self):
        # an all-zero encoding scores 0 against every class and goes to class 0
        data = toy_clusters()
        model = toy_model(data)
        zero = EncodedDataset(np.zeros((1, data.packed.shape[1]), dtype=np.uint8), data.dim)
        preds, sims = predict_batch(model, zero)
        assert preds[0] == 0
        assert sims[0].tolist() == [0.0] * model.num_classes

    def test_dim_mismatch(self):
        model = toy_model(toy_clusters())
        with pytest.raises(ValueError):
            predict_batch(model, EncodedDataset(np.zeros((1, 4), dtype=np.uint8), 32))

    def test_batch_matches_scalar(self):
        data = toy_clusters()
        model = toy_model(data)
        preds, sims = predict_batch(model, data)
        reps = model.reps.tolist()
        for i in range(len(data)):
            want = [ref_cosine(ref_unpack(data.packed[i], data.dim), r) for r in reps]
            assert sims[i] == pytest.approx(want, abs=1e-12)
            assert preds[i] == max(range(len(want)), key=lambda c: (want[c], -c))

    def test_padding_bits_do_not_count(self):
        # dim 9 leaves 7 padding bits in the second byte; all of them are set
        rows = np.array([[0xFF, 0xFF]], dtype=np.uint8)
        reps = [np.ones(9), np.arange(9, dtype=np.float64)]
        model = ClassModel(
            reps=np.array(reps, dtype=np.float64),
            codebook=None, schema=tiny_schema(),
            label_map=tiny_label_map(["a", "b"]), hyperparams=Hyperparams(dim=9, bins=1),
        )
        _, sims = predict_batch(model, EncodedDataset(rows, 9))
        want = [ref_cosine(ref_unpack(rows[0], 9), r.tolist()) for r in reps]
        assert sims[0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("dim", [3333, 11000])  # 24- and 7-row dot blocks
    @pytest.mark.parametrize("k", [1, 5])
    def test_scores_do_not_depend_on_position(self, dim, k):
        """Representatives holding tenths round their dot products; dropping
        the first k records must not change any other record's bits."""
        rng = np.random.default_rng(dim)
        rows = np.packbits(rng.random((300, dim)) < 0.5, axis=1, bitorder="little")
        reps = rng.integers(0, 10000, size=(5, dim)) / 10
        names = ["a", "b", "c", "d", "e"]
        model = ClassModel(
            reps=reps,
            codebook=None, schema=tiny_schema(),
            label_map=tiny_label_map(names), hyperparams=Hyperparams(dim=dim),
        )
        _, sims = predict_batch(model, EncodedDataset(rows, dim))
        _, shifted = predict_batch(model, EncodedDataset(rows[k:], dim))
        assert np.array_equal(shifted, sims[k:])

    @pytest.mark.parametrize("alpha", [1.0, 0.1])
    def test_duplicate_rows_score_as_each_row_alone(self, tmp_path, synth_lines, alpha):
        """predict_batch scores each distinct encoding once; every record
        still gets the bits it gets scored alone, rounded scores included."""
        path = tmp_path / "dup.txt"
        path.write_text("\n".join(synth_lines + synth_lines[::3] + synth_lines[:9]) + "\n")
        model, data, _ = train_small_model(path, dim=1000, alpha=alpha, iterations=3)
        assert len(data.rows) < len(data)
        preds, sims = predict_batch(model, data, jobs=2)
        for i in range(len(data)):
            p, s = predict_batch(model, EncodedDataset(data.packed[i:i + 1], data.dim))
            assert p[0] == preds[i] and s.tobytes() == sims[i].tobytes()

    def test_batch_worker_count_invariant(self):
        data = toy_clusters(n_per=200)
        model = toy_model(data)
        p1, s1 = predict_batch(model, data, jobs=1)
        p4, s4 = predict_batch(model, data, jobs=4)
        assert np.array_equal(p1, p4)
        assert np.array_equal(s1, s4)


class TestPredictTable:
    """predict_table encodes and scores each batch of distinct records in
    one pass; its results, gathered through its inverse, are the bytes of
    predict_batch on encode_dataset's rows."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory, synth_lines):
        """model(dim, alpha), each trained once; and the 41-value rows of
        the training lines, then the same rows with an unseen service."""
        src = tmp_path_factory.mktemp("table") / "train.txt"
        src.write_text("\n".join(synth_lines) + "\n")
        models = {}

        def model(dim, alpha):
            if (dim, alpha) not in models:
                models[dim, alpha] = train_small_model(
                    src, dim=dim, bins=min(10, dim), alpha=alpha, iterations=2)[0]
            return models[dim, alpha]

        rows = [line.split(",")[:41] for line in synth_lines]
        return model, rows + [r[:2] + ["no_such_service"] + r[3:] for r in rows]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(dim=st.sampled_from([1, 7, 64, 251, 1000]),
           threshold=st.sampled_from([-1.0, 0.0, 20.5, 41.0, 1e9]),
           alpha=st.sampled_from([1.0, 0.1]),
           jobs=st.sampled_from([1, 2, 3]),
           data=st.data())
    def test_prop_equals_predict_batch(self, trained, dim, threshold, alpha, jobs, data):
        model_of, rows = trained
        model = with_hyperparams(model_of(dim, alpha), threshold=threshold)
        # duplicates, and up to every row: 680 distinct, three encoder batches
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=900)
                          | st.just(list(range(len(rows)))))
        table = RecordTable.from_rows([rows[i] for i in picks], 41)
        preds, sims, inverse = predict_table(model, table, jobs=jobs)
        want_preds, want_sims = predict_batch(
            model, encode_dataset(table, model.codebook, model.schema, threshold))
        assert preds.dtype == np.int64 and inverse.dtype == np.int64
        assert len(preds) == len(sims) == inverse.max() + 1 and len(inverse) == len(picks)
        assert preds[inverse].tobytes() == want_preds.tobytes()
        assert sims[inverse].tobytes() == want_sims.tobytes()

    def test_many_threads_fast_switching(self, trained):
        """More workers than cores, switching threads every microsecond: every
        slice is written once, and the bytes equal the serial run's."""
        model_of, rows = trained
        model = model_of(251, 0.1)
        table = RecordTable.from_rows(rows * 2, 41)
        want = predict_table(model, table, jobs=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = predict_table(model, table, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_worker_error_raised_not_hung(self, tmp_path, trained):
        """Every worker's slice raising MemoryError: the error comes back,
        with slices still queued. Run in a child with a timeout, since a
        pool thread that blocks forever would also keep pytest from exiting."""
        model_of, rows = trained
        save_model(model_of(64, 1.0), tmp_path / "m.hdm")
        (tmp_path / "rows.json").write_text(json.dumps(rows))  # 680 distinct: three slices
        script = textwrap.dedent("""
            import json, sys
            from hdnids import encoding
            from hdnids.dataset import RecordTable
            from hdnids.model import load_model, predict_table

            def fail(*args, **kwargs):
                raise MemoryError("no room")

            encoding.EncoderTables.encode_rows = fail
            table = RecordTable.from_rows(json.load(open(sys.argv[2])), 41)
            try:
                predict_table(load_model(sys.argv[1]), table, jobs=2)
            except MemoryError as exc:
                print("raised", exc)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(hdnids.model.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "m.hdm"), str(tmp_path / "rows.json")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised no room\n"

    def test_table_unchanged(self, trained):
        model_of, rows = trained
        table = RecordTable.from_rows(rows + rows[:50], 41)

        def state():
            columns = [table.labels, table.difficulty, *table.features]
            return ([(list(c.values), c.codes.tobytes()) for c in columns],
                    table.line_no.tobytes())

        before = state()
        predict_table(model_of(64, 1.0), table, jobs=2)
        assert state() == before

    def test_empty_or_wrong_width_rejected(self, trained):
        model = trained[0](64, 1.0)
        with pytest.raises(ValueError, match="no records"):
            predict_table(model, RecordTable.from_rows([], 41))
        with pytest.raises(ValueError, match="expected 41"):
            predict_table(model, RecordTable.from_rows([["0"] * 40], 40))


class TestHyperparams:
    def test_defaults_are_valid(self):
        Hyperparams()
        Hyperparams(dim=1, bins=1, threshold=0.5, alpha=1e-9, iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("dim", 0), ("dim", 2.5), ("dim", "300"), ("bins", 0), ("bins", 10001),
        ("alpha", 0.0), ("alpha", -1.0), ("alpha", float("nan")), ("alpha", float("inf")),
        ("alpha", "1"), ("threshold", float("inf")), ("threshold", float("nan")),
        ("threshold", "20"), ("iterations", -1), ("seed", None),
        ("log_scale", "yes"), ("log_scale", "false"), ("log_scale", 0), ("log_scale", None),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            Hyperparams(**{field: value})
        # a copy is checked as it is built
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(Hyperparams(), **{field: value})

    def test_fields_cannot_be_assigned(self):
        hyper = Hyperparams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            hyper.iterations = -1
        assert hyper == Hyperparams()

    def test_retrain_rejects_non_finite_alpha(self):
        # retrain reads alpha off the model, whose Hyperparams cannot hold a NaN
        data = toy_clusters()
        with pytest.raises(ValueError, match="alpha"):
            retrain(toy_model(data, alpha=float("nan"), iterations=5), data)


def two_class_model(reps):
    """A two-class model at dim 8 holding reps as given."""
    return ClassModel(reps, None, tiny_schema(), tiny_label_map(["a", "b"]),
                      Hyperparams(dim=8, bins=1))


class TestClassModel:
    def test_overflowing_representative_rejected(self):
        """Finite entries of 1e200 square past float64's range, so every
        cosine against them would read 0: the model is not built, and no
        overflow is warned about on the way."""
        with pytest.raises(ValueError, match="squared norm"):
            model = two_class_model(np.full((2, 8), 1e200))
            predict_batch(model, EncodedDataset(packed([1] * 8)[None, :], 8))

    @pytest.mark.parametrize("reps, match", [
        (np.zeros((3, 8)), r"\(2, 8\) float64"),
        (np.zeros((2, 9)), r"\(2, 8\) float64"),
        (np.zeros(16), r"\(2, 8\) float64"),
        (np.zeros((2, 8), dtype=np.float32), "float32"),
        (np.zeros((2, 8), dtype=np.int64), "int64"),
        ([[0.0] * 8] * 2, "list"),
        (np.full((2, 8), np.nan), "non-finite"),
        (np.full((2, 8), -np.inf), "non-finite"),
    ])
    def test_rejects(self, reps, match):
        with pytest.raises(ValueError, match=match):
            two_class_model(reps)
        # a copy is checked as it is built
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(two_class_model(np.zeros((2, 8))), reps=reps)

    def test_rows_must_match_the_label_map(self):
        model = two_class_model(np.zeros((2, 8)))
        with pytest.raises(ValueError, match=r"\(3, 8\)"):
            dataclasses.replace(model, label_map=tiny_label_map(["a", "b", "c"]))

    def test_checked_state_cannot_be_changed(self):
        """What construction checked stays so: reps cannot be written in
        place, through representatives either, and no field can be set."""
        model = two_class_model(np.zeros((2, 8)))
        with pytest.raises(ValueError, match="read-only"):
            model.reps[0] = 1e200
        with pytest.raises(ValueError, match="read-only"):
            model.representatives[1].values[:] = np.nan
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.reps = np.zeros((1, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.label_map = tiny_label_map(["a", "b"])
        assert not model.reps.any()

    def test_writable_or_unaligned_arrays_are_copied(self):
        reps = np.zeros((2, 8))
        model = two_class_model(reps)
        reps[0] = 1.0  # the caller's array keeps its flags, and the model its values
        assert reps.flags.writeable and not model.reps.any()
        frozen = np.ones((2, 8))
        frozen.flags.writeable = False
        assert two_class_model(frozen).reps is frozen  # read-only: held as given
        # as load_model's view of the file can be: read-only but unaligned
        unaligned = np.frombuffer(bytes(2 + 16 * 8), np.float64, offset=2).reshape(2, 8)
        assert not unaligned.flags.aligned and two_class_model(unaligned).reps.flags.aligned


class TestRetrain:
    def test_parameter_validation(self):
        """0 iterations is a valid setting: the representatives come back as
        they went in, with an empty trace."""
        data = toy_clusters()
        model = toy_model(data, iterations=0)
        out, trace = retrain(model, data)
        assert trace == []
        assert out.reps.tobytes() == model.reps.tobytes()
        assert out.hyperparams == model.hyperparams

    def test_unlabeled_data_rejected(self):
        data = toy_clusters()
        with pytest.raises(ValueError, match="must carry labels"):
            retrain(toy_model(data), dataclasses.replace(data, labels=None))

    def test_empty_dataset_rejected(self):
        data = toy_clusters()
        empty = EncodedDataset(data.rows[:0], data.dim, data.labels[:0])
        with pytest.raises(ValueError, match="empty training set"):
            retrain(toy_model(data), empty)

    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_label_out_of_range(self, bad):
        # -1 would index the last class and 3 would raise IndexError mid-epoch
        data = toy_clusters()
        model = toy_model(data, iterations=2)
        labels = data.labels.copy()
        labels[17] = bad
        data = EncodedDataset(data.rows, data.dim, labels, data.inverse)
        with pytest.raises(ValueError, match=rf"class index {bad} outside \[0, 3\)"):
            retrain(model, data)

    @pytest.mark.parametrize("alpha", [1e155, 1e200, 1e308])
    def test_alpha_overflowing_the_representatives_raises(self, alpha):
        """One update at such an alpha leaves a squared norm past float64, so
        every cosine would read 0: retrain raises, without a numpy warning."""
        data = toy_clusters()
        with pytest.raises(ValueError, match="alpha"):
            retrain(toy_model(data, alpha=alpha, iterations=3), data)

    def test_large_alpha_that_fits_retrains(self):
        data = toy_clusters()
        out, trace = retrain(toy_model(data, alpha=1e100, iterations=3), data)
        assert np.isfinite(np.linalg.norm(out.reps, axis=1)).all()
        assert trace

    def test_integer_alpha_matches_float(self):
        data = toy_clusters()
        a, trace_a = retrain(toy_model(data, alpha=2, iterations=3), data)
        b, trace_b = retrain(toy_model(data, alpha=2.0, iterations=3), data)
        assert trace_a == trace_b
        assert np.array_equal(a.reps, b.reps)
        assert a.hyperparams == b.hyperparams

    def test_model_records_its_alpha_and_iterations(self, synth_file):
        """A retrained model's hyperparams, and so its saved header and every
        report made from it, say how it was retrained."""
        model, data, records = train_small_model(synth_file, dim=512, iterations=0)
        model = with_hyperparams(model, alpha=0.5, iterations=3)
        out, _ = retrain(model, data)
        assert out.hyperparams == model.hyperparams
        config = evaluate(out, records).config
        assert (config["alpha"], config["iterations"]) == (0.5, 3)

    def test_representative_mass_conserved(self):
        data = toy_clusters()
        model = toy_model(data, iterations=10)
        before = model.reps.sum(axis=0)
        out, trace = retrain(model, data)
        after = out.reps.sum(axis=0)
        assert np.array_equal(before, after)
        assert any(t < 1.0 for t in trace)  # updates actually happened

    def test_does_not_mutate_input_model(self):
        data = toy_clusters()
        model = toy_model(data, iterations=5)
        snapshot = model.reps.copy()
        retrain(model, data)
        assert np.array_equal(model.reps, snapshot)

    def test_zero_update_epoch_is_fixed_point(self):
        data = toy_clusters(flip=8)  # centroids already perfect
        model = toy_model(data)
        out, trace = retrain(model, data)
        assert trace == [1.0]  # early stop after one clean pass
        assert np.array_equal(out.reps, model.reps)

    def test_separable_toy_reaches_full_accuracy(self):
        data = toy_clusters()  # starts at ~92%
        model = toy_model(data)
        preds, _ = predict_batch(model, data)
        assert (preds == data.labels).mean() < 1.0
        out, trace = retrain(model, data)
        assert len(trace) < 50
        assert trace[-1] == 1.0
        preds, _ = predict_batch(out, data)
        assert (preds == data.labels).mean() == 1.0

    def test_trace_is_visit_time_accuracy(self):
        data = toy_clusters()
        model = toy_model(data, iterations=3)
        _, trace = retrain(model, data)
        assert len(trace) == 3
        assert all(0.0 <= t <= 1.0 for t in trace)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_chunked_loop_equals_naive_sequential(self, alpha):
        data = toy_clusters()
        epochs = 3
        model = toy_model(data, alpha=alpha, iterations=epochs)
        got, _ = retrain(model, data)

        # replay the identical visit order through the pure-Python loop
        rng = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence([model.hyperparams.seed, _RETRAIN_STREAM_TAG])
            )
        )
        order = rng.permutation(len(data))
        samples = [data.unpack(slice(i, i + 1))[0].astype(int).tolist() for i in order]
        labels = [int(data.labels[i]) for i in order]
        reps = model.reps.tolist()
        for _ in range(epochs):
            reps, updates, _ = ref_retrain_epoch(reps, samples, labels, alpha)
            if updates == 0:
                break
        assert np.array_equal(got.reps, np.array(reps))

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**ORACLE_CASES)
    def test_prop_retrain_equals_naive_sequential(self, n, dim, classes, alpha, seed):
        """Several retrain chunks, set padding bits past a dim that is not a
        multiple of 8, and an empty (zero-norm) class, against the oracle."""
        check_retrain_against_oracle(n, dim, classes, alpha, seed)

    @pytest.mark.parametrize("alpha, digest", MODEL_DIGESTS)
    def test_model_bytes_match_recorded_digest(self, tmp_path, alpha, digest):
        """Model file bytes are pinned, so any change to the training
        arithmetic shows. The class ranges overlap, so the first epoch misses
        about 8% of the 340 records, spread over several retrain chunks."""
        assert overlap_model_digest(tmp_path, alpha) == digest

    def test_retrain_deterministic(self):
        data = toy_clusters()
        model = toy_model(data, iterations=5)
        a, trace_a = retrain(model, data)
        b, trace_b = retrain(model, data)
        assert trace_a == trace_b
        assert np.array_equal(a.reps, b.reps)


class TestDotBlocks:
    """The float64 scoring block holds 8, 16 or 24 rows (param times 8), so
    every chunk spans several blocks, and a 24-row block or a short last
    chunk ends in a zero-filled block; at the test dims the default budget
    fits a whole chunk in one."""

    @pytest.fixture(params=[1, 2, 3])
    def block_rows(self, request, monkeypatch):
        def budget(dim):
            monkeypatch.setattr(hdnids.model, "_DOT_BLOCK_BYTES", request.param * 64 * dim)
        return budget

    def test_predict_matches_oracle(self, block_rows):
        data = toy_clusters(n_per=43, dim=67)  # 129 rows: chunks of 128 and 1
        model, _ = retrain(toy_model(data, iterations=2), data)
        want_preds, want_sims = predict_batch(model, data)
        block_rows(data.dim)
        preds, sims = predict_batch(model, data, jobs=2)
        assert np.array_equal(sims, want_sims) and np.array_equal(preds, want_preds)
        reps = model.reps.tolist()
        for i in range(len(data)):
            want = [ref_cosine(ref_unpack(data.packed[i], data.dim), r) for r in reps]
            assert sims[i] == pytest.approx(want, abs=1e-12)
            assert preds[i] == max(range(len(want)), key=lambda c: (want[c], -c))

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(**ORACLE_CASES)
    def test_prop_retrain_equals_naive_sequential(self, block_rows, n, dim, classes,
                                                  alpha, seed):
        block_rows(dim)
        check_retrain_against_oracle(n, dim, classes, alpha, seed)

    @pytest.mark.parametrize("alpha, digest", MODEL_DIGESTS)
    def test_model_bytes_match_recorded_digest(self, tmp_path, block_rows, alpha, digest):
        block_rows(2000)
        assert overlap_model_digest(tmp_path, alpha) == digest

    @pytest.mark.parametrize("classes", [1, 2, 3, 4, 5])
    def test_same_bits_as_matmul(self, block_rows, classes):
        """_dots' GEMM gives each block the bits np.matmul gives it, also for
        representatives that are not integers, whose dots BLAS rounds."""
        rng = np.random.default_rng(classes)
        dim = 1000
        block_rows(dim)
        reps = rng.normal(size=(classes, dim)) * 37.3
        bits = (rng.random((200, dim)) < 0.5).astype(np.uint8)
        block = hdnids.model._dot_block(dim)
        got = hdnids.model._dots(bits, reps, block)
        step = len(block)
        for start in range(0, len(bits), step):
            rows = bits[start:start + step]
            block[:] = 0
            block[:len(rows)] = rows
            want = np.matmul(block, reps.T)[:len(rows)]
            assert got[start:start + len(rows)].tobytes() == want.tobytes()


class TestSharedRows:
    """encode_dataset's result, each distinct encoding stored once, against
    the same records one row each."""

    @settings(max_examples=25, deadline=None)
    @given(distinct=st.integers(1, 12), n=st.integers(130, 300),
           alpha=st.sampled_from([1.0, 0.1]), seed=st.integers(0, 2**16))
    def test_prop_same_as_one_row_per_record(self, distinct, n, alpha, seed):
        # n records drawn from a few value rows, so most are duplicates;
        # more than one retrain chunk (64) and one scoring chunk (128)
        rng = np.random.default_rng(seed)
        names = ["a", "b", "c"]
        schema = FeatureSchema(
            features=[FeatureSpec(name=f"c{j}", kind="continuous", min=0.0, max=8.0)
                      for j in range(5)]
            + [FeatureSpec(name="k", kind="categorical", vocabulary=["x", "y"])])
        pool = [tuple(str(v) for v in rng.uniform(-1.0, 9.0, size=5))
                + (["x", "y", "z"][rng.integers(3)],) for _ in range(distinct)]
        values = [pool[i] for i in rng.integers(0, distinct, size=n)]
        labels = rng.integers(0, len(names), size=n)
        cb = build_codebook(schema, dim=67, bins=8, seed=seed)
        shared = encode_dataset(values, cb, schema, 3.0, labels=labels, jobs=2)
        flat = EncodedDataset(shared.packed, shared.dim, labels)
        assert len(shared.rows) <= distinct < len(flat.rows) == n

        def model(data):
            return ClassModel(
                reps=train_initial(data, len(names)), codebook=cb,
                schema=schema, label_map=tiny_label_map(names),
                hyperparams=Hyperparams(dim=67, bins=8, alpha=alpha, iterations=3, seed=seed))

        want, got = model(flat), model(shared)
        assert got.reps.tobytes() == want.reps.tobytes()
        want, want_trace = retrain(want, flat)
        got, got_trace = retrain(got, shared)
        assert got_trace == want_trace
        assert got.reps.tobytes() == want.reps.tobytes()
        want_preds, want_sims = predict_batch(want, flat)
        preds, sims = predict_batch(got, shared, jobs=2)
        assert np.array_equal(preds, want_preds) and sims.tobytes() == want_sims.tobytes()


class TestAtomicWrite:
    def test_renamed_into_place_when_the_block_ends(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_write(path) as fh:
            fh.write(b"ab")
            fh.write(b"c")
            assert not path.exists()
        assert path.read_bytes() == b"abc"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_raise_mid_stream_leaves_nothing(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("stop")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert path.read_bytes() == b"old"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_new_file_takes_the_mode_open_gives(self, tmp_path, umask):
        """The output's mode is the one open(path, "wb") gives a new file:
        0o666 less the umask, not the temp file's 0o600."""
        old = os.umask(umask)
        try:
            with atomic_write(tmp_path / "out.bin") as fh:
                fh.write(b"x")
            with open(tmp_path / "plain.bin", "wb"):
                pass
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes == {"out.bin": 0o666 & ~umask, "plain.bin": 0o666 & ~umask}


class TestPersistence:
    def build(self, tmp_path, synth_lines):
        src = tmp_path / "train.txt"
        src.write_text("\n".join(synth_lines) + "\n")
        model, data, records = train_small_model(src, dim=512, iterations=5)
        return model, data, records

    def test_roundtrip_exact(self, tmp_path, synth_lines):
        model, _, _ = self.build(tmp_path, synth_lines)
        path = tmp_path / "m.hdm"
        save_model(model, path)
        back = load_model(path)
        assert back.hyperparams == model.hyperparams
        assert back.schema == model.schema
        assert back.label_map.to_dict() == model.label_map.to_dict()
        assert np.array_equal(back.reps, model.reps)
        assert np.array_equal(back.codebook.matrix, model.codebook.matrix)
        assert back.codebook.offsets == model.codebook.offsets
        assert (back.codebook.dim, back.codebook.bins, back.codebook.seed) == (
            model.codebook.dim, model.codebook.bins, model.codebook.seed)

    def test_loaded_model_holds_its_arrays_once(self, tmp_path, synth_file):
        """load_model keeps a copy of the codebook matrix and of reps and
        frees the payload bytes they were read from, which would add their
        90 KB again; beyond the arrays it holds only the header's objects."""
        model, _, _ = train_small_model(synth_file, dim=1000, iterations=1)
        path = tmp_path / "m.hdm"
        save_model(model, path)
        load_model(path)  # caches the first call fills are not the model's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            back = load_model(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        arrays = back.codebook.matrix.nbytes + back.reps.nbytes
        assert arrays > 90_000
        assert arrays <= held < arrays + 32_000

    def test_save_is_deterministic(self, tmp_path, synth_lines):
        model, _, _ = self.build(tmp_path, synth_lines)
        save_model(model, tmp_path / "a.hdm")
        save_model(model, tmp_path / "b.hdm")
        assert (tmp_path / "a.hdm").read_bytes() == (tmp_path / "b.hdm").read_bytes()

    def test_no_temp_files_left(self, tmp_path, synth_lines):
        model, _, _ = self.build(tmp_path, synth_lines)
        save_model(model, tmp_path / "m.hdm")
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_missing_directory_is_oserror(self, tmp_path, synth_lines):
        model, _, _ = self.build(tmp_path, synth_lines)
        with pytest.raises(OSError):
            save_model(model, tmp_path / "no" / "such" / "dir" / "m.hdm")

    @pytest.mark.parametrize("mangle", [
        lambda b: b[: len(b) // 2],                          # truncated
        lambda b: b"XXXXXXXX" + b[8:],                       # bad magic
        lambda b: b[:50] + bytes([b[50] ^ 0xFF]) + b[51:],   # flipped byte
        lambda b: b + b"extra",                              # appended garbage
        lambda b: b[:10],                                    # far too short
    ])
    def test_corruption_detected(self, tmp_path, synth_lines, mangle):
        model, _, _ = self.build(tmp_path, synth_lines)
        path = tmp_path / "m.hdm"
        save_model(model, path)
        (tmp_path / "bad.hdm").write_bytes(mangle(path.read_bytes()))
        with pytest.raises(CorruptModelError):
            load_model(tmp_path / "bad.hdm")

    def test_loaded_model_predicts_identically(self, tmp_path, synth_lines):
        model, data, _ = self.build(tmp_path, synth_lines)
        path = tmp_path / "m.hdm"
        save_model(model, path)
        back = load_model(path)
        p1, s1 = predict_batch(model, data)
        p2, s2 = predict_batch(back, data)
        assert np.array_equal(p1, p2)
        assert np.array_equal(s1, s2)


def _drop_schema(h):
    del h["schema"]
    return h


def _bad_dtype(h):
    h["arrays"][0]["dtype"] = "bogus"
    return h


def _class_out_of_range(h):
    h["label_map"]["raw_to_class"]["neptune"] = 7
    return h


def _infinite_threshold(h):
    h["hyperparams"]["threshold"] = 1e999
    return h


def _huge_alpha(h):
    h["hyperparams"]["alpha"] = 10**400  # a JSON integer no float64 holds
    return h


def _huge_threshold(h):
    h["hyperparams"]["threshold"] = 10**400
    return h


def _huge_max(h):
    next(f for f in h["schema"]["features"] if f["kind"] == "continuous")["max"] = 10**400
    return h


def _string_strict(h):
    h["label_map"]["strict"] = "false"
    return h


def _fractional_fallback(h):
    h["label_map"]["fallback_class"] = 1.9
    return h


def _bool_fallback(h):
    h["label_map"]["fallback_class"] = True
    return h


def _bool_class(h):
    h["label_map"]["raw_to_class"]["neptune"] = True
    return h


# the codebook was built with dim 64, bins 10 and seed 42
def _hyperparams_dim(h):
    h["hyperparams"]["dim"] = 10000
    return h


def _hyperparams_bins(h):
    h["hyperparams"]["bins"] = 5
    return h


def _hyperparams_seed(h):
    h["hyperparams"]["seed"] = 43
    return h


class TestSaveRefusesWhatLoadRejects:
    """save_model raises, and leaves no file, where load_model would reject
    the header it writes: the codebook was built with another dim, bins or
    seed than the hyperparams give, or for another schema."""

    @pytest.mark.parametrize("over", [{"dim": 2000}, {"bins": 5}, {"seed": 2}, {"features": 2}])
    def test_refused(self, tmp_path, over):
        names = ["a", "b"]
        codebook = build_codebook(tiny_schema(), dim=1000, bins=10, seed=1)
        over = dict(over)
        schema = FeatureSchema(
            features=[FeatureSpec(name=f"f{j}", kind="continuous", min=0.0, max=1.0)
                      for j in range(over.pop("features", 1))])
        hyper = Hyperparams(**{"dim": 1000, "bins": 10, "seed": 1, **over})
        model = ClassModel(np.zeros((2, hyper.dim)), codebook, schema, tiny_label_map(names),
                           hyper)
        with pytest.raises(ValueError, match="was not built with"):
            save_model(model, tmp_path / "m.hdm")
        assert list(tmp_path.iterdir()) == []


class TestDamagedHeader:
    """Checksum-valid files whose header is inconsistent or mistyped."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("hdr")
        src = tmp / "train.txt"
        src.write_text("\n".join(make_synth_lines({"normal": 20, "dos": 20}, seed=2)) + "\n")
        model, _, _ = train_small_model(src, dim=64, iterations=1)
        save_model(model, tmp / "m.hdm")
        return (tmp / "m.hdm").read_bytes()

    @pytest.mark.parametrize("edit", [
        _drop_schema, _bad_dtype, _class_out_of_range, _infinite_threshold,
        _huge_alpha, _huge_threshold, _huge_max, _string_strict, _fractional_fallback, _bool_fallback, _bool_class,
        _hyperparams_dim, _hyperparams_bins, _hyperparams_seed, *CRAFTED_HEADERS,
    ])
    def test_rejected(self, tmp_path, blob, edit):
        path = tmp_path / "bad.hdm"
        path.write_bytes(edit_header(blob, edit))
        with pytest.raises(CorruptModelError, match="bad header"):
            load_model(path)

    def test_header_length_past_the_payload_rejected(self, tmp_path, blob):
        # a header length one byte past the arrays, the checksum made to match
        body = blob[:12] + (len(blob) - 32 - 20 + 1).to_bytes(8, "little") + blob[20:-32]
        path = tmp_path / "bad.hdm"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CorruptModelError, match="header runs past the end of the file"):
            load_model(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_representative_rejected(self, tmp_path, blob, value):
        # the last 8 payload bytes are the last representative entry
        header = blob[20 : 20 + int.from_bytes(blob[12:20], "little")]
        path = tmp_path / "bad.hdm"
        path.write_bytes(reframe(blob[:-40] + np.float64(value).tobytes() + blob[-32:],
                                 header))
        with pytest.raises(CorruptModelError, match="bad arrays: .*non-finite value"):
            load_model(path)

    def test_representative_norm_overflow_rejected(self, tmp_path, blob):
        # a finite entry whose square is not: the representative's norm is infinite
        header = blob[20 : 20 + int.from_bytes(blob[12:20], "little")]
        path = tmp_path / "bad.hdm"
        path.write_bytes(reframe(blob[:-40] + np.float64(1e200).tobytes() + blob[-32:],
                                 header))
        with pytest.raises(CorruptModelError, match="bad arrays: .*squared norm"):
            load_model(path)

    @pytest.mark.parametrize("cut", [8, 1])
    def test_payload_length_rejected(self, tmp_path, blob, cut):
        # the header is intact; the arrays lose their last bytes
        header = blob[20 : 20 + int.from_bytes(blob[12:20], "little")]
        path = tmp_path / "bad.hdm"
        path.write_bytes(reframe(blob[:-32 - cut] + blob[-32:], header))
        with pytest.raises(CorruptModelError, match="bad arrays: .*the header implies"):
            load_model(path)

    def test_codebook_bits_past_dim_rejected(self, tmp_path, synth_lines):
        """Scoring reads the encoder's words as they are, so a codebook bit
        past dim would enter |h|; dim 1001 leaves bits 1-7 of the last byte."""
        src = tmp_path / "train.txt"
        src.write_text("\n".join(synth_lines) + "\n")
        model, _, _ = train_small_model(src, dim=1001, iterations=1)
        path = tmp_path / "m.hdm"
        save_model(model, path)
        load_model(path)
        blob = bytearray(path.read_bytes())
        header = bytes(blob[20 : 20 + int.from_bytes(blob[12:20], "little")])
        width = (1001 + 7) // 8
        blob[20 + len(header) + 4 * width - 1] |= 0xFE  # codebook row 3's last byte
        path.write_bytes(reframe(bytes(blob), header))
        with pytest.raises(CorruptModelError, match="bad arrays: .*past dim"):
            load_model(path)

    def test_deeply_nested_header_rejected(self, tmp_path, blob):
        # deeper than the JSON decoder recurses
        path = tmp_path / "deep.hdm"
        path.write_bytes(reframe(blob, b"[" * 100_000 + b"]" * 100_000))
        with pytest.raises(CorruptModelError, match="bad header: RecursionError"):
            load_model(path)

    def test_unedited_header_loads(self, tmp_path, blob):
        path = tmp_path / "same.hdm"
        path.write_bytes(edit_header(blob, lambda h: h))
        assert path.read_bytes() == blob
        load_model(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=st.binary(max_size=200))
    def test_fuzz_arbitrary_bytes(self, tmp_path, blob, raw):
        for data in (raw, blob[:20] + raw, reframe(blob, raw)):
            path = tmp_path / "fuzz.hdm"
            path.write_bytes(data)
            try:
                load_model(path)
            except CorruptModelError:
                pass

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzz_mutated_header(self, tmp_path, blob, data):
        header = json.loads(blob[20 : 20 + int.from_bytes(blob[12:20], "little")])
        values = st.recursive(
            st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=6,
        )
        for _ in range(data.draw(st.integers(1, 3))):
            # walk to a random node, then replace, delete or shorten it
            node, path_ = header, []
            while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
                key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                else range(len(node))))
                path_.append((node, key))
                node = node[key]
            if not path_:
                continue
            parent, key = path_[-1]
            action = data.draw(st.sampled_from(["replace", "delete", "shorten"]))
            if action == "replace":
                parent[key] = data.draw(values)
            elif action == "delete":
                del parent[key]
            elif isinstance(node, list) and node:
                node.pop()
        path = tmp_path / "mut.hdm"
        path.write_bytes(reframe(blob, json.dumps(header).encode("utf-8")))
        try:
            load_model(path)
        except CorruptModelError:
            pass

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_prop_rejected_or_canonical(self, tmp_path, blob, data):
        """One header entry, a leaf or a subtree, replaced and the file
        re-signed: it is rejected, or it is the file save_model writes for
        the model it loads, so nothing is accepted and silently rewritten."""
        value = data.draw(st.one_of(
            st.integers(2**63, 10**400), st.integers(-10**6, -1), st.just(0), st.floats(),
            st.just(1e308), st.booleans(), st.none(), st.text(max_size=4), st.just([]),
            st.lists(st.integers(-2, 2) | st.text(max_size=2), min_size=1, max_size=3),
            st.dictionaries(st.text(max_size=3), st.integers(-2, 2) | st.none(),
                            max_size=2)))

        def edit(header):
            node, key = header, data.draw(st.sampled_from(sorted(header)))
            # walk down while the entry has entries and a coin says so
            while isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
                node = node[key]
                key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                else range(len(node))))
            node[key] = value
            return header

        path = tmp_path / "edit.hdm"
        path.write_bytes(edit_header(blob, edit))
        try:
            model = load_model(path)
        except CorruptModelError:
            return
        save_model(model, tmp_path / "again.hdm")
        assert (tmp_path / "again.hdm").read_bytes() == path.read_bytes()
