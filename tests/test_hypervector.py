"""Packed hypervector rows: the codebook's seeded draws, XOR binding,
popcount and cosine scoring, checked against the unpacked reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdnids.codebook import (
    FeatureSchema,
    FeatureSpec,
    build_codebook,
    flip_bits,
    random_hv,
    stream,
)
from hdnids.dataset import LabelMap
from hdnids.encoding import EncodedDataset, EncoderTables
from hdnids.model import (
    ClassModel,
    Hyperparams,
    predict_batch,
    retrain,
    train_initial,
)
from reference import (
    ref_bundle,
    ref_cosine,
    ref_hamming,
    ref_popcount,
    ref_unpack,
    ref_xor,
)

DIMS = st.sampled_from([1, 7, 8, 9, 63, 64, 65, 200, 1000])


def draw_hv(dim, seed, *tags):
    return random_hv(dim, stream(seed, *tags))


def popcount(row):
    return int(np.bitwise_count(row).sum())


def hamming(a, b):
    return popcount(np.bitwise_xor(a, b))


def model_of(reps, dim, **hyperparams):
    """A model holding the given representatives, enough for predict_batch
    and retrain."""
    names = [f"c{i}" for i in range(len(reps))]
    return ClassModel(
        reps=np.array(reps, dtype=np.float64),
        codebook=None,
        schema=None,
        label_map=LabelMap(raw_to_class={n: i for i, n in enumerate(names)},
                           class_names=names),
        hyperparams=Hyperparams(dim=dim, bins=1, **hyperparams),
    )


def sims_of(rows, reps, dim):
    """predict_batch similarities of packed rows against representatives."""
    data = EncodedDataset(np.vstack(rows), dim)
    return predict_batch(model_of(reps, dim), data)[1]


class TestHypervector:
    def test_from_bits_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1]
        row = np.packbits(np.array(bits, dtype=np.uint8), bitorder="little")
        assert ref_unpack(row, 11) == bits
        data = EncodedDataset(row[None, :], 11)
        assert data.unpack(slice(0, 1))[0].tolist() == bits

    def test_padding_bits_are_zero(self):
        for dim in (1, 7, 9, 11, 63):
            row = draw_hv(dim, 42, dim)
            assert int(row[-1]) >> (dim % 8 or 8) == 0
            assert popcount(row) == ref_popcount(ref_unpack(row, dim))

    def test_bad_dim(self):
        schema = FeatureSchema(
            features=[FeatureSpec(name="f", kind="continuous", min=0.0, max=1.0)])
        with pytest.raises(ValueError):
            build_codebook(schema, dim=0, bins=1, seed=1)
        with pytest.raises(ValueError):
            Hyperparams(dim=0, bins=1)

    def test_wrong_buffer_shape(self):
        with pytest.raises(ValueError):
            EncodedDataset(np.zeros((1, 3), dtype=np.uint8), 100)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        assert np.array_equal(draw_hv(512, 42), draw_hv(512, 42))

    def test_different_seeds_differ(self):
        assert not np.array_equal(draw_hv(512, 42), draw_hv(512, 43))

    def test_derived_streams_are_independent(self):
        a = draw_hv(512, 42, 1)
        b = draw_hv(512, 42, 2)
        assert not np.array_equal(a, b)
        # consuming stream 1 must not move stream 2
        one = stream(42, 1)
        _ = random_hv(512, one)
        assert np.array_equal(random_hv(512, stream(42, 2)), b)

    def test_keyed_by_seed_sequence(self):
        # the documented key: SeedSequence([seed mod 2**64, *tags])
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence([2**64 - 1, 3, 7])))
        assert stream(-1, 3, 7).integers(0, 2**32, 4).tolist() == \
            want.integers(0, 2**32, 4).tolist()

    def test_roughly_balanced(self):
        assert abs(popcount(draw_hv(10000, 42)) - 5000) < 300  # ~6 sigma


class TestOps:
    def test_xor_known_case(self):
        # the encoder binds each value row to its feature's base by XOR
        schema = FeatureSchema(
            features=[FeatureSpec(name="f", kind="continuous", min=0.0, max=1.0),
                      FeatureSpec(name="k", kind="categorical", vocabulary=["a", "b"])])
        cb = build_codebook(schema, dim=37, bins=3, seed=5)
        tables = EncoderTables(cb, schema)
        rows = cb.matrix
        want = [
            [ref_xor(ref_unpack(rows[0], 37), ref_unpack(rows[r], 37)) for r in (1, 2, 3)],
            [ref_xor(ref_unpack(rows[4], 37), ref_unpack(rows[r], 37)) for r in (5, 6, -1)],
        ]
        # each table row is the packed bytes, zero-padded to whole uint64 words
        assert [[ref_unpack(r.view(np.uint8), 37) for r in t] for t in tables.tables] == want
        assert all(t.dtype == np.uint64 and t.shape[1] == 1 for t in tables.tables)
        assert not any(any(ref_unpack(r.view(np.uint8), 64)[37:]) for t in tables.tables for r in t)

    def test_dim_mismatch_raises(self):
        data = EncodedDataset(np.zeros((2, 2), dtype=np.uint8), 16, np.array([0, 1]))
        model = model_of(np.ones((2, 9)), 9, iterations=1)
        with pytest.raises(ValueError):
            predict_batch(model, data)
        with pytest.raises(ValueError):
            retrain(model, data)

    def test_flip_count_bounds(self):
        hv = draw_hv(64, 1)
        rng = stream(2)
        with pytest.raises(ValueError):
            flip_bits(hv, 64, -1, rng)
        with pytest.raises(ValueError):
            flip_bits(hv, 64, 65, rng)

    def test_flip_zero_is_identity(self):
        hv = draw_hv(64, 1)
        assert np.array_equal(flip_bits(hv, 64, 0, stream(2)), hv)

    def test_flip_all_is_complement(self):
        hv = draw_hv(37, 1)
        flipped = flip_bits(hv, 37, 37, stream(2))
        assert hamming(hv, flipped) == 37
        assert popcount(flipped) == 37 - popcount(hv)

    def test_flip_deterministic(self):
        hv = draw_hv(200, 1)
        assert np.array_equal(flip_bits(hv, 200, 50, stream(9)),
                              flip_bits(hv, 200, 50, stream(9)))

    def test_cosine_zero_operands(self):
        zero = np.zeros(4, dtype=np.uint8)
        ones = np.packbits(np.ones(32, dtype=np.uint8), bitorder="little")
        sims = sims_of([zero, ones], [np.ones(32), np.zeros(32)], 32)
        assert sims[0].tolist() == [0.0, 0.0] and sims[1, 1] == 0.0
        assert sims[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_cosine_identical_binary_is_one(self):
        h = draw_hv(1000, 5)
        bits = np.array(ref_unpack(h, 1000), dtype=np.float64)
        assert sims_of([h], [bits], 1000)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_accumulate_weights(self):
        # one miss moves exactly alpha * h from the wrong class to the true one
        h = np.packbits(np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8),
                        bitorder="little")
        data = EncodedDataset(h[None, :], 8, np.array([1]))
        reps = [np.array([1.0, 0, 1, 0, 1, 0, 1, 0]), np.array([0, 1.0, 0, 1, 0, 1, 0, 1])]
        out, trace = retrain(model_of(reps, 8, alpha=2.5, iterations=1), data)
        assert trace == [0.0]
        assert out.reps.tolist() == [[-1.5, 0, -1.5, 0, -1.5, 0, -1.5, 0],
                                     [2.5, 1, 2.5, 1, 2.5, 1, 2.5, 1]]


@settings(max_examples=200, deadline=None)
@given(dim=DIMS, seed=st.integers(0, 2**32 - 1))
def test_prop_xor_self_inverse(dim, seed):
    a = draw_hv(dim, seed, 0)
    b = draw_hv(dim, seed, 1)
    assert np.array_equal(np.bitwise_xor(np.bitwise_xor(a, b), b), a)
    assert popcount(np.bitwise_xor(a, a)) == 0


@settings(max_examples=200, deadline=None)
@given(dim=DIMS, seed=st.integers(0, 2**32 - 1))
def test_prop_xor_matches_reference(dim, seed):
    a = draw_hv(dim, seed, 0)
    b = draw_hv(dim, seed, 1)
    got = ref_unpack(np.bitwise_xor(a, b), dim)
    assert got == ref_xor(ref_unpack(a, dim), ref_unpack(b, dim))


@settings(max_examples=200, deadline=None)
@given(dim=DIMS, seed=st.integers(0, 2**32 - 1))
def test_prop_hamming_is_popcount_of_xor(dim, seed):
    a = draw_hv(dim, seed, 0)
    b = draw_hv(dim, seed, 1)
    assert hamming(a, b) == ref_hamming(ref_unpack(a, dim), ref_unpack(b, dim))
    assert popcount(a) == ref_popcount(ref_unpack(a, dim))


@settings(max_examples=100, deadline=None)
@given(dim=DIMS, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_prop_flip_bits_exact(dim, seed, data):
    hv = draw_hv(dim, seed, 0)
    count = data.draw(st.integers(0, dim))
    flipped = flip_bits(hv, dim, count, stream(seed, 1))
    assert hamming(hv, flipped) == count


@settings(max_examples=100, deadline=None)
@given(
    dim=DIMS,
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.001, 1000.0, allow_nan=False),
)
def test_prop_cosine_scale_invariant(dim, seed, scale):
    h = draw_hv(dim, seed, 0)
    values = stream(seed, 1).normal(size=dim)
    base, scaled = sims_of([h, h], [values, values * scale], dim)[0]
    assert abs(base - scaled) < 1e-9


@settings(max_examples=100, deadline=None)
@given(dim=DIMS, seed=st.integers(0, 2**32 - 1))
def test_prop_cosine_matches_reference(dim, seed):
    h = draw_hv(dim, seed, 0)
    values = stream(seed, 1).normal(size=dim)
    got = sims_of([h], [values], dim)[0, 0]
    want = ref_cosine(ref_unpack(h, dim), values.tolist())
    assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(dim=DIMS, seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_prop_accumulate_arithmetic(dim, seed, n):
    rows = [draw_hv(dim, seed, i) for i in range(n)]
    labels = [i % 2 for i in range(n)]
    reps = train_initial(EncodedDataset(np.vstack(rows), dim, np.array(labels)), 2)
    for c in (0, 1):
        members = [ref_unpack(r, dim) for r, y in zip(rows, labels) if y == c]
        want = ref_bundle(members) if members else [0] * dim
        assert reps[c].tolist() == want
