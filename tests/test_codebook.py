"""Schema validation, codebook determinism and layout, level chains, binning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdnids.codebook import FeatureSchema, FeatureSpec, build_codebook, row_offsets
from hdnids.dataset import LabelMap, ParseError
from hdnids.encoding import lookup_level, value_index
from hdnids.model import (
    ClassModel,
    CorruptModelError,
    Hyperparams,
    load_model,
    save_model,
)
from conftest import edit_header
from reference import ref_bin


def cont(name, lo=0.0, hi=100.0, transform="none"):
    return FeatureSpec(name=name, kind="continuous", min=lo, max=hi, transform=transform)


def cat(name, vocab):
    return FeatureSpec(name=name, kind="categorical", vocabulary=list(vocab))


def hamming(a, b):
    return int(np.bitwise_count(np.bitwise_xor(a, b)).sum())


def base_row(cb, j):
    return cb.matrix[cb.offsets[j]]


def value_rows(cb, j):
    """Feature j's level chain or its category rows in sorted vocabulary order."""
    return cb.matrix[cb.offsets[j] + 1 : cb.offsets[j + 1]]


def small_schema():
    return FeatureSchema(
        features=[cont("duration"), cat("protocol", ["tcp", "udp", "icmp"]), cont("bytes")],
        class_names=["normal", "dos"],
    )


class TestFeatureSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="weird")

    def test_continuous_needs_range(self):
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="continuous")

    def test_min_above_max(self):
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="continuous", min=5.0, max=1.0)

    def test_categorical_needs_vocabulary(self):
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="categorical", vocabulary=[])

    def test_duplicate_vocabulary(self):
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="categorical", vocabulary=["a", "a"])

    def test_unknown_transform(self):
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="continuous", min=0, max=1, transform="sqrt")

    def test_log1p_transform(self):
        # bins of width 1 over log1p space: e**1.5 - 1 lands at 1.5
        spec = cont("x", 0, 4, transform="log1p")
        assert value_index(["0", str(np.e ** 1.5 - 1), "1e9"], spec, 4).tolist() == [0, 1, 3]
        # negatives clamp to 0 instead of exploding
        assert value_index(["-5"], spec, 4).tolist() == [0]

    def test_non_finite_range(self):
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="continuous", min=0.0, max=float("inf"))

    def test_non_string_vocabulary(self):
        with pytest.raises(ValueError):
            FeatureSpec(name="x", kind="categorical", vocabulary=["a", 1])

    def test_dict_roundtrip(self):
        for spec in (cont("a", 1, 2, transform="log1p"), cat("b", ["x", "y"])):
            assert FeatureSpec.from_dict(spec.to_dict()) == spec


class TestFeatureSchema:
    def test_empty(self):
        with pytest.raises(ValueError):
            FeatureSchema(features=[], class_names=["a"])

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            FeatureSchema(features=[cont("x"), cont("x")], class_names=["a"])

    def test_dict_roundtrip(self):
        schema = small_schema()
        assert FeatureSchema.from_dict(schema.to_dict()) == schema


class TestBuildCodebook:
    def test_deterministic(self):
        schema = small_schema()
        a = build_codebook(schema, dim=256, bins=4, seed=42)
        b = build_codebook(schema, dim=256, bins=4, seed=42)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.offsets == b.offsets == [0, 5, 9, 14]

    def test_seed_changes_vectors(self):
        schema = small_schema()
        a = build_codebook(schema, dim=256, bins=4, seed=42)
        b = build_codebook(schema, dim=256, bins=4, seed=43)
        assert not np.array_equal(base_row(a, 0), base_row(b, 0))

    def test_invalid_params(self):
        schema = small_schema()
        with pytest.raises(ValueError):
            build_codebook(schema, dim=256, bins=0, seed=1)
        with pytest.raises(ValueError):
            build_codebook(schema, dim=4, bins=8, seed=1)

    def test_adjacent_levels_differ_by_exactly_dim_over_bins(self):
        schema = small_schema()
        cb = build_codebook(schema, dim=1000, bins=10, seed=42)
        for j in (0, 2):
            chain = value_rows(cb, j)
            assert len(chain) == 10
            for lo, hi in zip(chain, chain[1:]):
                assert hamming(lo, hi) == 100

    def test_chain_endpoints_further_than_neighbors(self):
        schema = small_schema()
        cb = build_codebook(schema, dim=1000, bins=10, seed=42)
        chain = value_rows(cb, 0)
        assert hamming(chain[0], chain[-1]) > hamming(chain[0], chain[1])

    def test_category_vectors_cover_vocabulary(self):
        schema = small_schema()
        cb = build_codebook(schema, dim=256, bins=4, seed=42)
        vecs = value_rows(cb, 1)
        assert len(vecs) == 3  # icmp, tcp, udp
        assert len({v.tobytes() for v in vecs} | {cb.matrix[-1].tobytes()}) == 4

    def test_random_vectors_quasi_orthogonal(self):
        schema = small_schema()
        cb = build_codebook(schema, dim=10000, bins=4, seed=42)
        d = hamming(base_row(cb, 0), base_row(cb, 1))
        assert abs(d - 5000) < 300

    def test_feature_codes_keyed_by_name_not_position(self):
        base = [cont("duration"), cat("protocol", ["tcp", "udp"])]
        schema_a = FeatureSchema(features=list(base), class_names=["a"])
        schema_b = FeatureSchema(
            features=[cont("extra")] + list(base), class_names=["a"]
        )
        cb_a = build_codebook(schema_a, dim=256, bins=4, seed=42)
        cb_b = build_codebook(schema_b, dim=256, bins=4, seed=42)
        # the shared features moved position but keep their exact codes
        assert np.array_equal(base_row(cb_a, 0), base_row(cb_b, 1))
        assert np.array_equal(value_rows(cb_a, 0), value_rows(cb_b, 1))
        assert np.array_equal(value_rows(cb_a, 1), value_rows(cb_b, 2))


class TestLevelIndex:
    """value_index of a continuous feature: its 0-based level."""

    def test_degenerate_range(self):
        spec = cont("x", 5.0, 5.0)
        assert value_index(["5", "99"], spec, 10).tolist() == [0, 0]

    def test_edges_and_clamping(self):
        spec = cont("x", 0.0, 100.0)
        got = value_index(["0", "-50", "100", "1e9", "55"], spec, 10)
        assert got.tolist() == [0, 0, 9, 9, 5]

    @settings(max_examples=200, deadline=None)
    @given(
        bins=st.integers(1, 64),
        b=st.data(),
        offset=st.floats(0.05, 0.95),
        lo=st.floats(-1e6, 1e6),
        span=st.floats(1e-3, 1e6),
    )
    def test_interior_values_land_in_their_bin(self, bins, b, offset, lo, span):
        target = b.draw(st.integers(0, bins - 1))
        spec = cont("x", lo, lo + span)
        width = span / bins
        value = lo + (target + offset) * width
        assert value_index([value], spec, bins).tolist() == [target]

    @settings(max_examples=200, deadline=None)
    @given(
        bins=st.integers(1, 64),
        lo=st.floats(-1e6, 1e6),
        span=st.sampled_from([0.0, 1e-3, 1.0, 7.5, 1e6]),
        transform=st.sampled_from(["none", "log1p"]),
        values=st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=20),
    )
    def test_matches_naive_reference(self, bins, lo, span, transform, values):
        spec = cont("x", lo, lo + span, transform=transform)
        raw = [repr(v) for v in values]
        assert value_index(raw, spec, bins).tolist() == [ref_bin(v, spec, bins) for v in raw]

    def test_non_numeric_is_parse_error(self):
        for bad in ("abc", "nan", "inf"):
            with pytest.raises(ParseError, match="'x'"):
                value_index(["1", bad], cont("x"), 10)


class TestLookupLevel:
    def test_continuous_binning(self):
        schema = small_schema()
        cb = build_codebook(schema, dim=256, bins=4, seed=42)
        assert np.array_equal(lookup_level(0, "0", cb, schema), value_rows(cb, 0)[0])
        assert np.array_equal(lookup_level(0, "100", cb, schema), value_rows(cb, 0)[3])

    def test_categorical_hit_and_oov(self):
        schema = small_schema()
        cb = build_codebook(schema, dim=256, bins=4, seed=42)
        # sorted vocabulary: icmp, tcp, udp
        assert np.array_equal(lookup_level(1, "tcp", cb, schema), value_rows(cb, 1)[1])
        assert np.array_equal(lookup_level(1, "carrier-pigeon", cb, schema), cb.matrix[-1])


def saved_model(tmp_path, cb, schema):
    model = ClassModel(
        reps=np.array([np.arange(cb.dim, dtype=np.float64)] * 2),
        codebook=cb, schema=schema,
        label_map=LabelMap(raw_to_class={"n": 0, "d": 1}, class_names=["normal", "dos"]),
        hyperparams=Hyperparams(dim=cb.dim, bins=cb.bins, seed=cb.seed),
    )
    path = tmp_path / "m.hdm"
    save_model(model, path)
    return path


class TestState:
    """The codebook matrix is the model file's codebook array, row for row."""

    def test_roundtrip_bit_exact(self, tmp_path):
        schema = small_schema()
        cb = build_codebook(schema, dim=250, bins=7, seed=9)
        assert cb.offsets == row_offsets(schema, 7) == [0, 8, 12, 20]
        assert cb.matrix.shape == (21, 32)
        back = load_model(saved_model(tmp_path, cb, schema)).codebook
        assert (back.dim, back.bins, back.seed) == (cb.dim, cb.bins, cb.seed)
        assert back.offsets == cb.offsets
        assert np.array_equal(back.matrix, cb.matrix)

    def test_row_count_mismatch_rejected(self, tmp_path):
        # a vocabulary one entry longer than the stored codebook array
        schema = small_schema()
        cb = build_codebook(schema, dim=250, bins=7, seed=9)
        path = saved_model(tmp_path, cb, schema)

        def grow(header):
            header["schema"]["features"][1]["vocabulary"].append("zzz")
            return header

        path.write_bytes(edit_header(path.read_bytes(), grow))
        with pytest.raises(CorruptModelError):
            load_model(path)
