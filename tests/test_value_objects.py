"""The value objects a model is made of are frozen and check themselves when
built, dataclasses.replace included: what was checked stays so."""

import dataclasses
import operator

import numpy as np
import pytest

from hdnids import encode_dataset, parse_file, predict_batch, predict_table
from hdnids.codebook import FeatureSchema, FeatureSpec, build_codebook
from hdnids.dataset import LabelMap, load_label_map, map_label
from hdnids.encoding import EncodedDataset
from hdnids.model import ClassModel, Hyperparams
from conftest import train_small_model

FROZEN = dataclasses.FrozenInstanceError


def schema():
    return FeatureSchema(
        features=[FeatureSpec(name="d", kind="continuous", min=0.0, max=9.0),
                  FeatureSpec(name="p", kind="categorical", vocabulary=["icmp", "tcp"])])


def codebook():
    return build_codebook(schema(), dim=1001, bins=4, seed=3)


def label_map():
    return LabelMap(raw_to_class={"normal": 0, "smurf": 1}, class_names=["normal", "dos"])


def dataset():
    return EncodedDataset(np.zeros((2, 2), dtype=np.uint8), 16, labels=[0, 1, 1],
                          inverse=np.array([0, 1, 1]))


def model():
    return ClassModel(np.zeros((2, 1001)), codebook(), schema(), label_map(),
                      Hyperparams(dim=1001, bins=4, seed=3))


# per value object: a builder, and attempts to change a built one, each with
# the error it must raise: field assignment, in-place array writes and
# container appends or item writes
CASES = {
    "Codebook": (codebook, [
        (lambda o: setattr(o, "dim", 8), FROZEN),
        (lambda o: setattr(o, "matrix", np.zeros((1, 1), dtype=np.uint8)), FROZEN),
        (lambda o: operator.setitem(o.matrix, (0, -1), 0xFF), ValueError),
        (lambda o: o.matrix.fill(0), ValueError),
        (lambda o: o.offsets.append(99), AttributeError),
        (lambda o: operator.setitem(o.offsets, 0, 1), TypeError),
    ]),
    "FeatureSchema": (schema, [
        (lambda o: setattr(o, "features", []), FROZEN),
        (lambda o: o.features.append(o.features[0]), AttributeError),
        (lambda o: operator.setitem(o.features, 0, o.features[1]), TypeError),
    ]),
    "FeatureSpec": (lambda: schema().features[1], [
        (lambda o: setattr(o, "vocabulary", ["udp", "tcp"]), FROZEN),
        (lambda o: setattr(o, "kind", "continuous"), FROZEN),
        (lambda o: o.vocabulary.append("aaa"), AttributeError),
        (lambda o: operator.setitem(o.vocabulary, 0, "zzz"), TypeError),
    ]),
    "LabelMap": (label_map, [
        (lambda o: setattr(o, "strict", "yes"), FROZEN),
        (lambda o: setattr(o, "fallback_class", 9), FROZEN),
        (lambda o: operator.setitem(o.raw_to_class, "neptune", 7), TypeError),
        (lambda o: o.raw_to_class.update(neptune=7), AttributeError),
        (lambda o: o.class_names.append("probe"), AttributeError),
    ]),
    "EncodedDataset": (dataset, [
        (lambda o: setattr(o, "rows", np.full((2, 2), 0xFF, dtype=np.uint8)), FROZEN),
        (lambda o: setattr(o, "dim", 9), FROZEN),
        (lambda o: operator.setitem(o.rows, (0, -1), 0xFF), ValueError),
        (lambda o: operator.setitem(o.inverse, 0, 5), ValueError),
        (lambda o: operator.setitem(o.labels, 1, -1), ValueError),
    ]),
}


def state(obj) -> dict:
    return {f.name: (v.tobytes() if isinstance(v, np.ndarray) else repr(v))
            for f in dataclasses.fields(obj) for v in [getattr(obj, f.name)]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_built_state_cannot_be_changed(name):
    build, attempts = CASES[name]
    obj = build()
    before = state(obj)
    for attempt, error in attempts:
        with pytest.raises(error):
            attempt(obj)
    assert state(obj) == before


@pytest.mark.parametrize("build", [codebook, model], ids=["Codebook", "ClassModel"])
def test_compared_and_hashed_as_objects(build):
    """Two objects built alike hold equal arrays, which have no one truth
    value, so each compares equal to itself alone and hashes by identity."""
    a, b = build(), build()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_base_row_padding_write_rejected(tmp_path, synth_lines):
    """At dim 1001 the last byte of a row holds 7 bits past dim. Setting
    them in the base rows would count them in every record's |h| under
    predict_table, which reads the codebook's words as they are, but not
    under encode_dataset, whose EncodedDataset clears them: the two would
    score the same file differently."""
    src = tmp_path / "train.txt"
    src.write_text("\n".join(synth_lines) + "\n")
    model, _, _ = train_small_model(src, dim=1001, iterations=1)
    cb = model.codebook
    bases = list(cb.offsets[:-1])
    with pytest.raises(ValueError, match="read-only"):
        cb.matrix[bases, -1] |= 0xE0
    bad = cb.matrix.copy()
    bad[bases, -1] |= 0xE0
    with pytest.raises(ValueError, match="past dim 1001"):
        dataclasses.replace(cb, matrix=bad)

    table = parse_file(src).records
    preds, sims, inverse = predict_table(model, table)
    data = encode_dataset(table, cb, model.schema, model.threshold)
    want_preds, want_sims = predict_batch(model, data)
    assert np.array_equal(preds[inverse], want_preds)
    assert sims[inverse].tobytes() == want_sims.tobytes()


def test_codebook_checks_its_matrix():
    cb = codebook()
    with pytest.raises(ValueError, match=r"\(9, 126\) uint8"):
        dataclasses.replace(cb, matrix=cb.matrix[:-1])
    with pytest.raises(ValueError, match="int16"):
        dataclasses.replace(cb, matrix=cb.matrix.astype(np.int16))
    writable = cb.matrix.copy()
    held = dataclasses.replace(cb, matrix=writable).matrix
    assert held is not writable and not held.flags.writeable
    assert dataclasses.replace(cb, dim=1001).matrix is cb.matrix  # read-only: held as given


@pytest.mark.parametrize("change, match", [
    ({"strict": "yes"}, "strict"),
    ({"strict": 1}, "strict"),
    ({"fallback_class": 9}, r"9 is not an integer in \[0, 2\)"),
    ({"fallback_class": True}, "True"),
    ({"fallback_class": 1.0}, "1.0"),
    ({"raw_to_class": {"normal": 0, "smurf": 7}}, r"7 is not an integer in \[0, 2\)"),
    ({"raw_to_class": {"normal": -1}}, "-1"),
    ({"class_names": ["normal"]}, r"1 is not an integer in \[0, 1\)"),
    ({"class_names": [1, 2]}, "class names must be distinct strings"),
    ({"class_names": ["normal", "normal"]}, "class names must be distinct strings"),
])
def test_label_map_rejected_when_built(change, match):
    """A map save_model would write and load_model reject as a bad header
    is not built at all."""
    with pytest.raises(ValueError, match=match):
        LabelMap(**{"raw_to_class": {"normal": 0, "smurf": 1},
                    "class_names": ["normal", "dos"], **change})
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(label_map(), **change)


def test_label_map_copies_share_no_state(caplog):
    """A map holds no record of the labels it warned about: a copy made by
    dataclasses.replace warns about a label its original already named."""
    lm = load_label_map()
    copy = dataclasses.replace(lm, fallback_class=1)
    with caplog.at_level("WARNING", logger="hdnids.dataset"):
        assert (map_label("zero_day", lm), map_label("zero_day", copy)) == (0, 1)
    assert [r.getMessage() for r in caplog.records] == [
        "unknown attack label 'zero_day' mapped to fallback class 'normal'",
        "unknown attack label 'zero_day' mapped to fallback class 'dos'",
    ]


@pytest.mark.parametrize("name", [5, None, b"d"])
def test_feature_name_must_be_a_string(name):
    """The codebook keys a feature's vectors by its name's UTF-8 bytes."""
    with pytest.raises(ValueError, match="feature name must be a string"):
        FeatureSpec(name=name, kind="continuous", min=0.0, max=1.0)
    with pytest.raises(ValueError, match="feature name must be a string"):
        dataclasses.replace(schema().features[1], name=name)


@pytest.mark.parametrize("vocabulary", [["tcp", "icmp"], ["a", "a"], ["b", "a", "c"]])
def test_vocabulary_must_be_sorted(vocabulary):
    """value_index takes a value's position in the vocabulary as given, and
    the codebook lays its rows out in that order, so it must be sorted."""
    with pytest.raises(ValueError, match="sorted"):
        FeatureSpec(name="p", kind="categorical", vocabulary=vocabulary)


@pytest.mark.parametrize("value", [10**400, -10**400, float("inf"), float("nan"), True, "1"],
                         ids=["huge", "-huge", "inf", "nan", "bool", "string"])
def test_one_finiteness_rule(value):
    """A feature's range and the hyperparams' alpha and threshold share one
    rule: a real number, not a bool, that a float64 holds; an integer too
    large for a float is a ValueError like an infinite float, not an
    OverflowError."""
    with pytest.raises(ValueError, match="finite"):
        FeatureSpec(name="d", kind="continuous", min=0.0, max=value)
    with pytest.raises(ValueError, match="finite"):
        Hyperparams(alpha=value)
    with pytest.raises(ValueError, match="finite"):
        Hyperparams(threshold=value)
