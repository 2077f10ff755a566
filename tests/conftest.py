"""Shared fixtures: synthetic NSL-KDD-format corpora and real-data discovery.

The synthetic generator builds 41-feature records whose numeric columns
live in per-class ranges (disjoint by default, so the task is cleanly
learnable) with symbolic protocol/service/flag columns and a few 0/1
indicator columns mixed in. Lines use real attack names so the shipped
label mapping applies, and a mix of 42- and 43-field forms so both parse
paths stay exercised.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from hdnids import (
    build_codebook,
    encode_dataset,
    infer_schema,
    load_label_map,
    parse_file,
    train_initial,
)
from hdnids.dataset import class_indices
from hdnids.model import ClassModel, Hyperparams, retrain

PROTOS = ("tcp", "udp", "icmp")
SERVICES = ("http", "smtp", "ftp_data", "domain_u", "telnet", "private")
FLAGS = ("SF", "S0", "REJ", "RSTO")
CLS_ORDER = ("normal", "dos", "probe", "r2l", "u2r")
ATTACK_FOR = {
    "normal": "normal", "dos": "neptune", "probe": "nmap",
    "r2l": "guess_passwd", "u2r": "rootkit",
}
INDICATOR_COLUMNS = (6, 11, 13)


def make_synth_lines(counts, seed=7, width=300, gap=700, with_difficulty=True):
    """Synthetic corpus lines; gap >= 0 keeps per-class numeric ranges disjoint."""
    rng = np.random.default_rng(seed)
    lines = []
    for cname, n in counts.items():
        c = CLS_ORDER.index(cname)
        lo = c * (width + gap)
        hi = lo + width
        for i in range(n):
            vals = [
                str(int(rng.integers(lo, hi))),
                PROTOS[rng.integers(len(PROTOS))],
                SERVICES[c] if rng.random() < 0.8 else SERVICES[rng.integers(len(SERVICES))],
                FLAGS[rng.integers(len(FLAGS))],
            ]
            for j in range(4, 41):
                if j in INDICATOR_COLUMNS:
                    vals.append(str(int(rng.integers(0, 2))))
                else:
                    vals.append(str(int(rng.integers(lo, hi))))
            line = ",".join(vals) + "," + ATTACK_FOR[cname]
            if with_difficulty and i % 7 != 0:
                line += f",{int(rng.integers(0, 22))}"
            lines.append(line)
    perm = rng.permutation(len(lines))
    return [lines[i] for i in perm]


DEFAULT_COUNTS = {"normal": 120, "dos": 100, "probe": 60, "r2l": 40, "u2r": 20}


@pytest.fixture(scope="session")
def synth_lines():
    return make_synth_lines(DEFAULT_COUNTS, seed=7)


@pytest.fixture()
def synth_file(tmp_path, synth_lines):
    path = tmp_path / "synth.txt"
    path.write_text("\n".join(synth_lines) + "\n")
    return path


def train_small_model(path, dim=2000, bins=10, alpha=1.0, iterations=10,
                      seed=42, jobs=None, log_scale=False):
    """Library-level train on a file; returns (model, encoded data, records)."""
    records = parse_file(path).records
    label_map = load_label_map()
    schema = infer_schema(records, log_scale=log_scale)
    codebook = build_codebook(schema, dim=dim, bins=bins, seed=seed)
    threshold = schema.num_features / 2.0
    labels = class_indices(records, label_map)
    data = encode_dataset(records, codebook, schema, threshold, labels=labels, jobs=jobs)
    reps = train_initial(data, num_classes=len(label_map.class_names))
    model = ClassModel(
        reps=reps, codebook=codebook, schema=schema,
        label_map=label_map,
        hyperparams=Hyperparams(dim=dim, bins=bins, threshold=threshold,
                                alpha=alpha, iterations=iterations, seed=seed,
                                log_scale=log_scale),
    )
    model, _ = retrain(model, data)
    return model, data, records


def with_hyperparams(model, **changes):
    """model with the given Hyperparams fields changed."""
    return dataclasses.replace(
        model, hyperparams=dataclasses.replace(model.hyperparams, **changes))


def reframe(blob, header_bytes):
    """A model file's bytes with its header replaced by header_bytes, the
    header length and the SHA-256 trailer made to match."""
    end = 20 + int.from_bytes(blob[12:20], "little")
    body = blob[:12] + len(header_bytes).to_bytes(8, "little") + header_bytes + blob[end:-32]
    return body + hashlib.sha256(body).digest()


def edit_header(blob, edit):
    """reframe with the JSON header passed through edit(header) -> header."""
    header = json.loads(blob[20 : 20 + int.from_bytes(blob[12:20], "little")])
    return reframe(blob, json.dumps(edit(header), sort_keys=True).encode("utf-8"))


def _format_version_string(h):
    h["format_version"] = "x"
    return h


def _float_codebook_rows(h):
    h["codebook"]["rows"] = float(h["codebook"]["rows"])  # 433.0 == 433
    return h


def _float_codebook_dim(h):
    h["codebook"]["dim"] = float(h["codebook"]["dim"])
    return h


def _float_codebook_seed(h):
    h["codebook"]["seed"] = float(h["codebook"]["seed"])
    return h


def _float_array_shape(h):
    h["arrays"][1]["shape"] = [float(n) for n in h["arrays"][1]["shape"]]
    return h


def _object_schema_class_names(h):
    h["schema"]["class_names"] = {"a": 1}
    return h


def _string_log_scale(h):
    h["hyperparams"]["log_scale"] = "yes"
    return h


def _int_log_scale(h):
    h["hyperparams"]["log_scale"] = 0
    return h


def _int_feature_name(h):
    h["schema"]["features"][0]["name"] = 5
    return h


def _int_class_names(h):
    names = list(range(1, len(h["label_map"]["class_names"]) + 1))
    h["schema"]["class_names"] = h["label_map"]["class_names"] = names
    return h


def _repeated_class_names(h):
    names = ["normal"] * len(h["label_map"]["class_names"])
    h["schema"]["class_names"] = h["label_map"]["class_names"] = names
    return h


# checksum-valid headers each of which once loaded, its fault unread or
# unchecked; the class names are changed in the schema and the label map
# alike, so only LabelMap's own check can reject them
CRAFTED_HEADERS = [
    _format_version_string, _float_codebook_rows, _float_codebook_dim, _float_codebook_seed,
    _float_array_shape, _object_schema_class_names, _string_log_scale, _int_log_scale,
    _int_feature_name, _int_class_names, _repeated_class_names,
]


def find_nslkdd():
    """Locate KDDTrain+.txt / KDDTest+.txt; returns (train, test) or None."""
    roots = []
    env = os.environ.get("HDNIDS_DATA")
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        train, test = root / "KDDTrain+.txt", root / "KDDTest+.txt"
        if train.exists() and test.exists():
            return train, test
    return None


NSLKDD_REASON = (
    "NSL-KDD files not found: set HDNIDS_DATA=<dir> or place KDDTrain+.txt and "
    "KDDTest+.txt under ./data/ (see scripts/fetch_nslkdd.py; this sandbox has "
    "no route to the dataset mirrors)"
)
