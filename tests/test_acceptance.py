"""Acceptance gate: one test per shipping criterion, one PASS line each.

Criteria 4, 5, and 6 need the real NSL-KDD files; when those are absent
the tests skip with instructions rather than silently passing (this
sandbox cannot reach the dataset mirrors; see scripts/fetch_nslkdd.py).
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import time

import numpy as np
import pytest

from hdnids.cli import main as cli_main
from hdnids.codebook import (
    FeatureSchema,
    FeatureSpec,
    build_codebook,
    flip_bits,
    random_hv,
    stream,
)
from hdnids.dataset import (
    class_indices,
    infer_schema,
    load_label_map,
    map_label,
    parse_file,
)
from hdnids.encoding import EncodedDataset, encode_dataset, lookup_level
from hdnids.evaluation import evaluate, render_report
from hdnids.model import (
    ClassModel,
    CorruptModelError,
    Hyperparams,
    load_model,
    predict_batch,
    retrain,
    save_model,
    train_initial,
)
from conftest import NSLKDD_REASON, find_nslkdd, make_synth_lines
from reference import ref_encode_binary, ref_unpack
from test_model import tiny_label_map, toy_clusters, toy_model

SEED = 42


def train_records(records, dim, bins=10, alpha=1.0, iterations=50, seed=SEED,
                  jobs=None):
    """Full library pipeline on already-parsed records."""
    lm = load_label_map()
    schema = infer_schema(records)
    cb = build_codebook(schema, dim=dim, bins=bins, seed=seed)
    threshold = schema.num_features / 2.0
    labels = class_indices(records, lm)
    data = encode_dataset([r.values for r in records], cb, schema, threshold,
                          labels=labels, jobs=jobs)
    reps = train_initial(data, len(lm.class_names))
    model = ClassModel(
        reps=reps, codebook=cb, schema=schema, label_map=lm,
        hyperparams=Hyperparams(dim=dim, bins=bins, threshold=threshold,
                                alpha=alpha, iterations=iterations, seed=seed),
    )
    return retrain(model, data)


def stratified_subset(records, label_map, size, seed):
    """Seeded per-class proportional subset with at least 2 per class."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5AB5E7])))
    perm = rng.permutation(len(records))
    buckets = {}
    for i in perm:
        buckets.setdefault(map_label(records[i].label, label_map), []).append(int(i))
    total = len(records)
    take = {c: max(2, round(size * len(idx) / total)) for c, idx in buckets.items()}
    largest = max(buckets, key=lambda c: len(buckets[c]))
    take[largest] -= sum(take.values()) - size
    chosen = sorted(i for c, idx in buckets.items() for i in idx[: take[c]])
    return records.take(np.array(chosen, dtype=np.int64))


def popcount(row):
    return int(np.bitwise_count(row).sum())


def test_criterion_1_kernel_property_suite():
    """XOR algebra, hamming/popcount, flip exactness, cosine, accumulate
    over >=1,000 randomized cases at D in {64, 10000} in under 10 s."""
    start = time.perf_counter()
    cases = 0
    for dim in (64, 10000):
        gen = stream(SEED, dim)
        for _ in range(500):
            a = random_hv(dim, gen)
            b = random_hv(dim, gen)
            c = random_hv(dim, gen)
            assert np.array_equal(a ^ b ^ b, a)
            assert popcount(a ^ a) == 0
            assert np.array_equal((a ^ b) ^ c, a ^ (b ^ c))
            k = int(gen.integers(0, dim + 1))
            assert popcount(a ^ flip_bits(a, dim, k, gen)) == k
            values = gen.normal(size=dim)
            scale = float(gen.uniform(0.01, 100.0))
            model = ClassModel(
                reps=np.array([values, values * scale]),
                codebook=None, schema=None, label_map=tiny_label_map(["x", "y"]),
                hyperparams=Hyperparams(dim=dim),
            )
            data = EncodedDataset(np.vstack([a, b, c]), dim, np.array([0, 0, 1]))
            _, sims = predict_batch(model, data)
            assert np.all(np.abs(sims[:, 0] - sims[:, 1]) < 1e-9)
            reps = train_initial(data, 2)
            a_bits, b_bits = data.unpack(slice(0, 1))[0], data.unpack(slice(1, 2))[0]
            assert np.array_equal(reps[0], a_bits + b_bits)
            assert np.array_equal(reps[1], data.unpack(slice(2, 3))[0])
            assert popcount(a) == int(a_bits.sum())
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases >= 1000
    assert elapsed < 10.0
    print(f"\nCRITERION 1 PASS: {cases} kernel property cases at D=64/10000 "
          f"in {elapsed:.2f}s (<10s)")


def test_criterion_2_packed_vs_naive_oracle():
    """Packed encode_dataset bit-identical to the unpacked pure-Python
    reference on 100 random records, D=64, N=41, in under 5 s."""
    start = time.perf_counter()
    feats = []
    for j in range(41):
        if j in (1, 2, 3):
            feats.append(FeatureSpec(name=f"sym{j}", kind="categorical",
                                     vocabulary=["a", "b", "c", "d"]))
        elif j in (6, 11):
            feats.append(FeatureSpec(name=f"flag{j}", kind="categorical",
                                     vocabulary=["0", "1"]))
        else:
            feats.append(FeatureSpec(name=f"num{j}", kind="continuous",
                                     min=0.0, max=1000.0))
    schema = FeatureSchema(features=feats)
    cb = build_codebook(schema, dim=64, bins=10, seed=SEED)
    threshold = schema.num_features / 2.0

    gen = np.random.default_rng(SEED)
    rows = []
    for _ in range(100):
        row = []
        for spec in schema.features:
            if spec.kind == "categorical":
                row.append(spec.vocabulary[gen.integers(len(spec.vocabulary))])
            else:
                row.append(str(gen.uniform(-50.0, 1100.0)))
        rows.append(row)
    data = encode_dataset(rows, cb, schema, threshold)
    for i, row in enumerate(rows):
        want = ref_encode_binary(
            row, cb, schema, threshold,
            level_for=lambda j, raw: lookup_level(j, raw, cb, schema),
        )
        assert ref_unpack(data.packed[i], 64) == want
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nCRITERION 2 PASS: 100 records bit-identical to unpacked reference "
          f"(D=64, N=41) in {elapsed:.2f}s (<5s)")


def test_criterion_3_level_chain_contract():
    """At D=10000, K=10: adjacent levels differ by exactly 1000 bits,
    endpoints are farther apart than neighbors, chain is seed-stable."""
    schema = FeatureSchema(
        features=[FeatureSpec(name="f", kind="continuous", min=0.0, max=1.0)])
    cb = build_codebook(schema, dim=10000, bins=10, seed=SEED)
    chain = cb.matrix[cb.offsets[0] + 1 : cb.offsets[1]]
    assert len(chain) == 10
    for lo, hi in zip(chain, chain[1:]):
        assert popcount(lo ^ hi) == 1000
    d_far = popcount(chain[0] ^ chain[9])
    d_near = popcount(chain[0] ^ chain[1])
    assert d_far > d_near
    again = build_codebook(schema, dim=10000, bins=10, seed=SEED)
    assert np.array_equal(again.matrix[again.offsets[0] + 1 : again.offsets[1]], chain)
    print(f"\nCRITERION 3 PASS: adjacent levels differ by exactly 1000 bits; "
          f"hamming(L1,L10)={d_far} > hamming(L1,L2)={d_near}; deterministic per seed")


def test_criterion_4_desk_scale_accuracy():
    """Stratified 5,000-record KDDTrain+ subset, 80/20, D=2000, K=10,
    alpha=1.0, 50 iterations: test accuracy >= 0.90 in under 60 s."""
    paths = find_nslkdd()
    if paths is None:
        pytest.skip(NSLKDD_REASON)
    from hdnids.dataset import SplitSpec, split

    records = parse_file(paths[0]).records
    lm = load_label_map()
    subset = stratified_subset(records, lm, 5000, SEED)
    assert len(subset) == 5000
    assert len({map_label(r.label, lm) for r in subset}) == 5
    start = time.perf_counter()
    train, test = split(subset, SplitSpec(train_fraction=0.8, seed=SEED), lm)
    model, _ = train_records(train, dim=2000, bins=10, alpha=1.0, iterations=50)
    report = evaluate(model, test)
    elapsed = time.perf_counter() - start
    assert report.accuracy >= 0.90
    assert elapsed < 60.0
    print(f"\nCRITERION 4 PASS: desk-scale accuracy {report.accuracy:.4f} "
          f"(>=0.90) in {elapsed:.1f}s (<60s)")


def test_criterion_5_full_scale_reproduction():
    """Full KDDTrain+, stratified 80/20, D=10000, 50 iterations: accuracy
    >= 0.97, reported against the 0.9954 target, in under 15 min."""
    paths = find_nslkdd()
    if paths is None:
        pytest.skip(NSLKDD_REASON)
    from hdnids.dataset import SplitSpec, split

    records = parse_file(paths[0]).records
    assert len(records) == 125973
    lm = load_label_map()
    start = time.perf_counter()
    train, test = split(records, SplitSpec(train_fraction=0.8, seed=SEED), lm)
    model, _ = train_records(train, dim=10000, bins=10, alpha=1.0, iterations=50)
    report = evaluate(model, test)
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    assert report.accuracy >= 0.97
    print(f"\nCRITERION 5 PASS: full-scale accuracy {report.accuracy:.4f} "
          f"(target 0.9954, gate 0.97) in {elapsed:.0f}s (<900s)")


def test_criterion_6_file_pair_mode():
    """KDDTrain+ vs official KDDTest+: completes, reports accuracy and
    macro-F1, and two same-seed runs render byte-identical reports."""
    paths = find_nslkdd()
    if paths is None:
        pytest.skip(NSLKDD_REASON)
    train = parse_file(paths[0]).records
    test = parse_file(paths[1]).records
    assert len(test) == 22544
    rendered = []
    for _ in range(2):
        model, _ = train_records(train, dim=2000, bins=10, alpha=1.0,
                                 iterations=50)
        report = evaluate(model, test)
        rendered.append(render_report(report, "json").encode())
    assert rendered[0] == rendered[1]
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.macro_f1 <= 1.0
    assert len(report.per_class) == 5
    print(f"\nCRITERION 6 PASS: file-pair run complete and deterministic; "
          f"KDDTest+ accuracy {report.accuracy:.4f}, macro-F1 {report.macro_f1:.4f} "
          f"(distribution shift expected; no numeric gate)")


def test_criterion_7_retraining_invariants():
    """Representative mass conserved, zero-update epoch is a fixed point,
    separable toy data reaches 100% training accuracy within 50 epochs."""
    data = toy_clusters()  # separable, centroids start ~92% correct
    model = toy_model(data)

    before = model.reps.sum(axis=0)
    out, trace = retrain(model, data)
    assert np.array_equal(before, out.reps.sum(axis=0))

    assert trace[-1] == 1.0 and len(trace) < 50
    preds, _ = predict_batch(out, data)
    assert (preds == data.labels).mean() == 1.0

    again, trace2 = retrain(out, data)
    assert trace2 == [1.0]  # a clean pass makes no updates and stops
    assert np.array_equal(again.reps, out.reps)
    print(f"\nCRITERION 7 PASS: mass conserved, fixed point holds, separable toy "
          f"hit 100% at epoch {len(trace)} (<=50)")


def test_criterion_8_end_to_end_determinism(tmp_path):
    """Identical cmd_train configs give byte-identical model files;
    worker count changes no reported metric."""
    lines = make_synth_lines(
        {"normal": 200, "dos": 160, "probe": 100, "r2l": 60, "u2r": 20}, seed=11)
    data = tmp_path / "train.txt"
    data.write_text("\n".join(lines) + "\n")

    models = []
    for tag in ("a", "b"):
        path = tmp_path / f"model_{tag}.hdm"
        rc = cli_main(["train", "--train", str(data), "--model", str(path),
                       "--dim", "1000", "--iterations", "10", "--seed", "42"])
        assert rc == 0
        models.append(path.read_bytes())
    assert models[0] == models[1]

    reports = []
    for jobs, tag in ((1, "r1"), (8, "r8")):
        report = tmp_path / f"{tag}.json"
        rc = cli_main(["evaluate", "--model", str(tmp_path / "model_a.hdm"),
                       "--test", str(data), "--format", "json",
                       "--report", str(report), "--jobs", str(jobs)])
        assert rc == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    print("\nCRITERION 8 PASS: same-config model files byte-identical; "
          "reports byte-identical at 1 vs 8 workers")


def test_criterion_9_model_persistence(tmp_path):
    """save -> load -> evaluate equals in-memory evaluation exactly on
    1,000 records; a truncated model file raises the corrupt-model error."""
    lines = make_synth_lines(
        {"normal": 350, "dos": 300, "probe": 200, "r2l": 100, "u2r": 50}, seed=13)
    assert len(lines) == 1000
    data = tmp_path / "records.txt"
    data.write_text("\n".join(lines) + "\n")
    records = parse_file(data).records

    model, _ = train_records(records, dim=1000, bins=10, alpha=1.0, iterations=10)
    in_memory = evaluate(model, records)

    path = tmp_path / "model.hdm"
    save_model(model, path)
    loaded = load_model(path)
    from_disk = evaluate(loaded, records)

    assert from_disk.accuracy == in_memory.accuracy
    assert np.array_equal(from_disk.matrix.counts, in_memory.matrix.counts)
    assert render_report(from_disk, "json") == render_report(in_memory, "json")

    truncated = tmp_path / "truncated.hdm"
    truncated.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
    with pytest.raises(CorruptModelError):
        load_model(truncated)
    rc = cli_main(["evaluate", "--model", str(truncated), "--test", str(data)])
    assert rc == 5
    print("\nCRITERION 9 PASS: save/load/evaluate exact on 1000 records; "
          "truncated file raises the corrupt-model error (CLI exit 5)")
