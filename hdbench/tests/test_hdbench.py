"""Tests of the benchmark itself: corpus, metric names, failure counting, spans.

Run with ``python3 -m pytest hdbench/tests -q`` from the repository root.
They need numpy but not hdnids.
"""

import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# --- corpus ------------------------------------------------------------------

def test_same_seed_gives_byte_identical_files(tmp_path):
    a = corpus.generate(5, tmp_path / "a")
    b = corpus.generate(5, tmp_path / "b")
    assert a == b
    for name in ("train.txt", "test.txt", "head.txt", "subset.txt", "warmup.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_seeds_give_different_files():
    assert corpus.test_lines(1) != corpus.test_lines(2)


def test_corpus_shape():
    train, test = corpus.train_lines(3), corpus.test_lines(3)
    assert len(train) == sum(corpus.TRAIN_COUNTS) == 125973
    assert len(test) == sum(corpus.TEST_COUNTS) + corpus.MALFORMED_LINES
    assert {line.count(",") for line in train} == {41, 42}

    malformed = [line for line in test if line.count(",") < 41 or line.endswith(",n/a")]
    assert len(malformed) == corpus.MALFORMED_LINES

    label_class = {a: c for c, names in corpus.ATTACKS.items() for a in names}
    counts = dict.fromkeys(corpus.CLASSES, 0)
    for line in train:
        counts[label_class[line.split(",")[41]]] += 1
    assert tuple(counts.values()) == corpus.TRAIN_COUNTS

    unseen = sum(line.split(",")[2] in corpus.UNSEEN_SERVICES for line in test)
    assert 0.005 < unseen / len(test) < 0.015
    assert not any(line.split(",")[2] in corpus.UNSEEN_SERVICES for line in train)


def test_labels_are_in_the_shipped_label_map():
    text = (BENCH.parent / "src" / "hdnids" / "data" / "attack_categories.txt").read_text()
    shipped = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            raw, category = line.split(",")
            shipped[raw] = category
    for category, names in corpus.ATTACKS.items():
        for name in names:
            assert shipped[name] == category


# --- BENCHMARK.json ----------------------------------------------------------

def test_metric_names_and_units_are_valid():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_per_layer_names_match_what_a_traced_run_reports():
    reported = set(tracing.layer_metrics([]))
    reported |= {f"{n}.{s}" for n in ("encoding.encode_dataset", "model.predict_batch")
                 for s in ("s.jobs1", "speedup")}
    reported.add("trace.overhead_s")
    assert reported == {m["name"] for m in SPEC["per_layer"]}


# --- failure counting --------------------------------------------------------

def test_a_failing_check_raises_the_failed_count():
    tally = run.Tally()
    tally.check("passes", True)
    tally.check("fails", False)
    tally.units([{"ok": True}, {"ok": False}, {"ok": True}])
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.failures[0] == "fails"

    tally.child_checks([{"name": "a", "ok": True, "detail": None},
                        {"name": "b", "ok": False, "detail": "1/2"}])
    assert (tally.attempted, tally.failed) == (7, 3)
    assert tally.failures[-1] == "b (1/2)"


class FakeRunner:
    """Stands in for Runner: canned child results instead of processes."""

    def __init__(self, workload, measure, check):
        self.args = types.SimpleNamespace(workload=workload, seconds=1.0, seed=1)
        self.results = {"measure": measure, "check": check}
        self.setups = 0

    def child(self, mode, *flags):
        if mode == "reference":
            return {"setup_s": 0.1}
        if "--setup-only" in flags:
            self.setups += 1
            return {"setup_s": 0.2 + self.setups / 1000}
        return self.results[mode]


def _bulk_unit(s, csv_sha="c", ok=True):
    if not ok:
        return {"s": s, "records": 0, "ok": False}
    return {"s": s, "records": 100, "ok": True, "accuracy": 0.9, "report_sha256": "r",
            "csv_sha256": csv_sha}


def _bulk_measure(units):
    return {"setup_s": 0.3, "units": units, "peak_rss_mb": 200.0, "provenance": {},
            "outputs": {}}


def _train_measure(ok=True, epoch_acc=(0.93, 0.94)):
    unit = {"s": 35.0, "records": 1000 if ok else 0, "ok": ok, "epoch_acc": list(epoch_acc)}
    return {"setup_s": 0.2, "peak_rss_mb": 500.0, "provenance": {}, "outputs": {},
            "units": [unit]}


def test_end_to_end_reports_every_declared_metric():
    tally = run.Tally()
    units = [_bulk_unit(3.0), _bulk_unit(3.1), _bulk_unit(3.2)]
    runner = FakeRunner("score-bulk", _bulk_measure(units), {"checks": []})
    detail = {}
    values = run.end_to_end(runner, tally, {"malformed": 24}, detail)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in values.values())
    assert values["records_per_s"] == pytest.approx(100 / 3.02)
    assert tally.failed == 0
    assert len(detail["setup_samples"]) == run.SETUP_SAMPLES
    ratios = sorted(s / 0.1 for s in detail["setup_samples"])
    assert values["setup_s"] == pytest.approx(run.REF_S * (ratios[14] + ratios[15]) / 2)


def test_set_ups_are_spread_around_the_train_job_and_check():
    runner = FakeRunner("train-overlap", _train_measure(), {"checks": [], "accuracy": 0.92})
    calls = []
    real = runner.child

    def logged(mode, *flags):
        if mode != "reference":
            calls.append("setup" if "--setup-only" in flags else mode)
        return real(mode, *flags)

    runner.child = logged
    run.end_to_end(runner, run.Tally(), {"malformed": 24, "train_records": 1000}, {})
    assert calls.index("measure") >= 5
    assert calls.index("check") - calls.index("measure") >= 5
    assert len(calls) - calls.index("check") >= 5
    assert calls.count("setup") + 1 == run.SETUP_SAMPLES


def test_differing_output_bytes_count_as_a_failed_operation():
    tally = run.Tally()
    check = {"checks": [{"name": "oracle argmax", "ok": False, "detail": "63/64"}]}
    units = [_bulk_unit(3.0), _bulk_unit(3.0), _bulk_unit(3.0, csv_sha="other")]
    runner = FakeRunner("score-bulk", _bulk_measure(units), check)
    run.end_to_end(runner, tally, {"malformed": 24}, {})
    assert tally.failed == 2
    assert any("csv" in f for f in tally.failures)


@pytest.mark.parametrize("oks", [(False, True, True), (False, False, False)])
def test_a_failing_command_gives_a_result_with_failed_operations(oks):
    tally = run.Tally()
    units = [_bulk_unit(0.1 if not ok else 3.0, ok=ok) for ok in oks]
    runner = FakeRunner("score-bulk", _bulk_measure(units), {"checks": []})
    values = run.end_to_end(runner, tally, {"malformed": 24}, {})
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert tally.failed >= oks.count(False)
    if any(oks):
        assert values["accuracy"] == 0.9
        assert values["records_per_s"] == pytest.approx(100 / 3.0)
    else:
        assert values["accuracy"] == values["records_per_s"] == 0.0


def test_a_failing_train_job_gives_a_result_with_failed_operations():
    tally = run.Tally()
    check = {"checks": [{"name": "model file written", "ok": False, "detail": "unit.model"}]}
    runner = FakeRunner("train-overlap", _train_measure(ok=False, epoch_acc=()), check)
    values = run.end_to_end(runner, tally, {"malformed": 24, "train_records": 1000}, {})
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert tally.failed == 2
    assert values["accuracy"] == values["records_per_s"] == 0.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_measure_survives_a_command_that_exits_nonzero(workload, tmp_path, monkeypatch):
    cli = types.SimpleNamespace(main=lambda argv: 1)
    monkeypatch.setitem(sys.modules, "hdnids", types.SimpleNamespace(cli=cli))
    monkeypatch.setitem(sys.modules, "hdnids.cli", cli)
    args = types.SimpleNamespace(work=str(tmp_path), trace=False, setup_only=False,
                                 workload=workload, launch=time.monotonic())
    result = child.measure(args)
    assert [u["ok"] for u in result["units"]] == [False]
    assert result["outputs"] == {}


def test_miss_rate_outside_its_range_fails_the_run():
    tally = run.Tally()
    runner = FakeRunner("train-overlap", _train_measure(epoch_acc=(0.99, 0.99)),
                        {"checks": [], "accuracy": 0.92})
    run.end_to_end(runner, tally, {"malformed": 24, "train_records": 1000}, {})
    assert tally.failed == 1
    assert "miss_frac" in tally.failures[0]


def test_miss_rate_uses_the_span_formula():
    counts = tracing.retrain_counts([0.93, 0.9405], 1000)
    assert counts == {"epochs": 2, "visits": 2000, "updates": 70 + 60}
    assert tracing.miss_frac(counts) == pytest.approx(0.065)


# --- spans -------------------------------------------------------------------

def span(i, name, parent, start, end, **attrs):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        span(0, "unit", None, 0.0, 10.0),
        span(1, "cli.train", 0, 0.0, 10.0),
        span(2, "dataset.parse_file", 1, 1.0, 3.0, records=10, malformed=0),
        span(3, "model.retrain", 1, 4.0, 9.0, epochs=2, visits=20, updates=3),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(5.0)
    m = tracing.layer_metrics(spans)
    assert m["cli.train.self_s"] == pytest.approx(3.0)
    assert m["model.retrain.miss_frac"] == pytest.approx(0.15)
    assert m["model.retrain.s_per_epoch"] == pytest.approx(2.5)
    assert m["dataset.parse_file.records_per_s"] == pytest.approx(5.0)
    assert m["model.save_model.s"] == 0
    assert tracing.largest_self_time(spans) == "model.retrain"


def test_wrapped_calls_nest_under_the_open_span():
    tracer = tracing.Tracer()
    ns = types.SimpleNamespace(inner=lambda x: [x] * x)
    ns.outer = lambda x: ns.inner(x)
    tracer.wrap(ns, "inner", "inner", lambda a, k, r: {"records": len(r)}, keep=True)
    tracer.wrap(ns, "outer", "outer")
    with tracer.span("unit"):
        ns.outer(3)
        ns.outer(2)
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("unit", None), ("outer", 0), ("inner", 1), ("outer", 0), ("inner", 3)]
    assert tracer.kept["inner"][1] == (3,)  # the call with the most records

