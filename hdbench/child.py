"""One process of the hdnids benchmark: prepare, measure, or check.

``run.py`` starts this file as a fresh interpreter for every measured
process, so each one pays interpreter start-up, ``import hdnids`` and its
own warm-up, and its peak RSS is its own. hdnids is only reached through
``hdnids.cli.main`` and public library functions.

    prep     train the scoring model on the head of the train file (untimed)
    measure  set up, then time one unit of work; with --setup-only stop after
             set-up; with --trace record spans around hdnids' layers
    reference
             set up as measure does, importing numpy in place of hdnids: the
             yardstick that setup_s is scaled by
    check    verify outputs against the CLI, the library and the naive
             oracle in tests/reference.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

import tracing

JOBS = 2
ORACLE_SAMPLE = 64
ORACLE_OOV = 8  # of the sample, records whose service takes the OOV row
TRAIN_FLAGS = ["--dim", "10000", "--bins", "10", "--alpha", "1", "--iterations", "3"]
PREP_FLAGS = ["--dim", "10000", "--bins", "10", "--alpha", "1", "--iterations", "1"]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def epoch_accuracies(train_stdout: str) -> list[float]:
    """Per-epoch training accuracy from `hdnids train` output, epoch 0 excluded."""
    out = []
    for line in train_stdout.splitlines():
        if line.startswith("epoch") and "centroids only" not in line:
            out.append(float(line.rsplit(" ", 1)[1]))
    return out


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "threads": blas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": JOBS,
    }


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# --- tracing ---------------------------------------------------------------

def install_tracer(tracer: tracing.Tracer) -> None:
    """Wrap hdnids' public functions where cli, evaluation and encoding bind them."""
    import hdnids.cli as cli
    import hdnids.encoding as encoding
    import hdnids.evaluation as evaluation

    def records(args, kwargs, result):
        return {"records": len(result)}

    def parsed(args, kwargs, result):
        return {"records": len(result.records), "malformed": result.malformed_count}

    def scored(args, kwargs, result):
        return {"records": len(args[1])}

    def retrained(args, kwargs, result):
        return tracing.retrain_counts(result[1], len(args[1]))

    def saved(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1])}

    w = tracer.wrap
    w(cli, "parse_file", "dataset.parse_file", parsed, rss=True)
    w(cli, "infer_schema", "dataset.infer_schema")
    w(cli, "class_indices", "dataset.class_indices")
    w(cli, "build_codebook", "codebook.build_codebook")
    w(cli, "encode_dataset", "encoding.encode_dataset", records, rss=True, keep=True)
    w(cli, "train_initial", "model.train_initial")
    w(cli, "predict_batch", "model.predict_batch", scored, keep=True)
    w(cli, "retrain", "model.retrain", retrained)
    w(cli, "save_model", "model.save_model", saved)
    w(cli, "load_model", "model.load_model")
    w(cli, "evaluate", "evaluation.evaluate")
    w(cli, "render_report", "evaluation.render_report")
    for cmd in ("train", "evaluate", "predict"):
        w(cli, f"cmd_{cmd}", f"cli.{cmd}")
    w(evaluation, "class_indices", "dataset.class_indices")
    w(evaluation, "encode_dataset", "encoding.encode_dataset", records, rss=True, keep=True)
    w(evaluation, "predict_batch", "model.predict_batch", scored, keep=True)
    w(encoding, "EncoderTables", "encoding.EncoderTables")


def single_thread_baselines(tracer: tracing.Tracer) -> dict:
    """Repeat the largest traced multi-job encode and scoring call at jobs=1."""
    out = {}
    for name in ("encoding.encode_dataset", "model.predict_batch"):
        kept = tracer.kept.get(name)
        if kept is None or (kept[2].get("jobs") or 1) <= 1:
            out[f"{name}.s.jobs1"] = 0.0
            out[f"{name}.speedup"] = 0.0
            continue
        fn, args, kwargs, _, seconds = kept
        t0 = time.perf_counter()
        fn(*args, **dict(kwargs, jobs=1))
        jobs1 = time.perf_counter() - t0
        out[f"{name}.s.jobs1"] = jobs1
        out[f"{name}.speedup"] = jobs1 / seconds
    tracer.kept.clear()
    return out


# --- units of work -----------------------------------------------------------

def train_unit(cli, work: Path) -> dict:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["train", "--train", str(work / "train.txt"),
                       "--model", str(work / "unit.model"), "--jobs", str(JOBS)]
                      + TRAIN_FLAGS)
    seconds = time.perf_counter() - t0
    text = buf.getvalue()
    sys.stdout.write(text)
    records = [int(line.split()[1]) for line in text.splitlines() if line.startswith("records:")]
    return {"s": seconds, "records": records[0] if records else 0, "ok": rc == 0,
            "epoch_acc": epoch_accuracies(text)}


def bulk_unit(cli, work: Path, test: Path, tag: str) -> dict:
    report, preds = work / f"{tag}.report.json", work / f"{tag}.preds.csv"
    model = str(work / "prep.model")
    t0 = time.perf_counter()
    rc_eval = cli.main(["evaluate", "--model", model, "--test", str(test), "--format", "json",
                        "--report", str(report), "--jobs", str(JOBS)])
    rc_pred = cli.main(["predict", "--model", model, "--input", str(test),
                        "--output", str(preds), "--jobs", str(JOBS)])
    seconds = time.perf_counter() - t0
    if rc_eval != 0 or rc_pred != 0:
        return {"s": seconds, "records": 0, "ok": False}
    scored = json.loads(report.read_text())
    return {"s": seconds, "records": scored["records"], "ok": True,
            "accuracy": scored["accuracy"],
            "report_sha256": sha256(report), "csv_sha256": sha256(preds)}


# --- modes -------------------------------------------------------------------

def measure(args) -> dict:
    """Set up, then time one unit: a train job or an evaluate+predict pass."""
    work = Path(args.work)
    tracer = tracing.Tracer() if args.trace else None
    with tracer.span("setup") if tracer else contextlib.nullcontext():
        import hdnids.cli as cli
        if tracer:
            install_tracer(tracer)
        if args.workload == "score-bulk":
            bulk_unit(cli, work, work / "warmup.txt", "warmup")
    result = {"setup_s": time.monotonic() - args.launch}
    if args.setup_only:
        return result

    with tracer.span("unit") if tracer else contextlib.nullcontext():
        if args.workload == "train-overlap":
            unit = train_unit(cli, work)
        else:
            unit = bulk_unit(cli, work, work / "test.txt", "unit")
    result["units"] = [unit]
    if tracer:
        result["baselines"] = single_thread_baselines(tracer)
        result["spans"] = tracer.spans
    result["outputs"] = {}
    if unit["ok"]:  # a failed unit may have written nothing; run.py counts it
        model_file = work / ("unit.model" if args.workload == "train-overlap" else "prep.model")
        result["outputs"]["model_sha256"] = sha256(model_file)
        if args.workload == "score-bulk":
            result["outputs"].update(report_sha256=unit["report_sha256"],
                                     csv_sha256=unit["csv_sha256"])
    result["peak_rss_mb"] = tracing.peak_rss_mb()
    result["provenance"] = provenance()
    return result


def reference(args) -> dict:
    """Set up as measure does, but import numpy instead of hdnids."""
    import numpy  # noqa: F401

    return {"setup_s": time.monotonic() - args.launch}


def prep(args) -> dict:
    """Train the scoring workloads' model on the head of the train file."""
    import hdnids.cli as cli

    work = Path(args.work)
    rc = cli.main(["train", "--train", str(work / "head.txt"), "--model",
                   str(work / "prep.model"), "--jobs", str(JOBS)] + PREP_FLAGS)
    return {"ok": rc == 0}


def oracle_checks(args, model_path: Path, records, record) -> None:
    """A fixed sample of test records, some through the OOV row, against the naive oracle."""
    import numpy as np

    from hdnids import encode_dataset, load_model, lookup_level, predict_batch

    sys.path.insert(0, str(Path(args.root) / "tests"))
    import reference

    model = load_model(model_path)
    vocab = set(model.schema.features[2].vocabulary)
    oov = [i for i, r in enumerate(records) if r.values[2] not in vocab]
    rng = np.random.default_rng([args.seed % (1 << 64), 0x0AC1E])
    sample = sorted(set(rng.choice(len(records), ORACLE_SAMPLE - ORACLE_OOV, replace=False).tolist())
                    | set(rng.choice(oov, min(ORACLE_OOV, len(oov)), replace=False).tolist()))
    data = encode_dataset([records[i].values for i in sample], model.codebook, model.schema,
                          model.threshold, jobs=JOBS)
    preds, _ = predict_batch(model, data, jobs=JOBS)
    reps = [r.values.tolist() for r in model.representatives]

    def level_for(j, raw):
        return lookup_level(j, raw, model.codebook, model.schema)

    bits_ok = argmax_ok = 0
    for row, i in enumerate(sample):
        bits = reference.ref_encode_binary(records[i].values, model.codebook, model.schema,
                                           model.threshold, level_for)
        got = np.unpackbits(data.packed[row], count=data.dim, bitorder="little").tolist()
        bits_ok += bits == got
        sims = [reference.ref_cosine(bits, rep) for rep in reps]
        argmax_ok += max(range(len(sims)), key=lambda c: (sims[c], -c)) == int(preds[row])
    record("oracle encodings", bits_ok == len(sample), f"{bits_ok}/{len(sample)}")
    record("oracle argmax", argmax_ok == len(sample), f"{argmax_ok}/{len(sample)}")
    record("oracle sample reaches the OOV row", len(oov) > 0, len(oov))


def check(args) -> dict:
    """Output checks that do not belong in a timed unit."""
    import hdnids.cli as cli
    from hdnids import parse_file

    work = Path(args.work)
    checks: list[dict] = []  # each one attempted operation, counted by run.py
    out = {"checks": checks}

    def record(name: str, ok: bool, detail=None) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    test = work / "test.txt"
    model_path = work / ("unit.model" if args.workload == "train-overlap" else "prep.model")

    parsed = parse_file(test)
    record("malformed lines counted", parsed.malformed_count == args.malformed,
           parsed.malformed_count)

    if model_path.is_file():
        oracle_checks(args, model_path, parsed.records, record)
    else:
        record("model file written", False, model_path.name)

    def run(argv) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) == 0

    if args.workload != "train-overlap":
        return out
    if model_path.is_file():
        report = work / "check.report.json"
        ok = run(["evaluate", "--model", str(model_path), "--test", str(test),
                  "--format", "json", "--report", str(report), "--jobs", str(JOBS)])
        record("evaluate exit code", ok)
        if ok:
            out["accuracy"] = json.loads(report.read_text())["accuracy"]
            out["outputs"] = {"report_sha256": sha256(report)}
    shas = []
    for jobs in (1, 2):
        path = work / f"subset.jobs{jobs}.model"
        ok = run(["train", "--train", str(work / "subset.txt"), "--model", str(path),
                  "--jobs", str(jobs)] + TRAIN_FLAGS)
        record(f"train --jobs {jobs} exit code", ok)
        shas.append(sha256(path) if ok else None)
    record("model bytes equal at --jobs 1 and --jobs 2",
           shas[0] is not None and shas[0] == shas[1], shas)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("prep", "measure", "reference", "check"))
    p.add_argument("--workload", required=True)
    p.add_argument("--root", required=True, help="checkout root")
    p.add_argument("--work", required=True, help="directory with the corpus files")
    p.add_argument("--result", required=True, help="write the result JSON here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--malformed", type=int, default=0, help="malformed lines injected")
    p.add_argument("--launch", type=float, default=None,
                   help="time.monotonic() just before this process was started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    mode = {"prep": prep, "measure": measure, "reference": reference, "check": check}[args.mode]
    result = mode(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
