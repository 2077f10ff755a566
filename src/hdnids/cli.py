"""Command line front end: train, evaluate, predict, split, sweep.

Option precedence is flag > config file (--config, JSON) > environment
(HDNIDS_JOBS for --jobs) > built-in default. The effective settings are
echoed on stdout by train and embedded in nothing else; rendered reports
depend only on the model and the input data, so reruns with the same
seed produce byte-identical report files regardless of worker count.

Exit codes: 0 success, 2 bad usage or config, 3 I/O failure, 4 malformed
input data, 5 corrupt model file.

All file outputs are written to a temp file and renamed into place, so a
failing run never leaves a partial model, report, or split behind.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys
import time
from pathlib import Path

from .dataset import (
    CLASS_NAMES,
    ParseError,
    SplitSpec,
    UnknownLabelError,
    class_indices,
    format_record,
    infer_schema,
    load_label_map,
    parse_file,
    split,
)
from .codebook import build_codebook
from .encoding import default_threshold, encode_dataset
from .evaluation import REPORT_FORMATS, evaluate, render_report
from .model import (
    ClassModel,
    CorruptModelError,
    Hyperparams,
    atomic_write,
    load_model,
    predict_batch,
    retrain,
    save_model,
    train_initial,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_CORRUPT_MODEL = 5

DEFAULTS = {
    "dim": 10000,
    "bins": 10,
    "alpha": 1.0,
    "iterations": 50,
    "threshold": None,
    "seed": 42,
    "log_scale": False,
    "fraction": 0.8,
    "unknown_label": "fallback",
    "fallback_class": "normal",
    "format": "text",
}


class ConfigError(ValueError):
    """Bad flag/config value; maps to exit code 2."""


def _load_config_file(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(obj) - set(DEFAULTS) - {"jobs", "label_map"}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return obj


def _resolve(args, config: dict, key: str):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    value = config.get(key, DEFAULTS.get(key))
    # a JSON string such as "false" is truthy, so a switch must be a real bool
    if isinstance(DEFAULTS.get(key), bool) and not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _resolve_jobs(args, config: dict) -> int:
    value = getattr(args, "jobs", None)
    if value is None:
        value = config.get("jobs")
    if value is None:
        value = os.environ.get("HDNIDS_JOBS")
    if value is None:
        return os.cpu_count() or 1
    try:
        jobs = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"jobs must be an integer, got {value!r}") from None
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _resolve_label_map(args, config: dict):
    path = getattr(args, "label_map", None)
    if path is None:
        path = config.get("label_map")
    policy = _resolve(args, config, "unknown_label")
    if policy not in ("fallback", "strict"):
        raise ConfigError(f"--unknown-label must be 'fallback' or 'strict', got {policy!r}")
    fallback_name = _resolve(args, config, "fallback_class")
    if fallback_name not in CLASS_NAMES:
        raise ConfigError(
            f"--fallback-class must be one of {CLASS_NAMES}, got {fallback_name!r}"
        )
    return load_label_map(
        path, strict=policy == "strict", fallback_class=CLASS_NAMES.index(fallback_name)
    )


def _train_pipeline(records, label_map, *, dim, bins, threshold, alpha,
                    iterations, seed, log_scale, jobs):
    """Schema, codebook, encode, centroid init, optional retraining.

    Returns (model, initial_accuracy, trace, timings dict).
    """
    hyper = Hyperparams(
        dim=dim, bins=bins, threshold=threshold, alpha=alpha,
        iterations=iterations, seed=seed, log_scale=log_scale,
    )
    hyper.validate()

    timings = {}
    t0 = time.perf_counter()
    schema = infer_schema(records, class_names=label_map.class_names,
                          log_scale=log_scale)
    codebook = build_codebook(schema, dim=dim, bins=bins, seed=seed)
    timings["codebook"] = time.perf_counter() - t0

    hyper.threshold = default_threshold(schema) if threshold is None else float(threshold)
    labels = class_indices(records, label_map)
    t0 = time.perf_counter()
    data = encode_dataset(
        [r.values for r in records], codebook, schema, hyper.threshold,
        labels=labels, jobs=jobs,
    )
    timings["encode"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    reps = train_initial(data, num_classes=len(label_map.class_names))
    model = ClassModel(
        representatives=reps, codebook=codebook, schema=schema,
        label_map=label_map, hyperparams=hyper,
    )
    preds, _ = predict_batch(model, data, jobs=jobs)
    initial_accuracy = float((preds == data.labels).mean())
    timings["train_initial"] = time.perf_counter() - t0

    trace = []
    if iterations > 0:
        t0 = time.perf_counter()
        model, trace = retrain(model, data, alpha=alpha, iterations=iterations)
        timings["retrain"] = time.perf_counter() - t0
    return model, initial_accuracy, trace, timings


def cmd_train(args) -> int:
    config = _load_config_file(args.config) if args.config else {}
    jobs = _resolve_jobs(args, config)
    label_map = _resolve_label_map(args, config)
    settings = {k: _resolve(args, config, k) for k in
                ("dim", "bins", "threshold", "alpha", "iterations", "seed", "log_scale")}
    result = parse_file(args.train)
    model, acc0, trace, timings = _train_pipeline(
        result.records, label_map, jobs=jobs, **settings)

    # save before printing, so a closed stdout cannot cost the trained model
    save_model(model, args.model)
    echo = dict(model.hyperparams.to_dict())
    echo["jobs"] = jobs
    echo["train"] = str(args.train)
    print("effective-config: " + json.dumps(echo, sort_keys=True))
    print(f"records: {len(result.records)}  (malformed skipped: {result.malformed_count})")
    print(f"epoch  0: train accuracy {acc0:.4f} (centroids only)")
    for i, acc in enumerate(trace, start=1):
        print(f"epoch {i:2d}: train accuracy {acc:.4f}")
    if trace and len(trace) < model.hyperparams.iterations:
        print(f"converged after {len(trace)} epoch(s): a full pass made no updates")
    total = sum(timings.values())
    detail = ", ".join(f"{k} {v:.2f}s" for k, v in timings.items())
    print(f"model written to {args.model}  ({total:.2f}s total: {detail})")
    return EXIT_OK


def _apply_label_overrides(model, args, config) -> None:
    """Let evaluate-time flags override the label policy stored in the model."""
    if getattr(args, "label_map", None) or config.get("label_map"):
        model.label_map = _resolve_label_map(args, config)
        return
    policy = getattr(args, "unknown_label", None) or config.get("unknown_label")
    if policy is not None:
        if policy not in ("fallback", "strict"):
            raise ConfigError(
                f"--unknown-label must be 'fallback' or 'strict', got {policy!r}")
        model.label_map.strict = policy == "strict"
    fallback = getattr(args, "fallback_class", None) or config.get("fallback_class")
    if fallback is not None:
        if fallback not in model.label_map.class_names:
            raise ConfigError(
                f"--fallback-class must be one of {model.label_map.class_names}, "
                f"got {fallback!r}")
        model.label_map.fallback_class = model.label_map.class_names.index(fallback)


def cmd_evaluate(args) -> int:
    config = _load_config_file(args.config) if args.config else {}
    jobs = _resolve_jobs(args, config)
    fmt = _resolve(args, config, "format")
    if fmt not in REPORT_FORMATS:
        raise ConfigError(f"--format must be one of {REPORT_FORMATS}, got {fmt!r}")
    model = load_model(args.model)
    _apply_label_overrides(model, args, config)
    result = parse_file(args.test)
    report = evaluate(model, result.records, jobs=jobs)
    rendered = render_report(report, fmt)
    if args.report:
        atomic_write(args.report, rendered.encode("utf-8"))
        print(f"report written to {args.report}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    print(f"evaluated {report.num_records} records in {report.wall_time:.2f}s",
          file=sys.stderr)
    return EXIT_OK


def cmd_predict(args) -> int:
    config = _load_config_file(args.config) if args.config else {}
    jobs = _resolve_jobs(args, config)
    model = load_model(args.model)
    result = parse_file(args.input, allow_unlabeled=True)
    if not result.records:
        raise ParseError(f"{args.input}: no records")
    data = encode_dataset(
        [r.values for r in result.records], model.codebook, model.schema,
        model.threshold, jobs=jobs,
    )
    preds, sims = predict_batch(model, data, jobs=jobs)
    names = model.label_map.class_names
    lines = ["index,predicted," + ",".join(f"sim_{n}" for n in names)]
    for i in range(len(preds)):
        scores = ",".join(repr(float(s)) for s in sims[i])
        lines.append(f"{i},{names[preds[i]]},{scores}")
    text = "\n".join(lines) + "\n"
    if args.output:
        atomic_write(args.output, text.encode("utf-8"))
        print(f"predictions written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_split(args) -> int:
    config = _load_config_file(args.config) if args.config else {}
    fraction = _resolve(args, config, "fraction")
    seed = _resolve(args, config, "seed")
    label_map = _resolve_label_map(args, config)
    result = parse_file(args.input, keep_raw=True)
    spec = SplitSpec(mode="random", train_fraction=float(fraction), seed=int(seed))
    train_recs, test_recs = split(result.records, spec, label_map)

    def _lines(records):
        return "".join((r.raw if r.raw is not None else format_record(r)) + "\n"
                       for r in records).encode("utf-8")

    atomic_write(args.train_out, _lines(train_recs))
    atomic_write(args.test_out, _lines(test_recs))
    print(f"{len(train_recs)} train -> {args.train_out}")
    print(f"{len(test_recs)} test  -> {args.test_out}")
    return EXIT_OK


def _int_list(text: str):
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _float_list(text: str):
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def cmd_sweep(args) -> int:
    config = _load_config_file(args.config) if args.config else {}
    jobs = _resolve_jobs(args, config)
    label_map = _resolve_label_map(args, config)
    log_scale = _resolve(args, config, "log_scale")
    iterations = _resolve(args, config, "iterations")
    threshold = _resolve(args, config, "threshold")
    fraction = float(_resolve(args, config, "fraction"))

    def grid(flag, key):
        return flag or [config.get(key, DEFAULTS[key])]

    dims = grid(args.dims, "dim")
    bins_grid = grid(args.bins, "bins")
    alphas = grid(args.alphas, "alpha")
    seeds = grid(args.seeds, "seed")

    records = parse_file(args.train).records
    test_records = parse_file(args.test).records if args.test else None

    # one split per seed, reused across the (dim, bins, alpha) grid
    splits = {}
    for seed in seeds:
        if test_records is not None:
            splits[seed] = (records, test_records)
        else:
            spec = SplitSpec(mode="random", train_fraction=fraction, seed=seed)
            splits[seed] = split(records, spec, label_map)

    rows = ["dim,bins,alpha,seed,iterations,train_records,test_records,"
            "accuracy,macro_f1,status"]
    for dim, bins, alpha, seed in itertools.product(dims, bins_grid, alphas, seeds):
        train_recs, test_recs = splits[seed]
        prefix = f"{dim},{bins},{alpha},{seed},{iterations},{len(train_recs)},{len(test_recs)}"
        try:
            model, _, _, _ = _train_pipeline(
                train_recs, label_map, dim=dim, bins=bins, threshold=threshold,
                alpha=alpha, iterations=iterations, seed=seed,
                log_scale=log_scale, jobs=jobs,
            )
            report = evaluate(model, test_recs, jobs=jobs)
            rows.append(f"{prefix},{repr(report.accuracy)},{repr(report.macro_f1)},ok")
        except Exception as exc:  # a bad combo must not kill the sweep
            log.error("sweep combo dim=%s bins=%s alpha=%s seed=%s failed: %s",
                      dim, bins, alpha, seed, exc)
            rows.append(f"{prefix},,,error:{type(exc).__name__}")
    text = "\n".join(rows) + "\n"
    if args.output:
        atomic_write(args.output, text.encode("utf-8"))
        print(f"sweep results written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_common(p, *, with_model_params=False):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker threads (default: HDNIDS_JOBS env or cpu count)")
    p.add_argument("--label-map", dest="label_map", default=None,
                   help="attack->category CSV (default: built-in mapping)")
    p.add_argument("--unknown-label", dest="unknown_label",
                   choices=("fallback", "strict"), default=None,
                   help="unmapped label policy (default: fallback with a warning)")
    p.add_argument("--fallback-class", dest="fallback_class", default=None,
                   help=f"class for unmapped labels (default: {DEFAULTS['fallback_class']})")
    if with_model_params:
        p.add_argument("--dim", type=int, default=None,
                       help=f"hypervector dimension (default {DEFAULTS['dim']})")
        p.add_argument("--bins", type=int, default=None,
                       help=f"quantization levels per numeric feature (default {DEFAULTS['bins']})")
        p.add_argument("--threshold", type=float, default=None,
                       help="binarization threshold (default: feature count / 2)")
        p.add_argument("--alpha", type=float, default=None,
                       help=f"retraining learning rate (default {DEFAULTS['alpha']})")
        p.add_argument("--iterations", type=int, default=None,
                       help=f"retraining epochs, 0 disables (default {DEFAULTS['iterations']})")
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default {DEFAULTS['seed']})")
        p.add_argument("--log-scale", dest="log_scale",
                       action=argparse.BooleanOptionalAction, default=None,
                       help="log1p-compress continuous features before binning")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdnids",
        description="Hyperdimensional classifier for NSL-KDD style intrusion records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and save it")
    p.add_argument("--train", required=True, help="training data file")
    p.add_argument("--model", required=True, help="output model path")
    _add_common(p, with_model_params=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a labelled file against a model")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--test", required=True, help="labelled data file")
    p.add_argument("--format", choices=REPORT_FORMATS, default=None,
                   help=f"report format (default {DEFAULTS['format']})")
    p.add_argument("--report", default=None, help="write report here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="classify records (labels optional)")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--input", required=True, help="data file; 41 or 42/43 fields per line")
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("split", help="seeded stratified split of a labelled file")
    p.add_argument("--input", required=True, help="labelled data file")
    p.add_argument("--train-out", dest="train_out", required=True)
    p.add_argument("--test-out", dest="test_out", required=True)
    p.add_argument("--fraction", type=float, default=None,
                   help=f"train fraction (default {DEFAULTS['fraction']})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default {DEFAULTS['seed']})")
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("sweep", help="grid over dim/bins/alpha/seed, CSV out")
    p.add_argument("--train", required=True, help="training data file")
    p.add_argument("--test", default=None,
                   help="fixed test file; otherwise a per-seed split of --train")
    p.add_argument("--dims", type=_int_list, default=None,
                   help="comma-separated dimensions, e.g. 2000,10000")
    p.add_argument("--bins", type=_int_list, default=None,
                   help="comma-separated level counts")
    p.add_argument("--alphas", type=_float_list, default=None,
                   help="comma-separated learning rates")
    p.add_argument("--seeds", type=_int_list, default=None,
                   help="comma-separated seeds")
    p.add_argument("--iterations", type=int, default=None,
                   help=f"retraining epochs per combo (default {DEFAULTS['iterations']})")
    p.add_argument("--fraction", type=float, default=None,
                   help=f"train fraction when splitting (default {DEFAULTS['fraction']})")
    p.add_argument("--log-scale", dest="log_scale",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorruptModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT_MODEL
    except (ParseError, UnknownLabelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
