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
import contextlib
import dataclasses
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
    infer_schema,
    load_label_map,
    parse_file,
    split,
)
from .codebook import build_codebook
from .encoding import EncodedDataset, checked_jobs, default_threshold, encode_dataset
from .evaluation import REPORT_FORMATS, evaluate, render_report
from .model import (
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

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_CORRUPT_MODEL = 5

_HYPER, _SPLIT = Hyperparams(), SplitSpec()

# predict and split format and write their output this many rows at a time,
# so the Python objects of only one slice exist at once
_CSV_ROWS = 4096

# key -> (type, default, flag help): config values are checked against the
# type and flags are parsed as it. A tuple type lists the allowed values.
# Only keys whose default is None accept a JSON null. The model and split
# settings take their defaults from Hyperparams and SplitSpec.
SETTINGS = {
    "dim": (int, _HYPER.dim, "hypervector dimension"),
    "bins": (int, _HYPER.bins, "quantization levels per numeric feature"),
    "alpha": (float, _HYPER.alpha, "retraining learning rate"),
    "iterations": (int, _HYPER.iterations, "retraining epochs, 0 disables"),
    "threshold": (float, _HYPER.threshold,
                  "binarization threshold; null means feature count / 2"),
    "seed": (int, _HYPER.seed, "RNG seed"),
    "log_scale": (bool, _HYPER.log_scale, "log1p-compress continuous features before binning"),
    "fraction": (float, _SPLIT.train_fraction, "train fraction when splitting"),
    "jobs": (int, os.cpu_count() or 1, "worker threads; HDNIDS_JOBS replaces the default"),
    "label_map": (str, None, "attack->category CSV; null means the built-in mapping"),
    "unknown_label": (("fallback", "strict"), "fallback",
                      "unmapped label policy; evaluate defaults to the model's"),
    "fallback_class": (tuple(CLASS_NAMES), "normal",
                       "class for unmapped labels; evaluate defaults to the model's"),
    "format": (REPORT_FORMATS, "text", "report format"),
}

_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a path"}


class ConfigError(ValueError):
    """Bad flag/config value; maps to exit code 2."""


def _typed(key: str, value):
    """value as the type SETTINGS gives key; a ConfigError naming key if it is not one.

    A JSON int is accepted for a float key and converted, so a config file and
    a flag give the same model bytes; bools are never numbers here.
    """
    kind, default, _ = SETTINGS[key]
    if value is None:
        ok = default is None
    elif isinstance(kind, tuple):
        ok = value in kind
    elif isinstance(value, bool):
        ok = kind is bool
    else:
        ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok:
        expected = f"one of {kind}" if isinstance(kind, tuple) else _KIND_NAMES[kind]
        if default is None:
            expected += " or null"
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    try:
        return float(value) if kind is float and value is not None else value
    except OverflowError:
        raise ConfigError(f"{key} is out of range, got {value!r}") from None


def _settings(args, **defaults) -> dict:
    """Every setting in SETTINGS, resolved flag > config file (--config) >
    HDNIDS_JOBS (jobs only) > default; `defaults` replaces built-in defaults.

    Every key in the config file is type-checked, whichever command reads it.
    Ranges are checked where the values are used (building Hyperparams or
    SplitSpec), except jobs, which encoding.checked_jobs checks here.
    """
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unknown = set(config) - set(SETTINGS)
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {sorted(unknown)}")
        config = {key: _typed(key, value) for key, value in config.items()}

    out = {}
    for key, (_, default, _) in SETTINGS.items():
        flag = getattr(args, key, None)  # parsed as SETTINGS types it
        if flag is not None:
            out[key] = flag
        elif key in config:
            out[key] = config[key]
        elif key == "jobs" and "HDNIDS_JOBS" in os.environ:
            env = os.environ["HDNIDS_JOBS"]
            try:
                out[key] = int(env)
            except ValueError:
                raise ConfigError(f"HDNIDS_JOBS (jobs) must be an integer, got {env!r}") from None
        else:
            out[key] = defaults.get(key, default)
    checked_jobs(out["jobs"])  # a ValueError exits 2, as a ConfigError does
    return out


def _label_map(settings: dict, table=None):
    """The label table (settings' label_map file, else `table`, else the
    packaged one) under the settings' unknown-label policy."""
    if settings["label_map"] is not None or table is None:
        table = load_label_map(settings["label_map"])
    return dataclasses.replace(
        table, strict=settings["unknown_label"] == "strict",
        fallback_class=table.class_names.index(settings["fallback_class"]))


@contextlib.contextmanager
def _text_out(path):
    """write(text) into path through atomic_write, or onto stdout when path is None."""
    if path is None:
        yield sys.stdout.write
        return
    with atomic_write(path) as fh:
        yield lambda text: fh.write(text.encode("utf-8"))


def _train_pipeline(tables: list, label_map, hyper: Hyperparams, jobs: int):
    """Schema, codebook, encode, centroid init and retraining, on the one
    RecordTable in tables.

    The table is popped from tables as it is handed to encode_dataset, so
    the pipeline keeps no reference to it: unless the caller keeps one, the
    table is freed before the encodings are filled (on CPython 3.11 and
    later; on 3.10 it lives until encode_dataset returns).

    Returns (model, initial_accuracy, trace, timings dict).
    """
    timings = {}
    t0 = time.perf_counter()
    schema = infer_schema(tables[0], log_scale=hyper.log_scale)
    codebook = build_codebook(schema, dim=hyper.dim, bins=hyper.bins, seed=hyper.seed)
    timings["codebook"] = time.perf_counter() - t0

    if hyper.threshold is None:
        hyper = dataclasses.replace(hyper, threshold=default_threshold(schema))
    labels = class_indices(tables[0], label_map)
    t0 = time.perf_counter()
    data = encode_dataset(tables.pop(), codebook, schema, hyper.threshold,
                          labels=labels, jobs=jobs)
    timings["encode"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    reps = train_initial(data, num_classes=len(label_map.class_names))
    timings["train_initial"] = time.perf_counter() - t0
    model = ClassModel(
        reps=reps, codebook=codebook, schema=schema,
        label_map=label_map, hyperparams=hyper,
    )
    t0 = time.perf_counter()
    # each distinct row scored once, its prediction gathered to every record
    preds = predict_batch(model, EncodedDataset(data.rows, data.dim), jobs=jobs)[0]
    initial_accuracy = float((preds[data.inverse] == data.labels).mean())
    timings["initial_score"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # positional: the benchmark's tracer reads the data and the trace as args[1], result[1]
    model, trace = retrain(model, data)
    timings["retrain"] = time.perf_counter() - t0
    return model, initial_accuracy, trace, timings


def cmd_train(args) -> int:
    s = _settings(args)
    hyper = Hyperparams.from_dict(s)  # a bad setting exits 2 before any file is read
    label_map = _label_map(s)
    result = parse_file(args.train)
    records, malformed = len(result.records), result.malformed_count
    tables = [result.records]
    del result  # the pipeline frees the table once encoding has read it
    model, acc0, trace, timings = _train_pipeline(tables, label_map, hyper, s["jobs"])

    # save before printing, so a closed stdout cannot cost the trained model
    save_model(model, args.model)
    echo = dict(model.hyperparams.to_dict())
    echo["jobs"] = s["jobs"]
    echo["train"] = str(args.train)
    print("effective-config: " + json.dumps(echo, sort_keys=True))
    print(f"records: {records}  (malformed skipped: {malformed})")
    print(f"epoch  0: train accuracy {acc0:.4f} (centroids only)")
    for i, acc in enumerate(trace, start=1):
        print(f"epoch {i:2d}: train accuracy {acc:.4f}")
    if trace and len(trace) < model.hyperparams.iterations:
        print(f"converged after {len(trace)} epoch(s): a full pass made no updates")
    total = sum(timings.values())
    detail = ", ".join(f"{k} {v:.2f}s" for k, v in timings.items())
    print(f"model written to {args.model}  ({total:.2f}s total: {detail})")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    # the model's stored label policy is the default; a flag or the config overrides it
    stored = model.label_map
    s = _settings(args, unknown_label="strict" if stored.strict else "fallback",
                  fallback_class=stored.class_names[stored.fallback_class])
    model = dataclasses.replace(model, label_map=_label_map(s, stored))
    tables = [parse_file(args.test).records]
    t0 = time.perf_counter()
    # evaluate gets the only reference to the table and frees it once read
    report = evaluate(model, tables.pop(), jobs=s["jobs"])
    seconds = time.perf_counter() - t0
    rendered = render_report(report, s["format"])
    with _text_out(args.report) as write:
        write(rendered)
    if args.report:
        print(f"report written to {args.report}", file=sys.stderr)
    print(f"evaluated {report.num_records} records in {seconds:.2f}s",
          file=sys.stderr)
    return EXIT_OK


def _csv_pieces(names: list, preds, sims, inverse):
    """predict's CSV as text pieces: the header, then _CSV_ROWS records a
    piece, record i scored preds[inverse[i]] and sims[inverse[i]]. Each
    distinct row's ",predicted,sims" tail is formatted once."""
    yield "index,predicted," + ",".join(f"sim_{n}" for n in names) + "\n"
    tails = [f",{names[pred]}," + ",".join(map(repr, scores)) + "\n"
             for pred, scores in zip(preds.tolist(), sims.tolist())]
    for start in range(0, len(inverse), _CSV_ROWS):
        yield "".join(f"{i}{tails[u]}" for i, u in zip(
            itertools.count(start), inverse[start:start + _CSV_ROWS].tolist()))


def cmd_predict(args) -> int:
    jobs = _settings(args)["jobs"]
    model = load_model(args.model)
    # predict_table gets the only reference to the table and frees it once read
    preds, sims, inverse = predict_table(
        model, parse_file(args.input, allow_unlabeled=True).records, jobs=jobs)
    # every error is raised by now, so stdout gets all of the CSV or none of it
    with _text_out(args.output) as write:
        for piece in _csv_pieces(model.label_map.class_names, preds, sims, inverse):
            write(piece)
    if args.output:
        print(f"predictions written to {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_split(args) -> int:
    s = _settings(args)
    label_map = _label_map(s)
    result = parse_file(args.input)
    spec = SplitSpec(train_fraction=s["fraction"], seed=s["seed"])
    train_recs, test_recs = split(result.records, spec, label_map)

    for path, records in ((args.train_out, train_recs), (args.test_out, test_recs)):
        with _text_out(path) as write:
            for start in range(0, len(records), _CSV_ROWS):
                part = records.take(slice(start, start + _CSV_ROWS))
                write("".join(line + "\n" for line in part.lines()))
    print(f"{len(train_recs)} train -> {args.train_out}")
    print(f"{len(test_recs)} test  -> {args.test_out}")
    return EXIT_OK


def _list_of(kind):
    """argparse type for a comma-separated list of `kind` values."""
    def parse(text: str):
        try:
            return [kind(p) for p in text.split(",") if p.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__}s, got {text!r}")
    return parse


def cmd_sweep(args) -> int:
    s = _settings(args)
    label_map = _label_map(s)
    # a list flag spans its axis of the grid; otherwise the axis is the one setting
    grid = {key: getattr(args, f"{key}_grid") or [s[key]]
            for key in ("dim", "bins", "alpha", "seed")}
    # the settings off the grid are checked once here; each combo on its own below
    base = Hyperparams.from_dict({k: v for k, v in s.items() if k not in grid})

    records = parse_file(args.train).records
    # one split per seed, reused across the (dim, bins, alpha) grid
    if args.test:
        splits = dict.fromkeys(grid["seed"], (records, parse_file(args.test).records))
    else:
        splits = {seed: split(records, SplitSpec(train_fraction=s["fraction"], seed=seed),
                              label_map) for seed in grid["seed"]}

    rows = ["dim,bins,alpha,seed,iterations,train_records,test_records,"
            "accuracy,macro_f1,status"]
    for dim, bins, alpha, seed in itertools.product(*grid.values()):
        train_recs, test_recs = splits[seed]
        prefix = (f"{dim},{bins},{alpha},{seed},{base.iterations},"
                  f"{len(train_recs)},{len(test_recs)}")
        try:
            hyper = dataclasses.replace(base, dim=dim, bins=bins, alpha=alpha, seed=seed)
            model, _, _, _ = _train_pipeline([train_recs], label_map, hyper, s["jobs"])
            report = evaluate(model, test_recs, jobs=s["jobs"])
            rows.append(f"{prefix},{repr(report.accuracy)},{repr(report.macro_f1)},ok")
        except Exception as exc:  # a bad combo must not kill the sweep
            log.error("sweep combo dim=%s bins=%s alpha=%s seed=%s failed: %s",
                      dim, bins, alpha, seed, exc)
            rows.append(f"{prefix},,,error:{type(exc).__name__}")
    with _text_out(args.output) as write:
        write("\n".join(rows) + "\n")
    if args.output:
        print(f"sweep results written to {args.output}", file=sys.stderr)
    return EXIT_OK


# the settings of the label table and its unknown-label policy
_LABEL_SETTINGS = ("label_map", "unknown_label", "fallback_class")


def _add_settings(p, *keys):
    """--config, and one flag per given setting, each typed and documented
    from SETTINGS."""
    p.add_argument("--config", help="JSON config file; flags override it")
    for key in keys:
        kind, default, text = SETTINGS[key]
        if kind is bool:
            kw = {"action": argparse.BooleanOptionalAction}
        elif isinstance(kind, tuple):
            kw = {"choices": kind}
        else:
            kw = {"type": kind}
        p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                       help=f"{text} (default: {json.dumps(default)})", **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdnids",
        description="Hyperdimensional classifier for NSL-KDD style intrusion records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and save it")
    p.add_argument("--train", required=True, help="training data file")
    p.add_argument("--model", required=True, help="output model path")
    _add_settings(p, "dim", "bins", "threshold", "alpha", "iterations", "seed", "log_scale",
                  "jobs", *_LABEL_SETTINGS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a labelled file against a model")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--test", required=True, help="labelled data file")
    p.add_argument("--report", default=None, help="write report here instead of stdout")
    _add_settings(p, "format", "jobs", *_LABEL_SETTINGS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="classify records (labels optional)")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--input", required=True, help="data file; 41 or 42/43 fields per line")
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    _add_settings(p, "jobs")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("split", help="seeded stratified split of a labelled file")
    p.add_argument("--input", required=True, help="labelled data file")
    p.add_argument("--train-out", dest="train_out", required=True)
    p.add_argument("--test-out", dest="test_out", required=True)
    _add_settings(p, "fraction", "seed", *_LABEL_SETTINGS)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("sweep", help="grid over dim/bins/alpha/seed, CSV out")
    p.add_argument("--train", required=True, help="training data file")
    p.add_argument("--test", default=None,
                   help="fixed test file; otherwise a per-seed split of --train")
    p.add_argument("--dims", dest="dim_grid", metavar="DIMS", type=_list_of(int),
                   help="comma-separated dimensions, e.g. 2000,10000")
    p.add_argument("--bins", dest="bins_grid", metavar="BINS", type=_list_of(int),
                   help="comma-separated level counts")
    p.add_argument("--alphas", dest="alpha_grid", metavar="ALPHAS", type=_list_of(float),
                   help="comma-separated learning rates")
    p.add_argument("--seeds", dest="seed_grid", metavar="SEEDS", type=_list_of(int),
                   help="comma-separated seeds")
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    _add_settings(p, "iterations", "fraction", "log_scale", "jobs", *_LABEL_SETTINGS)
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
