"""In-memory spans recorded by wrapping hdnids functions from outside.

A wrapper replaces a name where the calling module binds it (for example
``hdnids.cli.parse_file``), so a traced ``cli.main`` call nests the library
spans under its command span while ``src/`` stays untouched. Spans carry a
name, start, end, parent id and optional counts; they stay in memory until
the caller writes them out.

Only single-threaded callers are wrapped: hdnids' worker threads run inside
``encode_dataset`` and ``predict_batch``, below any wrapped boundary, so a
plain stack gives every span its parent.
"""

from __future__ import annotations

import functools
import resource
import statistics
import time


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.kept: dict[str, tuple] = {}

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrap(self, owner, attr: str, name: str, counts=None, rss: bool = False,
             keep: bool = False):
        """Replace ``owner.attr`` with a wrapper that records span ``name``.

        counts(args, kwargs, result) returns a dict of counts stored on the
        span. rss records the rise of the process's peak RSS during the call.
        keep stores (fn, args, kwargs, records, seconds) of the call with the
        most records, so the caller can repeat that call later untraced.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                before = peak_rss_mb() if rss else 0.0
                result = fn(*args, **kwargs)
                if rss:
                    sp.attrs["rss_mb"] = peak_rss_mb() - before
                if counts is not None:
                    sp.attrs.update(counts(args, kwargs, result))
            records = sp.attrs.get("records", 0)
            if keep and records >= self.kept.get(name, (None, (), {}, -1))[3]:
                seconds = sp.record["end"] - sp.record["start"]
                self.kept[name] = (fn, args, kwargs, records, seconds)
            return result

        setattr(owner, attr, traced)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.attrs = tracer, name, {}

    def __enter__(self):
        t = self.tracer
        self.record = {"id": len(t.spans), "name": self.name,
                       "parent": t._stack[-1] if t._stack else None,
                       "start": time.perf_counter(), "end": None, "attrs": self.attrs}
        t.spans.append(self.record)
        t._stack.append(self.record["id"])
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def descendants(spans: list[dict], root_name: str) -> list[dict]:
    """Spans below (not including) every span named root_name."""
    below = {s["id"] for s in spans if s["name"] == root_name}
    out = []
    for s in spans:  # parents are recorded before their children
        if s["parent"] in below:
            below.add(s["id"])
            out.append(s)
    return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def retrain_counts(epoch_acc: list[float], m: int) -> dict[str, int]:
    """Work of one retrain call over m samples, from its per-epoch accuracy.

    An epoch updates the model once per sample it misses, which is
    round((1 - acc) * m) samples.
    """
    return {"epochs": len(epoch_acc), "visits": m * len(epoch_acc),
            "updates": sum(round((1.0 - acc) * m) for acc in epoch_acc)}


def miss_frac(counts: dict[str, int]) -> float:
    """Updates per sample visit of retrain_counts (or of their sums)."""
    return _ratio(counts["updates"], counts["visits"])


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced unit of work.

    Totals cover the spans below the "unit" span. Construction and load
    times are medians over every call, set-up included. A layer the unit
    never reaches reads 0.
    """
    unit = descendants(spans, "unit")
    selfs = self_times(spans)

    def of(name, where=unit):
        return [s for s in where if s["name"] == name]

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in of(name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in of(name))

    def attr_max(name, key):
        return max((s["attrs"].get(key, 0) for s in of(name)), default=0)

    m = {}
    m["dataset.parse_file.s"] = total("dataset.parse_file")
    m["dataset.parse_file.records_per_s"] = _ratio(
        attr_sum("dataset.parse_file", "records"), m["dataset.parse_file.s"])
    m["dataset.parse_file.malformed"] = attr_max("dataset.parse_file", "malformed")
    m["dataset.parse_file.rss_mb"] = attr_max("dataset.parse_file", "rss_mb")
    m["dataset.infer_schema.s"] = total("dataset.infer_schema")
    m["dataset.class_indices.s"] = total("dataset.class_indices")
    m["codebook.build_codebook.s"] = total("codebook.build_codebook")
    m["encoding.EncoderTables.s"] = _median([dur(s) for s in of("encoding.EncoderTables", spans)])
    m["encoding.encode_dataset.s"] = total("encoding.encode_dataset")
    m["encoding.encode_dataset.records_per_s"] = _ratio(
        attr_sum("encoding.encode_dataset", "records"), m["encoding.encode_dataset.s"])
    m["encoding.encode_dataset.rss_mb"] = attr_max("encoding.encode_dataset", "rss_mb")
    m["encoding.encode_dataset.calls"] = len(of("encoding.encode_dataset"))
    m["model.train_initial.s"] = total("model.train_initial")
    m["model.predict_batch.s"] = total("model.predict_batch")
    m["model.predict_batch.records_per_s"] = _ratio(
        attr_sum("model.predict_batch", "records"), m["model.predict_batch.s"])
    retrain = {k: attr_sum("model.retrain", k) for k in ("epochs", "visits", "updates")}
    m["model.retrain.s"] = total("model.retrain")
    m["model.retrain.s_per_epoch"] = _ratio(m["model.retrain.s"], retrain["epochs"])
    m["model.retrain.epochs"] = retrain["epochs"]
    m["model.retrain.updates"] = retrain["updates"]
    m["model.retrain.miss_frac"] = miss_frac(retrain)
    m["model.save_model.s"] = total("model.save_model")
    m["model.save_model.bytes"] = attr_max("model.save_model", "bytes")
    m["model.load_model.s"] = _median([dur(s) for s in of("model.load_model", spans)])
    m["evaluation.evaluate.s"] = total("evaluation.evaluate")
    m["evaluation.render_report.s"] = total("evaluation.render_report")
    for cmd in ("train", "evaluate", "predict"):
        m[f"cli.{cmd}.self_s"] = sum(selfs[s["id"]] for s in of(f"cli.{cmd}"))
    return m


def largest_self_time(spans: list[dict]) -> str | None:
    """Name of the span kind with the most self time below the unit span."""
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    for s in descendants(spans, "unit"):
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + selfs[s["id"]]
    return max(by_name, key=by_name.get) if by_name else None
