"""The traced run: one workload's simulate and analyze work, in-process.

``collect_layers`` repeats, through the library, the work of the two
commands the timed run executes: the game runner at ``jobs=1``, then the
analyze call on the dataset ``leaklab simulate`` wrote.  It does so once
untraced and once traced, and the ratio of the two walls is the tracing
overhead.  While still traced it then loads every dataset trace and
calls each feature extractor, the tokenizer and the n-gram hash on it
directly, so every layer has a number on every workload.

The untraced runner's ``progress`` callback gives per-trace generation
times.  The traced runner's ``write_trace`` text must equal the
dataset's text for every trace, so the layer split times the same work
as the timed run, and its analyze results must equal the report's.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import scipy.sparse

from tracer import Tracer

clock = time.perf_counter
UNCONVERGED_GRAD = 1e-4  # train_logreg's documented gradient-norm target
KIND_TAGS = {"CodeFetch": "CF", "DataAccess": "MA", "CiphertextDiff": "CI",
             "CounterSnapshot": "PN"}
FEATURE_SETS = ("F1", "F2", "F3", "F4", "F5")


# -- observers: counts taken after a span's timed call ----------------------

def _tap(info, tap):
    from leaklab.machine import MARK, WRITE

    inside = depth = writes = 0
    for ev in tap:
        kind = ev[0]
        if kind == MARK:
            depth += 1 if ev[1] == "START" else -1
        elif depth:
            inside += 1
        if kind == WRITE:
            writes += 1
    info.update(tap_events=len(tap), tap_writes=writes, in_window=inside)


def _observe_workload(info, args, kwargs, result):
    _tap(info, args[1].tap)


def _observe_collect(info, args, kwargs, result):
    _tap(info, args[1])
    info["kept"] = len(result.events)


def _observe_write(info, args, kwargs, result):
    counts = dict.fromkeys(KIND_TAGS.values(), 0)
    for ev in args[0].events:
        tag = KIND_TAGS.get(type(ev).__name__)
        if tag:
            counts[tag] += 1
    data = result.encode()
    info.update(counts, bytes=len(data), sha256=hashlib.sha256(data).hexdigest())


def _observe_parse(info, args, kwargs, result):
    info["events"] = len(result.events)


def _observe_features(info, args, kwargs, result):
    info["sets"] = list(args[1])


def _observe_tokenize(info, args, kwargs, result):
    info["tokens"] = len(result.tokens)


def _observe_ngram(info, args, kwargs, result):
    info.update(rows=result.shape[0], nnz=result.nnz)


def _observe_fit(info, args, kwargs, result):
    if scipy.sparse.issparse(args[0]):
        kind = "sparse"
    else:
        kind = "binary" if len(result.classes) == 2 else "multinomial"
    info.update(kind=kind, iterations=len(result.loss_history),
                grad_norm=float(result.grad_norm))


def _observers(workload_classes) -> dict:
    obs = {f"workloads.{c}.__call__": _observe_workload for c in workload_classes}
    obs.update({
        "machine.collect": _observe_collect,
        "trace.write_trace": _observe_write,
        "trace.parse_trace": _observe_parse,
        "features.extract_features": _observe_features,
        "features.tokenize": _observe_tokenize,
        "features.ngram_hash_matrix": _observe_ngram,
        "analysis.train_logreg": _observe_fit,
    })
    return obs


def _normalized(results: dict) -> dict:
    return json.loads(json.dumps(results))


class Layers:
    def __init__(self):
        self.tracer: Tracer | None = None
        self.rows: list = []         # (seed, label, dataset trace text)
        self.trace_ms: list = []     # per-trace generation wall, untraced
        self.untraced_s = self.traced_s = 0.0
        self.results: list = []      # analyze results: untraced, traced

    def problems(self, cli_results: dict) -> list[str]:
        out = []
        for which, res in zip(("untraced", "traced"), self.results):
            if _normalized(res) != cli_results:
                out.append(f"{which} in-process analyze results differ from "
                           "leaklab analyze")
        generated = [self.tracer.spans[i].info.get("sha256")
                     for i in self.tracer.select("trace.write_trace", "generate")]
        dataset = [hashlib.sha256(t.encode()).hexdigest() for _, _, t in self.rows]
        if generated != dataset:
            bad = next((i for i, (a, b) in enumerate(zip(generated, dataset))
                        if a != b), min(len(generated), len(dataset)))
            out.append(f"traced generation differs from the dataset at trace "
                       f"{bad} ({len(generated)} written, {len(dataset)} in dataset)")
        return out

    def metrics(self) -> dict:
        tr = self.tracer
        spans = tr.spans

        def sel(prefix, phase=None):
            return [spans[i] for i in tr.select(prefix, phase)]

        def total(ss, key=None):
            return sum(s.info[key] if key else s.end - s.start for s in ss)

        def mean_ms(ss):
            return 1000 * total(ss) / len(ss) if ss else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict = {"trace_overhead_frac": (self.traced_s / self.untraced_s - 1, "frac")}

        calls = [s for s in sel("workloads.") if s.name.endswith(".__call__")]
        builds = sel("workloads.build_workload")
        m["workloads.ms_per_trace"] = (
            1000 * ratio(total(calls) + total(builds), len(calls)), "ms")
        m["workloads.tap_events_per_trace"] = (ratio(total(calls, "tap_events"), len(calls)), "count")
        m["workloads.tap_writes_per_trace"] = (ratio(total(calls, "tap_writes"), len(calls)), "count")

        col = sel("machine.collect")
        tap = total(col, "tap_events")
        m["machine.collect.ms_per_trace"] = (mean_ms(col), "ms")
        m["machine.collect.tap_events_per_s"] = (ratio(tap, total(col)), "1/s")
        m["machine.collect.window_share"] = (ratio(total(col, "in_window"), tap), "frac")
        m["machine.collect.kept_ratio"] = (ratio(total(col, "kept"), tap), "frac")

        writes = sel("trace.write_trace")
        m["trace.write.ms_per_trace"] = (mean_ms(writes), "ms")
        m["trace.bytes_per_trace"] = (ratio(total(writes, "bytes"), len(writes)), "B")
        for tag in KIND_TAGS.values():
            m[f"trace.events_per_trace.{tag}"] = (ratio(total(writes, tag), len(writes)), "count")
        parses = sel("trace.parse_trace")
        m["trace.parse.ms_per_trace"] = (mean_ms(parses), "ms")
        m["trace.parse.events_per_s"] = (ratio(total(parses, "events"), total(parses)), "1/s")

        ms = self.trace_ms
        m["games.trace_ms.p50"] = (statistics.median(ms), "ms")
        m["games.trace_ms.p90"] = (statistics.quantiles(ms, n=10)[-1], "ms")
        m["games.trace_ms.samples"] = (len(ms), "count")
        layer = ("workloads.", "machine.collect", "trace.write_trace")
        runner_self = sum(spans[i].end - spans[i].start - tr.inside(i, layer)
                          for i in tr.select("games.run_", "generate"))
        m["games.self_ms_per_trace"] = (1000 * ratio(runner_self, len(calls)), "ms")
        loads = tr.select("games.LabeledDataset.load") + tr.select("games.DatasetEntry.load")
        load_self = sum(spans[i].end - spans[i].start - tr.inside(i, ("trace.parse_trace",))
                        for i in loads)
        m["games.load.ms_per_trace"] = (
            1000 * ratio(load_self, len(sel("games.DatasetEntry.load"))), "ms")

        feats = sel("features.extract_features", "layers")
        for name in FEATURE_SETS:
            m[f"features.{name}.ms_per_trace"] = (
                mean_ms([s for s in feats if s.info["sets"] == [name]]), "ms")
        toks = sel("features.tokenize", "layers")
        m["features.tokenize.ms_per_trace"] = (mean_ms(toks), "ms")
        m["features.tokens_per_trace"] = (ratio(total(toks, "tokens"), len(toks)), "count")
        ngram = sel("features.ngram_hash_matrix", "layers")
        rows = total(ngram, "rows")
        m["features.ngram.ms_per_trace"] = (1000 * ratio(total(ngram), rows), "ms")
        m["features.ngram.nnz_per_trace"] = (ratio(total(ngram, "nnz"), rows), "count")

        fits = sel("analysis.train_logreg", "analyze")
        for kind in ("binary", "multinomial", "sparse"):
            m[f"analysis.fit.{kind}_s"] = (
                total([s for s in fits if s.info["kind"] == kind]), "s")
        m["analysis.fit.calls"] = (len(fits), "count")
        m["analysis.fit.iterations"] = (total(fits, "iterations"), "count")
        m["analysis.fit.grad_norm_max"] = (
            max((s.info["grad_norm"] for s in fits), default=0.0), "norm")
        m["analysis.fit.unconverged"] = (
            sum(s.info["grad_norm"] > UNCONVERGED_GRAD for s in fits), "count")
        m["analysis.score_s"] = (total(sel("analysis.LogRegModel.accuracy", "analyze")), "s")
        return m


def _runner(games, cfg):
    return (games.run_fingerprinting_game if cfg.game == "fingerprint"
            else games.run_distinguishing_game)


def collect_layers(wl, cfg_obj: dict, seed: int, dataset_dir, work) -> Layers:
    from leaklab import features, games, trace, workloads

    from checks import entries

    cfg = games.GameConfig.from_json(dict(cfg_obj, base_seed=seed))
    params = features.FeatureParams(**wl.feature_params)
    out = Layers()

    marks = []
    t0 = clock()
    _runner(games, cfg)(cfg, out_dir=work / "untraced", jobs=1,
                        progress=lambda done, total: marks.append(clock()))
    out.results.append(wl.analyze(games.LabeledDataset.load(dataset_dir)))
    out.untraced_s = clock() - t0
    out.trace_ms = [1000 * (b - a) for a, b in zip([t0] + marks, marks)]

    classes = [name for name in workloads.__all__
               if isinstance(getattr(workloads, name), type)
               and "__call__" in vars(getattr(workloads, name))]
    tracer = Tracer(_observers(classes))
    out.tracer = tracer
    tracer.install()
    try:
        tracer.phase = "generate"
        t0 = clock()
        _runner(games, cfg)(cfg, out_dir=work / "traced", jobs=1)
        tracer.phase = "analyze"
        out.results.append(wl.analyze(games.LabeledDataset.load(dataset_dir)))
        out.traced_s = clock() - t0

        tracer.phase = "layers"
        seqs = []
        for s, label, tr in entries(dataset_dir):
            out.rows.append((s, label, trace.write_trace(tr)))
            for name in FEATURE_SETS:
                features.extract_features(tr, [name], params)
            seqs.append(features.tokenize(tr).tokens)
        features.ngram_hash_matrix(seqs)
    finally:
        tracer.uninstall()
    return out
