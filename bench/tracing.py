"""Traced run: the workload's stages in one process, timed from outside.

Run as ``python bench/tracing.py SPEC.json``. The spec names the program's
``src`` directory, the output file, and the passes to make; each pass
``chdir``s into its own directory and calls ``normgp.cli.main`` once per
stage, with wrappers installed only for passes marked traced. Traced minus
untraced wall time is the tracing overhead; the benchmark runs an untraced
pass on each side of the traced one.

Wrappers are installed where a function is looked up, not where it is
defined: ``metrics`` binds its own ``fit``, ``predict`` and
``weighted_posterior_cov``, ``stats`` its own ``weighted_posterior_cov``,
and ``gpr`` its own ``gram_matrix``, so wrapping only the defining module
would miss the cross-validation refits and every Gram build. Each span
records its thread, because optimizer restarts run concurrently.

``layer_metrics`` turns the spans into the benchmark's per-layer metrics;
the benchmark imports it from here so the span names live in one file.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
import tracemalloc

# (module, attribute, span name): every lookup site the stages go through.
WRAP_SITES = (
    ("cli", "_write_json", "cli.write_json"),
    ("tabular_io", "load_cohort", "tabular_io.load_cohort"),
    ("tabular_io", "save_scores", "tabular_io.save_scores"),
    ("tabular_io", "load_scores", "tabular_io.load_scores"),
    ("tabular_io", "load_model", "tabular_io.load_model"),
    ("tabular_io", "save_model", "tabular_io.save_model"),
    ("tabular_io", "_atomic_write_text", "tabular_io.write"),
    ("gpr", "gram_matrix", "kernels.gram_matrix"),
    ("gpr", "fit", "gpr.fit"),
    ("metrics", "fit", "gpr.fit"),
    ("gpr", "stable_cholesky", "gpr.cholesky"),
    ("gpr", "restore", "gpr.restore"),
    ("metrics", "predict", "gpr.predict"),
    ("metrics", "weighted_posterior_cov", "gpr.weighted"),
    ("stats", "weighted_posterior_cov", "gpr.weighted"),
    ("metrics", "cross_validated_quality", "metrics.cv"),
    ("metrics", "score_cohort", "metrics.score_cohort"),
    ("metrics", "apply_chain", "preprocess.apply_chain"),
    ("stats", "apply_chain", "preprocess.apply_chain"),
    ("stats", "ly_sweep", "stats.ly_sweep"),
    ("stats", "roc_auc", "stats.roc_auc"),
    ("stats", "rank_sum_test", "stats.rank_sum"),
    ("stats", "evaluate_scores", "stats.evaluate_scores"),
)


def _gram_entries(args, kwargs, result):
    return {"entries": int(result.shape[0]) * int(result.shape[1])}


def _cholesky_jitter(args, kwargs, result):
    return {"jitter": float(result[1])}


def _optimizer_counts(args, kwargs, result):
    return {"nit": int(result.nit), "nfev": int(result.nfev), "success": bool(result.success)}


def _cohort_rows(args, kwargs, result):
    return {"rows": int(result.n_subjects)}


def _bytes_written(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


RESULT_FIELDS = {
    "kernels.gram_matrix": _gram_entries,
    "gpr.cholesky": _cholesky_jitter,
    "gpr.optimizer": _optimizer_counts,
    "tabular_io.load_cohort": _cohort_rows,
    "tabular_io.write": _bytes_written,
}
ALLOC_SPANS = {"gpr.weighted"}


class Tracer:
    """Collects spans from wrapped functions; spans stay in memory until the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[dict] = []
        self._installed: list[tuple] = []

    def _stack(self) -> list[dict]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name, call, *args, **kwargs):
        stack = self._stack()
        # A worker thread's outermost span was caused by whatever the main
        # thread had open when it handed the work over (the restart pool).
        cause = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": cause["id"] if cause else None,
            "thread": threading.get_ident(),
        }
        alloc = name in ALLOC_SPANS
        if alloc:
            tracemalloc.start()
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if alloc:
                record["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans.append(record)
        fields = RESULT_FIELDS.get(name)
        if fields is not None:
            record.update(fields(args, kwargs, result))
        return result

    def wrap(self, owner, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        setattr(owner, attribute, wrapper)
        self._installed.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every lookup site in ``WRAP_SITES`` plus the optimizer."""
        import scipy.optimize

        for module_name, attribute, name in WRAP_SITES:
            self.wrap(importlib.import_module(f"normgp.{module_name}"), attribute, name)
        # gpr calls ``optimize.minimize`` through the scipy.optimize module object.
        self.wrap(scipy.optimize, "minimize", "gpr.optimizer")

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)


def run_passes(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from normgp import cli

    tracer = Tracer()
    passes = []
    for stage_pass in spec["passes"]:
        if stage_pass["traced"]:
            tracer.install()
        os.chdir(stage_pass["dir"])
        stages = []
        for name, argv in stage_pass["stages"]:
            start = time.perf_counter()
            if stage_pass["traced"]:
                code = tracer.span(f"stage.{name}", cli.main, argv)
            else:
                code = cli.main(argv)
            stages.append({"name": name, "code": code, "seconds": time.perf_counter() - start})
            if code != 0:
                break
        tracer.uninstall()
        passes.append({"traced": stage_pass["traced"], "stages": stages})
    return {"passes": passes, "spans": tracer.spans}


def _sum(spans, key="duration"):
    return float(sum(span[key] for span in spans))


def layer_metrics(spans: list[dict], passes: list[dict], import_s: float) -> dict:
    """Per-layer metrics, ``{name: (value, unit)}``, from the traced pass."""
    for span in spans:
        span["duration"] = span["end"] - span["start"]
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    optimizer = named("gpr.optimizer")
    lml_evals = sum(span["nfev"] for span in optimizer)
    weighted = named("gpr.weighted")
    weighted_ids = {span["id"] for span in weighted}
    weighted_children = [span for span in spans if span["parent"] in weighted_ids]
    fit_stage = _sum(named("stage.fit"))
    sweep_ids = {span["id"] for span in named("stats.ly_sweep")}
    points = sorted((s for s in weighted if s["parent"] in sweep_ids), key=lambda s: s["start"])
    rocs = sorted((s for s in named("stats.roc_auc") if s["parent"] in sweep_ids),
                  key=lambda s: s["start"])
    point_s = [w["duration"] + r["duration"] for w, r in zip(points, rocs)]
    totals = {False: [], True: []}
    for stage_pass in passes:
        totals[stage_pass["traced"]].append(sum(s["seconds"] for s in stage_pass["stages"]))
    untraced, traced = statistics.mean(totals[False]), statistics.mean(totals[True])
    seconds = {
        "cli.write_json_s": "cli.write_json",
        "tabular_io.load_cohort_s": "tabular_io.load_cohort",
        "tabular_io.save_scores_s": "tabular_io.save_scores",
        "tabular_io.load_scores_s": "tabular_io.load_scores",
        "tabular_io.load_model_s": "tabular_io.load_model",
        "tabular_io.save_model_s": "tabular_io.save_model",
        "kernels.gram_s": "kernels.gram_matrix",
        "gpr.optimizer_busy_s": "gpr.optimizer",
        "gpr.cholesky_s": "gpr.cholesky",
        "gpr.restore_s": "gpr.restore",
        "gpr.predict_s": "gpr.predict",
        "gpr.weighted_s": "gpr.weighted",
        "metrics.cv_s": "metrics.cv",
        "metrics.score_cohort_s": "metrics.score_cohort",
        "stats.ly_sweep_s": "stats.ly_sweep",
        "stats.roc_auc_s": "stats.roc_auc",
        "stats.rank_sum_s": "stats.rank_sum",
        "stats.evaluate_scores_s": "stats.evaluate_scores",
        "preprocess.apply_s": "preprocess.apply_chain",
    }
    metrics = {name: (_sum(named(span)), "s") for name, span in seconds.items()}
    metrics.update({
        "cli.import_s": (import_s, "s"),
        "tabular_io.load_cohort_rows": (_sum(named("tabular_io.load_cohort"), "rows"), "count"),
        "tabular_io.bytes_written": (_sum(named("tabular_io.write"), "bytes"), "bytes"),
        "kernels.gram_calls": (len(named("kernels.gram_matrix")), "count"),
        "kernels.gram_entries": (_sum(named("kernels.gram_matrix"), "entries"), "count"),
        "gpr.fit_calls": (len(named("gpr.fit")), "count"),
        "gpr.optimizer_runs": (len(optimizer), "count"),
        "gpr.optimizer_failed": (sum(not s["success"] for s in optimizer), "count"),
        "gpr.optimizer_iters": (sum(s["nit"] for s in optimizer), "count"),
        "gpr.lml_evals": (lml_evals, "count"),
        "gpr.lml_eval_ms": (
            1000.0 * _sum(optimizer) / lml_evals if lml_evals else 0.0, "ms"
        ),
        "gpr.cholesky_calls": (len(named("gpr.cholesky")), "count"),
        "gpr.cholesky_jittered": (sum(s["jitter"] > 0 for s in named("gpr.cholesky")), "count"),
        "gpr.weighted_calls": (len(weighted), "count"),
        "gpr.weighted_self_s": (_sum(weighted) - _sum(weighted_children), "s"),
        "gpr.weighted_alloc_peak_mb": (
            max((s["alloc_peak"] for s in weighted), default=0) / 2**20, "MB"
        ),
        "metrics.cv_share": (
            _sum(named("metrics.cv")) / fit_stage if fit_stage else 0.0, "ratio"
        ),
        "stats.sweep_point_s": (statistics.median(point_s) if point_s else 0.0, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_share": ((traced - untraced) / untraced if untraced else 0.0, "ratio"),
    })
    return metrics


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run_passes(spec)
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
