"""Span recording around the program's public calls, installed from outside.

``Tracer.install`` replaces every name the CLI calls through with a wrapper
that records a span (name, start, end, parent span, run id) and a few counts
taken at the call. Spans stay in memory until the run ends. ``uninstall``
puts the original objects back, so checks that run after the pipeline are
not traced.

Layer names are the package's module names; a span name is
``<layer>.<call>``. ``per_layer`` turns one run's spans into the per-layer
metrics: busy seconds per call, self seconds per layer (span time not
covered by child spans) and the counts.
"""

from __future__ import annotations

import time
import tracemalloc
import warnings
from pathlib import Path

LAYERS = ("data_io", "aux_tree", "noise", "linear_model", "training",
          "inference", "diagnostics", "cli")

# Count and time metrics read straight from the spans: metric name -> span name.
BUSY = {
    "data_io.load_svmlight.s": "data_io.load_svmlight",
    "data_io.reduce_multilabel.s": "data_io.reduce_multilabel",
    "data_io.split.s": "data_io.split",
    "data_io.fit_pca.s": "data_io.fit_pca",
    "data_io.apply_pca_matrix.s": "data_io.apply_pca_matrix",
    "data_io.npz_io.s": "data_io.npz_io",
    "aux_tree.fit_tree.s": "aux_tree.fit_tree",
    "aux_tree.sample_batch.s": "aux_tree.sample_batch",
    "aux_tree.log_prob_pairs.s": "aux_tree.log_prob_pairs",
    "aux_tree.log_prob_all.s": "aux_tree.log_prob_all",
    "aux_tree.io.s": "aux_tree.io",
    "noise.log_prob_matrix.s": "noise.log_prob_matrix",
    "training.train.s": "training.train",
    "inference.evaluate.s": "inference.evaluate",
    "linear_model.io.s": "linear_model.io",
    "diagnostics.snr_sweep.s": "diagnostics.snr_sweep",
    "cli.preprocess.s": "cli.preprocess",
    "cli.fit-aux.s": "cli.fit-aux",
    "cli.train.s": "cli.train",
    "cli.eval.s": "cli.eval",
    "cli.diagnose.s": "cli.diagnose",
}
COUNTS = {
    "data_io.reduce_multilabel.test_rows_dropped": ("data_io.reduce_multilabel", "test_rows_dropped"),
    "data_io.fit_pca.nonconverged": ("data_io.fit_pca", "nonconverged"),
    "aux_tree.fit_tree.warnings": ("aux_tree.fit_tree", "warnings"),
    "aux_tree.sample_batch.rows": ("aux_tree.sample_batch", "rows"),
    "aux_tree.log_prob_pairs.rows": ("aux_tree.log_prob_pairs", "rows"),
    "aux_tree.log_prob_all.cells": ("aux_tree.log_prob_all", "cells"),
    "training.steps": ("training.train", "steps"),
    "inference.evaluate.rows": ("inference.evaluate", "rows"),
    "inference.evaluate.cells": ("inference.evaluate", "cells"),
    "diagnostics.snr_sweep.tables": ("diagnostics.snr_sweep", "tables"),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; returns ``(result, span)``."""
        record = {"id": len(self.spans), "name": name, "run": self.run_id,
                  "parent": self._stack[-1] if self._stack else None, "attrs": {}}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs), record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn, count=None):
        def traced(*args, **kwargs):
            result, record = self.span(name, fn, *args, **kwargs)
            if count is not None:
                record["attrs"].update(count(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr, name, count=None, wrap=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original.__func__ if isinstance(original, classmethod) else original
        traced = (wrap or self._wrapper)(name, fn, count)
        setattr(owner, attr, classmethod(traced) if isinstance(original, classmethod) else traced)
        self._patched.append((owner, attr, original))

    def _warning_counter(self, name, fn, attr, pattern):
        """Wrapper that counts warnings matching ``pattern`` into ``attr`` and
        re-emits them."""
        def traced(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result, record = self.span(name, fn, *args, **kwargs)
            record["attrs"][attr] = sum(pattern in str(w.message) for w in caught)
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            return result

        return traced

    def _evaluate_wrapper(self, name, fn):
        """Peak traced memory of ``evaluate``; tracemalloc runs only inside it."""
        def traced(model, noise, dataset, cfg):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                result, record = self.span(name, fn, model, noise, dataset, cfg)
                record["attrs"]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                if started:
                    tracemalloc.stop()
            record["attrs"]["rows"] = dataset.num_examples
            record["attrs"]["cells"] = dataset.num_examples * model.num_labels
            return result

        return traced

    def install(self):
        import advsamp.cli as cli
        import advsamp.data_io as data_io
        import advsamp.noise as noise
        import advsamp.training as training
        from advsamp.aux_tree import AuxiliaryTree
        from advsamp.linear_model import LinearClassifier
        from advsamp.noise import AdversarialNoise

        def dropped(args, kwargs, result):
            if kwargs.get("label_map") is None:
                return {}
            return {"test_rows_dropped": len(args[0].examples) - result.num_examples}

        def nrows(args, kwargs, result):
            return {"rows": len(args[1])}

        pca = lambda n, f, c: self._warning_counter(n, f, "nonconverged", "did not converge")  # noqa: E731
        tree = lambda n, f, c: self._warning_counter(n, f, "warnings", "")  # noqa: E731
        apply = self._wrapper("data_io.apply_pca_matrix", data_io.apply_pca_matrix)
        for owner in (cli, noise, data_io):
            self._patched.append((owner, "apply_pca_matrix", getattr(owner, "apply_pca_matrix")))
            setattr(owner, "apply_pca_matrix", apply)
        evaluate = self._evaluate_wrapper("inference.evaluate", cli.evaluate)
        for owner in (cli, training):
            self._patched.append((owner, "evaluate", getattr(owner, "evaluate")))
            setattr(owner, "evaluate", evaluate)

        targets = [
            (cli, "load_svmlight", "data_io.load_svmlight",
             lambda a, k, r: {"bytes": Path(a[0]).stat().st_size}),
            (cli, "reduce_multilabel", "data_io.reduce_multilabel", dropped),
            (cli, "split", "data_io.split", None),
            (cli, "save_dataset", "data_io.npz_io", None),
            (cli, "load_dataset", "data_io.npz_io", None),
            (cli, "save_pca", "data_io.npz_io", None),
            (cli, "load_pca", "data_io.npz_io", None),
            (cli, "make_noise", "noise.make_noise", None),
            (cli, "train", "training.train",
             lambda a, k, r: {"steps": a[0].num_examples * a[1].epochs}),
            (cli, "snr", "diagnostics.snr", None),
            (cli, "random_noise_tables", "diagnostics.random_noise_tables", None),
            (cli, "snr_sweep", "diagnostics.snr_sweep", lambda a, k, r: {"tables": len(a[1])}),
            (AuxiliaryTree, "sample_batch", "aux_tree.sample_batch", nrows),
            (AuxiliaryTree, "log_prob_pairs", "aux_tree.log_prob_pairs", nrows),
            (AuxiliaryTree, "log_prob_all", "aux_tree.log_prob_all",
             lambda a, k, r: {"cells": r.size}),
            (AuxiliaryTree, "save", "aux_tree.io", None),
            (AuxiliaryTree, "load", "aux_tree.io", None),
            (AdversarialNoise, "log_prob_matrix", "noise.log_prob_matrix", None),
            (LinearClassifier, "save", "linear_model.io", None),
            (LinearClassifier, "load", "linear_model.io", None),
        ]
        for owner, attr, name, count in targets:
            self._patch(owner, attr, name, count)
        self._patch(cli, "fit_pca", "data_io.fit_pca", wrap=pca)
        self._patch(cli, "fit_tree", "aux_tree.fit_tree", wrap=tree)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def per_layer(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced run (see the module docstring)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {m: 0.0 for m in BUSY}
    out.update({m: 0 for m in COUNTS})
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    out["training.train.self_s"] = 0.0
    out["training.val_evals"] = 0
    out["training.val_eval_s"] = 0.0
    out["inference.evaluate.peak_mb"] = 0.0
    load_bytes = 0
    names = {v: k for k, v in BUSY.items()}
    for s, child in zip(spans, child_time):
        dur = s["end"] - s["start"]
        layer = s["name"].split(".", 1)[0]
        out[f"{layer}.self_s"] += dur - child
        if s["name"] in names:
            out[names[s["name"]]] += dur
        for metric, (name, attr) in COUNTS.items():
            if s["name"] == name:
                out[metric] += s["attrs"].get(attr, 0)
        if s["name"] == "training.train":
            out["training.train.self_s"] += dur - child
        if s["name"] == "inference.evaluate":
            out["inference.evaluate.peak_mb"] = max(out["inference.evaluate.peak_mb"],
                                                    s["attrs"]["peak_mb"])
            if s["parent"] is not None and spans[s["parent"]]["name"] == "training.train":
                out["training.val_evals"] += 1
                out["training.val_eval_s"] += dur
        if s["name"] == "data_io.load_svmlight":
            load_bytes += s["attrs"]["bytes"]
    load_s = out["data_io.load_svmlight.s"]
    out["data_io.load_svmlight.mb_per_s"] = load_bytes / 2**20 / load_s if load_s else 0.0
    self_s = out["training.train.self_s"]
    out["training.steps_per_s"] = out["training.steps"] / self_s if self_s else 0.0
    return out
