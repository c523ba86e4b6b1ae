"""Command-line pipeline: preprocess, fit-aux, train, eval, diagnose.

All artifacts land under ``--out DIR`` together with per-command records:
the effective config ``config_used-<command>.cfg`` and a manifest
``manifest-<command>.json`` (inputs, outputs, seed, version, wall clock).
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure,
4 no compiled kernel (no C compiler, or its build failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .aux_tree import AuxiliaryTree, fit_tree
from .config import ExperimentConfig, load_config
from .data_io import (
    SparseDataset,
    apply_pca_matrix,
    fit_pca,
    load_dataset,
    load_pca,
    load_svmlight,
    reduce_multilabel,
    save_dataset,
    save_pca,
    split,
)
from .diagnostics import (
    NonparametricProblem,
    random_noise_tables,
    snr,
    snr_sweep,
)
from .errors import AdvsampError, DataError, KernelError, NumericError, ParseError
from .inference import PredictionConfig, evaluate
from .linear_model import LinearClassifier
from .noise import make_noise
from .training import TrainConfig, train


class _Manifest:
    def __init__(self, out_dir: Path, command: str, cfg: ExperimentConfig):
        self.data = {
            "command": command,
            "version": __version__,
            "seed": cfg.seed,
            "inputs": [],
            "outputs": [],
            "wall_clock_s": None,
        }
        self.path = out_dir / f"manifest-{command}.json"
        self.start = time.perf_counter()

    def add_input(self, path):
        self.data["inputs"].append(str(path))

    def add_output(self, path):
        self.data["outputs"].append(str(path))

    def write(self, extra=None):
        self.data["wall_clock_s"] = time.perf_counter() - self.start
        if extra:
            self.data.update(extra)
        self.path.write_text(json.dumps(self.data, indent=2) + "\n")


def _prepare(args, command):
    cfg = load_config(args.config, args.set)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.to_file(out_dir / f"config_used-{command}.cfg")
    return cfg, out_dir, _Manifest(out_dir, command, cfg)


def _project_dataset(proj, dataset):
    return SparseDataset.from_dense(apply_pca_matrix(proj, dataset), dataset.labels,
                                    dataset.num_labels)


def cmd_preprocess(args) -> int:
    cfg, out, manifest = _prepare(args, "preprocess")
    if not cfg.train_path:
        raise DataError("preprocess needs train_path")
    manifest.add_input(cfg.train_path)
    start = time.perf_counter()
    raw = load_svmlight(cfg.train_path, one_based=cfg.one_based)
    parse_s = time.perf_counter() - start
    full, label_map = reduce_multilabel(raw, cfg.multilabel_policy, return_map=True)
    train_set, val_set = split(full, cfg.validation_fraction, cfg.seed)
    feature_proj = None
    if cfg.feature_pca_k > 0:
        # project the model inputs themselves (paper-scale runs)
        feature_proj = fit_pca(train_set, cfg.feature_pca_k, seed=cfg.seed)
        train_set = _project_dataset(feature_proj, train_set)
        val_set = _project_dataset(feature_proj, val_set)
        save_pca(out / "feature_pca.npz", feature_proj)
        manifest.add_output(out / "feature_pca.npz")
    proj = fit_pca(train_set, cfg.pca_k, seed=cfg.seed)
    for name, obj in (("train.npz", train_set), ("val.npz", val_set)):
        save_dataset(out / name, obj)
        manifest.add_output(out / name)
    save_pca(out / "pca.npz", proj)
    manifest.add_output(out / "pca.npz")
    summary = {
        "num_train": train_set.num_examples,
        "num_val": val_set.num_examples,
        "num_features": train_set.num_features,
        "num_labels": train_set.num_labels,
    }
    if cfg.test_path:
        manifest.add_input(cfg.test_path)
        start = time.perf_counter()
        raw_test = load_svmlight(cfg.test_path, one_based=cfg.one_based)
        parse_s += time.perf_counter() - start
        # test labels must live in the training label space
        test_set = reduce_multilabel(raw_test, cfg.multilabel_policy,
                                     label_map=label_map,
                                     num_features=full.num_features)
        if test_set.num_features != full.num_features:
            raise DataError("test/train feature spaces disagree")
        if feature_proj is not None:
            test_set = _project_dataset(feature_proj, test_set)
        save_dataset(out / "test.npz", test_set)
        manifest.add_output(out / "test.npz")
        # rows without a label, or whose label never occurs in training,
        # leave the test set and so the accuracy denominator
        summary["test_rows_dropped"] = raw_test.num_examples - test_set.num_examples
    summary["parse_s"] = parse_s
    manifest.write(summary)
    line = (f"preprocess: N={train_set.num_examples} K={train_set.num_features} "
            f"C={train_set.num_labels}")
    if cfg.test_path:
        line += f" test_rows_dropped={summary['test_rows_dropped']}"
    print(line)
    return 0


def cmd_fit_aux(args) -> int:
    cfg, out, manifest = _prepare(args, "fit-aux")
    train_set = load_dataset(out / "train.npz")
    proj = load_pca(out / "pca.npz")
    manifest.add_input(out / "train.npz")
    manifest.add_input(out / "pca.npz")
    t0 = time.perf_counter()
    reduced = apply_pca_matrix(proj, train_set)
    tree = fit_tree(reduced, train_set.labels, train_set.num_labels,
                    cfg.tree_regularizer)
    fit_seconds = time.perf_counter() - t0
    tree.save(out / "tree.npz")
    manifest.add_output(out / "tree.npz")
    # the Newton steps, alternation rounds and the nodes stopped by a
    # guard, for a run directory to show how the fit went
    manifest.write({"aux_fit_wall_clock_s": fit_seconds, **tree.fit_report})
    print(f"fit-aux: depth={tree.depth} padded={tree.padded_size} "
          f"wall_clock_s={fit_seconds:.3f}")
    return 0


def _build_noise(cfg, out, num_labels, train_set=None):
    """The configured noise over ``num_labels`` labels. Only frequency noise
    reads the training set, for its label counts: ``train_set``, or else
    ``train.npz`` in ``out``; adversarial noise reads ``tree.npz`` and
    ``pca.npz``."""
    if cfg.noise == "uniform":
        return make_noise("uniform", num_labels=num_labels)
    if cfg.noise == "frequency":
        if train_set is None:
            train_set = load_dataset(out / "train.npz")
        return make_noise("frequency", label_counts=train_set.label_counts,
                          smoothing=cfg.frequency_smoothing)
    if cfg.noise == "adversarial":
        tree = AuxiliaryTree.load(out / "tree.npz")
        proj = load_pca(out / "pca.npz")
        return make_noise("adversarial", tree=tree, projection=proj)


def _read_manifest(out, command) -> dict:
    """The manifest an earlier ``command`` wrote into ``out``; {} if none."""
    path = out / f"manifest-{command}.json"
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


def cmd_train(args) -> int:
    cfg, out, manifest = _prepare(args, "train")
    train_set = load_dataset(out / "train.npz")
    val_set = load_dataset(out / "val.npz") if (out / "val.npz").exists() else None
    manifest.add_input(out / "train.npz")
    offset = 0.0
    noise = None
    if cfg.method == "neg_sampling":
        noise = _build_noise(cfg, out, train_set.num_labels, train_set)
        if cfg.noise == "adversarial":
            offset = float(_read_manifest(out, "fit-aux").get("aux_fit_wall_clock_s", 0.0))
    tconf = TrainConfig(
        method=cfg.method,
        learning_rate=cfg.learning_rate,
        regularizer=cfg.regularizer,
        epochs=cfg.epochs,
        seed=cfg.seed,
        negatives_per_positive=cfg.negatives_per_positive,
        bias_removal_at_eval=cfg.bias_removal,
        log_every=cfg.log_every,
        eval_at_log=cfg.eval_at_log,
    )
    model = LinearClassifier(train_set.num_labels, train_set.num_features)
    result = train(train_set, tconf, model, noise, val_set)
    model.save(out / "model.npz")
    result.write_metrics_csv(out / "metrics.csv", wall_clock_offset_s=offset)
    manifest.add_output(out / "model.npz")
    manifest.add_output(out / "metrics.csv")
    manifest.write({"method": cfg.method, "noise": cfg.noise,
                    "train_steps_per_s": result.steps_per_s})
    last = result.metrics[-1] if result.metrics else {}
    print(f"train: method={cfg.method} noise={cfg.noise} "
          f"final_train_loss={last.get('train_loss', float('nan')):.4f}")
    return 0


def cmd_eval(args) -> int:
    cfg, out, manifest = _prepare(args, "eval")
    trained = _read_manifest(out, "train")
    for key in ("method", "noise"):
        if key in trained and trained[key] != getattr(cfg, key):
            raise DataError(f"model.npz was trained with {key}={trained[key]}, "
                            f"not {key}={getattr(cfg, key)}")
    name = "test.npz" if cfg.eval_split == "test" else "val.npz"
    dataset = load_dataset(out / name)
    model = LinearClassifier.load(out / "model.npz")
    manifest.add_input(out / name)
    manifest.add_input(out / "model.npz")
    noise = None
    if cfg.method == "neg_sampling":
        noise = _build_noise(cfg, out, model.num_labels)
    pconf = PredictionConfig(bias_removal=cfg.bias_removal)
    report = evaluate(model, noise, dataset, pconf)
    payload = {"split": cfg.eval_split, **report.to_dict()}
    (out / "eval.json").write_text(json.dumps(payload, indent=2) + "\n")
    manifest.add_output(out / "eval.json")
    manifest.write(payload)
    print(f"eval[{cfg.eval_split}]: accuracy={report.accuracy:.4f} "
          f"log_lik={report.log_likelihood:.4f}")
    return 0


def cmd_diagnose(args) -> int:
    cfg, out, manifest = _prepare(args, "diagnose")
    rng = np.random.default_rng(cfg.seed)
    p_data = rng.dirichlet(np.ones(cfg.diag_labels), size=cfg.diag_contexts)
    p_data = np.clip(p_data, 1e-9, None)
    p_data /= p_data.sum(axis=1, keepdims=True)

    problem = NonparametricProblem(p_data, p_data, cfg.diag_n_scale)
    report = snr(problem)
    (out / "snr_report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    manifest.add_output(out / "snr_report.json")

    candidates = random_noise_tables(cfg.diag_contexts, cfg.diag_labels,
                                     cfg.diag_sweep, rng)
    etas = snr_sweep(p_data, candidates, cfg.diag_n_scale)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["candidate", "eta_bar"])
        writer.writerow(["adversarial(p_data)", report.eta_bar])
        writer.writerows(enumerate(etas))
    manifest.add_output(out / "sweep.csv")
    manifest.write({"eta_bar_adversarial": report.eta_bar,
                    "eta_bar_sweep_max": max(etas)})
    print(f"diagnose: eta_bar(adversarial)={report.eta_bar:.6g} "
          f"sweep_max={max(etas):.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advsamp")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("preprocess", cmd_preprocess),
        ("fit-aux", cmd_fit_aux),
        ("train", cmd_train),
        ("eval", cmd_eval),
        ("diagnose", cmd_diagnose),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ParseError, DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except KernelError as exc:
        print(f"compiled kernel unavailable: {exc}", file=sys.stderr)
        return 4
    except AdvsampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
