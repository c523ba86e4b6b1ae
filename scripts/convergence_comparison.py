"""Compare convergence speed of noise distributions on clustered data.

Trains one linear model per noise kind (uniform, frequency, adversarial)
on synthetic hierarchically clustered data and writes per-method learning
curves plus a summary of steps-to-90%-of-final validation accuracy. The
acceptance tests (criteria 6 and 7) run ``compare_noises`` with the same
defaults.

Usage:
    python scripts/convergence_comparison.py --out runs/convergence [--seed 0]
"""

import argparse
import csv
import json
from pathlib import Path

from advsamp.aux_tree import fit_tree
from advsamp.data_io import apply_pca_matrix, fit_pca, split
from advsamp.linear_model import LinearClassifier
from advsamp.noise import make_noise
from advsamp.synthetic import hierarchical_clusters
from advsamp.training import TrainConfig, train

NOISES = ("uniform", "frequency", "adversarial")


def steps_to_fraction(metrics, fraction):
    accs = [(m["steps"], m["val_acc"]) for m in metrics if m["val_acc"] != ""]
    final = accs[-1][1]
    return next(s for s, a in accs if a >= fraction * final), final


def compare_noises(*, seed, clusters, labels_per_cluster, n, noise_scale,
                   zipf_exponent, pca_k, epochs, learning_rate, noises=NOISES):
    """Generate clustered data, hold out 10% for validation, fit the PCA and
    the auxiliary tree on the rest, then train one model per noise kind,
    with validation every 3,000 steps.

    Returns the validation set and, per noise name, a dict with the trained
    ``model``, its ``noise`` and the ``TrainResult`` as ``result``.
    """
    dataset = hierarchical_clusters(clusters, labels_per_cluster, n, seed,
                                    noise_scale=noise_scale,
                                    zipf_exponent=zipf_exponent)
    train_set, val_set = split(dataset, 0.1, seed)
    proj = fit_pca(train_set, pca_k, seed=seed)
    tree = fit_tree(apply_pca_matrix(proj, train_set),
                    train_set.labels, train_set.num_labels)
    kwargs = {
        "uniform": {"num_labels": train_set.num_labels},
        "frequency": {"label_counts": train_set.label_counts},
        "adversarial": {"tree": tree, "projection": proj},
    }
    runs = {}
    for name in noises:
        noise = make_noise(name, **kwargs[name])
        model = LinearClassifier(train_set.num_labels, train_set.num_features)
        cfg = TrainConfig(method="neg_sampling", learning_rate=learning_rate,
                          epochs=epochs, seed=seed, log_every=3000,
                          eval_at_log=True)
        result = train(train_set, cfg, model, noise, val_set)
        runs[name] = {"model": model, "noise": noise, "result": result}
    return val_set, runs


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=6)
    ap.add_argument("--clusters", type=int, default=16)
    ap.add_argument("--labels-per-cluster", type=int, default=16)
    ap.add_argument("--n", type=int, default=50_000)
    ap.add_argument("--noise-scale", type=float, default=0.4)
    ap.add_argument("--zipf-exponent", type=float, default=1.0)
    ap.add_argument("--learning-rate", type=float, default=0.1)
    ap.add_argument("--pca-k", type=int, default=8)
    args = vars(ap.parse_args(argv))  # the other flags are compare_noises' keywords

    out = Path(args.pop("out"))
    out.mkdir(parents=True, exist_ok=True)
    _, runs = compare_noises(**args)

    summary = {}
    for name, run in runs.items():
        run["result"].write_metrics_csv(out / f"curve_{name}.csv")
        steps90, final = steps_to_fraction(run["result"].metrics, 0.9)
        summary[name] = {"steps_to_90pct": steps90, "final_val_acc": final}
        print(f"{name}: final val acc {final:.4f}, 90% reached at step {steps90}")

    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["noise", "steps_to_90pct", "final_val_acc"])
        for name, row in summary.items():
            w.writerow([name, row["steps_to_90pct"], row["final_val_acc"]])


if __name__ == "__main__":
    main()
