"""Smoke runs of the experiment scripts in ``scripts/`` on tiny inputs."""

import json

import numpy as np

from conftest import load_script


def test_convergence_comparison(tmp_path):
    script = load_script("convergence_comparison")
    script.main(["--out", str(tmp_path), "--n", "2000", "--clusters", "2",
                 "--labels-per-cluster", "2", "--epochs", "1", "--pca-k", "2"])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary) == ["uniform", "frequency", "adversarial"]
    for name, row in summary.items():
        assert 0.0 < row["final_val_acc"] <= 1.0
        assert row["steps_to_90pct"] > 0
        assert (tmp_path / f"curve_{name}.csv").read_text().startswith("epoch,steps,")
    assert (tmp_path / "summary.csv").read_text().splitlines()[0] == (
        "noise,steps_to_90pct,final_val_acc")


def write_one_based(path, n, C, K, seed):
    """Multi-label svmlight rows over K one-based features; every row holds
    feature K, so the file spans all K columns."""
    centers = np.random.default_rng(99).standard_normal((C, K))
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        y = int(rng.integers(C))
        cols = np.union1d(rng.choice(K - 1, size=24, replace=False), [K - 1])
        vals = centers[y, cols] + 0.3 * rng.standard_normal(cols.size)
        feats = " ".join(f"{j + 1}:{v:.4f}" for j, v in zip(cols, vals))
        lines.append(f"{y},{int(rng.integers(C))} {feats}")
    path.write_text("\n".join(lines) + "\n")


def test_run_eurlex(tmp_path):
    # feature_pca_k=512 needs more than 512 feature columns
    write_one_based(tmp_path / "train.txt", 600, 8, 520, seed=0)
    write_one_based(tmp_path / "test.txt", 100, 8, 520, seed=1)
    out = tmp_path / "run"
    load_script("run_eurlex").main(["--data", str(tmp_path), "--out", str(out),
                                    "--noise", "adversarial", "--epochs", "1"])
    for command in ("preprocess", "fit-aux", "train", "eval"):
        manifest = json.loads((out / f"manifest-{command}.json").read_text())
        assert manifest["seed"] == 0
    trained = json.loads((out / "manifest-train.json").read_text())
    assert (trained["method"], trained["noise"]) == ("neg_sampling", "adversarial")
    report = json.loads((out / "eval.json").read_text())
    assert report["split"] == "test" and 0.0 <= report["accuracy"] <= 1.0
