"""EURLex-4K benchmark runner.

Expects a directory with train.txt and test.txt in svmlight format
(multi-label, one-based feature indices). Reduces to single-label via the
smallest-ID policy, holds out 10% for validation, projects to 512 PCA
dimensions for the auxiliary model, and trains with the tuned settings:
full softmax (rho 0.3, lambda 3e-4) or negative sampling
(rho 3e-3, lambda 3e-4). The acceptance test (criterion 8) runs the
argv lists of ``pipeline_argvs``.

Usage:
    python scripts/run_eurlex.py --data DIR --out runs/eurlex \
        [--method softmax_full|neg_sampling] [--noise uniform|frequency|adversarial]
"""

import argparse
from pathlib import Path

from advsamp.cli import main as cli_main


def pipeline_argvs(data, out, method, noise, epochs=10, seed=0):
    """The CLI argv of each pipeline command, in the order they run."""
    data = Path(data)
    rho = 0.3 if method == "softmax_full" else 3e-3
    sets = [
        f"seed={seed}",
        f"train_path={data / 'train.txt'}",
        f"test_path={data / 'test.txt'}",
        "one_based=true",
        "multilabel_policy=smallest_id",
        "validation_fraction=0.1",
        "feature_pca_k=512",
        "pca_k=16",
        f"method={method}",
        f"noise={noise}",
        f"learning_rate={rho}",
        "regularizer=3e-4",
        f"epochs={epochs}",
    ]
    commands = ["preprocess"]
    if method == "neg_sampling" and noise == "adversarial":
        commands.append("fit-aux")
    commands += ["train", "eval"]
    return [[command, "--out", str(out), *sum((["--set", s] for s in sets), [])]
            for command in commands]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--data", required=True, help="directory with train.txt/test.txt")
    ap.add_argument("--out", required=True)
    ap.add_argument("--method", default="neg_sampling",
                    choices=["softmax_full", "neg_sampling"])
    ap.add_argument("--noise", default="uniform",
                    choices=["uniform", "frequency", "adversarial"])
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    for cli_argv in pipeline_argvs(args.data, args.out, args.method, args.noise,
                                   args.epochs, args.seed):
        code = cli_main(cli_argv)
        if code != 0:
            raise SystemExit(code)


if __name__ == "__main__":
    main()
