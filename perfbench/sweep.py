"""Label-count sweep of the per-row costs the paper's complexity claim is about.

Usage, from the repository root (takes about 20 s on 2 cores):

    python3 perfbench/sweep.py

Not a gated workload: it prints a table for people to read and writes the
same figures to ``perfbench/work/sweep.json``. At fixed K and nonzeros per
row it times the public calls for C = 2^8 ... 2^14:

- ``AuxiliaryTree.sample_batch`` and ``log_prob_pairs`` per row, expected to
  grow like log2 C;
- one negative-sampling ``train`` step (adversarial noise, m = 1), expected
  to stay flat in C;
- one ``softmax_full`` ``train`` step, expected to grow linearly in C.

Trees have random node parameters (fitting one at C = 2^14 takes minutes
and does not change the cost of a call). Each figure is the median of
``REPEATS`` timings.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
LOG2C = range(8, 15)  # C = 256 ... 16384
SEED = 0
K = 256  # features
NNZ = 16  # nonzeros per row
REDUCED = 16  # tree input dimension
ROWS = 4096  # rows for the tree calls
NS_ROWS = 2000  # negative-sampling steps per timing
SOFTMAX_WORK = 2**19  # softmax steps per timing = SOFTMAX_WORK / C, at least 32
REPEATS = 3


def _timed(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _dataset(rng, n: int, C: int):
    from advsamp.data_io import SparseDataset

    indices = np.sort(np.argsort(rng.random((n, K)), axis=1)[:, :NNZ], axis=1)
    indptr = np.arange(n + 1) * NNZ
    X = sp.csr_matrix((rng.standard_normal(n * NNZ) / np.sqrt(NNZ), indices.ravel(), indptr),
                      shape=(n, K))
    return SparseDataset(X, rng.integers(C, size=n), C)


def measure(log2c: int) -> dict:
    from advsamp.aux_tree import AuxiliaryTree
    from advsamp.data_io import PcaProjection
    from advsamp.linear_model import LinearClassifier
    from advsamp.noise import AdversarialNoise
    from advsamp.training import TrainConfig, train

    C = 1 << log2c
    rng = np.random.default_rng([SEED, log2c])
    tree = AuxiliaryTree(0.5 * rng.standard_normal((C - 1, REDUCED)), rng.standard_normal(C - 1),
                         rng.permutation(C), C, log2c)
    Xr = rng.standard_normal((ROWS, REDUCED))
    ys = rng.integers(C, size=ROWS)
    sample_s = _timed(lambda: tree.sample_batch(Xr, rng))
    pairs_s = _timed(lambda: tree.log_prob_pairs(Xr, ys))

    components = np.linalg.qr(rng.standard_normal((K, REDUCED)))[0].T
    noise = AdversarialNoise(tree, PcaProjection(np.zeros(K), components))
    ns_data = _dataset(rng, NS_ROWS, C)
    ns_cfg = TrainConfig("neg_sampling", learning_rate=0.1, log_every=0, seed=SEED)
    ns_s = _timed(lambda: train(ns_data, ns_cfg, LinearClassifier(C, K), noise))

    sm_rows = max(32, SOFTMAX_WORK // C)
    sm_data = _dataset(rng, sm_rows, C)
    sm_cfg = TrainConfig("softmax_full", learning_rate=0.1, log_every=0, seed=SEED)
    sm_s = _timed(lambda: train(sm_data, sm_cfg, LinearClassifier(C, K)))
    return {
        "C": C, "log2_C": log2c,
        "sample_batch_us_per_row": 1e6 * sample_s / ROWS,
        "log_prob_pairs_us_per_row": 1e6 * pairs_s / ROWS,
        "neg_sampling_step_us": 1e6 * ns_s / NS_ROWS,
        "softmax_step_us": 1e6 * sm_s / sm_rows,
    }


def main() -> int:
    src = HERE.parent / "src"
    if not (src / "advsamp" / "cli.py").is_file():
        print(f"no package source at {src / 'advsamp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    rows = [measure(e) for e in LOG2C]
    base = rows[0]
    header = ("C", "sample us/row", "/log2C", "pairs us/row", "/log2C",
              "neg-samp step us", "softmax step us", "/C (ns)")
    print(f"K={K}, {NNZ} nonzeros per row, tree input dim {REDUCED}; baseline C={base['C']}")
    print(" ".join(f"{h:>16}" for h in header))
    for r in rows:
        print(" ".join(f"{v:>16.4g}" for v in (
            r["C"], r["sample_batch_us_per_row"], r["sample_batch_us_per_row"] / r["log2_C"],
            r["log_prob_pairs_us_per_row"], r["log_prob_pairs_us_per_row"] / r["log2_C"],
            r["neg_sampling_step_us"], r["softmax_step_us"], 1e3 * r["softmax_step_us"] / r["C"])))
    out = HERE / "work" / "sweep.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"K": K, "nnz_per_row": NNZ, "reduced_dim": REDUCED,
                               "seed": SEED, "rows": rows}, indent=2) + "\n")
    print(f"wrote {out.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
