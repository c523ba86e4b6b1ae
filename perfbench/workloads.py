"""The workloads: generated inputs, CLI config and command order.

Row counts are scaled down from the shapes they stand for so that one
repetition of a workload's commands takes a few seconds on a 2-core machine.
Text-wide evaluates twice as many test rows as it trains on, so that
evaluation stays one of its heavy layers at this size. ``README.md`` gives
the traced share of each layer.

``BENCHMARK.json`` gates clustered-adversarial and text-wide-adversarial;
text-softmax runs the same way but is left out there, because three
workloads would leave each run too short to be steady.

A run draws ``SAMPLES`` independent datasets from the workload's population
and times each of them. Power-iteration PCA needs a number of iterations
that depends on the sampled eigen-gaps, so one dataset per run would make
the run-to-run spread a property of the sample rather than of the program.
"""

from __future__ import annotations

from dataclasses import dataclass

SAMPLES = 4  # datasets drawn per run


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # a function name in gen.py
    params: dict  # generator keyword arguments
    config: dict  # CLI config keys shared by every command
    commands: tuple  # CLI subcommands, run in this order
    accuracy_floor: float  # eval.json accuracy below this fails the run


WORKLOADS = {w.name: w for w in (
    Workload(
        name="clustered-adversarial",
        generator="clustered",
        params={"rows": 5_000, "test_rows": 2_000},
        config={"pca_k": 8, "method": "neg_sampling", "noise": "adversarial",
                "negatives_per_positive": 4, "regularizer": 0.01,
                "learning_rate": 0.1, "epochs": 3},
        commands=("preprocess", "fit-aux", "train", "eval", "diagnose"),
        accuracy_floor=0.5,
    ),
    Workload(
        name="text-softmax",
        generator="text",
        params={"rows": 2_000, "test_rows": 1_000, "vocab": 5_000,
                "label_ids": 1_024, "tokens": 40},
        config={"pca_k": 16, "method": "softmax_full", "learning_rate": 0.3, "epochs": 1},
        commands=("preprocess", "train", "eval"),
        accuracy_floor=0.25,
    ),
    Workload(
        name="text-wide-adversarial",
        generator="text",
        params={"rows": 2_000, "test_rows": 4_000, "vocab": 1_000,
                "label_ids": 8_192, "tokens": 24},
        config={"pca_k": 16, "method": "neg_sampling", "noise": "adversarial",
                "negatives_per_positive": 1, "learning_rate": 0.3, "epochs": 1},
        commands=("preprocess", "fit-aux", "train", "eval"),
        accuracy_floor=0.15,
    ),
)}
