"""Pipeline benchmark for the advsamp CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --info

A run generates the workload's datasets from the seed, then starts one
worker process (``worker.py``) that repeats the workload's CLI commands,
cycling through the datasets, until ``--seconds`` are used. Between
repetitions it measures set-up: a fresh interpreter importing
``advsamp.cli``. Load is a closed loop: one process runs one command or
set-up sample at a time, and the benchmark starts no threads.

``--trace 0`` reports the end-to-end metrics: time averages over the
repetitions, and the median set-up sample.
``--trace 1`` runs every dataset untraced and then traced, and reports the
per-layer metrics of the traced repetitions plus the tracing overhead. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary. Raw repetitions and the last traced repetition's spans
are kept under ``perfbench/work/``. ``--info`` prints the machine block.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from workloads import SAMPLES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_SAMPLES = 24  # fresh interpreters per untraced run, spread over the run
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {  # name -> unit, in BENCHMARK.json order
    "setup_s": "s", "pipeline_s": "s", "train_samples_per_s": "samples/s",
    "peak_rss_mb": "MB", "test_accuracy": "fraction", "test_nll": "nats/point",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--info", action="store_true", help="print the machine block")
    args = parser.parse_args(argv)
    if not args.info and args.workload is None:
        parser.error("--workload is required")
    return args


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "unknown")
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False).stdout.strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": sha or None,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def prepare_inputs(workload, seed: int, work: Path) -> tuple[list, list]:
    """Generate the run's datasets; returns their config files and parameters."""
    configs, inputs = [], []
    for sample in range(SAMPLES):
        data = work / f"data{sample}"
        data.mkdir(parents=True)
        inputs.append(getattr(gen, workload.generator)(data, seed, sample, **workload.params))
        keys = {"seed": seed, "train_path": data / "train.txt",
                "test_path": data / "test.txt", **workload.config}
        config = data / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        configs.append(str(config))
    return configs, inputs


def run_worker(workload, configs, work: Path, seconds: float, trace: bool, env,
               deadline: float) -> dict:
    """One worker process running repetitions for ``seconds``; a worker that
    dies counts as one repetition with every command failed."""
    spec = {
        "src": str(SRC), "configs": configs, "work": str(work),
        "commands": list(workload.commands), "trace": trace, "seconds": seconds,
        "accuracy_floor": workload.accuracy_floor, "pca_k": workload.config["pca_k"],
        "setup_samples": 0 if trace else SETUP_SAMPLES,
        "result": str(work / "result.json"), "spans_path": str(work / "spans.jsonl"),
    }
    (work / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                          env=env, capture_output=True, text=True,
                          timeout=max(10.0, deadline - time.perf_counter()), check=False)
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        return {"reps": [{"codes": {}, "checks": [], "trace": False}]}
    result = json.loads(result_path.read_text())
    for rep in result["reps"]:
        if any(rep["codes"].values()):
            sys.stderr.write(proc.stderr[-4000:])
        for name, ok, detail in rep.get("checks", []):
            if not ok:
                print(f"check failed: {name}: {detail}", file=sys.stderr)
    return result


def dataset_mean(reps, value) -> float:
    """Mean over datasets of each dataset's mean ``value(rep)``."""
    by_dataset = {}
    for r in reps:
        by_dataset.setdefault(r["dataset"], []).append(value(r))
    return statistics.mean(statistics.mean(v) for v in by_dataset.values())


def rate(reps, data, command, work) -> float:
    """``work(dataset)`` per second of ``command``, over all its runs; the
    short commands also ran again after each repetition."""
    runs = [(work(data[r["dataset"]]), s[command])
            for r in reps for s in [r["seconds"], *r["light"]]]
    return sum(n for n, _ in runs) / sum(t for _, t in runs)


def end_to_end(reps, result, workload) -> dict:
    """Gated metrics. Timings are time averages, not medians: the host runs
    the same code up to 1.8 times slower in phases lasting seconds, and a
    time average moves with the share of the run spent in them, where a
    median jumps between the two speeds. Accuracy and NLL are taken over the
    union of the datasets' test rows. A traced run takes no set-up samples."""
    data = result["datasets"]
    epochs = workload.config["epochs"]
    n_test = sum(d["eval"]["n_points"] for d in data)
    setup = {"setup_s": statistics.median(result["setup"])} if result["setup"] else {}
    return {
        **setup,
        "pipeline_s": dataset_mean(reps, lambda r: r["pipeline_s"]),
        "train_samples_per_s": rate(reps, data, "train", lambda d: epochs * d["train_rows"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "test_accuracy": sum(d["eval"]["accuracy"] * d["eval"]["n_points"] for d in data) / n_test,
        "test_nll": -sum(d["eval"]["log_likelihood"] * d["eval"]["n_points"] for d in data) / n_test,
    }


def per_layer(traced, untraced) -> dict:
    med = statistics.median
    out = {name: med(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    layer_self = [sum(v for k, v in r["layers"].items() if k.count(".") == 1
                      and k.endswith(".self_s")) for r in traced]
    out["trace.pipeline_s"] = dataset_mean(traced, lambda r: r["pipeline_s"])
    out["trace.overhead_s"] = (out["trace.pipeline_s"]
                               - dataset_mean(untraced, lambda r: r["pipeline_s"]))
    out["trace.accounted_frac"] = med(s / r["pipeline_s"] for s, r in zip(layer_self, traced))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "advsamp" / "cli.py").is_file():
        print(f"no package source at {SRC / 'advsamp'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.info:
        print(json.dumps(machine_info(), indent=2))
        return 0
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        configs, inputs = prepare_inputs(workload, args.seed, work)
        result = run_worker(workload, configs, work, args.seconds, bool(args.trace),
                            worker_env(), started + RUN_LIMIT_S)
        # keep the raw repetitions, and the spans of the last traced one, to read later
        stem = f"{workload.name}-s{args.seed}-trace{args.trace}"
        for name, kept in (("result.json", "reps"), ("spans.jsonl", "spans")):
            if (work / name).exists():
                shutil.copy(work / name, WORK / f"{kept}-{stem}.{name.split('.')[1]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = result["reps"]
    attempted = sum(len(workload.commands) + len(r.get("checks", [])) for r in reps)
    failed = sum(len(workload.commands) - list(r["codes"].values()).count(0)
                 + sum(1 for _, ok, _ in r.get("checks", []) if not ok) for r in reps)
    good = [r for r in reps if list(r["codes"].values()) == [0] * len(workload.commands)]
    traced = [r for r in good if r["trace"]]
    untraced = [r for r in good if not r["trace"]]
    if not untraced or (args.trace and not traced):
        print("no repetition completed; see the errors above", file=sys.stderr)
        return 1

    e2e = end_to_end(untraced, result, workload)
    print(f"workload {workload.name} seed {args.seed}: {len(inputs)} datasets, "
          f"{len(untraced)} untraced and {len(traced)} traced repetitions, "
          f"{len(result['setup'])} set-up samples")
    for params in inputs:
        print("inputs " + json.dumps(params))
    # Printed, not gated: eval lasts 0.1-1 s and its time swings by half
    # with the host's load; preprocess adds the sample-dependent iteration
    # count of power-iteration PCA to that. Both spread wider than a bound
    # allows, and both are part of pipeline_s.
    extra = {
        "preprocess_s": (dataset_mean(untraced, lambda r: r["seconds"]["preprocess"]), "s"),
        "eval_rows_per_s": (rate(untraced, result["datasets"], "eval",
                                 lambda d: d["eval"]["n_points"]), "rows/s"),
        "test_log_lik": (-e2e["test_nll"], "nats/point"),
        "failed_frac": (failed / attempted, "fraction"),
    }
    if "fit-aux" in workload.commands:
        extra["fit_aux_s"] = (dataset_mean(untraced, lambda r: r["seconds"]["fit-aux"]), "s")
    for name, value in e2e.items():
        print(f"  {name:<22} {value:>14.6g} {END_TO_END[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<22} {value:>14.6g} {unit}  (not gated)")
    if args.trace:
        layers = per_layer(traced, untraced)
        for name, value in layers.items():
            print(f"  {name:<44} {value:>14.6g}")
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_units() -> dict:
    import spans

    units = {name: "s" for name in spans.BUSY}
    units.update({name: "count" for name in spans.COUNTS})
    units.update({f"{layer}.self_s": "s" for layer in spans.LAYERS})
    units.update({
        "training.train.self_s": "s", "training.val_evals": "count",
        "training.val_eval_s": "s", "training.steps_per_s": "steps/s",
        "inference.evaluate.peak_mb": "MB", "data_io.load_svmlight.mb_per_s": "MB/s",
        "data_io.fit_pca.eig_rel_err": "fraction", "aux_tree.test_ll_gain_nats": "nats/point",
        "diagnostics.eta_margin": "eta", "trace.pipeline_s": "s", "trace.overhead_s": "s",
        "trace.accounted_frac": "fraction",
    })
    return units


LAYER_UNITS = _layer_units()

if __name__ == "__main__":
    raise SystemExit(main())
