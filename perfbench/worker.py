"""Repetitions of a workload's CLI commands, one after another in one process.

Usage: ``python3 perfbench/worker.py SPEC.json``, where the spec (written by
``run.py``) names the package source directory, one config file per dataset,
the work directory, the commands, the time budget, whether to trace, how
many set-up samples to take, and where to write the result.

The commands are called in-process through ``advsamp.cli.main``, the same
entry point as the ``advsamp`` console script. Repetitions cycle through the
datasets, each writing to a fresh output directory. A dataset's first
repetition gets the full checks; later ones must reproduce its
``eval.json``. In a traced run every dataset is run untraced and then
traced. Peak RSS is read as soon as the first repetition's last command
returns, before any check runs.

Set-up samples are taken between repetitions, paced so that they spread
over the run like the repetitions do, and topped up at the end.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

LIGHT_COMMANDS = ("train", "eval")
LIGHT_SECONDS = 1.0


def setup_sample() -> float:
    """Wall clock of a fresh interpreter importing ``advsamp.cli``, with this
    process's environment (``PYTHONPATH`` names the package source).

    The exit is awaited on a pidfd: ``subprocess`` waits with a timeout by
    polling at up to 50 ms, which would round every sample to that step.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import advsamp.cli"])
    fd = os.pidfd_open(proc.pid)
    try:
        exited = select.select([fd], [], [], 60)[0]
    finally:
        os.close(fd)
    elapsed = time.perf_counter() - t0
    if not exited:
        proc.kill()
    if proc.wait() != 0:
        raise RuntimeError("importing advsamp.cli failed")
    return elapsed


def run_commands(cli, commands, config: str, out: Path, tracer=None):
    """Run the commands in order, stopping at the first failure."""
    seconds, codes = {}, {}
    start = time.perf_counter()
    for command in commands:
        argv = [command, "--config", config, "--out", str(out)]
        t0 = time.perf_counter()
        if tracer:
            rc, _ = tracer.span(f"cli.{command}", cli.main, argv)
        else:
            rc = cli.main(argv)
        seconds[command] = time.perf_counter() - t0
        codes[command] = rc
        if rc != 0:
            break
    return {"seconds": seconds, "codes": codes, "start": start,
            "pipeline_s": time.perf_counter() - start}


def repeat_light(cli, commands, config: str, out: Path) -> tuple[list[dict], bool]:
    """Rerun the short commands on a finished output directory, at least
    once and until they have run for ``LIGHT_SECONDS``.

    ``train`` and ``eval`` are deterministic and rewrite their own outputs,
    so repeating them costs a fraction of a repetition and gives their
    throughput metrics more samples per run; the shorter they are, the more
    samples they need. Returns the timings and whether every rerun exited 0.
    """
    light = [c for c in LIGHT_COMMANDS if c in commands]
    runs, spent = [], 0.0
    while not runs or spent < LIGHT_SECONDS:
        run = run_commands(cli, light, config, out)
        if list(run["codes"].values()) != [0] * len(light):
            return runs, False
        runs.append(run["seconds"])
        spent += run["pipeline_s"]
    return runs, True


def layer_extras(out: Path, pca_k: int) -> dict:
    """Per-layer figures computed outside any span, from a run's outputs."""
    return {
        "data_io.fit_pca.eig_rel_err": checks.eig_rel_err(out, pca_k),
        "aux_tree.test_ll_gain_nats":
            checks.tree_ll_gain(out) if (out / "tree.npz").exists() else 0.0,
        "diagnostics.eta_margin":
            checks.eta_margin(out) if (out / "sweep.csv").exists() else 0.0,
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import advsamp.cli as cli
    from advsamp.data_io import load_dataset

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"advsamp imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    commands, configs, work = spec["commands"], spec["configs"], Path(spec["work"])
    per_dataset = 2 if spec["trace"] else 1
    min_reps = per_dataset * len(configs)
    reps, walls, datasets, extras, setup, peak_rss_mb = [], [], {}, {}, [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        index = len(reps)
        dataset = index // per_dataset % len(configs)
        trace = spec["trace"] and index % 2 == 1
        tracer = spans.Tracer(f"rep{index}") if trace else None
        if tracer:
            tracer.install()
        out = work / f"rep{index}"
        try:
            rep = run_commands(cli, commands, configs[dataset], out, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rep.update(trace=trace, dataset=dataset)
        reps.append(rep)
        if len(rep["codes"]) < len(commands) or any(rep["codes"].values()):
            break
        report = json.loads((out / "eval.json").read_text())
        report.pop("wall_clock_s")
        if dataset not in datasets:
            rep["checks"] = checks.run_checks(out, spec["accuracy_floor"])
            datasets[dataset] = {"eval": report,
                                 "train_rows": load_dataset(out / "train.npz").num_examples}
        else:
            first = datasets[dataset]["eval"]
            rep["checks"] = [("eval_repeatable", report == first, json.dumps(report))]
        if not trace:
            rep["light"], ok = repeat_light(cli, commands, configs[dataset], out)
            rep["checks"].append(("reruns_exit_0", ok, f"{len(rep['light'])} clean reruns"))
            again = json.loads((out / "eval.json").read_text())
            again.pop("wall_clock_s")
            rep["checks"].append(("eval_repeatable", again == report, json.dumps(again)))
        if tracer:
            if dataset not in extras:
                extras[dataset] = layer_extras(out, spec["pca_k"])
            rep["layers"] = {**spans.per_layer(tracer.spans), **extras[dataset]}
            with open(spec["spans_path"], "w") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in tracer.spans)
        shutil.rmtree(out)
        share = min(1.0, (time.perf_counter() - start) / spec["seconds"])
        while len(setup) < spec["setup_samples"] * share:
            setup.append(setup_sample())
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if index + 1 >= min_reps and (index + 1) % per_dataset == 0 \
                and elapsed + per_dataset * statistics.median(walls) > spec["seconds"]:
            break

    while len(setup) < spec["setup_samples"]:
        setup.append(setup_sample())
    result = {"reps": reps, "peak_rss_mb": peak_rss_mb, "setup": setup,
              "datasets": [datasets[i] for i in sorted(datasets)]}
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
