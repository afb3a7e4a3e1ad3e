"""marginline benchmark: one run of one workload.

    python3 perfbench/run.py --workload train-synth20 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The package is imported from `src/`
beside this directory; nothing is installed. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"},
with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer one (--trace 1). The line before it carries the machine facts
and any metric reported missing. Full records and spans go to
`.bench_out/`; inputs and run directories live under `.bench_work/` and
are removed when the run ends.

A run times whole passes over the workload's inputs: at least one, and
another only while it would end within --seconds; `run_s` is their
median. --trace 1 sets up once, then alternates untraced and traced
passes: the per-layer metrics come from the traced passes and
`trace.overhead_s` is the difference of the two medians. --smoke runs
both workloads at a tiny size in both modes and checks that every metric
BENCHMARK.json names is emitted with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    """One BLAS thread (never more than nproc): the network's matrices are
    small, a second thread cost ~60% more CPU for no steady gain on a
    2-CPU machine, and fold- or die-level process parallelism stays free
    to use the other CPUs. Must run before numpy is imported."""
    threads = min(1, nproc())
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def machine_facts(blas_threads):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts = {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "blas_threads": blas_threads,
    }
    for package in ("numpy", "scipy", "networkx"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = None
    return facts


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def declared_metrics():
    """(end_to_end, per_layer) name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def measure(name, seed, seconds, trace, config):
    """One run; returns (record, computed metrics as name -> (value, unit))."""
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    workload = WORKLOADS[name](work, seed, config)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        n_setups = 1 if trace else workload.setups
        setups = [timed(workload.setup) for _ in range(n_setups)]
        start = time.perf_counter()
        untraced, traced = [], []
        tracer = Tracer()
        while True:
            workload.prepare()
            untraced.append(timed(workload.run))
            if trace:
                workload.prepare()
                tracer.install()
                try:
                    traced.append(timed(workload.run, tracer))
                finally:
                    tracer.uninstall()
            pass_s = statistics.median(untraced) + (
                statistics.median(traced) if traced else 0.0
            )
            if time.perf_counter() - start + pass_s > seconds:
                break
        ok, quality = workload.score()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(
        setup_s=setups, run_s=untraced, traced_run_s=traced,
        details=workload.details,
    )
    if trace:
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced), "s"
        )
        record["tracer_missing"] = tracer.missing
        record["hook_errors"] = tracer.hook_errors
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{name}-s{seed}.spans.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_frac": (1.0 - workload.failed / workload.attempted, "fraction"),
        }
        units = {"val_dice_min": "dice", "dsc_mean": "dice",
                 "margin_mean_um": "um", "margin_max_um": "um",
                 "success_frac": "fraction"}
        metrics.update({k: (v, units[k]) for k, v in quality.items()})
    record.update(
        correct=bool(ok and workload.failed == 0),
        attempted=workload.attempted,
        failed=workload.failed,
    )
    return record, metrics


def select(metrics, declared):
    """The declared metrics in declared order, and the names not emitted."""
    chosen = {n: {"value": metrics[n][0], "unit": metrics[n][1]}
              for n in declared if n in metrics}
    return chosen, [n for n in declared if n not in metrics]


def run_once(args, blas_threads):
    from workloads import FULL

    end_to_end, per_layer = declared_metrics()
    record, metrics = measure(
        args.workload, args.seed, args.seconds, args.trace, FULL
    )
    chosen, missing = select(metrics, per_layer if args.trace else end_to_end)
    correct = record["correct"] and not (missing and not args.trace)
    record.update(machine=machine_facts(blas_threads), metrics=chosen,
                  missing=missing)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    if missing:
        print(f"metrics missing: {missing}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"], "missing": missing}))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": chosen,
    }))
    return 0 if correct else 1


def smoke():
    """Both workloads at the smoke size, untraced and traced: every
    declared metric must be emitted, finite, with the declared unit, and
    the layer map must cover exactly the declared per-layer metrics."""
    from workloads import SMOKE, WORKLOADS

    end_to_end, per_layer = declared_metrics()
    layer_map = json.loads((HERE / "layers.json").read_text())
    problems = []
    if set(layer_map) != set(per_layer):
        problems.append(
            f"layers.json vs BENCHMARK.json per_layer: "
            f"{sorted(set(layer_map) ^ set(per_layer))}"
        )
    for name, moves in layer_map.items():
        for m in moves:
            if m["metric"] not in end_to_end or m["workload"] not in WORKLOADS:
                problems.append(f"layers.json {name}: unknown target {m}")
    for workload in WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            record, metrics = measure(workload, 1, 1, trace, SMOKE)
            if not record["correct"]:
                problems.append(f"{workload} trace={trace}: incorrect {record}")
            for name, unit in declared.items():
                if name not in metrics:
                    problems.append(f"{workload} trace={trace}: {name} missing")
                elif metrics[name][1] != unit or not math.isfinite(metrics[name][0]):
                    problems.append(
                        f"{workload} trace={trace}: {name} = {metrics[name]}, "
                        f"declared unit {unit}"
                    )
    print(json.dumps({"smoke_ok": not problems, "problems": problems}, indent=1))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("train-synth20", "infer-hires"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "marginline" / "__init__.py").is_file():
        print(f"no marginline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return smoke() if args.smoke else run_once(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
