"""Benchmark for disthyp: four workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solver_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20             # every workload, one table
    python3 perfbench/run.py --all --seconds 20 --trace 1   # per-layer table

``BENCHMARK.json`` gates three of the four workloads.  ``mc_many_cells`` is
memory-bound, and on a shared 2-core host its time per trial spreads past
the 25% bound from run to run, so ``--all`` and ``--workload`` run it but
no bound applies to it.

One invocation of a workload:

1. times set-up (import plus building the workload's inputs) in fresh
   child processes, three before and three after the timed passes, and
   takes the median;
2. builds the inputs from ``--seed`` and repeats timed passes for about
   ``--seconds`` seconds, or for the workload's minimum number of passes if
   that takes longer, checking every pass's outputs;
3. runs the once-per-invocation checks (worker-count determinism);
4. with ``--trace 1``, also times a workers=1 pass of the Monte Carlo
   workloads, then repeats set-up and one pass with every layer's public
   functions wrapped in spans, and reports per-layer metrics, including the
   tracing overhead (traced pass minus the median untraced pass).

It prints a ``machine`` line, a ``report`` line with the full results, and
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``.  Without ``src/disthyp`` in the checkout it exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one sampling thread per worker and nothing else: the workloads use at
# most two threads, and a BLAS pool would only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("solver_sweep", "mc_few_cells", "mc_many_cells", "cns_table")
SETUP_REPEATS = 3  # at each end of the timed passes

# name -> unit; each workload reports all of them
END_TO_END = {"setup_s": "s", "item_us": "us", "peak_rss_mb": "MB", "ops_ok_frac": "frac"}
# per-pass figures the report adds to them; a workload reports the ones
# its passes return
PASS_METRICS = {
    "curve_s": "s", "point_s": "s", "dsbs_shortfall_nats": "nats",
    "gauss_rel_shortfall": "frac", "trials_per_s": "1/s", "scan_n_per_s": "1/s",
}


def load_library() -> None:
    """Import disthyp from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "disthyp" / "__init__.py").is_file():
        print(f"perfbench: {src / 'disthyp'} not found; run from a full checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import disthyp
    if Path(disthyp.__file__).resolve().parent != (src / "disthyp").resolve():
        print(f"perfbench: imported disthyp from {disthyp.__file__}, not from {src}",
              file=sys.stderr)
        raise SystemExit(2)


def machine_info() -> dict:
    import numpy
    import disthyp
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "disthyp": disthyp.__version__, "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"l{level}_cache"] = size
    return info


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up time in fresh processes, so each sample pays the import.

    Taken before and again after the timed passes, so that the median
    spans the run rather than one moment of it.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def setup_only(name: str, seed: int) -> None:
    start = time.perf_counter()
    load_library()
    import workloads
    workloads.make_workloads(OUT_DIR / f"tmp-{os.getpid()}")[name].build(seed)
    print(time.perf_counter() - start)


def timed_passes(wl, st, ops, seconds: float) -> list[dict]:
    """Passes until the next one would end past ``seconds``, and at least
    the workload's ``min_passes``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(st, ops))
        elapsed = time.perf_counter() - start
        if len(passes) >= wl.min_passes and elapsed + elapsed / len(passes) > seconds:
            return passes


def metric(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def median_of(passes: list[dict], key: str):
    values = [p[key] for p in passes if key in p]
    return (statistics.median(values), len(values)) if values else (None, 0)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import layers
    import spans
    import workloads

    setup = measure_setup(name, seed)
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    wl = workloads.make_workloads(scratch)[name]
    ops = workloads.Ops()
    try:
        st = wl.build(seed)
        passes = timed_passes(wl, st, ops, seconds)
        wl.once(st, ops)
        setup += measure_setup(name, seed)
        per_layer = None
        if trace:
            untraced_s = statistics.median(p["pass_s"] for p in passes)
            workers1_s = None
            if isinstance(wl, workloads.MonteCarlo):
                workers1_s = wl.run_pass(st, ops, workers=1)["pass_s"]
            with spans.Tracer() as tracer:
                layers.install(tracer)
                with tracer.span("bench.setup") as setup_span:
                    traced_st = wl.build(seed)
                with tracer.span("bench.pass") as pass_span:
                    traced = wl.run_pass(traced_st, ops)
            per_layer = layers.summarize(tracer, setup_span, pass_span, wl, traced_st,
                                         traced, untraced_s, workers1_s)
            OUT_DIR.mkdir(exist_ok=True)
            (OUT_DIR / f"spans-{name}-seed{seed}.json").write_text(
                json.dumps(tracer.to_json()) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    report = {"setup_s": metric(statistics.median(setup), "s", len(setup)),
              "peak_rss_mb": metric(peak_mb, "MB", 1),
              "ops_failed_frac": metric(ops.failed / ops.attempted, "frac", ops.attempted)}
    for key, unit in PASS_METRICS.items():
        value, n = median_of(passes, key)
        if value is not None:
            report[key] = metric(value, unit, n)
    items = [x for p in passes for x in p.get("item_us_samples", ())]
    if items:
        report["item_us"] = metric(statistics.median(items), "us", len(items))
    if "item_us" not in report:
        print(f"perfbench: no pass of {name} completed; causes {dict(ops.causes)}",
              file=sys.stderr)
        return 1
    report["ops_ok_frac"] = metric(1.0 - ops.failed / ops.attempted, "frac", ops.attempted)

    print("machine " + json.dumps(machine_info()))
    print("report " + json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "passes": len(passes),
        "end_to_end": report, "failure_causes": dict(ops.causes),
        "per_layer": per_layer and {k: metric(v, layers.METRICS[k], 1)
                                    for k, v in per_layer.items()}}))
    if trace:
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in layers.METRICS.items()}
    else:
        metrics = {k: {"value": report[k]["value"], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": ops.failed_checks == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process, then one table of every metric."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    status = 0
    rows = []
    machine = "machine unknown: no workload finished"
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        report = next(json.loads(l[len("report "):]) for l in lines if l.startswith("report "))
        machine = next(l for l in lines if l.startswith("machine "))
        if set(result["metrics"]) != want:
            print(f"{name}: metrics differ from BENCHMARK.json", file=sys.stderr)
            status = 1
        if not result["correct"]:
            status = 1
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} passes={report['passes']} "
              f"causes={report['failure_causes']}")
        for key, m in report["end_to_end"].items():
            rows.append((name, key, m["value"], m["unit"], m["n"]))
        if trace:
            for key, m in report["per_layer"].items():
                rows.append((name, key, m["value"], m["unit"], m["n"]))
    print(machine)
    print(f"{'workload':<14} {'metric':<38} {'value':>14} {'unit':<6} n")
    for name, key, value, unit, n in rows:
        print(f"{name:<14} {key:<38} {value:>14.6g} {unit:<6} {n}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    load_library()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
