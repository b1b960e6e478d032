"""Per-layer metrics from a traced run.

A layer is one module of the package: dist, bottleneck, simulate,
rngstreams, bounds, cli.  ``install`` wraps the public functions of each
module that the workloads reach; ``summarize`` turns the spans of one
traced set-up and one traced pass into the metrics below.  Every workload
reports every metric; a layer a workload does not touch reads 0.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from disthyp import bottleneck, bounds, cli, dist, rngstreams, simulate

LAYERS = ("dist", "bottleneck", "simulate", "rngstreams", "bounds", "cli")

# name -> unit
METRICS = {
    "dist.calibrate_correlation_s": "s",
    "dist.discretized_gaussian.calls": "count",
    "bottleneck.solve_envelope.calls": "count",
    "bottleneck.solve_envelope_s": "s",
    "bottleneck.refine_s": "s",
    "bottleneck.beta_solves": "count",
    "bottleneck.iterations": "count",
    "bottleneck.iters_per_solve": "count",
    "bottleneck.unconverged_frac": "frac",
    "bottleneck.us_per_iteration": "us",
    "bottleneck.restarts_used": "count",
    "bottleneck.distinct_clusters_median": "count",
    "bottleneck.dsbs_shortfall_nats": "nats",
    "bottleneck.gauss8_rel_shortfall": "frac",
    "bottleneck.readme_rel_shortfall": "frac",
    "simulate.lloyd_max_s": "s",
    "simulate.quantized_model_s": "s",
    "simulate.calibrate_threshold_s": "s",
    "simulate.estimate_errors_s": "s",
    "simulate.table_cells": "count",
    "simulate.blocks_per_trial": "count",
    "simulate.count_matrix_bytes_computed": "bytes",
    "simulate.calibration_saturated": "frac",
    "simulate.workers_speedup": "x",
    "rngstreams.stream.calls": "count",
    "rngstreams.stream_s": "s",
    "bounds.critical_sample_size_s": "s",
    "bounds.scan_len": "count",
    "bounds.us_per_n": "us",
    "bounds.overflow_errors": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    **{f"{layer}.self_frac": "frac" for layer in LAYERS},
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
}


def install(tracer) -> None:
    tracer.wrap(dist, "calibrate_correlation")
    tracer.wrap(dist, "discretized_gaussian")
    tracer.wrap(bottleneck, "build_curve")
    tracer.wrap(bottleneck, "exponent_at_rate")
    tracer.wrap(bottleneck, "solve_envelope", keep_results=True)
    tracer.wrap(simulate, "lloyd_max")
    tracer.wrap(simulate, "quantized_model")
    tracer.wrap(simulate, "calibrate_threshold", keep_results=True)
    tracer.wrap(simulate, "estimate_errors")
    tracer.wrap(rngstreams, "stream")
    tracer.wrap(bounds, "critical_sample_size")
    tracer.count(bounds, "feasibility_interval")
    tracer.wrap(cli, "main")


def distinct_clusters(p, sol) -> int:
    """Distinct rows of p(y|u) over the clusters a solution actually uses."""
    w = sol.channel.cond_probs
    pu = w.T @ p.x_marginal
    live = pu > 0
    pyu = (w[:, live].T @ p.probs) / pu[live, None]
    return len(np.unique(np.round(pyu, 9), axis=0))


def summarize(tracer, setup_span, pass_span, wl, st, traced: dict,
              untraced_pass_s: float, workers1_pass_s: float | None) -> dict:
    """Per-layer metrics; ``traced`` is what the traced pass returned."""
    selfs = tracer.self_times()
    in_setup = tracer.within(setup_span)
    in_pass = tracer.within(pass_span)
    pass_s = pass_span.duration

    def total(spans, name):
        return sum(s.duration for s in spans if s.name == name)

    def calls(spans, name):
        return sum(1 for s in spans if s.name == name)

    m = dict.fromkeys(METRICS, 0.0)
    m["dist.calibrate_correlation_s"] = total(in_setup, "dist.calibrate_correlation")
    m["dist.discretized_gaussian.calls"] = calls(in_setup + in_pass, "dist.discretized_gaussian")

    envelope_s = total(in_pass, "bottleneck.solve_envelope")
    outer_s = total(in_pass, "bottleneck.build_curve") + total(in_pass, "bottleneck.exponent_at_rate")
    m["bottleneck.solve_envelope.calls"] = calls(in_pass, "bottleneck.solve_envelope")
    m["bottleneck.solve_envelope_s"] = envelope_s
    m["bottleneck.refine_s"] = outer_s - envelope_s
    # pools were filled in the pass; refinement appends to them after
    # solve_envelope returns, so they are read only now
    pools = tracer.results.get("bottleneck.solve_envelope", [])
    solves = [(pool.p, s) for pool in pools for s in pool.solutions
              if math.isfinite(s.beta)]  # the two exact anchors carry beta = inf
    if solves:
        iterations = sum(s.iterations for _, s in solves)
        m["bottleneck.beta_solves"] = len(solves)
        m["bottleneck.iterations"] = iterations
        m["bottleneck.iters_per_solve"] = iterations / len(solves)
        m["bottleneck.unconverged_frac"] = sum(not s.converged for _, s in solves) / len(solves)
        m["bottleneck.us_per_iteration"] = outer_s / iterations * 1e6 if iterations else 0.0
        m["bottleneck.restarts_used"] = sum(pool.restarts_used for pool in pools)
        m["bottleneck.distinct_clusters_median"] = statistics.median(
            distinct_clusters(p, s) for p, s in solves)
    for key in ("dsbs_shortfall_nats", "gauss8_rel_shortfall", "readme_rel_shortfall"):
        m[f"bottleneck.{key}"] = traced.get(key, 0.0)

    m["simulate.lloyd_max_s"] = total(in_setup, "simulate.lloyd_max")
    m["simulate.quantized_model_s"] = total(in_setup, "simulate.quantized_model")
    m["simulate.calibrate_threshold_s"] = total(in_pass, "simulate.calibrate_threshold")
    m["simulate.estimate_errors_s"] = total(in_pass, "simulate.estimate_errors")
    qm = getattr(st, "qm", None)
    if qm is not None:
        m["simulate.table_cells"] = qm.h0.size
        m["simulate.blocks_per_trial"] = wl.blocks_per_trial
        # computed from array sizes, not measured: one chunk's int64 counts
        m["simulate.count_matrix_bytes_computed"] = rngstreams.CHUNK_TRIALS * qm.h0.size * 8
        cals = tracer.results.get("simulate.calibrate_threshold", [])
        m["simulate.calibration_saturated"] = (sum(c.saturated for c in cals) / len(cals)
                                               if cals else 0.0)
    if workers1_pass_s is not None:
        m["simulate.workers_speedup"] = workers1_pass_s / untraced_pass_s

    m["rngstreams.stream.calls"] = calls(in_pass, "rngstreams.stream")
    m["rngstreams.stream_s"] = total(in_pass, "rngstreams.stream")

    scans = [s for s in in_pass if s.name == "bounds.critical_sample_size"]
    scan_s = sum(s.duration for s in scans)
    scan_len = sum(s.counts.get("bounds.feasibility_interval", 0) for s in scans)
    m["bounds.critical_sample_size_s"] = scan_s
    m["bounds.scan_len"] = scan_len
    m["bounds.us_per_n"] = scan_s / scan_len * 1e6 if scan_len else 0.0
    m["bounds.overflow_errors"] = sum(s.error == "OverflowError" for s in scans)

    index = {id(s): i for i, s in enumerate(tracer.spans)}
    m["cli.main_s"] = total(in_pass, "cli.main")
    m["cli.self_s"] = sum(selfs[index[id(s)]] for s in in_pass if s.name == "cli.main")
    m["cli.bytes_written"] = traced.get("cli_bytes_written", 0)

    for layer in LAYERS:
        own = sum(selfs[index[id(s)]] for s in in_pass if s.layer == layer)
        m[f"{layer}.self_frac"] = own / pass_s
    m["trace.untraced_pass_s"] = untraced_pass_s
    m["trace.traced_pass_s"] = pass_s
    m["trace.overhead_s"] = pass_s - untraced_pass_s
    return m
