"""Traced replay: rebuild each realization of a round stage by stage through
the package's public functions, with a span around every call.

Spans are recorded in the benchmark's own code, around calls into each layer;
nothing inside the package is instrumented.  A span is
(name, start, end, parent, trial, n), where ``parent`` is the index of the
enclosing span (-1 for none) and ``trial`` is (spec index, density index,
trial index), or (spec index, density index, -1) for per-cell calls.
"""

from __future__ import annotations

import json
import math
import statistics
from itertools import combinations
from time import perf_counter

from vanetconn import (
    AnalyticModel,
    ConnectivityEstimate,
    TrafficScenario,
    analytic_pc,
    assign_ranges,
    build_adjacency,
    consecutive_chain,
    is_connected_exponent,
    is_connected_laplacian,
    laplacian,
    mean_range,
    oracle_components,
    oracle_reachable,
    policy_label,
    project,
    run_trial,
    sample_headways,
    spacing_matrix,
    symmetrize,
)
from vanetconn.cli import emit_csv
from vanetconn.montecarlo import trial_rng
from workloads import cell_key

RUN_TRIAL = "montecarlo.run_trial"
REPLAY = "montecarlo.replay"

# Every traced call, as <module>.<function>; a call a workload never makes
# reports 0 self time and 0 share.
STAGES = (
    "montecarlo.trial_rng",
    "traffic.sample_headways",
    "ranges.assign_ranges",
    "traffic.spacing_matrix",
    "graphs.build_adjacency",
    "graphs.project",
    "graphs.symmetrize",
    "graphs.laplacian",
    "connectivity.is_connected_laplacian",
    "connectivity.is_connected_exponent",
    "connectivity.oracle_components",
    "connectivity.oracle_reachable",
    "connectivity.consecutive_chain",
    "connectivity.analytic_pc",
    "cli.emit_csv",
)


class Tracer:
    """In-memory span list plus the computed per-call counts."""

    def __init__(self):
        self.spans = []
        self.traffic_bytes = []   # n x n bytes returned by traffic, per trial
        self.graphs_bytes = []    # n x n bytes returned by graphs, per trial
        self.exponent_matmuls = []
        self.laplacian_flops = []

    def begin(self, name, parent, trial, n) -> int:
        self.spans.append([name, perf_counter(), None, parent, trial, n])
        return len(self.spans) - 1

    def end(self, index) -> None:
        self.spans[index][2] = perf_counter()

    def call(self, name, parent, trial, n, fn, *args):
        start = perf_counter()
        out = fn(*args)
        self.spans.append([name, start, perf_counter(), parent, trial, n])
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, trial, n in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "trial": trial, "n": n}) + "\n")


def walk_matmuls(n: int) -> int:
    """Matrix products in the repeated-squaring power A^(n-1): one squaring
    per bit below the top one, one multiply per extra set bit."""
    k = n - 1
    return (k.bit_length() - 1) + (bin(k).count("1") - 1)


def eigensolve_flops(n: int) -> float:
    """Leading term of a symmetric eigenvalues-only solve: the Householder
    tridiagonal reduction, 4/3 n^3."""
    return 4.0 * n ** 3 / 3.0


def replay_trial(tracer: Tracer, spec, spec_index: int, density_index: int,
                 trial_index: int) -> dict:
    """The verdict pipeline of one realization, one public call per span."""
    scenario = TrafficScenario(spec.densities_per_km[density_index] / 1000.0,
                               spec.segment_length_m)
    n = scenario.vehicle_count
    key = (spec_index, density_index, trial_index)
    root = tracer.begin(REPLAY, -1, key, n)

    def call(name, fn, *args):
        return tracer.call(name, root, key, n, fn, *args)

    rng = call("montecarlo.trial_rng", trial_rng, spec.master_seed, density_index, trial_index)
    headways = call("traffic.sample_headways", sample_headways, scenario, rng)
    assignment = call("ranges.assign_ranges", assign_ranges, spec.policy, n, rng)
    spacing = call("traffic.spacing_matrix", spacing_matrix, headways)
    adjacency = call("graphs.build_adjacency", build_adjacency, spacing, assignment)
    graph_bytes = adjacency.entries.nbytes
    undirected = spec.direction == "undirected"
    methods = spec.trial_methods
    upward = None
    if not undirected or "chain" in methods:
        upward = call("graphs.project", project, adjacency, "upward")
        graph_bytes += upward.entries.nbytes
    verdicts = {}
    for method in methods:
        if method == "laplacian":
            graph = adjacency
            if not undirected:
                graph = call("graphs.symmetrize", symmetrize, upward)
                graph_bytes += graph.entries.nbytes
            lap = call("graphs.laplacian", laplacian, graph)
            graph_bytes += lap.entries.nbytes
            verdicts[method] = call("connectivity.is_connected_laplacian",
                                    is_connected_laplacian, lap)
            tracer.laplacian_flops.append(eigensolve_flops(n))
        elif method == "exponent":
            graph = adjacency if undirected else upward
            verdicts[method] = call("connectivity.is_connected_exponent",
                                    is_connected_exponent, graph)
            tracer.exponent_matmuls.append(walk_matmuls(n))
        elif method == "oracle":
            if undirected:
                verdicts[method] = call("connectivity.oracle_components",
                                        oracle_components, adjacency) == 1
            else:
                verdicts[method] = call("connectivity.oracle_reachable",
                                        oracle_reachable, upward, 0, n - 1)
        else:
            verdicts[method] = call("connectivity.consecutive_chain", consecutive_chain, upward)
    tracer.end(root)
    tracer.traffic_bytes.append(spacing.entries.nbytes)
    tracer.graphs_bytes.append(graph_bytes)
    return verdicts


def replay_round(tracer: Tracer, workload, specs, csv_path):
    """Replay every realization of one round.

    For each trial, ``run_trial`` is timed as one opaque call, then the same
    realization is rebuilt stage by stage.  Returns (cells, mismatches,
    csv_bytes): per cell, the connected count per method (sweep workloads)
    or the disagreement count per method pair (compare workloads), rebuilt
    from the staged verdicts; the number of trials whose staged verdicts
    differ from ``run_trial``'s; and, for sweep workloads, the CSV that
    ``cli.emit_csv`` writes for the rebuilt table.
    """
    cells = {}
    mismatches = 0
    estimates = []
    for spec_index, spec in enumerate(specs):
        label = policy_label(spec.policy)
        pairs = list(combinations(spec.trial_methods, 2))
        for density_index, density in enumerate(spec.densities_per_km):
            counts = dict.fromkeys(spec.trial_methods if workload.kind == "sweep" else pairs, 0)
            for trial_index in range(spec.trials):
                record = tracer.call(RUN_TRIAL, -1, (spec_index, density_index, trial_index),
                                     None, run_trial, spec, density_index, trial_index)
                verdicts = replay_trial(tracer, spec, spec_index, density_index, trial_index)
                mismatches += verdicts != record.verdicts
                if workload.kind == "sweep":
                    for method in spec.trial_methods:
                        counts[method] += verdicts[method]
                else:
                    for a, b in pairs:
                        counts[(a, b)] += verdicts[a] != verdicts[b]
            cells[cell_key(label, density)] = counts
            if workload.kind != "sweep":
                continue
            for method in spec.trial_methods:
                p_hat = counts[method] / spec.trials
                estimates.append(ConnectivityEstimate(
                    density, method, label, p_hat, math.sqrt(p_hat * (1.0 - p_hat) / spec.trials),
                    counts[method], spec.trials, spec.master_seed))
            if "analytic" in spec.methods:
                scenario = TrafficScenario(density / 1000.0, spec.segment_length_m)
                model = AnalyticModel(scenario.density, mean_range(spec.policy),
                                      scenario.vehicle_count)
                p = tracer.call("connectivity.analytic_pc", -1, (spec_index, density_index, -1),
                                scenario.vehicle_count, analytic_pc, model)
                estimates.append(ConnectivityEstimate(
                    density, "analytic", label, p, 0.0, 0, 0, spec.master_seed))
    csv_bytes = None
    if workload.kind == "sweep":
        tracer.call("cli.emit_csv", -1, (-1, -1, -1), None, emit_csv, estimates, csv_path)
        csv_bytes = csv_path.read_bytes()
    return cells, mismatches, csv_bytes


def self_times(spans):
    """Per-span self time: duration minus the time covered by its children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (units are declared in BENCHMARK.json)."""
    selfs = self_times(tracer.spans)
    per_name = {}
    for span, self_time in zip(tracer.spans, selfs):
        per_name.setdefault(span[0], []).append(self_time)
    run_trial_total = sum(per_name.get(RUN_TRIAL, ()))
    traced_total = sum(end - start for name, start, end, parent, _, _ in tracer.spans
                       if parent == -1 and name != RUN_TRIAL)
    metrics = {f"{RUN_TRIAL}.us": statistics.median(per_name[RUN_TRIAL]) * 1e6}
    for stage in STAGES:
        times = per_name.get(stage, ())
        metrics[f"{stage}.us"] = statistics.median(times) * 1e6 if times else 0.0
        metrics[f"{stage}.share"] = sum(times) / traced_total
    staged = sum(t for span, t in zip(tracer.spans, selfs) if span[3] >= 0)
    metrics["montecarlo.replay_coverage"] = staged / run_trial_total
    metrics["traffic.dense_bytes"] = statistics.fmean(tracer.traffic_bytes)
    metrics["graphs.dense_bytes"] = statistics.fmean(tracer.graphs_bytes)
    metrics["connectivity.is_connected_exponent.matmuls"] = (
        statistics.fmean(tracer.exponent_matmuls) if tracer.exponent_matmuls else 0.0)
    metrics["connectivity.is_connected_laplacian.flops"] = (
        statistics.fmean(tracer.laplacian_flops) if tracer.laplacian_flops else 0.0)
    return metrics
