"""Workload definitions: the experiment specs each benchmark round runs, how a
round is driven through the package's public functions, and the
seed-independent invariants every (spec, density) cell must satisfy.

Imported only by driver.py, after the checkout's ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from vanetconn import (
    ExperimentSpec,
    FixedRange,
    TwoTierRange,
    UniformRange,
    compare_methods,
    policy_label,
    sweep,
)
from vanetconn.cli import emit_csv

COMPARE_CSV_HEADER = "density_per_km,method_a,method_b,disagreements,trials"

# Each later round of a run uses a fresh master seed so that a run measures
# distinct realizations; round 0 uses the --seed value itself, which is the
# round whose CSV is compared against the stored digests.
ROUND_SEED_STRIDE = 1 << 32


def round_master_seed(seed: int, round_index: int) -> int:
    return seed + round_index * ROUND_SEED_STRIDE


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is "sweep" (``montecarlo.sweep`` per spec, then one
    ``cli.emit_csv`` of the whole table) or "compare"
    (``montecarlo.compare_methods`` per spec).
    """

    name: str
    kind: str
    workers: int
    build_specs: object  # callable(master_seed, smoke) -> list[ExperimentSpec]
    check_cell: object   # callable(cell) -> error string or None


def _fig1_specs(master_seed: int, smoke: bool):
    densities = (2.0, 25.0) if smoke else tuple(float(d) for d in range(2, 26))
    trials = 4 if smoke else 40
    return [
        ExperimentSpec(densities, 10_000.0, FixedRange(r), ("oracle", "chain", "analytic"),
                       "undirected", trials, master_seed)
        for r in (500.0, 750.0, 1000.0)
    ]


def _spectral_specs(master_seed: int, smoke: bool):
    densities = (2.0, 10.0) if smoke else (2.0, 5.0, 10.0)
    trials = 16 if smoke else 512
    return [
        ExperimentSpec(densities, 10_000.0, TwoTierRange(500.0, 1000.0, 0.5),
                       ("laplacian", "exponent", "oracle", "chain"), "upward",
                       trials, master_seed)
    ]


def _long_road_specs(master_seed: int, smoke: bool):
    length = 10_000.0 if smoke else 100_000.0
    trials = 2 if smoke else 8
    return [
        ExperimentSpec((10.0, 20.0), length, UniformRange(750.0, 100.0),
                       ("oracle", "chain"), "upward", trials, master_seed)
    ]


def _fig1_check(cell):
    # fixed undirected range: connected <=> every gap <= R <=> chain event
    if cell["counts"]["oracle"] != cell["counts"]["chain"]:
        return f"oracle {cell['counts']['oracle']} != chain {cell['counts']['chain']}"
    return None


def _spectral_check(cell):
    # the pseudo-undirected spectrum sees exactly upward reachability, and the
    # exact-length walk sees exactly the consecutive chain
    for pair in (("laplacian", "oracle"), ("exponent", "chain")):
        if cell["counts"][pair] != 0:
            return f"{pair[0]} vs {pair[1]}: {cell['counts'][pair]} disagreements"
    return None


def _long_road_check(cell):
    # the chain is one particular upward path, so it implies reachability
    if cell["counts"]["oracle"] < cell["counts"]["chain"]:
        return f"oracle {cell['counts']['oracle']} < chain {cell['counts']['chain']}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1_traversal", "sweep", 1, _fig1_specs, _fig1_check),
        Workload("spectral_audit", "compare", 1, _spectral_specs, _spectral_check),
        Workload("long_road", "sweep", 2, _long_road_specs, _long_road_check),
    )
}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def cell_key(label: str, density: float) -> str:
    return f"{label}|{_fmt(density)}"


def run_round(workload: Workload, specs, workers: int, csv_path):
    """Drive one round through the public API.

    Returns (cells, csv_bytes, trials): ``cells`` maps cell_key to a dict with
    either per-method connected counts (sweep) or per-pair disagreement counts
    (compare), plus an ``error`` slot.  A spec
    whose call raises yields cells carrying the exception text.
    """
    cells = {}
    table = []
    trials = 0
    for spec in specs:
        label = policy_label(spec.policy)
        trials += spec.trials * len(spec.densities_per_km)
        try:
            if workload.kind == "sweep":
                rows = sweep(spec, workers=workers)
            else:
                rows = compare_methods(spec, workers=workers)
        except Exception as err:  # a failing call fails its cells, the run goes on
            for density in spec.densities_per_km:
                cells[cell_key(label, density)] = {
                    "counts": {}, "error": f"{type(err).__name__}: {err}"}
            continue
        for density in spec.densities_per_km:
            cells[cell_key(label, density)] = {"counts": {}, "error": None}
        for row in rows:
            counts = cells[cell_key(label, row.density_per_km)]["counts"]
            if workload.kind == "sweep":
                if row.trials:
                    counts[row.method] = row.connected_count
            else:
                counts[(row.method_a, row.method_b)] = row.count
        table.extend(rows)
    if workload.kind == "sweep":
        csv_bytes = emit_csv(table, csv_path).read_bytes() if table else b""
    else:
        lines = [COMPARE_CSV_HEADER] + [
            f"{_fmt(r.density_per_km)},{r.method_a},{r.method_b},{r.count},{r.trials}"
            for r in table
        ]
        csv_bytes = ("\n".join(lines) + "\n").encode()
        csv_path.write_bytes(csv_bytes)
    return cells, csv_bytes, trials


def csv_digests(workload: Workload, specs, csv_bytes: bytes) -> dict:
    """SHA-256 of the whole CSV plus one per (spec, density) cell, taken over
    the CSV lines that belong to that cell."""
    lines = csv_bytes.decode().splitlines()[1:]
    per_cell = {}
    if workload.kind == "sweep":
        for line in lines:
            fields = line.split(",")
            per_cell.setdefault(f"{fields[2]}|{fields[0]}", []).append(line)
    else:
        label = policy_label(specs[0].policy)
        for line in lines:
            per_cell.setdefault(f"{label}|{line.split(',')[0]}", []).append(line)
    return {
        "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "cells": {key: hashlib.sha256("\n".join(v).encode()).hexdigest()
                  for key, v in sorted(per_cell.items())},
    }
