"""The three benchmark workloads: their families, seeded inputs, tasks and checks.

A workload is a fixed list of tasks, one per graph family. The family mix
never changes; the seed draws only couplings, scan windows and which
results the expensive checks sample, so every seed gives a comparable load.
Each task calls qwsearch's public layer functions through a `Recorder`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import gate
from qwsearch import (
    critical_reference,
    default_time_horizon,
    find_critical_gamma,
    find_optimal_time,
    inverse_energy_sum,
    level_spectrum,
    lowest_two,
    solve_spectrum,
    trace,
    verify_transition_bounds,
)
from qwsearch.analysis import coupling_scan_center
from qwsearch.cli import SCAN_HEADER, parse_graph_spec, write_csv

SPECTRUM_HEADER = ["index", "energy", "fprime", "w_weight", "s_weight"]
TRACE_POINTS = 512
SWEEP_POINTS = 41
# The large-lattice scan sits at fixed fractions of the scan center. With a
# seeded window its dozen two-root solves gave a worst sampled error that
# moved between 10.1 and 12.8 digits from seed to seed.
LARGE_SCAN = (0.9, 1.1)
# find_critical_gamma costs ~90 lowest_two calls; above this K (6.5 s at
# K = 6017) it would dominate the large-lattice run.
CRITICAL_MAX_LEVELS = 1000
# A root counts as useful to the evolution when its |<s|psi>|^2 exceeds this.
USEFUL_S_WEIGHT = 1e-12


@dataclass
class Task:
    """Inputs of one task; everything here is fixed at set-up from the seed."""

    index: int
    label: str
    graph: object
    num_levels: int
    center: float
    csv_path: str | None
    gamma: float = math.nan
    scan: list[float] = field(default_factory=list)
    horizon: float = math.nan
    critical: bool = False
    dense: bool = False                # compare with the dense oracle
    dense_at: int = 0                  # scan index the two-level comparison uses
    mp_picks: list = field(default_factory=list)


@dataclass
class Outcome:
    """Everything a task returned, kept for the untimed gate."""

    task: Task
    levels: object
    spectrum: object = None
    optimum: tuple | None = None
    trace: object = None
    two: list[tuple] = field(default_factory=list)   # (gamma, e0, e1, fp0, fp1)
    critical: float | None = None
    energy_sum: float | None = None
    report: object = None
    csv_rows: list | None = None
    csv_header: list[str] | None = None


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _scan_row(n: int, g, e0, e1, fp0, fp1) -> list[float]:
    """One SCAN_HEADER row, as `qwsearch scan` writes it."""
    return [g, e0, e1, e1 - e0, 1.0 / (n * e0 * e0 * fp0), 1.0 / (n * e1 * e1 * fp1),
            1.0 / fp0, 1.0 / fp1]


def _two_picks(rng, num_points: int, size: int) -> list[tuple[int, int]]:
    """(scan index, root 0 or 1) pairs for the 40-digit sample.

    Every ground root is checked, whatever `size` allows: it carries the
    search, and it is the root whose accuracy varies most with the coupling.
    Seeded first-excited roots fill the rest of the sample.
    """
    extra = rng.choice(num_points, size=max(0, min(size, 2 * num_points) - num_points),
                       replace=False)
    return sorted([(i, 0) for i in range(num_points)] + [(int(i), 1) for i in extra])


# ---------------------------------------------------------------------------
# full-spectrum: level_spectrum -> solve_spectrum -> find_optimal_time -> trace -> write_csv
# ---------------------------------------------------------------------------

def plan_full(task: Task, rng) -> None:
    task.gamma = _log_uniform(rng, task.center / 4.0, 4.0 * task.center)
    task.horizon = float(default_time_horizon(task.graph.num_vertices))
    k = task.num_levels
    size = gate.mp_sample_size(k)
    task.mp_picks = sorted(set(rng.choice(k, size=min(size, k), replace=False).tolist()))


def run_full(task: Task, rec) -> Outcome:
    levels = rec.call("graphs.level_spectrum", level_spectrum, task.graph)
    spec = rec.call("secular.solve_spectrum", solve_spectrum, levels, task.gamma)
    optimum = rec.call("evolution.find_optimal_time", find_optimal_time, spec, task.horizon)
    tr = rec.call("evolution.trace", trace, spec, task.horizon, TRACE_POINTS)
    rows = [[i, e, fp, w, s] for i, (e, fp, w, s) in enumerate(zip(
        spec.energies.tolist(), spec.fprimes.tolist(),
        spec.w_weights.tolist(), spec.s_weights.tolist()))]
    rec.call("cli.write_csv", write_csv, task.csv_path, SPECTRUM_HEADER, rows)
    return Outcome(task, levels, spectrum=spec, optimum=optimum, trace=tr,
                   csv_rows=rows, csv_header=SPECTRUM_HEADER)


# ---------------------------------------------------------------------------
# coupling-sweep: level_spectrum -> lowest_two scan -> find_critical_gamma -> write_csv
# ---------------------------------------------------------------------------

def plan_sweep(task: Task, rng) -> None:
    lo = task.center * rng.uniform(0.5, 0.8)
    hi = task.center * rng.uniform(1.2, 1.5)
    task.scan = np.linspace(lo, hi, SWEEP_POINTS).tolist()
    task.dense_at = int(rng.integers(SWEEP_POINTS))
    task.mp_picks = _two_picks(rng, SWEEP_POINTS, gate.mp_sample_size(task.num_levels))


def run_sweep(task: Task, rec) -> Outcome:
    levels = rec.call("graphs.level_spectrum", level_spectrum, task.graph)
    two = [(g, *rec.call("secular.lowest_two", lowest_two, levels, g)) for g in task.scan]
    g_star = rec.call("analysis.find_critical_gamma", find_critical_gamma, task.graph)
    rows = [_scan_row(levels.num_vertices, *t) for t in two]
    rec.call("cli.write_csv", write_csv, task.csv_path, SCAN_HEADER, rows)
    return Outcome(task, levels, two=two, critical=g_star, csv_rows=rows,
                   csv_header=SCAN_HEADER)


# ---------------------------------------------------------------------------
# large-lattice: level_spectrum -> inverse_energy_sum -> short lowest_two scan
#                -> verify_transition_bounds (-> find_critical_gamma at small K)
# ---------------------------------------------------------------------------

def plan_large(task: Task, rng) -> None:
    task.scan = [f * task.center for f in LARGE_SCAN]
    task.gamma = float(rng.choice([0.5, 2.0])) * critical_reference(task.graph)
    task.critical = task.num_levels <= CRITICAL_MAX_LEVELS
    task.mp_picks = _two_picks(rng, len(LARGE_SCAN), gate.mp_sample_size(task.num_levels))


def run_large(task: Task, rec) -> Outcome:
    graph = task.graph
    levels = rec.call("graphs.level_spectrum", level_spectrum, graph)
    s2 = rec.call("constants.inverse_energy_sum", inverse_energy_sum, 2, graph.dim, graph.side)
    two = [(g, *rec.call("secular.lowest_two", lowest_two, levels, g)) for g in task.scan]
    report = rec.call("analysis.verify_transition_bounds", verify_transition_bounds,
                      graph, task.gamma)
    g_star = (rec.call("analysis.find_critical_gamma", find_critical_gamma, graph)
              if task.critical else None)
    return Outcome(task, levels, two=two, critical=g_star, energy_sum=s2, report=report)


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[str, ...]
    plan: object
    run: object
    writes_csv: bool


WORKLOADS = {
    "full-spectrum": Workload(
        "full-spectrum",
        ("lattice:5:8", "lattice:2:32", "lattice:4:16", "lattice:2:64", "lattice:3:32"),
        plan_full, run_full, True),
    "coupling-sweep": Workload(
        "coupling-sweep",
        ("complete:1024", "hypercube:10", "lattice:5:4", "lattice:4:6", "lattice:3:10",
         "lattice:2:32"),
        plan_sweep, run_sweep, True),
    "large-lattice": Workload(
        "large-lattice",
        ("lattice:5:16", "lattice:4:32", "lattice:3:64", "lattice:2:256", "lattice:3:128",
         "lattice:2:1024"),
        plan_large, run_large, False),
}


def make_tasks(workload: Workload, seed: int, out_dir: str,
               families: tuple[str, ...] | None = None) -> list[Task]:
    """Seeded task list. Computing each family's levels here is input generation:
    couplings are drawn relative to the finite-size scan center."""
    rng = np.random.default_rng(seed)
    tasks = []
    for i, label in enumerate(families or workload.families):
        graph = parse_graph_spec(label)
        levels = level_spectrum(graph)
        if graph.kind == "lattice" and graph.dim >= 2:
            critical_reference(graph)   # warms the lazy log_law_fit / green_integral caches
        csv_path = (os.path.join(out_dir, workload.name, label.replace(":", "_") + ".csv")
                    if workload.writes_csv else None)
        task = Task(i, label, graph, levels.num_levels, coupling_scan_center(levels), csv_path)
        workload.plan(task, rng)
        tasks.append(task)
    eligible = [t for t in tasks if t.graph.num_vertices <= gate.DENSE_CAP]
    if eligible:
        chosen = rng.choice(len(eligible), size=math.ceil(len(eligible) / 2), replace=False)
        for j in chosen.tolist():
            eligible[j].dense = True
    return tasks


def verify(out: Outcome, heavy: bool) -> tuple[list[str], float]:
    """Run the gate on one outcome. `heavy` adds the dense and 40-digit checks.

    Returns the violations and the worst relative error of the 40-digit sample.
    """
    task, levels = out.task, out.levels
    bad: list[str] = []
    worst = 0.0
    if levels.num_vertices != task.graph.num_vertices or levels.num_levels != task.num_levels:
        bad.append(f"levels N={levels.num_vertices} K={levels.num_levels} changed")
    if out.spectrum is not None:
        spec = out.spectrum
        bad += gate.check_spectrum(levels, spec)
        bad += gate.check_trace(out.trace, levels.num_vertices)
        t_star, p_star = out.optimum
        if not (0.0 <= t_star <= task.horizon and 0.0 <= p_star <= 1.0 + gate.SUM_TOL):
            bad.append(f"optimum (t={t_star!r}, p={p_star!r}) out of range")
        if heavy:
            # The seeded sample plus the roots whose weights are least well
            # conditioned: the ground and top roots and the one nearest a pole.
            poles = spec.gamma * levels.energies
            gaps = np.minimum(spec.energies - np.r_[-np.inf, poles[:-1]], poles - spec.energies)
            hardest = int(np.argmin(gaps / np.abs(spec.energies)))
            picks = [(spec.energies[i], spec.w_weights[i]) for i in
                     sorted(set(task.mp_picks) | {0, levels.num_levels - 1, hardest})]
            more, worst = gate.mp_check(levels, spec.gamma, picks)
            bad += more
            if task.dense:
                bad += gate.dense_spectrum(task.graph, levels, spec, out.trace)
    for g, e0, e1, fp0, fp1 in out.two:
        bad += gate.check_two(levels, g, e0, e1, fp0, fp1)
    if heavy and out.two:
        by_gamma: dict[int, list] = {}
        for i, which in task.mp_picks:
            g, e0, e1, fp0, fp1 = out.two[i]
            by_gamma.setdefault(i, []).append((e0, 1.0 / fp0) if which == 0 else (e1, 1.0 / fp1))
        for i, pairs in by_gamma.items():
            more, err = gate.mp_check(levels, out.two[i][0], pairs)
            bad += more
            worst = max(worst, err)
        if task.dense:
            bad += gate.dense_two(task.graph, *out.two[task.dense_at])
    if out.critical is not None and not (task.center / 3.0 <= out.critical <= 3.0 * task.center):
        bad.append(f"critical gamma {out.critical!r} outside the search window")
    if out.energy_sum is not None:
        bad += gate.check_energy_sum(levels, out.energy_sum)
    if out.report is not None and not out.report.all_pass():
        failed = [c.bound_id for c in out.report.checks if c.applicable and not c.passed]
        bad.append(f"transition bounds failed at gamma={out.report.gamma!r}: {failed}")
    if out.csv_rows is not None:
        bad += gate.check_csv(task.csv_path, out.csv_header, out.csv_rows)
    return bad, worst
