"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py, which pins the BLAS thread count and times set-up from
process start to the READY line. Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The run repeats the workload's fixed task list in rounds, closed loop and
one task at a time, until the timed rounds add up to --seconds. The gate
runs after each round, outside the timed region: the first round gets every
check, and every later round must reproduce the first bit for bit (call and
work counts, CSV SHA-256, result digests), or the run is marked invalid.
With --trace 1 untraced and traced rounds alternate, so the traced per-layer
figures and the tracing overhead come from the same process and seed.
The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import Recorder, busy_by_name, p50_us, self_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

LAYERS = (
    "graphs.level_spectrum",
    "secular.solve_spectrum",
    "secular.lowest_two",
    "evolution.find_optimal_time",
    "evolution.trace",
    "analysis.find_critical_gamma",
    "analysis.verify_transition_bounds",
    "constants.inverse_energy_sum",
    "cli.write_csv",
)
# Work counts per round; with .calls they must repeat exactly for one seed.
WORK = (
    "graphs.level_spectrum.vertices",
    "graphs.level_spectrum.levels",
    "secular.solve_spectrum.roots",
    "secular.solve_spectrum.useful_roots",
    "secular.lowest_two.levels",
    "evolution.trace.points",
    "constants.inverse_energy_sum.terms",
    "cli.write_csv.bytes",
)
TAIL_BEYOND = 10        # the tail percentile keeps at least this many samples above it
ERROR_FLOOR = 1e-17     # accuracy_digits reads at most 17 when every sample is exact


def work_counts(outs, calls: Counter) -> Counter:
    from workloads import USEFUL_S_WEIGHT

    c = Counter({f"{name}.calls": calls[name] for name in LAYERS})
    for o in outs:
        if o is None:
            continue
        n, k = o.levels.num_vertices, o.levels.num_levels
        c["graphs.level_spectrum.vertices"] += n
        c["graphs.level_spectrum.levels"] += k
        c["secular.lowest_two.levels"] += k * len(o.two)
        if o.spectrum is not None:
            c["secular.solve_spectrum.roots"] += o.spectrum.num_roots
            c["secular.solve_spectrum.useful_roots"] += int(
                (o.spectrum.s_weights > USEFUL_S_WEIGHT).sum())
        if o.trace is not None:
            c["evolution.trace.points"] += len(o.trace.times)
        if o.energy_sum is not None:
            c["constants.inverse_energy_sum.terms"] += n - 1
        if o.csv_rows is not None:
            c["cli.write_csv.bytes"] += os.path.getsize(o.task.csv_path)
    return c


def fingerprint(outs, counts: Counter) -> tuple:
    """Everything that must repeat exactly from round to round and run to run."""
    per_task = []
    for o in outs:
        if o is None:
            per_task.append(None)
            continue
        csv_sha = None
        if o.csv_rows is not None:
            csv_sha = hashlib.sha256(Path(o.task.csv_path).read_bytes()).hexdigest()
        report = None if o.report is None else [(c.lhs, c.rhs) for c in o.report.checks]
        digest = hashlib.sha256(repr((o.optimum, o.two, o.critical, o.energy_sum, report))
                                .encode())
        if o.trace is not None:
            digest.update(o.trace.amplitudes.tobytes())
        per_task.append((o.task.label, o.levels.num_vertices, o.levels.num_levels,
                         csv_sha, digest.hexdigest()))
    return tuple(sorted(counts.items())), tuple(per_task)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond). With TAIL_BEYOND samples or
    fewer no percentile qualifies; the maximum is reported as the 100th.
    """
    xs = sorted(values)
    rank = len(xs) - TAIL_BEYOND
    if rank < 1:
        return xs[-1], 100.0, 0
    return xs[rank - 1], 100.0 * rank / len(xs), TAIL_BEYOND


def measure(workload, tasks, seconds: float, trace_mode: bool) -> dict:
    from workloads import verify

    walls = {False: [], True: []}
    latencies: list[float] = []
    attempted = failed = 0
    violations: list[str] = []
    worst = 0.0
    peak_rss_mb = math.nan
    first = None
    drift = False
    counts = Counter()
    traced_spans: list[tuple[int, list]] = []
    layer_failed = Counter()
    timed = 0.0
    r = 0
    while r == 0 or timed < seconds or (trace_mode and r < 2):
        traced = trace_mode and r % 2 == 1
        rec = Recorder(traced)
        outs = []
        round_lat = []
        t0 = perf_counter()
        for task in tasks:
            ts = perf_counter()
            try:
                with rec.task(task.index):
                    outs.append(workload.run(task, rec))
            except Exception:
                traceback.print_exc()
                outs.append(None)
            round_lat.append(perf_counter() - ts)
        wall = perf_counter() - t0
        if r == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Untimed from here on.
        for out in outs:
            attempted += 1
            if out is None:
                failed += 1
                continue
            bad, err = verify(out, heavy=(r == 0))
            worst = max(worst, err)
            if bad:
                failed += 1
                violations += [f"{out.task.label}: {b}" for b in bad]
        counts = work_counts(outs, rec.calls)
        fp = fingerprint(outs, counts)
        if first is None:
            first = fp
        elif fp != first:
            drift = True
        layer_failed.update(rec.failed)
        walls[traced].append(wall)
        if traced:
            traced_spans += [(r, s) for s in rec.spans]
        else:
            latencies += round_lat
        timed += wall
        r += 1

    result = {"attempted": attempted, "failed": failed, "drift": drift,
              "violations": violations[:20], "rounds": r, "tasks": len(tasks),
              "fingerprint": hashlib.sha256(repr(first).encode()).hexdigest()[:16]}
    if not trace_mode:
        tail_value, tail_pct, beyond = tail(latencies)
        result["metrics"] = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "task_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "accuracy_digits": (-math.log10(max(worst, ERROR_FLOOR)), "digits"),
        }
        result["samples"] = {"rounds": len(walls[False]), "tasks": len(latencies),
                             "round_walls": walls[False], "tail_ms": tail_value * 1e3,
                             "tail_percentile": tail_pct, "tail_beyond": beyond}
        return result

    n_traced = len(walls[True])
    spans = [s for _, s in traced_spans]
    durations = busy_by_name(spans)
    traced_wall = statistics.median(walls[True])
    m = {}
    for name in LAYERS:
        busy = sum(durations.get(name, [])) / n_traced
        m[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        m[f"{name}.busy_s"] = (busy, "s")
        m[f"{name}.share"] = (busy / traced_wall, "ratio")
        m[f"{name}.p50_us"] = (p50_us(durations.get(name, [])), "us")
        m[f"{name}.failed"] = (layer_failed[name], "count")
    for key in WORK:
        m[key] = (counts[key], "bytes" if key.endswith(".bytes") else "count")
    solve_busy = m["secular.solve_spectrum.busy_s"][0]
    roots = counts["secular.solve_spectrum.roots"]
    m["secular.solve_spectrum.roots_per_s"] = (roots / solve_busy if solve_busy else 0.0, "1/s")
    m["secular.solve_spectrum.useful_root_frac"] = (
        counts["secular.solve_spectrum.useful_roots"] / roots if roots else 0.0, "ratio")
    level_busy = m["graphs.level_spectrum.busy_s"][0]
    m["graphs.level_spectrum.vertices_per_s"] = (
        counts["graphs.level_spectrum.vertices"] / level_busy if level_busy else 0.0, "1/s")
    m["task.self_s"] = (self_time(spans) / n_traced, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - statistics.median(walls[False]), "s")
    m["trace.spans"] = (len(spans) // n_traced, "count")
    result["metrics"] = m
    result["spans"] = traced_spans
    return result


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_spans(path: Path, spans: list[tuple[int, list]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for r, (name, start, end, parent, task) in spans:
            fh.write(json.dumps({"round": r, "name": name, "start": start, "end": end,
                                 "parent": parent, "task": task}) + "\n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "qwsearch" / "__init__.py").is_file():
        print(f"perfbench: no qwsearch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qwsearch
    from workloads import WORKLOADS, make_tasks

    if Path(qwsearch.__file__).resolve().parent != SRC / "qwsearch":
        print(f"perfbench: imported qwsearch from {qwsearch.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tasks = make_tasks(workload, args.seed, str(OUT_DIR / "csv"))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, tasks, args.seconds, bool(args.trace))
    result["env"] = environment(args.seed)
    spans = result.pop("spans", None)
    if spans is not None:
        write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
