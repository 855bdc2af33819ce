"""qwsearch benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: full-spectrum, coupling-sweep, large-lattice (see README.md), or
`all` to run the three in turn and print every metric of each.
Pins the BLAS/OpenMP thread count to at most the usable CPU count, starts a
fresh worker process for the run, and times set-up (interpreter start,
`import qwsearch`, input generation and cache warm-up) from process start to
the worker's READY line. With --trace 0, set-up is also timed in
SETUP_PROBES extra fresh interpreters and the median is reported. Prints a
readable summary, then one JSON line: every end-to-end metric with
--trace 0, every per-layer metric with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 2
RUN_TIMEOUT_S = 170.0
# The worker's workloads.WORKLOADS, named here so the launcher needs no numpy.
WORKLOADS = ("full-spectrum", "coupling-sweep", "large-lattice")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def pinned_env() -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def start_worker(workload: str, args, env, setup_only: bool, deadline: float):
    """Run one worker; return (seconds from spawn to READY, remaining stdout).

    The worker is killed if it is still running at `deadline` (perf_counter time).
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "READY":
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup_s, rest


def summary(workload: str, args, res: dict) -> list[str]:
    env = res["env"]
    lines = [
        f"perfbench {workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} blas={env['blas']} threads={env['threads']}",
        f"rounds={res['rounds']} of {res['tasks']} tasks, counts and artifacts "
        f"identical in every round, fingerprint {res['fingerprint']}",
    ]
    notes, printed_only = {}, []
    if not args.trace:
        s = res["samples"]
        notes = {
            "setup_s": f"median of {res['setup_samples']} fresh interpreters",
            "wall_s": f"median of {s['rounds']} rounds",
            "task_p50_ms": f"{s['tasks']} tasks",
            "peak_rss_mb": "ru_maxrss after the first round",
            "accuracy_digits": "worst sampled root or weight vs 40-digit mpmath",
        }
        lines.append("round walls (s): " + " ".join(f"{w:.3f}" for w in s["round_walls"]))
        printed_only.append(f"  {'task_tail_ms':48s} {s['tail_ms']:>16.6g} {'ms':8s} "
                            f"p{s['tail_percentile']:.1f} of {s['tasks']} tasks, "
                            f"{s['tail_beyond']} beyond")
    for name, m in res["metrics"].items():
        lines.append(f"  {name:48s} {m['value']:>16.6g} {m['unit']:8s} {notes.get(name, '')}")
    lines += printed_only
    frac = res["failed"] / res["attempted"]
    lines.append(f"  {'failed_frac':48s} {frac:>16.6g} {'ratio':8s} "
                 f"{res['failed']} of {res['attempted']} tasks")
    lines += [f"  violation: {v}" for v in res["violations"]]
    return lines


def run_workload(workload: str, args, env) -> dict:
    """Set-up probes plus one measured worker run; the worker's result with setup_s added."""
    setup = []
    deadline = perf_counter() + RUN_TIMEOUT_S
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append(start_worker(workload, args, env, True, deadline)[0])
    setup_s, out = start_worker(workload, args, env, False, deadline)
    setup.append(setup_s)
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise WorkerError("worker printed no result")
    metrics = {"setup_s": [statistics.median(setup), "s"]} if not args.trace else {}
    metrics.update(res["metrics"])
    res["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    res["setup_samples"] = len(setup)
    return res


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="qwsearch benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    env = pinned_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            res = run_workload(name, args, env)
        except WorkerError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        if res["drift"]:
            print(f"perfbench: {name}: counts or artifacts drifted between rounds; run invalid",
                  file=sys.stderr)
            return 1
        print("\n".join(summary(name, args, res)), flush=True)
        results[name] = res
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
