"""Self-tests of the benchmark: the gate rejects bad results, every workload
runs at a tiny size, and counts and artifacts repeat exactly for one seed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from qwsearch import BracketError
from worker import measure

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "full-spectrum": ("lattice:2:4", "lattice:3:4", "hypercube:5"),
    "coupling-sweep": ("complete:16", "hypercube:4", "lattice:2:6"),
    "large-lattice": ("lattice:2:16", "lattice:3:8"),
}


def run_tiny(name: str, out_dir, seed: int = 3, trace: bool = False) -> dict:
    wl = workloads.WORKLOADS[name]
    tasks = workloads.make_tasks(wl, seed, str(out_dir), families=TINY[name])
    return measure(wl, tasks, seconds=0.0, trace_mode=trace)


def scale_largest_weight(spec):
    w = spec.w_weights.copy()
    w[np.argmax(w)] *= 1.0 + 1e-6
    return dataclasses.replace(spec, w_weights=w)


def move_root_past_pole(spec):
    e = spec.energies.copy()
    e[1] = e[2]    # root 1 now sits above the pole that bounds its bracket
    return dataclasses.replace(spec, energies=e)


@pytest.mark.parametrize("corrupt", [scale_largest_weight, move_root_past_pole])
def test_gate_fails_corrupt_spectrum(monkeypatch, tmp_path, corrupt):
    solve = workloads.solve_spectrum
    monkeypatch.setattr(workloads, "solve_spectrum", lambda ls, g: corrupt(solve(ls, g)))
    res = run_tiny("full-spectrum", tmp_path)
    assert res["attempted"] == len(TINY["full-spectrum"])
    assert res["failed"] == res["attempted"], res["violations"]


def test_gate_counts_bracket_error(monkeypatch, tmp_path):
    def no_bracket(*args):
        raise BracketError("no sign change above pole 0.0")

    monkeypatch.setattr(workloads, "lowest_two", no_bracket)
    res = run_tiny("coupling-sweep", tmp_path)
    assert res["failed"] == res["attempted"] == len(TINY["coupling-sweep"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_and_repeats(tmp_path, name):
    first = run_tiny(name, tmp_path / "a")
    again = run_tiny(name, tmp_path / "b")
    assert first["failed"] == 0, first["violations"]
    assert not first["drift"]
    assert first["fingerprint"] == again["fingerprint"]
    for a, b in zip(sorted((tmp_path / "a").rglob("*.csv")), sorted((tmp_path / "b").rglob("*.csv"))):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_metric_names_match_benchmark_json(tmp_path, name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = run_tiny(name, tmp_path)
    traced = run_tiny(name, tmp_path, trace=True)
    assert set(plain["metrics"]) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert traced["failed"] == 0 and not traced["drift"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key, (value, unit) in {**plain["metrics"], **traced["metrics"]}.items():
        assert units[key] == unit, key
        assert np.isfinite(value), key


def test_launcher_names_every_workload():
    import run

    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_launcher_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-spectrum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
