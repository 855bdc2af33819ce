import argparse
import contextlib
import errno
import io
import itertools
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from _shared import rootless_measured_offsets

import qwsearch.secular
from qwsearch import level_spectrum
from qwsearch.cli import (
    SCAN_HEADER,
    GraphSpecError,
    RunConfig,
    _build_parser,
    main,
    parse_graph_spec,
    write_csv,
)

SCAN_COLUMNS = ["gamma", "e0", "e1", "gap", "overlap_s_psi0",
                "overlap_s_psi1", "overlap_w_psi0", "overlap_w_psi1"]


def _read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_parse_graph_spec():
    g = parse_graph_spec("lattice:4:6")
    assert (g.kind, g.dim, g.side, g.num_vertices) == ("lattice", 4, 6, 1296)
    g = parse_graph_spec("complete:1024")
    assert (g.kind, g.num_vertices) == ("complete", 1024)
    g = parse_graph_spec("hypercube:10")
    assert (g.kind, g.num_bits, g.num_vertices) == ("hypercube", 10, 1024)


def test_parse_graph_spec_errors():
    with pytest.raises(ValueError):
        parse_graph_spec("lattice:1:1")
    with pytest.raises(GraphSpecError):
        parse_graph_spec("ring:5")
    with pytest.raises(GraphSpecError):
        parse_graph_spec("lattice:2")
    with pytest.raises(GraphSpecError):
        parse_graph_spec("complete:abc")
    with pytest.raises(ValueError):
        parse_graph_spec("complete:1")


def test_spectrum_command(tmp_path):
    rc = main(["spectrum", "--graph", "lattice:2:4", "--gamma", "1.0",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "spectrum.csv")
    assert header == ["index", "energy", "fprime", "w_weight", "s_weight"]
    assert len(rows) == 5
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert summary["irrelevant_count"] == 11
    assert abs(summary["sum_rule"] + 1.0) < 1e-9
    manifest = json.loads((tmp_path / "spectrum.manifest.json").read_text())
    assert manifest["config"]["graph"] == "lattice:2:4"
    assert "artifact_version" in manifest


def test_scan_command_schema(tmp_path):
    rc = main(["scan", "--graph", "lattice:2:4", "--gamma-range", "0.5:1.5",
               "--points", "7", "--output-dir", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "scan.csv")
    assert header == SCAN_HEADER == SCAN_COLUMNS
    assert len(rows) == 7
    gammas = [float(r[0]) for r in rows]
    assert gammas[0] == 0.5 and gammas[-1] == 1.5
    manifest = json.loads((tmp_path / "scan.manifest.json").read_text())
    assert manifest["config"] == {
        "command": "scan", "graph": "lattice:2:4", "gamma_range": [0.5, 1.5],
        "points": 7, "output_dir": str(tmp_path), "fmt": "csv", "plot": "none"}


def test_scan_command_builds_levels_once(tmp_path):
    level_spectrum.cache_clear()
    rc = main(["scan", "--graph", "lattice:3:6", "--points", "5", "--output-dir", str(tmp_path)])
    assert rc == 0
    assert level_spectrum.cache_info().misses == 1


def test_evolve_command(tmp_path):
    rc = main(["evolve", "--graph", "complete:64", "--gamma", str(1.0 / 64),
               "--time-max", "30", "--points", "61", "--output-dir", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "evolve.csv")
    assert header == ["time", "amplitude_re", "amplitude_im", "probability"]
    assert float(rows[0][3]) == pytest.approx(1.0 / 64.0, abs=1e-9)
    summary = json.loads((tmp_path / "evolve_summary.json").read_text())
    assert summary["p_star"] > 0.9


def test_constants_command(tmp_path):
    rc = main(["constants", "--output-dir", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "constants.csv")
    assert header == ["kind", "j", "d", "size", "a", "value",
                      "error_estimate", "method", "truncation"]
    i_rows = [r for r in rows if r[0] == "I"]
    assert len(i_rows) == 14
    kinds = {r[0] for r in rows}
    assert kinds == {"I", "c", "S", "A", "x0"}


def test_scaling_command_subcritical(tmp_path):
    rc = main(["scaling", "--dim", "2", "--sides", "8,12", "--output-dir", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "scaling_records.csv")
    assert header == ["num_vertices", "gamma_used", "gap", "t_star", "p_star",
                      "runtime_metric"]
    report = json.loads((tmp_path / "scaling_report.json").read_text())
    assert {c["bound_id"].split(":")[0] for c in report["checks"]} == {
        "amp-ceiling-zero-offset", "amp-ceiling-measured-offset", "runtime-floor"}


def test_scaling_command_not_applicable_row(tmp_path, monkeypatch):
    rootless_measured_offsets(monkeypatch)
    rc = main(["scaling", "--dim", "3", "--sides", "6", "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "scaling_report.json").read_text())
    row, = [c for c in report["checks"]
            if c["bound_id"].startswith("amp-ceiling-measured-offset")]
    assert row["applicable"] is False and row["pass"] is False
    assert row["rhs"] is None


def test_scaling_past_the_vertex_cap_is_a_config_error(tmp_path, capsys):
    # the integrals are finite at every d > 2j, so the vertex cap is what stops d = 400
    rc = main(["scaling", "--dim", "400", "--sides", "2", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["type"], err["class"]) == ("config", "ValueError")
    assert err["message"] == "lattice:400:2 has N >= 2**400 > 2**63 - 1"


def test_scaling_command_critical(tmp_path):
    rc = main(["scaling", "--dim", "5", "--sides", "4", "--output-dir", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "scaling_predictions.csv")
    assert header == ["num_vertices", "gamma_used", "e0_measured", "e0_predicted",
                      "e1_measured", "e1_predicted", "fprime0_measured", "fprime_predicted",
                      "p_star", "p_predicted", "t_star", "t_predicted", "window_half_width"]
    assert [r[0] for r in rows] == ["1024"]
    manifest = json.loads((tmp_path / "scaling.manifest.json").read_text())
    assert manifest["config"] == {
        "command": "scaling", "dim": 5, "sides": [4], "output_dir": str(tmp_path),
        "fmt": "csv", "plot": "none"}


def test_critical_command(tmp_path):
    # one level build, shared by the critical search, the four bound suites and the scan
    level_spectrum.cache_clear()
    rc = main(["critical", "--graph", "lattice:3:6", "--points", "11", "--format", "json",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    assert level_spectrum.cache_info().misses == 1
    header, rows = _read_csv(tmp_path / "critical_scan.csv")
    assert header == SCAN_COLUMNS
    assert len(rows) == 11
    payload = json.loads((tmp_path / "critical.json").read_text())
    assert sorted(payload) == ["bounds", "e0", "e1", "gamma_critical", "gamma_reference",
                               "gap", "graph", "scan_center"]
    assert [b["side"] for b in payload["bounds"]] == ["below", "above", "below", "above"]
    for bound in payload["bounds"]:
        assert sorted(bound) == ["all_pass", "checks", "gamma", "gamma_reference",
                                 "graph", "margin", "side"]
        assert bound["graph"] == "lattice:3:6" and bound["all_pass"] is True
        for check in bound["checks"]:
            assert sorted(check) == ["applicable", "bound_id", "lhs", "pass", "rhs", "slack"]


@pytest.mark.parametrize("label, sides", [("lattice:2:8", ["above", "above"]),
                                          ("lattice:3:2", [])])
def test_critical_command_small_lattice(tmp_path, label, sides):
    # below N = 100 the 0.5 ref couplings fall inside the critical margin, and
    # below N = 25 the 2 ref ones too; only the suites that clear it run
    rc = main(["critical", "--graph", label, "--points", "11", "--output-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "critical.json").read_text())
    assert [b["side"] for b in payload["bounds"]] == sides
    for bound in payload["bounds"]:
        assert abs(bound["gamma"] - bound["gamma_reference"]) >= bound["margin"]


def test_validate_command(tmp_path):
    rc = main(["validate", "--oracle-cap", "300", "--seed", "7",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["all_pass"] is True
    ran = [f for f in report["families"] if not f["skipped"]]
    skipped = [f for f in report["families"] if f["skipped"]]
    assert len(ran) >= 2 and len(skipped) >= 1
    assert report["worst_delta"] < 1e-8


def test_validate_fails_on_nan(tmp_path, capsys, monkeypatch):
    # Python's max(0.0, nan) is 0.0; a NaN delta must still fail the family
    calls = itertools.count()
    exact = qwsearch.cli.amplitude
    monkeypatch.setattr(qwsearch.cli, "amplitude",
                        lambda spec, t: math.nan if next(calls) % 2 else exact(spec, t))
    rc = main(["validate", "--oracle-cap", "300", "--seed", "7",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "computation"
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["all_pass"] is False and report["worst_delta"] is None
    ran = [f for f in report["families"] if not f["skipped"]]
    assert ran and all(f["pass"] is False for f in ran)


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{token} in {path}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_json_files_are_strict(tmp_path, monkeypatch):
    # RFC 8259 has no NaN or Infinity, so every JSON file writes a non-finite float as null
    rootless_measured_offsets(monkeypatch)
    calls = itertools.count()
    exact = qwsearch.cli.amplitude
    monkeypatch.setattr(qwsearch.cli, "amplitude",
                        lambda spec, t: math.nan if next(calls) % 2 else exact(spec, t))
    runs = {"d5": ["scaling", "--dim", "5", "--sides", "2,3,4", "--format", "json"],
            "d3": ["scaling", "--dim", "3", "--sides", "6", "--format", "json"],
            "validate": ["validate", "--oracle-cap", "300", "--seed", "7"]}
    assert [main([*args, "--output-dir", str(tmp_path / name)])
            for name, args in runs.items()] == [0, 0, 3]
    payloads = {path.relative_to(tmp_path).as_posix(): _strict_json(path)
                for path in tmp_path.rglob("*.json")}
    assert sorted(payloads) == [
        "d3/scaling.manifest.json", "d3/scaling_records.json", "d3/scaling_report.json",
        "d5/scaling.manifest.json", "d5/scaling_predictions.json", "validate/validate.json"]
    assert None in [row["window_half_width"] for row in payloads["d5/scaling_predictions.json"]]
    assert None in [check["rhs"] for check in payloads["d3/scaling_report.json"]["checks"]]
    assert payloads["validate/validate.json"]["worst_delta"] is None


def test_validate_cap_must_admit_a_family(tmp_path, capsys):
    # 256 is the smallest validation family's N
    err = _usage_error(capsys, ["validate", "--oracle-cap", "255",
                                "--output-dir", str(tmp_path / "none")])
    assert "argument --oracle-cap: expected a value in [256, inf], got '255'" in err
    assert not (tmp_path / "none").exists()
    rc = main(["validate", "--oracle-cap", "256", "--output-dir", str(tmp_path / "three")])
    assert rc == 0
    report = json.loads((tmp_path / "three" / "validate.json").read_text())
    assert [f["graph"] for f in report["families"] if not f["skipped"]] == [
        "complete:256", "hypercube:8", "lattice:2:16"]


def test_figures_command(tmp_path):
    level_spectrum.cache_clear()
    rc = main(["figures", "--output-dir", str(tmp_path)])
    assert rc == 0
    assert level_spectrum.cache_info().misses == 7      # one per figure graph
    names = sorted(os.listdir(tmp_path))
    for stem in ("fig1_complete_1024", "fig2_hypercube_10", "fig3_lattice_5_4",
                 "fig3_lattice_4_6", "fig3_lattice_3_10", "fig3_lattice_2_32",
                 "fig4_secular_2_4", "fig4_poles_2_4"):
        assert f"{stem}.csv" in names
        assert f"{stem}.gp" in names
    header, rows = _read_csv(tmp_path / "fig4_poles_2_4.csv")
    assert header == ["pole_energy", "multiplicity"]
    assert [(float(r[0]), int(r[1])) for r in rows] == [
        (0.0, 1), (2.0, 4), (4.0, 6), (6.0, 4), (8.0, 1)]
    # secular samples avoid the poles and diverge in sign around them
    header, rows = _read_csv(tmp_path / "fig4_secular_2_4.csv")
    energies = np.array([float(r[0]) for r in rows])
    for pole in (0.0, 2.0, 4.0, 6.0, 8.0):
        assert np.min(np.abs(energies - pole)) >= 0.01


# Each command's flags: only what its handler reads.
TABLE_FLAGS = ["--output-dir", "--format", "--plot"]
COMMAND_FLAGS = {
    "constants": ["--output-dir", "--format"],
    "spectrum": [*TABLE_FLAGS, "--graph", "--gamma"],
    "scan": [*TABLE_FLAGS, "--graph", "--gamma-range", "--points"],
    "evolve": [*TABLE_FLAGS, "--graph", "--gamma", "--time-max", "--points"],
    "critical": [*TABLE_FLAGS, "--graph", "--points"],
    "scaling": [*TABLE_FLAGS, "--dim", "--sides"],
    "validate": ["--output-dir", "--seed", "--oracle-cap"],
    "figures": TABLE_FLAGS,
}


def _command_actions():
    """Each command's settable flags as argparse actions, by command name."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.dest != "help"] for name, p in sub.choices.items()}


def test_each_command_takes_only_the_flags_it_reads():
    actions = _command_actions()
    assert {name: sorted(a.option_strings[0] for a in acts) for name, acts in actions.items()} == {
        name: sorted(flags) for name, flags in COMMAND_FLAGS.items()}
    assert sum(map(len, actions.values())) == 36


def test_parser_sets_no_defaults():
    # RunConfig is the one place defaults are written
    for acts in _command_actions().values():
        assert all(a.default is None for a in acts)


@pytest.mark.parametrize("args", [
    ["scan", "--graph", "complete:16", "--seed", "1"],
    ["validate", "--format", "json"],
    ["constants", "--plot", "svg"],
])
def test_unread_flags_are_usage_errors(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# One small run of every command; validate checks the three N = 256 families.
SMALL_RUNS = {
    "constants": ["--format", "json"],
    "spectrum": ["--graph", "lattice:2:8", "--gamma", "0.3", "--format", "json",
                 "--plot", "svg"],
    "scan": ["--graph", "complete:64", "--gamma-range", "0.01:0.03", "--points", "5",
             "--plot", "gnuplot"],
    "evolve": ["--graph", "lattice:3:6", "--gamma", "0.2", "--points", "33", "--plot", "svg"],
    "critical": ["--graph", "lattice:3:6", "--points", "11", "--format", "json"],
    "scaling": ["--dim", "3", "--sides", "6,8", "--plot", "svg"],
    "validate": ["--oracle-cap", "300", "--seed", "7"],
    "figures": ["--format", "json", "--plot", "svg"],
}
# The settings each command's manifest records: those its flags can set.
MANIFEST_KEYS = {
    "constants": {"fmt"},
    "spectrum": {"fmt", "plot", "graph", "gamma"},
    "scan": {"fmt", "plot", "graph", "gamma_range", "points"},
    "evolve": {"fmt", "plot", "graph", "gamma", "time_max", "time_points"},
    "critical": {"fmt", "plot", "graph", "points"},
    "scaling": {"fmt", "plot", "dim", "sides"},
    "validate": {"seed", "oracle_cap"},
    "figures": {"fmt", "plot"},
}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Every file of each small run, run twice from a relative output directory."""
    runs = []
    for _ in range(2):
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp_path_factory.mktemp("run"))
            with contextlib.redirect_stdout(io.StringIO()):
                for command, args in SMALL_RUNS.items():
                    assert main([command, *args, "--output-dir", command]) == 0, command
            runs.append({command: {name: (Path(command) / name).read_bytes()
                                   for name in sorted(os.listdir(command))}
                         for command in SMALL_RUNS})
    return runs


def test_every_command_is_byte_reproducible(small_runs):
    first, second = small_runs
    assert set(first) == set(COMMAND_FLAGS)
    for command in SMALL_RUNS:
        assert len(first[command]) >= 2, command
        assert first[command] == second[command], command


def test_manifest_records_only_settable_fields(small_runs):
    for command, files in small_runs[0].items():
        manifest = json.loads(files[f"{command}.manifest.json"])
        config = manifest["config"]
        assert set(config) == {"command", "output_dir", *MANIFEST_KEYS[command]}, command
        assert (config["command"], config["output_dir"]) == (command, command)
        assert manifest["outputs"] == sorted(set(files) - {f"{command}.manifest.json"})


def test_handlers_write_nothing(tmp_path):
    # a handler yields (file name, text); main alone joins the output directory and writes
    for command, args in SMALL_RUNS.items():
        flags = vars(_build_parser().parse_args([command, *args, "--output-dir", str(tmp_path)]))
        handler = flags.pop("handler")
        cfg = RunConfig(**{k: v for k, v in flags.items() if v is not None})
        names = [name for name, _ in handler(cfg)]
        assert names and all(os.path.basename(name) == name for name in names), command
        assert os.listdir(tmp_path) == [], command


def test_every_handler_is_registered_once():
    # the subparser is the one registry: each command parses to its own _cmd_ function
    import qwsearch.cli as cli_mod

    parser = _build_parser()
    handlers = {command: parser.parse_args([command, *args]).handler
                for command, args in SMALL_RUNS.items()}
    assert all(callable(handler) for handler in handlers.values())
    assert handlers == {command: getattr(cli_mod, f"_cmd_{command}") for command in COMMAND_FLAGS}
    assert {handler.__name__ for handler in handlers.values()} == {
        name for name in vars(cli_mod) if name.startswith("_cmd_")}


@pytest.mark.parametrize("args, flag", [
    (["scaling", "--dim", "3", "--sides", "\uff16"], "--sides"),       # full-width six
    (["scaling", "--dim", "3", "--sides", "4,,6"], "--sides"),
    (["scaling", "--dim", "\uff13", "--sides", "6"], "--dim"),
    (["scan", "--graph", "complete:16", "--points", "\uff15"], "--points"),
    (["scan", "--graph", "complete:16", "--gamma-range", "x:1"], "--gamma-range"),
    (["scan", "--graph", "complete:16", "--gamma-range", ""], "--gamma-range"),
    (["scan", "--graph", "complete:16", "--gamma-range", "1:2:3"], "--gamma-range"),
    (["spectrum", "--graph", "complete:16", "--gamma", "\uff10.\uff11"], "--gamma"),
    (["evolve", "--graph", "complete:16", "--gamma", "0.1", "--time-max", "\u0663"],
     "--time-max"),                                                   # Arabic-Indic three
    (["validate", "--seed", "\u0667"], "--seed"),
    # an integer flag is written as a graph-spec field is, -?[0-9]+
    (["scaling", "--dim", "0_5", "--sides", "6"], "--dim"),
    (["scaling", "--dim", "3", "--sides", "1_0"], "--sides"),
    (["scaling", "--dim", "3", "--sides", "+4"], "--sides"),
    (["scaling", "--dim", "3", "--sides", " 4"], "--sides"),
    (["scaling", "--dim", "3", "--sides", "4,6 "], "--sides"),
    (["scan", "--graph", "complete:16", "--points", "1_1"], "--points"),
    (["validate", "--seed", "+7"], "--seed"),
    (["validate", "--oracle-cap", "\t300"], "--oracle-cap"),
    # a float flag takes no "_" and no surrounding whitespace
    (["spectrum", "--graph", "complete:16", "--gamma", "1_0.5"], "--gamma"),
    (["spectrum", "--graph", "complete:16", "--gamma", " 0.5"], "--gamma"),
    (["scan", "--graph", "complete:16", "--gamma-range", "0.1:0.2\n"], "--gamma-range"),
    (["evolve", "--graph", "complete:16", "--gamma", "0.1", "--time-max", "1_0"],
     "--time-max"),
])
def test_malformed_flag_values_are_usage_errors(tmp_path, capsys, args, flag):
    # int() and float() read any Unicode decimal digit, "_" between digits and
    # surrounding whitespace, and int() a leading "+"; flag values take none of these
    with pytest.raises(SystemExit) as exc:
        main([*args, "--output-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: expected" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_follow_the_umask(tmp_path, umask, mode):
    # mkstemp creates its files 0600; each artifact gets the mode open(path, "w") would
    old = os.umask(umask)
    try:
        rc = main(["spectrum", "--graph", "complete:16", "--gamma", "0.0625",
                   "--output-dir", str(tmp_path)])
    finally:
        os.umask(old)
    assert rc == 0
    names = sorted(os.listdir(tmp_path))
    assert names == ["spectrum.csv", "spectrum.manifest.json", "spectrum_summary.json"]
    for name in names:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


def test_main_leaves_the_umask_alone(tmp_path, monkeypatch):
    # the kernel applies the umask when each file is created, so main never calls
    # os.umask, which reads the process-wide mask only by setting it
    def umask(mask):
        raise AssertionError("os.umask called")
    monkeypatch.setattr(os, "umask", umask)
    rc = main(["spectrum", "--graph", "complete:16", "--gamma", "0.0625",
               "--output-dir", str(tmp_path)])
    assert rc == 0


def test_temp_name_collision_keeps_the_other_file(tmp_path, monkeypatch, capsys):
    # a temp name someone else holds is never unlinked, and nothing is written
    taken = []

    def collide(path, flags, mode=0o777):
        Path(path).write_text("not ours")
        taken.append(path)
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)
    monkeypatch.setattr(os, "open", collide)
    rc = main(["spectrum", "--graph", "complete:16", "--gamma", "0.0625",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"]["class"] == "FileExistsError"
    assert len(taken) == 1
    assert os.listdir(tmp_path) == [os.path.basename(taken[0])]
    assert Path(taken[0]).read_text() == "not ours"


def test_readme_examples_parse():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        block = re.search(r"## Command-line interface.*?```sh\n(.*?)```", fh.read(), re.S)[1]
    lines = [shlex.split(ln, comments=True) for ln in block.splitlines()]
    assert len(lines) >= 8 and all(words[0] == "qwsearch" for words in lines)
    parser = _build_parser()
    assert {parser.parse_args(words[1:]).command for words in lines} == set(COMMAND_FLAGS)


@pytest.mark.parametrize("label", ["complete:\u00b2", "complete:\u0663",
                                   "lattice:\uff12:\uff14"])
def test_graph_spec_takes_ascii_digits_only(tmp_path, capsys, label):
    # str.isdigit accepts a superscript two, an Arabic-Indic three and full-width digits
    rc = main(["spectrum", "--graph", label, "--gamma", "1", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["type"], err["class"]) == ("config", "GraphSpecError")
    assert "expected an integer at position 1" in err["message"]
    assert os.listdir(tmp_path) == []


# The N of the last two has more than Python's 4300 printable digits; like
# every hypercube and lattice, each is refused from its exponent.
@pytest.mark.parametrize("label", ["hypercube:63", "lattice:32:4", "lattice:21:8",
                                   "complete:9223372036854775808", "lattice:40:4",
                                   "hypercube:100000000", "lattice:100000000:2"])
def test_vertex_count_past_int64_is_a_config_error(tmp_path, capsys, label):
    rc = main(["spectrum", "--graph", label, "--gamma", "1", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["type"], err["class"], err["graph"]) == ("config", "ValueError", label)
    assert "2**63 - 1" in err["message"]


@pytest.mark.parametrize("label", ["hypercube:62", "lattice:31:4", "lattice:62:2",
                                   "complete:9223372036854775807"])
def test_vertex_count_up_to_int64_solves(tmp_path, label):
    rc = main(["spectrum", "--graph", label, "--gamma", "1", "--output-dir", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert abs(summary["sum_rule"] + 1.0) < 1e-9


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QWSEARCH_OUTPUT_DIR", str(tmp_path))
    rc = main(["spectrum", "--graph", "complete:16", "--gamma", "0.0625"])
    assert rc == 0
    assert (tmp_path / "spectrum.csv").exists()


def test_config_error_exit_code(tmp_path, capsys):
    rc = main(["scan", "--graph", "lattice:1:1", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "config"


def test_gamma_validation_exit_code(tmp_path, capsys):
    # non-positive, non-finite and out-of-range couplings and times are configuration errors
    for args in (["spectrum", "--gamma", "-1.0"], ["spectrum", "--gamma", "nan"],
                 ["spectrum", "--gamma", "inf"], ["spectrum", "--gamma", "1e-300"],
                 ["spectrum", "--gamma", "1e300"],
                 ["evolve", "--gamma", "0.1", "--time-max", "nan"],
                 ["evolve", "--gamma", "0.1", "--time-max", "inf"],
                 ["scan", "--gamma-range", "0.1:inf"], ["scan", "--gamma-range", "nan:1"]):
        rc = main([*args, "--graph", "complete:16", "--output-dir", str(tmp_path)])
        assert rc == 2, args
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "config", args
    assert os.listdir(tmp_path) == []


def _usage_error(capsys, args) -> str:
    """stderr of a run that argparse rejects with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_critical_points_checked_before_writing(tmp_path, capsys):
    err = _usage_error(capsys, ["critical", "--graph", "lattice:3:6", "--points", "1",
                                "--output-dir", str(tmp_path)])
    assert "argument --points: expected a value in [2, 1000000], got '1'" in err
    assert os.listdir(tmp_path) == []


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    err = _usage_error(capsys, ["validate", "--seed", "-1", "--output-dir", str(tmp_path)])
    assert "argument --seed: expected a value in [0, inf], got '-1'" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [["scan"], ["critical"], ["evolve", "--gamma", "0.0625"]])
def test_points_above_cap_are_config_errors(tmp_path, capsys, args):
    # checked before any work; without the cap a grid of 10^14 points fails to allocate
    err = _usage_error(capsys, [*args, "--graph", "complete:16", "--points", "100000000000000",
                                "--output-dir", str(tmp_path)])
    assert "argument --points: expected a value in [2, 1000000], got '100000000000000'" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, flag, rejected, accepted", [
    (["scan", "--graph", "complete:16"], "--points", ["1", "1000001"], ["2", "1000000"]),
    (["critical", "--graph", "complete:16"], "--points", ["1", "1000001"], ["2", "1000000"]),
    (["evolve", "--graph", "complete:16", "--gamma", "1"], "--points", ["1", "1000001"],
     ["2", "1000000"]),
    (["validate"], "--seed", ["-1"], ["0"]),
    (["validate"], "--oracle-cap", ["255"], ["256"]),
], ids=["scan", "critical", "evolve", "seed", "oracle-cap"])
def test_parser_range_boundaries(capsys, command, flag, rejected, accepted):
    # the parser alone: no handler runs
    parser = _build_parser()
    for value in accepted:
        assert int(value) in vars(parser.parse_args([*command, flag, value])).values()
    for value in rejected:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*command, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a value in" in capsys.readouterr().err


def test_defaults_pass_their_flag_types():
    # RunConfig's defaults bypass argparse, so each must be a value its flag's type takes
    defaults = {f.name: f.default for f in fields(RunConfig)}
    checked = set()
    for acts in _command_actions().values():
        for a in acts:
            if a.type is not None and defaults.get(a.dest) is not None:
                assert a.type(str(defaults[a.dest])) == defaults[a.dest], a.dest
                checked.add(a.dest)
    assert checked == {"points", "time_points", "seed", "oracle_cap"}


@pytest.mark.parametrize("label, message", [
    ("lattice:10:100", "2**63 - 1"),
    ("lattice:10:60", "847660528 axis-index multisets"),
    ("hypercube:1000000000000", "2**1000000000000 > 2**63 - 1"),
    ("lattice:1000000000000:2", "2**1000000000000 > 2**63 - 1"),
], ids=["past-int64", "past-level-cap", "hypercube-exponent", "lattice-exponent"])
def test_oversized_level_build_is_refused_before_allocating(tmp_path, label, message):
    # in a child whose address space is capped at 1 GB, a build that started
    # allocating would die with MemoryError (exit 3), not be killed for memory
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from qwsearch.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "spectrum", "--graph", label, "--gamma", "1",
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=_src_env())
    assert proc.returncode == 2, proc.stderr
    err = json.loads(proc.stderr)["error"]
    assert (err["type"], err["graph"]) == ("config", label)
    assert message in err["message"]
    assert os.listdir(tmp_path) == []


def test_computation_error_exit_code(tmp_path, capsys, monkeypatch):
    import qwsearch.cli as cli_mod

    def boom(cfg):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "_cmd_figures", boom)
    rc = main(["figures", "--output-dir", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "computation"


def test_computation_error_names_graph(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(qwsearch.secular, "_MAX_ITER", 1)
    rc = main(["spectrum", "--graph", "lattice:2:16", "--gamma", "1.0",
               "--output-dir", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["type"], err["class"], err["graph"]) == (
        "computation", "BracketError", "lattice:2:16")


def test_write_csv_cell_bytes(tmp_path):
    # criterion 12 compares artifacts byte for byte, so every cell kind keeps its text
    rows = [[3, 0.1, np.float64(1.0 / 3.0), np.int64(-7), float("nan")],
            [4, -2.5, np.float64(-0.0), np.int64(2**62), float("inf")],
            [10**20, float("-inf"), -0.0, np.float32(0.1), "lattice:2:4"],
            [True, 5e-324, np.int32(2), 1e300, np.uint8(200)]]
    path = write_csv(str(tmp_path / "cells.csv"), ["a", "b", "c", "d", "e"], rows)
    with open(path) as fh:
        assert fh.read() == (
            "a,b,c,d,e\n"
            "3,0.10000000000000001,0.33333333333333331,-7,nan\n"
            "4,-2.5,-0,4611686018427387904,inf\n"
            "100000000000000000000,-inf,-0,0.10000000149011612,lattice:2:4\n"
            "1,4.9406564584124654e-324,2,1.0000000000000001e+300,200\n")


def test_write_csv_none_is_an_empty_cell(tmp_path):
    # the constant table leaves j, size and a empty where they do not apply
    rows = [[None, 1, None], ["I", None, 0.5]]
    path = write_csv(str(tmp_path / "none.csv"), ["a", "b", "c"], rows)
    with open(path) as fh:
        assert fh.read() == "a,b,c\n,1,\nI,,0.5\n"


def test_json_mirror(tmp_path):
    rc = main(["scan", "--graph", "complete:64", "--gamma-range", "0.01:0.02",
               "--points", "3", "--format", "json", "--output-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "scan.json").read_text())
    assert len(payload) == 3
    header, rows = _read_csv(tmp_path / "scan.csv")
    for row, obj in zip(rows, payload):
        assert float(row[0]) == obj["gamma"]


def test_svg_plot(tmp_path):
    rc = main(["scan", "--graph", "complete:64", "--gamma-range", "0.01:0.02",
               "--points", "5", "--plot", "svg", "--output-dir", str(tmp_path)])
    assert rc == 0
    svg = (tmp_path / "scan.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_svg_plot_of_one_row(tmp_path):
    # one row: the x range collapses, and every series is one point on the left axis
    rc = main(["scaling", "--dim", "5", "--sides", "4", "--plot", "svg",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    points = re.findall(r'points="([^"]*)"', (tmp_path / "scaling_predictions.svg").read_text())
    assert len(points) == 12 and all(re.fullmatch(r"60\.00,[0-9.]+", p) for p in points)
    # one finite value: the y range collapses too, to the bottom left corner
    assert 'points="60.00,540.00"' in qwsearch.cli._svg_text(["x", "y"], [[3.0, 2.0]])


def _src_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_module_entry_point(tmp_path):
    env = _src_env()
    proc = subprocess.run(
        [sys.executable, "-m", "qwsearch", "spectrum", "--graph", "complete:8",
         "--gamma", "0.125", "--output-dir", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (tmp_path / "spectrum.csv").exists()


def test_runtime_loads_no_scipy(tmp_path):
    # The constants layer, the analytic critical couplings and the constants
    # command run on numpy alone, so a fresh interpreter never imports scipy.
    script = "\n".join([
        "import sys",
        "import qwsearch",
        "from qwsearch.cli import main, parse_graph_spec",
        "qwsearch.build_constant_table()",
        "for label in ('lattice:2:64', 'lattice:3:8', 'lattice:4:6', 'lattice:5:4'):",
        "    qwsearch.critical_reference(parse_graph_spec(label))",
        f"assert main(['constants', '--output-dir', {str(tmp_path)!r}]) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "constants.csv").exists()
    assert proc.stdout.strip().splitlines()[-1] == "[]"
