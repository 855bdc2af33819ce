"""Command-line surface: reproducible CSV/JSON artifacts for every computation.

Commands: constants, spectrum, scan, evolve, critical, scaling, validate,
figures.  Every run writes a manifest with the fully resolved configuration
next to its outputs, all files are written atomically, and identical
configurations produce byte-identical artifacts.  Floats are serialized
with 17 significant digits so CSV round-trips are lossless.

Exit codes: 0 success, 2 configuration error, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import __version__
from .analysis import (
    PredictionRecord,
    ScalingRecord,
    ScanRecord,
    bound_suites,
    coupling_scan_center,
    critical_predictions,
    critical_reference,
    find_critical_gamma,
    scan_gamma,
    subcritical_scaling,
)
from .constants import ConstantEntry, build_constant_table
from .evolution import (
    DEFAULT_ORACLE_CAP,
    DenseReference,
    amplitude,
    default_time_horizon,
    find_optimal_time,
    trace,
)
from .graphs import INTEGER_TEXT, GraphFamily, GraphSpecError, level_spectrum, parse_graph_spec
from .secular import lowest_two, secular_value, solve_spectrum

OUTPUT_DIR_ENV = "QWSEARCH_OUTPUT_DIR"

# Datasets behind the four standard figures: coupling scans for the high-
# dimensional families and each lattice dimension near N ~ 1000, plus the
# secular function of the 16-vertex square lattice at gamma = 1.
FIGURE_SCANS = [
    ("fig1_complete_1024", "complete:1024"),
    ("fig2_hypercube_10", "hypercube:10"),
    ("fig3_lattice_5_4", "lattice:5:4"),
    ("fig3_lattice_4_6", "lattice:4:6"),
    ("fig3_lattice_3_10", "lattice:3:10"),
    ("fig3_lattice_2_32", "lattice:2:32"),
]
FIGURE_SECULAR_GRAPH = "lattice:2:4"
VALIDATION_FAMILIES = (
    "complete:256", "hypercube:8", "lattice:2:16",
    "lattice:3:8", "lattice:4:6", "lattice:5:4",
)
# Most grid points `--points` may ask of scan, critical and evolve: a scan
# CSV of 10^6 rows is about 180 MB.
_MAX_POINTS = 10**6


@dataclass
class RunConfig:
    command: str
    graph: str | None = None
    gamma: float | None = None
    gamma_range: tuple[float, float] | None = None
    points: int = 101
    time_max: float | None = None
    time_points: int = 512
    dim: int | None = None
    sides: tuple[int, ...] | None = None
    output_dir: str = field(default_factory=lambda: os.environ.get(OUTPUT_DIR_ENV, "."))
    fmt: str = "csv"
    plot: str = "none"
    seed: int = 0
    oracle_cap: int = DEFAULT_ORACLE_CAP


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _cell_format(kind: type) -> str:
    if kind is type(None):
        return "%.0s"       # an empty cell
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    return "%d" if issubclass(kind, (int, np.integer)) else "%s"


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    # A fresh name, created exclusively at the mode open(path, "w") gives: the
    # kernel takes the umask from 0666.
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows: list[list]) -> str:
    # Floats print with 17 significant digits and integers in full; rows of the
    # same cell types share one format, applied to the whole row at once.
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        cells = tuple(row)
        # from a list: a tuple built from an iterator is resized, and CPython's tuple
        # free list would keep one per row (up to 2000, about 150 KB)
        kinds = tuple([type(cell) for cell in cells])
        if kinds not in formats:
            formats[kinds] = ",".join(map(_cell_format, kinds))
        lines.append(formats[kinds] % cells)
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list[str], rows: list[list]) -> str:
    _atomic_write(path, _csv_text(header, rows))
    return path


def _json_text(payload) -> str:
    # RFC 8259 has no NaN or Infinity: a round trip reads each non-finite float back as
    # null (parse_constant), and every other value as itself (floats print as repr)
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _table(cls, records) -> tuple[list[str], list[tuple]]:
    """A record dataclass as a table: its field names, then one row per record."""
    return [f.name for f in fields(cls)], [astuple(r) for r in records]


def _emit_table(cfg: RunConfig, stem: str, header: list[str], rows: list[list]):
    """The table's files as (name, text): the CSV, its JSON mirror and its plots."""
    yield f"{stem}.csv", _csv_text(header, rows)
    if cfg.fmt == "json":
        yield f"{stem}.json", _json_text([dict(zip(header, row)) for row in rows])
    if cfg.plot == "gnuplot" or cfg.command == "figures":
        yield f"{stem}.gp", _gnuplot_text(stem, header)
    if cfg.plot == "svg":
        yield f"{stem}.svg", _svg_text(header, rows)


def _gnuplot_text(stem: str, header: list[str]) -> str:
    cols = ", \\\n".join(
        f"    '{stem}.csv' using 1:{i + 2} with lines title '{name}'"
        for i, name in enumerate(header[1:])
    )
    return (
        "set datafile separator comma\n"
        "set key autotitle columnhead\n"
        "set key outside\n"
        "set terminal svg size 900,600\n"
        f"set output '{stem}.svg'\n"
        f"set xlabel '{header[0]}'\n"
        f"plot \\\n{cols}\n"
    )


def _svg_text(header: list[str], rows: list[list]) -> str:
    """Minimal dependency-free polyline chart rendered from the CSV rows."""
    width, height, pad = 900, 600, 60
    xs = [float(r[0]) for r in rows]
    series = [[float(r[i]) for r in rows] for i in range(1, len(header))]
    finite = [v for s in series for v in s if math.isfinite(v)]
    x0, x1 = min(xs), max(xs)
    y0, y1 = (min(finite), max(finite)) if finite else (0.0, 1.0)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">{header[0]}</text>',
    ]
    for k, s in enumerate(series):
        pts = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in zip(xs, s) if math.isfinite(v))
        color = palette[k % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{width - pad + 5}" y="{pad + 16 * k}" font-size="12" '
                     f'fill="{color}">{header[k + 1]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

SCAN_HEADER = [f.name for f in fields(ScanRecord)]


def _cmd_constants(cfg: RunConfig):
    yield from _emit_table(cfg, "constants", *_table(ConstantEntry, build_constant_table()))


def _cmd_spectrum(cfg: RunConfig):
    graph = parse_graph_spec(cfg.graph)
    spec = solve_spectrum(level_spectrum(graph), cfg.gamma)
    header = ["index", "energy", "fprime", "w_weight", "s_weight"]
    rows = [[i, spec.energies[i], spec.fprimes[i], spec.w_weights[i], spec.s_weights[i]]
            for i in range(spec.num_roots)]
    yield from _emit_table(cfg, "spectrum", header, rows)
    yield "spectrum_summary.json", _json_text({
        "graph": graph.label(),
        "gamma": cfg.gamma,
        "num_roots": spec.num_roots,
        "irrelevant_count": spec.irrelevant_count,
        "sum_rule": spec.sum_rule(),
    })


def _scan_table(cfg: RunConfig, graph: GraphFamily, stem: str, center: float | None = None):
    """A coupling scan on [0.5, 1.5] x center (by default the graph's scan center), or on
    --gamma-range when given."""
    center = coupling_scan_center(level_spectrum(graph)) if center is None else center
    lo, hi = cfg.gamma_range or (0.5 * center, 1.5 * center)
    yield from _emit_table(cfg, stem, *_table(ScanRecord, scan_gamma(graph, lo, hi, cfg.points)))


def _cmd_scan(cfg: RunConfig):
    graph = parse_graph_spec(cfg.graph)
    yield from _scan_table(cfg, graph, "scan")


def _cmd_evolve(cfg: RunConfig):
    graph = parse_graph_spec(cfg.graph)
    spec = solve_spectrum(level_spectrum(graph), cfg.gamma)
    t_max = cfg.time_max if cfg.time_max is not None else default_time_horizon(graph.num_vertices)
    tr = trace(spec, t_max, cfg.time_points)
    header = ["time", "amplitude_re", "amplitude_im", "probability"]
    rows = [[t, a.real, a.imag, p] for t, a, p in zip(tr.times, tr.amplitudes, tr.probabilities)]
    yield from _emit_table(cfg, "evolve", header, rows)
    t_star, p_star = find_optimal_time(spec, t_max)
    yield "evolve_summary.json", _json_text({
        "graph": graph.label(), "gamma": cfg.gamma, "t_max": t_max,
        "t_star": t_star, "p_star": p_star,
    })


def _checks_payload(checks) -> list[dict]:
    return [{"pass" if k == "passed" else k: v for k, v in asdict(c).items()} for c in checks]


def _cmd_critical(cfg: RunConfig):
    graph = parse_graph_spec(cfg.graph)
    spectrum = level_spectrum(graph)
    gc = find_critical_gamma(graph)
    e0, e1, _, _ = lowest_two(spectrum, gc)
    payload = {
        "graph": graph.label(),
        "gamma_critical": gc,
        "gap": e1 - e0,
        "e0": e0,
        "e1": e1,
        "scan_center": coupling_scan_center(spectrum),
    }
    if graph.kind == "lattice" and graph.dim >= 2:
        payload["gamma_reference"] = critical_reference(graph)
        payload["bounds"] = [{**asdict(r), "checks": _checks_payload(r.checks),
                              "all_pass": r.all_pass()} for r in bound_suites(graph)]
    yield "critical.json", _json_text(payload)
    yield from _scan_table(cfg, graph, "critical_scan", gc)


def _cmd_scaling(cfg: RunConfig):
    d = cfg.dim
    sides = list(cfg.sides)
    if d >= 4:
        yield from _emit_table(cfg, "scaling_predictions",
                               *_table(PredictionRecord, critical_predictions(d, sides)))
    else:
        report = subcritical_scaling(d, sides)
        yield from _emit_table(cfg, "scaling_records", *_table(ScalingRecord, report.records))
        yield "scaling_report.json", _json_text({
            "dim": report.dim,
            "x0_at_zero": report.x0_at_zero,
            "checks": _checks_payload(report.checks),
        })


def _cmd_validate(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    results = []
    worst = 0.0
    for label in VALIDATION_FAMILIES:
        graph = parse_graph_spec(label)
        if graph.num_vertices > cfg.oracle_cap:
            results.append({"graph": graph.label(), "skipped": True,
                            "reason": f"N={graph.num_vertices} above oracle cap"})
            continue
        spectrum = level_spectrum(graph)
        center = coupling_scan_center(spectrum)
        horizon = default_time_horizon(graph.num_vertices)
        deltas = np.zeros(4)        # amplitude, eigenvalue, w weight, s weight
        for _ in range(10):
            gamma = float(rng.uniform(center / 4.0, 4.0 * center))
            w_index = int(rng.integers(0, graph.num_vertices))
            dense = DenseReference(graph, gamma, w_index, cap=cfg.oracle_cap)
            spec = solve_spectrum(spectrum, gamma)
            amp = [abs(dense.amplitude(t) - amplitude(spec, t))
                   for t in rng.uniform(0.0, horizon, 2)]
            ref = _clustered(dense.eigenvalues, dense.w_overlaps_sq(), dense.s_overlaps_sq())
            got = _clustered(
                np.concatenate([spec.energies, np.repeat(gamma * spectrum.energies,
                                                         spectrum.multiplicities - 1)]),
                np.concatenate([spec.w_weights, np.zeros(spec.irrelevant_count)]),
                np.concatenate([spec.s_weights, np.zeros(spec.irrelevant_count)]))
            levels = np.abs(ref - got).max(axis=1) if ref.shape == got.shape else [np.inf] * 3
            # np.max and np.maximum keep a NaN, which Python's max(0.0, nan) drops
            deltas = np.maximum(deltas, np.r_[np.max(amp), levels])
        family_worst = float(deltas.max())
        worst = float(np.maximum(worst, family_worst))
        max_amp, max_eig, max_w, max_s = deltas.tolist()
        results.append({"graph": graph.label(), "skipped": False, "pairs": 20,
                        "max_amplitude_delta": max_amp, "max_eigenvalue_delta": max_eig,
                        "max_w_weight_delta": max_w, "max_s_weight_delta": max_s,
                        "pass": family_worst < 1e-8})
    payload = {"seed": cfg.seed, "oracle_cap": cfg.oracle_cap,
               "worst_delta": worst, "families": results,
               "all_pass": all(r.get("pass", True) for r in results)}
    yield "validate.json", _json_text(payload)
    if not payload["all_pass"]:
        raise RuntimeError(f"oracle validation failed; see validate.json in {cfg.output_dir}")


def _clustered(energies: np.ndarray, w: np.ndarray, s: np.ndarray, tol: float = 1e-7):
    """Rows (energy, w weight, s weight) aggregated over near-degenerate eigenvalue clusters.

    Dense eigenvectors of a degenerate level mix arbitrarily, so only
    cluster-aggregated overlaps are basis-independent comparands.
    """
    order = np.argsort(energies)
    e, w, s = energies[order], w[order], s[order]
    groups = np.split(np.arange(len(e)), np.flatnonzero(np.diff(e) > tol) + 1)
    return np.array([[e[g].mean(), w[g].sum(), s[g].sum()] for g in groups]).T


def _cmd_figures(cfg: RunConfig):
    for stem, label in FIGURE_SCANS:
        yield from _scan_table(cfg, parse_graph_spec(label), stem)
    graph = parse_graph_spec(FIGURE_SECULAR_GRAPH)
    spectrum = level_spectrum(graph)
    poles = 1.0 * spectrum.energies
    rows = []
    for e in np.linspace(-1.5, 9.5, 1101):
        if np.min(np.abs(poles - e)) < 0.01:
            continue
        rows.append([float(e), secular_value(spectrum, 1.0, float(e))])
    yield from _emit_table(cfg, "fig4_secular_2_4", ["energy", "secular_value"], rows)
    pole_rows = [[float(p), int(m)] for p, m in zip(poles, spectrum.multiplicities)]
    yield from _emit_table(cfg, "fig4_poles_2_4", ["pole_energy", "multiplicity"], pole_rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _numbers(kind: type, sep: str | None = None, count: int | None = None,
             lo: float = -math.inf, hi: float = math.inf):
    """An argparse type reading one `kind` value, or with `sep` a tuple of `count` (any
    number when None), each in [lo, hi].  An int is written as a graph-spec field is
    (INTEGER_TEXT), and a float is ASCII text without "_" or whitespace: int() and
    float() take both, and any Unicode digit."""
    grammar, rule = ((INTEGER_TEXT, f"as {INTEGER_TEXT.pattern}") if kind is int
                     else (re.compile(r"[^_\s]+"), "in ASCII without '_' or whitespace"))

    def read(text: str):
        parts = text.split(sep) if sep else [text]
        try:
            if not (text.isascii() and len(parts) == (count or len(parts))
                    and all(map(grammar.fullmatch, parts))):
                raise ValueError
            values = tuple(map(kind, parts))
        except ValueError:
            what = (f"{count or 'one or more'} {kind.__name__}s joined by {sep!r}"
                    if sep else f"one {kind.__name__}")
            raise argparse.ArgumentTypeError(f"expected {what} {rule}, got {text!r}") from None
        if any(value < lo or value > hi for value in values):     # NaN goes on to the library
            raise argparse.ArgumentTypeError(f"expected a value in [{lo}, {hi}], got {text!r}")
        return values if sep else values[0]
    return read


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwsearch",
        description="Spectral experiments for quantum-walk spatial search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    points = _numbers(int, lo=2, hi=_MAX_POINTS)

    # Each command takes only the flags it reads; defaults live in RunConfig alone.
    def command(name, handler, summary, table=True, plot=True, graph=False, gamma=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--output-dir")
        if table:
            p.add_argument("--format", choices=("csv", "json"), dest="fmt")
        if plot:
            p.add_argument("--plot", choices=("none", "gnuplot", "svg"))
        if graph:
            p.add_argument("--graph", required=True,
                           help="complete:<N> | hypercube:<n> | lattice:<d>:<L>")
        if gamma:
            p.add_argument("--gamma", type=_numbers(float), required=True)
        return p

    command("constants", _cmd_constants, "emit the analytic constant table", plot=False)
    command("spectrum", _cmd_spectrum, "solve one rank-one spectrum", graph=True, gamma=True)
    p = command("scan", _cmd_scan, "gap and overlaps over a coupling window", graph=True)
    p.add_argument("--gamma-range", type=_numbers(float, ":", 2),
                   help="LO:HI, defaults to 0.5x..1.5x the scan center")
    p.add_argument("--points", type=points)
    p = command("evolve", _cmd_evolve, "success amplitude over time", graph=True, gamma=True)
    p.add_argument("--time-max", type=_numbers(float))
    p.add_argument("--points", type=points, dest="time_points")
    p = command("critical", _cmd_critical, "locate the critical coupling; lattice bound suites",
                graph=True)
    p.add_argument("--points", type=points)
    p = command("scaling", _cmd_scaling, "N-scaling study at the measured critical coupling")
    p.add_argument("--dim", type=_numbers(int), required=True)
    p.add_argument("--sides", type=_numbers(int, ","), required=True,
                   help="comma-separated side lengths")
    p = command("validate", _cmd_validate, "spectral path against the dense oracle",
                table=False, plot=False)
    p.add_argument("--seed", type=_numbers(int, lo=0))
    # a cap below the smallest validation family's N would admit none
    smallest = min(parse_graph_spec(label).num_vertices for label in VALIDATION_FAMILIES)
    p.add_argument("--oracle-cap", type=_numbers(int, lo=smallest))
    command("figures", _cmd_figures, "emit the standard figure datasets and plot scripts")
    return parser


def _error_json(kind: str, exc: BaseException, graph: str | None = None) -> str:
    error = {"type": kind, "class": type(exc).__name__, "message": str(exc)}
    if graph is not None:
        error["graph"] = graph
    return json.dumps({"error": error}, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    handler = flags.pop("handler")
    cfg = RunConfig(**{k: v for k, v in flags.items() if v is not None})
    paths: list[str] = []
    try:
        for name, text in handler(cfg):
            paths.append(os.path.join(cfg.output_dir, name))
            _atomic_write(paths[-1], text)
    except ValueError as exc:
        print(_error_json("config", exc, cfg.graph), file=sys.stderr)
        return 2
    except Exception as exc:
        print(_error_json("computation", exc, cfg.graph), file=sys.stderr)
        return 3
    _atomic_write(os.path.join(cfg.output_dir, f"{cfg.command}.manifest.json"), _json_text({
        "artifact_version": __version__,
        # the command and the resolved value of every setting its flags can set
        "config": {k: v for k, v in asdict(cfg).items() if k in flags},
        "outputs": sorted(os.path.basename(p) for p in paths),
    }))
    for path in paths:
        print(path)
    return 0
