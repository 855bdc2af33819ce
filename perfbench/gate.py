"""Outside-in correctness gate for benchmark tasks.

Every check here is written against the mathematical definitions, never
through `qwsearch.secular`: the secular function is re-evaluated with
`math.fsum`, roots and weights are refined at 40 digits with mpmath from
the level energies and multiplicities alone, and small graphs are compared
with the dense oracle. Tolerances are the tier-1 ones.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import libmp

from qwsearch import DenseReference

SUM_TOL = 1e-9          # sum rules and |amp(0)| sqrt(N)
DENSE_TOL = 1e-8        # agreement with the dense oracle
RESIDUAL_TOL = 1e-10    # |F(E) - 1| at a returned root
MP_REL_TOL = 1e-8       # relative error against the 40-digit refinement
ENERGY_SUM_REL_TOL = 1e-9
DENSE_CAP = 1296        # largest N the `validate` command diagonalizes

# The 40-digit refinement costs about 2 K multiprecision terms per root, so
# the sample shrinks with K to keep K = 131561 at one root per task.
MP_TERMS_PER_TASK = 100_000
MP_MAX_ROOTS = 64
MP_NEWTON_MAX = 6
_PREC = libmp.dps_to_prec(40)
_RND = libmp.round_nearest


def mp_sample_size(num_levels: int) -> int:
    return max(1, min(MP_MAX_ROOTS, MP_TERMS_PER_TASK // (2 * num_levels)))


def secular_residual(levels, gamma: float, energy: float) -> float:
    """|F(E) - 1| with F(E) = (1/N) sum_k m_k / (gamma E_k - E), summed exactly."""
    terms = levels.multiplicities / (gamma * levels.energies - energy)
    return abs(math.fsum(terms.tolist()) / levels.num_vertices - 1.0)


def check_spectrum(levels, spec) -> list[str]:
    """Root count, strict interlacing with the poles, and both weight sums."""
    out = []
    poles = spec.gamma * levels.energies
    roots = spec.energies
    if len(roots) != levels.num_levels:
        return [f"{len(roots)} roots for {levels.num_levels} levels"]
    if not roots[0] < poles[0]:
        out.append(f"ground root {float(roots[0])!r} not below the pole at 0")
    inside = (poles[:-1] < roots[1:]) & (roots[1:] < poles[1:])
    if not inside.all():
        i = int(np.argmin(inside)) + 1
        out.append(f"root {i} = {float(roots[i])!r} outside "
                   f"({float(poles[i - 1])!r}, {float(poles[i])!r})")
    for name, weights in (("R", spec.w_weights), ("S", spec.s_weights)):
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > SUM_TOL:
            out.append(f"sum {name} = {total!r}")
    return out


def check_two(levels, gamma, e0, e1, fp0, fp1) -> list[str]:
    """Brackets, independent |F - 1| and partial weight sums for the two lowest roots."""
    out = []
    n = levels.num_vertices
    first_pole = gamma * levels.energies[1]
    if not (e0 < 0.0 < e1 < first_pole):
        out.append(f"gamma={gamma!r}: roots {e0!r}, {e1!r} not in (-inf, 0), (0, {first_pole!r})")
        return out
    for e in (e0, e1):
        r = secular_residual(levels, gamma, e)
        if not r <= RESIDUAL_TOL:
            out.append(f"gamma={gamma!r}: |F({e!r}) - 1| = {r:.3g}")
    if not (fp0 > 0.0 and fp1 > 0.0):
        return out + [f"gamma={gamma!r}: non-positive F' {fp0!r}, {fp1!r}"]
    w_part = 1.0 / fp0 + 1.0 / fp1
    s_part = 1.0 / (n * e0 * e0 * fp0) + 1.0 / (n * e1 * e1 * fp1)
    if w_part > 1.0 + SUM_TOL or s_part > 1.0 + SUM_TOL:
        out.append(f"gamma={gamma!r}: two-root weights exceed 1 ({w_part!r}, {s_part!r})")
    return out


def check_trace(tr, num_vertices: int) -> list[str]:
    out = []
    a0 = abs(tr.amplitudes[0]) * math.sqrt(num_vertices)
    if tr.times[0] != 0.0 or abs(a0 - 1.0) > SUM_TOL:
        out.append(f"|amp(0)| sqrt(N) = {float(a0)!r}")
    if np.max(tr.probabilities) > 1.0 + SUM_TOL:
        out.append(f"probability {float(np.max(tr.probabilities))!r} above 1")
    return out


def check_energy_sum(levels, value: float) -> list[str]:
    """inverse_energy_sum(2, d, L) against (1/N) sum_{k>0} m_k / E_k^2 over the levels."""
    terms = levels.multiplicities[1:] / levels.energies[1:] ** 2
    ref = math.fsum(terms.tolist()) / levels.num_vertices
    if abs(value - ref) > ENERGY_SUM_REL_TOL * abs(ref):
        return [f"inverse energy sum {value!r} vs levels {ref!r}"]
    return []


def check_csv(path: str, header: list[str], rows: list[list]) -> list[str]:
    """The written file parses back to exactly the values passed in."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [",".join(header)]:
        return [f"{path}: header {lines[:1]!r}"]
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    expected = np.array(rows, dtype=float)
    if parsed.shape != expected.shape or not np.array_equal(parsed, expected):
        return [f"{path}: rows do not round-trip"]
    return []


def _clusters(e, w, s, tol: float = 1e-7):
    order = np.argsort(e, kind="stable")
    e, w, s = e[order], w[order], s[order]
    starts = np.flatnonzero(np.r_[True, np.diff(e) > tol])
    size = np.diff(np.r_[starts, len(e)])
    return (np.add.reduceat(e, starts) / size, np.add.reduceat(w, starts),
            np.add.reduceat(s, starts))


def dense_spectrum(graph, levels, spec, tr) -> list[str]:
    """Eigenvalues, cluster weights and the traced amplitude against the dense oracle."""
    dense = DenseReference(graph, spec.gamma, cap=DENSE_CAP)
    amps = np.array([dense.amplitude(t) for t in tr.times])
    out = []
    amp_err = float(np.max(np.abs(amps - tr.amplitudes)))
    if amp_err > DENSE_TOL:
        out.append(f"dense amplitude delta {amp_err:.3g}")
    poles = np.repeat(spec.gamma * levels.energies, levels.multiplicities - 1)
    zeros = np.zeros(len(poles))
    ours = _clusters(np.concatenate([spec.energies, poles]),
                     np.concatenate([spec.w_weights, zeros]),
                     np.concatenate([spec.s_weights, zeros]))
    theirs = _clusters(dense.eigenvalues, dense.w_overlaps_sq(), dense.s_overlaps_sq())
    if len(ours[0]) != len(theirs[0]):
        return out + [f"dense has {len(theirs[0])} eigenvalue clusters, spectral {len(ours[0])}"]
    for name, a, b in zip(("eigenvalue", "R", "S"), ours, theirs):
        err = float(np.max(np.abs(a - b)))
        if err > DENSE_TOL:
            out.append(f"dense {name} delta {err:.3g}")
    return out


def dense_two(graph, gamma, e0, e1, fp0, fp1) -> list[str]:
    """The two lowest eigenvalues and their overlaps against the dense oracle."""
    dense = DenseReference(graph, gamma, cap=DENSE_CAP)
    n = graph.num_vertices
    ours = np.array([[e0, e1], [1.0 / fp0, 1.0 / fp1],
                     [1.0 / (n * e0 * e0 * fp0), 1.0 / (n * e1 * e1 * fp1)]])
    theirs = np.array([dense.eigenvalues[:2], dense.w_overlaps_sq()[:2],
                       dense.s_overlaps_sq()[:2]])
    err = float(np.max(np.abs(ours - theirs)))
    return [f"gamma={gamma!r}: dense two-level delta {err:.3g}"] if err > DENSE_TOL else []


def mp_poles(levels, gamma: float):
    """Scaled poles gamma*E_k (exact at 40 digits) and multiplicities as mpmath values."""
    g = libmp.from_float(float(gamma))
    poles = [libmp.mpf_mul(g, libmp.from_float(x), _PREC, _RND)
             for x in levels.energies.tolist()]
    mults = [libmp.from_int(m) for m in levels.multiplicities.tolist()]
    return poles, mults


def mp_errors(poles, mults, num_vertices: int, root: float, weight: float):
    """Relative errors of `root` and of its weight R = 1/F'(root).

    Newton's method on F(E) = 1 from the float root, at 40 digits, using
    only the poles and multiplicities. Raises ArithmeticError when the
    refinement hits a pole or does not settle.
    """
    add, sub, div = libmp.mpf_add, libmp.mpf_sub, libmp.mpf_div
    n = libmp.from_int(num_vertices)
    e = libmp.from_float(float(root))
    for _ in range(MP_NEWTON_MAX):
        f = d = libmp.fzero
        for p, m in zip(poles, mults):
            diff = sub(p, e, _PREC, _RND)
            t = div(m, diff, _PREC, _RND)
            f = add(f, t, _PREC, _RND)
            d = add(d, div(t, diff, _PREC, _RND), _PREC, _RND)
        step = div(sub(f, n, _PREC, _RND), d, _PREC, _RND)   # (F - 1) / F'
        e = sub(e, step, _PREC, _RND)
        if abs(libmp.to_float(step)) <= 1e-33 * abs(libmp.to_float(e)):
            break
    else:
        raise ArithmeticError(f"40-digit refinement of {root!r} did not settle")
    w_ref = div(n, d, _PREC, _RND)

    def rel(x: float, ref) -> float:
        delta = sub(libmp.from_float(float(x)), ref, _PREC, _RND)
        return abs(libmp.to_float(div(delta, ref, _PREC, _RND)))

    return rel(root, e), rel(weight, w_ref)


def mp_check(levels, gamma: float, pairs) -> tuple[list[str], float]:
    """Refine each (root, weight) pair; return violations and the worst relative error."""
    poles, mults = mp_poles(levels, gamma)
    out, worst = [], 0.0
    for root, weight in pairs:
        try:
            errs = mp_errors(poles, mults, levels.num_vertices, root, weight)
        except (ArithmeticError, ZeroDivisionError) as exc:
            out.append(f"gamma={gamma!r}: {exc}")
            continue
        worst = max(worst, *errs)
        if max(errs) > MP_REL_TOL:
            out.append(f"gamma={gamma!r}: root {float(root)!r} off the 40-digit value by "
                       f"{errs[0]:.3g} (root), {errs[1]:.3g} (weight)")
    return out, worst
