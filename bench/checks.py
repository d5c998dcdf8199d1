"""Correctness checks on the CLI outputs of each workload.

Each check computes its answer apart from the code path that produced the
output, or tests a property the method must have; none compares against a
stored copy of earlier output.

* The event log and the dense samples are propagated segment by segment
  with ``scipy.linalg.expm`` of the model matrix written from the README
  equations, ``(Q/Omega) x' = -x - y + s``, ``y' = Q Omega x``, where ``s``
  is the feedback sign read off the log itself.
* Region cells are checked against the paper's claims (the slow mode is
  stable wherever it exists; no odd frequency exists overdamped under
  negative feedback), against ``map_M`` as a fixed-point residual, and
  against the eigenvalues of a finite-difference Jacobian of ``map_M``.
* Loci are checked against the paper's NS values, against the eigenvalues
  of the explicit Jacobian, and against the corner-line formula.

Every function returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
import random

import numpy as np
from scipy.linalg import expm

from workloads import TORUS_STEPS, CommandResult, Job

PROPAGATION_TOL = 1e-9
PERIOD_TOL = 1e-9
FIXED_POINT_TOL = 1e-9
UNIT_CIRCLE_TOL = 1e-6
ORBIT_SEGMENT_SAMPLES = 16
REGION_CELL_SAMPLES = 6
FD_STEP = 1e-6
FD_AMBIGUOUS = 1e-5  # |lambda| this close to 1 is not counted either way
PAPER_NS_OMEGAS = (4.75, 14.78)  # nu = 3 mode at Q = 1.5
PAPER_NS_TOL = 0.01
TSTAR_MAX_SLOPE = 0.03  # |dT*/dOmega| bound; the nu0 = 2 mode at Q = 1.5 stays below 0.011
SHAPE_TAGS = {"cluster", "closed-curve", "irregular"}


# --------------------------------------------------------------------------
# Independent flow: matrix exponential of the augmented linear system
# --------------------------------------------------------------------------


def model_generator(Q: float, Omega: float, s: int) -> np.ndarray:
    """Augmented 3x3 generator of (x, y, 1) under feedback frozen at s."""
    a = Omega / Q
    return np.array([[-a, -a, a * s], [Q * Omega, 0.0, 0.0], [0.0, 0.0, 0.0]])


def propagate(Q, Omega, s, dt, x, y):
    v = expm(model_generator(Q, Omega, s) * dt) @ np.array([x, y, 1.0])
    return v[0], v[1]


def _read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def read_txy(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,x,y":
            raise ValueError(f"unexpected header {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2).reshape(-1, 3)


class _SignHistory:
    """sign(x(tau)) from a log's exact zero crossings (rows with x == 0).

    x keeps one sign between consecutive crossings and flips at each; the
    sign of one interval is read from any row with x != 0 inside it.
    """

    def __init__(self, t, x):
        self.zs = t[x == 0.0]
        idx = np.searchsorted(self.zs, t, side="left")  # interval index of each row
        nz = x != 0.0
        alternating = np.where(np.arange(len(self.zs) + 1) % 2 == 0, 1.0, -1.0)
        base = np.sign(x[nz]) * alternating[idx[nz]]  # sign of the first interval
        self.consistent = bool(len(base) and np.all(base == base[0]))
        self.signs = (base[0] if len(base) else 1.0) * alternating

    def sign_at(self, tau):
        return self.signs[np.searchsorted(self.zs, tau, side="right")]


def _check_txy_log(t, x, what):
    """Properties shared by the event log and the dense samples."""
    errs = []
    if len(t) < 2:
        return [f"{what}: fewer than two rows"], None
    if not np.all(np.diff(t) > 0.0):
        errs.append(f"{what}: times do not increase strictly")
    hist = _SignHistory(t, x)
    if not hist.consistent:
        errs.append(f"{what}: x changes sign without a logged zero crossing")
    return errs, hist


def _segment_signs(hist, t0, t1, sigma):
    """Feedback sign on (t0, t1): sigma * sign(x) one delay earlier."""
    return sigma * hist.sign_at(0.5 * (t0 + t1) - 1.0)


def check_event_log(path, Q, Omega, sigma, rng, what="orbit") -> list[str]:
    """Event-log CSV (t, x, y per event) from ``simulate`` without samples."""
    a = read_txy(path)
    t, x, y = a[:, 0], a[:, 1], a[:, 2]
    errs, hist = _check_txy_log(t, x, what)
    if hist is None:
        return errs
    # H-type events (x != 0) fall exactly one delay after a logged Z-type
    # event, except those whose crossing predates the log (t <= 1).
    z_plus_one = {float(z) + 1.0 for z in hist.zs}
    orphans = [ti for ti, xi in zip(t, x) if xi != 0.0 and ti > 1.0 and float(ti) not in z_plus_one]
    if orphans:
        errs.append(f"{what}: {len(orphans)} H events not at a Z time + 1 (first t={float(orphans[0])!r})")
    t_set = set(t.tolist())
    missing = [z for z in hist.zs if z + 1.0 < t[-1] and float(z) + 1.0 not in t_set]
    if missing:
        errs.append(f"{what}: {len(missing)} Z events without their H event one delay later")
    # Propagate a seeded sample of segments that start a full delay into the log.
    eligible = [i for i in range(len(t) - 1) if t[i] - 1.0 > 0.0]
    picks = rng.sample(eligible, min(ORBIT_SEGMENT_SAMPLES, len(eligible)))
    for i in picks:
        s = _segment_signs(hist, t[i], t[i + 1], sigma)
        px, py = propagate(Q, Omega, s, t[i + 1] - t[i], x[i], y[i])
        scale = max(1.0, abs(y[i]), abs(x[i]))
        if max(abs(px - x[i + 1]), abs(py - y[i + 1])) > PROPAGATION_TOL * scale:
            errs.append(f"{what}: segment at t={float(t[i])!r} disagrees with expm propagation "
                        f"({float(px)!r},{float(py)!r}) vs ({float(x[i + 1])!r},{float(y[i + 1])!r})")
            break
    return errs


def check_dense(path, Q, Omega, sigma, dt) -> list[str]:
    """Every dense sample row equals the expm propagation of the row before.

    Sample rows include each event's headpoint (the sample at offset 0 of a
    segment), so consecutive rows are always joined by one constant-feedback
    flow and the chain checks every row.
    """
    a = read_txy(path)
    t, x, y = a[:, 0], a[:, 1], a[:, 2]
    errs, hist = _check_txy_log(t, x, "dense")
    if hist is None:
        return errs
    starts = np.nonzero(t[:-1] - 1.0 > 0.0)[0]
    if len(starts) == 0:
        return errs + ["dense: no rows a full delay into the log"]
    mids = 0.5 * (t[starts] + t[starts + 1]) - 1.0
    s = sigma * hist.sign_at(mids)
    steps = t[starts + 1] - t[starts]
    regular = np.abs(steps - dt) <= 1e-12
    pred = np.empty((len(starts), 2))
    state = np.stack([x[starts], y[starts], np.ones(len(starts))])
    for sign in (-1.0, 1.0):
        sel = regular & (s == sign)
        P = expm(model_generator(Q, Omega, int(sign)) * dt)
        pred[sel] = (P @ state[:, sel])[:2].T
    for k in np.nonzero(~regular)[0]:
        pred[k] = propagate(Q, Omega, int(s[k]), steps[k], x[starts[k]], y[starts[k]])
    scale = np.maximum(1.0, np.maximum(np.abs(x[starts]), np.abs(y[starts])))
    err = np.max(np.abs(pred - np.stack([x[starts + 1], y[starts + 1]], axis=1)), axis=1)
    bad = np.nonzero(err > PROPAGATION_TOL * scale)[0]
    if len(bad):
        k = bad[0]
        errs.append(f"dense: {len(bad)} rows disagree with expm propagation "
                    f"(first at t={float(t[starts[k] + 1])!r}, error {err[k]:.3g})")
    return errs


# --------------------------------------------------------------------------
# Workload checks
# --------------------------------------------------------------------------


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _fixed_point(nu, Q, Omega, sigma):
    from relaydde.params import Parameters
    from relaydde.symmap import fixed_point

    return fixed_point(nu, Parameters(Q=Q, Omega=Omega, sigma=sigma))


def check_orbit(job: Job, results: list[CommandResult], rng: random.Random) -> list[str]:
    p = job.params
    errs = []
    by_name = {r.name: r for r in results}
    for tag in ("u", "o"):
        res = by_name[f"simulate_{tag}"]
        if res.rc != 0:
            continue
        Q, Om, nu = p[f"Q_{tag}"], p[f"Omega_{tag}"], p[f"nu_{tag}"]
        cmd = job.commands[0 if tag == "u" else 1]
        errs += check_event_log(cmd.outputs[0], Q, Om, p["sigma"], rng, f"orbit_{tag}")
        summary = _last_json(res.stdout)
        if summary.get("tag") != "periodic" or summary.get("nu") != nu or summary.get("symmetry") != "S":
            errs.append(f"orbit_{tag}: seeded stable nu={nu} point classified as "
                        f"{summary.get('tag')} nu={summary.get('nu')} {summary.get('symmetry')}")
            continue
        period = 2.0 * _fixed_point(nu, Q, Om, p["sigma"]).Tstar
        if abs(summary["period"] - period) > PERIOD_TOL:
            errs.append(f"orbit_{tag}: period {summary['period']!r} != 2 T* = {period!r}")
    res = by_name["torus_scan"]
    if res.rc == 0:
        entries = [json.loads(line) for line in res.stdout.strip().splitlines()]
        if len(entries) != TORUS_STEPS:
            errs.append(f"torus: {len(entries)} entries for a {TORUS_STEPS}-step scan")
        for e in entries:
            if e["tag"] not in SHAPE_TAGS:
                errs.append(f"torus: entry at Omega={e['Omega']!r} carries tag {e['tag']!r}")
        header, rows = _read_rows(job.commands[2].outputs[0])
        for e in entries:
            n = sum(1 for r in rows if float(r[1]) == e["Omega"])
            if n != e["n_points"]:
                errs.append(f"torus: {n} section rows at Omega={e['Omega']!r}, summary says {e['n_points']}")
    return errs


def check_dense_job(job: Job, results: list[CommandResult], rng: random.Random) -> list[str]:
    res = results[0]
    if res.rc != 0:
        return []
    p = job.params
    return check_dense(job.commands[0].outputs[0], p["Q"], p["Omega"], p["sigma"], p["dt"])


def fd_jacobian(state, params, h=FD_STEP) -> np.ndarray:
    """Central finite-difference Jacobian of map_M at a StateVector."""
    from relaydde.symmap import StateVector, map_M

    base = state.as_array()
    n = len(base)
    J = np.empty((n, n))
    for j in range(n):
        step = h * max(1.0, abs(base[j]))
        hi, lo = base.copy(), base.copy()
        hi[j] += step
        lo[j] -= step
        f_hi = map_M(StateVector(hi[0], tuple(hi[1:])), params).as_array()
        f_lo = map_M(StateVector(lo[0], tuple(lo[1:])), params).as_array()
        J[:, j] = (f_hi - f_lo) / (2.0 * step)
    return J


def check_region_file(path, params, rng) -> list[str]:
    from relaydde.errors import RelayDDEError
    from relaydde.params import Parameters
    from relaydde.symmap import fixed_point, map_M

    p = params
    errs = []
    header, rows = _read_rows(path)
    if header != ["nu", "Q", "Omega", "exists", "stable", "unstable_count"]:
        return [f"region: unexpected header {header}"]
    nq, nom = p["resolution"]
    q_axis = np.linspace(p["q_min"], p["q_max"], nq)
    om_axis = np.linspace(p["omega_min"], p["omega_max"], nom)
    expect = [(nu, q, om) for nu in p["nus"] for q in q_axis for om in om_axis]
    if len(rows) != len(expect):
        return [f"region: {len(rows)} rows, expected {len(expect)}"]
    cells = []
    for (nu, q, om), r in zip(expect, rows):
        if (int(r[0]), float(r[1]), float(r[2])) != (nu, float(q), float(om)):
            errs.append(f"region: row {r[:3]} out of grid order")
            break
        exists, stable, count = r[3] == "true", r[4] == "true", int(r[5])
        if stable != (exists and count == 0) or (count == -1) == exists:
            errs.append(f"region: inconsistent flags {r}")
        if nu == 0 and exists and not stable:
            errs.append(f"region: slow mode nu=0 unstable at Q={r[1]}, Omega={r[2]}")
        if p["sigma"] == -1 and nu % 2 == 1 and q < 0.5 and exists:
            errs.append(f"region: odd nu={nu} exists overdamped at Q={r[1]}, Omega={r[2]}")
        if exists:
            cells.append((nu, float(q), float(om), count))
    for nu, q, om, count in rng.sample(cells, min(REGION_CELL_SAMPLES, len(cells))):
        par = Parameters(Q=q, Omega=om, sigma=p["sigma"])
        where = f"nu={nu}, Q={q!r}, Omega={om!r}"
        try:
            fp = fixed_point(nu, par)
            state = fp.state
            image = map_M(state, par).as_array()
            J = fd_jacobian(state, par)
        except RelayDDEError as exc:
            errs.append(f"region: existing cell {where} fails to re-solve: {exc}")
            continue
        resid = np.max(np.abs(image - state.as_array()) / np.maximum(1.0, np.abs(state.as_array())))
        if resid > FIXED_POINT_TOL:
            errs.append(f"region: cell {where} is not a fixed point of map_M (residual {resid:.3g})")
        mods = np.abs(np.linalg.eigvals(J))
        if np.any(np.abs(mods - 1.0) < FD_AMBIGUOUS):
            continue
        fd_count = int(np.sum(mods > 1.0))
        if fd_count != count:
            errs.append(f"region: cell {where} reports {count} unstable roots, "
                        f"finite-difference Jacobian has {fd_count}")
    return errs


def check_region(job: Job, results: list[CommandResult], rng: random.Random) -> list[str]:
    if results[0].rc != 0:
        return []
    return check_region_file(job.commands[0].outputs[0], job.params, rng)


def corner_omega(Q, K):
    return 2.0 * Q * K * math.pi / math.sqrt(4.0 * Q * Q - 1.0)


def _jacobian_eigs(nu, Q, Omega, sigma):
    from relaydde.symmap import jacobian_coeffs, jacobian_matrix

    fp = _fixed_point(nu, Q, Omega, sigma)
    return np.linalg.eigvals(jacobian_matrix(jacobian_coeffs(fp), nu))


def check_loci(job: Job, results: list[CommandResult], rng: random.Random) -> list[str]:
    p = job.params
    Q, sigma = p["Q"], p["sigma"]
    errs = []
    by_name = {r.name: r for r in results}
    ns_cmd, pf_cmd, mt_cmd = job.commands
    if by_name["locus_ns"].rc == 0:
        _, rows = _read_rows(ns_cmd.outputs[0])
        omegas = sorted(float(r[3]) for r in rows)
        want = [w for w in PAPER_NS_OMEGAS if p["ns_lo"] < w < p["ns_hi"]]
        if len(omegas) != len(want) or any(abs(a - b) > PAPER_NS_TOL for a, b in zip(omegas, want)):
            errs.append(f"loci: NS points {omegas}, paper has {want}")
        for r in rows:
            nu, om, phi = int(r[1]), float(r[3]), float(r[4])
            eig = _jacobian_eigs(nu, Q, om, sigma)
            pair = [z for z in eig if z.imag > 1e-9 and abs(abs(z) - 1.0) < UNIT_CIRCLE_TOL]
            if not pair:
                errs.append(f"loci: no modulus-1 complex pair at NS Omega={om!r} (|eig|={np.abs(eig)})")
            elif min(abs(math.atan2(z.imag, z.real) - phi) for z in pair) > UNIT_CIRCLE_TOL:
                errs.append(f"loci: NS angle {phi!r} does not match the unit-circle pair at Omega={om!r}")
    if by_name["locus_pf"].rc == 0:
        _, rows = _read_rows(pf_cmd.outputs[0])
        if not rows:
            errs.append("loci: no pitchfork point on the nu=3 branch")
        for r in rows:
            nu, om = int(r[1]), float(r[3])
            eig = _jacobian_eigs(nu, Q, om, sigma)
            if not np.any(np.abs(eig + 1.0) < UNIT_CIRCLE_TOL):
                errs.append(f"loci: no eigenvalue -1 at PF Omega={om!r} (eig={eig})")
    if by_name["mode_trace"].rc == 0:
        errs += check_mode_trace(mt_cmd.outputs[0], Q, p["nu0"], p["mt_lo"], p["mt_hi"])
    return errs


def check_mode_trace(path, Q, nu0, lo, hi) -> list[str]:
    errs = []
    _, rows = _read_rows(path)
    branch = [r for r in rows if r[0] == "branch"]
    markers = {r[8]: float(r[3]) for r in rows if r[0] == "marker"}
    if len(branch) < 2:
        return ["mode-trace: fewer than two branch samples"]
    om = np.array([float(r[3]) for r in branch])
    T = np.array([float(r[4]) for r in branch])
    nus = np.array([int(r[1]) for r in branch])
    if not np.all(np.diff(om) > 0.0):
        errs.append("mode-trace: Omega does not increase along the branch")
    if np.any(T <= 1.0 / (nus + 1.0)) or np.any(T >= 1.0 / nus):
        errs.append("mode-trace: T* outside its period bracket (1/(nu+1), 1/nu)")
    slope = np.abs(np.diff(T)) / np.diff(om)
    if np.any(slope > TSTAR_MAX_SLOPE):
        k = int(np.argmax(slope))
        errs.append(f"mode-trace: T* jumps by {float(T[k + 1] - T[k])!r} at Omega={float(om[k + 1])!r}")
    for r, Tk in zip(branch, T):
        if float(r[5]) != 1.0 / (2.0 * Tk):
            errs.append(f"mode-trace: invP {r[5]} != 1/(2 T*) at Omega={r[3]}")
            break
    for name, K in (("corner1", nu0 + 1), ("corner2", 2 * (nu0 + 1) + 1)):
        want = corner_omega(Q, K)
        if lo < want < hi:
            got = markers.get(name)
            if got is None or abs(got - want) > 1e-12 * want:
                errs.append(f"mode-trace: {name} marker at {got!r}, 2QK pi/sqrt(4Q^2-1) = {want!r}")
    return errs


CHECKS = {
    "orbit": check_orbit,
    "dense": check_dense_job,
    "region": check_region,
    "loci": check_loci,
}


def check_job(job: Job, results: list[CommandResult], seed: int) -> list[str]:
    """All checks of one job; the seed picks the sampled segments and cells."""
    rng = random.Random(f"check:{job.workload}:{seed}:{job.index}")
    return CHECKS[job.workload](job, results, rng)

