"""Command-line front end.

One subcommand per dataset family: orbit simulation, fixed points and
spectra, bifurcation loci, region scans, period diagrams, mode traces, and
torus scans.  All outputs are CSV (floats as ``%.17g``) or JSON lines
(floats as Python's shortest round-trip ``repr``); both parse back
bit-exactly, and identical invocations produce byte-identical files.

Exit codes: 0 success, 1 numerical failure (JSON error record on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import atlas, serialize
from .errors import RelayDDEError
from .events import classify, initial_state, simulate
from .params import Parameters
from .symmap import fixed_point, spectrum_of, x_H
from .torus import perturbed_seed, torus_scan


def _checked(convert, test, what):
    """argparse type: convert the text and require test(value); else a usage error."""
    def parse(text):
        try:
            value = convert(text)
            ok = test(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_nonneg_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _checked(float, lambda v: v > 0.0 and math.isfinite(v),
                           "a positive finite number")
_finite_float = _checked(float, math.isfinite, "a finite number")
_nonzero_float = _checked(float, lambda v: v != 0.0 and math.isfinite(v),
                          "a non-zero finite number")
_fraction = _checked(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
_nu_list = _checked(lambda t: [int(tok) for tok in t.split(",") if tok.strip() != ""],
                    lambda v: all(nu >= 0 for nu in v), "comma-separated non-negative integers")
_resolution = _checked(lambda t: tuple(int(tok) for tok in t.split("x")),
                       lambda v: len(v) == 2 and min(v) >= 2, "NQxNOMEGA, both at least 2")


def _default_threads() -> int:
    env = os.environ.get("RELAY_DDE_THREADS")
    return _positive_int(env) if env else os.cpu_count() or 1


def _add_params(sp, omega_required=True):
    sp.add_argument("--Q", type=_positive_float, required=True, help="filter quality factor")
    sp.add_argument("--Omega", type=_positive_float, required=omega_required,
                    help="center frequency times delay")
    sp.add_argument("--sigma", type=int, default=-1, choices=(-1, 1))


def _add_output(sp):
    sp.add_argument("--out", help="output file (default: stdout for the data payload)")
    sp.add_argument("--format", choices=("csv", "json"), default=None,
                    help="default: csv (simulate: json when --out ends in .json)")
    sp.add_argument("--threads", type=_positive_int, default=argparse.SUPPRESS,
                    help="worker processes for scans (default: RELAY_DDE_THREADS or all cores)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relay-dde",
        description="Event-driven simulation and bifurcation datasets for the "
        "bandpass-filtered delayed relay oscillator.",
    )
    ap.add_argument("--config", help="key=value file; command-line flags override it")
    ap.add_argument("--threads", type=_positive_int, default=None,
                    help="worker processes for scans (default: RELAY_DDE_THREADS or all cores)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run one orbit and classify it")
    _add_params(sp)
    sp.add_argument("--events", type=_positive_int, default=2000)
    sp.add_argument("--horizon", type=_positive_float, default=None, help="stop at this time instead")
    sp.add_argument("--x0", type=_nonzero_float, default=0.5, help="constant-history value of x")
    sp.add_argument("--y0", type=_finite_float, default=0.0)
    sp.add_argument("--seed-nu", type=_nonneg_int, default=None,
                    help="seed near the nu fixed point instead of a constant history")
    sp.add_argument("--seed-eps", type=_finite_float, default=1e-3)
    sp.add_argument("--sample-dt", type=_positive_float, default=None,
                    help="dense output step between events")
    _add_output(sp)

    sp = sub.add_parser("fixedpoint", help="fixed point of the four-symbol map")
    _add_params(sp)
    sp.add_argument("--nu", type=_nonneg_int, required=True)
    _add_output(sp)

    sp = sub.add_parser("spectrum", help="characteristic roots at a fixed point")
    _add_params(sp)
    sp.add_argument("--nu", type=_nonneg_int, required=True)
    _add_output(sp)

    sp = sub.add_parser("locus", help="bifurcation points along one mode")
    _add_params(sp, omega_required=False)  # unused; accepted so configs carry over
    sp.add_argument("--kind", choices=("ns", "pf", "corner"), required=True)
    sp.add_argument("--nu", type=_nonneg_int, required=True)
    sp.add_argument("--omega-min", type=_positive_float, required=True)
    sp.add_argument("--omega-max", type=_positive_float, required=True)
    sp.add_argument("--samples", type=_positive_int, default=600)
    _add_output(sp)

    sp = sub.add_parser("region", help="existence/stability grid over (Q, Omega)")
    sp.add_argument("--nus", type=_nu_list, required=True, help="comma-separated frequencies")
    sp.add_argument("--sigma", type=int, default=-1, choices=(-1, 1))
    sp.add_argument("--q-min", type=_positive_float, required=True)
    sp.add_argument("--q-max", type=_positive_float, required=True)
    sp.add_argument("--omega-min", type=_positive_float, required=True)
    sp.add_argument("--omega-max", type=_positive_float, required=True)
    sp.add_argument("--resolution", type=_resolution, default="400x400", help="NQxNOMEGA")
    _add_output(sp)

    sp = sub.add_parser("period-diagram", help="inverse-period branch table vs Omega")
    sp.add_argument("--nus", type=_nu_list, required=True)
    sp.add_argument("--Q", type=_positive_float, required=True)
    sp.add_argument("--sigma", type=int, default=-1, choices=(-1, 1))
    sp.add_argument("--omega-min", type=_positive_float, required=True)
    sp.add_argument("--omega-max", type=_positive_float, required=True)
    sp.add_argument("--samples", type=_positive_int, default=400)
    _add_output(sp)

    sp = sub.add_parser("mode-trace", help="follow one mode across Omega")
    sp.add_argument("--nu0", type=_nonneg_int, required=True, help="base frequency of the mode")
    sp.add_argument("--Q", type=_positive_float, required=True)
    sp.add_argument("--sigma", type=int, default=-1, choices=(-1, 1))
    sp.add_argument("--omega-min", type=_positive_float, required=True)
    sp.add_argument("--omega-max", type=_positive_float, required=True)
    sp.add_argument("--samples", type=_positive_int, default=400)
    _add_output(sp)

    sp = sub.add_parser("torus-scan", help="H-event sections along an Omega scan")
    sp.add_argument("--Q", type=_positive_float, required=True)
    sp.add_argument("--sigma", type=int, default=-1, choices=(-1, 1))
    sp.add_argument("--nu", type=_nonneg_int, default=3)
    sp.add_argument("--omega-min", type=_positive_float, required=True)
    sp.add_argument("--omega-max", type=_positive_float, required=True)
    sp.add_argument("--steps", type=_positive_int, default=12)
    sp.add_argument("--events", type=_positive_int, default=40000)
    sp.add_argument("--settle-events", type=_positive_int, default=None,
                    help="budget for the first scan point (default: 2x --events; "
                    "transients near the torus bifurcation are slow)")
    sp.add_argument("--transient-frac", type=_fraction, default=0.2)
    sp.add_argument("--no-warm-start", action="store_true")
    sp.add_argument("--seed-eps", type=_finite_float, default=1e-3)
    _add_output(sp)
    return ap


def _apply_config(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config as flags (flags override)."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    probe.add_argument("--threads")  # validated by the full parser
    known, rest = probe.parse_known_args(argv)
    if not known.config:
        return argv
    injected: list[str] = []
    with open(known.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            injected.extend([f"--{key.strip()}", value.strip()])
    if not rest:
        return argv
    # rest starts with the subcommand; insert right after it so the injected
    # defaults parse in subcommand scope and explicit flags still override.
    out = [rest[0]] + injected + rest[1:]
    if known.threads is not None:
        out = ["--threads", str(known.threads)] + out
    return out


def _emit(out, fmt, header, rows, records=None):
    """Write the data payload to the file out, or to stdout when out is None.

    fmt "json" writes one line per record (records, else one header-keyed
    dict per row); "csv" or None writes header and rows.
    """
    if fmt == "json" and records is None:
        records = (dict(zip(header, r)) for r in rows)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if fmt == "json":
            fh.writelines(serialize.json_line(r) + "\n" for r in records)
        else:
            serialize.write_csv(header, rows, fh)


def _cmd_simulate(args) -> int:
    p = Parameters(Q=args.Q, Omega=args.Omega, sigma=args.sigma)
    if args.seed_nu is not None:
        st = perturbed_seed(fixed_point(args.seed_nu, p), args.seed_eps)
    else:
        st = initial_state(args.x0, args.y0)
    rec = simulate(st, p, max_events=args.events, t_max=args.horizon,
                   sample_dt=args.sample_dt)
    cls = classify(rec, min_events=min(200, max(8, args.events // 2)))
    if args.out:
        if args.format == "json" or (args.format is None and args.out.endswith(".json")):
            _emit(args.out, "json", None, None, [serialize.orbit_record_json(rec, cls)])
        else:
            rows = rec.samples or [(e.time, e.v.x, e.v.y) for e in rec.events]
            _emit(args.out, "csv", serialize.ORBIT_CSV_HEADER, rows)
    summary = {
        "command": "simulate",
        "Q": p.Q, "Omega": p.Omega, "sigma": p.sigma,
        "n_events": len(rec.events),
        "terminated": rec.terminated,
        "tag": cls.tag.value,
        "label": cls.label,
        "nu": cls.nu,
        "symmetry": cls.symmetry,
        "period": cls.period,
    }
    print(serialize.json_line(summary))
    return 0


def _cmd_fixedpoint(args) -> int:
    p = Parameters(Q=args.Q, Omega=args.Omega, sigma=args.sigma)
    fp = fixed_point(args.nu, p)
    xh = x_H(fp)
    sp = spectrum_of(fp)
    _emit(args.out, args.format, serialize.FIXEDPOINT_CSV_HEADER,
          [serialize.fixed_point_row(fp, xh, sp)],
          [serialize.fixed_point_json(fp, xh, sp)])
    return 0


def _cmd_locus(args) -> int:
    rng = (args.omega_min, args.omega_max)
    if args.kind == "ns":
        pts = atlas.mode_ns_points(args.nu, args.Q, rng, sigma=args.sigma,
                                   samples=args.samples)
    elif args.kind == "pf":
        pts = atlas.mode_pf_points(args.nu, args.Q, rng, sigma=args.sigma,
                                   samples=args.samples)
    else:
        # Mode-aware: the relabeling corner belongs to the base branch and
        # the terminating corner to the relabeled one.
        base = atlas.mode_base(args.nu, args.sigma)
        relabel, end = atlas.mode_corners(base, args.Q)
        pts = [atlas.BifurcationPoint(kind=kind, Q=args.Q, Omega=om, nu=nu)
               for kind, om, nu in (("corner1", relabel, base), ("corner2", end, base + 1))
               if rng[0] <= om <= rng[1]]
    _emit(args.out, args.format, serialize.LOCUS_CSV_HEADER,
          [serialize.bifurcation_point_row(pt) for pt in pts],
          [serialize.bifurcation_point_json(pt) for pt in pts])
    return 0


def _cmd_region(args) -> int:
    grid = atlas.region_scan(
        args.nus,
        (args.q_min, args.q_max),
        (args.omega_min, args.omega_max),
        resolution=args.resolution,
        sigma=args.sigma,
        threads=args.threads,
    )
    _emit(args.out, args.format, serialize.REGION_CSV_HEADER, serialize.region_rows(grid))
    return 0


def _cmd_period_diagram(args) -> int:
    rows = atlas.period_diagram(args.nus, args.Q,
                                (args.omega_min, args.omega_max),
                                sigma=args.sigma, samples=args.samples)
    _emit(args.out, args.format, serialize.BRANCH_CSV_HEADER, serialize.branch_rows(rows))
    return 0


def _cmd_mode_trace(args) -> int:
    branch = atlas.mode_trace(args.nu0, args.Q, (args.omega_min, args.omega_max),
                              sigma=args.sigma, samples=args.samples)
    _emit(args.out, args.format, serialize.BRANCH_CSV_HEADER,
          serialize.branch_rows(branch.samples + branch.markers))
    return 0


def _cmd_torus_scan(args) -> int:
    omegas = [float(om) for om in np.linspace(args.omega_min, args.omega_max, args.steps)]
    entries = torus_scan(
        args.Q, omegas,
        sigma=args.sigma, nu=args.nu,
        max_events=args.events,
        transient_fraction=args.transient_frac,
        warm_start=not args.no_warm_start,
        seed_eps=args.seed_eps,
        settle_events=args.settle_events or 2 * args.events,
    )
    summaries = serialize.torus_summary_json(entries)
    if args.out:
        _emit(args.out, args.format, serialize.TORUS_CSV_HEADER,
              serialize.torus_rows(entries), summaries)
    for line in summaries:
        print(serialize.json_line(line))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fixedpoint": _cmd_fixedpoint,
    "spectrum": _cmd_fixedpoint,
    "locus": _cmd_locus,
    "region": _cmd_region,
    "period-diagram": _cmd_period_diagram,
    "mode-trace": _cmd_mode_trace,
    "torus-scan": _cmd_torus_scan,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        argv = _apply_config(argv)
    except OSError as exc:
        ap.error(f"--config: {exc}")
    args = ap.parse_args(argv)
    try:
        args.threads = args.threads or _default_threads()
    except argparse.ArgumentTypeError as exc:
        ap.error(f"RELAY_DDE_THREADS: {exc}")
    try:
        return _COMMANDS[args.command](args)
    except (RelayDDEError, ValueError, OSError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(serialize.json_line(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
