"""The four benchmark workloads: job builders, a runner, and work counts.

A job is a fixed list of ``relay-dde`` CLI commands run in-process through
``relaydde.cli.main(argv)``.  Every job of a workload has the same
composition; the seed and the job index pick only the parameter points
inside each workload's stated regime, and the seed perturbation.  Two jobs
of one run never repeat a request, so no cache kept between CLI calls can
shorten a later job.

Work units are counted from the request or from the output, never from
internal call counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("orbit", "dense", "region", "loci")

REGION_NUS = (0, 1, 2, 3, 4, 5, 6)
REGION_RES = (5, 5)
ORBIT_EVENTS = 3000
TORUS_STEPS = 2
TORUS_EVENTS = 1500
DENSE_HORIZON = 40.0
DENSE_DT = 0.002
LOCUS_SAMPLES = 40
TRACE_SAMPLES = 30


@dataclass
class Command:
    name: str
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    work: Optional[int] = None  # known from the request; else counted from output


@dataclass
class Job:
    workload: str
    index: int
    params: dict
    commands: list[Command]


@dataclass
class CommandResult:
    name: str
    rc: int
    stdout: str
    stderr: str


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def make_job(workload: str, seed: int, index: int, outdir: str) -> Job:
    """Job ``index`` of ``workload`` for ``seed``; outputs go under ``outdir``."""
    rng = _rng(seed, workload, index)
    out = lambda name: os.path.join(outdir, name)  # noqa: E731
    return _BUILDERS[workload](rng, out, index)


def _orbit(rng, out, index) -> Job:
    # Underdamped nu = 3 and overdamped nu = 2 orbits seeded near their stable
    # fixed points, then a short warm-started torus scan past the NS point.
    p = {
        "Q_u": 1.5, "Omega_u": rng.uniform(13.2, 14.2), "nu_u": 3,
        "Q_o": 0.45, "Omega_o": rng.uniform(9.5, 10.5), "nu_o": 2,
        "eps": rng.uniform(5e-4, 2e-3),
        "torus_hi": rng.uniform(14.835, 14.84), "torus_lo": rng.uniform(14.795, 14.80),
        "sigma": -1,
    }
    eps = _fmt(p["eps"])
    cmds = []
    for tag in ("u", "o"):
        cmds.append(Command(
            f"simulate_{tag}",
            ["simulate", "--Q", _fmt(p[f"Q_{tag}"]), "--Omega", _fmt(p[f"Omega_{tag}"]),
             "--sigma", "-1", "--events", str(ORBIT_EVENTS),
             "--seed-nu", str(p[f"nu_{tag}"]), "--seed-eps", eps,
             "--threads", "1", "--out", out(f"orbit_{tag}.csv")],
            outputs=[out(f"orbit_{tag}.csv")],
        ))
    cmds.append(Command(
        "torus_scan",
        ["torus-scan", "--Q", "1.5", "--sigma", "-1", "--nu", "3",
         "--omega-min", _fmt(p["torus_hi"]), "--omega-max", _fmt(p["torus_lo"]),
         "--steps", str(TORUS_STEPS), "--events", str(TORUS_EVENTS),
         "--settle-events", str(TORUS_EVENTS), "--seed-eps", eps,
         "--threads", "1", "--out", out("torus.csv")],
        outputs=[out("torus.csv")],
        work=TORUS_STEPS * TORUS_EVENTS,
    ))
    return Job("orbit", index, p, cmds)


def _dense(rng, out, index) -> Job:
    p = {"Q": 1.5, "Omega": rng.uniform(13.2, 14.2), "nu": 3,
         "eps": rng.uniform(5e-4, 2e-3), "sigma": -1,
         "horizon": DENSE_HORIZON, "dt": DENSE_DT}
    cmd = Command(
        "simulate_dense",
        ["simulate", "--Q", _fmt(p["Q"]), "--Omega", _fmt(p["Omega"]), "--sigma", "-1",
         "--events", "1000000", "--horizon", _fmt(p["horizon"]),
         "--seed-nu", "3", "--seed-eps", _fmt(p["eps"]),
         "--sample-dt", _fmt(p["dt"]), "--threads", "1", "--out", out("dense.csv")],
        outputs=[out("dense.csv")],
    )
    return Job("dense", index, p, [cmd])


def _region(rng, out, index) -> Job:
    # Q spans the critical value 1/2 so overdamped rows are always present.
    p = {"q_min": rng.uniform(0.28, 0.32), "q_max": rng.uniform(2.45, 2.55),
         "omega_min": rng.uniform(0.9, 1.1), "omega_max": rng.uniform(39.0, 41.0),
         "nus": list(REGION_NUS), "resolution": REGION_RES, "sigma": -1}
    nq, nom = REGION_RES
    cmd = Command(
        "region",
        ["region", "--nus", ",".join(map(str, REGION_NUS)), "--sigma", "-1",
         "--q-min", _fmt(p["q_min"]), "--q-max", _fmt(p["q_max"]),
         "--omega-min", _fmt(p["omega_min"]), "--omega-max", _fmt(p["omega_max"]),
         "--resolution", f"{nq}x{nom}", "--threads", "1", "--out", out("region.csv")],
        outputs=[out("region.csv")],
        work=len(REGION_NUS) * nq * nom,
    )
    return Job("region", index, p, [cmd])


def _loci(rng, out, index) -> Job:
    # Q stays at the paper's 1.5 so the NS points can be checked against
    # the published values; the seed moves the scan ranges only.
    p = {"Q": 1.5, "sigma": -1,
         "ns_lo": rng.uniform(2.0, 3.0), "ns_hi": rng.uniform(19.0, 21.0),
         "pf_lo": rng.uniform(10.5, 12.0), "pf_hi": rng.uniform(22.0, 23.0),
         "mt_lo": rng.uniform(4.0, 5.0), "mt_hi": rng.uniform(23.5, 24.5), "nu0": 2}
    q = _fmt(p["Q"])
    cmds = [
        Command("locus_ns",
                ["locus", "--kind", "ns", "--nu", "3", "--Q", q, "--Omega", "1",
                 "--omega-min", _fmt(p["ns_lo"]), "--omega-max", _fmt(p["ns_hi"]),
                 "--samples", str(LOCUS_SAMPLES), "--threads", "1", "--out", out("ns.csv")],
                outputs=[out("ns.csv")], work=LOCUS_SAMPLES),
        Command("locus_pf",
                ["locus", "--kind", "pf", "--nu", "3", "--Q", q, "--Omega", "1",
                 "--omega-min", _fmt(p["pf_lo"]), "--omega-max", _fmt(p["pf_hi"]),
                 "--samples", str(LOCUS_SAMPLES), "--threads", "1", "--out", out("pf.csv")],
                outputs=[out("pf.csv")], work=LOCUS_SAMPLES),
        Command("mode_trace",
                ["mode-trace", "--nu0", "2", "--Q", q,
                 "--omega-min", _fmt(p["mt_lo"]), "--omega-max", _fmt(p["mt_hi"]),
                 "--samples", str(TRACE_SAMPLES), "--threads", "1", "--out", out("mode.csv")],
                outputs=[out("mode.csv")], work=TRACE_SAMPLES),
    ]
    return Job("loci", index, p, cmds)


_BUILDERS: dict[str, Callable] = {
    "orbit": _orbit, "dense": _dense, "region": _region, "loci": _loci,
}


def run_command(main, cmd: Command, call=None) -> CommandResult:
    """Run one CLI command in-process, capturing stdout and stderr.

    ``call`` lets the traced run put its own span around ``main``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = (call or main)(cmd.argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this operation, not the whole run
            traceback.print_exc()  # into the captured stderr
            rc = 1
    return CommandResult(cmd.name, rc if rc is not None else 0, out.getvalue(), err.getvalue())


def run_job(main, job: Job, call=None) -> list[CommandResult]:
    return [run_command(main, cmd, call) for cmd in job.commands]


def work_units(job: Job, results: list[CommandResult]) -> int:
    """Events simulated (orbit), sample rows written (dense), grid cells
    (region), Omega samples requested (loci)."""
    total = 0
    for cmd, res in zip(job.commands, results):
        if res.rc != 0:
            continue
        if cmd.work is not None:
            total += cmd.work
        elif job.workload == "orbit":
            total += _summary(res.stdout)["n_events"]
        else:  # dense: data rows in the CSV, header excluded
            with open(cmd.outputs[0], "rb") as fh:
                total += sum(1 for _ in fh) - 1
    return total


def _summary(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bytes_out(job: Job) -> int:
    return sum(os.path.getsize(p) for cmd in job.commands for p in cmd.outputs
               if os.path.exists(p))


def clear_outputs(job: Job) -> None:
    for cmd in job.commands:
        for p in cmd.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(p)
