"""Benchmark of the relay-dde simulator and map stacks.

    python3 bench/run.py --workload orbit --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

One process, one client, a closed loop: each job of CLI commands is run
in-process through ``relaydde.cli.main`` after the previous one finished,
with ``--threads 1``.  Every output is checked (``checks.py``).  Timings are
reported at reference speed (``refspeed.py``).  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from the traced run (``tracer.py``).  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from refspeed import IMPORT_R0, KERNEL_R0, RefClock, stdlib_import

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
COUNTED_TRACED_JOBS = 3  # counts come from this many traced jobs, so they repeat
SUBPROCESS_TIMEOUT = 60


def _import_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _fresh_import(extra=()):
    """A fresh interpreter importing the CLI module (numpy and scipy with it)."""
    return subprocess.run(
        [sys.executable, *extra, "-c", "import relaydde.cli"],
        env=_import_env(), cwd=ROOT, check=True, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT,
    )


def measure_setup() -> tuple[float, float]:
    """Median fresh-interpreter import time: (reference-speed s, raw s).

    One untimed import first writes the bytecode caches and fills the file
    cache, which a user pays once, not per run.
    """
    _fresh_import()
    clock = RefClock(stdlib_import, IMPORT_R0)
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        _, r, n, _ = clock.measure(_fresh_import)
        raw.append(r)
        ref.append(n)
    return statistics.median(ref), statistics.median(raw)


def measure_import_layers() -> dict[str, float]:
    """Self import time of numpy, scipy and relaydde modules from -X importtime."""
    _fresh_import()
    clock = RefClock(stdlib_import, IMPORT_R0)
    per_pkg: dict[str, list[float]] = {"numpy": [], "scipy": [], "relaydde": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc, _, _, scale = clock.measure(lambda: _fresh_import(("-X", "importtime")))
        sums = dict.fromkeys(per_pkg, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us = float(fields[0])
            except ValueError:
                continue  # the header line
            top = fields[2].strip().split(".")[0]
            if top in sums:
                sums[top] += self_us * 1e-6
        for pkg, v in sums.items():
            per_pkg[pkg].append(v * scale)
    return {f"setup.import.{pkg}_s": statistics.median(v) for pkg, v in per_pkg.items()}


def _digest(job) -> str:
    h = hashlib.sha256()
    for cmd in job.commands:
        for p in cmd.outputs:
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Session:
    """One benchmark run: job loop, checks, operation counts."""

    def __init__(self, workload: str, seed: int, workdir: str):
        from relaydde import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def job(self, index):
        return workloads.make_job(self.workload, self.seed, index, self.workdir)

    def run(self, job, call=None):
        return workloads.run_job(self.cli.main, job, call)

    def finish(self, job, results, count=True) -> int:
        """Check a job's outputs, count its operations, delete its files."""
        if count:
            self.attempted += len(results)
            self.failed += sum(1 for r in results if r.rc != 0)
        for r in results:
            if r.rc != 0:
                self.errors.append(f"{r.name} exited {r.rc}: {r.stderr.strip()[:300]}")
        self.errors += checks.check_job(job, results, self.seed)
        work = workloads.work_units(job, results)
        workloads.clear_outputs(job)
        return work


def plain_run(session, seconds: float) -> dict:
    setup_ref, setup_raw = measure_setup()
    s = session
    clock = RefClock()
    job = s.job(0)
    s.finish(job, s.run(job), count=False)  # warm-up: lazy set-up and caches
    raw, ref, work_total = [], [], 0
    index = 1
    while sum(raw) < seconds:
        job = s.job(index)
        gc.collect()
        clock.rebase()
        results, r, n, _ = clock.measure(lambda: s.run(job))
        work_total += s.finish(job, results)
        raw.append(r)
        ref.append(n)
        index += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel_ms = statistics.median(clock.samples) * 1e3
    print(f"# {s.workload}: {len(ref)} jobs, {work_total} work units, "
          f"kernel median {kernel_ms:.3f} ms (R0 = {KERNEL_R0 * 1e3:.3f} ms)")
    print(f"# raw: setup {setup_raw:.4f} s, job p50 {statistics.median(raw):.4f} s, "
          f"work/s {work_total / sum(raw):.1f}")
    return {
        "setup_s": (setup_ref, "s"),
        "job_s.p50": (statistics.median(ref), "s"),
        "work_per_s": (work_total / sum(ref), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


COUNT_METRICS = {
    # metric: (span, field) for plain counts
    "events.step.calls": ("events.step", "calls"),
    "events.brentq.calls": ("events.brentq", "calls"),
    "flow.apply_flow.calls": ("flow.apply_flow", "calls"),
    "symmap.t_star_candidates.calls": ("symmap.t_star_candidates", "calls"),
    "symmap.brentq.calls": ("symmap.brentq", "calls"),
    "symmap.fixed_point.calls": ("symmap.fixed_point", "calls"),
    "params.derive_rates.calls": ("params.derive_rates", "calls"),
}
TIME_METRICS = {
    "events.step.self_s": ("events.step", "self_s"),
    "events.next_z_delay.self_s": ("events.next_z_delay", "self_s"),
    "events.classify.s": ("events.classify", "s"),
    "flow.apply_flow.self_s": ("flow.apply_flow", "self_s"),
    "torus.torus_scan.s": ("torus.torus_scan", "s"),
    "torus.classify_section.self_s": ("torus.classify_section", "self_s"),
    "serialize.write_csv.self_s": ("serialize.write_csv", "self_s"),
    "serialize.csv_text.self_s": ("serialize.csv_text", "self_s"),
    "symmap.t_star_candidates.self_s": ("symmap.t_star_candidates", "self_s"),
    "symmap.spectrum_of.self_s": ("symmap.spectrum_of", "self_s"),
    "atlas.region_scan.s": ("atlas.region_scan", "s"),
    "atlas.ns_locus.s": ("atlas.ns_locus", "s"),
    "atlas.pitchfork_locus.s": ("atlas.pitchfork_locus", "s"),
    "atlas.mode_trace.s": ("atlas.mode_trace", "s"),
    "cli.main.s": ("cli.main", "s"),
    "cli.build_parser.s": ("cli.build_parser", "s"),
}


def _ratio(a, b):
    return a / b if b else 0.0


def job_layer_metrics(summary, work, nbytes, scale) -> tuple[dict, dict]:
    """(counts, reference-speed times) of one traced job."""
    g = lambda span, field: summary.get(span, {}).get(field, 0)  # noqa: E731
    counts = {m: g(*src) for m, src in COUNT_METRICS.items()}
    counts["flow.flow_x.per_event"] = _ratio(g("flow.flow_x", "calls"), g("events.next_z_delay", "calls"))
    counts["symmap.fixed_point.per_work"] = _ratio(g("symmap.fixed_point", "calls"), work)
    counts["serialize.bytes_out"] = nbytes
    times = {m: g(*src) * scale for m, src in TIME_METRICS.items()}
    times["events.simulate.us_per_event"] = _ratio(g("events.simulate", "s") * scale * 1e6,
                                                   g("events.step", "calls"))
    return counts, times


UNITS = {
    "flow.flow_x.per_event": "evals/crossing",
    "symmap.fixed_point.per_work": "solves/work",
    "serialize.bytes_out": "B",
    "events.simulate.us_per_event": "us",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "count" if metric.endswith(".calls") else "s"


def traced_run(session, seconds: float) -> dict:
    from tracer import Tracer

    s = session
    layers = measure_import_layers()
    clock = RefClock()
    tracer = Tracer()
    job = s.job(0)
    s.finish(job, s.run(job), count=False)  # warm-up
    call_main = lambda argv: tracer.span_call("cli.main", s.cli.main, argv)  # noqa: E731
    counts, times, overhead = [], [], []
    elapsed, index = 0.0, 1
    while elapsed < seconds or len(counts) < COUNTED_TRACED_JOBS:
        job = s.job(index)
        gc.collect()
        clock.rebase()
        plain, r_plain, n_plain, _ = clock.measure(lambda: s.run(job))
        plain_digest = _digest(job)
        s.finish(job, plain)
        gc.collect()
        clock.rebase()
        with tracer.installed():
            mark = tracer.mark()
            traced, r_traced, n_traced, scale = clock.measure(
                lambda: tracer.span_call("job", s.run, job, call_main))
        if _digest(job) != plain_digest:
            s.errors.append(f"job {index}: traced outputs differ from untraced outputs")
        nbytes = workloads.bytes_out(job)
        work = s.finish(job, traced)
        c, t = job_layer_metrics(tracer.summary(mark), work, nbytes, scale)
        counts.append(c)
        times.append(t)
        overhead.append(n_traced - n_plain)
        elapsed += r_plain + r_traced
        index += 1
    if tracer.missing:
        print(f"# trace: names not found, reported as 0: {', '.join(sorted(set(tracer.missing)))}")
    print(f"# {s.workload}: {len(counts)} traced jobs; counts from the first {COUNTED_TRACED_JOBS}")
    head = counts[:COUNTED_TRACED_JOBS]
    metrics = {m: statistics.fmean(c[m] for c in head) for m in head[0]}
    metrics.update({m: statistics.median(t[m] for t in times) for m in times[0]})
    metrics.update(layers)
    metrics["trace.overhead_s"] = statistics.median(overhead)
    return {m: (v, unit_of(m)) for m, v in metrics.items()}


def run_smoke(seed: int) -> int:
    """One job per workload with its checks; exit 0 when all pass."""
    RUN_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=RUN_DIR)
    ok = True
    try:
        for name in workloads.WORKLOADS:
            s = Session(name, seed, workdir)
            job = s.job(0)
            s.finish(job, s.run(job))
            status = "ok" if not s.errors else "FAIL"
            print(f"{name}: {status} ({s.attempted} commands, {s.failed} failed)")
            for e in s.errors:
                print(f"  {e}")
            ok = ok and not s.errors and s.failed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(RUN_DIR)
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one checked job per workload")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not (SRC / "relaydde" / "cli.py").is_file():
        print(f"bench: no relaydde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    if args.smoke:
        return run_smoke(args.seed)

    RUN_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        session = Session(args.workload, args.seed, workdir)
        run = traced_run if args.trace else plain_run
        metrics = run(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(RUN_DIR)
    for e in session.errors[:20]:
        print(f"# check failed: {e}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def pin_to_one_cpu() -> None:
    """Keep this process and its children on the CPU it runs on now.

    Host speed drifts per CPU, independently; the reference kernel only
    tracks the speed of the CPU it runs on, so the timed work must run there
    too.
    """
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # no affinity control here: run unpinned


def _remove_if_empty(path: Path) -> None:
    """Remove the run directory when no other run is using it."""
    try:
        path.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
