"""Tests of the benchmark itself: no check is vacuous, tracing is robust.

Each workload's job 0 is run once; every corruption test copies its outputs,
changes one value the way a wrong program could, and requires the checks to
fail.  Run with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from relaydde import cli  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Job 0 of every workload, run once: {workload: (outdir, results)}."""
    done = {}
    for name in workloads.WORKLOADS:
        outdir = tmp_path_factory.mktemp(name)
        job = workloads.make_job(name, SEED, 0, str(outdir))
        done[name] = (outdir, workloads.run_job(cli.main, job))
    return done


def _copy(outputs, name, tmp_path):
    """A fresh copy of a workload's outputs: (job, results) pointing at it."""
    src, results = outputs[name]
    for f in src.iterdir():
        shutil.copy(f, tmp_path / f.name)
    job = workloads.make_job(name, SEED, 0, str(tmp_path))
    return job, [workloads.CommandResult(r.name, r.rc, r.stdout, r.stderr) for r in results]


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_smoke_mode_passes():
    assert run.run_smoke(SEED) == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_uncorrupted_outputs_pass(outputs, name, tmp_path):
    job, results = _copy(outputs, name, tmp_path)
    assert all(r.rc == 0 for r in results)
    assert checks.check_job(job, results, SEED) == []


def _shift_z_time(rows):
    # A Z event (x == 0) in the middle of the log moves by 1e-9.
    k = next(i for i in range(len(rows) // 2, len(rows)) if rows[i][1] == "0")
    rows[k][0] = repr(float(rows[k][0]) + 1e-9)


def _nudge_dense_sample(rows):
    k = len(rows) // 2
    rows[k][2] = repr(float(rows[k][2]) + 1e-7)


def _flip_stable(rows):
    k = next(i for i, r in enumerate(rows) if r[4] == "true")
    rows[k][4] = "false"


def _slow_mode_unstable(rows):
    # Self-consistent flags, but the nu = 0 cell now claims an unstable root.
    k = next(i for i, r in enumerate(rows) if r[0] == "0" and r[3] == "true")
    rows[k][4], rows[k][5] = "false", "1"


def _odd_mode_overdamped(rows):
    k = next(i for i, r in enumerate(rows) if r[0] == "1" and float(r[1]) < 0.5)
    rows[k][3:6] = ["true", "true", "0"]


def _all_counts_plus_one(rows):
    for r in rows[1:]:
        if r[3] == "true" and r[0] != "0":
            r[4], r[5] = "false", str(int(r[5]) + 1)


def _shift_ns_omega(rows):
    rows[1][3] = repr(float(rows[1][3]) + 1e-4)


def _shift_pf_omega(rows):
    rows[1][3] = repr(float(rows[1][3]) - 1e-4)


def _shift_corner(rows):
    k = next(i for i, r in enumerate(rows) if r[-1] == "corner1")
    rows[k][3] = repr(float(rows[k][3]) * (1.0 + 1e-9))


def _jump_tstar(rows):
    k = len(rows) // 2
    rows[k][4] = repr(float(rows[k][4]) - 0.025)  # stays inside its period bracket
    rows[k][5] = repr(1.0 / (2.0 * float(rows[k][4])))


CSV_CORRUPTIONS = [
    ("orbit", "orbit_u.csv", _shift_z_time),
    ("dense", "dense.csv", _nudge_dense_sample),
    ("region", "region.csv", _flip_stable),
    ("region", "region.csv", _slow_mode_unstable),
    ("region", "region.csv", _odd_mode_overdamped),
    ("region", "region.csv", _all_counts_plus_one),
    ("loci", "ns.csv", _shift_ns_omega),
    ("loci", "pf.csv", _shift_pf_omega),
    ("loci", "mode.csv", _shift_corner),
    ("loci", "mode.csv", _jump_tstar),
]


@pytest.mark.parametrize("name,filename,edit", CSV_CORRUPTIONS,
                         ids=[f"{n}-{e.__name__.lstrip('_')}" for n, _, e in CSV_CORRUPTIONS])
def test_corrupted_output_fails(outputs, name, filename, edit, tmp_path):
    job, results = _copy(outputs, name, tmp_path)
    _edit_csv(tmp_path / filename, edit)
    assert checks.check_job(job, results, SEED) != []


@pytest.mark.parametrize("field,value", [("period", 1e-8), ("nu", 1)])
def test_corrupted_orbit_summary_fails(outputs, field, value, tmp_path):
    job, results = _copy(outputs, "orbit", tmp_path)
    summary = json.loads(results[0].stdout)
    summary[field] += value
    results[0].stdout = json.dumps(summary) + "\n"
    assert checks.check_job(job, results, SEED) != []


def test_torus_error_tag_fails(outputs, tmp_path):
    job, results = _copy(outputs, "orbit", tmp_path)
    res = next(r for r in results if r.name == "torus_scan")
    entries = [json.loads(line) for line in res.stdout.splitlines()]
    entries[-1]["tag"] = "corner-collision"
    res.stdout = "".join(json.dumps(e) + "\n" for e in entries)
    assert checks.check_job(job, results, SEED) != []


def test_expm_propagation_matches_closed_form():
    # Critically damped start from rest with s = 0 has x(t) = -y0 (Omega/Q) t e^{-Omega t/(2Q)}
    # at Q = 1/2; check the oracle itself against that closed form.
    Q, Om, y0, t = 0.5, 3.0, 0.4, 0.7
    x, _ = checks.propagate(Q, Om, 0, t, 0.0, y0)
    assert math.isclose(x, -y0 * (Om / Q) * t * math.exp(-Om * t / (2 * Q)), rel_tol=1e-12)


def _traced_counts(name, tmp_path):
    tr = tracer.Tracer()
    job = workloads.make_job(name, SEED, 0, str(tmp_path))
    with tr.installed():
        mark = tr.mark()
        tr.span_call("job", workloads.run_job, cli.main, job)
    counts, times = run.job_layer_metrics(tr.summary(mark), 1, 0, 1.0)
    return tr, counts, times


def test_traced_counts_repeat_exactly(tmp_path):
    _, first, _ = _traced_counts("orbit", tmp_path)
    _, second, _ = _traced_counts("orbit", tmp_path)
    assert first == second
    assert first["events.step.calls"] > 0 and first["events.brentq.calls"] > 0


def test_removed_or_renamed_names_read_zero(monkeypatch, tmp_path):
    monkeypatch.setitem(tracer.SPANS, "events.brentq", [("relaydde.events", "brentq_renamed")])
    monkeypatch.setitem(tracer.SPANS, "atlas.ns_locus", [("relaydde.no_such_module", "ns_locus")])
    monkeypatch.setitem(tracer.COUNTS, "flow.flow_x", [("relaydde.events", "gone")])
    tr, counts, _ = _traced_counts("orbit", tmp_path)
    assert counts["events.brentq.calls"] == 0
    assert counts["flow.flow_x.per_event"] == 0
    assert counts["events.step.calls"] > 0
    assert {"relaydde.events.brentq_renamed", "relaydde.no_such_module.ns_locus",
            "relaydde.events.gone"} <= set(tr.missing)
    # The wrapped names are restored after the traced job.
    from relaydde import events
    assert not hasattr(events.step, "__wrapped__")


def test_self_time_is_span_minus_children():
    tr = tracer.Tracer()
    mark = tr.mark()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tr.span_call("cli.main", inner)

    tr.span_call("job", outer)
    s = tr.summary(mark)
    assert s["job"]["calls"] == 1 and s["cli.main"]["calls"] == 1
    assert s["job"]["s"] == pytest.approx(s["job"]["self_s"] + s["cli.main"]["s"])
    assert s["job"]["self_s"] >= 0.009 and s["cli.main"]["self_s"] >= 0.019


def test_crashing_command_counts_as_failed_operation():
    def crash(argv):
        raise ZeroDivisionError("boom")

    res = workloads.run_command(crash, workloads.Command("crash", ["x"]))
    assert res.rc == 1 and "ZeroDivisionError: boom" in res.stderr
