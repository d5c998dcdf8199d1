"""Command-line interface: outputs, determinism, exit codes, config files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from relaydde import rootfind, symmap
from relaydde.cli import build_parser, main

BIN = [sys.executable, "-m", "relaydde.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args):
    return subprocess.run(BIN + args, capture_output=True, text=True)


class TestSimulate:
    def test_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        rc = main(["simulate", "--Q", "0.4", "--Omega", "7", "--sigma", "-1",
                   "--events", "2600", "--seed-nu", "2", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema_version"] == 1
        assert summary["tag"] == "periodic"
        assert summary["label"] == "[H,Zbar,Hbar,Z]_2^S"
        assert summary["nu"] == 2
        text = out.read_text()
        assert text.splitlines()[0] == "t,x,y"

    def test_json_record_output(self, tmp_path, capsys):
        out = tmp_path / "orbit.json"
        rc = main(["simulate", "--Q", "1.5", "--Omega", "14", "--events", "400",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["schema_version"] == 1
        assert len(rec["events"]) == 400

    def test_json_suffix_selects_json(self, tmp_path, capsys):
        argv = ["simulate", "--Q", "1.5", "--Omega", "14", "--events", "200"]
        by_suffix, by_flag = tmp_path / "orbit.json", tmp_path / "orbit.jsonl"
        assert main(argv + ["--out", str(by_suffix)]) == 0
        assert main(argv + ["--format", "json", "--out", str(by_flag)]) == 0
        summaries = capsys.readouterr().out.splitlines()
        assert summaries[0] == summaries[1]
        assert by_suffix.read_bytes() == by_flag.read_bytes()
        assert json.loads(by_suffix.read_text())["n_events"] == 200

    def test_explicit_format_beats_json_suffix(self, tmp_path):
        argv = ["simulate", "--Q", "1.5", "--Omega", "14", "--events", "200"]
        forced, plain = tmp_path / "orbit.json", tmp_path / "orbit.csv"
        assert main(argv + ["--format", "csv", "--out", str(forced)]) == 0
        assert main(argv + ["--out", str(plain)]) == 0
        assert forced.read_bytes() == plain.read_bytes()
        assert forced.read_text().startswith("t,x,y\n")


class TestFixedpointSpectrum:
    def test_json_schema(self, capsys):
        rc = main(["fixedpoint", "--Q", "1.5", "--Omega", "14", "--nu", "3",
                   "--format", "json"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        for key in ("nu", "Q", "Omega", "sigma", "Tstar", "yZstar", "zstar",
                    "deltastar", "xH", "valid", "roots", "unstable_count"):
            assert key in rec
        assert rec["unstable_count"] == 0
        assert len(rec["roots"]) == 4

    def test_csv_header(self, capsys):
        rc = main(["spectrum", "--Q", "1.5", "--Omega", "14", "--nu", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("nu,Q,Omega,sigma,Tstar,yZstar")

    def test_numerical_failure_exit_code(self, capsys):
        rc = main(["fixedpoint", "--Q", "0.45", "--Omega", "200", "--nu", "0"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoRoot"

    def test_no_convergence_exit_code(self, monkeypatch, capsys):
        def starved(*args, **kw):
            return rootfind.brentq(*args, **{**kw, "maxiter": 1})

        monkeypatch.setattr(symmap, "brentq", starved)
        rc = main(["fixedpoint", "--Q", "1.5", "--Omega", "14", "--nu", "3"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoConvergence"
        assert "after 1 iterations" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["fixedpoint", "--Q", "1e-300", "--Omega", "1", "--nu", "0"],
        ["fixedpoint", "--Q", "1.5", "--Omega", "1e-300", "--nu", "0"],
        ["simulate", "--Q", "1.5", "--Omega", "1e-300", "--events", "10"],
        ["mode-trace", "--nu0", "2", "--Q", "1.5", "--omega-min", "1e300",
         "--omega-max", "1.7e308", "--samples", "3"],
        ["fixedpoint", "--Q", "1.5", "--Omega", "1e9", "--nu", "1"],
    ])
    def test_out_of_range_point_is_a_json_error(self, argv, monkeypatch, capsys):
        # A lowered grid cap: no argv here may make a full-size T* grid.
        monkeypatch.setattr(symmap, "T_STAR_GRID_MAX", 4096)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == "ValueError"


class TestLocus:
    def test_ns_mode_points(self, capsys):
        rc = main(["locus", "--kind", "ns", "--nu", "3", "--Q", "1.5",
                   "--Omega", "1", "--omega-min", "2", "--omega-max", "20",
                   "--format", "json"])
        assert rc == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        omegas = sorted(r["Omega"] for r in recs)
        assert len(omegas) == 2
        assert abs(omegas[0] - 4.75) <= 0.01
        assert abs(omegas[1] - 14.78) <= 0.01

    def test_corner_points(self, capsys):
        rc = main(["locus", "--kind", "corner", "--nu", "2", "--Q", "1.5",
                   "--Omega", "1", "--omega-min", "5", "--omega-max", "30",
                   "--format", "json"])
        assert rc == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        kinds = {r["kind"]: r["Omega"] for r in recs}
        assert abs(kinds["corner1"] - 9.9965) < 1e-3
        assert abs(kinds["corner2"] - 23.3251) < 1e-3

    def test_overdamped_corner_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "corner.csv"
        rc = main(["locus", "--kind", "corner", "--nu", "2", "--Q", "0.45",
                   "--omega-min", "5", "--omega-max", "30", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            '{"schema_version": 1, "error": "ValueError", "message": '
            '"corner lines exist only in the underdamped regime (Q > 1/2)"}\n')
        assert not out.exists()


class TestRegionAndDiagram:
    def test_region_rows(self, tmp_path):
        out = tmp_path / "region.csv"
        rc = main(["region", "--nus", "2,3", "--q-min", "1.4", "--q-max", "1.6",
                   "--omega-min", "9", "--omega-max", "11",
                   "--resolution", "3x3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "nu,Q,Omega,exists,stable,unstable_count"
        assert len(lines) == 1 + 2 * 3 * 3

    def test_threads_flag_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["region", "--nus", "3", "--q-min", "1.4", "--q-max", "1.6",
                "--omega-min", "9", "--omega-max", "11", "--resolution", "3x4"]
        assert main(base + ["--threads", "1", "--out", str(a)]) == 0
        assert main(base + ["--threads", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_period_diagram_header(self, tmp_path):
        out = tmp_path / "pd.csv"
        rc = main(["period-diagram", "--nus", "2", "--Q", "0.45",
                   "--omega-min", "20", "--omega-max", "24", "--samples", "12",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,nu,Q,Omega,Tstar,invP,xH,unstable_count,marker"

    def test_mode_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main(["mode-trace", "--nu0", "2", "--Q", "1.5",
                   "--omega-min", "9", "--omega-max", "11", "--samples", "20",
                   "--out", str(out)])
        assert rc == 0
        body = out.read_text().splitlines()[1:]
        nus = {int(line.split(",")[1]) for line in body if line.split(",")[0] == "branch"}
        assert nus == {2, 3}


class TestTorusScanCommand:
    def test_cluster_below_bifurcation(self, tmp_path, capsys):
        out = tmp_path / "torus.csv"
        rc = main(["torus-scan", "--Q", "1.5", "--omega-min", "14.5",
                   "--omega-max", "14.5", "--steps", "1", "--events", "6000",
                   "--transient-frac", "0.5", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[0])
        assert summary["tag"] == "cluster"
        assert out.read_text().splitlines()[0] == "Q,Omega,tag,x,y"


REGION = ["region", "--nus", "3", "--q-min", "1.4", "--q-max", "1.6",
          "--omega-min", "9", "--omega-max", "11", "--resolution", "2x2"]
TORUS = ["torus-scan", "--Q", "1.5", "--omega-min", "14.5", "--omega-max", "14.6"]


DATASETS = [
    ["fixedpoint", "--Q", "1.5", "--Omega", "14", "--nu", "3"],
    ["spectrum", "--Q", "1.5", "--Omega", "14", "--nu", "3"],
    ["locus", "--kind", "ns", "--nu", "3", "--Q", "1.5", "--omega-min", "2",
     "--omega-max", "20", "--samples", "40"],
    ["locus", "--kind", "pf", "--nu", "3", "--Q", "1.5", "--omega-min", "10",
     "--omega-max", "23", "--samples", "40"],
    ["locus", "--kind", "corner", "--nu", "2", "--Q", "1.5", "--omega-min", "5",
     "--omega-max", "30"],
    REGION + ["--threads", "1"],
    ["period-diagram", "--nus", "2", "--Q", "0.45", "--omega-min", "20",
     "--omega-max", "24", "--samples", "12"],
    ["mode-trace", "--nu0", "2", "--Q", "1.5", "--omega-min", "9", "--omega-max", "11",
     "--samples", "20"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", DATASETS, ids=lambda argv: " ".join(argv[:3]))
def test_out_file_matches_stdout(argv, fmt, tmp_path, capsys):
    out = tmp_path / "data"
    assert main(argv + ["--format", fmt]) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert stdout and out.read_bytes() == stdout.encode()


class TestConfigAndErrors:
    def test_usage_error_exit_2(self):
        res = run_cli(["simulate", "--Q", "1.5"])  # missing --Omega
        assert res.returncode == 2
        assert "--Omega" in res.stderr and "Traceback" not in res.stderr
        res = run_cli(["locus", "--kind", "ns", "--Q", "1.5"])  # missing required
        assert res.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--Q", "1.5"],
        ["fixedpoint", "--Q", "1.5", "--nu", "3"],
        ["spectrum", "--Q", "1.5", "--nu", "3"],
        REGION + ["--resolution", "4"],
        REGION + ["--resolution", "4x"],
        REGION + ["--resolution", "1x5"],
        REGION + ["--resolution", "3x3x3"],
        REGION + ["--nus", "1,-2"],
        ["simulate", "--Q", "1.5", "--Omega", "14", "--events", "-5"],
        ["simulate", "--Q", "1.5", "--Omega", "14", "--events", "0"],
        ["simulate", "--Q", "1.5", "--Omega", "14", "--sample-dt", "0"],
        ["simulate", "--Q", "1.5", "--Omega", "14", "--seed-nu", "-1"],
        TORUS + ["--steps", "0"],
        TORUS + ["--events", "-1"],
        TORUS + ["--settle-events", "0"],
        ["locus", "--kind", "ns", "--nu", "3", "--Q", "1.5", "--omega-min", "2",
         "--omega-max", "20", "--samples", "0"],
        ["mode-trace", "--nu0", "2", "--Q", "1.5", "--omega-min", "9",
         "--omega-max", "11", "--samples", "-3"],
        REGION + ["--threads", "0"],
        ["--threads", "-1"] + REGION,
        ["fixedpoint", "--Q", "nan", "--Omega", "14", "--nu", "3"],
        ["fixedpoint", "--Q", "inf", "--Omega", "14", "--nu", "3"],
        ["fixedpoint", "--Q", "1.5", "--Omega", "nan", "--nu", "3"],
        ["fixedpoint", "--Q", "1.5", "--Omega", "-inf", "--nu", "3"],
        ["fixedpoint", "--Q", "1.5", "--Omega", "14", "--nu", "-1"],
        ["mode-trace", "--nu0", "-1", "--Q", "1.5", "--omega-min", "9", "--omega-max", "11"],
        REGION + ["--q-min", "0"],
        REGION + ["--q-max", "-1.5"],
        REGION + ["--omega-min", "inf"],
        REGION + ["--omega-max", "nan"],
        ["locus", "--kind", "ns", "--nu", "3", "--Q", "1.5", "--omega-min", "-5",
         "--omega-max", "20"],
        ["locus", "--kind", "pf", "--nu", "3", "--Q", "1.5", "--omega-min", "2",
         "--omega-max", "0"],
        ["mode-trace", "--nu0", "2", "--Q", "1.5", "--omega-min", "nan", "--omega-max", "11"],
        ["mode-trace", "--nu0", "2", "--Q", "1.5", "--omega-min", "9", "--omega-max", "0"],
        ["period-diagram", "--nus", "2", "--Q", "1.5", "--omega-min", "0", "--omega-max", "11"],
        ["period-diagram", "--nus", "2", "--Q", "1.5", "--omega-min", "9", "--omega-max", "inf"],
        TORUS + ["--omega-min", "-14.5"],
        TORUS + ["--omega-max", "0"],
        ["simulate", "--Q", "1.5", "--Omega", "14", "--horizon", "-1"],
        ["simulate", "--Q", "1.5", "--Omega", "14", "--horizon", "nan"],
        ["simulate", "--Q", "1.5", "--Omega", "14", "--seed-nu", "3", "--seed-eps", "nan"],
        ["simulate", "--Q", "1.5", "--Omega", "14", "--x0", "nan"],
        ["simulate", "--Q", "1.5", "--Omega", "14", "--x0", "0"],
        ["simulate", "--Q", "1.5", "--Omega", "14", "--y0", "inf"],
        TORUS + ["--transient-frac", "1.5"],
        TORUS + ["--transient-frac", "nan"],
        TORUS + ["--transient-frac", "-0.1"],
        TORUS + ["--seed-eps", "inf"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_argument_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        TORUS[:3] + ["--omega-min", "14.6", "--omega-max", "14.5"],
        ["mode-trace", "--nu0", "2", "--Q", "1.5", "--omega-min", "11", "--omega-max", "9"],
    ], ids=lambda argv: " ".join(argv))
    def test_reversed_range_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert args.omega_min > args.omega_max

    def test_bad_thread_env_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("RELAY_DDE_THREADS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(REGION)
        assert exc.value.code == 2
        assert "RELAY_DDE_THREADS" in capsys.readouterr().err

    def test_locus_needs_no_omega(self, capsys):
        rc = main(["locus", "--kind", "corner", "--nu", "2", "--Q", "1.5",
                   "--omega-min", "5", "--omega-max", "30"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("Q=1.5\nOmega=14\nnu=3\n")
        rc = main(["--config", str(cfg), "fixedpoint", "--format", "json"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["Omega"] == 14.0
        rc = main(["--config", str(cfg), "fixedpoint", "--Omega", "10",
                   "--format", "json"])
        assert rc == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["Omega"] == 10.0

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(missing), "fixedpoint", "--Q", "1.5", "--Omega", "14",
                  "--nu", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "missing.cfg" in err and "Traceback" not in err

    def test_repeat_invocation_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["locus", "--kind", "ns", "--nu", "2", "--Q", "1.5",
                "--Omega", "1", "--omega-min", "3", "--omega-max", "8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_entry_point_installed(self):
        res = run_cli(["--help"])
        assert res.returncode == 0
        assert "torus-scan" in res.stdout


def test_runtime_needs_no_scipy():
    code = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from relaydde.cli import main
rcs = [main(["fixedpoint", "--Q", "1.5", "--Omega", "14", "--nu", "3"]),
       main(["simulate", "--Q", "1.5", "--Omega", "14", "--seed-nu", "3", "--events", "50"])]
loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None]
print(rcs, loaded, file=sys.stderr)
sys.exit(rcs != [0, 0] or bool(loaded))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip() == "[0, 0] []"
