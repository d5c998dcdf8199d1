"""Output formatting: CSV and JSON float bytes, schema versioning."""

import argparse
import io
import json
import math

import numpy as np
import pytest

from relaydde import serialize
from relaydde.errors import LostBranch
from relaydde.atlas import mode_trace


def test_float_formatting_full_precision():
    x = 1.0 / 3.0
    assert serialize.fmt(x) == "0.33333333333333331"
    assert float(serialize.fmt(x)) == x
    assert serialize.fmt(0.1) == "0.10000000000000001"
    assert serialize.fmt(2.0) == "2"
    assert serialize.fmt(True) == "true"
    assert serialize.fmt(None) == ""
    assert serialize.fmt(float("nan")) == "nan"


def _fmt_reference(x):
    """The isinstance-first formatter the fast path must reproduce byte for byte."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


FMT_TABLE = [
    True, False, None, 0, -7, 2**70, "branch", "", 0.0, -0.0, 1.0 / 3.0, 2.0,
    -1e-300, 5e-324, 1.7976931348623157e308, float("nan"), -float("nan"),
    float("inf"), -float("inf"), np.float64(0.1), np.float64(-0.0),
    np.float64("nan"), np.float64("-inf"), np.int64(-3), np.bool_(True),
]


@pytest.mark.parametrize("x", FMT_TABLE, ids=repr)
def test_fmt_bytes_match_reference(x):
    assert serialize.fmt(x) == _fmt_reference(x)


def test_write_csv_bytes_match_reference():
    rows = [tuple(FMT_TABLE[i:i + 3]) for i in range(0, len(FMT_TABLE), 3)]
    buf = io.StringIO()
    serialize.write_csv(["a", "b", "c"], rows, buf)
    want = "a,b,c\n" + "".join(",".join(_fmt_reference(v) for v in row) + "\n" for row in rows)
    assert buf.getvalue() == want


def test_json_line_schema_and_round_trip():
    line = serialize.json_line({"value": 1.0 / 7.0, "items": [0.1, 2]})
    doc = json.loads(line)
    assert doc["schema_version"] == 1
    assert doc["value"] == 1.0 / 7.0
    assert doc["items"][0] == 0.1
    assert "0.14285714285714285" in line


def test_write_csv_deterministic():
    rows = [(0.1, -1, "a"), (2.0 / 3.0, 5, "b")]
    a, b = io.StringIO(), io.StringIO()
    serialize.write_csv(["x", "n", "tag"], rows, a)
    serialize.write_csv(["x", "n", "tag"], rows, b)
    assert a.getvalue() == b.getvalue()
    assert a.getvalue().splitlines()[0] == "x,n,tag"
    assert a.getvalue().splitlines()[1].startswith("0.10000000000000001,-1,")


# (value, its JSON text): floats use the shortest round-trip repr.
JSON_TABLE = [
    (0.1, "0.1"), (1.0 / 3.0, "0.3333333333333333"), (-0.0, "-0.0"), (2.0, "2.0"),
    (float("nan"), "NaN"), (float("inf"), "Infinity"), (-float("inf"), "-Infinity"),
    (5e-324, "5e-324"), (1.7976931348623157e308, "1.7976931348623157e+308"),
    (np.float64(0.1), "0.1"), (np.float64(-0.0), "-0.0"), (np.float64(1.0 / 3.0), "0.3333333333333333"),
    (True, "true"), (False, "false"), (None, "null"), (0, "0"), (-7, "-7"), (2**70, str(2**70)),
    ("branch", '"branch"'), ("", '""'), ((1, (0.1, None), ()), "[1, [0.1, null], []]"),
    ([1.0 / 7.0, [np.float64(2.5)]], "[0.14285714285714285, [2.5]]"),
]


@pytest.mark.parametrize("x, text", JSON_TABLE, ids=[repr(x) for x, _ in JSON_TABLE])
def test_json_line_bytes(x, text):
    rec = {"v": x, "nested": {"w": x}}
    line = serialize.json_line(rec)
    assert line == json.dumps({"schema_version": 1, **rec})
    assert line == f'{{"schema_version": 1, "v": {text}, "nested": {{"w": {text}}}}}'
    if isinstance(x, float) and math.isfinite(x):
        back = json.loads(line)["v"]
        assert math.copysign(1.0, back) == math.copysign(1.0, x) and back == x


def test_threads_env_fallback(monkeypatch):
    from relaydde.cli import _default_threads
    monkeypatch.setenv("RELAY_DDE_THREADS", "3")
    assert _default_threads() == 3
    monkeypatch.setenv("RELAY_DDE_THREADS", "junk")
    with pytest.raises(argparse.ArgumentTypeError):
        _default_threads()  # the CLI turns this into a usage error


def test_mode_trace_lost_branch_reports_last_good():
    # the slow-mode root leaves double precision partway through this range
    with pytest.raises(LostBranch) as err:
        mode_trace(0, 0.45, (30.0, 60.0), sigma=-1, samples=40)
    assert err.value.last_good is not None
    assert err.value.last_good.Omega < 50.0
