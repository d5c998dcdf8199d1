"""Deterministic CSV and JSON writers for the toolkit's record types.

CSV floats are printed as ``%.17g`` and JSON floats as Python's shortest
round-trip ``repr``; both parse back to the same bits, so identical inputs
produce byte-identical files on one platform.  Orbit rows, all floats, go
through one ``%`` template (``ORBIT_CSV_ROW``), other tables through ``fmt``
per value.  JSON documents are emitted as JSON lines, one object per
record, each carrying a ``schema_version`` field.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional, TextIO

from .atlas import BifurcationPoint, BranchSample, RegionGrid
from .events import EventKind, OrbitClass, OrbitRecord
from .symmap import FixedPoint, Spectrum
from .torus import TorusScanEntry

SCHEMA_VERSION = 1


def fmt(x: Any) -> str:
    """Render one value for CSV output; floats get 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


def json_line(record: dict) -> str:
    """One deterministic JSON line with schema_version injected."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **record})


def write_csv(header: list[str], rows: Iterable[Iterable[Any]], fh: TextIO,
              row_format: Optional[str] = None) -> None:
    """Header, then rows: values through fmt, or tuples through row_format."""
    fh.write(",".join(header) + "\n")
    fh.writelines(map(row_format.__mod__, rows) if row_format else
                  (",".join(map(fmt, row)) + "\n" for row in rows))


# --------------------------------------------------------------------------
# Record-specific encodings
# --------------------------------------------------------------------------


def orbit_record_json(rec: OrbitRecord, cls: Optional[OrbitClass] = None) -> dict:
    out = {
        "Q": rec.params.Q,
        "Omega": rec.params.Omega,
        "sigma": rec.params.sigma,
        "terminated": rec.terminated,
        "n_events": len(rec.events),
        "events": [{"kind": e.kind.value, "time": e.time} for e in rec.events],
        "intervals": rec.intervals,
        "h_section": [list(pt) for pt in rec.h_section(EventKind.H, EventKind.HBAR)],
    }
    if cls is not None:
        out["classification"] = {
            "tag": cls.tag.value,
            "label": cls.label,
            "symbols": list(cls.symbols) if cls.symbols else None,
            "nu": cls.nu,
            "symmetry": cls.symmetry,
            "period": cls.period,
        }
    return out


ORBIT_CSV_HEADER = ["t", "x", "y"]
ORBIT_CSV_ROW = "%.17g,%.17g,%.17g\n"  # float (t, x, y) tuples; the bytes of fmt


FIXEDPOINT_CSV_HEADER = [
    "nu", "Q", "Omega", "sigma", "Tstar", "yZstar", "zstar", "deltastar",
    "xH", "valid_z", "valid_delta", "valid_parity", "unstable_count",
]


def fixed_point_json(fp: FixedPoint, xh: float, spectrum: Spectrum) -> dict:
    return {
        "nu": fp.nu,
        "Q": fp.params.Q,
        "Omega": fp.params.Omega,
        "sigma": fp.params.sigma,
        "Tstar": fp.Tstar,
        "yZstar": fp.yZstar,
        "zstar": fp.zstar,
        "deltastar": fp.deltastar,
        "xH": xh,
        "valid": {
            "z_window": fp.valid.z_window,
            "delta_window": fp.valid.delta_window,
            "parity": fp.valid.parity,
        },
        "roots": [[float(z.real), float(z.imag)] for z in spectrum.roots],
        "unstable_count": spectrum.unstable_count,
    }


def fixed_point_row(fp: FixedPoint, xh: float, spectrum: Spectrum):
    return [
        fp.nu, fp.params.Q, fp.params.Omega, fp.params.sigma,
        fp.Tstar, fp.yZstar, fp.zstar, fp.deltastar, xh,
        fp.valid.z_window, fp.valid.delta_window, fp.valid.parity,
        spectrum.unstable_count,
    ]


def bifurcation_point_json(pt: BifurcationPoint) -> dict:
    return {
        "kind": pt.kind,
        "nu": pt.nu,
        "Q": pt.Q,
        "Omega": pt.Omega,
        "phi": pt.phi,
        "residuals": list(pt.residuals),
    }


LOCUS_CSV_HEADER = ["kind", "nu", "Q", "Omega", "phi"]


def bifurcation_point_row(pt: BifurcationPoint):
    return [pt.kind, pt.nu, pt.Q, pt.Omega, pt.phi]


REGION_CSV_HEADER = ["nu", "Q", "Omega", "exists", "stable", "unstable_count"]


def region_rows(grid: RegionGrid):
    omegas = grid.Omega_axis.tolist()
    for nu, counts in zip(grid.nus, grid.unstable_count.tolist()):
        for q, row in zip(grid.Q_axis.tolist(), counts):
            for om, c in zip(omegas, row):
                yield [nu, q, om, c >= 0, c == 0, c]


BRANCH_CSV_HEADER = [
    "kind", "nu", "Q", "Omega", "Tstar", "invP", "xH", "unstable_count", "marker",
]


def branch_rows(samples: Iterable[BranchSample]):
    for s in samples:
        yield [s.kind, s.nu, s.Q, s.Omega, s.Tstar, s.invP, s.xH, s.unstable_count, s.marker]


TORUS_CSV_HEADER = ["Q", "Omega", "tag", "x", "y"]


def torus_rows(entries: list[TorusScanEntry]):
    for entry in entries:
        for x, y in entry.section:
            yield [entry.Q, entry.Omega, entry.tag, x, y]


def torus_summary_json(entries: list[TorusScanEntry]) -> list[dict]:
    return [
        {
            "Q": e.Q,
            "Omega": e.Omega,
            "tag": e.tag,
            "seed": e.seed,
            "n_points": e.shape.n_points,
            "n_clusters": e.shape.n_clusters,
            "diameter": e.shape.diameter,
            "box_dimension": e.shape.box_dimension,
        }
        for e in entries
    ]
