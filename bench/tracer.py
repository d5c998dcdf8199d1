"""Spans and counts at the program's layer boundaries, recorded from outside.

The traced run wraps public functions at the module attributes where their
callers look them up (``events.step`` is called by ``simulate`` through the
``events`` module globals, ``atlas.fixed_point`` by the atlas scans, and so
on), so the program itself is unchanged.  A name that a later change removes
or renames is skipped: its metric reads 0 instead of failing the run.

Spans live in memory as parallel arrays (name, parent, start, end); the
parent chain of every span ends at the job span that caused it.  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Span name -> (module, attribute) sites that are wrapped with that span.
SPANS: dict[str, list[tuple[str, str]]] = {
    "job": [],
    "cli.main": [],
    "cli.build_parser": [("relaydde.cli", "build_parser")],
    "events.simulate": [("relaydde.cli", "simulate"), ("relaydde.torus", "simulate")],
    "events.step": [("relaydde.events", "step")],
    "events.next_z_delay": [("relaydde.events", "next_z_delay")],
    "events.brentq": [("relaydde.events", "brentq")],
    "events.classify": [("relaydde.cli", "classify")],
    "flow.apply_flow": [("relaydde.events", "apply_flow")],
    "torus.torus_scan": [("relaydde.cli", "torus_scan")],
    "torus.classify_section": [("relaydde.torus", "classify_section")],
    "serialize.write_csv": [("relaydde.serialize", "write_csv")],
    "serialize.csv_text": [("relaydde.serialize", "csv_text")],
    "symmap.t_star_candidates": [("relaydde.symmap", "t_star_candidates")],
    "symmap.brentq": [("relaydde.symmap", "brentq")],
    "symmap.spectrum_of": [("relaydde.cli", "spectrum_of"), ("relaydde.atlas", "spectrum_of")],
    # One fixed-point solve is one call of fixed_point, or of the candidate
    # list that mode tracing selects from by continuity.
    "symmap.fixed_point": [("relaydde.cli", "fixed_point"), ("relaydde.atlas", "fixed_point"),
                           ("relaydde.torus", "fixed_point"),
                           ("relaydde.atlas", "fixed_point_candidates")],
    "atlas.region_scan": [("relaydde.atlas", "region_scan")],
    "atlas.ns_locus": [("relaydde.atlas", "ns_locus")],
    "atlas.pitchfork_locus": [("relaydde.atlas", "pitchfork_locus")],
    "atlas.mode_trace": [("relaydde.atlas", "mode_trace")],
}

# Hot calls that are counted only: a span each would swamp their cost.
COUNTS: dict[str, list[tuple[str, str]]] = {
    "flow.flow_x": [("relaydde.events", "flow_x")],
    "params.derive_rates": [("relaydde.events", "derive_rates"),
                            ("relaydde.symmap", "derive_rates"),
                            ("relaydde.atlas", "derive_rates")],
}


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self._id = {n: i for i, n in enumerate(self.names)}
        self.count_names = list(COUNTS)
        self.counts = [0] * len(self.count_names)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def span_call(self, name, fn, *args, **kwargs):
        """Call fn inside a span called ``name``."""
        idx = self._open(self._id[name])
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, t0, time.perf_counter())

    def _wrap_span(self, fn, nid):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, clock())

        return wrapper

    def _wrap_count(self, fn, cid):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[cid] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every site that exists; restore the originals on exit."""
        saved = []
        self.missing = []
        sites = [(n, s, self._wrap_span, self._id[n]) for n, ss in SPANS.items() for s in ss]
        sites += [(n, s, self._wrap_count, i) for i, (n, ss) in enumerate(COUNTS.items()) for s in ss]
        try:
            for name, (mod_name, attr), wrap, key in sites:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, wrap(fn, key))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- analysis ----------------------------------------------------------

    def mark(self) -> tuple[int, list[int]]:
        """Position to summarise from: span index and a copy of the counts."""
        return len(self.name), list(self.counts)

    def summary(self, since: tuple[int, list[int]]) -> dict[str, dict]:
        """Per span name: calls, total time and self time of spans since a mark.

        Spans opened after the mark have parents after it too (or -1), so
        the slice is closed under the parent relation.
        """
        lo, counts0 = since
        name = np.frombuffer(self.name, dtype=np.int32)[lo:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:] - lo
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:]
               - np.frombuffer(self.start, dtype=np.float64)[lo:])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        selft = np.bincount(name, weights=self_t, minlength=n)
        out = {nm: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(selft[i])}
               for i, nm in enumerate(self.names)}
        for i, nm in enumerate(self.count_names):
            out[nm] = {"calls": self.counts[i] - counts0[i], "s": 0.0, "self_s": 0.0}
        return out
