"""Section classification and torus scans."""

import math

import numpy as np

from relaydde.events import initial_state
from relaydde.params import Parameters
from relaydde.symmap import fixed_point, spectrum_of
from relaydde.torus import (
    classify_section,
    perturbed_seed,
    run_section,
    torus_scan,
)

import oracles


class TestClassifySection:
    def test_circle_is_closed_curve(self):
        th = np.linspace(0, 2 * math.pi, 800, endpoint=False)
        pts = [(math.cos(t), 0.6 * math.sin(t)) for t in th]
        shape = classify_section(pts)
        assert shape.kind == "closed-curve"
        assert 0.5 <= shape.box_dimension <= 1.45

    def test_warped_loop_is_closed_curve(self):
        # non-star-shaped closed curve (bean shape)
        th = np.linspace(0, 2 * math.pi, 1200, endpoint=False)
        pts = [((1 + 0.8 * math.cos(2 * t)) * math.cos(t),
                (1 + 0.8 * math.cos(2 * t)) * math.sin(t) + 0.5 * math.cos(t))
               for t in th]
        assert classify_section(pts).kind == "closed-curve"

    def test_clusters_are_periodic(self):
        rng = np.random.default_rng(0)
        centers = [(0.0, 0.0), (1.0, 0.5), (-0.5, 1.0)]
        pts = [(cx + 1e-9 * rng.normal(), cy + 1e-9 * rng.normal())
               for cx, cy in centers for _ in range(200)]
        shape = classify_section(pts)
        assert shape.kind == "cluster"
        assert shape.n_clusters == 3

    def test_single_point_cluster(self):
        pts = [(0.25, -0.5)] * 100
        shape = classify_section(pts)
        assert shape.kind == "cluster"
        assert shape.n_clusters == 1

    def test_blob_is_irregular(self):
        rng = np.random.default_rng(1)
        pts = [(float(rng.uniform()), float(rng.uniform())) for _ in range(900)]
        assert classify_section(pts).kind == "irregular"

    def test_tiny_input_is_empty(self):
        assert classify_section([(0.0, 0.0)] * 3).kind == "empty"


class TestTorusScan:
    def test_closed_curve_just_past_bifurcation(self):
        # warm chain through the supercritical Neimark-Sacker point
        entries = torus_scan(1.5, [14.80, 14.82], sigma=-1, nu=3,
                             max_events=30000, transient_fraction=0.5,
                             settle_events=50000)
        assert entries[-1].tag == "closed-curve"

    def test_periodic_cluster_below_bifurcation(self):
        entries = torus_scan(1.5, [14.5], sigma=-1, nu=3, max_events=6000,
                             transient_fraction=0.5)
        assert entries[0].tag == "cluster"

    def test_no_torus_well_past_window(self):
        entries = torus_scan(1.5, [14.90], sigma=-1, nu=3, max_events=30000,
                             transient_fraction=0.5)
        assert entries[0].tag != "closed-curve"

    def test_run_section_nonoscillatory_tag(self):
        p = Parameters(Q=0.4, Omega=7.0, sigma=1)
        shape, pts, final, tag = run_section(initial_state(0.5), p, 2000, 0.2)
        assert tag == "nonoscillatory"


class TestCoexistence:
    def test_torus_coexists_with_stable_orbit(self):
        # Following the largest torus by small parameter increments carries
        # it below the bifurcation curve, where the periodic solution has
        # regained stability: two attractors at the same parameters.
        from relaydde.torus import COEXISTENCE_PATH
        Q_end, om_end = COEXISTENCE_PATH[-1]
        p = Parameters(Q=Q_end, Omega=om_end, sigma=-1)
        fp = fixed_point(3, p)
        assert spectrum_of(fp).unstable_count == 0  # periodic solution stable

        st = oracles.coexistence_state()
        assert st is not None
        shape, pts, _, tag = oracles.run_section(st, p, 24000, 0.5)
        assert tag == "closed-curve"
        assert shape.diameter > 0.5

        shape2, _, _, tag2 = oracles.run_section(perturbed_seed(fp, 1e-4), p, 12000, 0.5)
        assert tag2 == "cluster"
