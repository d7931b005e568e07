"""Outer-domain kernels: closed disk form, numeric construction, and the
shared interior Neumann solver.

Key frozen value: the unit-disk kernel with the source at the center is
``ln|x| / (2 pi)``, giving ``-0.11031780007632582`` at ``x = (1/2, 0)``.
"""

import re

import numpy as np
import pytest

from npeit.exceptions import ConditioningError, EvaluationDomainError
from npeit.geometry import InclusionScene, make_circle, make_ellipse, make_star
from npeit.green import DiskGreen, NumericGreen, make_green
from npeit.layers import build_scene_operators
from npeit.quadrature import flux_kernel, free_layer_field, log_kernel, pair_table

from references import correction, kernel, outer_trace_kernel

INTERIOR_POINTS = np.array([[0.2, 0.3], [-0.4, 0.1], [0.05, -0.35], [0.1, 0.02]])
SOURCE_POINTS = np.array([[0.3, 0.1], [0.0, 0.0], [-0.2, 0.45]])


def fundamental_solution(points, source=(0.0, 0.0)) -> np.ndarray:
    """Fundamental solution ``E(x) = -ln|x - y| / (2 pi)`` of ``-Delta``.

    Positive near the source (it equals 1 on the circle of radius
    ``exp(-2 pi)``) and with unit total flux through any enclosing curve.
    The layer machinery works with the opposite-sign kernel internally;
    this is the reference-normalized field.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts - np.asarray(source, dtype=float)
    return -np.log(np.hypot(d[:, 0], d[:, 1])) / (2.0 * np.pi)


class TestFundamentalSolution:
    def test_unit_level_set(self):
        # E = 1 on the circle of radius exp(-2 pi)
        r = np.exp(-2 * np.pi)
        assert fundamental_solution([[r, 0.0]])[0] == pytest.approx(1.0, abs=1e-15)
        assert fundamental_solution([[0.0, -r]])[0] == pytest.approx(1.0, abs=1e-15)

    def test_unit_source_flux(self):
        # total flux of -grad E through an enclosing circle is -1
        # (E is the field of a unit source for -Delta); radial derivative
        # of E is -1/(2 pi rho), so oint dE/dnu = -1 for any radius
        for rho in (0.3, 1.7):
            h = 1e-6
            theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
            p_out = (rho + h) * np.column_stack([np.cos(theta), np.sin(theta)])
            p_in = (rho - h) * np.column_stack([np.cos(theta), np.sin(theta)])
            dn = (fundamental_solution(p_out) - fundamental_solution(p_in)) / (2 * h)
            flux = np.sum(dn) * 2 * np.pi * rho / 64
            assert flux == pytest.approx(-1.0, abs=1e-9)

    def test_shifted_source(self):
        v = fundamental_solution([[1.5, 2.0]], source=(1.5, 1.0))
        assert v[0] == pytest.approx(-np.log(1.0) / (2 * np.pi), abs=1e-15)


class TestDiskGreen:
    def setup_method(self):
        self.outer = make_circle((0, 0), 1.0, 128)
        self.green = DiskGreen(self.outer)

    def test_center_source_closed_form(self):
        val = kernel(self.green, [[0.5, 0.0]], [[0.0, 0.0]])[0, 0]
        assert val == pytest.approx(np.log(0.5) / (2 * np.pi), abs=1e-15)
        assert val == pytest.approx(-0.11031780007632582, abs=1e-15)

    def test_correction_symmetry(self):
        r1 = correction(self.green, INTERIOR_POINTS, SOURCE_POINTS)
        r2 = correction(self.green, SOURCE_POINTS, INTERIOR_POINTS)
        assert np.max(np.abs(r1 - r2.T)) <= 1e-15

    def test_zero_boundary_mean(self):
        tr = outer_trace_kernel(self.green, SOURCE_POINTS)
        assert np.max(np.abs(self.outer.weights @ tr)) <= 1e-13

    def test_constant_outer_flux(self):
        # d/dnu N = 1/|bd Omega| = 1/(2 pi) on the outer circle
        h = 1e-6
        theta = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        ring = np.column_stack([np.cos(theta), np.sin(theta)])
        vals_in = kernel(self.green, ring * (1 - h), SOURCE_POINTS)
        vals_on = kernel(self.green, ring, SOURCE_POINTS)
        dn = (vals_on - vals_in) / h
        assert np.max(np.abs(dn - 1.0 / (2 * np.pi))) <= 1e-5

    def test_boundary_trace_consistency(self):
        on_boundary = kernel(self.green, self.outer.nodes, SOURCE_POINTS)
        trace = outer_trace_kernel(self.green, SOURCE_POINTS)
        assert np.max(np.abs(on_boundary - trace)) <= 1e-13

    def test_correction_is_harmonic(self):
        # five-point Laplacian of R(., y) vanishes inside the disk
        h = 1e-4
        for y in S_POINTS_SMALL:
            x0 = np.array([0.15, -0.2])
            stencil = np.array([x0, x0 + [h, 0], x0 - [h, 0],
                                x0 + [0, h], x0 - [0, h]])
            vals = correction(self.green, stencil, [y])[:, 0]
            lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h**2
            assert abs(lap) <= 1e-5

    def test_correction_gradient_matches_fd(self):
        h = 1e-6
        g = self.green.correction_field(INTERIOR_POINTS, SOURCE_POINTS,
                                        np.eye(len(SOURCE_POINTS)))[1]
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            up = correction(self.green, INTERIOR_POINTS + e, SOURCE_POINTS)
            dn = correction(self.green, INTERIOR_POINTS - e, SOURCE_POINTS)
            assert np.max(np.abs(g[:, d] - (up - dn) / (2 * h))) <= 1e-9

    def test_rejects_points_outside(self):
        ops = build_scene_operators(InclusionScene(
            self.outer, make_circle((0.1, 0.0), 0.3, 64)), self.green)
        with pytest.raises(EvaluationDomainError, match="closed outer disk"):
            ops.field([[1.5, 0.0]], np.ones(64))
        # the first offending point is named, not the largest radius
        for pts, named in (([[-0.5, 0.0], [1.5, 0.0], [0.0, 2.0]],
                            "(1.5, 0.0) is outside the closed outer disk "
                            "(radius 1.5 > 1)"),
                           ([[-0.5, 0.0], [0.0, 0.99], [2.0, 0.0]],
                            "(0.0, 0.99) is within")):
            with pytest.raises(EvaluationDomainError,
                               match=re.escape("evaluation points: " + named)):
                ops.field(pts, np.ones(64))
        with pytest.raises(EvaluationDomainError):
            outer_trace_kernel(self.green, [[0.0, 1.2]])

    def test_requires_circle(self):
        with pytest.raises(ValueError):
            DiskGreen(make_ellipse((0, 0), 1.0, 0.8, 64))

    def test_offcenter_disk(self):
        # same invariants for a shifted, scaled outer disk
        outer = make_circle((0.5, -0.25), 1.75, 128)
        green = DiskGreen(outer)
        y = np.array([[0.7, 0.1], [0.5, -0.25]])
        tr = outer_trace_kernel(green, y)
        assert np.max(np.abs(outer.weights @ tr)) <= 1e-13
        # center source: N = ln(|x - c|/rho^2)/(2 pi) + ... reduces to
        # (1/2 pi) ln(|x - c| / rho) plus the -ln(rho)/2 pi shift; check
        # against the defining properties instead of a formula: zero mean
        # holds above, and the value at a known point matches the free
        # log plus a constant in x for the center source
        vals = kernel(green, np.array([[1.2, -0.25], [0.9, -0.25]]),
                      [[0.5, -0.25]])[:, 0]
        diff = vals[0] - vals[1]
        expect = (np.log(0.7) - np.log(0.4)) / (2 * np.pi)
        assert diff == pytest.approx(expect, abs=1e-14)


S_POINTS_SMALL = np.array([[0.3, 0.1], [-0.2, 0.45]])


class TestInteriorNeumannSolver:
    def test_circle_mode_solution(self):
        # interior Neumann data cos(m t) on the unit circle produces
        # rho^m cos(m theta)/m up to a constant
        outer = make_circle((0, 0), 1.0, 128)
        m = 3
        psi, border = NumericGreen(outer).neumann_solve(np.cos(m * outer.t))
        assert np.max(np.abs(border)) <= 1e-12
        probes = np.array([[0.3, 0.2], [-0.1, 0.4], [0.25, -0.3]])
        vals = free_layer_field(outer, probes, psi[:, 0])[0]
        rho = np.hypot(probes[:, 0], probes[:, 1])
        th = np.arctan2(probes[:, 1], probes[:, 0])
        expect = rho**m * np.cos(m * th) / m
        # compare differences (the single-layer solution floats by a constant)
        assert np.max(np.abs((vals - vals[0]) - (expect - expect[0]))) <= 1e-12

    def test_rejects_incompatible_data(self):
        outer = make_circle((0, 0), 1.0, 64)
        with pytest.raises(ConditioningError):
            NumericGreen(outer).neumann_solve(np.ones(64))


class TestDiskNeumannSolver:
    """The closed form on circles against the bordered LU solve."""

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("center, rho", [((0.0, 0.0), 1.0),
                                             ((0.5, -0.25), 1.3),
                                             ((-0.2, 0.4), 0.7)])
    def test_matches_the_lu_solver(self, center, rho, n):
        outer = make_circle(center, rho, n)
        closed, lu = DiskGreen(outer), NumericGreen(outer)
        t = outer.t
        flux = np.column_stack([np.cos(t), np.sin(3 * t) - 0.2 * np.cos(7 * t),
                                np.exp(np.cos(t)) * np.sin(2 * t)])
        flux -= outer.mean(flux)
        psi, border = closed.neumann_solve(flux)
        psi_lu, border_lu = lu.neumann_solve(flux)
        assert np.all(border == 0.0) and np.max(np.abs(border_lu)) <= 1e-13
        assert np.max(np.abs(psi - psi_lu)) <= 1e-13 * np.max(np.abs(psi_lu))
        trace = closed.layer_trace(psi)
        expected = lu.layer_trace(psi)
        assert np.max(np.abs(trace - expected)) <= 1e-14 * np.max(np.abs(expected))
        assert np.array_equal(closed.layer_trace(psi[:, 1]), trace[:, 1])

    def test_rejects_incompatible_data(self):
        green = DiskGreen(make_circle((0.1, 0), 1.2, 64))
        with pytest.raises(ConditioningError, match="not mean-free"):
            green.neumann_solve(np.ones(64))


class TestNumericGreen:
    def test_matches_disk_closed_form(self):
        outer = make_circle((0, 0), 1.0, 128)
        ng, dg = NumericGreen(outer), DiskGreen(outer)
        assert np.max(np.abs(kernel(ng, INTERIOR_POINTS, SOURCE_POINTS)
                             - kernel(dg, INTERIOR_POINTS, SOURCE_POINTS))) <= 1e-12
        assert np.max(np.abs(outer_trace_kernel(ng, SOURCE_POINTS)
                             - outer_trace_kernel(dg, SOURCE_POINTS))) <= 1e-12
        unit = np.eye(len(SOURCE_POINTS))
        assert np.max(np.abs(
            ng.correction_field(INTERIOR_POINTS, SOURCE_POINTS, unit)[1]
            - dg.correction_field(INTERIOR_POINTS, SOURCE_POINTS, unit)[1])) <= 1e-11

    def test_star_outer_invariants(self):
        star = make_star((0, 0), 1.0, [(4, 0.1)], 192)
        ng = NumericGreen(star)
        r1 = correction(ng, INTERIOR_POINTS, SOURCE_POINTS)
        r2 = correction(ng, SOURCE_POINTS, INTERIOR_POINTS)
        assert np.max(np.abs(r1 - r2.T)) <= 1e-12  # symmetry
        tr = outer_trace_kernel(ng, SOURCE_POINTS)
        assert np.max(np.abs(star.weights @ tr)) <= 1e-12  # zero mean

    def test_star_correction_is_harmonic(self):
        star = make_star((0, 0), 1.0, [(4, 0.1)], 192)
        ng = NumericGreen(star)
        h = 1e-4
        x0 = np.array([0.15, -0.2])
        stencil = np.array([x0, x0 + [h, 0], x0 - [h, 0],
                            x0 + [0, h], x0 - [0, h]])
        vals = correction(ng, stencil, [[0.3, 0.1]])[:, 0]
        lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h**2
        assert abs(lap) <= 1e-5

    def test_rejects_near_boundary_evaluation(self):
        outer = make_circle((0, 0), 1.0, 64)
        ng = NumericGreen(outer)
        ops = build_scene_operators(
            InclusionScene(outer, make_circle((0.1, 0.0), 0.3, 64)), ng)
        with pytest.raises(EvaluationDomainError, match="numeric kernel"):
            ops.field([[0.99, 0.0]], np.ones(64))
        with pytest.raises(EvaluationDomainError, match="source points"):
            outer_trace_kernel(ng, [[0.99, 0.0]])

    def test_factory(self):
        circ = make_circle((0, 0), 1.0, 64)
        star = make_star((0, 0), 1.0, [(3, 0.1)], 64)
        assert isinstance(make_green(circ), DiskGreen)
        assert isinstance(make_green(star), NumericGreen)


# ---------------------------------------------------------------------------
# the correction field of a source density
# ---------------------------------------------------------------------------

GRADIENT_OUTERS = [make_ellipse((0, 0), 1.3, 0.8, 128),
                   make_star((0.05, 0), 1.0, [(3, 0.1)], 128)]
INCLUSION_NODES = make_star((0.1, 0), 0.4, [(3, 0.05)], 96).nodes


def per_source_correction_field(green, x, y, density):
    """Frozen reference: each source's outer density ``psi`` and constant
    by its own Neumann solve, the free outer layer's values and gradient
    tables at ``x``, and the contractions with ``density`` by ``einsum``."""
    psi, const = green._trace(*green._outer_table(np.asarray(y, float))[:2])[1]
    dx, r2pi = pair_table(np.asarray(x, float), green.outer.nodes)
    w = green.outer.weights
    values = np.einsum("pj,jq,q->p", log_kernel(dx) * w, psi, density)
    grads = np.einsum("pjd,jq,q->pd", flux_kernel(dx, r2pi) * w[:, None],
                      psi, density)
    return values + const @ density, grads


class TestCorrectionField:
    @pytest.mark.parametrize("outer", GRADIENT_OUTERS, ids=["ellipse", "star"])
    @pytest.mark.parametrize("x, y", [(INTERIOR_POINTS, SOURCE_POINTS),
                                      (INCLUSION_NODES, INCLUSION_NODES)],
                             ids=["points", "inclusion-nodes"])
    def test_matches_einsum_contraction(self, outer, x, y):
        # the density contracts the Neumann data before the one solve; the
        # per-source solves contracted after it give the same field
        green = NumericGreen(outer)
        density = np.random.default_rng(len(y)).standard_normal(len(y))
        got = green.correction_field(x, y, density)
        expected = per_source_correction_field(green, x, y, density)
        for g, e, shape in zip(got, expected, [(len(x),), (len(x), 2)]):
            assert g.shape == e.shape == shape
            assert np.max(np.abs(g - e)) <= 1e-13 * np.max(np.abs(e))
        columns = np.column_stack([density, np.ones(len(y))])
        values, grads = green.correction_field(x, y, columns)
        assert values.shape == (len(x), 2) and grads.shape == (len(x), 2, 2)
        assert np.max(np.abs(values[:, 0] - got[0])) <= 1e-13 * np.max(np.abs(got[0]))
        assert np.max(np.abs(grads[..., 0] - got[1])) <= 1e-13 * np.max(np.abs(got[1]))

    @pytest.mark.parametrize("outer", GRADIENT_OUTERS, ids=["ellipse", "star"])
    def test_matches_fd_of_correction(self, outer):
        green = NumericGreen(outer)
        h = 1e-6
        g = green.correction_field(INTERIOR_POINTS, SOURCE_POINTS,
                                   np.eye(len(SOURCE_POINTS)))[1]
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            up = correction(green, INTERIOR_POINTS + e, SOURCE_POINTS)
            dn = correction(green, INTERIOR_POINTS - e, SOURCE_POINTS)
            assert np.max(np.abs(g[:, d] - (up - dn) / (2 * h))) <= 1e-10

    def test_build_contracts_no_outer_index_by_einsum(self, monkeypatch):
        # outer and inclusion node counts differ, so an operand axis of the
        # outer node count is the outer index
        outer = make_ellipse((0, 0), 1.3, 0.8, 160)
        scene = InclusionScene(outer, make_star((0.1, 0), 0.4, [(3, 0.05)], 96))
        calls = []
        original = np.einsum

        def recording(subscripts, *operands, **kwargs):
            calls.append((subscripts, [np.shape(op) for op in operands]))
            return original(subscripts, *operands, **kwargs)

        solves = []
        solve = NumericGreen.neumann_solve

        def counting(self, flux):
            solves.append(np.shape(flux))
            return solve(self, flux)

        monkeypatch.setattr(NumericGreen, "neumann_solve", counting)
        monkeypatch.setattr(np, "einsum", recording)
        build_scene_operators(scene)
        assert solves == [(outer.n, scene.inclusion.n)]  # one solve, n columns
        for subscripts, shapes in calls:
            assert subscripts != "pjd,jq->pqd"
            inputs, output = subscripts.replace(" ", "").split("->")
            for letters, shape in zip(inputs.split(","), shapes):
                for letter, size in zip(letters, shape):
                    assert size != outer.n or letter in output, subscripts
