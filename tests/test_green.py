"""Outer-domain kernels: closed disk form, numeric construction, and the
shared interior Neumann solver.

Key frozen value: the unit-disk kernel with the source at the center is
``ln|x| / (2 pi)``, giving ``-0.11031780007632582`` at ``x = (1/2, 0)``.
"""

import numpy as np
import pytest

from npeit.exceptions import ConditioningError, EvaluationDomainError
from npeit.geometry import InclusionScene, make_circle, make_ellipse, make_star
from npeit.green import DiskGreen, InteriorNeumannSolver, NumericGreen, make_green
from npeit.layers import build_scene_operators
from npeit.quadrature import free_single_layer_eval, free_single_layer_gradient

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
        val = self.green.kernel([[0.5, 0.0]], [[0.0, 0.0]])[0, 0]
        assert val == pytest.approx(np.log(0.5) / (2 * np.pi), abs=1e-15)
        assert val == pytest.approx(-0.11031780007632582, abs=1e-15)

    def test_correction_symmetry(self):
        r1 = self.green.correction(INTERIOR_POINTS, SOURCE_POINTS)
        r2 = self.green.correction(SOURCE_POINTS, INTERIOR_POINTS)
        assert np.max(np.abs(r1 - r2.T)) <= 1e-15

    def test_zero_boundary_mean(self):
        tr = self.green.outer_trace_kernel(SOURCE_POINTS)
        assert np.max(np.abs(self.outer.weights @ tr)) <= 1e-13

    def test_constant_outer_flux(self):
        # d/dnu N = 1/|bd Omega| = 1/(2 pi) on the outer circle
        h = 1e-6
        theta = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        ring = np.column_stack([np.cos(theta), np.sin(theta)])
        vals_in = self.green.kernel(ring * (1 - h), SOURCE_POINTS)
        vals_on = self.green.kernel(ring, SOURCE_POINTS)
        dn = (vals_on - vals_in) / h
        assert np.max(np.abs(dn - 1.0 / (2 * np.pi))) <= 1e-5

    def test_boundary_trace_consistency(self):
        on_boundary = self.green.kernel(self.outer.nodes, SOURCE_POINTS)
        trace = self.green.outer_trace_kernel(SOURCE_POINTS)
        assert np.max(np.abs(on_boundary - trace)) <= 1e-13

    def test_correction_is_harmonic(self):
        # five-point Laplacian of R(., y) vanishes inside the disk
        h = 1e-4
        for y in S_POINTS_SMALL:
            x0 = np.array([0.15, -0.2])
            stencil = np.array([x0, x0 + [h, 0], x0 - [h, 0],
                                x0 + [0, h], x0 - [0, h]])
            vals = self.green.correction(stencil, [y])[:, 0]
            lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h**2
            assert abs(lap) <= 1e-5

    def test_correction_gradient_matches_fd(self):
        h = 1e-6
        g = self.green.correction_gradient_x(INTERIOR_POINTS, SOURCE_POINTS)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            up = self.green.correction(INTERIOR_POINTS + e, SOURCE_POINTS)
            dn = self.green.correction(INTERIOR_POINTS - e, SOURCE_POINTS)
            assert np.max(np.abs(g[..., d] - (up - dn) / (2 * h))) <= 1e-9

    def test_rejects_points_outside(self):
        with pytest.raises(EvaluationDomainError):
            self.green.correction([[1.5, 0.0]], SOURCE_POINTS)
        with pytest.raises(EvaluationDomainError):
            self.green.outer_trace_kernel([[0.0, 1.2]])

    def test_requires_circle(self):
        with pytest.raises(ValueError):
            DiskGreen(make_ellipse((0, 0), 1.0, 0.8, 64))

    def test_offcenter_disk(self):
        # same invariants for a shifted, scaled outer disk
        outer = make_circle((0.5, -0.25), 1.75, 128)
        green = DiskGreen(outer)
        y = np.array([[0.7, 0.1], [0.5, -0.25]])
        tr = green.outer_trace_kernel(y)
        assert np.max(np.abs(outer.weights @ tr)) <= 1e-13
        # center source: N = ln(|x - c|/rho^2)/(2 pi) + ... reduces to
        # (1/2 pi) ln(|x - c| / rho) plus the -ln(rho)/2 pi shift; check
        # against the defining properties instead of a formula: zero mean
        # holds above, and the value at a known point matches the free
        # log plus a constant in x for the center source
        vals = green.kernel(np.array([[1.2, -0.25], [0.9, -0.25]]),
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
        solver = InteriorNeumannSolver(outer)
        m = 3
        psi, border = solver.solve(np.cos(m * outer.t))
        assert np.max(np.abs(border)) <= 1e-12
        probes = np.array([[0.3, 0.2], [-0.1, 0.4], [0.25, -0.3]])
        vals = free_single_layer_eval(outer, probes) @ psi[:, 0]
        rho = np.hypot(probes[:, 0], probes[:, 1])
        th = np.arctan2(probes[:, 1], probes[:, 0])
        expect = rho**m * np.cos(m * th) / m
        # compare differences (the single-layer solution floats by a constant)
        assert np.max(np.abs((vals - vals[0]) - (expect - expect[0]))) <= 1e-12

    def test_rejects_incompatible_data(self):
        outer = make_circle((0, 0), 1.0, 64)
        solver = InteriorNeumannSolver(outer)
        with pytest.raises(ConditioningError):
            solver.solve(np.ones(64))


class TestNumericGreen:
    def test_matches_disk_closed_form(self):
        outer = make_circle((0, 0), 1.0, 128)
        ng, dg = NumericGreen(outer), DiskGreen(outer)
        assert np.max(np.abs(ng.kernel(INTERIOR_POINTS, SOURCE_POINTS)
                             - dg.kernel(INTERIOR_POINTS, SOURCE_POINTS))) <= 1e-12
        assert np.max(np.abs(ng.outer_trace_kernel(SOURCE_POINTS)
                             - dg.outer_trace_kernel(SOURCE_POINTS))) <= 1e-12
        assert np.max(np.abs(
            ng.correction_gradient_x(INTERIOR_POINTS, SOURCE_POINTS)
            - dg.correction_gradient_x(INTERIOR_POINTS, SOURCE_POINTS))) <= 1e-11

    def test_star_outer_invariants(self):
        star = make_star((0, 0), 1.0, [(4, 0.1)], 192)
        ng = NumericGreen(star)
        r1 = ng.correction(INTERIOR_POINTS, SOURCE_POINTS)
        r2 = ng.correction(SOURCE_POINTS, INTERIOR_POINTS)
        assert np.max(np.abs(r1 - r2.T)) <= 1e-12  # symmetry
        tr = ng.outer_trace_kernel(SOURCE_POINTS)
        assert np.max(np.abs(star.weights @ tr)) <= 1e-12  # zero mean

    def test_star_correction_is_harmonic(self):
        star = make_star((0, 0), 1.0, [(4, 0.1)], 192)
        ng = NumericGreen(star)
        h = 1e-4
        x0 = np.array([0.15, -0.2])
        stencil = np.array([x0, x0 + [h, 0], x0 - [h, 0],
                            x0 + [0, h], x0 - [0, h]])
        vals = ng.correction(stencil, [[0.3, 0.1]])[:, 0]
        lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h**2
        assert abs(lap) <= 1e-5

    def test_rejects_near_boundary_evaluation(self):
        outer = make_circle((0, 0), 1.0, 64)
        ng = NumericGreen(outer)
        with pytest.raises(EvaluationDomainError):
            ng.correction([[0.99, 0.0]], SOURCE_POINTS)
        with pytest.raises(EvaluationDomainError):
            ng.correction(INTERIOR_POINTS, [[0.99, 0.0]])

    def test_factory(self):
        circ = make_circle((0, 0), 1.0, 64)
        star = make_star((0, 0), 1.0, [(3, 0.1)], 64)
        assert isinstance(make_green(circ), DiskGreen)
        assert isinstance(make_green(star), NumericGreen)


# ---------------------------------------------------------------------------
# the correction gradient as one stacked matrix product
# ---------------------------------------------------------------------------

GRADIENT_OUTERS = [make_ellipse((0, 0), 1.3, 0.8, 128),
                   make_star((0.05, 0), 1.0, [(3, 0.1)], 128)]
INCLUSION_NODES = make_star((0.1, 0), 0.4, [(3, 0.05)], 96).nodes


def einsum_correction_gradient(green, x, y):
    """Frozen copy of the contraction over the outer nodes by ``einsum``."""
    psi, _ = green._correction_data(np.asarray(y, float))
    grad = free_single_layer_gradient(green.outer, x)
    return np.einsum("pjd,jq->pqd", grad, psi)


class TestCorrectionGradient:
    @pytest.mark.parametrize("outer", GRADIENT_OUTERS, ids=["ellipse", "star"])
    @pytest.mark.parametrize("x, y", [(INTERIOR_POINTS, SOURCE_POINTS),
                                      (INCLUSION_NODES, INCLUSION_NODES)],
                             ids=["points", "inclusion-nodes"])
    def test_matches_einsum_contraction(self, outer, x, y):
        green = NumericGreen(outer)
        got = green.correction_gradient_x(x, y)
        expected = einsum_correction_gradient(green, x, y)
        assert got.shape == expected.shape == (len(x), len(y), 2)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-13 * scale

    @pytest.mark.parametrize("outer", GRADIENT_OUTERS, ids=["ellipse", "star"])
    def test_matches_fd_of_correction(self, outer):
        green = NumericGreen(outer)
        h = 1e-6
        g = green.correction_gradient_x(INTERIOR_POINTS, SOURCE_POINTS)
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            up = green.correction(INTERIOR_POINTS + e, SOURCE_POINTS)
            dn = green.correction(INTERIOR_POINTS - e, SOURCE_POINTS)
            assert np.max(np.abs(g[..., d] - (up - dn) / (2 * h))) <= 1e-10

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
        solve = InteriorNeumannSolver.solve

        def counting(self, flux):
            solves.append(np.shape(flux))
            return solve(self, flux)

        monkeypatch.setattr(InteriorNeumannSolver, "solve", counting)
        monkeypatch.setattr(np, "einsum", recording)
        build_scene_operators(scene)
        assert solves == [(outer.n, scene.inclusion.n)]  # one solve, n columns
        for subscripts, shapes in calls:
            assert subscripts != "pjd,jq->pqd"
            inputs, output = subscripts.replace(" ", "").split("->")
            for letters, shape in zip(inputs.split(","), shapes):
                for letter, size in zip(letters, shape):
                    assert size != outer.n or letter in output, subscripts
