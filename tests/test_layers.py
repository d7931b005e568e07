"""Scene operators: jump relations, energy forms, potential fields.

The concentric scene (inclusion radius 1/2 centered in the unit disk)
has closed-form mode actions that pin every sign in the package:

* single-layer trace of ``cos t``: ``-0.3125 cos t``
* one-sided fluxes: ``-0.625 cos t`` inside, ``+0.375 cos t`` outside
* flux average: ``-0.125 cos t``
* energy: ``0.3125 * pi/2``, split ``(interior, exterior)`` so that the
  interior-minus-exterior difference is ``+0.25`` of the total.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npeit.exceptions import EvaluationDomainError
from npeit.geometry import InclusionScene, make_circle, make_ellipse, make_star
from npeit.green import DiskGreen, NumericGreen
from npeit.layers import build_scene_operators

from disk_modes import (
    mode_gradient_energy,
    oracle_flux_average_eigenvalue,
    oracle_mode_trace,
    single_layer_mode_field,
)
from references import HatForms, energy_quotient, mean_free_basis


def concentric(n=128, r0=0.5, k0=1.0):
    return InclusionScene(make_circle((0, 0), 1.0, n),
                          make_circle((0, 0), r0, n), k0)


def star_scene(n=192):
    return InclusionScene(make_circle((0, 0), 1.0, n),
                          make_star((0.1, 0.05), 0.4, [(3, 0.06), (5, 0.02)], n))


def ellipse_outer_scene(n=192):
    return InclusionScene(make_ellipse((0, 0), 1.2, 0.9, n),
                          make_star((0.1, 0.0), 0.35, [(4, 0.04)], n))


class TestModeActions:
    def setup_method(self):
        self.ops = build_scene_operators(concentric())
        self.t = self.ops.curve.t

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_trace_eigenvalue(self, m):
        g = np.cos(m * self.t)
        expect = oracle_mode_trace(m, 0.5) * g
        assert np.max(np.abs(self.ops.potential_trace(g) - expect)) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_flux_average_eigenvalue(self, m):
        g = np.sin(m * self.t)
        mu = oracle_flux_average_eigenvalue(m, 0.5)
        assert np.max(np.abs(self.ops.flux_average(g) - mu * g)) <= 1e-12

    def test_frozen_sides(self):
        g = np.cos(self.t)
        assert np.allclose(self.ops.side_flux(g, -1), -0.625 * g, atol=1e-12)
        assert np.allclose(self.ops.side_flux(g, +1), +0.375 * g, atol=1e-12)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            self.ops.side_flux(np.cos(self.t), 0)


class TestJumpRelation:
    @pytest.mark.parametrize("scene_fn", [concentric, star_scene])
    def test_fifty_random_densities(self, scene_fn):
        ops = build_scene_operators(scene_fn(256))
        rng = np.random.default_rng(42)
        g = rng.standard_normal((256, 50))
        jump = ops.side_flux(g, +1) - ops.side_flux(g, -1) - g
        assert np.max(np.abs(jump)) <= 1e-10


class TestEnergyForms:
    def test_frozen_energy_split(self):
        ops = build_scene_operators(concentric())
        g = np.cos(ops.curve.t)
        assert ops.energy_norm2(g) == pytest.approx(0.3125 * np.pi / 2, rel=1e-12)
        assert energy_quotient(ops, g) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_energy_matches_area_integrals(self, m):
        # independent route: closed-form field coefficients integrated in
        # area by the exact mode-energy formula
        r0 = 0.5
        ops = build_scene_operators(concentric())
        g = np.cos(m * ops.curve.t)
        c_in = -(r0 / (2 * m)) * (r0 ** (-m) + r0**m)
        c_out = -(r0 ** (m + 1)) / (2 * m)
        e_in = mode_gradient_energy(m, c_in, 0.0, 0.0, r0)
        e_ex = mode_gradient_energy(m, c_out, c_out, r0, 1.0)
        assert ops.energy_norm2(g) == pytest.approx(e_in + e_ex, rel=1e-10)
        assert energy_quotient(ops, g) * ops.energy_norm2(g) == pytest.approx(
            e_in - e_ex, rel=1e-10)

    def test_positive_definite_energy(self):
        for scene_fn in (concentric, star_scene, ellipse_outer_scene):
            ops = build_scene_operators(scene_fn())
            eigs = np.linalg.eigvalsh(HatForms(ops).s_hat)
            assert eigs.min() > 0

    def test_symmetrization_identity(self):
        # S K* = K S (the energy form symmetrizes the flux average)
        hf = HatForms(build_scene_operators(concentric()))
        resid = hf.s_hat @ hf.kstar_hat - hf.kstar_hat.T @ hf.s_hat
        assert np.max(np.abs(resid)) <= 1e-9
        hf = HatForms(build_scene_operators(star_scene()))
        resid = hf.s_hat @ hf.kstar_hat - hf.kstar_hat.T @ hf.s_hat
        assert np.max(np.abs(resid)) <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_quotient_bounded(self, seed):
        ops = build_scene_operators(concentric(64))
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(64)
        assert abs(energy_quotient(ops, g)) <= 1.0 + 1e-9

    def test_density_energy_scaling(self):
        ops = build_scene_operators(concentric(64))
        rng = np.random.default_rng(0)
        g = rng.standard_normal(64)
        assert ops.energy_norm2(3.0 * g) == pytest.approx(
            9.0 * ops.energy_norm2(g), rel=1e-12)
        assert energy_quotient(ops, 3.0 * g) == pytest.approx(
            energy_quotient(ops, g), rel=1e-12)


class TestMeanFreeMachinery:
    def test_basis_orthonormal(self):
        ops = build_scene_operators(concentric(64))
        p = mean_free_basis(ops)
        assert np.max(np.abs(p.T @ p - np.eye(63))) <= 1e-12
        w0 = np.sqrt(ops.curve.weights)
        w0 /= np.linalg.norm(w0)
        assert np.max(np.abs(p.T @ w0)) <= 1e-13

    def test_projection(self):
        ops = build_scene_operators(concentric(64))
        rng = np.random.default_rng(5)
        g = rng.standard_normal(64) + 2.0
        gp = g - ops.curve.mean(g)
        assert abs(ops.curve.weights @ gp) <= 1e-12
        assert np.allclose(gp - ops.curve.mean(gp), gp, atol=1e-13)


class TestPotentialField:
    def test_matches_closed_form_mode_field(self):
        ops = build_scene_operators(concentric(128))
        g = np.cos(2 * ops.curve.t)
        pts = np.array([[0.2, 0.0], [0.1, 0.1], [0.0, 0.3],
                        [0.7, 0.0], [0.0, -0.8], [0.55, 0.55]])
        expect = single_layer_mode_field(2, 0.5, pts)
        assert np.max(np.abs(ops.field(pts, g)[0] - expect)) <= 1e-11

    def test_gradient_matches_fd(self):
        ops = build_scene_operators(concentric(128))
        g = np.cos(ops.curve.t) - 0.5 * np.sin(3 * ops.curve.t)
        pts = np.array([[0.15, 0.1], [0.0, 0.75]])
        grad = ops.field(pts, g)[1]
        h = 1e-6
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (ops.field(pts + e, g)[0] - ops.field(pts - e, g)[0]) / (2 * h)
            assert np.allclose(grad[:, d], fd, atol=1e-8)

    def test_outer_trace_matches_closed_form(self):
        ops = build_scene_operators(concentric(128))
        m, r0 = 3, 0.5
        g = np.cos(m * ops.curve.t)
        trace = ops.outer_trace(g)
        expect = -(r0 ** (m + 1) / m) * np.cos(m * ops.scene.outer.t)
        assert np.max(np.abs(trace - expect)) <= 1e-12

    def test_evaluation_guard(self):
        ops = build_scene_operators(concentric(64))
        g = np.cos(ops.curve.t)
        with pytest.raises(EvaluationDomainError, match="source curve"):
            ops.field([[0.49, 0.0]], g)
        with pytest.raises(EvaluationDomainError, match="source curve"):
            ops.field([[0.5, 0.01]], g)


class TestGeneralScenes:
    def test_offset_inclusion_invariants(self):
        scene = InclusionScene(make_circle((0, 0), 1.0, 160),
                               make_circle((0.3, 0.0), 0.4, 160))
        ops = build_scene_operators(scene)
        rng = np.random.default_rng(1)
        g = rng.standard_normal(160)
        jump = ops.side_flux(g, +1) - ops.side_flux(g, -1) - g
        assert np.max(np.abs(jump)) <= 1e-12
        assert ops.energy_norm2(g) > 0
        # interior harmonicity: mean-value property of the potential at
        # a point far from the layer
        gm = g - ops.curve.mean(g)
        center = np.array([0.3, 0.0])
        ring = center + 0.08 * np.column_stack(
            [np.cos(np.linspace(0, 2 * np.pi, 32, endpoint=False)),
             np.sin(np.linspace(0, 2 * np.pi, 32, endpoint=False))])
        assert np.mean(ops.field(ring, gm)[0]) == pytest.approx(
            ops.field([center], gm)[0][0], abs=1e-10)

    def test_numeric_green_consistency(self):
        # building the same scene against the numeric outer kernel
        # reproduces the closed-form operators
        scene = concentric(96)
        ops_d = build_scene_operators(scene, DiskGreen(scene.outer))
        ops_n = build_scene_operators(scene, NumericGreen(scene.outer))
        w = scene.inclusion.weights[:, None]  # E / w is the single layer
        assert np.max(np.abs(ops_d.energy_matrix / w
                             - ops_n.energy_matrix / w)) <= 1e-11
        assert np.max(np.abs(ops_d.kstar_plain - ops_n.kstar_plain)) <= 1e-11
        assert ops_n.correction_defect <= 1e-12
