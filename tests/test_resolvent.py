"""The spectral resolvent behind every second-kind solve.

``(lam - K*)^{-1}`` on mean-free densities is applied as
``G diag(1/(lam - mu)) G^T E r`` (``r`` the mean-free part of the
right-hand side) from the nodal eigendensities ``G`` of the one
generalized eigendecomposition cached per operator set, plus one
refinement step that expands the residual the same way.  Pinned here:

* it matches a direct dense solve of the reduced system to 1e-12
  relative, for vectors and blocks, on non-concentric scenes with the
  closed-form disk kernel and with the numeric ellipse kernel, from the
  far edge of the spectrum (``lam = -1/2``) to just above ``1/2``, and
  leaves a residual at roundoff;
* one operator set pays for exactly one pencil decomposition, however
  many spectra, expansions, trace constants, ladder points and batched
  ladders use it.
"""

import numpy as np
import pytest
import scipy.linalg

from npeit.geometry import InclusionScene, make_circle, make_ellipse, make_star
from npeit.green import DiskGreen, NumericGreen
from npeit.layers import build_scene_operators
from npeit.spectrum import solve_spectrum
from npeit.transmission import (_solve_second_kind, derivative_ladder,
                                expansion_coefficients, solve_transmission,
                                trace_constant)

from references import HatForms, mean_free_basis

LAMBDAS = (-0.5, 0.6, 5.0, 0.5 + 1e-6)


@pytest.fixture(scope="module", params=["star-in-disk", "star-in-ellipse"])
def scene_ops(request):
    n = 128
    if request.param == "star-in-disk":
        outer = make_circle((0, 0), 1.0, n)
        inclusion = make_star((0.25, -0.1), 0.35, [(3, 0.05), (5, 0.02)], n)
    else:
        outer = make_ellipse((0, 0), 1.2, 0.9, n)
        inclusion = make_star((0.1, 0.05), 0.35, [(3, 0.04), (4, 0.02)], n)
    return build_scene_operators(InclusionScene(outer, inclusion, 1.0))


def direct_solve(ops, lam, rhs):
    p, hf = mean_free_basis(ops), HatForms(ops)
    reduced = lam * np.eye(p.shape[1]) - p.T @ hf.kstar_hat @ p
    sol = scipy.linalg.solve(reduced, p.T @ hf.hat(rhs))
    return hf.unhat(p @ sol)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestResolventMatchesDirectSolve:
    def test_kernel_kind(self, scene_ops):
        expected = DiskGreen if scene_ops.scene.outer.kind == "circle" \
            else NumericGreen
        assert isinstance(scene_ops.green, expected)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_vector(self, scene_ops, lam):
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal(scene_ops.curve.n)
        phi = _solve_second_kind(scene_ops, lam, rhs)
        assert phi.shape == rhs.shape
        assert rel_err(phi, direct_solve(scene_ops, lam, rhs)) <= 1e-12

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_block_matches_columns(self, scene_ops, lam):
        rng = np.random.default_rng(11)
        rhs = rng.standard_normal((scene_ops.curve.n, 5))
        block = _solve_second_kind(scene_ops, lam, rhs)
        assert block.shape == rhs.shape
        assert rel_err(block, direct_solve(scene_ops, lam, rhs)) <= 1e-12
        for j in range(rhs.shape[1]):
            column = _solve_second_kind(scene_ops, lam, rhs[:, j])
            assert rel_err(block[:, j], column) <= 1e-13

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_refined_residual_at_roundoff(self, scene_ops, lam):
        # the bare resolvent leaves a residual of order 1e-14 (the
        # quadrature-level invariance and symmetry defects); the
        # refinement step brings it down to roundoff
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(scene_ops.curve.n)
        p, hf = mean_free_basis(scene_ops), HatForms(scene_ops)
        x = p.T @ hf.hat(_solve_second_kind(scene_ops, lam, rhs))
        r = p.T @ hf.hat(rhs)
        resid = r - (lam * x - (p.T @ hf.kstar_hat @ p) @ x)
        assert np.linalg.norm(resid) <= 1e-15 * np.linalg.norm(r)

    def test_transmission_density(self, scene_ops):
        f = np.cos(scene_ops.scene.outer.t) + 0.3 * np.sin(
            2 * scene_ops.scene.outer.t)
        sol = solve_transmission(scene_ops, f, 7.0)
        direct = direct_solve(scene_ops, sol.lam,
                              sol.background.flux)
        assert rel_err(sol.phi, direct) <= 1e-12


class TestOnePencilPerOperatorSet:
    def test_drivers_share_one_generalized_eigh(self, monkeypatch):
        n = 64
        scene = InclusionScene(make_circle((0, 0), 1.0, n),
                               make_star((0.2, 0.1), 0.35, [(3, 0.05)], n),
                               1.0)
        ops = build_scene_operators(scene)
        sizes = []
        real = scipy.linalg.eigh

        def counting(a, b=None, *args, **kwargs):
            if b is not None:
                sizes.append(np.shape(a)[0])
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting)
        f = np.cos(scene.outer.t)
        spectrum = solve_spectrum(ops, 6)
        expansion_coefficients(ops, spectrum, f, 4.0)
        trace_constant(ops)
        for k in np.geomspace(0.05, 500.0, 10):
            solve_transmission(ops, f, k).outer_trace()
        solve_transmission(ops, f, np.geomspace(0.05, 500.0, 10)).outer_trace()
        derivative_ladder(ops, f, 3.0, 4)
        # one pencil of size n (all densities); the other generalized
        # call is the 24 x 24 Rayleigh-Ritz problem of the trace constant
        assert sizes == [n, 24]
