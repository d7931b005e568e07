"""Flux-average spectrum in the energy geometry.

The concentric scene has the exact spectrum ``mu_m = -r0^(2m)/2`` with
twofold degeneracy (cos/sin pairs), which pins accuracy, families, and
normalization; general scenes are checked through invariants.
"""

import numpy as np
import pytest

from npeit.geometry import InclusionScene, make_circle, make_star
from npeit.layers import build_scene_operators
from npeit.spectrum import solve_spectrum

from disk_modes import oracle_flux_average_eigenvalue
from references import energy_quotient, family


@pytest.fixture(scope="module")
def concentric_ops():
    scene = InclusionScene(make_circle((0, 0), 1.0, 128),
                           make_circle((0, 0), 0.5, 128))
    return build_scene_operators(scene)


@pytest.fixture(scope="module")
def star_ops():
    scene = InclusionScene(
        make_circle((0, 0), 1.0, 192),
        make_star((0.1, 0.05), 0.4, [(3, 0.06), (5, 0.02)], 192))
    return build_scene_operators(scene)


class TestConcentricSpectrum:
    def test_eigenvalues_with_multiplicity(self, concentric_ops):
        spec = solve_spectrum(concentric_ops, 16)
        exact = sorted(oracle_flux_average_eigenvalue(m, 0.5)
                       for m in range(1, 9) for _ in range(2))
        computed = sorted(m.mu for m in family(spec, "+"))
        assert len(computed) == 16
        assert np.max(np.abs(np.array(computed) - exact)) <= 1e-12

    def test_lambda_is_minus_two_mu(self, concentric_ops):
        spec = solve_spectrum(concentric_ops, 8)
        for mode in spec:
            assert mode.lam == pytest.approx(-2.0 * mode.mu, abs=1e-15)

    def test_quotient_reproduces_lambda(self, concentric_ops):
        spec = solve_spectrum(concentric_ops, 8)
        for mode in family(spec, "+"):
            q = energy_quotient(concentric_ops, mode.density)
            assert q == pytest.approx(mode.lam, abs=1e-12)

    def test_unit_energy_normalization(self, concentric_ops):
        spec = solve_spectrum(concentric_ops, 6)
        for mode in spec:
            assert concentric_ops.energy_norm2(mode.density) == pytest.approx(
                1.0, abs=1e-10)

    def test_residuals_small(self, concentric_ops):
        spec = solve_spectrum(concentric_ops, 16)
        assert spec.max_residual() <= 1e-10

    def test_orthogonality(self, concentric_ops):
        spec = solve_spectrum(concentric_ops, 16)
        assert spec.orthogonality_defect() <= 1e-10

    def test_family_ordering(self, concentric_ops):
        spec = solve_spectrum(concentric_ops, 8)
        plus = family(spec, "+")
        lams = [m.lam for m in plus]
        assert lams == sorted(lams, reverse=True)
        assert [m.index for m in plus] == list(range(1, len(plus) + 1))

    def test_eigendensities_are_pure_modes(self, concentric_ops):
        # the top (degenerate) pair spans {cos t, sin t}
        spec = solve_spectrum(concentric_ops, 4)
        t = concentric_ops.curve.t
        basis = np.column_stack([np.cos(t), np.sin(t)])
        for mode in family(spec, "+")[:2]:
            coeffs = np.linalg.lstsq(basis, mode.density, rcond=None)[0]
            recon = basis @ coeffs
            assert np.max(np.abs(recon - mode.density)) <= 1e-10

    def test_deterministic_output(self, concentric_ops):
        a = solve_spectrum(concentric_ops, 8)
        b = solve_spectrum(concentric_ops, 8)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.density, mb.density)
            assert ma.mu == mb.mu


class TestGeneralSpectrum:
    def test_star_has_both_families(self, star_ops):
        spec = solve_spectrum(star_ops, 10)
        assert len(family(spec, "+")) == 10
        assert len(family(spec, "-")) == 10
        assert spec.max_residual() <= 1e-10
        assert spec.orthogonality_defect() <= 1e-10

    def test_spectral_values_inside_unit_interval(self, star_ops):
        # |mu| < 1/2 on mean-free densities, so |lambda| < 1
        spec = solve_spectrum(star_ops, 20)
        assert np.max(np.abs(spec.mus)) < 0.5
        assert max(abs(m.lam) for m in spec) < 1.0

    def test_grid_convergence(self):
        # leading star eigenvalue converges spectrally in grid size
        def leading(n):
            scene = InclusionScene(
                make_circle((0, 0), 1.0, n),
                make_star((0.1, 0.05), 0.4, [(3, 0.06), (5, 0.02)], n))
            return family(solve_spectrum(build_scene_operators(scene), 2), "+")[0].lam

        coarse, fine, finest = leading(96), leading(144), leading(192)
        assert abs(fine - finest) <= abs(coarse - finest) * 0.5 + 1e-13
        assert abs(fine - finest) <= 1e-9


class TestArguments:
    def test_mode_cap(self, concentric_ops):
        spec = solve_spectrum(concentric_ops, 1000)
        assert all(len(family(spec, f)) <= 128 // 4 for f in "+-0")

    def test_rejects_bad_count(self, concentric_ops):
        with pytest.raises(ValueError):
            solve_spectrum(concentric_ops, 0)
