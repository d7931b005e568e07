"""Closed-form concentric reference solutions.

The frozen numbers below were derived by hand (separation of variables)
and double-checked by solving the 3x3 matching system symbolically; they
pin the conventions the whole package is built on, so any sign drift
elsewhere shows up here first.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npeit.disk_oracle import (
    oracle_limit_trace_coefficient,
    oracle_transmission_mode,
)

from disk_modes import (
    mode_gradient_energy,
    oracle_flux_average_eigenvalue,
    oracle_mode_trace,
    single_layer_mode_field,
)


class TestFrozenValues:
    def test_trace_seven_ninths(self):
        # m=1, k0=1, k=3, r0=1/2, f=cos(theta): outer trace is (7/9) cos
        mode = oracle_transmission_mode(1, 3.0, 1.0, 0.5)
        assert mode.residual <= 1e-13
        assert mode.trace_coeff == pytest.approx(7.0 / 9.0, abs=1e-14)
        # interior coefficients for the same mode, solved by hand
        assert mode.A == pytest.approx(4.0 / 9.0, abs=1e-14)
        assert mode.B == pytest.approx(8.0 / 9.0, abs=1e-14)
        assert mode.C == pytest.approx(-1.0 / 9.0, abs=1e-14)
        assert mode.density_coeff == pytest.approx(8.0 / 9.0, abs=1e-14)

    def test_limit_trace_three_fifths(self):
        # k -> infinity limit of the same scene: 0.6 cos(theta)
        assert oracle_limit_trace_coefficient(1, 1.0, 0.5) == pytest.approx(
            0.6, abs=1e-15)

    def test_flux_average_eigenvalue(self):
        assert oracle_flux_average_eigenvalue(1, 0.5) == pytest.approx(
            -0.125, abs=1e-16)
        assert oracle_flux_average_eigenvalue(2, 0.5) == pytest.approx(
            -0.03125, abs=1e-16)

    def test_mode_trace(self):
        # T_1 = -(r0/2)(1 + r0^2) = -0.3125 at r0 = 1/2
        assert oracle_mode_trace(1, 0.5) == pytest.approx(-0.3125, abs=1e-16)

    def test_interior_and_exterior_flux(self):
        mode = oracle_transmission_mode(1, 3.0, 1.0, 0.5)
        # single-layer representation jump: exterior - interior flux = p
        jump = mode.exterior_flux_coeff - mode.interior_flux_coeff
        assert jump == pytest.approx(mode.density_coeff, abs=1e-14)


class TestMatchingConditions:
    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(1, 6),
        k=st.floats(0.05, 200.0),
        k0=st.floats(0.05, 20.0),
        r0=st.floats(0.1, 0.9),
    )
    def test_closed_form_trace(self, m, k, k0, r0):
        mode = oracle_transmission_mode(m, k, k0, r0)
        tau = r0 ** (2 * m) * (k - k0) / (k + k0)
        assert mode.trace_coeff == pytest.approx(
            (1.0 - tau) / (k0 * m * (1.0 + tau)), rel=1e-11)
        assert mode.residual <= 1e-12 * max(1.0, k)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 5), k0=st.floats(0.1, 10.0), r0=st.floats(0.1, 0.9))
    def test_trace_tends_to_limit(self, m, k0, r0):
        far = oracle_transmission_mode(m, 1e9 * k0, k0, r0)
        lim = oracle_limit_trace_coefficient(m, k0, r0)
        assert far.trace_coeff == pytest.approx(lim, rel=1e-6)

    def test_no_contrast_recovers_background(self):
        mode = oracle_transmission_mode(2, 1.5, 1.5, 0.4)
        # k = k0: the inclusion is invisible, u = u0 everywhere
        assert mode.A == pytest.approx(mode.background_coeff, abs=1e-14)
        assert mode.C == pytest.approx(0.0, abs=1e-14)
        assert abs(mode.density_coeff) <= 1e-14

    def test_field_continuity_and_data(self):
        mode = oracle_transmission_mode(3, 10.0, 2.0, 0.45, f_c=0.7)
        theta = np.linspace(0, 2 * np.pi, 17)[:-1]
        inner = mode.field(np.column_stack([0.45 * np.cos(theta) * (1 - 1e-9),
                                            0.45 * np.sin(theta) * (1 - 1e-9)]))
        outer = mode.field(np.column_stack([0.45 * np.cos(theta) * (1 + 1e-9),
                                            0.45 * np.sin(theta) * (1 + 1e-9)]))
        assert np.allclose(inner, outer, atol=1e-8)
        # outer Neumann data via central differences at rho = 1 is f/k0
        h = 1e-6
        lo = mode.field(np.column_stack([(1 - h) * np.cos(theta),
                                         (1 - h) * np.sin(theta)]))
        hi = mode.field(np.column_stack([(1 + h) * np.cos(theta),
                                         (1 + h) * np.sin(theta)]))
        # the annulus branch extends smoothly past rho = 1
        dn = (hi - lo) / (2 * h)
        assert np.allclose(2.0 * dn, 0.7 * np.cos(3 * theta), atol=1e-7)


class TestSingleLayerModeField:
    def test_branches_agree_on_circle(self):
        theta = np.linspace(0, 2 * np.pi, 13)[:-1]
        just_in = single_layer_mode_field(
            2, 0.5, np.column_stack([0.5 * np.cos(theta) * (1 - 1e-12),
                                     0.5 * np.sin(theta) * (1 - 1e-12)]))
        just_out = single_layer_mode_field(
            2, 0.5, np.column_stack([0.5 * np.cos(theta) * (1 + 1e-12),
                                     0.5 * np.sin(theta) * (1 + 1e-12)]))
        assert np.allclose(just_in, just_out, atol=1e-11)
        assert np.allclose(just_in, oracle_mode_trace(2, 0.5) * np.cos(2 * theta),
                           atol=1e-11)

    def test_flux_jump_is_density(self):
        # outward-normal derivative jumps by the density across the layer:
        # flux(outside) - flux(inside) = g
        m, r0 = 3, 0.6
        theta = np.linspace(0, 2 * np.pi, 9)[:-1]
        h = 1e-7

        def radial_flux(r_near, r_far):
            near = single_layer_mode_field(
                m, r0, np.column_stack([r_near * np.cos(theta),
                                        r_near * np.sin(theta)]))
            far = single_layer_mode_field(
                m, r0, np.column_stack([r_far * np.cos(theta),
                                        r_far * np.sin(theta)]))
            return (far - near) / (r_far - r_near)

        flux_in = radial_flux(r0 - 2 * h, r0 - h)
        flux_out = radial_flux(r0 + h, r0 + 2 * h)
        assert np.allclose(flux_out - flux_in, np.cos(m * theta), atol=1e-5)

    def test_flux_average_action(self):
        # the average of interior/exterior fluxes acting on cos(m theta)
        # equals mu_m cos(m theta); finite differences on the closed form
        m, r0 = 1, 0.5
        theta = np.linspace(0, 2 * np.pi, 9)[:-1]
        h = 1e-6
        vals = {}
        for name, rr in (("in2", r0 - 2 * h), ("in1", r0 - h),
                         ("out1", r0 + h), ("out2", r0 + 2 * h)):
            vals[name] = single_layer_mode_field(
                m, r0, np.column_stack([rr * np.cos(theta), rr * np.sin(theta)]))
        flux_in = (vals["in1"] - vals["in2"]) / h
        flux_out = (vals["out2"] - vals["out1"]) / h
        avg = 0.5 * (flux_in + flux_out)
        mu = oracle_flux_average_eigenvalue(m, r0)
        assert np.allclose(avg, mu * np.cos(theta), atol=1e-5)
        # jump relation cross-check at the same points
        assert np.allclose(flux_out - flux_in, np.cos(theta), atol=1e-5)
        # frozen side fluxes for the pinned convention: -(1/2)(1 + r0^2)
        # inside and +(1/2)(1 - r0^2) outside at m = 1, r0 = 1/2
        assert np.allclose(flux_in, -0.625 * np.cos(theta), atol=1e-5)
        assert np.allclose(flux_out, 0.375 * np.cos(theta), atol=1e-5)


class TestGradientEnergies:
    def test_pure_power_energy(self):
        # u = rho^m cos(m theta) over the disk of radius r: pi m r^(2m)
        assert mode_gradient_energy(2, 1.0, 0.0, 0.0, 0.7) == pytest.approx(
            math.pi * 2 * 0.7**4, rel=1e-14)

    def test_transmission_energies_match_quadrature(self):
        mode = oracle_transmission_mode(1, 3.0, 1.0, 0.5)
        # midpoint rule in polar coordinates on the closed-form gradient
        n_r, n_t = 400, 64
        theta = (np.arange(n_t) + 0.5) * 2 * np.pi / n_t

        def shell_energy(r_lo, r_hi, B, C):
            r_edges = np.linspace(r_lo, r_hi, n_r + 1)
            r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
            dr = r_edges[1] - r_edges[0]
            # |grad u|^2 for (B rho^m + C rho^-m) cos(m theta), m = 1
            u_r = (B - C / r_mid**2)[:, None] * np.cos(theta)[None, :]
            u_t = -(B + C / r_mid**2)[:, None] * np.sin(theta)[None, :]
            dens = u_r**2 + u_t**2
            return float(np.sum(dens * r_mid[:, None]) * dr * 2 * np.pi / n_t)

        e_in = shell_energy(1e-9, 0.5, mode.A, 0.0)
        e_ann = shell_energy(0.5, 1.0, mode.B, mode.C)
        assert mode.gradient_energy_inside() == pytest.approx(e_in, rel=1e-5)
        assert mode.gradient_energy_annulus() == pytest.approx(e_ann, rel=1e-5)
        assert mode.gradient_energy_inside() == pytest.approx(
            mode_gradient_energy(1, mode.A, 0.0, 0.0, 0.5), rel=1e-14)
        assert mode.gradient_energy_annulus() == pytest.approx(
            mode_gradient_energy(1, mode.B, mode.C, 0.5, 1.0), rel=1e-14)


class TestValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            oracle_transmission_mode(0, 3.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            oracle_transmission_mode(1, -3.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            oracle_transmission_mode(1, 3.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            oracle_transmission_mode(1, 3.0, 1.0, 0.5, kind="tan")
        with pytest.raises(ValueError):
            oracle_flux_average_eigenvalue(0, 0.5)
