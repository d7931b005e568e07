"""Transmission solves, infinite-contrast limits, derivatives, expansion.

The concentric scene (inclusion radius 1/2 in the unit disk, background
conductivity 1) with data ``cos t`` pins frozen values:

* at ``k = 3``: density ``(8/9) cos``, outer trace ``(7/9) cos``, total
  gradient energy ``55 pi / 81``;
* grounded/conductor limit: density ``1.6 cos``, trace ``0.6 cos``,
  annulus energy ``0.6 pi``;
* first conductivity derivative of the trace at ``k = 3``:
  ``-0.049382716... cos`` (``-2 tau'(k)/(1+tau)^2`` with
  ``tau = (k-1)/(4(k+1))``);
* energy-normalized expansion amplitude over the degenerate top pair:
  ``0.4982214414575938``;
* trace constant ``C0 = sqrt(5/3) = 1.2909944...``.
"""

import dataclasses
import logging
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from npeit.config import load_config
from npeit.disk_oracle import (
    oracle_limit_trace_coefficient,
    oracle_transmission_mode,
)
from npeit.exceptions import EvaluationDomainError, SolverError
from npeit.experiments import build_operators
from npeit.geometry import InclusionScene, make_circle, make_ellipse, make_star
from npeit.green import NumericGreen
from npeit.layers import build_scene_operators
from npeit.spectrum import NPSpectrum, solve_spectrum
from npeit.transmission import (
    _solve_second_kind,
    contrast_parameter,
    derivative_ladder,
    expansion_coefficients,
    gradient_bound,
    solve_background,
    solve_limit,
    solve_transmission,
    taylor_outer_trace,
    trace_constant,
    trace_distance,
)

from references import (
    HatForms,
    all_harmonic_trace_constant,
    derivative_norm_ratios,
    insulated_trace_constant,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def ops():
    scene = InclusionScene(make_circle((0, 0), 1.0, 128),
                           make_circle((0, 0), 0.5, 128), 1.0)
    return build_scene_operators(scene)


@pytest.fixture(scope="module")
def offset_ops():
    scene = InclusionScene(make_circle((0, 0), 1.0, 160),
                           make_circle((0.3, 0.0), 0.35, 160), 1.0)
    return build_scene_operators(scene)


def cos_data(ops, m=1):
    return np.cos(m * ops.scene.outer.t)


class TestBackground:
    def test_concentric_mode(self, ops):
        bg = solve_background(ops, cos_data(ops))
        outer, inc = ops.scene.outer, ops.scene.inclusion
        assert np.max(np.abs(bg.trace - np.cos(outer.t))) <= 1e-13
        assert np.max(np.abs(bg.values
                             - 0.5 * np.cos(inc.t))) <= 1e-13
        assert np.max(np.abs(bg.flux - np.cos(inc.t))) <= 1e-13

    def test_background_scales_with_k0(self):
        scene = InclusionScene(make_circle((0, 0), 1.0, 128),
                               make_circle((0, 0), 0.5, 128), 4.0)
        ops4 = build_scene_operators(scene)
        bg = solve_background(ops4, cos_data(ops4))
        assert np.max(np.abs(bg.trace - 0.25 * np.cos(scene.outer.t))) <= 1e-13

    def test_interior_harmonic_values(self, ops):
        bg = solve_background(ops, cos_data(ops))
        pts = np.array([[0.3, 0.2], [-0.1, -0.4], [0.0, 0.0]])
        expect = pts[:, 0]  # u0 = x for data cos(theta) at k0 = 1
        values, grad = ops.field(pts, 0, bg.psi, bg.constant)
        assert np.max(np.abs(values - expect)) <= 1e-13
        assert np.max(np.abs(grad - [1.0, 0.0])) <= 1e-12


class TestTransmission:
    def test_contrast_parameter(self):
        assert contrast_parameter(3.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert contrast_parameter(1.0, 1.0) == np.inf
        assert abs(contrast_parameter(1e12, 1.0)) > 0.5
        with pytest.raises(ValueError):
            contrast_parameter(-1.0, 1.0)

    def test_frozen_k3(self, ops):
        sol = solve_transmission(ops, cos_data(ops), 3.0)
        t_inc = ops.scene.inclusion.t
        t_out = ops.scene.outer.t
        assert sol.lam == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(sol.phi - (8 / 9) * np.cos(t_inc))) <= 1e-12
        assert np.max(np.abs(sol.outer_trace()
                             - (7 / 9) * np.cos(t_out))) <= 1e-12
        assert sol.gradient_energy() == pytest.approx(55 * np.pi / 81, rel=1e-12)

    @pytest.mark.parametrize("m,k", [(1, 3.0), (2, 10.0), (3, 0.2), (1, 100.0)])
    def test_oracle_traces(self, ops, m, k):
        mode = oracle_transmission_mode(m, k, 1.0, 0.5)
        sol = solve_transmission(ops, cos_data(ops, m), k)
        expect = mode.trace_coeff * np.cos(m * ops.scene.outer.t)
        assert np.max(np.abs(sol.outer_trace() - expect)) <= 1e-10

    def test_matching_and_field(self, ops):
        sol = solve_transmission(ops, cos_data(ops), 3.0)
        assert sol.flux_matching_residual() <= 1e-12
        mode = oracle_transmission_mode(1, 3.0, 1.0, 0.5)
        pts = np.array([[0.2, 0.1], [0.0, 0.3], [0.7, 0.0], [-0.1, -0.75]])
        assert np.max(np.abs(sol.field(pts)[0] - mode.field(pts))) <= 1e-11
        # a ladder gives one column per contrast
        values, grads = solve_transmission(ops, cos_data(ops), [3.0, 10.0]).field(pts)
        assert values.shape == (4, 2) and grads.shape == (4, 2, 2)
        assert np.max(np.abs(values[:, 0] - sol.field(pts)[0])) <= 1e-14
        assert np.max(np.abs(grads[..., 0] - sol.field(pts)[1])) <= 1e-14

    def test_fields_keep_off_the_outer_curve(self, ops):
        # three outer spacings (0.147) inside the unit circle the
        # trapezoidal layers still hold; closer in they drift (2.2e-5 in the
        # value at r = 0.95, 0.77 in the background gradient at r = 0.99),
        # so every field rejects such points, naming the first
        sol = solve_transmission(ops, cos_data(ops), 3.0)
        lim = solve_limit(ops, cos_data(ops), "grounded")
        bg = sol.background
        mode = oracle_transmission_mode(1, 3.0, 1.0, 0.5)
        inside = np.array([[0.85, 0.0], [0.0, -0.85]])
        assert np.max(np.abs(sol.field(inside)[0] - mode.field(inside))) <= 1e-10
        margin = 3.0 * ops.scene.outer.max_spacing()
        calls = (sol.field, lim.field,
                 lambda x: ops.field(x, 0, bg.psi, bg.constant))
        for r in (0.95, 0.99):
            pts = np.array([[0.2, 0.0], [0.0, r], [r, 0.0]])
            message = (f"evaluation points: {tuple(pts[1].tolist())} is within "
                       f"{margin:.3g} of the outer boundary")
            for call in calls:
                with pytest.raises(EvaluationDomainError, match=re.escape(message)):
                    call(pts)
        # the background alone is smooth across the inclusion curve
        on_curve = np.array([[0.5, 0.0], [0.0, 0.0]])
        assert np.max(np.abs(ops.field(on_curve, 0, bg.psi, bg.constant)[0]
                             - on_curve[:, 0])) <= 1e-13

    def test_no_contrast_returns_background(self, ops):
        sol = solve_transmission(ops, cos_data(ops), 1.0)
        assert np.max(np.abs(sol.phi)) == 0.0
        assert np.max(np.abs(sol.outer_trace()
                             - sol.background.trace)) <= 1e-13

    def test_high_contrast_is_not_resonant(self, ops, caplog):
        # lambda -> 1/2 is the conductor limit, solved exactly there; the
        # nearest eigenvalue of K* is far below 1/2
        with caplog.at_level(logging.WARNING, logger="npeit.transmission"):
            sol = solve_transmission(ops, cos_data(ops), 1e12)
        assert not caplog.records
        conductor = solve_limit(ops, cos_data(ops), "conductor")
        assert np.max(np.abs(sol.outer_trace() - conductor.trace)) \
            <= 1e-10 * np.max(np.abs(conductor.trace))

    def test_near_eigenvalue_warns(self, ops, caplog):
        mu, _ = ops.pencil
        rhs = ops.scene.inclusion.nodes[:, 0]
        with caplog.at_level(logging.WARNING, logger="npeit.transmission"):
            _solve_second_kind(ops, mu[0] + 1e-9, rhs)
        assert any(f"eigenvalue {mu[0]:.12g} of K*" in r.getMessage()
                   for r in caplog.records)

    def test_net_flux_data_is_projected(self, ops):
        # pure-Neumann compatibility: the boundary mean is removed and
        # reported, leaving the homogeneous solution for constant data
        sol = solve_transmission(ops, np.ones(ops.scene.outer.n), 3.0)
        assert sol.removed_mean == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(sol.outer_trace())) <= 1e-12
        shifted = solve_transmission(ops, 1.0 + cos_data(ops), 3.0)
        plain = solve_transmission(ops, cos_data(ops), 3.0)
        assert np.max(np.abs(shifted.phi - plain.phi)) <= 1e-13
        assert shifted.removed_mean == pytest.approx(1.0, abs=1e-13)


class TestLimits:
    def test_frozen_grounded(self, ops):
        lim = solve_limit(ops, cos_data(ops), "grounded")
        t_inc, t_out = ops.scene.inclusion.t, ops.scene.outer.t
        assert np.max(np.abs(lim.psi - 1.6 * np.cos(t_inc))) <= 1e-11
        assert np.max(np.abs(lim.trace - 0.6 * np.cos(t_out))) <= 1e-12
        assert lim.annulus_gradient_energy() == pytest.approx(
            0.6 * np.pi, rel=1e-12)
        assert lim.alpha == pytest.approx(0.0, abs=1e-12)

    def test_conductor_coincides_for_mean_free_data(self, ops):
        gr = solve_limit(ops, cos_data(ops), "grounded")
        co = solve_limit(ops, cos_data(ops), "conductor")
        assert np.max(np.abs(gr.trace - co.trace)) <= 1e-12

    def test_conductor_coincides_offset_scene(self, offset_ops):
        f = cos_data(offset_ops) + 0.4 * np.sin(2 * offset_ops.scene.outer.t)
        gr = solve_limit(offset_ops, f, "grounded")
        co = solve_limit(offset_ops, f, "conductor")
        assert np.max(np.abs(gr.trace - co.trace)) <= 1e-11

    def test_transmission_tends_to_limit(self, ops):
        lim = solve_limit(ops, cos_data(ops), "grounded")
        dists = []
        for k in (8.0, 32.0, 128.0, 512.0):
            sol = solve_transmission(ops, cos_data(ops), k)
            dists.append(trace_distance(ops.scene.outer,
                                        sol.outer_trace(), lim.trace))
        assert all(b < a for a, b in zip(dists, dists[1:]))
        # first-order decay in the contrast
        slope = np.polyfit(np.log([8, 32, 128, 512]), np.log(dists), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_grounded_with_net_flux(self, ops):
        # data with nonzero total flux: the grounded inclusion absorbs it;
        # check the absorbed flux by integrating the normal derivative
        # over an intermediate circle via finite differences
        f = 1.0 + np.cos(ops.scene.outer.t)
        lim = solve_limit(ops, f, "grounded")
        assert lim.beta == pytest.approx(2 * np.pi, rel=1e-12)
        n_probe, rr, h = 128, 0.8, 1e-5
        th = np.linspace(0, 2 * np.pi, n_probe, endpoint=False)
        ring = np.column_stack([np.cos(th), np.sin(th)])
        dn = (lim.field((rr + h) * ring)[0] - lim.field((rr - h) * ring)[0]) / (2 * h)
        flux = np.sum(dn) * 2 * np.pi * rr / n_probe
        assert flux == pytest.approx(2 * np.pi, rel=1e-6)
        # and from the gradient, to the solve's accuracy
        grad = lim.field(rr * ring)[1]
        flux = np.sum(grad * ring) * 2 * np.pi * rr / n_probe
        assert flux == pytest.approx(lim.beta, rel=1e-12)

    def test_limit_gradient_matches_fd(self, offset_ops):
        t = offset_ops.scene.outer.t
        f = 1.0 + np.cos(t) + 0.3 * np.sin(2 * t)
        pts = np.array([[-0.3, 0.2], [0.0, -0.6], [0.75, 0.1], [-0.5, -0.4]])
        h = 1e-6
        for kind in ("grounded", "conductor"):
            lim = solve_limit(offset_ops, f, kind)
            values, grad = lim.field(pts)
            assert values.shape == (4,) and grad.shape == (4, 2)
            for d in range(2):
                e = np.zeros(2)
                e[d] = h
                fd = (lim.field(pts + e)[0] - lim.field(pts - e)[0]) / (2 * h)
                assert np.max(np.abs(grad[:, d] - fd)) <= 1e-8

    def test_zero_mean_traces(self, offset_ops):
        f = cos_data(offset_ops)
        w = offset_ops.scene.outer.weights
        for kind in ("grounded", "conductor"):
            lim = solve_limit(offset_ops, f, kind)
            assert abs(w @ lim.trace) <= 1e-12

    def test_limit_matches_oracle_coefficient(self, ops):
        for m in (1, 2, 3):
            lim = solve_limit(ops, cos_data(ops, m), "grounded")
            expect = oracle_limit_trace_coefficient(m, 1.0, 0.5) \
                * np.cos(m * ops.scene.outer.t)
            assert np.max(np.abs(lim.trace - expect)) <= 1e-11

    def test_rejects_unknown_kind(self, ops):
        with pytest.raises(ValueError):
            solve_limit(ops, cos_data(ops), "insulating")


class TestTraceDistance:
    def test_basic_properties(self, ops):
        outer = ops.scene.outer
        a = np.cos(outer.t)
        b = np.cos(outer.t) + 0.5  # constants are quotiented out
        assert trace_distance(outer, a, b) <= 1e-13
        c = 2 * np.cos(outer.t)
        assert trace_distance(outer, a, c) == pytest.approx(
            np.sqrt(np.pi), rel=1e-12)


class TestGradientBound:
    def test_concentric_trace_constant(self, ops):
        assert trace_constant(ops) == pytest.approx(np.sqrt(5 / 3), rel=1e-12)

    def test_ritz_constant_on_round_annulus(self, ops):
        # an imperceptibly shifted inclusion takes the same Ritz path and
        # gives the same constant: no jump between concentric and not
        near = InclusionScene(make_circle((0, 0), 1.0, 128),
                              make_circle((1e-9, 0.0), 0.5, 128), 1.0)
        near_ops = build_scene_operators(near)
        assert trace_constant(near_ops) == pytest.approx(trace_constant(ops),
                                                         rel=1e-12)

    def test_bound_holds_across_contrasts(self, ops):
        f = cos_data(ops)
        lim = solve_limit(ops, f, "grounded")
        c0 = trace_constant(ops)
        for k in (0.05, 0.5, 2.0, 10.0, 1e3):
            gb = gradient_bound(ops, f, k, limit=lim, c0=c0)
            assert gb.ratio <= 1.0
            assert gb.annulus_ratio <= 1.0

    def test_frozen_ratio_and_oracle_energies(self, ops):
        # k = 3 concentric: u = (4/9) r cos(theta) inside the inclusion,
        # so |grad v|_D = (4/9) sqrt(pi) r0; v = u - u_limit in the
        # annulus is (8/9 - 4/5)(r + 1/r) cos(theta)
        gb = gradient_bound(ops, cos_data(ops), 3.0)
        a = 4.0 / 9.0
        assert gb.inclusion_gradient == pytest.approx(
            a * np.sqrt(np.pi) * 0.5, rel=1e-12)
        c = 8.0 / 9.0 - 4.0 / 5.0
        e_ann = np.pi * c * c * ((1 - 0.25) + (1 / 0.25 - 1))
        assert gb.annulus_gradient == pytest.approx(np.sqrt(e_ann), rel=1e-11)
        assert gb.limit_gradient == pytest.approx(
            np.sqrt(0.6 * np.pi), rel=1e-12)
        assert gb.data_norm == pytest.approx(np.sqrt(np.pi), rel=1e-13)
        assert gb.c0 == pytest.approx(np.sqrt(5 / 3), rel=1e-12)
        expect_ratio = (a * np.sqrt(np.pi) * 0.5) * np.sqrt(3.0) / (
            np.sqrt(0.6 * np.pi) + np.sqrt(5 / 3) * np.sqrt(np.pi))
        assert gb.ratio == pytest.approx(expect_ratio, rel=1e-11)

    def test_data_without_mean_free_part_raises(self):
        # an off-centre disk: the bound is 0 / 0 for constant data
        scene = InclusionScene(make_circle((0, 0), 1.0, 64),
                               make_circle((0.2, 0.1), 0.4, 64), 1.0)
        d_ops = build_scene_operators(scene)
        ones = np.ones(scene.outer.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_transmission(d_ops, ones, [0.5, 4.0])
            conductor = solve_limit(d_ops, ones, "conductor")
            with pytest.raises(ValueError, match="mean-free part"):
                sol.gradient_bound(conductor, trace_constant(d_ops))
            with pytest.raises(ValueError, match="mean-free part"):
                gradient_bound(d_ops, ones, 4.0)

    def test_ratio_decays_at_high_contrast(self, ops):
        f = cos_data(ops)
        lim = solve_limit(ops, f, "grounded")
        c0 = trace_constant(ops)
        ratios = [gradient_bound(ops, f, k, limit=lim, c0=c0).ratio
                  for k in (4.0, 16.0, 64.0, 256.0)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_bound_holds_on_star_scene(self):
        scene = InclusionScene(
            make_circle((0, 0), 1.0, 160),
            make_star((0.1, 0.0), 0.35, [(3, 0.05)], 160), 2.0)
        s_ops = build_scene_operators(scene)
        f = 2.0 * np.cos(scene.outer.t)
        lim = solve_limit(s_ops, f, "grounded")
        c0 = trace_constant(s_ops)
        for k in (0.2, 8.0, 200.0):
            gb = gradient_bound(s_ops, f, k, limit=lim, c0=c0)
            assert gb.ratio <= 1.0
            assert gb.annulus_ratio <= 1.0


class TestTraceConstant:
    @pytest.mark.parametrize("r0", [0.2, 0.25, 0.3, 0.5])
    def test_concentric_insulated_oracle(self, r0):
        # r0 <= 0.3 is where the grounded radial value 1/(rho ln(rho/r0))
        # would undercut every insulated mode and overstate C0
        scene = InclusionScene(make_circle((0, 0), 1.0, 128),
                               make_circle((0, 0), r0, 128), 1.0)
        assert trace_constant(build_scene_operators(scene)) == pytest.approx(
            insulated_trace_constant(1.0, r0), rel=1e-12)

    @staticmethod
    def converged(ops, caplog) -> float:
        with caplog.at_level(logging.WARNING, logger="npeit.transmission"):
            c0 = trace_constant(ops)
        assert not caplog.records
        return c0

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("outer", ["disk", "ellipse"])
    def test_matches_all_harmonic_ritz(self, outer, n, caplog):
        curve = (make_circle((0, 0), 1.0, n) if outer == "disk"
                 else make_ellipse((0, 0), 1.2, 0.9, n))
        scene = InclusionScene(
            curve, make_star((0.1, 0.05), 0.3, [(3, 0.05)], n), 1.0)
        ops = build_scene_operators(scene)
        assert self.converged(ops, caplog) == pytest.approx(
            all_harmonic_trace_constant(ops), rel=1e-12)

    def test_capped_first_block(self, caplog):
        # n = 48 resolves m <= 23, so the first block is every harmonic
        # and its leading half is harmonics 1..11
        scene = InclusionScene(make_circle((0, 0), 1.0, 48),
                               make_star((0.1, 0.05), 0.3, [(3, 0.05)], 48), 1.0)
        ops = build_scene_operators(scene)
        assert self.converged(ops, caplog) == pytest.approx(
            all_harmonic_trace_constant(ops), rel=1e-12)

    def test_warns_when_capped_unconverged(self, caplog):
        # a coarse 5-petal outer star: harmonics 1..11 and 1..23 (all the
        # grid resolves) still differ by about 2e-9, so the value is the
        # all-harmonic one and a warning names the last change
        n = 48
        scene = InclusionScene(make_star((0, 0), 1.0, [(5, 0.1, 0.0)], n),
                               make_circle((0.05, 0.0), 0.2, n), 1.0)
        ops = build_scene_operators(scene)
        with caplog.at_level(logging.WARNING, logger="npeit.transmission"):
            c0 = trace_constant(ops)
        [record] = caplog.records
        assert "resolvable order 23" in record.getMessage()
        change = float(record.getMessage().rsplit(" ", 1)[1])
        assert 1e-12 < change < 1e-6
        assert c0 == pytest.approx(all_harmonic_trace_constant(ops), rel=1e-12)


class TestDerivatives:
    def test_first_derivative_exact_coefficient(self, ops):
        sol, phis = derivative_ladder(ops, cos_data(ops), 3.0, 1)
        outer = ops.scene.outer
        d1 = ops.outer_trace(phis[0])
        d1 -= (outer.weights @ d1) / outer.length()
        expect = -2 * 0.03125 / 1.125**2  # d/dk of (1-tau)/(1+tau) at k=3
        assert np.max(np.abs(d1 - expect * np.cos(outer.t))) <= 1e-12

    def test_first_derivative_vs_central_difference(self, ops):
        f = cos_data(ops)
        sol, phis = derivative_ladder(ops, f, 3.0, 1)
        outer = ops.scene.outer
        h = 1e-3
        fd = (solve_transmission(ops, f, 3.0 + h).outer_trace()
              - solve_transmission(ops, f, 3.0 - h).outer_trace()) / (2 * h)
        d1 = ops.outer_trace(phis[0])
        d1 -= (outer.weights @ d1) / outer.length()
        assert np.max(np.abs(fd - d1)) <= 1e-4

    def test_taylor_geometric_convergence(self, ops):
        f = cos_data(ops)
        sol, phis = derivative_ladder(ops, f, 3.0, 8)
        target = solve_transmission(ops, f, 3.5).outer_trace()
        errs = [trace_distance(ops.scene.outer,
                               taylor_outer_trace(ops, sol, phis, 0.5, j),
                               target)
                for j in range(1, 9)]
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        assert all(r < 0.5 for r in ratios)
        assert errs[-1] <= 1e-7

    def test_scaled_norms_bounded(self, ops):
        _, phis = derivative_ladder(ops, cos_data(ops), 3.0, 10)
        ratios = derivative_norm_ratios(ops, phis, 3.0)
        assert all(r <= 1.0 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)

    def test_rejects_zero_contrast(self, ops):
        with pytest.raises(ValueError):
            derivative_ladder(ops, cos_data(ops), 1.0, 3)


class TestExpansion:
    def test_route_agreement_and_frozen_amplitude(self, ops):
        spec = solve_spectrum(ops, 16)
        res = expansion_coefficients(ops, spec, cos_data(ops), 3.0)
        assert res.max_route_gap() <= 1e-12
        plus = [i for i, m in enumerate(res.modes) if m.family == "+"]
        pair = np.hypot(res.a_system[plus[0]], res.a_system[plus[1]])
        assert pair == pytest.approx(0.4982214414575938, abs=1e-12)
        others = np.delete(res.a_system, plus[:2])
        assert np.max(np.abs(others)) <= 1e-12

    def test_reconstruction(self, ops):
        spec = solve_spectrum(ops, 16)
        f = cos_data(ops) + 0.5 * np.cos(2 * ops.scene.outer.t) \
            + 0.25 * np.cos(3 * ops.scene.outer.t)
        res = expansion_coefficients(ops, spec, f, 3.0)
        recon = res.reconstructed_outer_trace(ops)
        target = res.solution.outer_trace()
        assert trace_distance(ops.scene.outer, recon, target) <= 1e-10

    def test_offset_scene_routes_agree(self, offset_ops):
        spec = solve_spectrum(offset_ops, 12)
        f = cos_data(offset_ops)
        res = expansion_coefficients(offset_ops, spec, f, 5.0)
        assert res.max_route_gap() <= 1e-9

    def test_net_flux_data_uses_projection(self, ops):
        # the expansion compares fields driven by the same effective
        # data, so a constant offset in f changes nothing
        spec = solve_spectrum(ops, 8)
        f = 1.0 + np.cos(ops.scene.outer.t)
        res = expansion_coefficients(ops, spec, f, 3.0)
        base = expansion_coefficients(ops, spec, cos_data(ops), 3.0)
        assert np.max(np.abs(res.a_system - base.a_system)) <= 1e-13
        assert res.max_route_gap() <= 1e-10


def config_expansion_scene(name):
    """Operator set, spectrum and data of ``np-eit expand`` on a shipped
    config."""
    config = load_config(CONFIGS / name)
    ops = build_operators(config)
    return (ops, solve_spectrum(ops, config.j_trunc),
            config.data_vector(ops.scene.outer.t), config.ladder_base)


def galerkin_coefficients(ops, spectrum, b, k):
    """The weak form restricted to the mode potentials, solved densely:
    ``((k - k0) (E + D)/2 + k0 I) a = k0 b`` with the energy Gram ``E``
    and the difference form ``D`` of the mode densities."""
    k0 = ops.scene.k0
    hf = HatForms(ops)
    dens_hat = hf.hat(np.column_stack([m.density for m in spectrum.modes]))
    d = -2.0 * dens_hat.T @ (hf.kstar_hat.T @ (hf.s_hat @ dens_hat))
    g = 0.5 * (spectrum.gram() + d)
    g = 0.5 * (g + g.T)
    return np.linalg.solve((k - k0) * g + k0 * np.eye(len(b)), k0 * b)


class TestDiagonalExpansion:
    """The modes are ``S``-orthonormal eigendensities, so the Galerkin
    system of the expansion is diagonal and its solution is the closed
    form ``a_j = k0 b_j / ((k - k0)(1/2 - mu_j) + k0)``."""

    KS = (0.01, 1.0, 3.0, 1e4)  # k = k0 = 1 included

    @pytest.fixture(scope="class", params=["concentric.cfg", "stability.cfg",
                                           "adjudication.cfg", "ellipse"])
    def scene(self, request):
        if request.param != "ellipse":
            return config_expansion_scene(request.param)
        outer = make_ellipse((0, 0), 1.2, 0.9, 128)
        inclusion = make_star((0.25, -0.1), 0.4, [(3, 0.05), (5, 0.02)], 128)
        ops = build_scene_operators(InclusionScene(outer, inclusion, 1.0))
        assert isinstance(ops.green, NumericGreen)
        return ops, solve_spectrum(ops, 12), np.cos(outer.t - 0.3), 3.0

    @pytest.mark.parametrize("k", KS)
    def test_matches_galerkin_solve(self, scene, k):
        ops, spec, f, _ = scene
        res = expansion_coefficients(ops, spec, f, k)
        ref = galerkin_coefficients(ops, spec, res.b_moment, k)
        scale = np.max(np.abs(ref))
        assert scale > 0.0
        assert np.max(np.abs(res.a_system - ref)) <= 1e-14 * scale

    def test_no_contrast_returns_the_moment(self, scene):
        ops, spec, f, _ = scene
        res = expansion_coefficients(ops, spec, f, ops.scene.k0)
        assert np.array_equal(res.a_system, res.b_moment)

    def test_makes_no_linear_solve(self, scene, monkeypatch):
        ops, spec, f, k = scene

        def refuse(*args, **kwargs):
            raise AssertionError("linear solve in the expansion")

        monkeypatch.setattr(scipy.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        res = expansion_coefficients(ops, spec, f, k)
        assert np.all(np.isfinite(res.a_system))

    @pytest.mark.parametrize("name", ["concentric.cfg", "adjudication.cfg"])
    def test_depends_only_on_the_eigenspace(self, name):
        # rotate every resolved cos/sin pair by a random angle: the
        # per-pair coefficient norms of both routes must not move
        ops, spec, f, k = config_expansion_scene(name)
        rng = np.random.default_rng(7)
        modes = list(spec.modes)
        pairs = [(i, i + 1) for i in range(len(modes) - 1)
                 if modes[i].family == modes[i + 1].family
                 and abs(modes[i].mu) > 1e-14
                 and abs(modes[i].mu - modes[i + 1].mu) <= 1e-15]
        assert len(pairs) >= 4
        assert len({i for pair in pairs for i in pair}) == 2 * len(pairs)
        for i, j in pairs:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            c, s = np.cos(angle), np.sin(angle)
            gi, gj = modes[i].density, modes[j].density
            modes[i] = dataclasses.replace(modes[i], density=c * gi + s * gj)
            modes[j] = dataclasses.replace(modes[j], density=c * gj - s * gi)
        base = expansion_coefficients(ops, spec, f, k)
        turned = expansion_coefficients(ops, NPSpectrum(modes, ops), f, k)
        for field in ("a_system", "a_projection"):
            a, r = getattr(base, field), getattr(turned, field)
            tol = 1e-14 * np.max(np.abs(a))
            for i, j in pairs:
                assert abs(np.hypot(a[i], a[j]) - np.hypot(r[i], r[j])) <= tol
            assert np.max(np.abs(r - a)) > 1e3 * tol  # the pairs did turn


class TestNeumannToDirichletInvariants:
    """Invariants of the Neumann-to-Dirichlet map on any geometry.

    With Fourier loads ``L`` (``cos mt``, ``sin mt``, ``m = 1..6``) on an
    ellipse outer (numeric kernel) and outer traces ``T(k)``, the Gram
    matrix ``G(k) = L^T W T(k)`` is the energy form
    ``int sigma grad u_i . grad u_j``: symmetric by reciprocity, positive
    definite, and decreasing in the inclusion conductivity ``k``.  None of
    this depends on the order in which the kernel sums are taken.
    """

    KS = (0.1, 1.0, 10.0)

    @pytest.fixture(scope="class")
    def grams(self):
        outer = make_ellipse((0, 0), 1.2, 0.9, 128)
        inclusion = make_star((0.1, 0.05), 0.45, [(3, 0.04), (4, 0.02)], 128)
        ops = build_scene_operators(InclusionScene(outer, inclusion, 1.0))
        assert isinstance(ops.green, NumericGreen)
        mt = np.outer(outer.t, np.arange(1, 7))
        loads = np.stack([np.cos(mt), np.sin(mt)], axis=2).reshape(outer.n, -1)
        grams = {}
        for k in self.KS:  # k = k0 = 1 included: the loads as one block
            traces = solve_transmission(ops, loads, k).outer_trace()
            grams[k] = loads.T @ (outer.weights[:, None] * traces)
        return grams

    @pytest.mark.parametrize("k", KS)
    def test_symmetric(self, grams, k):
        g = grams[k]
        assert np.max(np.abs(g - g.T)) <= 1e-13 * np.max(np.abs(g))

    @pytest.mark.parametrize("k", KS)
    def test_positive_definite(self, grams, k):
        g = grams[k]
        assert np.linalg.eigvalsh(0.5 * (g + g.T))[0] > 0.0

    def test_monotone_in_conductivity(self, grams):
        for lo, hi in zip(self.KS, self.KS[1:]):
            d = grams[lo] - grams[hi]
            assert np.linalg.eigvalsh(0.5 * (d + d.T))[0] > 0.0
