"""Periodic log-kernel quadrature.

Independent references used here:

* the discrete symbol of the log rule (computed by direct convolution
  against Fourier modes);
* closed-form circle identities for the free kernels: with density 1 the
  single layer returns ``r ln r``, with ``cos(m t)`` it returns
  ``-(r/2m) cos(m t)``; the adjoint double layer has constant kernel
  ``1/(4 pi r)`` on a circle so constants map to 1/2 and oscillatory
  modes to 0;
* the constants-to-one-half identity of the (non-adjoint) double layer,
  which holds on every smooth closed curve.
"""

import numpy as np
import pytest

from npeit.geometry import make_circle, make_ellipse, make_star
from npeit.quadrature import (
    free_layer_field,
    free_self_matrices,
    log_weights,
)


def free_single_layer_self(curve):
    return free_self_matrices(curve)[0]


def free_adjoint_double_layer_self(curve):
    return free_self_matrices(curve)[1]


class TestLogWeights:
    def test_symbol(self):
        n = 32
        w = log_weights(n)
        t = 2 * np.pi * np.arange(n) / n
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        conv = w[idx]
        # k = 0 annihilated; 0 < k < n/2 scaled by -1/k; Nyquist by -2/n
        assert np.max(np.abs(conv @ np.ones(n))) <= 1e-14
        for k in (1, 2, 5, 15):
            h = np.cos(k * t)
            assert np.max(np.abs(conv @ h + h / k)) <= 1e-13
            h = np.sin(k * t)
            assert np.max(np.abs(conv @ h + h / k)) <= 1e-13
        h = np.cos(16 * t)
        assert np.max(np.abs(conv @ h + (2.0 / n) * h)) <= 1e-13

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 16, 64, 160, 256, 512, 1024, 2048])
    def test_cosine_table_matches_the_cosine_sum(self, n):
        # the weights read the cosines from a table at exact integer
        # arguments; frozen reference: the direct cosine sum they replaced,
        # whose own argument roundoff reaches 4.9e-14 of max |w| at n = 2048
        half = n // 2
        d = np.arange(n)
        m = np.arange(1, half)
        ref = -(2.0 / n) * (np.cos(np.outer(2.0 * np.pi * d / n, m)) / m).sum(axis=1)
        ref -= ((-1.0) ** d) / (half * n)
        assert np.max(np.abs(log_weights(n) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("n", [160, 512, 2048])
    def test_matches_an_extended_precision_sum(self, n):
        # exact integer argument reduction in long double; the direct
        # double-precision sum is off by up to 4.9e-14 of max |w| here
        half = n // 2
        d = np.arange(n, dtype=np.longdouble)
        m = np.arange(1, half, dtype=np.longdouble)
        pi = np.longdouble("3.14159265358979323846264338327950288")
        ang = (np.outer(d, m) % n) * (2 * pi / n)
        ref = -(2 / np.longdouble(n)) * (np.cos(ang) / m).sum(axis=1)
        ref -= ((-1.0) ** np.arange(n)) / np.longdouble(half * n)
        scale = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(log_weights(n) - ref))) <= 2e-15 * scale

    def test_validation(self):
        with pytest.raises(ValueError):
            log_weights(31)
        with pytest.raises(ValueError):
            log_weights(2)


class TestFreeSingleLayer:
    def test_circle_mode_action(self):
        r = 0.5
        c = make_circle((0, 0), r, 64)
        s = free_single_layer_self(c)
        assert np.max(np.abs(s @ np.ones(64) - r * np.log(r))) <= 1e-14
        for m in (1, 3, 7):
            for g in (np.cos(m * c.t), np.sin(m * c.t)):
                assert np.max(np.abs(s @ g + (r / (2 * m)) * g)) <= 1e-13

    def test_spectral_convergence_on_star(self):
        # compare against a fine self-converged reference; doubling the
        # grid takes the error from ~1e-9 to machine precision
        star_fine = make_star((0, 0), 1.0, [(3, 0.2)], 512)
        g_fine = np.cos(2 * star_fine.t) + 0.3 * np.sin(5 * star_fine.t)
        ref = free_single_layer_self(star_fine) @ g_fine
        errs = {}
        for n in (64, 128):
            star = make_star((0, 0), 1.0, [(3, 0.2)], n)
            g = np.cos(2 * star.t) + 0.3 * np.sin(5 * star.t)
            val = free_single_layer_self(star) @ g
            errs[n] = np.max(np.abs(val - ref[:: 512 // n]))
        assert errs[64] <= 1e-8
        assert errs[128] <= 1e-12

    def test_off_curve_eval_matches_trace_limit(self):
        # the potential is continuous across the layer: off-curve values
        # just inside approach the self-quadrature trace
        c = make_circle((0, 0), 0.5, 256)
        g = np.cos(3 * c.t)
        trace = free_single_layer_self(c) @ g
        pts = 0.9 * c.nodes  # radius 0.45, eleven node spacings inside
        inside = free_layer_field(c, pts, g)[0]
        # interior closed form: -(r/2m) (rho/r)^m cos(m theta)
        rho = 0.45
        expect = -(0.5 / 6) * (rho / 0.5) ** 3 * np.cos(3 * c.t)
        assert np.max(np.abs(inside - expect)) <= 1e-12
        assert np.max(np.abs(trace + (0.5 / 6) * np.cos(3 * c.t))) <= 1e-13

    def test_gradient_matches_finite_differences(self):
        c = make_ellipse((0, 0), 1.0, 0.7, 128)
        rng = np.random.default_rng(3)
        g = rng.standard_normal(128)
        pts = np.array([[0.2, 0.1], [-0.3, 0.25]])
        grad = free_layer_field(c, pts, g)[1]
        h = 1e-6
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            up = free_layer_field(c, pts + e, g)[0]
            dn = free_layer_field(c, pts - e, g)[0]
            assert np.allclose(grad[:, d], (up - dn) / (2 * h), atol=1e-8)


class TestFreeAdjointDoubleLayer:
    def test_circle_action(self):
        c = make_circle((0.2, -0.1), 0.75, 64)
        k = free_adjoint_double_layer_self(c)
        assert np.max(np.abs(k @ np.ones(64) - 0.5)) <= 1e-14
        for m in (1, 2, 5):
            assert np.max(np.abs(k @ np.cos(m * c.t))) <= 1e-13

    def test_constants_identity_general_curves(self):
        # the double layer (weighted transpose) maps constants to 1/2 on
        # every smooth closed curve; spectrally exact discretely
        for curve in (
            make_star((0, 0), 1.0, [(3, 0.2)], 128),
            make_ellipse((0.1, 0.4), 1.3, 0.7, 128),
        ):
            ks = free_adjoint_double_layer_self(curve)
            k_one = (ks.T @ curve.weights) / curve.weights
            assert np.max(np.abs(k_one - 0.5)) <= 1e-12

    def test_jump_relation_against_analytic_mode_fluxes(self):
        # flux(+/-) = (+/- 1/2 + K*) g checked against the closed-form
        # one-sided normal derivatives of the circle mode potentials:
        # density cos(m t) gives -(r/2m)(rho/r)^m inside and
        # -(r/2m)(r/rho)^m outside, density 1 gives r ln r / r ln rho,
        # so the boundary fluxes are -+ cos(m t)/2 and (0, 1) per unit
        # of constant density
        c = make_circle((0, 0), 0.5, 256)
        m = 2
        g = np.cos(m * c.t) + 0.1
        kst = free_adjoint_double_layer_self(c)
        flux_out = 0.5 * np.cos(m * c.t) + 0.1
        flux_in = -0.5 * np.cos(m * c.t)
        assert np.allclose(0.5 * g + kst @ g, flux_out, atol=1e-13)
        assert np.allclose(-0.5 * g + kst @ g, flux_in, atol=1e-13)
