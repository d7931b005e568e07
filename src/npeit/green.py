"""Neumann-adapted kernels for the outer domain.

The solvers represent fields as single layers against the kernel
``N(x, y)`` of the outer domain, characterized (up to the normalization
below) by

* ``N(., y)`` harmonic away from ``y`` with a free-space log singularity,
* constant outward flux ``1/|bd Omega|`` on the outer boundary,
* zero boundary mean: ``oint N(x, y) dsigma(x) = 0``.

Splitting off the free-space part,

    ``N(x, y) = ln|x - y|/(2 pi) + R(x, y)``,

leaves a correction ``R`` that is smooth and harmonic in both arguments
throughout the domain and symmetric.  Two constructions are provided:

* :class:`DiskGreen` -- closed form for a circular outer boundary via the
  reflected-point formula, written in a form that stays stable as the
  source approaches the center;
* :class:`NumericGreen` -- any smooth outer boundary; the correction is
  produced per source point by an interior Neumann solve on the outer
  curve (single-layer representation, bordered system fixing the additive
  constant), so its accuracy is spectral in the outer grid.

Both expose the same small surface used by the layer assembly: pairwise
kernel and correction values, the correction gradient in the first
argument, the kernel trace on the outer nodes, and one ``neumann`` solver.
"""

from __future__ import annotations

import logging
from functools import cached_property

import numpy as np
import scipy.linalg

from .exceptions import ConditioningError, EvaluationDomainError
from .geometry import BoundaryCurve
from .quadrature import (
    free_adjoint_double_layer_self,
    free_single_layer_eval,
    free_single_layer_gradient,
    free_single_layer_self,
)

__all__ = [
    "fundamental_solution",
    "InteriorNeumannSolver",
    "DiskGreen",
    "NumericGreen",
    "make_green",
]

log = logging.getLogger(__name__)

# trapezoidal evaluation of smooth layer kernels degrades closer to the
# curve than a few node spacings; keep a uniform safety margin
_EVAL_MARGIN_SPACINGS = 3.0


def fundamental_solution(points, source=(0.0, 0.0)) -> np.ndarray:
    """Fundamental solution ``E(x) = -ln|x - y| / (2 pi)`` of ``-Delta``.

    Positive near the source (it equals 1 on the circle of radius
    ``exp(-2 pi)``) and with unit total flux through any enclosing curve.
    The layer machinery works with the opposite-sign kernel internally;
    this is the reference-normalized field exposed to users.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts - np.asarray(source, dtype=float)
    return -np.log(np.hypot(d[:, 0], d[:, 1])) / (2.0 * np.pi)


def _pairwise_log(x, y) -> np.ndarray:
    dx = x[:, None, :] - y[None, :, :]
    return np.log(np.hypot(dx[..., 0], dx[..., 1])) / (2.0 * np.pi)


class DiskGreen:
    """Closed-form outer kernel for a circular outer boundary.

    With ``xh = (x - c)/rho`` and ``yh = (y - c)/rho``,

        ``N(x, y) = (1/2 pi) [ ln|xh - yh| + ln| xh |yh| - yh/|yh| | ]``

    where the second logarithm is the reflected-source term written so
    that the ``yh -> 0`` limit is finite (the norm tends to 1).  The
    correction ``R = N - ln|x - y|/(2 pi)`` is exactly symmetric.
    """

    def __init__(self, outer: BoundaryCurve):
        if outer.kind != "circle":
            raise ValueError("DiskGreen requires a circular outer boundary")
        self.outer = outer
        self.center = outer.center
        self.radius = float(outer.params[0])

    @cached_property
    def neumann(self) -> InteriorNeumannSolver:  # built on first use
        return InteriorNeumannSolver(self.outer)

    # -- geometry guards ------------------------------------------------------

    def _require_inside(self, pts, what):
        rho = np.hypot(*(pts - self.center).T)
        if np.any(rho > self.radius * (1 + 1e-12)):
            raise EvaluationDomainError(
                f"{what} outside the closed outer disk (max radius "
                f"{np.max(rho):.6g} > {self.radius:.6g})"
            )

    # -- kernel surface -------------------------------------------------------

    def correction(self, x, y) -> np.ndarray:
        """``R(x_i, y_j)`` for ``x`` anywhere in the closed disk and ``y``
        strictly inside."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        self._require_inside(x, "evaluation points")
        self._require_inside(y, "source points")
        v, vnorm = self._reflected(x, y)
        return (np.log(vnorm) - np.log(self.radius)) / (2.0 * np.pi)

    def correction_gradient_x(self, x, y) -> np.ndarray:
        """``grad_x R(x_i, y_j)``, shape ``(P, Q, 2)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        v, vnorm = self._reflected(x, y)
        yh = (y - self.center) / self.radius
        ynorm = np.hypot(yh[:, 0], yh[:, 1])
        scale = ynorm[None, :] / (self.radius * 2.0 * np.pi * vnorm**2)
        return v * scale[..., None]

    def kernel(self, x, y) -> np.ndarray:
        """``N(x_i, y_j)`` for distinct point sets."""
        return _pairwise_log(np.atleast_2d(np.asarray(x, float)),
                             np.atleast_2d(np.asarray(y, float))) \
            + self.correction(x, y)

    def outer_trace_kernel(self, y) -> np.ndarray:
        """``N(x_i, y_j)`` with ``x_i`` the outer-boundary nodes.

        On the outer circle the reflected term collapses and
        ``N = (1/pi) ln(|x - y| / rho)``.
        """
        y = np.atleast_2d(np.asarray(y, dtype=float))
        self._require_inside(y, "source points")
        dx = self.outer.nodes[:, None, :] - y[None, :, :]
        dist = np.hypot(dx[..., 0], dx[..., 1])
        return np.log(dist / self.radius) / np.pi

    def _reflected(self, x, y):
        xh = (x - self.center) / self.radius
        yh = (y - self.center) / self.radius
        ynorm = np.hypot(yh[:, 0], yh[:, 1])
        safe = np.maximum(ynorm, 1e-300)
        yunit = yh / safe[:, None]
        v = xh[:, None, :] * ynorm[None, :, None] - yunit[None, :, :]
        vnorm = np.hypot(v[..., 0], v[..., 1])
        # sources at the center: the reflected term drops out entirely
        at_center = ynorm < 1e-14
        if np.any(at_center):
            vnorm[:, at_center] = 1.0
            v[:, at_center, :] = 0.0
        return v, vnorm


class InteriorNeumannSolver:
    """Interior Neumann problems on a closed curve via a free single layer.

    The interior-side flux of a single layer is ``(-I/2 + K*) psi``; that
    operator has a one-dimensional defect (its range is the mean-free
    functions, its transpose kills constants), so the solve uses the
    bordered system

        ``[[-I/2 + K*, w0], [w0^T, 0]]``

    in symmetrized (hat) variables, where ``w0`` spans the discrete
    kernel directions; the border both regularizes the rank-one
    deficiency and pins the mean of the density.  The border unknown
    reports the compatibility defect of the data and stays at roundoff
    for mean-free fluxes.
    """

    def __init__(self, outer: BoundaryCurve):
        self.outer = outer
        n = outer.n
        self.sqrt_w = np.sqrt(outer.weights)
        self.s_self = free_single_layer_self(outer)
        kstar = free_adjoint_double_layer_self(outer)
        kstar_hat = (self.sqrt_w[:, None] * kstar) / self.sqrt_w[None, :]
        w0 = self.sqrt_w / np.linalg.norm(self.sqrt_w)
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = -0.5 * np.eye(n) + kstar_hat
        bordered[:n, n] = w0
        bordered[n, :n] = w0
        self._lu = scipy.linalg.lu_factor(bordered)
        self.length = outer.length()

    def solve(self, flux_values: np.ndarray):
        """Density columns ``psi`` whose interior-side single-layer flux
        matches each mean-free column of ``flux_values`` on the curve
        nodes.  Returns ``(psi, border_residuals)``."""
        flux = np.atleast_2d(np.asarray(flux_values, dtype=float).T).T
        means = self.outer.mean(flux)
        if np.max(np.abs(means)) > 1e-8 * max(1.0, np.max(np.abs(flux))):
            raise ConditioningError(
                "interior Neumann data is not mean-free (max mean "
                f"{np.max(np.abs(means)):.3e}); the problem is incompatible"
            )
        rhs = np.zeros((self.outer.n + 1, flux.shape[1]))
        rhs[:-1] = self.sqrt_w[:, None] * flux
        sol = scipy.linalg.lu_solve(self._lu, rhs)
        psi = sol[:-1] / self.sqrt_w[:, None]
        return psi, sol[-1]


class NumericGreen:
    """Outer kernel for a general smooth outer boundary.

    For each source ``y`` the correction ``R(., y)`` is the interior
    harmonic function with outer Neumann data
    ``1/|bd Omega| - d/dnu ln|x - y|/(2 pi)`` (mean-free by the flux
    theorem), represented as a free single layer on the outer curve plus
    a constant fixed by the zero-boundary-mean normalization; see
    :class:`InteriorNeumannSolver` for the solve.  Accuracy is spectral
    in the outer grid.
    """

    def __init__(self, outer: BoundaryCurve):
        self.outer = outer
        self.neumann = InteriorNeumannSolver(outer)
        # cache of per-source-set correction data keyed by array bytes
        self._cache = {}

    def _correction_data(self, y, x=None):
        # one domain guard per point set, evaluation points ``x`` first; the
        # cache keys are sets that passed, and ``y`` equal to ``x`` has passed
        key, xkey = y.tobytes(), None if x is None else x.tobytes()
        if xkey is not None and xkey not in self._cache:
            self._require_far_inside(x, "evaluation points")
        if key in self._cache:
            return self._cache[key]
        if xkey != key:
            self._require_far_inside(y, "source points")
        nodes, normals = self.outer.nodes, self.outer.normals
        dx = nodes[:, None, :] - y[None, :, :]
        r2 = dx[..., 0] ** 2 + dx[..., 1] ** 2
        dnu_g = (dx[..., 0] * normals[:, 0][:, None]
                 + dx[..., 1] * normals[:, 1][:, None]) / (2.0 * np.pi * r2)
        flux_target = 1.0 / self.neumann.length - dnu_g
        psi, borders = self.neumann.solve(flux_target)
        if np.max(np.abs(borders)) > 1e-6:
            raise ConditioningError(
                "outer Neumann solve left a large compatibility defect "
                f"({np.max(np.abs(borders)):.3e}); refine the outer grid"
            )
        g_mean = self.outer.weights @ _pairwise_log(nodes, y)
        s_mean = self.outer.weights @ (self.neumann.s_self @ psi)
        const = -(g_mean + s_mean) / self.neumann.length
        self._cache[key] = (psi, const)
        return psi, const

    def _require_far_inside(self, pts, what):
        # the first offending point raises as per-point tests would
        margin = _EVAL_MARGIN_SPACINGS * self.outer.max_spacing()
        d, inside, unsure = self.outer.locate(pts)
        bad = unsure | ~inside | (d < margin)
        if bad.any():
            p = pts[int(np.argmax(bad))]
            if not self.outer.contains(p):
                raise EvaluationDomainError(f"{what}: {tuple(p)} is outside the domain")
            raise EvaluationDomainError(
                f"{what}: {tuple(p)} is within {margin:.3g} of the outer "
                "boundary; the numeric kernel is inaccurate there"
            )

    # -- kernel surface -------------------------------------------------------

    def correction(self, x, y) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        psi, const = self._correction_data(y, x)
        return free_single_layer_eval(self.outer, x) @ psi + const[None, :]

    def correction_gradient_x(self, x, y) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        psi, _ = self._correction_data(y, x)
        # one stacked BLAS product over the outer nodes, one per component
        grad = np.moveaxis(free_single_layer_gradient(self.outer, x), 2, 0)
        return np.moveaxis(grad @ psi, 0, 2)

    kernel = DiskGreen.kernel  # the free logarithm plus this correction

    def outer_trace_kernel(self, y) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        psi, const = self._correction_data(y)
        return (_pairwise_log(self.outer.nodes, y)
                + self.neumann.s_self @ psi + const[None, :])


def make_green(outer: BoundaryCurve):
    """The outer kernel: the closed form for a circle, the numeric path
    otherwise."""
    return DiskGreen(outer) if outer.kind == "circle" else NumericGreen(outer)
