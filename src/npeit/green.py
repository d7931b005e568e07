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
  source approaches the center; the outer curve's interior Neumann solve
  is in closed form too;
* :class:`NumericGreen` -- any smooth outer boundary; the correction is
  produced per source point by an interior Neumann solve on the outer
  curve (single-layer representation, bordered system fixing the additive
  constant), so its accuracy is spectral in the outer grid.

Both expose the same small surface: per point set, ``correction_field``,
the values and first-argument gradient of the correction's layer of a
source density, with nothing cached; per operator set,
``inclusion_blocks`` (``R`` and its normal derivative on the inclusion
nodes) and ``outer_maps`` (one outer x inclusion table); and the outer
curve's interior Neumann solve, ``neumann_solve`` with ``layer_trace``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .exceptions import ConditioningError, EvaluationDomainError
from .geometry import BoundaryCurve
from .quadrature import (
    flux_kernel,
    free_layer_field,
    free_self_matrices,
    log_kernel,
    pair_table,
)

__all__ = [
    "DiskGreen",
    "NumericGreen",
    "make_green",
]

# trapezoidal evaluation of smooth layer kernels degrades closer to the
# curve than a few node spacings; keep a uniform safety margin
_EVAL_MARGIN_SPACINGS = 3.0


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

    def _require(self, pts, what, margin=0.0):
        rho = np.hypot(*(pts - self.center).T)
        outside = rho > self.radius * (1 + 1e-12)
        bad = outside | (rho > self.radius - margin) if margin else outside
        if bad.any():
            i = int(np.argmax(bad))
            p = tuple(pts[i].tolist())
            if outside[i]:
                raise EvaluationDomainError(
                    f"{what}: {p} is outside the closed outer disk (radius "
                    f"{rho[i]:.6g} > {self.radius:.6g})")
            raise EvaluationDomainError(
                f"{what}: {p} is within {margin:.3g} of the outer boundary; "
                "the trapezoidal rule is inaccurate there")

    def _require_far_inside(self, pts, what):
        self._require(pts, what, _EVAL_MARGIN_SPACINGS * self.outer.max_spacing())

    # -- kernel surface -------------------------------------------------------

    def inclusion_blocks(self, curve: BoundaryCurve, located=None):
        """``R`` and ``d/dnu_x R`` on the inclusion nodes from one
        reflected-point table; ``outer_maps`` waits for first use."""
        x = curve.nodes
        self._require(x, "evaluation points")
        return (*self._reflected(x, x, curve.normals[:, None]), None)

    def correction_field(self, x, y, density) -> tuple:
        """Values and ``x``-gradients of ``sum_j R(x, y_j) density_j`` (a
        vector or columns of source strengths), shaped ``(P, ...)`` and
        ``(P, 2, ...)``, for ``(P, 2)`` and ``(J, 2)`` point arrays in the
        domain; callers guard both."""
        values, grads = self._reflected(x, y)
        return values @ density, np.moveaxis(grads, 2, 1) @ density

    # -- interior Neumann solve of the outer curve ----------------------------

    def neumann_solve(self, flux_values: np.ndarray):
        """Density columns ``psi`` whose interior-side single-layer flux
        matches each mean-free column of ``flux_values`` on the outer
        nodes, with the border residuals: the free ``K*`` of a circle of
        radius ``rho`` is the constant ``1/(4 pi rho)``, zero on mean-free
        densities, so ``psi = -2 h`` and the residuals are zero."""
        flux = _mean_free(self.outer, flux_values)
        return -2.0 * flux, np.zeros(flux.shape[1])

    def layer_trace(self, psi: np.ndarray) -> np.ndarray:
        """Outer-node trace of the free single layer of ``psi`` (or
        columns): the Nystrom rule's own Fourier symbol, by ``rfft``,
        ``rho ln rho`` at ``m = 0``, ``-rho/(2|m|)`` for ``0 < |m| < n/2``
        and ``-rho/n`` at ``n/2``."""
        rho, n = self.radius, self.outer.n
        symbol = -rho / (2.0 * np.maximum(np.arange(n // 2 + 1), 1))
        symbol[0], symbol[-1] = rho * np.log(rho), -rho / n
        coeffs = np.fft.rfft(psi, axis=0)
        coeffs *= symbol.reshape((-1,) + (1,) * (np.ndim(psi) - 1))
        return np.fft.irfft(coeffs, n, axis=0)

    def outer_maps(self, curve: BoundaryCurve):
        """From one outer x inclusion table: the free outer layer's values
        ``E`` and normal derivatives ``F`` at the inclusion nodes (transposed
        views of outer-major arrays) and the outer-trace matrix (inclusion
        weights folded in); with them, what ``_trace`` made beside it."""
        w = self.outer.weights[:, None]
        values, data, flux = self._outer_table(curve.nodes, curve.normals)
        trace, extra = self._trace(values, data)
        trace *= curve.weights
        values *= w
        flux *= w
        return (values.T, flux.T, trace), extra

    def _outer_table(self, y, normals=None):
        # one outer x source table, released on return: the free logarithm,
        # the kernel's outer Neumann data, and the flux along -normals
        dx, r2pi = pair_table(self.outer.nodes, y)
        flux = None if normals is None else flux_kernel(dx, r2pi, -normals)
        return log_kernel(dx), self._neumann_data(dx, r2pi), flux

    def _neumann_data(self, dx, r2pi):
        return None  # the closed form solves nothing

    def _trace(self, logs, data):
        # on the outer circle the reflected term collapses and
        # N = (1/pi) ln(|x - y| / rho)
        return 2.0 * logs - np.log(self.radius) / np.pi, None

    def _reflected(self, x, y, nu=None):
        # R(x_i, y_j) and grad_x R = |yh| v / (2 pi rho |v|^2), or its part
        # along unit vectors nu, from one table of v = xh |yh| - yh/|yh|
        xh = (x - self.center) / self.radius
        yh = (y - self.center) / self.radius
        ynorm = np.hypot(yh[:, 0], yh[:, 1])
        yunit = yh / np.maximum(ynorm, 1e-300)[:, None]
        v = xh[:, None, :] * ynorm[None, :, None] - yunit[None, :, :]
        v2 = np.einsum("...i,...i->...", v, v)
        # sources at the center: the reflected term drops out entirely
        at_center = ynorm < 1e-14
        v2[:, at_center] = 1.0
        v[:, at_center, :] = 0.0
        scale = ynorm[None, :] / (self.radius * 2.0 * np.pi * v2)
        grad = v * scale[..., None] if nu is None else \
            (v[..., 0] * nu[..., 0] + v[..., 1] * nu[..., 1]) * scale
        return (0.5 * np.log(v2) - np.log(self.radius)) / (2.0 * np.pi), grad


def _mean_free(outer: BoundaryCurve, flux_values) -> np.ndarray:
    # Neumann data as columns; ConditioningError unless each is mean-free
    flux = np.atleast_2d(np.asarray(flux_values, dtype=float).T).T
    means = outer.mean(flux)
    if np.max(np.abs(means)) > 1e-8 * max(1.0, np.max(np.abs(flux))):
        raise ConditioningError(
            "interior Neumann data is not mean-free (max mean "
            f"{np.max(np.abs(means)):.3e}); the problem is incompatible")
    return flux


class NumericGreen:
    """Outer kernel for a general smooth outer boundary.

    For each source ``y`` the correction ``R(., y)`` is the interior
    harmonic function with outer Neumann data
    ``1/|bd Omega| - d/dnu ln|x - y|/(2 pi)`` (mean-free by the flux
    theorem), represented as a free single layer on the outer curve plus
    a constant fixed by the zero-boundary-mean normalization.  Accuracy
    is spectral in the outer grid.

    The interior-side flux of a single layer is ``(-I/2 + K*) psi``; that
    operator has a one-dimensional defect (its range is the mean-free
    functions, its transpose kills constants), so the solve uses the
    bordered system

        ``[[-I/2 + K*, w0], [w0^T, 0]]``

    in symmetrized (hat) variables, where ``w0`` spans the discrete
    kernel directions; the border both regularizes the rank-one
    deficiency and pins the mean of the density.  The border unknown
    reports the compatibility defect of the data and stays at roundoff
    for mean-free fluxes.  Its LU is formed once, here.
    """

    def __init__(self, outer: BoundaryCurve):
        self.outer = outer
        n = outer.n
        self.sqrt_w = np.sqrt(outer.weights)
        self.s_self, kstar = free_self_matrices(outer)
        kstar_hat = (self.sqrt_w[:, None] * kstar) / self.sqrt_w[None, :]
        w0 = self.sqrt_w / np.linalg.norm(self.sqrt_w)
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = -0.5 * np.eye(n) + kstar_hat
        bordered[:n, n] = w0
        bordered[n, :n] = w0
        self._lu = scipy.linalg.lu_factor(bordered)
        self.length = outer.length()

    def neumann_solve(self, flux_values: np.ndarray):
        """Density columns ``psi`` whose interior-side single-layer flux
        matches each mean-free column of ``flux_values`` on the outer
        nodes.  Returns ``(psi, border_residuals)``."""
        flux = _mean_free(self.outer, flux_values)
        rhs = np.zeros((self.outer.n + 1, flux.shape[1]))
        np.multiply(self.sqrt_w[:, None], flux, out=rhs[:-1])
        sol = scipy.linalg.lu_solve(self._lu, rhs, overwrite_b=True)
        psi = sol[:-1] / self.sqrt_w[:, None]
        return psi, sol[-1]

    def layer_trace(self, psi: np.ndarray) -> np.ndarray:
        """Outer-node trace of the free single layer of ``psi``."""
        return self.s_self @ psi

    def _require_far_inside(self, pts, what, located=None):
        # the first offending point raises as per-point tests would
        margin = _EVAL_MARGIN_SPACINGS * self.outer.max_spacing()
        d, inside, unsure = located or self.outer.locate(pts)
        bad = unsure | ~inside | (d < margin)
        if bad.any():
            p = tuple(pts[bad][0].tolist())
            if not self.outer.contains(p):
                raise EvaluationDomainError(f"{what}: {p} is outside the domain")
            raise EvaluationDomainError(
                f"{what}: {p} is within {margin:.3g} of the outer "
                "boundary; the numeric kernel is inaccurate there"
            )

    _require = _require_far_inside  # the guard both kernels name alike

    def _neumann_data(self, dx, r2pi):
        # the correction's outer Neumann data, one column per source
        return 1.0 / self.length \
            - flux_kernel(dx, r2pi, self.outer.normals[:, None])

    def _trace(self, logs, target):
        # one Neumann solve for the sources' densities; one product with the
        # outer self matrix serves the zero-mean constant and the trace
        psi, borders = self.neumann_solve(target)
        if np.max(np.abs(borders)) > 1e-6:
            raise ConditioningError(
                "outer Neumann solve left a large compatibility defect "
                f"({np.max(np.abs(borders)):.3e}); refine the outer grid"
            )
        trace = self.layer_trace(psi)
        w = self.outer.weights
        const = -(w @ logs + w @ trace) / self.length
        trace += logs
        trace += const
        return trace, (psi, const)

    # -- kernel surface -------------------------------------------------------

    def inclusion_blocks(self, curve: BoundaryCurve, located=None):
        """``R`` and ``d/dnu_x R`` on the inclusion nodes, ``E psi + c`` and
        ``F psi``, with ``outer_maps`` that made ``psi``; ``located``, if
        given, is ``outer.locate(curve.nodes)`` (``InclusionScene.located``)."""
        self._require(curve.nodes, "evaluation points", located)
        maps, (psi, const) = self.outer_maps(curve)
        return maps[0] @ psi + const, maps[1] @ psi, maps

    def correction_field(self, x, y, density) -> tuple:
        """:meth:`DiskGreen.correction_field`: the sources' free logarithm
        and Neumann data on the outer nodes contracted with ``density``,
        one Neumann solve for the density ``psi`` and constant of the sum,
        and one outer evaluation of the free layer of ``psi``."""
        logs, data, _ = self._outer_table(y)
        d = np.reshape(density, (logs.shape[1], -1))
        psi, const = self._trace(logs @ d, data @ d)[1]
        shape = np.shape(density)[1:]
        values, grads = free_layer_field(self.outer, x, psi.reshape((-1,) + shape))
        return values + const.reshape(shape), grads

    outer_maps = DiskGreen.outer_maps
    _outer_table = DiskGreen._outer_table


def make_green(outer: BoundaryCurve):
    """The outer kernel: the closed form for a circle, the numeric path
    otherwise."""
    return DiskGreen(outer) if outer.kind == "circle" else NumericGreen(outer)
