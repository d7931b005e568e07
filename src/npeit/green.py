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

Both expose the same small surface: per point set, kernel and correction
values, the correction gradient in the first argument and the kernel
trace on the outer nodes, with nothing cached; per operator set,
``inclusion_blocks`` (``R`` and its normal derivative on the inclusion
nodes) and ``outer_maps`` (one outer x inclusion table); one ``neumann``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg

from .exceptions import ConditioningError, EvaluationDomainError
from .geometry import BoundaryCurve
from .quadrature import (
    flux_kernel,
    free_self_matrices,
    free_single_layer_eval,
    free_single_layer_gradient,
    log_kernel,
    pair_table,
)

__all__ = [
    "InteriorNeumannSolver",
    "DiskGreen",
    "NumericGreen",
    "make_green",
]

# trapezoidal evaluation of smooth layer kernels degrades closer to the
# curve than a few node spacings; keep a uniform safety margin
_EVAL_MARGIN_SPACINGS = 3.0


def _points(p) -> np.ndarray:
    return np.atleast_2d(np.asarray(p, dtype=float))


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

    def _require(self, pts, what):
        rho = np.hypot(*(pts - self.center).T)
        if np.any(rho > self.radius * (1 + 1e-12)):
            raise EvaluationDomainError(
                f"{what} outside the closed outer disk (max radius "
                f"{np.max(rho):.6g} > {self.radius:.6g})"
            )

    # -- kernel surface -------------------------------------------------------

    def inclusion_blocks(self, curve: BoundaryCurve, located=None):
        """``R`` and ``d/dnu_x R`` on the inclusion nodes from one
        reflected-point table; ``outer_maps`` waits for first use."""
        x = curve.nodes
        self._require(x, "evaluation points")
        return (*self._reflected(x, x, curve.normals[:, None]), None)

    def correction(self, x, y) -> np.ndarray:
        """``R(x_i, y_j)`` for ``x`` anywhere in the closed disk and ``y``
        strictly inside."""
        x, y = _points(x), _points(y)
        self._require(x, "evaluation points")
        self._require(y, "source points")
        return self._reflected(x, y)[0]

    def correction_gradient_x(self, x, y) -> np.ndarray:
        """``grad_x R(x_i, y_j)``, shape ``(P, Q, 2)``."""
        return self._reflected(_points(x), _points(y))[1]

    def kernel(self, x, y) -> np.ndarray:
        """``N(x_i, y_j)`` for distinct point sets."""
        return log_kernel(pair_table(_points(x), _points(y))[0]) \
            + self.correction(x, y)

    def outer_trace_kernel(self, y) -> np.ndarray:
        """``N(x_i, y_j)`` with ``x_i`` the outer-boundary nodes."""
        y = _points(y)
        self._require(y, "source points")
        return self._trace(*self._outer_table(y)[:2])[0]

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
        vnorm = np.hypot(v[..., 0], v[..., 1])
        # sources at the center: the reflected term drops out entirely
        at_center = ynorm < 1e-14
        vnorm[:, at_center] = 1.0
        v[:, at_center, :] = 0.0
        scale = ynorm[None, :] / (self.radius * 2.0 * np.pi * vnorm**2)
        grad = v * scale[..., None] if nu is None else \
            (v[..., 0] * nu[..., 0] + v[..., 1] * nu[..., 1]) * scale
        return (np.log(vnorm) - np.log(self.radius)) / (2.0 * np.pi), grad


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
        self.s_self, kstar = free_self_matrices(outer)
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
        np.multiply(self.sqrt_w[:, None], flux, out=rhs[:-1])
        sol = scipy.linalg.lu_solve(self._lu, rhs, overwrite_b=True)
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

    def _require_far_inside(self, pts, what, located=None):
        # the first offending point raises as per-point tests would
        margin = _EVAL_MARGIN_SPACINGS * self.outer.max_spacing()
        d, inside, unsure = located or self.outer.locate(pts)
        bad = unsure | ~inside | (d < margin)
        if bad.any():
            p = pts[int(np.argmax(bad))]
            if not self.outer.contains(p):
                raise EvaluationDomainError(f"{what}: {tuple(p)} is outside the domain")
            raise EvaluationDomainError(
                f"{what}: {tuple(p)} is within {margin:.3g} of the outer "
                "boundary; the numeric kernel is inaccurate there"
            )

    _require = _require_far_inside  # the guard the shared methods call

    def _correction_data(self, y, x=None):
        # (psi, const) of sources y; one guard per point set, x first
        if x is not None:
            self._require(x, "evaluation points")
        if x is None or not np.array_equal(x, y):
            self._require(y, "source points")
        return self._trace(*self._outer_table(y)[:2])[1]

    def _neumann_data(self, dx, r2pi):
        # the correction's outer Neumann data, one column per source
        return 1.0 / self.neumann.length \
            - flux_kernel(dx, r2pi, self.outer.normals[:, None])

    def _trace(self, logs, target):
        # one Neumann solve for the sources' densities; one product with the
        # outer self matrix serves the zero-mean constant and the trace
        outer, neumann = self.outer, self.neumann
        psi, borders = neumann.solve(target)
        if np.max(np.abs(borders)) > 1e-6:
            raise ConditioningError(
                "outer Neumann solve left a large compatibility defect "
                f"({np.max(np.abs(borders)):.3e}); refine the outer grid"
            )
        trace = neumann.s_self @ psi
        const = -(outer.weights @ logs + outer.weights @ trace) / neumann.length
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

    def correction(self, x, y) -> np.ndarray:
        x, y = _points(x), _points(y)
        psi, const = self._correction_data(y, x)
        return free_single_layer_eval(self.outer, x) @ psi + const

    def correction_gradient_x(self, x, y) -> np.ndarray:
        x, y = _points(x), _points(y)
        psi, _ = self._correction_data(y, x)
        # one stacked BLAS product over the outer nodes, one per component
        grad = np.moveaxis(free_single_layer_gradient(self.outer, x), 2, 0)
        return np.moveaxis(grad @ psi, 0, 2)

    kernel = DiskGreen.kernel  # the free logarithm plus this correction
    outer_trace_kernel = DiskGreen.outer_trace_kernel
    outer_maps = DiskGreen.outer_maps
    _outer_table = DiskGreen._outer_table


def make_green(outer: BoundaryCurve):
    """The outer kernel: the closed form for a circle, the numeric path
    otherwise."""
    return DiskGreen(outer) if outer.kind == "circle" else NumericGreen(outer)
