"""Transmission solves across conductivity contrasts, their infinite-
contrast limits, and spectral diagnostics built on them.

The conductivity problem with coefficient ``k`` on the inclusion and
``k0`` outside, driven by Neumann data ``f`` on the outer boundary, is
reduced to a second-kind equation for a single-layer density ``phi`` on
the inclusion boundary:

    ``(lambda I - K*) phi = d/dnu u0  on the inclusion,``
    ``lambda = (k + k0) / (2 (k - k0))``,

with ``u0`` the inclusion-free background.  Because ``|lambda| > 1/2``
for every positive contrast while every eigenvalue of ``K*`` on mean-free
densities is inside ``(-1/2, 1/2)``, the solve is well posed, and so is
its ``k -> infinity`` end at ``lambda = 1/2``: the grounded limit (zero
trace on the inclusion, arbitrary net flux) and the conductor limit
(constant trace, flux-free inclusion), which differ by a constant for
mean-free data.  Every solve is the expansion in the cached
eigendensities of ``K*``.  On top sit diagnostics: weighted trace
distances, gradient energies via boundary identities, an a priori
gradient bound with a computable trace constant, the ladder of
conductivity derivatives, and the expansion of the solution in the
spectral densities of the flux-average operator (one scalar per mode).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .exceptions import SolverError
from .geometry import InclusionScene
from .layers import SceneOperators
from .quadrature import free_single_layer_eval, free_single_layer_gradient
from .spectrum import NPSpectrum

__all__ = [
    "BackgroundField",
    "solve_background",
    "TransmissionSolution",
    "solve_transmission",
    "LimitSolution",
    "solve_limit",
    "trace_distance",
    "trace_constant",
    "gradient_bound",
    "derivative_ladder",
    "taylor_outer_trace",
    "ExpansionResult",
    "expansion_coefficients",
]

log = logging.getLogger(__name__)

# distance min_j |lambda - mu_j| to the spectrum of K* below which a
# second-kind solve is flagged as nearly resonant
_RESONANCE_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# background field
# ---------------------------------------------------------------------------

@dataclass
class BackgroundField:
    """Inclusion-free potential with outer Neumann data ``f``.

    Solves ``k0 Delta u0 = 0`` in the full domain with
    ``k0 du0/dnu = f`` and zero boundary mean, represented as a free
    single layer on the outer curve plus a constant.  Pure-Neumann
    compatibility requires mean-free data, so the boundary mean of the
    supplied ``f`` is removed before solving and reported in
    ``removed_mean``; ``f`` stores the projected data actually used.
    For columns of data every array holds one column per load.
    """

    scene: InclusionScene
    f: np.ndarray
    psi: np.ndarray = field(repr=False)
    constant: float
    trace: np.ndarray = field(repr=False)  # zero-mean values on outer nodes
    values: np.ndarray = field(repr=False)  # on the inclusion nodes,
    flux: np.ndarray = field(repr=False)  # and the normal derivative there
    removed_mean: float = 0.0

    def evaluate(self, points) -> np.ndarray:
        """Values at interior points (several outer spacings inside)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return free_single_layer_eval(self.scene.outer, pts) @ self.psi \
            + self.constant

    def gradient(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.einsum("pjd,j->pd",
                         free_single_layer_gradient(self.scene.outer, pts),
                         self.psi)


def solve_background(ops: SceneOperators, f: np.ndarray) -> BackgroundField:
    """Solve the inclusion-free problem, projecting ``f`` (a vector or
    columns) to zero mean."""
    outer = ops.scene.outer
    f = np.asarray(f, dtype=float)
    removed = outer.mean(f)
    h = f - removed
    psi, border = ops.green.neumann.solve(h / ops.scene.k0)
    if np.max(np.abs(border)) > 1e-8 * max(1.0, float(np.max(np.abs(h)))):
        raise SolverError(
            f"background solve compatibility defect {float(np.max(np.abs(border))):.3e}"
        )
    psi = psi.reshape(h.shape)
    raw_trace = ops.green.neumann.s_self @ psi
    constant = -outer.mean(raw_trace)
    values_map, flux_map = ops.background_maps
    return BackgroundField(scene=ops.scene, f=h, psi=psi, constant=constant,
                           trace=raw_trace + constant,
                           values=values_map @ psi + constant,
                           flux=flux_map @ psi, removed_mean=removed)


# ---------------------------------------------------------------------------
# finite-contrast transmission
# ---------------------------------------------------------------------------

@dataclass
class TransmissionSolution:
    """Solution ``u = u0 + (single layer of phi)`` at contrast ``k``.

    ``phi`` has a column per point of a ladder ``k`` or per load of a block
    ``f``; trace, flux and bound methods then give a value per column."""

    ops: SceneOperators
    k: float | np.ndarray
    lam: float | np.ndarray
    background: BackgroundField
    phi: np.ndarray = field(repr=False)

    @property
    def scene(self) -> InclusionScene:
        return self.ops.scene

    @property
    def removed_mean(self) -> float:
        """Boundary mean subtracted from the supplied Neumann data."""
        return self.background.removed_mean

    def _columns(self, values: np.ndarray) -> np.ndarray:
        """Background ``values`` broadcast against the columns of ``phi``."""
        return values[:, None] if self.phi.ndim > values.ndim else values

    def outer_trace(self) -> np.ndarray:
        """Zero-mean solution trace on the outer nodes."""
        tr = self._columns(self.background.trace) + self.ops.outer_trace(self.phi)
        return tr - self.scene.outer.mean(tr)

    def inclusion_trace(self) -> np.ndarray:
        return self._columns(self.background.values) \
            + self.ops.potential_trace(self.phi)

    def side_flux(self, side: int) -> np.ndarray:
        return self._columns(self.background.flux) \
            + self.ops.side_flux(self.phi, side)

    def evaluate(self, points) -> np.ndarray:
        """Values at interior points (one column of ``phi``)."""
        return self.background.evaluate(points) \
            + self.ops.potential(self.phi).evaluate(points)

    def gradient(self, points) -> np.ndarray:
        return self.background.gradient(points) \
            + self.ops.potential(self.phi).gradient(points)

    def flux_matching_residual(self):
        """Defect of the conormal matching ``k flux(-) = k0 flux(+)``."""
        k0 = self.scene.k0
        r = self.k * self.side_flux(-1) - k0 * self.side_flux(+1)
        return np.max(np.abs(r), axis=0)

    def gradient_energy(self):
        """``int_Omega |grad u|^2`` via boundary identities:
        ``oint (f/k0) u - oint_inclusion phi u``."""
        scene = self.scene
        outer_part = scene.outer.weights @ (
            self._columns(self.background.f / scene.k0) * self.outer_trace())
        inner_part = scene.inclusion.weights @ (self.phi * self.inclusion_trace())
        return outer_part - inner_part

    def gradient_bound(self, limit: "LimitSolution",
                       c0: float) -> "GradientBound":
        """:func:`gradient_bound` of this solution against a flux-free
        ``limit`` of its data (the conductor limit, or the grounded limit
        of the mean-free data), with trace constant ``c0``.  ValueError if
        the data has no mean-free part: the bound is then ``0 / 0``."""
        if limit.beta != 0.0:
            raise ValueError("gradient bound needs a limit with zero net "
                             "flux (conductor, or grounded on mean-free data)")
        size = np.max(np.abs(self.background.f), axis=0)
        if np.any(size <= 1e-13 * (size + np.abs(self.removed_mean))):
            raise ValueError("gradient bound needs data with a mean-free part")
        scene, k, k0 = self.scene, np.asarray(self.k), self.scene.k0
        w_d = scene.inclusion.weights
        tr_u = self.inclusion_trace()
        # int_D |grad u|^2 = oint u (du/dnu)|- on the inclusion boundary, with
        # du/dnu|- = (lam - 1/2) phi = k0/(k - k0) phi (u0's flux at k = k0):
        # the side flux would cancel two O(1) terms down to O(1/k)
        flux_in = np.where(k == k0, self._columns(self.background.flux),
                           k0 / np.where(k == k0, 1.0, k - k0) * self.phi)
        e_inc = w_d @ (tr_u * flux_in)
        # int_annulus |grad v|^2 = -oint v (dv/dnu)|+ : the outer term
        # vanishes (equal Neumann data) and additive constants drop against
        # the flux difference, whose net integral is zero
        e_ann = -(w_d @ (tr_u * (self.side_flux(+1)
                                 - self._columns(limit.exterior_flux()))))

        h = self.background.f
        return GradientBound(
            k=self.k,
            k0=scene.k0,
            inclusion_gradient=np.sqrt(np.maximum(e_inc, 0.0)),
            annulus_gradient=np.sqrt(np.maximum(e_ann, 0.0)),
            limit_gradient=math.sqrt(max(limit.annulus_gradient_energy(), 0.0)),
            data_norm=np.sqrt(scene.outer.weights @ h**2),
            c0=float(c0),
        )


def contrast_parameter(k, k0: float):
    """``lambda = (k + k0) / (2 (k - k0))`` per ``k`` (infinite at ``k0``)."""
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0) or k0 <= 0:
        raise ValueError("conductivities must be positive")
    with np.errstate(divide="ignore"):
        return (k + k0) / (2.0 * (k - k0))


def solve_transmission(ops: SceneOperators, f: np.ndarray,
                       k) -> TransmissionSolution:
    """Solve the transmission problem at inclusion conductivity ``k``.

    A 1-D ladder ``k`` takes one load vector ``f``, whose background is
    solved once; the resolvent acts on it with one column per point, and
    one ``k`` is the one-column case (``f`` may then be columns of loads).
    ``f`` is projected to zero boundary mean (Neumann compatibility), the
    subtracted constant reported as ``removed_mean``; ``k = k0`` gives u0.
    """
    if np.ndim(k) > 1 or (np.ndim(k) == 1 and np.ndim(f) > 1):
        raise ValueError("a ladder of conductivities takes one load vector")
    background = solve_background(ops, f)
    lam = contrast_parameter(k, ops.scene.k0)
    live = np.isfinite(lam)  # k = k0 leaves the background as it is
    phi = _solve_second_kind(ops, np.where(live, lam, 1.0), background.flux)
    return TransmissionSolution(ops=ops, k=np.asarray(k, dtype=float)[()],
                                lam=lam, background=background,
                                phi=np.where(live, phi, 0.0))


def _solve_second_kind(ops: SceneOperators, lam,
                       rhs_plain: np.ndarray) -> np.ndarray:
    """Solve ``(lam I - K*) phi = rhs`` on mean-free densities as the
    expansion ``phi = sum_j g_j (g_j | S r) / (lam - mu_j)``, ``r`` the
    mean-free part of ``rhs`` (a vector or columns; ``lam`` one value or
    one per column, then a vector ``rhs`` is shared).  It assumes that
    ``K*`` keeps mean-free densities mean-free, true to quadrature
    accuracy; one refinement step on the residual removes the defect."""
    mu, g = ops.pencil
    lams = np.reshape(lam, -1)
    gap = lams - mu[:, None]
    for j in np.flatnonzero(np.min(np.abs(gap), axis=0) < _RESONANCE_MARGIN):
        log.warning("lambda %.12g is within %.1e of the eigenvalue %.12g of "
                    "K*; the solve may lose accuracy", lams[j],
                    _RESONANCE_MARGIN, mu[np.argmin(np.abs(gap[:, j]))])
    if np.any(gap == 0.0):  # pragma: no cover
        raise SolverError(f"second-kind solve failed at lambda={lam}")
    scale = 1.0 / gap
    mean = ops.curve.mean
    rhs = np.reshape(rhs_plain, (len(g), -1))
    phi = g @ (scale * ops.energy(g, rhs - mean(rhs)))
    resid = rhs - (lams * phi - ops.flux_average(phi))
    phi = phi + g @ (scale * ops.energy(g, resid - mean(resid)))
    return phi.reshape(
        np.shape(rhs_plain) if np.ndim(lam) == 0 else (-1, lams.size))


# ---------------------------------------------------------------------------
# infinite-contrast limits
# ---------------------------------------------------------------------------

@dataclass
class LimitSolution:
    """Infinite-contrast solution (grounded or conductor inclusion).

    The unnormalized field is ``u0(h) + (single layer of psi) + alpha``
    with ``h`` the mean-free part of ``f``, ``alpha`` a constant and
    ``w . psi = beta`` the total input flux over ``k0`` (both zero in the
    conductor case).  The stored ``trace`` is zero-mean on the outer
    boundary (``outer_mean`` was subtracted).
    """

    ops: SceneOperators
    background: BackgroundField
    beta: float
    psi: np.ndarray = field(repr=False)
    alpha: float
    outer_mean: float
    trace: np.ndarray = field(repr=False)

    def evaluate(self, points) -> np.ndarray:
        """Values in the region between the curves (normalized)."""
        return self.background.evaluate(points) \
            + self.ops.potential(self.psi).evaluate(points) \
            + self.alpha - self.outer_mean

    def exterior_flux(self) -> np.ndarray:
        """Exterior flux on the inclusion, net flux included."""
        return self.background.flux + self.ops.side_flux(self.psi, +1)

    def annulus_gradient_energy(self) -> float:
        """``int |grad u|^2`` between the curves, via boundary identities.

        The outer term uses the unnormalized trace; the inclusion term
        vanishes in both limits (zero trace for the grounded case, zero
        total flux against a constant trace for the conductor case).
        """
        scene = self.ops.scene
        unnormalized = self.trace + self.outer_mean
        return float(scene.outer.weights @ (
            (self.background.f / scene.k0) * unnormalized))


def solve_limit(ops: SceneOperators, f: np.ndarray, kind: str,
                background: BackgroundField | None = None) -> LimitSolution:
    """Solve an infinite-contrast limit problem.

    ``kind = 'grounded'``: zero trace on the inclusion; ``f`` may carry
    net flux, which the density ``psi`` carries into the inclusion.
    ``kind = 'conductor'``: constant trace and flux-free inclusion; the
    mean-free part of ``f`` is used.  ``background``: ``f``'s, if solved.

    Both are the ``k -> infinity`` resolvent: ``(1/2 - K*) psi = d/dnu u0``
    on mean-free ``psi``, so zero interior flux and a constant interior
    potential.  Net flux adds ``beta g_eq / (w . g_eq)``, ``g_eq`` the
    equilibrium density (constant potential on the inclusion); ``alpha``
    is minus the weighted mean of the grounded inclusion trace.
    """
    if kind not in ("grounded", "conductor"):
        raise ValueError(f"unknown limit kind {kind!r}")
    outer, curve = ops.scene.outer, ops.curve
    f = np.asarray(f, dtype=float)
    total = float(outer.weights @ f)
    if abs(total) <= 1e-12 * max(1.0, float(np.max(np.abs(f), initial=0.0))):
        total = 0.0
    if background is None:
        background = solve_background(ops, f)
    beta = total / ops.scene.k0 if kind == "grounded" else 0.0

    psi = _solve_second_kind(ops, 0.5, background.flux)
    if beta != 0.0:
        psi += beta / float(curve.weights @ ops.equilibrium) * ops.equilibrium
    alpha = -float(curve.mean(background.values + ops.potential_trace(psi))) \
        if kind == "grounded" else 0.0

    raw_trace = background.trace + ops.outer_trace(psi) + alpha
    mean = float(outer.mean(raw_trace))
    return LimitSolution(ops=ops, background=background, beta=beta, psi=psi,
                         alpha=alpha, outer_mean=mean, trace=raw_trace - mean)


# ---------------------------------------------------------------------------
# trace diagnostics and the gradient bound
# ---------------------------------------------------------------------------

def trace_distance(outer, tr_a: np.ndarray, tr_b: np.ndarray):
    """Weighted ``L^2`` distance of two zero-mean boundary traces (one
    per column for columns of traces)."""
    a = tr_a - outer.mean(tr_a)
    b = tr_b - outer.mean(tr_b)
    return np.sqrt(outer.weights @ (a - b) ** 2)


def trace_constant(ops: SceneOperators, n_harmonics: int = 12) -> float:
    """Constant ``C0`` with ``|w|_{L2(outer)} <= C0 |grad w|_{L2}`` over
    the region between the curves, for ``w`` with mean-free outer trace.

    The extremal fields are harmonic with an insulated inclusion
    (zero normal derivative on its boundary); the constant is the
    reciprocal square root of the smallest nonzero Steklov value of
    that configuration.  Concentric circles have the closed form
    ``C0 = 1 / sqrt(min_m sigma_m)`` with
    ``sigma_0 = 1/(rho ln(rho/r0))`` and
    ``sigma_m = (m/rho) (1 - s^{2m}) / (1 + s^{2m})``, ``s = r0/rho``.
    Otherwise the constant is estimated by Rayleigh-Ritz on insulated
    solves over a Fourier family of outer Neumann loads; the restriction
    underestimates the supremum, so a 1.5 safety factor is applied
    (recorded in the returned value).
    """
    scene = ops.scene
    outer, curve = scene.outer, scene.inclusion
    if (outer.kind == "circle" and curve.kind == "circle"
            and np.allclose(outer.center, curve.center, atol=1e-14)):
        rho, r0 = float(outer.params[0]), float(curve.params[0])
        s = r0 / rho
        sigma = 1.0 / (rho * math.log(rho / r0))
        for m in range(1, n_harmonics + 1):
            sigma = min(sigma, (m / rho) * (1 - s ** (2 * m)) / (1 + s ** (2 * m)))
        return 1.0 / math.sqrt(sigma)

    # cos(m t), sin(m t) for m = 1 .. n_harmonics, one load per column
    mt = np.outer(outer.t, np.arange(1, n_harmonics + 1))
    loads = np.stack([np.cos(mt), np.sin(mt)], axis=2).reshape(outer.n, -1)
    bg = solve_background(ops, scene.k0 * loads)
    # cancel the inclusion flux: exterior-side layer flux is
    # (1/2 + K*) psi, i.e. the lam = -1/2 second-kind problem
    psi = _solve_second_kind(ops, -0.5, bg.flux)
    traces = bg.trace + ops.outer_trace(psi)
    weighted = outer.weights[:, None] * traces
    e, t_gram = loads.T @ weighted, traces.T @ weighted
    theta = scipy.linalg.eigh(0.5 * (t_gram + t_gram.T), 0.5 * (e + e.T),
                              eigvals_only=True)
    return 1.5 * math.sqrt(float(np.max(theta)))


@dataclass(frozen=True)
class GradientBound:
    """A priori bounds on the difference field ``v = u(k) - u_limit``.

    With ``M = |grad u_limit|_{L2(annulus)} + C0 |f|_{L2(outer)} / k0``,
    the difference field satisfies ``|grad v|_{L2(annulus)} <= M`` and
    ``|grad v|_{L2(inclusion)} <= M / sqrt(k)``; ``ratio`` and
    ``annulus_ratio`` report the measured left sides over the bounds
    (one per column of the solution).
    """

    k: float | np.ndarray
    k0: float
    inclusion_gradient: float | np.ndarray
    annulus_gradient: float | np.ndarray
    limit_gradient: float
    data_norm: float | np.ndarray
    c0: float

    @property
    def m_constant(self):
        return self.limit_gradient + self.c0 * self.data_norm / self.k0

    @property
    def ratio(self):
        """``|grad v|_{L2(inclusion)} sqrt(k) / M`` (at most 1)."""
        return self.inclusion_gradient * np.sqrt(self.k) / self.m_constant

    @property
    def annulus_ratio(self):
        """``|grad v|_{L2(annulus)} / M`` (at most 1)."""
        return self.annulus_gradient / self.m_constant


def gradient_bound(ops: SceneOperators, f: np.ndarray, k: float,
                   limit: LimitSolution | None = None,
                   c0: float | None = None) -> GradientBound:
    """Measure the difference field ``v = u(k) - u_limit`` against its
    a priori bounds (grounded limit, mean-free projection of ``f``).

    The limit field is constant inside the inclusion, so the inclusion
    part of ``grad v`` is that of ``u(k)`` alone; both Dirichlet
    energies come from boundary identities (no volume quadrature).
    """
    sol = solve_transmission(ops, f, k)
    if limit is None:
        limit = solve_limit(ops, sol.background.f, "grounded", sol.background)
    if c0 is None:
        c0 = trace_constant(ops)
    return sol.gradient_bound(limit, c0)


# ---------------------------------------------------------------------------
# derivatives in the conductivity parameter
# ---------------------------------------------------------------------------

def derivative_ladder(ops: SceneOperators, f: np.ndarray, k: float,
                      j_max: int) -> tuple[TransmissionSolution, list[np.ndarray]]:
    """Densities of the conductivity derivatives at contrast ``k``.

    The ``j``-th derivative of the solution map is a pure single layer
    ``u^(j) = S phi_j`` with

        ``(lambda I - K*) phi_j = (j/(k - k0)) * d/dnu u^(j-1)|inside``,

    seeded by the solution itself (``u^(0) = u(k)``).  Returns the base
    solution and ``[phi_1, ..., phi_jmax]``.
    """
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    scene = ops.scene
    k0 = scene.k0
    if k == k0:
        raise ValueError("derivatives require k != k0 (the map is analytic "
                         "there but this ladder parameterizes by lambda)")
    sol = solve_transmission(ops, f, k)
    phis: list[np.ndarray] = []
    inner_flux = sol.side_flux(-1)
    for j in range(1, j_max + 1):
        phis.append(_solve_second_kind(ops, sol.lam, (j / (k - k0)) * inner_flux))
        inner_flux = ops.side_flux(phis[-1], -1)
    return sol, phis


def taylor_outer_trace(ops: SceneOperators, sol: TransmissionSolution,
                       phis: list[np.ndarray], delta: float,
                       j_max: int | None = None) -> np.ndarray:
    """Outer trace of the Taylor polynomial at contrast ``k + delta``."""
    j_max = len(phis) if j_max is None else j_max
    terms = [delta**j / math.factorial(j) for j in range(1, j_max + 1)]
    tr = sol.outer_trace() + ops.outer_trace(np.column_stack(phis[:j_max])) @ terms
    return tr - ops.scene.outer.mean(tr)


# ---------------------------------------------------------------------------
# spectral expansion of the solution
# ---------------------------------------------------------------------------

@dataclass
class ExpansionResult:
    """Spectral coefficients of ``u(k) - u_limit`` over mode potentials.

    ``b_moment`` is the limit-flux moment ``b_j``; ``a_system`` is the
    diagonal formula ``a_j = k0 b_j / ((k - k0)(1/2 - mu_j) + k0)``;
    ``a_projection`` is the energy projection of the transmission density
    plus ``b_j``.  The two routes agree up to truncation.
    """

    modes: list
    a_system: np.ndarray
    a_projection: np.ndarray
    b_moment: np.ndarray
    solution: TransmissionSolution
    limit: LimitSolution

    def max_route_gap(self) -> float:
        return float(np.max(np.abs(self.a_system - self.a_projection)))

    def reconstructed_outer_trace(self, ops: SceneOperators) -> np.ndarray:
        densities = np.column_stack([mode.density for mode in self.modes])
        tr = self.limit.trace + ops.outer_trace(densities) @ self.a_system
        return tr - ops.scene.outer.mean(tr)


def expansion_coefficients(ops: SceneOperators, spectrum: NPSpectrum,
                           f: np.ndarray, k: float) -> ExpansionResult:
    """Expand ``u(k) - u_limit`` in the spectral mode potentials.

    The difference is a pure layer potential.  The modes ``w_j`` are
    ``S``-orthonormal eigendensities of ``K*``, so the interior Gram of
    their potentials is ``diag(1/2 - mu_j)`` and the weak form decouples:

        ``a_j = k0 b_j / ((k - k0)(1/2 - mu_j) + k0)``,

    i.e. ``b_j (lambda - 1/2)/(lambda - mu_j)``, and exactly ``b_j`` at
    ``k = k0``; the denominator ``k (1/2 - mu_j) + k0 (1/2 + mu_j)`` is
    positive as ``|mu_j| < 1/2``.  ``b_j`` is the limit-flux moment
    ``oint (d/dnu u_limit|+) w_j`` over the inclusion.  The projection
    route evaluates ``a_j = (phi | S g_j) + b_j`` directly from the
    transmission density ``phi``.
    """
    scene = ops.scene
    k0 = scene.k0
    modes = list(spectrum.modes)
    # both fields must be driven by the same effective (mean-free) data,
    # otherwise their difference is not a pure inclusion layer
    f = np.asarray(f, dtype=float)
    h = f - scene.outer.mean(f)
    sol = solve_transmission(ops, h, k)
    limit = solve_limit(ops, h, "grounded", sol.background)

    densities = np.column_stack([m.density for m in modes])

    # limit flux moment against the mode potential traces -(E w_j) / w
    b = -ops.energy(densities, limit.exterior_flux())

    a_system = k0 * b / ((k - k0) * (0.5 - spectrum.mus) + k0)

    a_projection = ops.energy(densities, sol.phi) + b

    return ExpansionResult(modes=modes, a_system=a_system,
                           a_projection=a_projection, b_moment=b,
                           solution=sol, limit=limit)
