"""References on operator sets, spectra and curves that only the tests
use."""

import math
from functools import cached_property

import numpy as np
import scipy.linalg

from npeit.exceptions import CurveError
from npeit.geometry import BoundaryCurve, make_circle, make_ellipse, make_star
from npeit.layers import SceneOperators
from npeit.quadrature import free_self_matrices, log_kernel, pair_table
from npeit.transmission import _solve_second_kind, solve_background


class HatForms:
    """The hat forms of an operator set, built from its curve and kernel
    apart from its energy matrix: the energy-sign single-layer matrix
    ``s_plain`` on nodal values (weights folded into its columns), and
    ``s_plain`` and ``K*`` conjugated by the square root ``sqrt_w`` of the
    weights, in which ``s_hat`` is symmetric and ``kstar_hat.T`` is the
    hat-space ``K``.  No solve uses these forms."""

    def __init__(self, ops):
        curve = ops.curve
        w = curve.weights
        self.sqrt_w = np.sqrt(w)
        s_free, _ = free_self_matrices(curve)
        corr = ops.green.inclusion_blocks(curve)[0]
        self.s_plain = -(s_free + 0.5 * (corr + corr.T) * w)
        s_hat = self.sqrt_w[:, None] * self.s_plain / self.sqrt_w[None, :]
        self.s_hat = 0.5 * (s_hat + s_hat.T)
        self.kstar_hat = self.sqrt_w[:, None] * ops.kstar_plain \
            / self.sqrt_w[None, :]

    def hat(self, g: np.ndarray) -> np.ndarray:
        """Nodal values (a vector or columns) to hat coordinates."""
        return (self.sqrt_w * np.asarray(g).T).T

    def unhat(self, g_hat: np.ndarray) -> np.ndarray:
        return (np.asarray(g_hat).T / self.sqrt_w).T


def outer_trace_kernel(green, y) -> np.ndarray:
    """``N(x_i, y_j)`` with ``x_i`` the outer-boundary nodes, for sources
    ``y`` strictly inside: the kernel's own outer table and trace, behind
    its source guard (the kernels' former ``outer_trace_kernel``)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    green._require(y, "source points")
    return green._trace(*green._outer_table(y)[:2])[0]


def correction(green, x, y) -> np.ndarray:
    """``R(x_i, y_j)``, one source per column: the kernel's
    ``correction_field`` of unit strengths (no guard)."""
    x, y = np.atleast_2d(x).astype(float), np.atleast_2d(y).astype(float)
    return green.correction_field(x, y, np.eye(len(y)))[0]


def kernel(green, x, y) -> np.ndarray:
    """``N(x_i, y_j)``: the free logarithm plus :func:`correction`."""
    x, y = np.atleast_2d(x).astype(float), np.atleast_2d(y).astype(float)
    return log_kernel(pair_table(x, y)[0]) + correction(green, x, y)


def full_pencil(ops):
    """``sym(E K*) g = mu E g`` on all nodal values by one dense generalized
    ``eigh``, ascending, the equilibrium ``mu = 1/2`` last: every pair,
    roundoff ones included.  This was the package's pencil before it
    resolved only the pairs above roundoff; it stays as the oracle."""
    a = ops.energy_matrix @ ops.kstar_plain
    return scipy.linalg.eigh(0.5 * (a + a.T), ops.energy_matrix)


def record_pencils(monkeypatch) -> dict:
    """While ``monkeypatch`` holds, record each operator set whose pencil is
    solved (``"pencils"``), the size of every generalized scipy ``eigh``
    (``"generalized"``) and that of every standard ``eigh``, scipy's or
    numpy's (``"standard"``)."""
    calls = {"pencils": [], "generalized": [], "standard": []}
    solve = SceneOperators.__dict__["_eigenpairs"].func
    scipy_eigh, numpy_eigh = scipy.linalg.eigh, np.linalg.eigh

    def pencil(ops):
        calls["pencils"].append(ops)
        return solve(ops)

    def counting(a, b=None, *args, **kwargs):
        calls["standard" if b is None else "generalized"].append(len(a))
        return scipy_eigh(a, b, *args, **kwargs)

    def counting_numpy(a, *args, **kwargs):
        calls["standard"].append(len(a))
        return numpy_eigh(a, *args, **kwargs)

    recording = cached_property(pencil)
    recording.__set_name__(SceneOperators, "_eigenpairs")
    monkeypatch.setattr(SceneOperators, "_eigenpairs", recording)
    monkeypatch.setattr(scipy.linalg, "eigh", counting)
    monkeypatch.setattr(np.linalg, "eigh", counting_numpy)
    return calls


def mean_free_basis(ops) -> np.ndarray:
    """Orthonormal ``(n, n-1)`` basis of the mean-free hat subspace of an
    operator set: the trailing columns of the Householder reflection
    exchanging ``sqrt_w`` (normalized) with the first axis.  No solve
    uses a basis of the mean-free densities."""
    v = np.sqrt(ops.curve.weights)
    v /= np.linalg.norm(v)
    v[0] += 1.0
    return (np.eye(len(v)) - 2.0 * np.outer(v, v) / (v @ v))[:, 1:]


def insulated_trace_constant(rho: float, r0: float) -> float:
    """Trace constant ``C0`` of concentric circles with an insulated
    inclusion: ``1 / sqrt(min_{m>=1} (m/rho) (1 - s^{2m}) / (1 + s^{2m}))``,
    ``s = r0/rho``.  A mean-free outer trace has no radial (``m = 0``)
    mode, so no ``1/(rho ln(rho/r0))`` term enters.  The quotient grows
    with ``m`` once ``s^{2m}`` is small, so ``m <= 200`` holds the
    minimum for every ``s < 0.99``."""
    s2 = (r0 / rho) ** 2
    return 1.0 / math.sqrt(min((m / rho) * (1 - s2**m) / (1 + s2**m)
                               for m in range(1, 201)))


def all_harmonic_trace_constant(ops) -> float:
    """Top Rayleigh-Ritz value of ``|w|^2_{L2(outer)} / |grad w|^2`` over
    the insulated fields of every outer load ``cos(m t)``, ``sin(m t)``
    with ``m < n/2``, by one generalized scipy ``eigh``: the discrete
    Steklov constant that ``trace_constant`` truncates."""
    outer = ops.scene.outer
    mt = np.outer(outer.t, np.arange(1, (outer.n - 1) // 2 + 1))
    loads = np.column_stack([np.cos(mt), np.sin(mt)])
    bg = solve_background(ops, ops.scene.k0 * loads)
    traces = bg.trace + ops.outer_trace(_solve_second_kind(ops, -0.5, bg.flux))
    weighted = outer.weights[:, None] * traces
    e, t = loads.T @ weighted, traces.T @ weighted
    theta = scipy.linalg.eigh(0.5 * (t + t.T), 0.5 * (e + e.T),
                              eigvals_only=True)
    return math.sqrt(float(theta[-1]))


def energy_quotient(ops, g: np.ndarray) -> float:
    """Rayleigh quotient of the interior-minus-exterior gradient energy,
    ``-2 (g | K S g)``, against the energy ``(g | S g)``."""
    denom = ops.energy_norm2(g)
    if denom <= 0:
        raise ValueError("density has nonpositive energy; cannot form quotient")
    return float(-2.0 * ops.energy(ops.flux_average(g), g)) / denom


def derivative_norm_ratios(ops, phis: list, k: float) -> list:
    """Scaled energy norms ``|u^(j)|_V / (j! phi(k)^(j+1))`` of the
    conductivity derivatives ``phis`` with ``phi(k) = 1/min(k, k0)``;
    bounded uniformly in ``j`` and ``k`` when the solution map is
    analytic with the expected radius."""
    scale = 1.0 / min(k, ops.scene.k0)
    return [math.sqrt(max(ops.energy_norm2(phi), 0.0))
            / (math.factorial(j) * scale ** (j + 1))
            for j, phi in enumerate(phis, start=1)]


def family(spectrum, name: str) -> list:
    """The modes of one family (``+`` or ``-``) of a spectrum."""
    return [m for m in spectrum if m.family == name]


def rotated(curve: BoundaryCurve, angle: float, pivot=None) -> BoundaryCurve:
    """Rigidly rotated copy of a curve (same node count).

    Circles and stars rotate exactly within their parametric family; an
    ellipse may only be rotated by multiples of pi.
    """
    pivot = np.asarray(curve.center if pivot is None else pivot, dtype=float)
    ca, sa = math.cos(angle), math.sin(angle)
    rot = np.array([[ca, -sa], [sa, ca]])
    new_center = pivot + rot @ (curve.center - pivot)
    if curve.kind == "circle":
        return make_circle(new_center, *curve.params, curve.n)
    if curve.kind == "star":
        r0, terms = curve.params
        new_terms = []
        for m, a, b in terms:
            cm, sm = math.cos(m * angle), math.sin(m * angle)
            new_terms.append((m, a * cm - b * sm, a * sm + b * cm))
        return make_star(new_center, r0, new_terms, curve.n)
    if curve.kind == "ellipse":
        if abs(math.remainder(angle, math.pi)) > 1e-14:
            raise CurveError("ellipse rotation only supported by multiples of pi")
        return make_ellipse(new_center, *curve.params, curve.n)
    raise CurveError(f"unknown curve kind {curve.kind!r}")


def golden_distance(curve: BoundaryCurve, pts, lo=None, hi=None):
    """Distances from the rows of ``pts`` to a curve by a golden-section
    search of ``|q(t) - x|^2`` over the nearest node's bracket
    ``[t0 - h, t0 + h]`` (or ``[lo, hi]``), each row stopped once its
    bracket is narrower than 1e-14.  This was the package's own search
    before its Newton refinement; it stays as the oracle."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if curve.kind == "circle":
        (r,) = curve.params
        return np.abs(np.hypot(*(pts - curve.center).T) - r)

    def f(tt, xs):
        return np.sum((curve.point(tt) - xs) ** 2, axis=1)

    if lo is None:
        d2 = np.sum((curve.nodes - pts[:, None]) ** 2, axis=2)
        t0 = curve.t[np.argmin(d2, axis=1)]
        lo, hi = t0 - 2.0 * np.pi / curve.n, t0 + 2.0 * np.pi / curve.n
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c1, c2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = f(c1, pts), f(c2, pts)
    out = np.empty(len(pts))
    live = np.arange(len(pts))
    for _ in range(80):
        left = f1 <= f2
        a, b = np.where(left, a, c1), np.where(left, c2, b)
        step = phi * (b - a)
        c = np.where(left, b - step, a + step)
        fc = f(c, pts)
        c1, c2 = np.where(left, c, c2), np.where(left, c1, c)
        f1, f2 = np.where(left, fc, f2), np.where(left, f1, fc)
        done = b - a < 1e-14
        if done.any():
            out[live[done]] = np.sqrt(np.minimum(f1, f2)[done])
            keep = ~done
            live, pts, a, b, c1, c2, f1, f2 = (
                v[keep] for v in (live, pts, a, b, c1, c2, f1, f2))
    out[live] = np.sqrt(np.minimum(f1, f2))
    return out


def lowest_minimum(curve: BoundaryCurve, x, samples: int = 8001) -> float:
    """The least distance over the three lowest local minima of
    ``|q(t) - x|`` in a dense sample of the whole curve, each refined by
    :func:`golden_distance` over its two neighbouring sample intervals."""
    x = np.asarray(x, dtype=float)
    h = 2.0 * np.pi / samples
    tt = h * np.arange(samples)
    f = np.sum((curve.point(tt) - x) ** 2, axis=1)
    dips = np.flatnonzero((f <= np.roll(f, 1)) & (f <= np.roll(f, -1)))
    dips = dips[np.argsort(f[dips])[:3]]
    return float(np.min(golden_distance(curve, np.tile(x, (len(dips), 1)),
                                        tt[dips] - h, tt[dips] + h)))


def bracket_minima(curve: BoundaryCurve, x, samples: int = 4001) -> list:
    """Distances at every local minimum of ``|q(t) - x|`` inside the nearest
    node's bracket: the interior minima of a dense sample, each refined by
    :func:`golden_distance` over its two neighbouring sample intervals."""
    x = np.asarray(x, dtype=float)
    t0 = curve.t[np.argmin(np.sum((curve.nodes - x) ** 2, axis=1))]
    h = 2.0 * np.pi / curve.n
    tt = np.linspace(t0 - h, t0 + h, samples)
    f = np.sum((curve.point(tt) - x) ** 2, axis=1)
    dips = np.flatnonzero((f[1:-1] <= f[:-2]) & (f[1:-1] <= f[2:])) + 1
    return golden_distance(curve, np.tile(x, (len(dips), 1)), tt[dips - 1],
                           tt[dips + 1]).tolist()
