"""References on operator sets, spectra and curves that only the tests
use."""

import math

import numpy as np

from npeit.exceptions import CurveError
from npeit.geometry import BoundaryCurve, make_circle, make_ellipse, make_star
from npeit.quadrature import free_self_matrices


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


def mean_free_basis(ops) -> np.ndarray:
    """Orthonormal ``(n, n-1)`` basis of the mean-free hat subspace of an
    operator set: the trailing columns of the Householder reflection
    exchanging ``sqrt_w`` (normalized) with the first axis.  No solve
    uses a basis of the mean-free densities."""
    v = np.sqrt(ops.curve.weights)
    v /= np.linalg.norm(v)
    v[0] += 1.0
    return (np.eye(len(v)) - 2.0 * np.outer(v, v) / (v @ v))[:, 1:]


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
    """The modes of one family (``+``, ``-`` or ``0``) of a spectrum."""
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
