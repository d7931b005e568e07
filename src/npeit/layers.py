"""Layer-potential operators of an inclusion scene.

All operators live on the inclusion boundary and are built against the
outer-domain kernel, so the fields they represent automatically carry
zero-mean, constant-flux data on the outer boundary.  Three coupled
objects matter downstream:

* the flux-average operator ``K*`` (adjoint double layer): the average of
  the two one-sided normal derivatives of a single layer, with the jump
  relation ``flux(+/-) = (+/- 1/2 + K*) g``;
* the energy form ``S``: with the sign flipped relative to the raw trace
  of the single layer, ``(g | S g)`` equals the squared gradient norm of
  the potential over the whole domain, so ``S`` is a positive-definite
  Gram matrix on densities (positivity holds on all of L^2 here, not just
  mean-free densities, thanks to the outer normalization);
* the energy difference ``-2 (g | K S h)``: interior-minus-exterior
  gradient energy of the potentials, the bilinear form whose quotient
  against ``S`` is extremized by the spectral densities.

Operators act on nodal values, quadrature weights ``w`` folded into
their columns.  An operator set holds two matrices: ``K*`` and the energy
matrix ``E = sym(W S)``, ``W = diag(w)``, so that ``(g | S h) = g^T E h``
and the potential trace is ``-(E g) / w`` by rows; ``K*`` is
``E``-self-adjoint.  The mean-free constraint needs no basis: the one
eigenvalue of ``K*`` outside ``(-1/2, 1/2)`` is ``1/2``, at the equilibrium
density (constant potential on the inclusion), and every other
eigendensity is ``E``-orthogonal to it, so weighted-mean-free.  The
build reads one displacement table of the inclusion and one call to the
outer kernel; the outer-side maps come from that call's outer x inclusion
table on the numeric kernel, else from one on first use, like the pencil.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .exceptions import EvaluationDomainError
from .geometry import BoundaryCurve, InclusionScene, distance_to_boundary
from .green import _EVAL_MARGIN_SPACINGS, make_green
from .quadrature import free_layer_field, free_self_matrices

__all__ = [
    "SceneOperators",
    "build_scene_operators",
]

log = logging.getLogger(__name__)

# the pencil's roundoff level per sqrt(n) (it drops pairs under half of
# it), its first block of probes, and the fresh probes and spare pairs.
# The first block holds 104 pairs with the spares, as do 99% of the ranks
# certified on the benchmark's n = 256 scenes (the rest take the full
# pencil); a smaller first block that doubles costs more on average
# (CHANGES.md)
_ROUNDOFF_LEVEL, _FIRST_BLOCK, _PROBES = 1e-15, 112, 8


def _pencil_pairs(a, b):
    # ascending pairs of sym(a) v = mu b v, b symmetric positive definite
    a = 0.5 * (a + a.T)  # exactly symmetric: its F-ordered view is overwritten
    return scipy.linalg.eigh(a.T, b, overwrite_a=True)


@dataclass
class SceneOperators:
    """Assembled boundary operators for one scene.

    Attributes
    ----------
    scene : InclusionScene
    green : DiskGreen or NumericGreen
        Outer-domain kernel the operators were built against.
    energy_matrix : ndarray
        ``E = sym(W S)``, exactly symmetric and positive definite: the
        energy form is ``(g | S h) = g^T E h``, and the potential trace on
        the inclusion is ``-(E g) / w`` by rows.
    kstar_plain : ndarray
        Flux-average operator on nodal values.
    correction_defect : float
        Asymmetry of the kernel correction block before symmetrization
        (zero for the closed-form disk kernel).
    outer_blocks : tuple or None
        The kernel's ``outer_maps`` of the inclusion if the build made them.
    """

    scene: InclusionScene
    green: object
    energy_matrix: np.ndarray = field(repr=False)
    kstar_plain: np.ndarray = field(repr=False)
    correction_defect: float = 0.0
    outer_blocks: tuple | None = field(default=None, repr=False)

    @property
    def curve(self) -> BoundaryCurve:
        return self.scene.inclusion

    # -- operator actions -----------------------------------------------------

    def potential_trace(self, g: np.ndarray) -> np.ndarray:
        """Trace of the single-layer potential of ``g`` (a vector or
        columns) on the inclusion."""
        return -((self.energy_matrix @ g).T / self.curve.weights).T

    def side_flux(self, g: np.ndarray, side: int) -> np.ndarray:
        """One-sided normal derivative of the potential on the inclusion:
        ``side = +1`` from outside, ``-1`` from inside."""
        if side not in (+1, -1):
            raise ValueError(f"side must be +1 or -1, got {side}")
        return 0.5 * side * g + self.kstar_plain @ g

    def flux_average(self, g: np.ndarray) -> np.ndarray:
        return self.kstar_plain @ g

    # -- energy forms ---------------------------------------------------------

    def energy(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``(g | S h)`` of nodal values (vectors or columns of each)."""
        return np.asarray(g).T @ (self.energy_matrix @ h)

    def energy_norm2(self, g: np.ndarray) -> float:
        """``(g | S g)`` = full-domain gradient energy of the potential."""
        return float(self.energy(g, g))

    # -- fields ---------------------------------------------------------------

    def field(self, points, phi, psi=0.0, constant=0.0) -> tuple:
        """Values and gradients, shaped ``(P, ...)`` and ``(P, 2, ...)``, of
        ``constant`` plus the free single layer of ``psi`` on the outer
        curve plus the layer ``x -> int N(x, y) phi(y) dsigma(y)`` on the
        inclusion (nodal values, vectors or columns; a scalar drops its
        layer).  One guard per curve: the points stay three node spacings
        from the outer curve, and from the inclusion if ``phi`` is a
        layer, since the trapezoidal rule degrades closer in."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        curve = self.curve
        if np.ndim(phi):
            margin = _EVAL_MARGIN_SPACINGS * curve.max_spacing()
            near = distance_to_boundary(curve, pts) < margin
            if near.any():
                raise EvaluationDomainError(
                    f"evaluation point {tuple(pts[near][0].tolist())} is "
                    f"within {margin:.3g} of the source curve; move away or "
                    "refine the grid")
        self.green._require_far_inside(pts, "evaluation points")
        terms = [free_layer_field(self.scene.outer, pts, psi)] if np.ndim(psi) else []
        if np.ndim(phi):
            terms.append(free_layer_field(curve, pts, phi))
            terms.append(self.green.correction_field(
                pts, curve.nodes, (np.asarray(phi).T * curve.weights).T))
        return tuple(sum(parts) for parts in zip((constant, 0.0), *terms))

    def outer_trace(self, g: np.ndarray) -> np.ndarray:
        """Trace of the potential of ``g`` (a vector or columns) on the
        outer-boundary nodes."""
        return self.outer_trace_matrix @ g

    # -- per-operator-set members, built on first use -------------------------

    @cached_property
    def _outer(self) -> tuple:  # the build's outer maps, else formed here
        return self.outer_blocks or self.green.outer_maps(self.curve)[0]

    @property
    def outer_trace_matrix(self) -> np.ndarray:
        """Outer-node trace per nodal density value (weights folded in)."""
        return self._outer[2]

    @cached_property
    def _eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        # pairs of sym(E K*) g = mu E g with |mu| above roundoff, ascending
        # (mu = 1/2 last): K* on a block of seeded probes and a QR give a
        # basis Q, and the Rayleigh-Ritz pencil (Q^T E K* Q, Q^T E Q) its
        # pairs.  A block is certified once it holds spare pairs at roundoff
        # and K* is at roundoff on fresh probes E-orthogonal to its Ritz
        # vectors, else it doubles; past n/2 a block costs about as much as
        # the full pencil, and Q = I takes over.
        kstar, e = self.kstar_plain, self.energy_matrix
        n, size = len(e), _FIRST_BLOCK
        level = _ROUNDOFF_LEVEL * np.sqrt(n)
        while 2 * size <= n:
            rng = np.random.default_rng(size)  # probes seeded by the size
            q = scipy.linalg.qr(kstar @ rng.standard_normal((n, size)),
                                mode="economic")[0]
            eq = e @ q
            mu, v = _pencil_pairs(eq.T @ (kstar @ q), q.T @ eq)
            g, keep = q @ v, np.abs(mu) > 0.5 * level
            fresh = rng.standard_normal((n, _PROBES))
            fresh -= g @ ((eq @ v).T @ fresh)
            k_fresh = kstar @ fresh
            if np.count_nonzero(keep) <= size - _PROBES and np.all(
                    np.sum(k_fresh * (e @ k_fresh), axis=0)
                    <= level**2 * np.sum(fresh * (e @ fresh), axis=0)):
                return mu[keep], g[:, keep]
            size *= 2
        mu, g = _pencil_pairs(e @ kstar, e)
        keep = np.abs(mu) > 0.5 * level
        return mu[keep], g[:, keep]

    @cached_property
    def pencil(self) -> tuple[np.ndarray, np.ndarray]:
        """``(mu, G)``: the resolved eigenvalues of ``K*`` on mean-free
        densities (``|mu|`` above roundoff) and their ``E``-orthonormal,
        weighted-mean-free nodal eigendensities, less the equilibrium
        ``mu = 1/2``; on the ``E``-complement of both, ``K*`` is zero to
        roundoff."""
        return self._eigenpairs[0][:-1], self._eigenpairs[1][:, :-1]

    @property
    def equilibrium(self) -> np.ndarray:
        """The top eigendensity, ``mu = 1/2``: constant potential on the
        inclusion, ``E``-orthogonal to ``G``."""
        return self._eigenpairs[1][:, -1]

    @property
    def background_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """Inclusion-node values and normal derivatives of a free single
        layer on the outer curve, per outer density value."""
        return self._outer[:2]


def build_scene_operators(scene: InclusionScene, green=None) -> SceneOperators:
    """Assemble the boundary operators of a scene against the prebuilt
    outer kernel ``green`` (by default :func:`npeit.green.make_green`)."""
    green = green or make_green(scene.outer)
    curve = scene.inclusion
    w = curve.weights

    energy, kstar_plain = free_self_matrices(curve)
    corr, dnu_corr, outer_blocks = green.inclusion_blocks(
        curve, scene.located if green.outer is scene.outer else None)
    defect = float(np.max(np.abs(corr - corr.T)))
    if defect > 1e-9:
        log.warning("kernel correction asymmetry %.3e; symmetrizing", defect)
    energy += 0.5 * (corr + corr.T) * w
    energy *= -w[:, None]  # the energy sign, and W
    kstar_plain += dnu_corr * w
    del corr, dnu_corr

    return SceneOperators(
        scene=scene, green=green,
        energy_matrix=0.5 * (energy + energy.T),  # symmetric up to roundoff
        kstar_plain=kstar_plain, correction_defect=defect,
        outer_blocks=outer_blocks,
    )
