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
from .quadrature import free_self_matrices, free_single_layer_gradient

__all__ = [
    "SceneOperators",
    "build_scene_operators",
    "PotentialField",
]

log = logging.getLogger(__name__)


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

    def potential(self, g: np.ndarray) -> "PotentialField":
        """Single-layer potential of nodal density ``g`` on the inclusion."""
        return PotentialField(self.green, self.curve, np.asarray(g, float))

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
        # all pairs of sym(E K*) g = mu E g on nodal values, ascending
        a = self.energy_matrix @ self.kstar_plain
        a = 0.5 * (a + a.T)  # exactly symmetric: its F-ordered view is overwritten
        return scipy.linalg.eigh(a.T, self.energy_matrix, overwrite_a=True)

    @cached_property
    def pencil(self) -> tuple[np.ndarray, np.ndarray]:
        """``(mu, G)``: eigenvalues and nodal eigendensities of ``K*`` on
        mean-free densities, the pencil's pairs less its top one, the
        equilibrium ``mu = 1/2``; ``G`` is ``E``-orthonormal and
        weighted-mean-free: ``r = G energy(G, r)`` for mean-free ``r``."""
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


@dataclass
class PotentialField:
    """Single-layer potential ``x -> int N(x, y) g(y) dsigma(y)``.

    Evaluation is restricted to points at least three node spacings away
    from the source curve (the trapezoidal rule degrades closer in) and
    within the outer domain; traces on the two boundaries go through the
    dedicated quadrature paths instead of this generic evaluator.
    """

    green: object
    source: BoundaryCurve
    density: np.ndarray

    def _guard(self, pts):
        margin = _EVAL_MARGIN_SPACINGS * self.source.max_spacing()
        near = distance_to_boundary(self.source, pts) < margin
        if near.any():
            p = pts[int(np.argmax(near))]
            raise EvaluationDomainError(
                f"evaluation point {tuple(p)} is within {margin:.3g} of "
                "the source curve; move away or refine the grid"
            )

    def evaluate(self, points) -> np.ndarray:
        """Field values at interior points away from the source curve."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self._guard(pts)
        gw = self.density * self.source.weights
        return self.green.kernel(pts, self.source.nodes) @ gw

    def gradient(self, points) -> np.ndarray:
        """Field gradient at interior points away from the source curve."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self._guard(pts)
        free = np.einsum("pjd,j->pd",
                         free_single_layer_gradient(self.source, pts),
                         self.density)
        corr = np.einsum("pjd,j->pd",
                         self.green.correction_gradient_x(pts, self.source.nodes),
                         self.density * self.source.weights)
        return free + corr
