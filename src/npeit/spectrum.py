"""Spectral decomposition of the flux-average operator in the energy
geometry.

The flux-average operator ``K*`` is self-adjoint in the energy form, the
operator set's matrix ``E``, so ``K* g = mu g`` is the symmetric-definite
pencil ``sym(E K*) g = mu E g``.  ``SceneOperators.pencil`` resolves its
pairs above roundoff and drops the equilibrium pair ``mu = 1/2``; the
other, mean-free eigendensities are ``E``-orthonormal (their potentials
have unit gradient energy), and each carries the spectral value in two
forms: the operator eigenvalue ``mu`` and the energy ratio
``lambda = -2 mu``, which equals the Rayleigh quotient of the
interior-minus-exterior energy difference and is the quantity whose sign
splits the spectrum into families.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .layers import SceneOperators

__all__ = [
    "SpectralMode",
    "NPSpectrum",
    "solve_spectrum",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpectralMode:
    """One eigenpair of the flux-average operator.

    ``density`` holds nodal values, normalized to unit energy
    (``(g | S g) = 1``) with a deterministic sign: the first nodal value
    above 1e-8 of the largest in magnitude is positive.  ``residual`` is
    the energy-norm defect ``|K* g - mu g|_S``.
    """

    index: int
    family: str
    mu: float
    lam: float
    density: np.ndarray
    residual: float


class NPSpectrum:
    """Ordered collection of spectral modes for one scene.

    Modes are grouped by family (``+`` then ``-``, the sign of ``lambda``:
    every resolved eigenvalue is above roundoff) and sorted by decreasing
    ``|lambda|`` within each family; ``index`` counts within the family
    starting from 1.  The modes' energy Gram matrix is formed once on
    ``ops`` (or given) and kept read-only; ``ops`` is not kept.
    """

    def __init__(self, modes: list[SpectralMode], ops: SceneOperators | None = None,
                 gram: np.ndarray | None = None):
        self.modes = modes
        densities = np.column_stack([m.density for m in modes])
        self._gram = ops.energy(densities, densities) if gram is None else gram
        self._gram.flags.writeable = False

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    @property
    def mus(self) -> np.ndarray:
        return np.array([m.mu for m in self.modes])

    def gram(self) -> np.ndarray:
        """Energy Gram matrix of the mode densities (identity if the
        solve is exact), read-only."""
        return self._gram

    def orthogonality_defect(self) -> float:
        return float(np.max(np.abs(self._gram - np.eye(len(self.modes)))))

    def max_residual(self) -> float:
        return max((m.residual for m in self.modes), default=0.0)


def solve_spectrum(ops: SceneOperators, n_modes: int | None = None) -> NPSpectrum:
    """Solve the flux-average eigenproblem on mean-free densities.

    Parameters
    ----------
    ops : SceneOperators
    n_modes : int, optional
        Maximum number of modes kept per family.  Capped at a quarter of
        the grid size: beyond that the discrete eigenvalues no longer
        track the continuous operator reliably.

    Returns
    -------
    NPSpectrum
    """
    n = ops.curve.n
    cap = n // 4
    if n_modes is None:
        n_modes = cap
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if n_modes > cap:
        log.warning("%d modes per family requested: that exceeds the "
                    "resolution cap %d at n=%d; clipping", n_modes, cap, n)
        n_modes = cap

    mu_vals, g_all = ops.pencil  # S-orthonormal eigendensities

    lam_vals = -2.0 * mu_vals
    family = np.where(lam_vals > 0.0, "+", "-")  # every resolved |mu| > 0
    ranked = np.argsort(-np.abs(lam_vals), kind="stable")
    kept = [(fam, rank, i) for fam in "+-" for rank, i in
            enumerate(ranked[family[ranked] == fam][:n_modes], start=1)]
    idx = [i for _, _, i in kept]
    g = _fix_sign(g_all[:, idx])
    # residuals K* G - G diag(mu) over every resolved pair as one block, so
    # that a mode's bits do not depend on how many are kept (a sign flip
    # is exact); energies in one more product
    resid = ops.flux_average(g_all) - g_all * mu_vals
    resid = np.sum(resid * (ops.energy_matrix @ resid), axis=0)[idx]
    modes = [SpectralMode(index=rank, family=fam, mu=float(mu_vals[i]),
                          lam=float(lam_vals[i]), density=g[:, c].copy(),
                          residual=float(np.sqrt(max(resid[c], 0.0))))
             for c, (fam, rank, i) in enumerate(kept)]
    return NPSpectrum(modes, ops)


def _fix_sign(g: np.ndarray) -> np.ndarray:
    # per column: the first entry above 1e-8 of the largest is positive
    big = np.abs(g) > 1e-8 * np.max(np.abs(g), axis=0)
    first = g[np.argmax(big, axis=0), np.arange(g.shape[1])]
    return g * np.where(first < 0, -1.0, 1.0)
