"""Spectral decomposition of the flux-average operator in the energy
geometry.

The flux-average operator ``K*`` is self-adjoint with respect to the
positive-definite energy form ``S``, so ``K* g = mu g`` is a
symmetric-definite pencil.  ``SceneOperators.pencil`` solves it on all
densities and drops the equilibrium pair ``mu = 1/2``; the other,
mean-free eigendensities are ``S``-orthonormal (their potentials have
unit gradient energy), and each carries the spectral value in two forms:
the operator eigenvalue ``mu`` and the energy ratio ``lambda = -2 mu``,
which equals the Rayleigh quotient of the interior-minus-exterior energy
difference and is the quantity whose sign splits the spectrum into
families.
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

# energy ratios below this magnitude are treated as numerically zero and
# assigned to the null family
_FAMILY_TOL = 1e-10


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

    Modes are grouped by family (``+`` then ``-`` then ``0``) and sorted
    by decreasing ``|lambda|`` within each family; ``index`` counts within
    the family starting from 1.  The modes' energy Gram matrix is formed
    once on ``ops`` and kept read-only; ``ops`` itself is not kept.
    """

    def __init__(self, modes: list[SpectralMode], ops: SceneOperators):
        self.modes = modes
        densities = np.column_stack([m.density for m in modes])
        self._gram = ops.energy(densities, densities)
        self._gram.flags.writeable = False

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def family(self, name: str) -> list[SpectralMode]:
        return [m for m in self.modes if m.family == name]

    @property
    def mus(self) -> np.ndarray:
        return np.array([m.mu for m in self.modes])

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([m.lam for m in self.modes])

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

    modes: list[SpectralMode] = []
    order = {"+": [], "-": [], "0": []}
    lam_vals = -2.0 * mu_vals
    for i, lam in enumerate(lam_vals):
        fam = "+" if lam > _FAMILY_TOL else ("-" if lam < -_FAMILY_TOL else "0")
        order[fam].append(i)
    for fam in ("+", "-", "0"):
        idx = sorted(order[fam], key=lambda i: -abs(lam_vals[i]))[:n_modes]
        for rank, i in enumerate(idx, start=1):
            g = _fix_sign(g_all[:, i].copy())
            resid = ops.energy_norm2(ops.flux_average(g) - mu_vals[i] * g)
            modes.append(SpectralMode(
                index=rank, family=fam, mu=float(mu_vals[i]),
                lam=float(lam_vals[i]), density=g,
                residual=float(np.sqrt(max(resid, 0.0)))))
    return NPSpectrum(modes, ops)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    first = v[np.argmax(np.abs(v) > 1e-8 * np.max(np.abs(v)))]
    return -v if first < 0 else v
