"""References on an operator set that only the tests use."""

import numpy as np

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

