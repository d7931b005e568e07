"""References on an operator set that only the tests use."""

import numpy as np


def mean_free_basis(ops) -> np.ndarray:
    """Orthonormal ``(n, n-1)`` basis of the mean-free hat subspace of an
    operator set: the trailing columns of the Householder reflection
    exchanging ``sqrt_w`` (normalized) with the first axis.  No solve
    uses a basis of the mean-free densities."""
    v = ops.sqrt_w / np.linalg.norm(ops.sqrt_w)
    v[0] += 1.0
    return (np.eye(len(v)) - 2.0 * np.outer(v, v) / (v @ v))[:, 1:]
