"""The operator set holds one nodal representation: ``K*`` and the energy
matrix ``E = sym(W S)``.

Against the hat forms of ``tests/references.py`` (``S`` and ``K*``
conjugated by the square root of the weights, built apart from ``E``), on
a star in a disk, a star in an ellipse, the off-centre disk of
``configs/adjudication.cfg`` and a rough star, at n = 128 and 256:

* the resolved eigenvalues of the nodal pencil ``sym(E K*) g = mu E g``
  match the hat pencil's to 1e-15, and every hat eigenvalue above
  roundoff is resolved;
* the dropped top eigenvalue is 1/2 to 1e-14;
* ``energy`` matches ``hat(g)^T s_hat hat(h)`` to 1e-14 relative, and the
  potential trace ``-(E g) / w`` matches ``-s_plain g`` to 1e-14 relative.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from npeit.geometry import InclusionScene, make_circle, make_ellipse, make_star
from npeit.layers import SceneOperators, build_scene_operators

from references import HatForms

#: eigenvalues of larger magnitude are resolved, not roundoff
RESOLVED = 1e-14

SCENES = {
    "star-in-disk": lambda n: (make_circle((0, 0), 1.0, n), make_star(
        (0.25, -0.1), 0.35, [(3, 0.05), (5, 0.02)], n)),
    "star-in-ellipse": lambda n: (make_ellipse((0, 0), 1.2, 0.9, n), make_star(
        (0.1, 0.05), 0.35, [(3, 0.04), (4, 0.02)], n)),
    "adjudication": lambda n: (make_circle((0, 0), 1.0, n),
                               make_circle((0.3, 0), 0.35, n)),
    "rough-star": lambda n: (make_circle((0, 0), 1.0, n),
                             make_star((0.05, 0), 0.4, [(4, 0.1)], n)),
}


@pytest.fixture(scope="module", params=[128, 256], ids=lambda n: f"n{n}")
def n(request):
    return request.param


@pytest.fixture(scope="module", params=list(SCENES))
def ops_and_hat(request, n):
    ops = build_scene_operators(InclusionScene(*SCENES[request.param](n), 1.0))
    return ops, HatForms(ops)


def hat_pencil(hf):
    a = hf.s_hat @ hf.kstar_hat
    return scipy.linalg.eigh(0.5 * (a + a.T), hf.s_hat, eigvals_only=True)


def test_resolved_eigenvalues_match_the_hat_pencil(ops_and_hat):
    # each resolved eigenvalue of the nodal pencil against the nearest of
    # the hat pencil's, and each of the hat pencil's above roundoff against
    # the nearest resolved one
    ops, hf = ops_and_hat
    mu, _ = ops.pencil
    reference = hat_pencil(hf)[:-1]
    resolved = np.abs(reference) > RESOLVED
    assert resolved.sum() >= 30
    gaps = np.abs(mu[:, None] - reference[None, :])
    assert np.max(np.min(gaps, axis=1)) <= 1e-15
    assert np.max(np.min(gaps, axis=0)[resolved]) <= 1e-15


def test_dropped_top_eigenvalue_is_one_half(ops_and_hat):
    ops, hf = ops_and_hat
    a = ops.energy_matrix @ ops.kstar_plain
    mu = scipy.linalg.eigh(0.5 * (a + a.T), ops.energy_matrix,
                           eigvals_only=True)
    assert abs(mu[-1] - 0.5) <= 1e-14
    assert abs(hat_pencil(hf)[-1] - 0.5) <= 1e-14


def test_energy_and_trace_match_the_hat_forms(ops_and_hat):
    ops, hf = ops_and_hat
    g = np.random.default_rng(3).standard_normal((ops.curve.n, 8))
    reference = hf.hat(g).T @ (hf.s_hat @ hf.hat(g))
    assert np.max(np.abs(ops.energy(g, g) - reference)) \
        <= 1e-14 * np.max(np.abs(reference))
    trace = -(hf.s_plain @ g)
    assert np.max(np.abs(ops.potential_trace(g) - trace)) \
        <= 1e-14 * np.max(np.abs(trace))


def test_operator_set_holds_no_hat_forms():
    names = {f.name for f in dataclasses.fields(SceneOperators)}
    assert {"energy_matrix", "kstar_plain"} <= names
    assert not names & {"s_plain", "s_hat", "kstar_hat", "sqrt_w"}
    assert not hasattr(SceneOperators, "hat")
    assert not hasattr(SceneOperators, "unhat")
