"""Stability runs share the work their pairs have in common.

``run_stability`` builds one outer kernel per run, one operator set and
one ladder solve per distinct inclusion, and one ``locate`` per pair
direction.  Pinned behavior:
  * every stability row equals, bit for bit, the per-pair path: fresh
    operator sets per pair, ``hausdorff_distance``, ``modified_distance``
    and the trace distance of two fresh ladder solves; on a star family
    sharing one reference, on tangent disks, and on an ellipse outer
    (the numeric kernel)
  * the work counts: one kernel, one outer Neumann factorization and one
    ladder solve per distinct inclusion, i.e. P + 1 for P pairs sharing a
    reference
  * the contact warning fires for a separated pair, not a touching one
"""

import math
from collections import Counter

import numpy as np
import pytest

from npeit import experiments
from npeit.config import parse_config
from npeit.experiments import (build_operators, run_stability,
                               triple_log_reference)
from npeit.geometry import (BoundaryCurve, hausdorff_distance,
                            modified_distance)
from npeit.green import DiskGreen, InteriorNeumannSolver, NumericGreen
from npeit.transmission import solve_transmission, trace_distance

SCENE = """
[scene]
outer = {outer}
inclusion = circle 0 0 0.3
n = 64

[physics]
k0 = 1.3
f = cos:1:1 sin:2:0.4

[sweep]
base = 0.05
ratio = 9
count = 4
"""

TANGENT_DISKS = SCENE.format(outer="circle 0 0 1") + """
[stability]
center = 0 0
radius = 0.4
offsets = 0.02 0.05 0.1
"""


def star_family(offsets=(0.02, 0.05, 0.1), cx=0.03, cy=-0.02, r0=0.4,
                angle=0.7) -> list[str]:
    """Pairs of one reference star with copies shrunk by ``t`` and shifted
    by ``t`` towards ``angle``: each copy touches the reference there."""
    terms = "3:0.012 5:-0.008"
    reference = f"star {cx!r} {cy!r} {r0!r} {terms}"
    return [f"{reference} ; star {cx + t * math.cos(angle)!r} "
            f"{cy + t * math.sin(angle)!r} {r0 - t!r} {terms}"
            for t in offsets]


def stability_config(outer: str, pairs: list[str]):
    return parse_config(SCENE.format(outer=outer) + "\n[stability]\npairs =\n"
                        + "".join(f"    {p}\n" for p in pairs))


STAR_DISK = stability_config("circle 0 0 1", star_family())
STAR_ELLIPSE = stability_config("ellipse 0 0 1.3 0.9", star_family())
CASES = {"star family": STAR_DISK,
         "tangent disks": parse_config(TANGENT_DISKS),
         "ellipse outer": STAR_ELLIPSE}


def per_pair_rows(config) -> list[tuple]:
    """The stability rows computed pair by pair, sharing nothing."""
    ks, rows = config.k_ladder(), []
    for pair_id, (spec_a, spec_b) in enumerate(config.stability_pairs, 1):
        ops_a, ops_b = build_operators(config, spec_a), \
            build_operators(config, spec_b)
        f = config.data_vector(ops_a.scene.outer.t)
        lam = float(np.max(trace_distance(
            ops_a.scene.outer, solve_transmission(ops_a, f, ks).outer_trace(),
            solve_transmission(ops_b, f, ks).outer_trace())))
        a, b = ops_a.curve, ops_b.curve
        rows.append((pair_id, hausdorff_distance(a, b),
                     modified_distance(a, b), lam))
    return rows


@pytest.mark.parametrize("name", CASES)
def test_rows_match_the_per_pair_path_bit_for_bit(name, tmp_path):
    config = CASES[name]
    rows = run_stability(config, tmp_path)
    assert [(r.pair_id, r.d_h, r.d_m, r.lam) for r in rows] \
        == per_pair_rows(config)
    for r in rows:
        ref = triple_log_reference(r.lam)
        assert r.reference == ref or (math.isnan(r.reference)
                                      and math.isnan(ref))
        assert r.d_h > 0.0 and r.lam > 0.0


def count_work(monkeypatch) -> Counter:
    """Count kernel builds, outer Neumann factorizations, operator sets,
    ladder solves and ``locate`` calls on inclusion (star) curves."""
    counts = Counter()

    def counting(name, fn, only=None):
        def wrapper(*args, **kwargs):
            if only is None or only(*args):
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for kernel in (DiskGreen, NumericGreen):
        monkeypatch.setattr(kernel, "__init__",
                            counting("green", kernel.__init__))
    monkeypatch.setattr(InteriorNeumannSolver, "__init__",
                        counting("neumann", InteriorNeumannSolver.__init__))
    monkeypatch.setattr(
        experiments, "build_scene_operators",
        counting("operator sets", experiments.build_scene_operators))
    monkeypatch.setattr(experiments, "solve_transmission",
                        counting("ladders", experiments.solve_transmission))
    monkeypatch.setattr(
        BoundaryCurve, "locate",
        counting("star locate", BoundaryCurve.locate,
                 only=lambda curve, *_: curve.kind == "star"))
    return counts


@pytest.mark.parametrize("name", CASES)
def test_one_kernel_and_one_ladder_per_distinct_inclusion(
        name, tmp_path, monkeypatch):
    config = CASES[name]
    counts = count_work(monkeypatch)
    run_stability(config, tmp_path)
    pairs = len(config.stability_pairs)
    distinct = len({spec for pair in config.stability_pairs for spec in pair})
    assert distinct == pairs + 1  # every pair shares one reference
    assert counts["green"] == 1
    assert counts["neumann"] == 1
    assert counts["operator sets"] == counts["ladders"] == pairs + 1
    # one node-to-curve pass per pair direction, none for disk pairs
    star_pairs = name != "tangent disks"
    assert counts["star locate"] == (2 * pairs if star_pairs else 0)


def contact_warnings(config, tmp_path, caplog) -> list[str]:
    with caplog.at_level("WARNING", logger="npeit.experiments"):
        run_stability(config, tmp_path)
    return [rec.getMessage() for rec in caplog.records
            if "do not touch" in rec.getMessage()]


@pytest.mark.parametrize("name", CASES)
def test_touching_pairs_do_not_warn(name, tmp_path, caplog):
    assert contact_warnings(CASES[name], tmp_path, caplog) == []


def test_only_the_separated_pair_warns(tmp_path, caplog):
    config = stability_config("circle 0 0 1", star_family(offsets=(0.02,))
                              + ["circle -0.3 0 0.2 ; circle 0.3 0 0.2"])
    warnings = contact_warnings(config, tmp_path, caplog)
    assert len(warnings) == 1 and warnings[0].startswith("stability pair 2:")
