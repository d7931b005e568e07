"""Curve grammar and validator: numpy-free, and deciding as numpy did.

The reference for the star check is the rule the array build applied
before validation moved out of numpy: the radius on the ``n`` nodes, then
on the 4096-point grid, both evaluated with numpy.
"""

import warnings

import numpy as np
import pytest

from npeit import curvespec
from npeit.exceptions import CurveError
from npeit.geometry import (_radius, make_circle, make_ellipse, make_star,
                            parse_curve_spec)


def numpy_rule(r0, terms, n):
    """Message of the star check in numpy, or None for a valid star."""
    rho = _radius(2.0 * np.pi * np.arange(n) / n, r0, terms)
    if np.min(rho) <= 0.0:
        return ("star radius becomes non-positive; curve is not simple "
                f"(min radius {np.min(rho):.3e})")
    dense = 2.0 * np.pi * np.arange(4096) / 4096
    if np.min(_radius(dense, r0, terms)) <= 0:
        return "star radius becomes non-positive between nodes"
    return None


def seeded_stars(count=200, seed=20261018):
    """(kind, r0, terms, n): generic radii, minima within 1e-3 r0 of zero
    (kind 1), and radii negative only between the nodes."""
    rng = np.random.default_rng(seed)
    fine = 2.0 * np.pi * np.arange(1 << 16) / (1 << 16)
    stars = []
    for i in range(count):
        n = int(rng.choice([8, 16, 32, 64, 128]))
        ms = rng.integers(1, 13, size=int(rng.integers(1, 4)))
        amps = rng.uniform(-1.0, 1.0, size=(len(ms), 2))
        if i % 2:
            amps[:, 1] = 0.0  # cosine terms only, as the grammar writes them
        kind = i % 6 // 2
        if kind == 0:  # generic; large amplitudes go negative at nodes
            amps *= rng.choice([0.05, 0.3, 1.0])
            r0 = 1.0
        elif kind == 1:  # the minimum sits within 1e-3 r0 of zero
            terms = [(int(m), a, b) for m, (a, b) in zip(ms, amps)]
            low = float(np.min(_radius(fine, 0.0, terms)))
            r0 = -low * (1.0 + rng.uniform(-1e-3, 1e-3))
        else:  # cos(n t) is 1 on the nodes: negative only between them
            amps *= 0.05
            r0 = 1.0
            ms, amps = np.append(ms, n), np.vstack(
                [amps, [1.0 + rng.uniform(0.2, 0.5), 0.0]])
        stars.append((kind, r0, tuple((int(m), float(a), float(b))
                                      for m, (a, b) in zip(ms, amps)), n))
    return stars


STARS = seeded_stars()


def outcome(build, *args):
    try:
        build(*args)
    except CurveError as exc:
        return str(exc)
    return None


class TestStarRule:
    def test_matches_the_numpy_reference(self):
        kinds = {"valid": 0, "at nodes": 0, "between nodes": 0}
        for _, r0, terms, n in STARS:
            expected = numpy_rule(r0, terms, n)
            assert outcome(curvespec.star, (0.1, -0.2), r0, terms, n) \
                == expected, (r0, terms, n)
            assert outcome(make_star, (0.1, -0.2), r0, terms, n) == expected
            if all(b == 0.0 for _, _, b in terms):
                text = " ".join([f"star 0.1 -0.2 {r0!r}"]
                                + [f"{m}:{a!r}" for m, a, _ in terms])
                assert outcome(curvespec.parse, text, n) == expected
            kinds["valid" if expected is None else "between nodes"
                  if "between" in expected else "at nodes"] += 1
        # the corpus reaches every branch of the rule
        assert min(kinds.values()) >= 20, kinds

    def test_minima_near_zero_are_decided_by_the_grids(self):
        # these stars sit inside the certificate's margin
        near = [(r0, terms) for kind, r0, terms, _ in STARS if kind == 1]
        assert len(near) > 60
        assert not any(curvespec._certified_positive(r0, terms)
                       for r0, terms in near)

    def test_typical_star_skips_the_explicit_grids(self, monkeypatch):
        calls = []
        real = curvespec._radius

        def counting(t, r0, terms):
            calls.append(t)
            return real(t, r0, terms)

        monkeypatch.setattr(curvespec, "_radius", counting)
        curvespec.parse("star 0.1 -0.2 0.35 3:0.015 5:-0.01", 256)
        # fewer evaluations than the 256 nodes: only the coarse grid ran
        assert 0 < len(calls) < 256


#: rejected specs and their messages, unchanged since the validator moved
#: out of numpy
INVALID = [
    ("circle 0 0 nan",
     "circle with center [0.0, 0.0] and parameters (nan,) has non-finite "
     "nodes"),
    ("circle 0 0 inf",
     "circle with center [0.0, 0.0] and parameters (inf,) has non-finite "
     "nodes"),
    ("circle nan 0 1",
     "circle with center [nan, 0.0] and parameters (1.0,) has non-finite "
     "nodes"),
    ("circle 0 -inf 1",
     "circle with center [0.0, -inf] and parameters (1.0,) has non-finite "
     "nodes"),
    ("circle 1e308 0 1e308",
     "circle with center [1e+308, 0.0] and parameters (1e+308,) has "
     "non-finite nodes"),
    ("ellipse 0 0 nan 1",
     "ellipse with center [0.0, 0.0] and parameters (nan, 1.0) has "
     "non-finite nodes"),
    ("ellipse 0 0 1 inf",
     "ellipse with center [0.0, 0.0] and parameters (1.0, inf) has "
     "non-finite nodes"),
    ("star 0 0 nan",
     "star with center [0.0, 0.0] and parameters (nan, ()) has non-finite "
     "nodes"),
    ("star 0 0 1 3:inf",
     "star with center [0.0, 0.0] and parameters (1.0, ((3, inf, 0.0),)) "
     "has non-finite nodes"),
    ("star nan 0 1 3:0.1",
     "star with center [nan, 0.0] and parameters (1.0, ((3, 0.1, 0.0),)) "
     "has non-finite nodes"),
    ("circle 0 0 -1", "circle radius must be positive, got -1.0"),
    ("circle 0 0 0", "circle radius must be positive, got 0.0"),
    ("circle 0 0 -inf", "circle radius must be positive, got -inf"),
    ("ellipse 0 0 0 1", "ellipse semi-axes must be positive, got 0.0, 1.0"),
    ("ellipse 0 0 1 -0.5",
     "ellipse semi-axes must be positive, got 1.0, -0.5"),
    ("star 0 0 1 0:0.2", "star harmonic index must be >= 1, got 0"),
    ("star 0 0 1 -2:0.1 3:0.1", "star harmonic index must be >= 1, got -2"),
    ("star 0 0 -1", "star radius becomes non-positive; curve is not simple "
                    "(min radius -1.000e+00)"),
    ("star 0 0 1 4:1.1", "star radius becomes non-positive; curve is not "
                         "simple (min radius -1.000e-01)"),
    ("", "empty curve spec"),
    ("square 0 0 1", "unknown curve kind in spec 'square 0 0 1'"),
    ("circle 0 0", "malformed curve spec 'circle 0 0': not enough values "
                   "to unpack (expected 3, got 2)"),
    ("circle 0 0 1 2", "malformed curve spec 'circle 0 0 1 2': too many "
                       "values to unpack (expected 3)"),
    ("star 0 0 1 3:0.2:1", "malformed curve spec 'star 0 0 1 3:0.2:1': too "
                           "many values to unpack (expected 2)"),
    ("star 0 0 1 3.0:0.2", "malformed curve spec 'star 0 0 1 3.0:0.2': "
                           "invalid literal for int() with base 10: '3.0'"),
    ("circle 0 0 one", "malformed curve spec 'circle 0 0 one': could not "
                       "convert string to float: 'one'"),
    ("star 0 0 1 " + "9" * 400 + ":0.1",
     "malformed curve spec 'star 0 0 1 " + "9" * 400 + ":0.1': int too "
     "large to convert to float"),
    # m converts to a float, but the curvature's m**2 does not
    ("star 0 0 1 1" + "0" * 200 + ":0.1",
     "malformed curve spec 'star 0 0 1 1" + "0" * 200 + ":0.1': int too "
     "large to convert to float"),
]


class TestInvalidSpecs:
    @pytest.mark.parametrize("spec, message", INVALID,
                             ids=[s[:24] or "empty" for s, _ in INVALID])
    def test_message_is_unchanged_and_numpy_stays_quiet(self, spec, message):
        for parse in (curvespec.parse, parse_curve_spec):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CurveError) as info:
                    parse(spec, 64)
            assert str(info.value) == message

    def test_star_between_nodes(self):
        with pytest.raises(CurveError, match="^star radius becomes "
                                             "non-positive between nodes$"):
            curvespec.parse("star 0 0 1 8:1.05", 8)

    def test_direct_construction_messages(self):
        with pytest.raises(CurveError, match=r"^node count must be even and "
                                             r">= 8, got 7$"):
            make_circle((0, 0), 1.0, 7)
        with pytest.raises(CurveError, match=r"got -1$"):
            make_circle((0, 0), -1, 32)
        with pytest.raises(CurveError, match=r"got 1, -2$"):
            make_ellipse((0, 0), 1, -2, 32)


class TestCanonicalString:
    @pytest.mark.parametrize("spec", [
        "circle 0 0 1", "circle -0 0.1 0.30000000000000004",
        "ellipse 0 0 1.3 0.7", "star 0.1 -0.2 0.9 2:0.05 5:0.01",
    ])
    def test_matches_the_built_curve(self, spec):
        text = curvespec.curve_spec_string(curvespec.parse(spec, 64))
        assert text == curvespec.curve_spec_string(parse_curve_spec(spec, 64))
        assert curvespec.parse(text, 64) == curvespec.parse(spec, 64)
