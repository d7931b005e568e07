"""Experiment configuration files.

Sectioned ``key = value`` text (INI flavor, no interpolation) with a
small grammar for curves and boundary data::

    [scene]
    outer = circle 0 0 1
    inclusion = circle 0 0 0.5
    n = 128

    [physics]
    k0 = 1
    f = cos:1:1

    [sweep]
    base = 4
    ratio = 4
    count = 6

    [spectrum]
    n_modes = 16
    j = 16

    [stability]
    pairs =
        circle 0 0 0.4 ; circle 0.02 0 0.38
        circle 0 0 0.4 ; circle 0.05 0 0.35

    [output]
    dir = out

Curve specs are validated and canonicalized by :mod:`npeit.curvespec`,
and parsing loads neither numpy nor :mod:`npeit.geometry`.  Boundary data
terms are ``const:v``, ``cos:m:v``, ``sin:m:v`` in the curve parameter of
the outer boundary, with ``m < n/2`` so that the ``n`` nodes resolve each
harmonic.  The stability section accepts either explicit ``pairs`` (one
per line, two curve specs joined by ``;``) or a tangent-disk ladder via
``center``, ``radius`` and ``offsets`` (each offset ``t`` pairs the base
disk with the internally tangent disk of radius ``radius - t`` shifted by
``t`` along x).  An empty ``[output] dir`` is rejected.  Unknown sections
or keys are rejected; parsing then rendering with :func:`config_text` is
lossless.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from . import curvespec
from .exceptions import ConfigError, CurveError

_ALLOWED_KEYS = {
    "scene": {"outer", "inclusion", "n"},
    "physics": {"k0", "f"},
    "sweep": {"base", "ratio", "count"},
    "spectrum": {"n_modes", "j"},
    "stability": {"pairs", "center", "radius", "offsets"},
    "output": {"dir"},
}


@dataclass(frozen=True)
class FourierTerm:
    """One boundary-data term: a constant or a single harmonic."""

    kind: str  # const | cos | sin
    m: int  # harmonic order; 0 for const
    amplitude: float

    def render(self) -> str:
        if self.kind == "const":
            return f"const:{self.amplitude!r}"
        return f"{self.kind}:{self.m}:{self.amplitude!r}"

    def evaluate(self, t):
        """The term at the parameter values ``t`` (a numpy array)."""
        import numpy as np

        if self.kind == "const":
            return np.full_like(t, self.amplitude)
        if self.kind == "cos":
            return self.amplitude * np.cos(self.m * t)
        return self.amplitude * np.sin(self.m * t)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (all fields have defaults)."""

    outer: str = "circle 0 0 1"
    inclusion: str = "circle 0 0 0.5"
    n: int = 128
    k0: float = 1.0
    f_terms: tuple[FourierTerm, ...] = (FourierTerm("cos", 1, 1.0),)
    ladder_base: float = 4.0
    ladder_ratio: float = 4.0
    ladder_count: int = 6
    n_modes: int = 16
    j_trunc: int = 16
    stability_pairs: tuple[tuple[str, str], ...] = ()
    out_dir: str | None = None

    def k_ladder(self) -> list[float]:
        return [self.ladder_base * self.ladder_ratio**i
                for i in range(self.ladder_count)]

    def data_vector(self, t):
        """Boundary data ``f`` at the parameter values ``t`` (a numpy
        array); ConfigError if its mean-free part, which drives every
        solve, is zero up to the roundoff of its harmonic terms."""
        import numpy as np

        out = np.zeros_like(t)
        for term in self.f_terms:
            out = out + term.evaluate(t)
        if np.ptp(out) <= 1e-13 * sum(abs(term.amplitude)
                                      for term in self.f_terms if term.m):
            text = " ".join(map(FourierTerm.render, self.f_terms))
            raise ConfigError(f"[physics] f = {text} has no mean-free part: "
                              "constant boundary data drives no field")
        return out


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def parse_f_terms(text: str) -> tuple[FourierTerm, ...]:
    terms = []
    for tok in text.split():
        parts = tok.split(":")
        try:
            if parts[0] == "const" and len(parts) == 2:
                terms.append(FourierTerm("const", 0, _finite(parts[1])))
                continue
            if parts[0] in ("cos", "sin") and len(parts) == 3:
                m = int(parts[1])
                if m < 1:
                    raise ConfigError(
                        f"harmonic order must be >= 1 in {tok!r} "
                        "(use const:v for the constant term)")
                terms.append(FourierTerm(parts[0], m, _finite(parts[2])))
                continue
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"malformed data term {tok!r}: {exc}") from exc
        raise ConfigError(f"unknown data term {tok!r} "
                          "(expected const:v, cos:m:v or sin:m:v)")
    if not terms:
        raise ConfigError("boundary data needs at least one term")
    return tuple(terms)


def _canonical_curve(text: str, n: int) -> str:
    try:
        return curvespec.curve_spec_string(curvespec.parse(text.strip(), n))
    except CurveError as exc:
        raise ConfigError(str(exc)) from exc


def _get(parser, section, key, default, conv, positive=False):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    try:
        value = conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if positive and value <= 0:
        raise ConfigError(f"[{section}] {key} must be positive, got {raw}")
    return value


def _stability_pairs(parser, n: int) -> tuple[tuple[str, str], ...]:
    if not parser.has_section("stability"):
        return ()
    has_pairs = parser.has_option("stability", "pairs")
    has_ladder = any(parser.has_option("stability", k)
                     for k in ("center", "radius", "offsets"))
    if has_pairs and has_ladder:
        raise ConfigError("[stability] give either pairs or an offset "
                          "ladder, not both")
    pairs = []
    if has_pairs:
        for line in parser.get("stability", "pairs").splitlines():
            line = line.strip()
            if not line:
                continue
            halves = [h.strip() for h in line.split(";")]
            if len(halves) != 2 or not all(halves):
                raise ConfigError(
                    f"stability pair {line!r} must be two curve specs "
                    "joined by ';'")
            pairs.append((_canonical_curve(halves[0], n),
                          _canonical_curve(halves[1], n)))
    elif has_ladder:
        if not parser.has_option("stability", "offsets"):
            raise ConfigError("[stability] offset ladder needs offsets")
        center = parser.get("stability", "center", fallback="0 0").split()
        if len(center) != 2:
            raise ConfigError("[stability] center must be two numbers")
        try:
            cx, cy = _finite(center[0]), _finite(center[1])
            radius = _finite(parser.get("stability", "radius", fallback="0.4"))
            offsets = [_finite(tok)
                       for tok in parser.get("stability", "offsets").split()]
        except ValueError as exc:
            raise ConfigError(f"[stability] {exc}") from exc
        if radius <= 0:
            raise ConfigError("[stability] radius must be positive")
        for t in offsets:
            if not 0 <= t < radius:
                raise ConfigError(
                    f"[stability] offset {t!r} outside [0, radius)")
            base = f"circle {cx!r} {cy!r} {radius!r}"
            other = f"circle {cx + t!r} {cy!r} {radius - t!r}"
            pairs.append((_canonical_curve(base, n),
                          _canonical_curve(other, n)))
    return tuple(pairs)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate configuration text."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unreadable config: {exc}") from exc

    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    defaults = ExperimentConfig()
    n = _get(parser, "scene", "n", defaults.n, int, positive=True)
    if n % 2 != 0 or n < 8:
        raise ConfigError(f"[scene] n must be an even integer >= 8, got {n}")

    f_terms = (parse_f_terms(parser.get("physics", "f"))
               if parser.has_option("physics", "f") else defaults.f_terms)
    for term in f_terms:
        if term.m >= n // 2:
            raise ConfigError(
                f"[physics] data term {term.render()!r} has harmonic order "
                f"{term.m} >= n/2; n = {n} nodes cannot resolve it")

    out_dir = _get(parser, "output", "dir", defaults.out_dir, str)
    if out_dir == "":
        raise ConfigError("[output] dir is empty: name a directory, or drop "
                          "the key and pass --out")
    config = ExperimentConfig(
        outer=_canonical_curve(
            _get(parser, "scene", "outer", defaults.outer, str), n),
        inclusion=_canonical_curve(
            _get(parser, "scene", "inclusion", defaults.inclusion, str), n),
        n=n,
        k0=_get(parser, "physics", "k0", defaults.k0, _finite, positive=True),
        f_terms=f_terms,
        ladder_base=_get(parser, "sweep", "base", defaults.ladder_base,
                         _finite, positive=True),
        ladder_ratio=_get(parser, "sweep", "ratio", defaults.ladder_ratio,
                          _finite, positive=True),
        ladder_count=_get(parser, "sweep", "count", defaults.ladder_count,
                          int, positive=True),
        n_modes=_get(parser, "spectrum", "n_modes", defaults.n_modes,
                     int, positive=True),
        j_trunc=_get(parser, "spectrum", "j", defaults.j_trunc,
                     int, positive=True),
        stability_pairs=_stability_pairs(parser, n),
        out_dir=out_dir,
    )
    try:
        ks = config.k_ladder()
    except OverflowError:
        ks = [math.inf]
    if not all(0.0 < k < math.inf for k in ks):
        raise ConfigError(
            f"[sweep] base = {config.ladder_base!r}, ratio = "
            f"{config.ladder_ratio!r}, count = {config.ladder_count}: the "
            "ladder points base * ratio**i must be finite and positive")
    return config


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_config(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def config_text(config: ExperimentConfig) -> str:
    """Render a config back to text; parsing the result is lossless."""
    lines = [
        "[scene]",
        f"outer = {config.outer}",
        f"inclusion = {config.inclusion}",
        f"n = {config.n}",
        "",
        "[physics]",
        f"k0 = {config.k0!r}",
        "f = " + " ".join(term.render() for term in config.f_terms),
        "",
        "[sweep]",
        f"base = {config.ladder_base!r}",
        f"ratio = {config.ladder_ratio!r}",
        f"count = {config.ladder_count}",
        "",
        "[spectrum]",
        f"n_modes = {config.n_modes}",
        f"j = {config.j_trunc}",
    ]
    if config.stability_pairs:
        lines += ["", "[stability]", "pairs ="]
        for a, b in config.stability_pairs:
            lines.append(f"    {a} ; {b}")
    if config.out_dir is not None:
        lines += ["", "[output]", f"dir = {config.out_dir}"]
    return "\n".join(lines) + "\n"
