"""Seeded generators for the benchmark's workloads.

Each workload is an endless sequence of items.  An item is one experiment
config (the text ``np-eit`` would read) plus the drivers that run on it and,
for control items, the closed-form parameters the check compares against.
Item ``i`` of a workload depends only on the workload name, the run seed and
``i``, so the same seed gives the same inputs.  The program under test sees
only the config text.

Item 0 of ``ladder`` and ``stability-pairs`` is a concentric-disk control,
checked against ``npeit.disk_oracle``.  ``numeric-kernel`` has none: its
outer boundary is an ellipse, and the closed forms are for the unit disk.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("ladder", "numeric-kernel", "stability-pairs")

#: drivers each workload runs on one config, in order; names are the CLI
#: subcommands, so a cold ``np-eit`` run of the item is one process each
DRIVERS = {
    "ladder": ("sweep",),
    "numeric-kernel": ("spectrum", "expand"),
    "stability-pairs": ("stability",),
}

LADDER_N = 256
LADDER_POINTS = 64
NUMERIC_N = 256
STABILITY_N = 128
STABILITY_POINTS = 6
STABILITY_PAIRS = 2


@dataclass(frozen=True)
class Item:
    workload: str
    index: int
    seed: int
    config: str
    drivers: tuple[str, ...]
    #: closed-form parameters for a concentric-disk control, else None
    control: dict | None = field(default=None)

    @property
    def name(self) -> str:
        return f"{self.workload}#{self.index}"


def item_seed(seed: int, index: int) -> int:
    """The seed reported for one item; it regenerates the item alone."""
    return seed * 1000 + index


def make_item(workload: str, seed: int, index: int) -> Item:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    s = item_seed(seed, index)
    rng = random.Random(f"{workload}:{s}")
    make = {"ladder": _ladder, "numeric-kernel": _numeric_kernel,
            "stability-pairs": _stability_pairs}[workload]
    config, control = make(rng, control=(index == 0))
    return Item(workload, index, s, config, DRIVERS[workload], control)


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    """A uniform draw rounded to the six digits the config text carries,
    so that control parameters are exactly the values the program reads."""
    return round(rng.uniform(lo, hi), 6)


def _star(rng: random.Random, cx: float, cy: float, r0: float) -> str:
    """A star spec with two distinct harmonics of a few percent of r0."""
    m1, m2 = rng.sample(range(2, 7), 2)
    terms = [f"{m}:{repr(_draw(rng, 0.02, 0.06) * r0 * rng.choice((-1, 1)))}"
             for m in (m1, m2)]
    return " ".join(["star", repr(cx), repr(cy), repr(r0)] + terms)


def _config(outer: str, inclusion: str, n: int, k0: float, f: str,
            base: float, ratio: float, count: int, extra: str = "") -> str:
    return (f"[scene]\nouter = {outer}\ninclusion = {inclusion}\nn = {n}\n\n"
            f"[physics]\nk0 = {k0!r}\nf = {f}\n\n"
            f"[sweep]\nbase = {base!r}\nratio = {ratio!r}\ncount = {count}\n"
            + extra)


def _ladder_span(rng: random.Random, k0: float, count: int):
    """A geometric ladder from about k0/100 to about 300 k0."""
    lo = k0 * 10.0 ** -_draw(rng, 1.5, 2.5)
    hi = k0 * 10.0 ** _draw(rng, 2.0, 3.0)
    return lo, (hi / lo) ** (1.0 / (count - 1))


def _ladder(rng: random.Random, control: bool):
    k0 = _draw(rng, 0.5, 2.0)
    base, ratio = _ladder_span(rng, k0, LADDER_POINTS)
    m = rng.randint(1, 3)
    v = _draw(rng, 0.5, 1.5)
    net = _draw(rng, 0.2, 0.8)  # net flux: grounded and conductor differ
    if control:
        r0 = _draw(rng, 0.3, 0.6)
        cfg = _config("circle 0 0 1", f"circle 0 0 {repr(r0)}", LADDER_N, k0,
                      f"const:{repr(net)} cos:{m}:{repr(v)}", base, ratio,
                      LADDER_POINTS)
        return cfg, {"m": m, "v": v, "r0": r0, "k0": k0}
    angle = _draw(rng, 0.0, 2.0 * math.pi)
    offset = _draw(rng, 0.1, 0.25)
    inclusion = _star(rng, offset * math.cos(angle), offset * math.sin(angle),
                      _draw(rng, 0.3, 0.4))
    f = (f"const:{repr(net)} cos:{m}:{repr(v)} "
         f"sin:{rng.randint(1, 3)}:{repr(_draw(rng, 0.1, 0.5))}")
    return _config("circle 0 0 1", inclusion, LADDER_N, k0, f, base, ratio,
                   LADDER_POINTS), None


def _numeric_kernel(rng: random.Random, control: bool):
    k0 = _draw(rng, 0.5, 2.0)
    outer = (f"ellipse 0 0 {repr(_draw(rng, 1.1, 1.4))} "
             f"{repr(_draw(rng, 0.8, 1.0))}")
    inclusion = _star(rng, _draw(rng, -0.1, 0.1), _draw(rng, -0.1, 0.1),
                      _draw(rng, 0.3, 0.4))
    f = (f"cos:1:{repr(_draw(rng, 0.5, 1.5))} "
         f"sin:2:{repr(_draw(rng, 0.1, 0.5))}")
    base = k0 * _draw(rng, 2.0, 20.0)
    return _config(outer, inclusion, NUMERIC_N, k0, f, base, 4.0, 6,
                   "\n[spectrum]\nn_modes = 16\nj = 12\n"), None


def _stability_pairs(rng: random.Random, control: bool):
    k0 = _draw(rng, 0.5, 2.0)
    base, ratio = _ladder_span(rng, k0, STABILITY_POINTS)
    m = rng.randint(1, 3)
    v = _draw(rng, 0.5, 1.5)
    offsets = sorted(_draw(rng, 0.01, 0.12) for _ in range(STABILITY_PAIRS))
    if control:
        r0 = _draw(rng, 0.35, 0.45)
        pairs = [f"circle 0 0 {repr(r0)} ; circle 0 0 {repr(r0 - t)}"
                 for t in offsets]
        f = f"cos:{m}:{repr(v)}"
        control_params = {"m": m, "v": v, "r0": r0, "k0": k0,
                          "offsets": offsets}
    else:
        cx, cy = _draw(rng, -0.1, 0.1), _draw(rng, -0.1, 0.1)
        r0 = _draw(rng, 0.35, 0.45)
        angle = _draw(rng, 0.0, 2.0 * math.pi)
        star_a = _star(rng, cx, cy, r0)
        terms = star_a.split()[4:]
        # the same shape, shrunk by t and shifted by t towards `angle`:
        # the pair touches near that direction, and d_H grows with t
        pairs = [" ".join([star_a, ";", "star",
                           repr(cx + t * math.cos(angle)),
                           repr(cy + t * math.sin(angle)), repr(r0 - t)]
                          + terms) for t in offsets]
        f = (f"cos:{m}:{repr(v)} "
             f"sin:{rng.randint(1, 3)}:{repr(_draw(rng, 0.1, 0.5))}")
        control_params = None
    stability = "\n[stability]\npairs =\n" + "".join(
        f"    {p}\n" for p in pairs)
    return _config("circle 0 0 1", "circle 0 0 0.5", STABILITY_N, k0, f,
                   base, ratio, STABILITY_POINTS, stability), control_params
