"""Time one stability run on a star family at several node counts.

Each measurement is one ``run_stability`` call on three pairs that share a
reference star: each pair is the reference and a copy shrunk by ``t`` and
shifted by ``t`` so that the two touch.  The run covers the outer kernel,
the operator build and six-point ladder of every distinct inclusion, the
pair distances and the CSV.  The script uses the stdlib clock only and
writes the medians, the repeat count, the process's peak RSS, the machine
and the library versions to a JSON record::

    python bench/stability.py                      # n = 128 256 512, 5 repeats
    python bench/stability.py --n 64 --repeats 1 --out /tmp/BENCH_stability.json
    python bench/stability.py --n 256 --outer "ellipse 0 0 1.3 0.9"

``--outer`` takes a curve spec; a non-circle runs the numeric outer kernel.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from ladder import ROOT, environment  # also puts ROOT/src on sys.path

from npeit.config import parse_config
from npeit.experiments import run_stability

POINTS = 6
OFFSETS = (0.02, 0.05, 0.1)
REFERENCE = (0.03, -0.02, 0.4)  # centre and base radius of the star
TERMS = "3:0.012 5:-0.008"
ANGLE = 0.7  # direction in which each copy touches the reference
#: geometric ladder from k0/100 to 300 k0 with k0 = 1
SCENE = """
[scene]
outer = {outer}
inclusion = circle 0 0 0.3
n = {n}

[physics]
k0 = 1
f = cos:1:1 sin:2:0.3

[sweep]
base = 0.01
ratio = {ratio!r}
count = {points}

[stability]
pairs =
{pairs}"""


def star_pairs() -> str:
    cx, cy, r0 = REFERENCE
    reference = f"star {cx!r} {cy!r} {r0!r} {TERMS}"
    return "".join(
        f"    {reference} ; star {cx + t * math.cos(ANGLE)!r} "
        f"{cy + t * math.sin(ANGLE)!r} {r0 - t!r} {TERMS}\n" for t in OFFSETS)


def time_stability(n: int, repeats: int, outer: str) -> list[float]:
    """Wall times of ``repeats`` stability runs at ``n`` nodes, after one
    warm-up."""
    config = parse_config(SCENE.format(
        outer=outer, n=n, points=POINTS, pairs=star_pairs(),
        ratio=30000.0 ** (1.0 / (POINTS - 1))))
    samples = []
    with tempfile.TemporaryDirectory() as out:
        run_stability(config, out)
        for _ in range(repeats):
            start = time.perf_counter()
            run_stability(config, out)
            samples.append(time.perf_counter() - start)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--outer", default="circle 0 0 1",
                        help="outer curve spec (default: the unit circle)")
    parser.add_argument("--out", type=Path,
                        default=ROOT / "BENCH_stability.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    results = {}
    for n in args.n:
        samples = time_stability(n, args.repeats, args.outer)
        results[str(n)] = {"median_s": statistics.median(samples),
                           "min_s": min(samples), "max_s": max(samples)}
        print(f"n={n}: median {results[str(n)]['median_s']:.4f} s "
              f"over {args.repeats} repeats")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "benchmark": f"run_stability, {len(OFFSETS)} pairs sharing one "
                     f"reference star, {POINTS}-point ladder, outer "
                     f"{args.outer!r}",
        "repeats": args.repeats,
        "results": results,
        "peak_rss_mb": peak_mb,
        **environment(),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"peak RSS {peak_mb:.1f} MB; record: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
