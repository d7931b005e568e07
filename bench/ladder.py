"""Time one 64-point conductivity ladder sweep at several node counts.

Each measurement is one ``run_sweep`` call on an off-centre star inclusion
in the unit disk: operator build, the ladder, the two limits, the trace
constant and the CSV.  The script uses the stdlib clock only and writes
the medians, the repeat count, the machine and the library versions to a
JSON record::

    python bench/ladder.py                      # n = 128 256 512, 5 repeats
    python bench/ladder.py --n 64 --repeats 1 --out /tmp/BENCH_ladder.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from npeit.config import parse_config  # noqa: E402
from npeit.experiments import (_one_blas_thread,  # noqa: E402
                               blas_threads, run_sweep)

POINTS = 64
#: geometric ladder from k0/100 to 300 k0 with k0 = 1, and data with net flux
SCENE = """
[scene]
outer = circle 0 0 1
inclusion = star 0.2 -0.1 0.35 3:0.015 5:-0.01
n = {n}

[physics]
k0 = 1
f = const:0.5 cos:1:1 sin:2:0.3

[sweep]
base = 0.01
ratio = {ratio!r}
count = {points}
"""


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


@_one_blas_thread
def _seen_by_driver(config, out_dir) -> dict:
    return blas_threads()


def environment() -> dict:
    """The machine, library versions and BLAS thread settings of a run:
    the thread variables, and each OpenBLAS library's thread count outside
    the drivers and as the drivers see it."""
    return {
        "machine": {"cpu": _cpu(), "nproc": os.cpu_count(),
                    "platform": platform.platform()},
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "thread_env": {key: os.environ[key] for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
                       if key in os.environ},
        "blas_threads": {"outside": blas_threads(),
                         "in_drivers": _seen_by_driver(None, None)},
    }


def time_sweep(n: int, repeats: int) -> list[float]:
    """Wall times of ``repeats`` sweeps at ``n`` nodes, after one warm-up."""
    config = parse_config(SCENE.format(n=n, points=POINTS,
                                       ratio=30000.0 ** (1.0 / (POINTS - 1))))
    samples = []
    with tempfile.TemporaryDirectory() as out:
        run_sweep(config, out)
        for _ in range(repeats):
            start = time.perf_counter()
            run_sweep(config, out)
            samples.append(time.perf_counter() - start)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ladder.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    results = {}
    for n in args.n:
        samples = time_sweep(n, args.repeats)
        results[str(n)] = {"median_s": statistics.median(samples),
                           "min_s": min(samples), "max_s": max(samples)}
        print(f"n={n}: median {results[str(n)]['median_s']:.4f} s "
              f"over {args.repeats} repeats")
    record = {
        "benchmark": f"run_sweep, {POINTS}-point ladder, off-centre star in "
                     "a disk",
        "repeats": args.repeats,
        "results": results,
        **environment(),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"record: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
