"""Time and size one spectrum report and expansion at several node counts.

Each measurement runs ``run_spectrum`` and then ``run_expansion`` on one
star inclusion in an ellipse, so on the numeric outer kernel, and holds
the spectrum result while the expansion runs, as a caller that keeps both
results would.  Each node count runs in a fresh process, which reports:

* the median wall time of the pair, over the repeats after one warm-up;
* from one more pair under tracemalloc: the peak of traced memory over
  the pair, and what the held results still occupy after it (both above
  what was allocated before the pair), and what the spectrum result
  alone occupies;
* the process's peak RSS (``ru_maxrss``), imports included.

The script writes these, the repeat count, the machine and the library
versions to a JSON record::

    python bench/spectrum.py                      # n = 128 256 512, 5 repeats
    python bench/spectrum.py --n 64 --repeats 1 --out /tmp/BENCH_spectrum.json
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from ladder import ROOT, environment  # also puts ROOT/src on sys.path

from npeit.config import parse_config
from npeit.experiments import run_expansion, run_spectrum

SCENE = """
[scene]
outer = ellipse 0 0 1.3 0.9
inclusion = star 0.05 -0.03 0.4 3:0.02 5:-0.01
n = {n}

[physics]
k0 = 1
f = cos:1:1 sin:2:0.3

[sweep]
base = 3

[spectrum]
n_modes = 16
j = 12
"""
MB = 1024.0 * 1024.0


def run_pair(config, out: str) -> tuple:
    """The spectrum report, then the expansion with the spectrum held."""
    spectrum = run_spectrum(config, out)
    return spectrum, run_expansion(config, out)


def measure(n: int, repeats: int) -> dict:
    """Timings and memory of the pair at ``n`` nodes, in this process."""
    config = parse_config(SCENE.format(n=n))
    samples = []
    with tempfile.TemporaryDirectory() as out:
        run_pair(config, out)
        for _ in range(repeats):
            start = time.perf_counter()
            held = run_pair(config, out)
            samples.append(time.perf_counter() - start)
            del held
        gc.collect()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        spectrum = run_spectrum(config, out)
        gc.collect()
        spectrum_held = tracemalloc.get_traced_memory()[0] - before
        expansion = run_expansion(config, out)
        gc.collect()
        pair_held, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    del spectrum, expansion
    return {"median_s": statistics.median(samples), "min_s": min(samples),
            "max_s": max(samples),
            "traced_peak_mb": (peak - before) / MB,
            "traced_pair_held_mb": (pair_held - before) / MB,
            "traced_spectrum_held_mb": spectrum_held / MB,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[128, 256, 512])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path,
                        default=ROOT / "BENCH_spectrum.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    spawn = multiprocessing.get_context("spawn")
    results = {}
    for n in args.n:
        with spawn.Pool(1) as pool:  # a fresh process per node count
            results[str(n)] = row = pool.apply(measure, (n, args.repeats))
        print(f"n={n}: median {row['median_s']:.4f} s over {args.repeats} "
              f"repeats; traced peak {row['traced_peak_mb']:.2f} MB, "
              f"held {row['traced_pair_held_mb']:.2f} MB (spectrum "
              f"{row['traced_spectrum_held_mb']:.2f} MB); peak RSS "
              f"{row['peak_rss_mb']:.1f} MB")
    record = {
        "benchmark": "run_spectrum then run_expansion, spectrum result held, "
                     "star inclusion in an ellipse (numeric outer kernel)",
        "repeats": args.repeats,
        "results": results,
        **environment(),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"record: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
