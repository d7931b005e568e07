"""Time how numpy's and scipy's BLAS thread pools slow each other down.

numpy and scipy each load their own OpenBLAS.  A call into one library
right after the other has worked can find the other's idle threads still
spinning, and on a small machine the two pools then fight for the cores.
This script measures that, for n = 128 and 256, in fresh interpreters:
one at the default thread count, one with ``OPENBLAS_NUM_THREADS=1`` set
in that child's environment only.  Each child times, per repeat:

* a scipy ``eigh(a, b)`` right after a numpy product, and after a 0.3 s
  idle gap;
* ten numpy products right after a scipy call, and after the gap.

A driver probe then times the experiment drivers at n = 256 (or the
``--driver-n`` node counts), each in a fresh interpreter: ``run_sweep`` on
``bench/ladder.py``'s scene, and ``run_spectrum`` then ``run_expansion``
on ``bench/spectrum.py``'s scene.  It runs them once with the thread
variables unset, so on the drivers' own policy of one BLAS thread, and
once with ``OPENBLAS_NUM_THREADS`` set to the core count, which the
drivers defer to: one thread per core.  Each child times its driver calls
after one warm-up.

It writes the medians (milliseconds for the pools, seconds for the
drivers), the repeat count, both libraries' BLAS builds, the machine and
the library versions to a JSON record::

    python bench/blas_pools.py                  # 5 repeats
    python bench/blas_pools.py --repeats 1 --out /tmp/BENCH_blas_pools.json
    python bench/blas_pools.py --n 128 --driver-n 256 512 1024 2048 \
        --repeats 3 --out /tmp/blas_drivers.json  # the README's table
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ladder import ROOT, environment, time_sweep
from spectrum import SCENE as SPECTRUM_SCENE
from spectrum import run_pair

from npeit.config import parse_config

import numpy
import scipy
import scipy.linalg

IDLE_S = 0.3
PRODUCTS = 10
THREADS = {"default": None, "1": "1"}
#: the variables OpenBLAS reads its thread count from; unset in every child
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")
DRIVERS = ("run_sweep", "run_spectrum+run_expansion")
#: the drivers' own policy, and one thread per core set by the variable
DRIVER_THREADS = {"policy": None,
                  f"OPENBLAS_NUM_THREADS={os.cpu_count()}": str(os.cpu_count())}


def blas_builds() -> dict:
    """Name, version and build line of each library's BLAS."""
    builds = {}
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        builds[module.__name__] = {
            "name": blas.get("name"), "version": blas.get("version"),
            "package": Path(blas.get("lib directory", "")).parent.name,
            "configuration": blas.get("openblas configuration")}
    return builds


def probe(n: int, repeats: int) -> dict[str, float]:
    """Median milliseconds of each probe at ``n`` in this interpreter."""
    rng = numpy.random.default_rng(n)
    x = rng.standard_normal((n, n))
    a = x + x.T
    b = x @ x.T + n * numpy.eye(n)

    def scipy_call():
        scipy.linalg.eigh(a, b)

    def numpy_products():
        for _ in range(PRODUCTS):
            x @ x

    # (name, what runs just before, what is timed); None is the idle gap
    probes = (("eigh_after_numpy_ms", numpy_products, scipy_call),
              ("eigh_after_idle_ms", None, scipy_call),
              ("products_after_scipy_ms", scipy_call, numpy_products),
              ("products_after_idle_ms", None, numpy_products))
    samples: dict[str, list[float]] = {name: [] for name, _, _ in probes}
    scipy_call()  # both pools started before the first sample
    numpy_products()
    for _ in range(repeats):
        for name, before, timed in probes:
            if before is None:
                time.sleep(IDLE_S)
            else:
                before()
            start = time.perf_counter()
            timed()
            samples[name].append(1e3 * (time.perf_counter() - start))
    return {name: statistics.median(values)
            for name, values in samples.items()}


def time_drivers(driver: str, n: int, repeats: int) -> dict[str, float]:
    """Median, min and max seconds of ``repeats`` calls of one driver
    probe at ``n`` nodes in this interpreter, after one warm-up."""
    if driver == "run_sweep":
        samples = time_sweep(n, repeats)
    else:
        config = parse_config(SPECTRUM_SCENE.format(n=n))
        samples = []
        with tempfile.TemporaryDirectory() as out:
            run_pair(config, out)
            for _ in range(repeats):
                start = time.perf_counter()
                run_pair(config, out)
                samples.append(time.perf_counter() - start)
    return {"median_s": statistics.median(samples), "min_s": min(samples),
            "max_s": max(samples)}


def run_child(n: int, threads: str | None, repeats: int,
              driver: str | None = None) -> dict:
    """:func:`probe`, or :func:`time_drivers` for ``driver``, in a fresh
    interpreter with ``OPENBLAS_NUM_THREADS`` at ``threads`` (None: no
    thread variable set)."""
    env = {key: value for key, value in os.environ.items()
           if key not in THREAD_VARIABLES}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    argv = [sys.executable, __file__, "--child", str(n), "--repeats",
            str(repeats)] + (["--driver", driver] if driver else [])
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[128, 256])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path,
                        default=ROOT / "BENCH_blas_pools.json")
    parser.add_argument("--driver-n", type=int, nargs="+", default=[256],
                        help="node counts of the driver probe")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--driver", choices=DRIVERS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.child is not None:
        print(json.dumps(time_drivers(args.driver, args.child, args.repeats)
                         if args.driver else probe(args.child, args.repeats)))
        return 0
    results = {}
    for n in args.n:
        for label, threads in THREADS.items():
            results[f"n={n}, threads={label}"] = medians = run_child(
                n, threads, args.repeats)
            print(f"n={n} threads={label}: " + ", ".join(
                f"{name} {value:.1f}" for name, value in medians.items()))
    drivers = {}
    for n in args.driver_n:
        for driver in DRIVERS:
            drivers[f"{driver}, n={n}"] = rows = {}
            for label, threads in DRIVER_THREADS.items():
                rows[label] = row = run_child(n, threads, args.repeats,
                                              driver)
                print(f"{driver} n={n} {label}: median "
                      f"{row['median_s']:.4f} s")
    record = {
        "benchmark": "scipy eigh and numpy products right after the other "
                     f"library's call and after a {IDLE_S} s idle gap",
        "repeats": args.repeats,
        "products": PRODUCTS,
        "results": results,
        "drivers": drivers,
        "blas": blas_builds(),
        **environment(),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"record: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
