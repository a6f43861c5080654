#!/usr/bin/env python3
"""Benchmark the compiled series kernels against the pure-Python fallback.

Workloads mirror the package's hot paths:
  * partition-series build: a chain of div_one_minus over all parts < order
    (how ps_div_pochhammer divides out residues that form no pair, triple
    or (q^B; q^B)_inf product),
  * sparse theta division: div_sparse by theta_{3,1} = (q, q^2, q^3; q^3)_inf
    (how the family and pochhammer_inv denominators are divided out; it has
    no compiled twin),
  * dense truncated convolution (ps_mul),
  * series inverse (ps_inv).

Usage: python benchmarks/bench_kernels.py [--order 4000] [--conv-order 1500]
"""

import argparse
import random
import time

from theta_trunc import _kernels_py
from theta_trunc.series import theta_exponents

try:
    from theta_trunc import _speedups
except ImportError:
    _speedups = None


def time_it(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_partition_chain(mod, order):
    def run():
        c = [0] * order
        c[0] = 1
        for m in range(1, order):
            mod.div_one_minus(c, m)
        return c

    return run


def bench_sparse_division(mod, order):
    plus, minus = theta_exponents(3, 1, order)

    def run():
        c = [0] * order
        c[0] = 1
        mod.div_sparse(c, plus, minus)
        return c

    return run


def bench_conv(mod, order, a, b):
    return lambda: mod.conv_trunc(a, b, order)


def bench_inv(mod, f):
    return lambda: mod.inv_unit(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=4000)
    ap.add_argument("--conv-order", type=int, default=1500)
    args = ap.parse_args()

    rng = random.Random(1)
    a = [rng.randrange(-9, 10) for _ in range(args.conv_order)]
    b = [rng.randrange(-9, 10) for _ in range(args.conv_order)]
    f = [1] + [rng.randrange(-3, 4) for _ in range(args.conv_order - 1)]

    rows = [
        ("partition chain (order %d)" % args.order,
         bench_partition_chain(_kernels_py, args.order),
         None if _speedups is None else bench_partition_chain(_speedups, args.order)),
        ("sparse theta division (order %d)" % args.order,
         bench_sparse_division(_kernels_py, args.order),
         None),
        ("dense conv (order %d)" % args.conv_order,
         bench_conv(_kernels_py, args.conv_order, a, b),
         None if _speedups is None else bench_conv(_speedups, args.conv_order, a, b)),
        ("series inverse (order %d)" % args.conv_order,
         bench_inv(_kernels_py, f),
         None if _speedups is None else bench_inv(_speedups, f)),
    ]

    print("%-36s %12s %12s %9s" % ("workload", "python [s]", "compiled [s]", "speedup"))
    for name, py_fn, c_fn in rows:
        t_py = time_it(py_fn)
        if c_fn is None:
            print("%-36s %12.4f %12s %9s" % (name, t_py, "n/a", "n/a"))
        else:
            t_c = time_it(c_fn)
            print("%-36s %12.4f %12.4f %8.1fx" % (name, t_py, t_c, t_py / t_c))
    if _speedups is None:
        print("\ncompiled extension not built; run pip install -e . --no-build-isolation")


if __name__ == "__main__":
    main()
