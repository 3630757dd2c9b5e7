"""Sweep the trace-norm bound alpha and report train/test error at each value.

Works on a ratings file of (row, col, value) triples (1-based, whitespace
separated) with an optional held-out file of the same format, or on a
synthetic completion instance when --data is omitted. A held-out file that
repeats a training entry is refused with ValueError before any solve. The
useful output is the U-shape of the held-out error across the grid.
"""

import argparse
import sys

import numpy as np

from sketchycgm import (
    EvalSpec,
    Loss,
    ProblemSpec,
    SyntheticCompletionSpec,
    entry_sampling_from_file,
    gen_completion_problem,
    read_triples,
    solve,
    test_error,
)


def _grid(spec):
    lo, hi, count = spec
    return np.geomspace(lo, hi, int(count))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data", default=None, help="training triples file")
    ap.add_argument("--test-data", default=None, help="held-out triples file")
    ap.add_argument("--alpha-min", type=float, default=None)
    ap.add_argument("--alpha-max", type=float, default=None)
    ap.add_argument("--alpha-count", type=int, default=8)
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--iters", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    if args.data is not None:
        ev = m = n = None
        if args.test_data is not None:
            trows, tcols, tvals = read_triples(args.test_data)
            rows, cols, _ = read_triples(args.data)
            # the grid covers held-out rows and columns that training lacks
            m = int(max(rows.max(), trows.max())) + 1
            n = int(max(cols.max(), tcols.max())) + 1
            if np.intersect1d(rows * n + cols, trows * n + tcols).size:
                raise ValueError("held-out entries overlap the training set")
            ev = EvalSpec(rows=trows, cols=tcols, values=tvals)
        op, values = entry_sampling_from_file(args.data, m=m, n=n)
        loss = Loss("gauss", values, normalization=1.0 / values.size)
        center = float(np.linalg.norm(values) * np.sqrt(op.m * op.n / op.d))

        def build(alpha):
            return (
                ProblemSpec(
                    op=op, loss=loss, alpha=alpha, rank=args.rank,
                    eps=1e-300, max_iters=args.iters,
                ),
                ev,
            )
    else:
        cspec = SyntheticCompletionSpec(
            m=60, n=40, true_rank=3, obs_fraction=0.3, noise=0.05,
            test_fraction=0.2, seed=args.seed,
        )
        base, _, _ = gen_completion_problem(cspec)
        center = base.alpha

        def build(alpha):
            prob, _, ev = gen_completion_problem(
                cspec, alpha=alpha, rank=args.rank, eps=1e-300, max_iters=args.iters
            )
            return prob, ev

    lo = args.alpha_min if args.alpha_min is not None else center / 4.0
    hi = args.alpha_max if args.alpha_max is not None else center * 4.0
    print(f"sweeping alpha over [{lo:.4g}, {hi:.4g}], {args.alpha_count} points")
    print(f"{'alpha':>12} {'objective':>12} {'gap':>10} {'test err':>10}")
    for alpha in _grid((lo, hi, args.alpha_count)):
        prob, ev = build(float(alpha))
        factors, trace = solve(prob, trace_every=args.iters)
        te = test_error(factors, ev) if ev is not None else float("nan")
        print(
            f"{alpha:>12.4g} {trace[-1].objective:>12.6f} "
            f"{trace[-1].gap:>10.3e} {te:>10.6f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
