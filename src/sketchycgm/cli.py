"""Command-line front end.

Subcommands: solve (run one problem end to end, writing factors, a trace
CSV, and a summary JSON), sketch-test (statistical suites for the sketch's
reconstruction guarantees), bench-memory (peak live-scalar accounting of
the sketched solver against the dense reference across problem sizes),
and gen (write synthetic problem instances to disk).

Configuration is flat key=value text: one --config FILE per run is
expanded into the equivalent command-line flags, one --key value pair per
line, and explicit flags override the file. Only that expansion reads
--config; no subcommand declares it, so a second --config, or a config line
naming another file, reaches argparse as an unknown flag and exits 2. A
flag that mirrors a library setting takes its default from the dataclass
that owns it. The solver settings go to the generator, or for a file
problem to ProblemSpec, as one dict; a setting left None takes its
default. Runs are reproducible bit for bit given the same config and
seeds, wall-clock fields excepted. The trace and the sketch do not depend
on the BLAS thread count; a psd reconstruction's last digits still do,
through the dense factorizations of its Nystrom step. Failures exit
nonzero after printing a machine-readable error JSON.

Storage is measured in live scalar counts through the allocation ledger
rather than process RSS: deterministic and platform independent, which is
what makes the linear-vs-quadratic scaling claims testable.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ParseError, TooLargeForDense
from .losses import LOSS_KINDS, Loss
from .memory import ledger
from .operators import entry_sampling_from_file, write_triples
from .probgen import (
    BINARIZE_THRESHOLD,
    NOISE_KINDS,
    SyntheticCompletionSpec,
    SyntheticPhaseSpec,
    gen_completion_problem,
    gen_phase_problem,
)
from .reference import cgm_dense_solve, phase_aligned_error, psnr, test_error
from .sketch import Sketch
from .solver import ProblemSpec, solve
from .spectral import SpectralConfig

__all__ = [
    "build_parser",
    "main",
    "run_solve",
    "run_sketch_test",
    "run_bench_memory",
    "run_gen",
    "sketch_rank_exact_suite",
    "sketch_tail_suite",
    "bench_memory_rows",
]

DEFAULT_BENCH_NS = "256,512,1024,2048,4096,8192"
# the sketch suites' pass criteria: rank_exact's relative error bound, and
# tail_bound's head rank and the slack on its mean-error bound
_RANK_EXACT_TOL = 1e-8
_TAIL_HEAD_RANK = 5
_TAIL_SLACK = 1.10


def _load_config_tokens(path: str) -> list[str]:
    """Turn each key=value line into the two tokens --key value."""
    tokens: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(lineno, f"expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ParseError(lineno, "empty key")
            tokens.extend(["--" + key.replace("_", "-"), value])
    return tokens


def _expand_config(argv: list[str]) -> list[str]:
    """Splice --config file contents in after the subcommand; flags win."""
    argv = list(argv)
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ParseError(0, "--config needs a file path")
            path = argv[i + 1]
            del argv[i : i + 2]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            del argv[i]
            break
    if path is None or not argv:
        return argv
    return [argv[0]] + _load_config_tokens(path) + argv[1:]


def _add_generator_flags(p: argparse.ArgumentParser, n=None, m=None) -> None:
    """The nine generator flags solve and gen share; n and m set the --n/--m defaults."""
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--views", type=int, default=SyntheticPhaseSpec.views)
    p.add_argument("--noise", choices=NOISE_KINDS, default=SyntheticPhaseSpec.noise_kind)
    p.add_argument("--snr-db", type=float, default=SyntheticPhaseSpec.snr_db)
    p.add_argument("--m", type=int, default=m)
    p.add_argument("--true-rank", type=int, default=2)
    p.add_argument("--obs-fraction", type=float, default=SyntheticCompletionSpec.obs_fraction)
    p.add_argument("--noise-std", type=float, default=SyntheticCompletionSpec.noise)
    p.add_argument("--test-fraction", type=float, default=SyntheticCompletionSpec.test_fraction)


def _synthetic_spec(args):
    """The generator recipe the flags describe: phase, or else completion."""
    if args.problem == "phase":
        return SyntheticPhaseSpec(
            n=64 if args.n is None else args.n, views=args.views,
            noise_kind=args.noise, snr_db=args.snr_db, seed=args.seed,
        )
    if args.m is None or args.n is None:
        raise ValueError("--m and --n are required for completion problems")
    return SyntheticCompletionSpec(
        m=args.m, n=args.n, true_rank=args.true_rank,
        obs_fraction=args.obs_fraction, noise=args.noise_std,
        test_fraction=args.test_fraction, seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchycgm",
        description="Storage-optimal convex low-rank matrix optimization. "
        "Any subcommand takes one --config FILE of key = value lines, read as "
        "--key value flags; explicit flags override the file.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sv = sub.add_parser("solve", help="run one problem end to end")
    sv.add_argument("--problem", choices=("phase", "completion", "file"), required=True)
    sv.add_argument("--data", help="triples file for --problem file")
    sv.add_argument("--loss", choices=LOSS_KINDS, default=None)
    sv.add_argument("--rank", type=int, default=None,
                    help="reconstruction rank (default: --true-rank for completion, else 1)")
    sv.add_argument("--alpha", type=float, default=None)
    sv.add_argument("--alpha-mode", choices=("mean-b",), default=None)
    sv.add_argument("--eps", type=float, default=ProblemSpec.eps)
    sv.add_argument("--max-iters", type=int, default=300)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--sketch-seed", type=int, default=ProblemSpec.sketch_seed)
    sv.add_argument("--spectral-seed", type=int, default=SpectralConfig.seed)
    sv.add_argument("--spectral-tol", type=float, default=SpectralConfig.tol,
                    help="residual tolerance of the linear minimization step from iteration "
                         "998 on; iteration t runs to this times max(1, 1000/(t+2))")
    sv.add_argument("--trace-every", type=int, default=1)
    sv.add_argument("--out", default=None, help="directory for artifacts")
    _add_generator_flags(sv)
    sv.set_defaults(func=run_solve)

    st = sub.add_parser("sketch-test", help="sketch reconstruction suites")
    st.add_argument("--m", type=int, default=200)
    st.add_argument("--n", type=int, default=150)
    st.add_argument("--ranks", default="1,3,5")
    st.add_argument("--trials", type=int, default=50)
    st.add_argument("--tail-trials", type=int, default=100)
    st.add_argument("--tail", type=float, default=0.1)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out", default=None)
    st.set_defaults(func=run_sketch_test)

    bm = sub.add_parser("bench-memory", help="peak live-scalar scaling study")
    bm.add_argument("--n-values", default=DEFAULT_BENCH_NS)
    bm.add_argument("--rank", type=int, default=1)
    bm.add_argument("--views", type=int, default=SyntheticPhaseSpec.views)
    bm.add_argument("--iters", type=int, default=3)
    bm.add_argument("--seed", type=int, default=0)
    bm.add_argument("--out", default=None)
    bm.set_defaults(func=run_bench_memory)

    gn = sub.add_parser("gen", help="write a synthetic instance to disk")
    gn.add_argument("--problem", choices=("phase", "completion"), required=True)
    gn.add_argument("--out", required=True)
    gn.add_argument("--seed", type=int, default=0)
    _add_generator_flags(gn, n=64, m=30)
    gn.set_defaults(func=run_gen)

    return parser


def _outdir(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace_csv(path: Path, trace) -> None:
    keys: list[str] = []
    for rec in trace:
        if rec.metrics:
            for key in rec.metrics:
                if key not in keys:
                    keys.append(key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "eta", "gap", "objective", "wall_ms", "lmo_products", *keys])
        for rec in trace:
            row = [
                rec.t,
                f"{rec.eta:.17g}",
                f"{rec.gap:.17g}",
                f"{rec.objective:.17g}",
                f"{rec.wall_ms:.6g}",
                rec.lmo_products,
            ]
            metrics = rec.metrics or {}
            row.extend("" if key not in metrics else f"{metrics[key]:.17g}" for key in keys)
            writer.writerow(row)


def _build_solve_problem(args):
    """Materialize (ProblemSpec, eval_fn) from solve-subcommand flags."""
    # a setting left None takes the generator's default: alpha from the
    # instance, rank 1 for phase and --true-rank for completion
    settings = {
        "alpha": args.alpha,
        "rank": args.rank,
        "eps": args.eps,
        "max_iters": args.max_iters,
        "spectral": SpectralConfig(tol=args.spectral_tol, seed=args.spectral_seed),
        "sketch_seed": args.sketch_seed,
    }
    if args.problem == "phase":
        prob, x_true = gen_phase_problem(_synthetic_spec(args), loss_kind=args.loss, **settings)
        peak = float(np.abs(x_true).max())

        def eval_fn(factors):
            xhat = factors.top_vector()
            rotation = np.vdot(xhat, x_true)
            if rotation != 0:
                xhat = xhat * (rotation / abs(rotation))
            return {
                "phase_aligned_error": phase_aligned_error(xhat, x_true),
                "psnr_db": psnr(xhat, x_true, peak),
            }

        return prob, eval_fn

    if args.problem == "completion":
        prob, _truth, eval_spec = gen_completion_problem(
            _synthetic_spec(args), loss_kind=args.loss or "gauss", **settings
        )
        eval_fn = None
        if eval_spec is not None:
            eval_fn = lambda factors: {"test_error": test_error(factors, eval_spec)}
        return prob, eval_fn

    if args.data is None:
        raise ValueError("--data is required for --problem file")
    loss_kind = args.loss or "gauss"
    if loss_kind == "logistic" and settings["alpha"] is None and args.alpha_mode == "mean-b":
        # the mean of +-1 labels is no trace-norm scale, and often not positive
        raise ValueError("--alpha-mode mean-b does not fit --loss logistic; pass --alpha")
    op, values = entry_sampling_from_file(args.data, m=args.m, n=args.n)
    if loss_kind == "logistic":
        b = np.where(values > BINARIZE_THRESHOLD, 1.0, -1.0)
    else:
        b = values
    if settings["alpha"] is None:
        if args.alpha_mode != "mean-b":
            raise ValueError("file problems need --alpha or --alpha-mode")
        settings["alpha"] = float(np.mean(b))
    if settings["rank"] is None:
        settings["rank"] = 1
    prob = ProblemSpec(op=op, loss=Loss(loss_kind, b, normalization=1.0 / b.size), **settings)
    return prob, None


def run_solve(args) -> int:
    out = _outdir(args)
    ledger.reset()
    prob, eval_fn = _build_solve_problem(args)
    factors, trace = solve(prob, trace_every=args.trace_every, eval_fn=eval_fn)
    last = trace[-1]
    summary = {
        "gap": last.gap,
        "objective": last.objective,
        "iters": last.t,
        "peak_scalars": ledger.peak,
        "metrics": last.metrics or {},
    }
    if out is not None:
        _write_trace_csv(out / "trace.csv", trace)
        factors.save(out)
        _write_json(out / "summary.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def sketch_rank_exact_suite(m=200, n=150, ranks=(1, 3, 5), trials=50, seed=0):
    """Reconstruction of exactly rank-r matrices must be exact to roundoff."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for r in ranks:
        for _ in range(trials):
            A = rng.standard_normal((m, r))
            B = rng.standard_normal((n, r))
            X = A @ B.T
            sk = Sketch(m, n, r, field="real", seed=int(rng.integers(2**31)))
            for j in range(r):
                sk.linear_update(1.0, 1.0, A[:, j], B[:, j])
            err = np.linalg.norm(X - sk.reconstruct().dense()) / np.linalg.norm(X)
            worst = max(worst, float(err))
    return {
        "suite": "rank_exact",
        "trials_per_rank": trials,
        "ranks": list(ranks),
        "max_rel_err": worst,
        "tol": _RANK_EXACT_TOL,
        "pass": worst <= _RANK_EXACT_TOL,
    }


def sketch_tail_suite(m=200, n=150, tau=0.1, trials=100, seed=0):
    """Mean reconstruction error against the 3*sqrt(2)*tau guarantee.

    Test matrices have a fixed well-separated rank-5 head and a flat tail
    of Frobenius norm exactly tau, so the best rank-5 approximation error
    is tau by construction.
    """
    rng = np.random.default_rng(seed)
    k = min(m, n)
    tail = k - _TAIL_HEAD_RANK
    head = np.linspace(10.0, 2.0, _TAIL_HEAD_RANK)
    svals = np.concatenate([head, np.full(tail, tau / np.sqrt(tail))])
    errs = []
    for _ in range(trials):
        U = np.linalg.qr(rng.standard_normal((m, k)))[0]
        V = np.linalg.qr(rng.standard_normal((n, k)))[0]
        sk = Sketch(m, n, _TAIL_HEAD_RANK, field="real", seed=int(rng.integers(2**31)))
        for j in range(k):
            sk.linear_update(1.0, svals[j], U[:, j], V[:, j])
        X = (U * svals) @ V.T
        errs.append(float(np.linalg.norm(X - sk.reconstruct().dense())))
    mean_err = float(np.mean(errs))
    bound = float(3.0 * np.sqrt(2.0) * tau)
    return {
        "suite": "tail_bound",
        "trials": trials,
        "tau": tau,
        "mean_err": mean_err,
        "bound": bound,
        "ratio": mean_err / bound,
        "slack": _TAIL_SLACK,
        "pass": bool(mean_err <= bound * _TAIL_SLACK),
    }


def run_sketch_test(args) -> int:
    ranks = tuple(int(tok) for tok in args.ranks.split(","))
    exact = sketch_rank_exact_suite(
        m=args.m, n=args.n, ranks=ranks, trials=args.trials, seed=args.seed
    )
    tail = sketch_tail_suite(
        m=args.m, n=args.n, tau=args.tail, trials=args.tail_trials, seed=args.seed
    )
    report = {"rank_exact": exact, "tail_bound": tail}
    out = _outdir(args)
    if out is not None:
        _write_json(out / "sketch_report.json", report)
    for name, suite in report.items():
        print(f"{name}: {'PASS' if suite['pass'] else 'FAIL'}")
    print(json.dumps(report, sort_keys=True))
    return 0


def bench_memory_rows(ns, rank=1, views=10, iters=3, seed=0):
    """Peak live scalars for the sketched and dense solvers at each n."""
    rows = []
    for n in ns:
        spectral = SpectralConfig(tol=1e-5, max_iters=5000)
        pspec = SyntheticPhaseSpec(n=n, views=views, noise_kind="none", seed=seed)
        prob, _x = gen_phase_problem(
            pspec, loss_kind="gauss", rank=rank, eps=1e-300,
            max_iters=iters, spectral=spectral,
        )
        ledger.reset()
        solve(prob, trace_every=max(1, iters))
        sketchy_peak = ledger.peak
        ledger.reset()
        try:
            cgm_dense_solve(prob)
            dense_peak = str(ledger.peak)
        except TooLargeForDense:
            dense_peak = "oom-guard"
        rows.append((n, sketchy_peak, dense_peak))
    return rows


def run_bench_memory(args) -> int:
    ns = [int(tok) for tok in args.n_values.split(",")]
    rows = bench_memory_rows(ns, rank=args.rank, views=args.views, iters=args.iters, seed=args.seed)
    out = _outdir(args)
    lines = ["n,sketchycgm_peak_scalars,dense_cgm_peak_scalars"]
    lines += [f"{n},{sk},{dn}" for n, sk, dn in rows]
    text = "\n".join(lines) + "\n"
    if out is not None:
        (out / "bench.csv").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


def run_gen(args) -> int:
    out = _outdir(args)
    if args.problem == "phase":
        prob, x = gen_phase_problem(_synthetic_spec(args))
        np.savetxt(out / "x_true.csv", np.column_stack([x.real, x.imag]),
                   delimiter=",", header="re,im", comments="")
        np.savetxt(out / "b.csv", prob.loss.b, delimiter=",", header="b", comments="")
        meta = {
            "problem": "phase", "n": args.n, "views": args.views,
            "noise": args.noise, "snr_db": args.snr_db, "seed": args.seed,
            "alpha": prob.alpha, "d": prob.op.d,
        }
    else:
        prob, (G1, G2), eval_spec = gen_completion_problem(_synthetic_spec(args))
        write_triples(out / "train.txt", prob.op.rows, prob.op.cols, prob.loss.b)
        if eval_spec is not None:
            write_triples(out / "test.txt", eval_spec.rows, eval_spec.cols, eval_spec.values)
        np.savetxt(out / "G1.csv", G1, delimiter=",")
        np.savetxt(out / "G2.csv", G2, delimiter=",")
        meta = {
            "problem": "completion", "m": args.m, "n": args.n,
            "true_rank": args.true_rank, "obs_fraction": args.obs_fraction,
            "noise_std": args.noise_std, "test_fraction": args.test_fraction,
            "seed": args.seed, "alpha": prob.alpha,
        }
    _write_json(out / "meta.json", meta)
    print(json.dumps(meta, sort_keys=True))
    return 0


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_expand_config(raw))
        return args.func(args)
    except Exception as exc:  # surfaced as machine-readable JSON, exit 2
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            payload["line"] = exc.line
        print(json.dumps(payload, sort_keys=True))
        return 2


if __name__ == "__main__":
    sys.exit(main())
