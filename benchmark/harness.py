"""Closed-loop measurement of one workload: one client, one solve at a time.

An untraced run reports the end-to-end metrics: the median set-up time and
solve time over the run's instances, the ledger peak and the process's peak
resident set. A traced run alternates untraced and traced solves of the
same instances, reports per-layer metrics from the traced ones, and checks
that tracing changed no result.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import traceback
from dataclasses import dataclass, replace
from statistics import median, median_low
from time import perf_counter

import numpy as np

import sketchycgm
from sketchycgm import solve

from tracing import MissingHook, Recorder, hooks, layer_metrics, ledger
from workloads import Workload, check, instance_seed

WARMUP_ITERS = 3

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_scalars": "scalars",
                    "rss_peak_mib": "MiB"}

PER_LAYER_UNITS = {
    "probgen.gen_s": "s",
    "losses.gradient_calls": "count",
    "losses.gradient_s": "s",
    "losses.value_calls": "count",
    "losses.value_s": "s",
    "operators.adjoint_calls": "count",
    "operators.adjoint_s": "s",
    "operators.adjoint_us_per_call": "us",
    "operators.adjoint_bytes": "bytes_computed",
    "operators.rank_one_calls": "count",
    "operators.rank_one_s": "s",
    "spectral.calls": "count",
    "spectral.s": "s",
    "spectral.self_s": "s",
    "spectral.matvecs_per_call": "matvecs/call",
    "sketch.update_calls": "count",
    "sketch.update_s": "s",
    "sketch.reconstruct_calls": "count",
    "sketch.reconstruct_s": "s",
    "memory.peak.solver": "scalars",
    "memory.peak.spectral": "scalars",
    "memory.peak.sketch": "scalars",
    "memory.peak.losses": "scalars",
    "memory.peak.operators": "scalars",
    "solver.iterations": "count",
    "solver.s": "s",
    "solver.self_s": "s",
    "solver.final_gap": "loss",
    "solver.recovery_err": "error",
    "trace_overhead": "ratio",
}


@dataclass
class Outcome:
    setup_s: float
    solve_s: float
    peak_scalars: int
    iterations: int
    final_gap: float
    recovery_err: float
    problems: list[str]


def solve_once(workload: Workload, seed: int, recorder: Recorder | None = None,
               high_water: dict | None = None) -> Outcome:
    """Generate one instance with a fresh ledger, solve it, score and check the result."""
    led = ledger()
    led.reset()
    t0 = perf_counter()
    inst = workload.generate(seed)
    setup_s = perf_counter() - t0
    kwargs = {"trace_every": inst.trace_every, "eval_fn": inst.eval_fn}
    if recorder is None:
        t0 = perf_counter()
        factors, trace = solve(inst.prob, **kwargs)
        solve_s = perf_counter() - t0
    else:
        with hooks(recorder, inst.prob.op, high_water):
            t0 = perf_counter()
            factors, trace = recorder.wrap("solver.solve", solve)(inst.prob, **kwargs)
            solve_s = perf_counter() - t0
    peak = led.peak
    err = inst.score(factors)
    return Outcome(setup_s, solve_s, peak, trace[-1].t, trace[-1].gap, err,
                   check(workload, factors, trace, err))


def warm_up(workload: Workload, seed: int) -> None:
    """A few iterations of the first instance, so one-time costs stay out of solve_s."""
    inst = workload.generate(seed)
    prob = replace(inst.prob, max_iters=WARMUP_ITERS)
    solve(prob, trace_every=inst.trace_every, eval_fn=inst.eval_fn)


class Tally:
    """Attempted and failed solves; a failure is an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            out = fn(*args, **kwargs)
        except MissingHook:
            raise
        except Exception:  # a failed solve is counted and reported, the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        if out.problems:
            self.failed += 1
            print("failed check: " + "; ".join(out.problems), file=sys.stderr)
        return out


def _fits(started: float, seconds: float, costs: list[float]) -> bool:
    # start another round only if a typical one still ends inside the window
    return perf_counter() - started + median(costs) <= seconds


def measure(workload: Workload, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics over as many instances as the window holds."""
    warm_up(workload, seed)
    tally = Tally()
    outcomes, costs = [], []
    started = perf_counter()
    i = 0
    while i == 0 or _fits(started, seconds, costs):
        t0 = perf_counter()
        out = tally.run(solve_once, workload, instance_seed(seed, i))
        costs.append(perf_counter() - t0)
        if out is not None:
            outcomes.append(out)
            _print_outcome(i, out)
        i += 1
    metrics = {}
    if outcomes:
        metrics = {
            "setup_s": median(o.setup_s for o in outcomes),
            "solve_s": median(o.solve_s for o in outcomes),
            "peak_scalars": max(o.peak_scalars for o in outcomes),
            "rss_peak_mib": rss_peak_mib(),
        }
    return _result(tally, metrics, END_TO_END_UNITS)


def measure_traced(workload: Workload, seed: int, seconds: float) -> tuple[dict, list]:
    """Traced run: per-layer metrics, and proof that tracing changed no result.

    Returns the result and the spans of the last traced solve.
    """
    warm_up(workload, seed)
    tally = Tally()
    layers, overheads, setups, spans = [], [], [], []
    quality = None
    started = perf_counter()
    costs = []
    i = 0
    while i == 0 or _fits(started, seconds, costs):
        t0 = perf_counter()
        s = instance_seed(seed, i)
        plain = tally.run(solve_once, workload, s)
        recorder, high_water = Recorder(), {}
        traced = tally.run(solve_once, workload, s, recorder, high_water)
        costs.append(perf_counter() - t0)
        if plain is not None and traced is not None:
            if (traced.final_gap, traced.recovery_err) != (plain.final_gap, plain.recovery_err):
                tally.failed += 1
                print(f"tracing changed the result of instance {i}: gap {plain.final_gap!r} -> "
                      f"{traced.final_gap!r}, error {plain.recovery_err!r} -> "
                      f"{traced.recovery_err!r}", file=sys.stderr)
            if i == 0:
                quality = plain
            metrics = layer_metrics(recorder.spans, high_water)
            layers.append(metrics)
            overheads.append(traced.solve_s / plain.solve_s - 1.0)
            setups += [plain.setup_s, traced.setup_s]
            spans = recorder.spans
            _print_outcome(i, plain)
        i += 1
    metrics = {}
    if layers and quality is not None:
        metrics = {key: median_low(m[key] for m in layers) for key in layers[0]}
        metrics["probgen.gen_s"] = median(setups)
        metrics["solver.iterations"] = quality.iterations
        metrics["solver.final_gap"] = quality.final_gap
        metrics["solver.recovery_err"] = quality.recovery_err
        metrics["trace_overhead"] = median(overheads)
    return _result(tally, metrics, PER_LAYER_UNITS), spans


def _result(tally: Tally, metrics: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(metrics))
    if metrics and missing:
        raise RuntimeError(f"metrics not produced: {', '.join(missing)}")
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


def _print_outcome(i: int, out: Outcome) -> None:
    print(f"instance {i}: setup {out.setup_s:.4f} s, solve {out.solve_s:.4f} s, "
          f"peak {out.peak_scalars} scalars, final gap {out.final_gap!r}, "
          f"recovery error {out.recovery_err!r}")


def rss_peak_mib() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sketchycgm": sketchycgm.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count OpenBLAS reports, or None when its library cannot be queried."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def write_spans(path: str, workload: str, seed: int, env: dict, result: dict, spans) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = spans[0][2] if spans else 0.0
    doc = {
        "workload": workload,
        "seed": seed,
        "environment": env,
        "result": result,
        "span_fields": ["name", "parent", "start_s", "end_s", "computed_bytes"],
        "spans": [[n, p, s - t0, e - t0, b] for n, p, s, e, b in spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
