"""Benchmark entry point: one workload, one seed, one run.

    python3 benchmark/run.py --workload phase8192 --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the solver is imported from its
``src`` directory, never from an installed copy. Prints one line per solved
instance, the environment, every metric with its unit, and as the last line
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). A traced run also writes its spans to
``.bench_out/<workload>-seed<seed>-spans.json``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread: it is no slower on these workloads, and results stop
# depending on how the scheduler splits reductions. Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "sketchycgm" / "__init__.py").is_file():
        print(f"no solver sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    import sketchycgm

    if Path(sketchycgm.__file__).resolve().parent != (src / "sketchycgm").resolve():
        print(f"imported sketchycgm from {sketchycgm.__file__}, not {src}", file=sys.stderr)
        return 2

    env = harness.environment()
    print("environment " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload]
    if args.trace:
        result, spans = harness.measure_traced(workload, args.seed, args.seconds)
        out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-spans.json"
        harness.write_spans(str(out), args.workload, args.seed, env, result, spans)
    else:
        result = harness.measure(workload, args.seed, args.seconds)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
