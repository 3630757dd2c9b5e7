"""In-memory spans around calls into each layer, recorded from outside the solver.

Hooks wrap only public names that the solver reaches at run time: operator
primitives on the instance, ``Loss.gradient``/``value``,
``Sketch.cgm_update``/``reconstruct``, the spectral routines as
``sketchycgm.solver`` looks them up, and ``add`` on the allocation ledger
for per-tag high-water marks. A hook whose target is gone, or that never
fires during a traced solve, fails the run with its name.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import sketchycgm.memory
import sketchycgm.solver
from sketchycgm import Loss, Sketch

LEDGER_TAGS = ("solver", "spectral", "sketch", "losses", "operators")


class MissingHook(RuntimeError):
    """A traced name no longer exists, or the solver no longer calls it."""


def ledger():
    """The allocation ledger the solver charges; the one place that knows where it lives."""
    return sketchycgm.memory.ledger


def _adjoint_bytes(args, out) -> int:
    # computed from array sizes: both inputs read once, the output written once
    return sum(a.nbytes for a in args) + out.nbytes


class Recorder:
    """Spans as [name, parent index, start, end, computed bytes], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, measure=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, out)
            return out

        return traced


@contextmanager
def hooks(recorder: Recorder, op, high_water: dict):
    """Install every hook for one solve on ``op``; restore the originals on exit."""
    led = ledger()
    targets = [
        (op, "apply_rank_one", "operators.rank_one", None),
        (op, "left_apply_adjoint", "operators.adjoint", _adjoint_bytes),
        (op, "right_apply_adjoint", "operators.adjoint", _adjoint_bytes),
        (Loss, "gradient", "losses.gradient", None),
        (Loss, "value", "losses.value", None),
        (Sketch, "cgm_update", "sketch.update", None),
        (Sketch, "reconstruct", "sketch.reconstruct", None),
        (sketchycgm.solver, "min_eig", "spectral", None),
        (sketchycgm.solver, "max_sing_vec", "spectral", None),
    ]
    missing = [f"{_label(owner)}.{attr}" for owner, attr, _, _ in targets if not hasattr(owner, attr)]
    missing += [f"ledger.{attr}" for attr in ("add", "live", "reset", "peak") if not hasattr(led, attr)]
    if missing:
        raise MissingHook("hook targets not found: " + ", ".join(missing))

    high_water.update(led.live())
    add = led.add

    def add_and_mark(tag, count):
        add(tag, count)
        live = led.live().get(tag, 0)
        if live > high_water.get(tag, 0):
            high_water[tag] = live

    saved = [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in targets]
    saved.append((led, "add", vars(led).get("add")))
    try:
        for owner, attr, name, measure in targets:
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), measure))
        led.add = add_and_mark
        yield
    finally:
        for owner, attr, original in saved:
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _label(owner) -> str:
    return getattr(owner, "__name__", type(owner).__name__)


SPAN_NAMES = ("operators.adjoint", "operators.rank_one", "losses.gradient", "losses.value",
              "sketch.update", "sketch.reconstruct", "spectral")


def layer_metrics(spans: list[list], high_water: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced solve whose root span is spans[0]."""
    dur = [end - start for _, _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
    silent = [name for name in SPAN_NAMES if name not in by_name]
    if silent:
        raise MissingHook("hooks never fired during the traced solve: " + ", ".join(silent))

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(dur[i] for i in by_name[name])

    spectral = set(by_name["spectral"])
    matvecs = sum(1 for i in by_name["operators.adjoint"] if spans[i][1] in spectral)
    out = {
        "losses.gradient_calls": calls("losses.gradient"),
        "losses.gradient_s": busy("losses.gradient"),
        "losses.value_calls": calls("losses.value"),
        "losses.value_s": busy("losses.value"),
        "operators.adjoint_calls": calls("operators.adjoint"),
        "operators.adjoint_s": busy("operators.adjoint"),
        "operators.adjoint_us_per_call": 1e6 * busy("operators.adjoint") / calls("operators.adjoint"),
        "operators.adjoint_bytes": sum(spans[i][4] for i in by_name["operators.adjoint"]),
        "operators.rank_one_calls": calls("operators.rank_one"),
        "operators.rank_one_s": busy("operators.rank_one"),
        "spectral.calls": calls("spectral"),
        "spectral.s": busy("spectral"),
        "spectral.self_s": sum(dur[i] - covered[i] for i in spectral),
        "spectral.matvecs_per_call": matvecs / calls("spectral"),
        "sketch.update_calls": calls("sketch.update"),
        "sketch.update_s": busy("sketch.update"),
        "sketch.reconstruct_calls": calls("sketch.reconstruct"),
        "sketch.reconstruct_s": busy("sketch.reconstruct"),
        "solver.s": dur[0],
        "solver.self_s": dur[0] - covered[0],
    }
    for tag in LEDGER_TAGS:
        out[f"memory.peak.{tag}"] = high_water.get(tag, 0)
    return out
