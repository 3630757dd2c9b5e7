"""Acceptance gate: the ten headline claims, one test and one line each.

Run with -s to see the per-criterion PASS/FAIL lines; each test also fails
loudly on its own. Instances are small enough for a laptop but chosen so
every tolerance below is the claim's own, not a softened stand-in.
"""

import time

import numpy as np

from sketchycgm import (
    Loss,
    SpectralConfig,
    SyntheticCompletionSpec,
    SyntheticPhaseSpec,
    cgm_dense_solve,
    gen_completion_problem,
    gen_phase_problem,
    measure_dense,
    phase_aligned_error,
    solve,
)
from sketchycgm.cli import bench_memory_rows, sketch_rank_exact_suite, sketch_tail_suite
from helpers import spiked_completion_problem


def _report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_ac01_sketch_rank_exactness():
    t0 = time.perf_counter()
    rep = sketch_rank_exact_suite(m=200, n=150, ranks=(1, 3, 5), trials=50)
    wall = time.perf_counter() - t0
    ok = rep["pass"] and wall < 10.0
    _report("AC1 sketch exactness", ok, f"max rel err {rep['max_rel_err']:.2e}, {wall:.1f}s")


def test_ac02_sketch_tail_bound():
    t0 = time.perf_counter()
    rep = sketch_tail_suite(m=200, n=150, tau=0.1, trials=100)
    wall = time.perf_counter() - t0
    ok = rep["pass"] and wall < 30.0
    _report(
        "AC2 tail bound",
        ok,
        f"mean err {rep['mean_err']:.3f} vs bound {rep['bound']:.3f}, {wall:.1f}s",
    )


def test_ac03_loop_invariants():
    # the dense run takes the sketchy run's vertices; its X, built from them
    # alone, is the ground truth for the sketchy run's z, Y and W
    t0 = time.perf_counter()
    make = lambda: spiked_completion_problem(
        5, m=30, n=20, obs_fraction=0.9, alpha=0.5, rank=3, eps=1e-300, max_iters=200
    )
    prob = make()
    snaps = {}
    panels = {}

    def grab(record, state):
        sk = state.sketch
        snaps[record.t] = (state.z.copy(), sk.Y.copy(), sk.W.copy())
        panels.setdefault("Om", sk.Omega)
        panels.setdefault("Ps", sk.Psi)

    solve(prob, trace_every=1, callback=grab)
    Om, Ps = panels["Om"], panels["Ps"]
    ref = make()
    devs = []

    def check_full(record, X):
        z, Y, W = snaps[record.t]
        zx = measure_dense(ref.op, X)
        dz = np.linalg.norm(z - zx) / max(np.linalg.norm(zx), 1.0)
        dY = np.linalg.norm(Y - X @ Om) / max(np.linalg.norm(X @ Om), 1.0)
        dW = np.linalg.norm(W - Ps @ X) / max(np.linalg.norm(Ps @ X), 1.0)
        devs.append(max(dz, dY, dW))

    cgm_dense_solve(ref, trace_every=1, callback=check_full)
    wall = time.perf_counter() - t0
    worst = max(devs)
    ok = len(devs) == 201 and worst <= 1e-8 and wall < 20.0
    _report("AC3 loop invariants", ok, f"worst rel dev {worst:.2e} over 200 iters, {wall:.1f}s")


def _gap_soundness_instances():
    return [
        spiked_completion_problem(
            seed, m=12, n=9, obs_fraction=0.85, alpha=0.5, rank=1,
            eps=1e-300, max_iters=300,
        )
        for seed in range(10)
    ]


def _reference_optimum(seed):
    ref = spiked_completion_problem(
        seed, m=12, n=9, obs_fraction=0.85, alpha=0.5, rank=1,
        eps=1e-9, max_iters=5000,
    )
    _, trace = cgm_dense_solve(ref, spectral_mode="dense", trace_every=1)
    assert trace[-1].gap <= 1e-9, f"reference run stalled at gap {trace[-1].gap:.2e}"
    return trace[-1].objective


def test_ac04_gap_soundness():
    worst = -np.inf
    for seed, prob in enumerate(_gap_soundness_instances()):
        fstar = _reference_optimum(seed)
        _, trace = solve(prob, trace_every=1)
        for rec in trace:
            worst = max(worst, (rec.objective - fstar) - rec.gap)
    ok = worst <= 1e-8
    _report("AC4 gap soundness", ok, f"max (f - f*) - gap = {worst:.2e} over 10 instances")


def test_ac05_rate_envelope():
    worst_excess = -np.inf
    for seed, prob in enumerate(_gap_soundness_instances()):
        fstar = _reference_optimum(seed)
        _, trace = solve(prob, trace_every=1)
        subopt = {rec.t: rec.objective - fstar for rec in trace}
        c_emp = max((t + 2) * subopt[t] / 2.0 for t in range(1, 6))
        for t, s in subopt.items():
            if t >= 1:
                worst_excess = max(worst_excess, s - 2.0 * c_emp / (t + 2) )
    ok = worst_excess <= 1e-12
    _report("AC5 rate envelope", ok, f"max excess over envelope {worst_excess:.2e}")


def test_ac06_phase_retrieval_desk_scale():
    t0 = time.perf_counter()
    hits = 0
    errs = []
    for seed in range(10):
        prob, x = gen_phase_problem(
            SyntheticPhaseSpec(n=64, views=20, noise_kind="none", seed=seed),
            eps=1e-300,
            max_iters=300,
        )
        factors, _ = solve(prob, trace_every=300)
        err = phase_aligned_error(factors.top_vector(), x)
        errs.append(err)
        hits += err <= 0.05
    wall = time.perf_counter() - t0
    ok = hits >= 8 and wall < 60.0
    _report(
        "AC6 phase retrieval",
        ok,
        f"{hits}/10 seeds below 0.05 (median err {np.median(errs):.3f}), {wall:.1f}s",
    )


def test_ac07_poisson_variant_beats_mismatched_gauss():
    wins = 0
    for seed in range(10):
        pspec = SyntheticPhaseSpec(n=64, views=10, noise_kind="poisson", snr_db=20.0, seed=seed)
        errs = {}
        for kind in ("poisson", "gauss"):
            prob, x = gen_phase_problem(pspec, loss_kind=kind, eps=1e-300, max_iters=300)
            factors, _ = solve(prob, trace_every=300)
            errs[kind] = phase_aligned_error(factors.top_vector(), x)
        wins += errs["poisson"] < errs["gauss"]
    ok = wins >= 7
    _report("AC7 poisson variant", ok, f"poisson loss wins {wins}/10 seeds at SNR 20 dB")


def test_ac08_storage_scaling():
    t0 = time.perf_counter()
    ns = [256, 512, 1024, 2048, 4096, 8192]
    rows = bench_memory_rows(ns, rank=1, views=10, iters=3, seed=0)
    wall = time.perf_counter() - t0
    peaks = np.array([r[1] for r in rows], dtype=float)
    A = np.vstack([np.array(ns, float), np.ones(len(ns))]).T
    coef, *_ = np.linalg.lstsq(A, peaks, rcond=None)
    resid = float(np.abs(A @ coef - peaks).max() / peaks.min())
    dense = [float(r[2]) for r in rows if r[2] != "oom-guard"]
    ratios = [dense[i + 1] / dense[i] for i in range(len(dense) - 1)]
    guarded = sum(1 for r in rows if r[2] == "oom-guard")
    ok = (
        resid <= 0.05
        and len(ratios) >= 1
        and all(3.4 <= q <= 4.6 for q in ratios)
        and wall < 120.0
    )
    _report(
        "AC8 storage scaling",
        ok,
        f"affine fit {coef[0]:.0f}*n+{coef[1]:.0f} (resid {resid:.1e}), "
        f"dense ratios {[round(q, 2) for q in ratios]}, {guarded} guarded, {wall:.1f}s",
    )


def test_ac09_gradient_checks():
    rng = np.random.default_rng(99)
    worst = 0.0
    d = 7
    for kind in ("gauss", "huber", "logistic", "poisson"):
        if kind == "logistic":
            b = rng.choice([-1.0, 1.0], size=d)
        elif kind == "poisson":
            b = rng.integers(1, 20, size=d).astype(float)
        else:
            b = rng.standard_normal(d)
        loss = Loss(kind, b, normalization=1.0 / d)
        for _ in range(50):
            z = rng.standard_normal(d)
            if kind == "poisson":
                z = np.abs(z) + 0.3
            num = np.empty(d)
            h = 1e-6
            for i in range(d):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                num[i] = (loss.value(zp) - loss.value(zm)) / (2 * h)
            ana = loss.gradient(z)
            worst = max(worst, np.linalg.norm(ana - num) / max(np.linalg.norm(num), 1e-12))
    ok = worst <= 1e-5
    _report("AC9 gradient checks", ok, f"max rel error {worst:.2e} over 4 x 50 points")


def test_ac10_low_rank_recovery():
    cspec = SyntheticCompletionSpec(
        m=30, n=20, true_rank=2, obs_fraction=0.9, noise=0.0, test_fraction=0.0, seed=21
    )
    prob, _, _ = gen_completion_problem(cspec, eps=1e-300, max_iters=2000)
    factors, _ = solve(prob, trace_every=2000)
    Xhat = factors.dense()

    ref, _, _ = gen_completion_problem(cspec, eps=1e-300, max_iters=2000)
    Xd, _ = cgm_dense_solve(ref, trace_every=2000)
    U, s, Vh = np.linalg.svd(Xd)
    Xstar = (U[:, :2] * s[:2]) @ Vh[:2]

    rel = np.linalg.norm(Xhat - Xstar) / np.linalg.norm(Xstar)
    ok = rel <= 1e-2
    _report("AC10 rank-2 recovery", ok, f"rel distance to oracle {rel:.2e} at t=2000")
