"""Synthetic problem generators: seeding, noise calibration, alpha choices."""

import numpy as np
import pytest

from sketchycgm import (
    ProblemSpec,
    SpectralConfig,
    SyntheticCompletionSpec,
    SyntheticPhaseSpec,
    gen_completion_problem,
    gen_phase_problem,
    poisson_photon_scale,
    write_triples,
)


def _realized_snr_db(clean, noisy):
    return 10.0 * np.log10(
        np.linalg.norm(clean) ** 2 / np.linalg.norm(noisy - clean) ** 2
    )


class TestPhaseGenerator:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticPhaseSpec(n=0)
        with pytest.raises(ValueError):
            SyntheticPhaseSpec(n=8, noise_kind="uniform")

    def test_noiseless_measurements_are_exact_intensities(self):
        prob, x = gen_phase_problem(SyntheticPhaseSpec(n=16, views=4, seed=2))
        clean = prob.op.psd_measure(x)
        np.testing.assert_array_equal(prob.loss.b, clean)
        assert prob.template == "psd"
        assert prob.variant == "standard"

    def test_alpha_is_rescaled_measurement_mean(self):
        prob, x = gen_phase_problem(SyntheticPhaseSpec(n=32, views=8, seed=3))
        assert prob.alpha == pytest.approx(
            prob.op.n * np.mean(prob.loss.b), rel=1e-12
        )
        # for unitary views the rescaled mean estimates the planted trace
        assert prob.alpha == pytest.approx(np.linalg.norm(x) ** 2, rel=0.35)

    def test_gaussian_noise_hits_requested_snr(self):
        spec = SyntheticPhaseSpec(n=32, views=10, noise_kind="gaussian", snr_db=20.0, seed=4)
        prob, x = gen_phase_problem(spec)
        clean = prob.op.psd_measure(x)
        assert _realized_snr_db(clean, prob.loss.b) == pytest.approx(20.0, abs=0.5)

    def test_poisson_noise_near_requested_snr(self):
        spec = SyntheticPhaseSpec(n=32, views=10, noise_kind="poisson", snr_db=20.0, seed=5)
        prob, x = gen_phase_problem(spec)
        clean = prob.op.psd_measure(x)
        assert np.all(prob.loss.b >= 0)
        assert _realized_snr_db(clean, prob.loss.b) == pytest.approx(20.0, abs=1.0)
        assert prob.loss.kind == "poisson"
        assert prob.variant == "poisson"

    def test_loss_kind_override(self):
        spec = SyntheticPhaseSpec(n=16, views=4, noise_kind="poisson", snr_db=20.0, seed=6)
        prob, _ = gen_phase_problem(spec, loss_kind="gauss")
        assert prob.loss.kind == "gauss"
        assert prob.variant == "standard"

    def test_determinism(self):
        a, xa = gen_phase_problem(SyntheticPhaseSpec(n=16, views=4, seed=7))
        b, xb = gen_phase_problem(SyntheticPhaseSpec(n=16, views=4, seed=7))
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(a.loss.b, b.loss.b)
        np.testing.assert_array_equal(a.op.modulations, b.op.modulations)

    def test_seed_changes_signal(self):
        _, xa = gen_phase_problem(SyntheticPhaseSpec(n=16, views=4, seed=8))
        _, xb = gen_phase_problem(SyntheticPhaseSpec(n=16, views=4, seed=9))
        assert np.linalg.norm(xa - xb) > 1e-3


def test_poisson_photon_scale_formula():
    clean = np.array([1.0, 2.0, 3.0])
    c = poisson_photon_scale(clean, 10.0)
    assert c == pytest.approx(10.0 * 6.0 / 14.0, rel=1e-12)
    with pytest.raises(ValueError):
        poisson_photon_scale(np.zeros(3), 10.0)


class TestCompletionGenerator:
    def test_observed_values_match_truth(self):
        spec = SyntheticCompletionSpec(m=14, n=10, true_rank=2, obs_fraction=0.5, seed=0)
        prob, (G1, G2), ev = gen_completion_problem(spec)
        X = G1 @ G2.T
        np.testing.assert_allclose(
            prob.loss.b, X[prob.op.rows, prob.op.cols], atol=1e-12
        )
        np.testing.assert_allclose(ev.values, X[ev.rows, ev.cols], atol=1e-12)

    def test_train_test_split_disjoint_and_sized(self):
        spec = SyntheticCompletionSpec(
            m=12, n=9, true_rank=2, obs_fraction=0.5, test_fraction=0.25, seed=1
        )
        prob, _, ev = gen_completion_problem(spec)
        total = int(round(0.5 * 12 * 9))
        n_test = int(round(0.25 * total))
        assert ev.rows.size == n_test
        assert prob.op.d == total - n_test
        train = set(zip(prob.op.rows.tolist(), prob.op.cols.tolist()))
        test = set(zip(ev.rows.tolist(), ev.cols.tolist()))
        assert not train & test

    def test_alpha_defaults_to_exact_nuclear_norm(self):
        spec = SyntheticCompletionSpec(m=10, n=8, true_rank=3, obs_fraction=0.6, seed=2)
        prob, (G1, G2), _ = gen_completion_problem(spec)
        want = np.linalg.svd(G1 @ G2.T, compute_uv=False).sum()
        assert prob.alpha == pytest.approx(want, rel=1e-12)
        assert prob.rank == 3

    def test_alpha_and_rank_overrides(self):
        spec = SyntheticCompletionSpec(m=10, n=8, true_rank=2, obs_fraction=0.6, seed=3)
        prob, _, _ = gen_completion_problem(spec, rank=5, alpha=7.5)
        assert prob.rank == 5
        assert prob.alpha == 7.5

    def test_noise_perturbs_observations(self):
        base = SyntheticCompletionSpec(m=10, n=8, true_rank=2, obs_fraction=0.6, seed=4)
        noisy = SyntheticCompletionSpec(
            m=10, n=8, true_rank=2, obs_fraction=0.6, noise=0.1, seed=4
        )
        p0, (G1, G2), _ = gen_completion_problem(base)
        p1, _, _ = gen_completion_problem(noisy)
        X = G1 @ G2.T
        assert np.linalg.norm(p1.loss.b - X[p1.op.rows, p1.op.cols]) > 0.01
        np.testing.assert_array_equal(p0.op.rows, p1.op.rows)

    def test_zero_test_fraction_returns_no_eval(self):
        spec = SyntheticCompletionSpec(
            m=10, n=8, true_rank=2, obs_fraction=0.5, test_fraction=0.0, seed=5
        )
        _, _, ev = gen_completion_problem(spec)
        assert ev is None

    def test_loss_normalization_is_inverse_train_count(self):
        spec = SyntheticCompletionSpec(m=10, n=8, true_rank=2, obs_fraction=0.5, seed=6)
        prob, _, _ = gen_completion_problem(spec)
        assert prob.loss.normalization == pytest.approx(1.0 / prob.op.d)

    def test_determinism(self):
        spec = SyntheticCompletionSpec(m=10, n=8, true_rank=2, obs_fraction=0.5, seed=7)
        a, (A1, A2), _ = gen_completion_problem(spec)
        b, (B1, B2), _ = gen_completion_problem(spec)
        np.testing.assert_array_equal(A1, B1)
        np.testing.assert_array_equal(a.loss.b, b.loss.b)


PHASE = SyntheticPhaseSpec(n=16, views=4, seed=1)
COMPLETION = SyntheticCompletionSpec(m=10, n=8, true_rank=2, obs_fraction=0.6, seed=1)


def _generate(kind, **settings):
    if kind == "phase":
        return gen_phase_problem(PHASE, **settings)[0]
    return gen_completion_problem(COMPLETION, **settings)[0]


def _settings(prob):
    return (prob.alpha, prob.rank, prob.template, prob.eps, prob.max_iters, prob.spectral,
            prob.sketch_seed)


class TestSettingsPassThrough:
    """The generators own alpha's and rank's defaults; ProblemSpec owns the rest."""

    def test_phase_takes_alpha(self):
        assert _generate("phase", alpha=2.5).alpha == 2.5

    @pytest.mark.parametrize("kind", ["phase", "completion"])
    def test_omitted_settings_take_problem_spec_defaults(self, kind):
        prob = _generate(kind)
        assert prob.eps == ProblemSpec.eps
        assert prob.max_iters == ProblemSpec.max_iters
        assert prob.spectral == SpectralConfig()
        assert prob.sketch_seed == ProblemSpec.sketch_seed

    @pytest.mark.parametrize("kind", ["phase", "completion"])
    @pytest.mark.parametrize("name", ["spectral", "rank", "alpha", "eps", "max_iters",
                                      "sketch_seed"])
    def test_none_is_omitted(self, kind, name):
        assert _settings(_generate(kind, **{name: None})) == _settings(_generate(kind))

    @pytest.mark.parametrize("kind", ["phase", "completion"])
    def test_given_settings_pass_through(self, kind):
        spectral = SpectralConfig(tol=1e-7, seed=3)
        prob = _generate(kind, alpha=4.0, rank=2, eps=1e-3, max_iters=7, spectral=spectral,
                         sketch_seed=9)
        template = "psd" if kind == "phase" else "schatten1"
        assert _settings(prob) == (4.0, 2, template, 1e-3, 7, spectral, 9)

    @pytest.mark.parametrize("kind", ["phase", "completion"])
    @pytest.mark.parametrize("name", ["max_iter", "op", "loss", "template"])
    def test_unknown_or_fixed_settings_are_refused(self, kind, name):
        with pytest.raises(TypeError):
            _generate(kind, **{name: 1})
