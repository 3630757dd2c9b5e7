"""Loss values against hand-computed formulas, gradients against central
differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchycgm import DimensionMismatch, DomainError, Loss, NonFiniteInput, POISSON_FLOOR


def central_difference(loss, z, h=1e-6):
    z = np.asarray(z, dtype=float)
    g = np.empty_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (loss.value(zp) - loss.value(zm)) / (2 * h)
    return g


def test_gauss_value_by_hand():
    loss = Loss("gauss", [3.0, 1.0], normalization=0.5)
    # 0.5 * ((1-3)^2 + (2-1)^2) / 2
    assert loss.value([1.0, 2.0]) == pytest.approx(1.25, abs=1e-15)
    np.testing.assert_allclose(loss.gradient([1.0, 2.0]), [-1.0, 0.5])


def test_huber_value_by_hand():
    loss = Loss("huber", [3.0, 1.0])
    # r = [-2, 0.5]: linear branch 1*(2 - 0.5), quadratic branch 0.5*0.25
    assert loss.value([1.0, 1.5]) == pytest.approx(1.5 + 0.125, abs=1e-15)
    np.testing.assert_allclose(loss.gradient([1.0, 1.5]), [-1.0, 0.5])


def test_logistic_value_by_hand():
    loss = Loss("logistic", [1.0, -1.0])
    want = math.log1p(math.exp(-0.5)) + math.log1p(math.exp(-0.25))
    assert loss.value([0.5, -0.25]) == pytest.approx(want, rel=1e-15)


def test_poisson_value_by_hand():
    loss = Loss("poisson", [2.0, 0.0])
    want = (0.5 - 2.0 * math.log(0.5)) + 1.0
    assert loss.value([0.5, 1.0]) == pytest.approx(want, rel=1e-15)
    np.testing.assert_allclose(loss.gradient([0.5, 1.0]), [-3.0, 1.0])


def test_poisson_floor_keeps_value_finite():
    loss = Loss("poisson", [1.0])
    v = loss.value([0.0])
    assert np.isfinite(v)
    assert v == pytest.approx(POISSON_FLOOR - math.log(POISSON_FLOOR), rel=1e-12)
    g = loss.gradient([0.0])
    assert g[0] == pytest.approx(1.0 - 1.0 / POISSON_FLOOR, rel=1e-12)


def test_normalization_scales_value_and_gradient():
    base = Loss("gauss", [1.0, 2.0])
    scaled = Loss("gauss", [1.0, 2.0], normalization=0.25)
    z = np.array([4.0, -1.0])
    assert scaled.value(z) == pytest.approx(0.25 * base.value(z), rel=1e-15)
    np.testing.assert_allclose(scaled.gradient(z), 0.25 * base.gradient(z))


@pytest.mark.parametrize("kind", ["gauss", "huber", "logistic", "poisson"])
def test_gradient_central_difference(kind):
    rng = np.random.default_rng(17)
    d = 6
    if kind == "logistic":
        b = rng.choice([-1.0, 1.0], size=d)
    elif kind == "poisson":
        b = rng.integers(0, 10, size=d).astype(float)
    else:
        b = rng.standard_normal(d)
    loss = Loss(kind, b, normalization=1.0 / d)
    for _ in range(10):
        z = rng.standard_normal(d)
        if kind == "poisson":
            z = np.abs(z) + 0.5  # stay clear of the clamp
        num = central_difference(loss, z)
        ana = loss.gradient(z)
        scale = max(np.linalg.norm(num), 1e-12)
        assert np.linalg.norm(ana - num) / scale <= 1e-6


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown loss kind"):
        Loss("absolute", [1.0])


def test_logistic_label_domain():
    with pytest.raises(DomainError):
        Loss("logistic", [1.0, 0.5])


def test_poisson_negative_counts_rejected():
    with pytest.raises(DomainError):
        Loss("poisson", [-1.0])


def test_empty_measurements_rejected():
    with pytest.raises(Exception):
        Loss("gauss", [])


def test_nonfinite_measurements_rejected():
    with pytest.raises(NonFiniteInput):
        Loss("gauss", [1.0, np.nan])


def test_nonfinite_argument_rejected():
    loss = Loss("gauss", [1.0])
    with pytest.raises(NonFiniteInput):
        loss.value([np.inf])


def test_complex_measurements_rejected():
    with pytest.raises(DimensionMismatch, match="complex"):
        Loss("gauss", [1.0, 2.0 + 1e-3j])


def test_complex_argument_rejected():
    # refused, where a cast to float would drop the imaginary part
    loss = Loss("gauss", [1.0, 2.0])
    z = np.array([1.0, 2.0]) + 1j
    for method in (loss.value, loss.gradient):
        with pytest.raises(DimensionMismatch, match="complex"):
            method(z)


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["gauss", "huber", "logistic"]),
    seed=st.integers(0, 2**31 - 1),
    lam=st.floats(0.0, 1.0),
)
def test_convexity_along_segments(kind, seed, lam):
    rng = np.random.default_rng(seed)
    d = 5
    b = rng.choice([-1.0, 1.0], size=d) if kind == "logistic" else rng.standard_normal(d)
    loss = Loss(kind, b)
    x = 3.0 * rng.standard_normal(d)
    y = 3.0 * rng.standard_normal(d)
    mid = loss.value(lam * x + (1 - lam) * y)
    assert mid <= lam * loss.value(x) + (1 - lam) * loss.value(y) + 1e-9


@pytest.mark.parametrize(
    "call, error, match",
    [
        pytest.param(lambda: Loss("gauss", [1.0], normalization=0.0), ValueError,
                     "normalization", id="normalization-zero"),
        pytest.param(lambda: Loss("gauss", [1.0], normalization=-1.0), ValueError,
                     "normalization", id="normalization-negative"),
        pytest.param(lambda: Loss("gauss", [1.0], normalization=np.inf), ValueError,
                     "normalization", id="normalization-infinite"),
        pytest.param(lambda: Loss("gauss", [1.0], normalization=np.nan), ValueError,
                     "normalization", id="normalization-nan"),
        pytest.param(lambda: Loss("gauss", [1.0, 2.0]).value([1.0]), DimensionMismatch,
                     "shape", id="value-misshapen-z"),
        pytest.param(lambda: Loss("huber", [1.0, 2.0]).gradient(np.ones((2, 1))),
                     DimensionMismatch, "shape", id="gradient-misshapen-z"),
    ],
)
def test_input_checks_raise_typed_errors(call, error, match):
    with pytest.raises(error, match=match) as exc:
        call()
    assert type(exc.value) is error
