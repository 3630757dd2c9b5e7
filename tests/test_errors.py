"""One input rule for every vector the library takes: shape, then field, then finiteness."""

import numpy as np
import pytest

from sketchycgm import DimensionMismatch, EntrySamplingOperator, Loss, NonFiniteInput, Sketch

# a 3-by-2 real entry-sampling operator with d = 3, so m, n and d all differ from 4
_OP = EntrySamplingOperator(3, 2, [0, 1, 2], [0, 1, 0])

# name: (call on the vector under test, its expected length, whether NaN is refused)
_CALLERS = {
    "operator-rank-one-u": (lambda x: _OP.apply_rank_one(x, np.ones(2)), 3, True),
    "operator-rank-one-v": (lambda x: _OP.apply_rank_one(np.ones(3), x), 2, True),
    "operator-left-adjoint-z": (lambda x: _OP.left_apply_adjoint(x, np.ones(3)), 3, False),
    "operator-left-adjoint-u": (lambda x: _OP.left_apply_adjoint(np.ones(3), x), 3, False),
    "operator-right-adjoint-z": (lambda x: _OP.right_apply_adjoint(x, np.ones(2)), 3, False),
    "operator-right-adjoint-v": (lambda x: _OP.right_apply_adjoint(np.ones(3), x), 2, False),
    # b sets the loss's length, so only an empty b has the wrong shape
    "loss-b": (lambda x: Loss("gauss", x), None, True),
    "loss-value": (lambda x: Loss("gauss", np.ones(4)).value(x), 4, True),
    "loss-gradient": (lambda x: Loss("gauss", np.ones(4)).gradient(x), 4, True),
    "sketch-u": (lambda x: Sketch(3, 2, 1).linear_update(1.0, 1.0, x, np.ones(2)), 3, True),
    "sketch-v": (lambda x: Sketch(3, 2, 1).linear_update(1.0, 1.0, np.ones(3), x), 2, True),
}


def _bad_vector(kind, size):
    """An empty, too long, complex or NaN-holding vector, or a complex one holding a NaN."""
    if kind == "empty":
        return np.ones(0)
    if kind == "too-long":
        return np.ones(size + 1)
    x = np.ones(size) + 1j if kind.startswith("complex") else np.ones(size)
    if kind.endswith("nan"):
        x[0] = np.nan
    return x


def _cases():
    for name, (call, size, finite) in _CALLERS.items():
        kinds = {"empty": DimensionMismatch, "too-long": DimensionMismatch,
                 "complex": DimensionMismatch, "nan": NonFiniteInput if finite else None,
                 "complex-nan": DimensionMismatch}
        if size is None:
            del kinds["too-long"]
        for kind, error in kinds.items():
            yield pytest.param(call, _bad_vector(kind, size or 4), error, id=f"{name}-{kind}")


@pytest.mark.parametrize("call, x, error", _cases())
def test_every_vector_input_follows_one_rule(call, x, error):
    # the field is checked before finiteness, so a complex NaN is a field error everywhere
    if error is None:
        assert np.any(np.isnan(call(x)))
        return
    with pytest.raises(error) as exc:
        call(x)
    assert type(exc.value) is error
