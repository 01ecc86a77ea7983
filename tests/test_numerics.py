import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtg.numerics import (DegenerateInputError, as_matrix, as_vector,
                          finite_diff_check, softmax, unit_rows)


def test_softmax_uniform():
    out = softmax(np.zeros(5))
    assert np.allclose(out, 0.2)


def test_softmax_shift_invariant():
    z = np.array([1.0, -2.0, 0.5])
    assert np.allclose(softmax(z), softmax(z + 100.0))


def test_softmax_overflow_safe():
    out = softmax(np.array([1e4, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] > 0.999


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_simplex(zs):
    out = softmax(np.array(zs))
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-12


def test_unit_rows_returns_norms_and_names_a_degenerate_row():
    x = np.array([[3.0, 4.0], [0.0, 2.0]])
    u, norms = unit_rows(x, "probe row")
    assert np.array_equal(u, [[0.6, 0.8], [0.0, 1.0]]) and np.array_equal(norms, [[5.0], [2.0]])
    with pytest.raises(DegenerateInputError, match="probe row has near-zero norm"):
        unit_rows(np.vstack([x, [1e-13, 0.0]]), "probe row")
    # a norm that overflows or is NaN is not a unit row either
    for row, norm in (([1e200, 1e200], "inf"), ([np.nan, 1.0], "nan")):
        with pytest.raises(DegenerateInputError, match=f"probe row has non-finite norm {norm}"):
            unit_rows(np.vstack([x, row]), "probe row")


def test_as_vector_rejects_matrix_and_nan():
    with pytest.raises(ValueError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.nan]))


def test_as_matrix_rejects_vector():
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.inf]]))


def test_finite_diff_check_catches_wrong_gradient():
    f = lambda p: float((p["x"] ** 2).sum())
    x = np.array([1.0, 2.0])
    good = finite_diff_check(f, {"x": x}, {"x": 2 * x})
    assert good.max_rel_error < 1e-8
    bad = finite_diff_check(f, {"x": x}, {"x": 3 * x})
    assert bad.max_rel_error > 1e-2
