import re
import warnings

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
    # a norm that overflows or is NaN is not a unit row either, and numpy
    # warns of neither before the error names it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for row, norm in (([1e200, 1e200], "inf"), ([np.nan, 1.0], "nan")):
            with pytest.raises(DegenerateInputError,
                               match=f"probe row has non-finite norm {norm}"):
                unit_rows(np.vstack([x, row]), "probe row")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("d", [1, 3, 16])
def test_unit_rows_of_no_rows_are_empty(d):
    u, norms = unit_rows(np.empty((0, d)), "probe row")
    assert u.shape == (0, d) and norms.shape == (0, 1)


@pytest.mark.parametrize("rows, message", [
    ([[np.nan, 1.0]], "non-finite norm nan"),
    ([[np.inf, 1.0]], "non-finite norm inf"),
    ([[1.0, -np.inf]], "non-finite norm inf"),
    ([[0.0, 0.0], [np.nan, 1.0]], "near-zero norm 0.000e+00"),
    ([[np.nan, 1.0], [0.0, 0.0]], "non-finite norm nan"),
    ([[np.inf, 1.0], [np.nan, 0.0]], "non-finite norm inf"),
])
def test_unit_rows_names_the_first_degenerate_row(rows, message):
    x = np.vstack([[[3.0, 4.0], [0.0, 2.0]], rows, [[1.0, 1.0]]])
    with pytest.raises(DegenerateInputError, match=f"^probe row has {re.escape(message)}$"):
        unit_rows(x, "probe row")


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_unit_rows_equal_numpy_linalg_norm_bit_for_bit(layout):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((300, 16)) * np.exp(rng.uniform(-20, 20, (300, 1)))
    x = {"C": x, "F": np.asfortranarray(x), "strided": np.repeat(x, 2, axis=1)[:, ::2]}[layout]
    want = np.linalg.norm(x, axis=1, keepdims=True)
    u, norms = unit_rows(x, "probe row")
    assert np.array_equal(norms, want) and np.array_equal(u, x / want)


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
