import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelve import (
    Exponential,
    InvalidParameter,
    LevelOutOfRange,
    OrderedSample,
    SampleTooSmall,
    Uniform,
    empirical_es_n,
    empirical_pelve,
    empirical_pelve_rows,
    empirical_var,
    es_n_weights,
    is_degenerate,
    sample,
)
from pelve.empirical import block_rows
from pelve.pelve_solver import _solve


def test_ordered_sample_sorts_and_validates():
    s = OrderedSample([3, 1, 2])
    assert list(s.values) == [1, 2, 3]
    assert s.m == len(s) == 3
    with pytest.raises(InvalidParameter):
        OrderedSample([])
    with pytest.raises(InvalidParameter):
        OrderedSample([1.0, math.nan])


def test_ordered_sample_allows_duplicates():
    s = OrderedSample([2, 2, 2, 1])
    assert list(s.values) == [1, 2, 2, 2]


def test_empirical_var_cell_mapping():
    s = OrderedSample([1, 2, 3, 4])
    assert empirical_var(s, 0.5) == 2
    assert empirical_var(s, 0.51) == 3
    assert empirical_var(s, 0.25) == 1  # boundary p = 1/m -> first order stat
    assert empirical_var(s, 0.26) == 2
    with pytest.raises(LevelOutOfRange):
        empirical_var(s, 0.0)


def test_weight_examples():
    w = es_n_weights(2, 2, 0.0)
    assert w.weights == pytest.approx([0.25, 0.75], abs=1e-15)
    w = es_n_weights(4, 2, 0.9)
    assert list(w.weights) == [0.0, 0.0, 0.0, 1.0]
    w = es_n_weights(3, 1, 0.0)
    assert w.weights == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_weight_top_cell_is_exact():
    for m in (1, 3, 10):
        w = es_n_weights(m, 2, (m - 1) / m)
        assert w.weights[-1] == 1.0
        assert np.all(w.weights[:-1] == 0.0)


def test_weight_normalization_and_support():
    p_grid = [i / 20 for i in range(20)]
    for m in (1, 2, 3, 7, 25, 120, 500):
        for n in (1, 2, 3, 4):
            for p in p_grid:
                w = es_n_weights(m, n, p).weights
                assert np.all(w >= 0)
                assert abs(w.sum() - 1.0) <= 1e-12
                assert np.all(w[: math.floor(m * p)] == 0.0)


def test_weights_match_order2_piecewise_formula():
    # direct integral of the n=2 kernel 2(s-p)/(1-p)^2 over each cell
    for m in (3, 10, 47):
        for p in (0.0, 0.13, 0.5, 0.87):
            w = es_n_weights(m, 2, p).weights
            j = math.floor(m * p)
            for i in range(1, m + 1):
                lo, hi = (i - 1) / m, i / m
                if hi <= p:
                    expect = 0.0
                elif lo < p:
                    expect = (hi - p) ** 2 / (1 - p) ** 2
                else:
                    expect = ((hi - p) ** 2 - (lo - p) ** 2) / (1 - p) ** 2
                assert w[i - 1] == pytest.approx(expect, abs=1e-13), (m, p, i, j)


def test_weights_match_numeric_kernel_integral():
    # general-n weights equal the cell integrals of n(s-p)^(n-1)/(1-p)^n
    from scipy.integrate import quad

    for m, n, p in [(5, 3, 0.1), (8, 4, 0.37), (6, 1, 0.5)]:
        w = es_n_weights(m, n, p).weights
        for i in range(1, m + 1):
            lo, hi = max((i - 1) / m, p), i / m
            expect = 0.0
            if hi > p:
                expect = quad(
                    lambda s: n * (s - p) ** (n - 1) / (1 - p) ** n, lo, hi
                )[0]
            assert w[i - 1] == pytest.approx(expect, abs=1e-12)


def test_empirical_es_examples():
    assert empirical_es_n(OrderedSample([5, 5, 5]), 3, 0.4) == 5.0
    assert empirical_es_n(OrderedSample([1, 2]), 2, 0.0) == pytest.approx(1.75)
    grid = OrderedSample([(i - 0.5) / 10 ** 4 for i in range(1, 10 ** 4 + 1)])
    assert empirical_es_n(grid, 2, 0.1) == pytest.approx(0.1 / 3 + 2 / 3, abs=1e-3)


def test_empirical_es_top_k_mean():
    # n=1 at p=(m-k)/m is exactly the mean of the top k order statistics
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.normal(size=40)
    s = OrderedSample(x)
    for k in (1, 5, 17, 40):
        expect = np.sort(x)[-k:].mean()
        assert empirical_es_n(s, 1, (40 - k) / 40) == pytest.approx(expect, abs=1e-12)


def test_empirical_affine_equivariance():
    rng = np.random.Generator(np.random.PCG64(11))
    x = rng.exponential(size=60)
    s = OrderedSample(x)
    t = OrderedSample(2.5 * x + 3.0)
    for n in (1, 2, 3):
        for p in (0.0, 0.4, 0.9):
            a = empirical_es_n(s, n, p)
            b = empirical_es_n(t, n, p)
            assert b == pytest.approx(2.5 * a + 3.0, abs=1e-12 * max(1, abs(b)))


def test_empirical_pelve_constant_sample():
    # 0.37 is inexact in binary: ES-hat and VaR-hat agree only when compared
    # in difference form.
    for value, m, eps in ((4.0, 50, 0.05), (0.37, 100, 0.1), (0.37, 100, 0.25), (0.37, 100, 0.49)):
        r = empirical_pelve(OrderedSample([value] * m), 2, eps)
        assert r.is_finite and r.value == 1.0


def test_empirical_pelve_invariant_under_affine_maps():
    x = sample(Exponential(1), 13, 400)
    a = empirical_pelve(OrderedSample(x), 2, 0.05)
    b = empirical_pelve(OrderedSample(3.0 * x + 1.0), 2, 0.05)
    assert a.value == pytest.approx(b.value, abs=1e-9)


def test_empirical_pelve_exponential_target():
    x = sample(Exponential(1), 0, 5000)
    r = empirical_pelve(OrderedSample(x), 2, 0.05)
    assert abs(r.value - math.exp(1.5)) <= 0.3


def test_empirical_pelve_brute_force_oracle():
    s = OrderedSample(np.arange(1.0, 101.0))
    r = empirical_pelve(s, 1, 0.05)
    var_hat = empirical_var(s, 0.95)
    c = next(
        c
        for c in np.arange(1.0, 20.0 + 1e-12, 1e-5)
        if empirical_es_n(s, 1, max(1 - c * 0.05, 0.0)) <= var_hat
    )
    assert r.value == pytest.approx(c, abs=1e-4)


def test_empirical_pelve_uniform_consistency():
    errors = []
    for m in (10 ** 3, 10 ** 4):
        x = sample(Uniform(0, 1), 1, m)
        r = empirical_pelve(OrderedSample(x), 2, 0.05)
        errors.append(abs(r.value - 3.0))
    assert errors[1] < errors[0]


def test_empirical_pelve_small_sample_warns():
    s = OrderedSample([1.0, 2.0, 3.0])
    with pytest.warns(SampleTooSmall):
        empirical_pelve(s, 1, 0.05)  # m * eps = 0.15


def test_empirical_pelve_infinite_outcome():
    # one huge outlier pushes the whole-tail average past the 95% quantile
    x = list(np.arange(1.0, 100.0)) + [1e6]
    r = empirical_pelve(OrderedSample(x), 2, 0.05)
    assert not r.is_finite


@settings(max_examples=30, deadline=None)
@given(
    raw=st.lists(st.floats(-1e6, 1e6), min_size=20, max_size=60),
    n=st.integers(1, 4),
    p=st.floats(0.0, 0.95),
)
def test_empirical_es_between_min_and_max(raw, n, p):
    s = OrderedSample(raw)
    v = empirical_es_n(s, n, p)
    assert s.values[0] - 1e-9 <= v <= s.values[-1] + 1e-9


# --- batched solve ------------------------------------------------------------

def _per_sample_solve(values, n, eps, c_tol):
    # The one-sample solve the batched kernel replaces: every bisection step
    # rebuilds the weights through es_n_weights.
    s = OrderedSample(values)
    excess = s.values - empirical_var(s, 1.0 - eps)
    return _solve(lambda p: es_n_weights(s.m, n, p).weights @ excess, eps, c_tol)


def _assert_rows_match(x, n, eps, c_tol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleTooSmall)
        # numpy's default sort may order -0.0 and 0.0 unlike OrderedSample's
        # stable sort; the results must not notice.
        got = empirical_pelve_rows(np.sort(x, axis=1), n, eps, c_tol)
        expected = [_per_sample_solve(row, n, eps, c_tol) for row in x]
    assert len(got) == len(expected)
    for j, (a, b) in enumerate(zip(got, expected)):
        assert a == b, (j, a, b)


@st.composite
def _sample_matrices(draw):
    b, m = draw(st.integers(1, 40)), draw(st.integers(1, 300))
    # Cells come from a small pool (ties, both zeros) or from a heavy-tailed
    # draw, mixed in a drawn proportion; a seeded generator fills the matrix.
    pool = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 0.37, -1.5, 2.0]), st.floats(-1e6, 1e6)),
        min_size=1, max_size=6,
    ))
    free = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2 ** 32))))
    tied = rng.choice(np.array(pool), size=(b, m))
    return np.where(rng.random((b, m)) < free, rng.standard_t(2.0, (b, m)), tied)


@settings(max_examples=60, deadline=None)
@given(
    x=_sample_matrices(),
    n=st.integers(1, 4),
    eps=st.floats(0.001, 0.999),
    c_tol=st.sampled_from([1e-9, 2.0 ** -30]),
)
def test_batched_solve_equals_per_sample_solve(x, n, eps, c_tol):
    _assert_rows_match(x, n, eps, c_tol)


def test_batched_solve_rows_stop_on_their_own_step():
    # At a power-of-two c_tol the width goal is hit exactly in exact
    # arithmetic, so rounding decides per row whether one more step runs.
    x = np.random.Generator(np.random.PCG64(5)).standard_normal((40, 200))
    got = empirical_pelve_rows(np.sort(x, axis=1), 2, 0.07, 2.0 ** -30)
    assert {r.iterations for r in got} == {30, 31}
    _assert_rows_match(x, 2, 0.07, 2.0 ** -30)


def test_batched_solve_spans_blocks():
    assert 47 % block_rows(3000) and 47 > block_rows(3000)  # a partial last block
    x = sample(Exponential(1), 2, 47 * 3000).reshape(47, 3000)
    x[7] = x[7, 0]  # a tied row inside the first block
    _assert_rows_match(x, 2, 0.05, 1e-9)
    # A column-major matrix gives the same results as a row-major one.
    rows = np.sort(x, axis=1)
    row_major = empirical_pelve_rows(rows, 2, 0.05)
    assert empirical_pelve_rows(np.asfortranarray(rows), 2, 0.05) == row_major


def test_batched_solve_validates():
    with pytest.raises(LevelOutOfRange):
        empirical_pelve_rows(np.zeros((2, 5)), 1, 1.5)
    with pytest.raises(InvalidParameter):
        empirical_pelve_rows(np.zeros(5), 1, 0.05)
    with pytest.raises(InvalidParameter):
        empirical_pelve_rows(np.array([[0.0, math.inf]]), 1, 0.05)
    assert empirical_pelve_rows(np.zeros((0, 5)), 1, 0.5) == []


def test_batched_solve_warns_once_when_degenerate():
    assert is_degenerate(19, 0.05) and not is_degenerate(20, 0.05)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        empirical_pelve_rows(np.zeros((30, 10)), 2, 0.05)
    assert [w.category for w in caught] == [SampleTooSmall]
