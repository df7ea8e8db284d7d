import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelve import (
    ExcessGPD,
    Exponential,
    GeneralizedPareto,
    Normal,
    InvalidParameter,
    LevelOutOfRange,
    OrderOutOfRange,
    OrderedSample,
    Pareto,
    SampleTooSmall,
    Uniform,
    empirical_es_n,
    empirical_pelve,
    empirical_pelve_rows,
    empirical_var,
    es_n,
    es_n_weights,
    is_degenerate,
    pelve,
    pelve_closed,
    pelve_exists,
    pelve_from_quantile,
    sample,
)
from pelve import empirical
from pelve.empirical import block_rows
from pelve.pelve_solver import PelveResult


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
    assert w == pytest.approx([0.25, 0.75], abs=1e-15)
    w = es_n_weights(4, 2, 0.9)
    assert list(w) == [0.0, 0.0, 0.0, 1.0]
    w = es_n_weights(3, 1, 0.0)
    assert w == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_weight_top_cell_is_exact():
    for m in (1, 3, 10):
        w = es_n_weights(m, 2, (m - 1) / m)
        assert w[-1] == 1.0
        assert np.all(w[:-1] == 0.0)


def test_weight_normalization_and_support():
    p_grid = [i / 20 for i in range(20)]
    for m in (1, 2, 3, 7, 25, 120, 500):
        for n in (1, 2, 3, 4):
            for p in p_grid:
                w = es_n_weights(m, n, p)
                assert np.all(w >= 0)
                assert abs(w.sum() - 1.0) <= 1e-12
                assert np.all(w[: math.floor(m * p)] == 0.0)


def test_weights_match_order2_piecewise_formula():
    # direct integral of the n=2 kernel 2(s-p)/(1-p)^2 over each cell
    for m in (3, 10, 47):
        for p in (0.0, 0.13, 0.5, 0.87):
            w = es_n_weights(m, 2, p)
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
    for m, n, p in [(5, 3, 0.1), (8, 4, 0.37), (6, 1, 0.5)]:
        w = es_n_weights(m, n, p)
        for i in range(1, m + 1):
            lo, hi = max((i - 1) / m, p), i / m
            expect = 0.0
            if hi > p:
                expect = float(mpmath.quad(
                    lambda s: n * (s - p) ** (n - 1) / (1 - p) ** n, [lo, hi]
                ))
            assert w[i - 1] == pytest.approx(expect, abs=1e-12)


def test_weights_are_a_read_only_array():
    w = es_n_weights(4, 2, 0.3)
    assert isinstance(w, np.ndarray) and w.shape == (4,)
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_weight_argument_errors():
    for p in (-0.1, 1.0, 1.5):
        with pytest.raises(LevelOutOfRange):
            es_n_weights(5, 2, p)
    for m in (0, -3):
        with pytest.raises(InvalidParameter):
            es_n_weights(m, 2, 0.5)
    with pytest.raises(OrderOutOfRange):
        es_n_weights(5, 0, 0.5)


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


def test_small_sample_warning_points_at_the_caller():
    x = np.arange(10.0)  # m * eps = 0.5
    for solve in (
        lambda: empirical_pelve(OrderedSample(x), 1, 0.05),
        lambda: empirical_pelve_rows(x[None, :], 1, 0.05),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve()
        [w] = caught
        assert w.category is SampleTooSmall
        assert w.filename == __file__


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

def _bisect(gap, eps, c_tol):
    # Existence check plus plain bisection of gap(1 - c*eps) over [1, 1/eps]
    # down to a bracket of c_tol*(1/eps - 1), returning its midpoint.
    if gap(0.0) > 0.0:
        return PelveResult.infinite()
    g1 = gap(1.0 - eps)
    if g1 <= 0.0:
        return PelveResult.finite(1.0, iterations=0, residual=abs(g1))
    c_max = 1.0 / eps

    def g(c):
        return gap(max(1.0 - c * eps, 0.0))

    lo, hi = 1.0, c_max
    iterations = 0
    while hi - lo > c_tol * (c_max - 1.0):
        mid = 0.5 * (lo + hi)
        iterations += 1
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    return PelveResult.finite(c, iterations, abs(g(c)))


def _per_sample_solve(values, n, eps, c_tol):
    # The one-sample bisection the exact solve replaces: every step rebuilds
    # the weights through es_n_weights.
    s = OrderedSample(values)
    excess = s.values - empirical_var(s, 1.0 - eps)
    return _bisect(lambda p: es_n_weights(s.m, n, p) @ excess, eps, c_tol)


def _results(columns):
    # The batched solve's rows as a list of PelveResults.
    return [columns.result(i) for i in range(len(columns))]


def _assert_rows_match(x, n, eps, c_tol):
    # Infinite and c = 1 rows come from the same two checks as the bisection,
    # bit for bit; every other root lies within the bisection's stopping
    # width, c_tol*(c_max - 1), of its answer.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SampleTooSmall)
        # numpy's default sort may order -0.0 and 0.0 unlike OrderedSample's
        # stable sort; the results must not notice.
        got = _results(empirical_pelve_rows(np.sort(x, axis=1), n, eps))
        expected = [_per_sample_solve(row, n, eps, c_tol) for row in x]
    assert len(got) == len(expected)
    for j, (a, b) in enumerate(zip(got, expected)):
        if not b.is_finite or b.iterations == 0:
            assert a == b, (j, a, b)
        else:
            assert a.is_finite and abs(a.value - b.value) <= c_tol * (1.0 / eps - 1.0), (j, a, b)
            assert a.iterations == 0 if n <= 2 else a.iterations > 0


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


def test_batched_solve_spans_blocks():
    assert 47 % block_rows(3000) and 47 > block_rows(3000)  # a partial last block
    x = sample(Exponential(1), 2, 47 * 3000).reshape(47, 3000)
    x[7] = x[7, 0]  # a tied row inside the first block
    _assert_rows_match(x, 2, 0.05, 1e-9)
    # A column-major matrix gives the same results as a row-major one.
    rows = np.sort(x, axis=1)
    row_major = _results(empirical_pelve_rows(rows, 2, 0.05))
    assert _results(empirical_pelve_rows(np.asfortranarray(rows), 2, 0.05)) == row_major


def test_batched_solve_validates():
    with pytest.raises(LevelOutOfRange):
        empirical_pelve_rows(np.zeros((2, 5)), 1, 1.5)
    with pytest.raises(InvalidParameter):
        empirical_pelve_rows(np.zeros(5), 1, 0.05)
    with pytest.raises(InvalidParameter):
        empirical_pelve_rows(np.array([[0.0, math.inf]]), 1, 0.05)
    assert _results(empirical_pelve_rows(np.zeros((0, 5)), 1, 0.5)) == []
    # The root search holds integers up to (m+n)^n: 150 * log2(250) > 1000.
    # Only a row that needs it is refused; the top value of `near` sits just
    # above five values tied at VaR-hat, which leaves its root open.
    near = np.array([[0.0] * 94 + [1.0] * 5 + [1.0001]])
    assert empirical_pelve_rows(near, 100, 0.05).result(0).value > 1.0
    assert empirical_pelve_rows(np.zeros((1, 100)), 150, 0.05).result(0).value == 1.0
    assert not empirical_pelve_rows(np.arange(100.0)[None, :], 150, 0.05).result(0).is_finite
    with pytest.raises(OrderOutOfRange):
        empirical_pelve_rows(near, 150, 0.05)


def test_batched_solve_warns_once_when_degenerate():
    assert is_degenerate(19, 0.05) and not is_degenerate(20, 0.05)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        empirical_pelve_rows(np.zeros((30, 10)), 2, 0.05)
    assert [w.category for w in caught] == [SampleTooSmall]


# --- exact roots ---------------------------------------------------------------

def _oracle(x, n, eps):
    """Multiplier of the sorted sample x by a 50-digit bisection on the
    definition: the smallest c in [1, 1/eps] with ES-hat_n(1 - c*eps) <=
    VaR-hat(1 - eps), ES-hat_n being the distortion-weighted mean."""
    with mpmath.workdps(50):
        m = len(x)
        xs = [mpmath.mpf(float(v)) for v in x]
        var = xs[min(max(math.ceil(m * (1.0 - eps)), 1), m) - 1]
        e = mpmath.mpf(eps)

        def gap(c):
            p = 1 - c * e
            h = [(max(mpmath.mpf(i) / m - p, 0) / (1 - p)) ** n for i in range(m + 1)]
            return mpmath.fsum((h[i] - h[i - 1]) * (v - var) for i, v in enumerate(xs, 1))

        lo, hi = mpmath.mpf(1), 1 / e
        if gap(hi) > 0:
            return math.inf
        if gap(lo) <= 0:
            return 1.0
        while hi - lo > hi * mpmath.mpf(10) ** -25:
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float(hi)


def _value(result):
    return result.value if result.is_finite else math.inf


def test_exact_solve_matches_mpmath_oracle():
    rng = np.random.Generator(np.random.PCG64(3))
    checked = 0
    for n in (1, 2, 3, 4):
        for eps, m in ((0.05, 60), (0.13, 20), (0.3, 33), (0.1, 47)):
            x = np.sort(rng.standard_t(4.0, m))
            got = _value(empirical_pelve_rows(x[None, :], n, eps).result(0))
            expected = _oracle(x, n, eps)
            assert got == expected or abs(got - expected) <= 1e-12 * expected, (n, eps, m)
            checked += 1 < expected < math.inf
    assert checked >= 12  # most cases have an open root


def test_exact_solve_root_on_a_breakpoint():
    # With x = 1..m every top gap is 1 and G = J, the count of values above
    # VaR-hat; at order 1 the root is the integer t = c*eps*m = 2J + 1.
    for m, eps in ((100, 0.05), (200, 0.05), (120, 0.25)):
        x = np.arange(1.0, m + 1.0)
        j = m - math.ceil(m * (1.0 - eps))
        r = empirical_pelve(OrderedSample(x), 1, eps)
        assert r.value == (2 * j + 1) / (eps * m), (m, eps, r)
        assert r.residual <= 1e-12 * m


def test_exact_solve_root_in_lowest_open_cell():
    # eps*m = 2.6 and two values lie above VaR-hat = 8, so t = c*eps*m stays
    # above 3 (below it only gaps inside the top three values count); the far
    # fourth value puts the root in the first cell that can hold it, (3, 4].
    x = np.array([-992.0] * 17 + [8.0, 9.0, 10.0])
    eps = 0.13
    for n in (1, 2, 3, 4):
        r = empirical_pelve(OrderedSample(x), n, eps)
        assert 3.0 < r.value * eps * x.size <= 4.0
        expected = _oracle(x, n, eps)
        assert abs(r.value - expected) <= 1e-13 * expected, (n, r, expected)
    assert empirical_pelve(OrderedSample(x), 1, eps).value == pytest.approx(
        3.003 / 2.6, rel=1e-15)


def test_exact_solve_tied_rows_give_one():
    tied = np.full(50, 0.37)
    top_tied = np.concatenate((np.linspace(-3.0, 0.0, 20), np.full(30, 0.37)))
    rows = np.stack([tied, top_tied, -tied])
    for n in (1, 2, 3, 4):
        for eps in (0.05, 0.1, 0.25, 0.49):
            assert [r.value for r in _results(empirical_pelve_rows(rows, n, eps))] == [1.0] * 3


def test_exact_solve_row_alone_equals_row_in_block():
    rng = np.random.Generator(np.random.PCG64(8))
    block = np.sort(rng.standard_t(2.0, (12, 80)), axis=1)
    block[3] = 0.37  # tied
    block[5, -1] = 1e4  # one outlier: infinite
    for n in (1, 2, 3, 4):
        together = _results(empirical_pelve_rows(block, n, 0.07))
        assert not together[5].is_finite and together[3].value == 1.0
        assert sum(r.is_finite and r.value > 1.0 for r in together) >= 8
        assert _results(empirical_pelve_rows(np.asfortranarray(block), n, 0.07)) == together
        assert _results(empirical_pelve_rows(block[::-1], n, 0.07)) == together[::-1]
        for row, result in zip(block, together):
            assert _results(empirical_pelve_rows(row[None, :], n, 0.07)) == [result]


def test_exact_solve_spans_the_float_range():
    # x_(m) - x_(1) overflows here; the solve scales each row by a power of
    # two first, which changes no root.
    wide = np.array([-1e308] * 50 + list(np.linspace(0.0, 1.0, 49)) + [1e308])
    for n in (1, 2, 3):
        r = empirical_pelve(OrderedSample(wide), n, 0.05)
        small = empirical_pelve(OrderedSample(wide * 2.0 ** -600), n, 0.05)
        assert 1.0 < r.value == small.value and r.iterations == small.iterations
        assert abs(r.value - _per_sample_solve(wide, n, 0.05, 1e-9).value) <= 1e-9 * 19


def test_exact_solve_checks_span_the_float_range():
    # x - VaR-hat overflows on these rows: an open root, an infinite
    # multiplier and a top tied at VaR-hat.  The existence and c = 1 checks
    # scale such rows by a power of two, as the root search does, and the
    # residual comes back in the row's own units.
    open_row = [-1.7e308] * 10 + list(np.linspace(0.5e308, 1.7e308, 90))
    infinite = [-1.7e308] + [0.0] * 98 + [1.7e308]
    tied = [-1.7e308] * 10 + [1.7e308] * 90
    rows = np.array([open_row, infinite, tied])
    for n in (1, 2, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _results(empirical_pelve_rows(rows, n, 0.05))
        small = _results(empirical_pelve_rows(rows * 2.0 ** -10, n, 0.05))
        assert [r.value for r in got] == [r.value for r in small]
        assert got[0].value > 1.0 and not got[1].is_finite and got[2].value == 1.0
        for r, s in zip(got, small):
            assert math.isfinite(r.residual) and r.residual == s.residual * 2.0 ** 10
    assert empirical_pelve_rows(rows[:1], 2, 0.05).result(0).value == pytest.approx(
        3.2939338, rel=1e-7)


def test_infinite_row_across_the_float_range_scales_back_silently():
    # ES-hat(0) = 0 lies above VaR-hat = -1.7e308: infinite.  The discarded
    # c = 1 gap of 1.7e308 overflowed when scaled back by 2^e.
    x = OrderedSample([-1.7e308] * 5 + [1.7e308] * 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert empirical_pelve(x, 1, 0.9) == PelveResult.infinite()


def _bits(result):
    # A PelveResult with its floats as hex strings, so == compares bits.
    value = None if result.value is None else result.value.hex()
    return value, result.iterations, result.residual.hex()


def test_columns_hold_each_row_as_empirical_pelve_does():
    # One block with infinite rows, c = 1 rows and open rows; result(i) is
    # empirical_pelve on row i, bit for bit, and the columns agree with it.
    rng = np.random.Generator(np.random.PCG64(11))
    block = np.sort(rng.standard_t(2.0, (9, 60)), axis=1)
    block[2] = 0.37  # tied: c = 1
    block[6, -1] = 1e4  # one outlier: infinite
    block[7] = np.linspace(-1.0, 0.0, 60)  # uniform: c = 1 at order 1
    for n in (1, 2, 3):
        columns = empirical_pelve_rows(block, n, 0.1)
        assert len(columns) == 9
        kinds = set()
        for i, row in enumerate(block):
            expected = empirical_pelve(OrderedSample(row), n, 0.1)
            assert _bits(columns.result(i)) == _bits(expected), (n, i)
            if not expected.is_finite:
                kinds.add("inf")
                assert columns.value[i] == math.inf
                assert columns.iterations[i] == 0 and columns.residual[i] == 0.0
            else:
                kinds.add("one" if expected.value == 1.0 else "open")
                assert columns.value[i] == expected.value
                assert columns.iterations[i] == expected.iterations
                assert columns.residual[i] == expected.residual
        assert kinds == {"inf", "one", "open"}, n
        for column in (columns.value, columns.iterations, columns.residual):
            assert not column.flags.writeable


def test_epsilon_whose_level_rounds_to_one_is_rejected():
    # 1 - 1e-17 == 1.0: every solve that forms the level 1 - eps names
    # epsilon instead of failing on the level it formed.
    x = np.arange(1.0, 11.0)
    calls = [
        lambda: pelve(Normal(0, 1), 2, 1e-17),
        lambda: pelve_from_quantile(lambda s: s, 2, 1e-17),
        lambda: pelve_exists(Normal(0, 1), 2, 1e-17),
        lambda: empirical_pelve(OrderedSample(x), 2, 1e-17),
        lambda: empirical_pelve_rows(x[None, :], 2, 1e-17),
    ]
    for call in calls:
        with pytest.raises(LevelOutOfRange, match="epsilon 1e-17 is too small"):
            call()
    # The closed form does not form 1 - eps, so it still takes it.
    assert pelve_closed(Uniform(0, 1), 2, 1e-17).value == 3.0


def test_a_subnormal_sample_scales_without_overflow():
    # Each row is scaled into (-1, 1) by 2^-e; for a row of subnormals 2^-e
    # itself overflows a double, so the scaling goes through ldexp.
    x = np.arange(1.0, 11.0)[None] * 1e-313
    _assert_rows_match(x, 1, 0.5, 1e-9)


def test_a_bool_is_no_order():
    # bool is an int, so True passed the order check: es_n computed order 1,
    # and the quadrature and the empirical solve failed with untyped errors.
    calls = [
        lambda: es_n(Normal(0, 1), True, 0.5),
        lambda: pelve_from_quantile(lambda s: s, True, 0.05),
        lambda: empirical_pelve(OrderedSample(np.arange(100.0)), True, 0.05),
        lambda: es_n_weights(10, True, 0.5),
    ]
    for call in calls:
        with pytest.raises(OrderOutOfRange, match="got True"):
            call()


# --- the prefix cell search ---------------------------------------------------

def _full_width_roots(x, n, eps, j_var, width=None, s=None):
    # The cell search over every row's full length, as it stood before the
    # search began at the top order statistics: the oracle the prefix search
    # must match bit for bit.
    k, m = x.shape
    rows = np.arange(k)
    eulerian = empirical._eulerian(n)
    s = np.empty((n + 1, k, m + n))
    s[:, :, :n] = 0.0
    np.subtract(x[:, -1:], x[:, ::-1], out=s[0, :, n:])
    for r in range(n):
        np.cumsum(s[r, :, n:], axis=1, out=s[r + 1, :, n:])
    g = s[0, :, n + j_var]
    first = math.floor(eps * m) + 1
    ks = np.arange(first, m + 1)
    w = empirical._weighted_sum(
        eulerian[n], (s[n, :, first + i : m + 1 + i] for i in range(n)))
    reached = w >= g[:, None] * empirical._powers(ks.astype(float), n)
    at = reached.argmax(axis=1)
    low = np.where(reached[rows, at], ks[at], m) - 1
    lowf = low.astype(float)
    q = [x[:, m - 1 - j_var] - x[rows, m - 1 - low]]
    for r in range(1, n + 1):
        q_r = empirical._weighted_sum(
            eulerian[r], (s[r, rows, n + low - r + i] for i in range(r)))
        q.append(q_r - g * empirical._powers(lowf, r))
    steps = np.zeros(k, dtype=np.int64)
    if n == 1:
        root = empirical._divide(-q[1], q[0])
    elif n == 2:
        a, b, c = q
        root = empirical._divide(-c, b + np.sqrt(np.maximum(b * b - a * c, 0.0)))
    else:
        root, steps = empirical._bisect_cell(q, lowf)
    t = lowf + np.clip(root, 0.0, 1.0)
    return np.clip(t / (eps * m), 1.0, 1.0 / eps), steps


def _assert_full_width_bits(monkeypatch, rows, n, eps):
    # Every row of the prefix search has the bits of the full-width search;
    # returns the results.
    got = _results(empirical_pelve_rows(rows, n, eps))
    with monkeypatch.context() as patch:
        patch.setattr(empirical, "_roots", _full_width_roots)
        expected = _results(empirical_pelve_rows(rows, n, eps))
    assert [_bits(r) for r in got] == [_bits(r) for r in expected], (n, eps)
    return got


def _draws(dist, count, m, seed=0):
    return np.sort(np.stack([sample(dist, seed + r, m) for r in range(count)]), axis=1)


def _first_width(m, eps):
    # The number of top order statistics the cell search starts with.
    return min(8 * (math.floor(eps * m) + 1), m)


def _kinds(results, m, eps):
    # Each row as infinite, one, rooted in the first prefix or past it.
    kinds = []
    for r in results:
        if not r.is_finite:
            kinds.append("inf")
        elif r.value == 1.0:
            kinds.append("one")
        else:
            wide = r.value * eps * m > _first_width(m, eps)
            kinds.append("widened" if wide else "prefix")
    return kinds


@pytest.mark.parametrize(
    "dist", [Normal(0, 1), Pareto(1, 3), ExcessGPD(1, 0.3, 1, 0.9)], ids=repr
)
def test_prefix_search_has_the_bits_of_the_full_search(monkeypatch, dist):
    rows = _draws(dist, 8, 5000)
    for n in (1, 2, 3):
        got = _assert_full_width_bits(monkeypatch, rows, n, 0.05)
        if n <= 2:
            # Multipliers below 8: every root lies in the first prefix.
            assert set(_kinds(got, 5000, 0.05)) == {"prefix"}, n


@pytest.mark.parametrize("dist", [Pareto(1, 1.2), GeneralizedPareto(0.8, 1)], ids=repr)
def test_rows_rooted_past_the_first_prefix_are_searched_wider(monkeypatch, dist):
    rows = _draws(dist, 12, 5000, seed=40)
    for n in (1, 2, 3):
        got = _assert_full_width_bits(monkeypatch, rows, n, 0.05)
        if n >= 2:
            assert "widened" in _kinds(got, 5000, 0.05), n


@pytest.mark.parametrize("eps, orders", [(0.3, (1, 2)), (0.15, (1, 2, 3, 4))])
def test_a_first_prefix_of_every_row_is_the_full_search(monkeypatch, eps, orders):
    # 8(floor(eps*m) + 1) >= m: the first search already spans each row.
    assert _first_width(20, eps) == 20
    rng = np.random.Generator(np.random.PCG64(21))
    rows = np.sort(rng.standard_normal((30, 20)), axis=1)
    for n in orders:
        got = _assert_full_width_bits(monkeypatch, rows, n, eps)
        assert "prefix" in _kinds(got, 20, eps), n


def test_a_block_mixes_prefix_widened_infinite_and_one_rows(monkeypatch):
    m, eps = 1000, 0.05
    light = _draws(Normal(0, 1), 3, m)
    heavy = _draws(Pareto(1, 1.2), 20, m, seed=7)
    tied = np.full((1, m), 0.37)  # c = 1
    outlier = np.sort(sample(Normal(0, 1), 99, m))[None, :]
    outlier[0, -1] = 1e6  # infinite
    rows = np.concatenate([light, heavy[:5], tied, heavy[5:], outlier])
    for n in (2, 3):
        got = _assert_full_width_bits(monkeypatch, rows, n, eps)
        assert set(_kinds(got, m, eps)) == {"inf", "one", "widened", "prefix"}, n
        for row, result in zip(rows, got):
            assert _bits(empirical_pelve_rows(row[None, :], n, eps).result(0)) == _bits(result)


# --- buffers reused across blocks ---------------------------------------------

def _min_level(values, eps):
    # The lowest residual level 1 - c*eps among a block's open rows.
    open_ = values[np.isfinite(values) & (values > 1.0)]
    return 1.0 - open_.max() * eps


def test_blocks_that_reuse_the_buffers_leak_nothing_into_each_other():
    # One call solves every block with the same buffers.  The blocks below
    # differ in what they leave there: all rows open, only a subset open,
    # rows searched wider, residual levels lower than the block before, and
    # a partial last block.  Each row must still have the bits of a call on
    # that row alone, with the full blocks in either order.
    m, eps = 1000, 0.05
    step = block_rows(m)
    assert step == 32
    open_ = _draws(Normal(0, 1), step, m)
    mixed = _draws(Normal(0, 1), step, m, seed=50)
    mixed[[3, 20]] = 0.37  # c = 1
    mixed[[10, 25], -1] = 1e6  # infinite
    wide = _draws(Pareto(1, 1.2), step, m, seed=100)
    lower = _draws(Pareto(1, 1.05), step, m, seed=200)
    last = _draws(Normal(0, 1), 7, m, seed=300)
    blocks = [open_, mixed, wide, lower]
    for n in (1, 2, 3):
        kinds = [_kinds(_results(empirical_pelve_rows(b, n, eps)), m, eps) for b in blocks]
        assert set(kinds[0]) == {"prefix"}, n
        assert {"inf", "one"} <= set(kinds[1]) and "prefix" in kinds[1], n
        assert "widened" in kinds[2], n
        levels = [_min_level(empirical_pelve_rows(b, n, eps).value, eps) for b in blocks]
        assert levels[3] < levels[2], n
        for order in (blocks, blocks[::-1]):
            rows = np.concatenate(order + [last])
            got = _results(empirical_pelve_rows(rows, n, eps))
            alone = [empirical_pelve(OrderedSample(row), n, eps) for row in rows]
            assert [_bits(r) for r in got] == [_bits(r) for r in alone], n
