import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelve import (
    Exponential,
    Normal,
    InvalidParameter,
    LevelOutOfRange,
    OrderOutOfRange,
    OrderedSample,
    SampleTooSmall,
    Uniform,
    empirical_es_n,
    empirical_pelve,
    empirical_pelve_rows,
    empirical_var,
    es_n_weights,
    is_degenerate,
    karamata_ratio,
    pelve,
    pelve_closed,
    pelve_exists,
    pelve_from_quantile,
    sample,
)
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
    # Neither of these forms 1 - eps, so both still take it.
    assert karamata_ratio(0.5, 1e-17) == pytest.approx(1.0 / 1.5, rel=1e-10)
    assert pelve_closed(Uniform(0, 1), 2, 1e-17).value == 3.0
