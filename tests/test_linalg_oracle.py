"""linalg and graded._trilinear against sympy's DomainMatrix over GF(p), an
independent exact route.

At p = 2**31 - 1 every product of two entries is just below 2**62, so
``matmul`` adds one inner index per chunk and the ``rref`` row updates
sit at the int64 limit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from gpmod import linalg
from gpmod.graded import _trilinear
from gpmod.errors import NoSolution

PRIMES = [101, 2**31 - 1]


def _matrices(p, rows=st.integers(0, 5), cols=st.integers(0, 5)):
    """Matrices of a drawn shape: uniform entries, edge entries (0, 1,
    p - 2, p - 1, whose products reach 2**62 at the largest p), or a
    product of two uniform factors through a drawn smaller rank."""

    def build(shape, seed, kind, inner):
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            return rng.integers(0, p, size=shape, dtype=np.int64)
        if kind == "edges":
            return rng.choice(np.array([0, 1, p - 2, p - 1], dtype=np.int64),
                              size=shape)
        left = rng.integers(0, p, size=(shape[0], inner)).astype(object)
        right = rng.integers(0, p, size=(inner, shape[1])).astype(object)
        return (left.dot(right) % p).astype(np.int64).reshape(shape)

    return st.builds(build, st.tuples(rows, cols), st.integers(0, 2**32 - 1),
                     st.sampled_from(["uniform", "edges", "low-rank"]),
                     st.integers(0, 3))


def _either_route(p, least=0):
    """Matrices for both ``rref`` routes: at most 5x5, which the Python-integer
    route reduces, or 9x9 to 12x12, above its crossover, for numpy."""
    assert 9 * 9 > linalg._SMALL_CELLS >= 5 * 5
    return st.one_of(
        _matrices(p, rows=st.integers(least, 5), cols=st.integers(least, 5)),
        _matrices(p, rows=st.integers(9, 12), cols=st.integers(9, 12)))


def _dm(a, p):
    field = GF(p, symmetric=False)
    return DomainMatrix([[field(int(x)) for x in row] for row in a], a.shape, field)


def _np(m):
    return np.array([[int(x) for x in row] for row in m.to_list()],
                    dtype=np.int64).reshape(m.shape)


def _span_rref(vectors, p):
    """Canonical form of the row space of the given rows."""
    return _np(_dm(vectors, p).rref()[0]) if vectors.shape[0] else vectors


oracle = settings(max_examples=60, deadline=None)


def _rank_cases(p):
    """Tall, wide, zero-column and repeated-row matrices, with cells on
    both sides of ``_SMALL_CELLS``, where ``rank`` leaves ``rref``."""
    small = linalg._SMALL_CELLS
    rng = np.random.default_rng(p % 991 + 11)
    shapes = [(16, 2), (32, 2), (64, 1), (2, 16), (2, 32), (1, 64), (5, 0), (0, 5),
              (8, 8), (8, 9), (9, 7), (7, 9), (13, 5), (5, 13), (40, 3), (3, 40)]
    assert any(r * c == small for r, c in shapes)
    assert any(0 < r * c < small for r, c in shapes)
    assert any(r * c > small for r, c in shapes)
    for rows, cols in shapes:
        a = rng.integers(0, p, size=(rows, cols)).astype(np.int64)
        yield a
        if rows > 1 and cols:
            repeated = a.copy()
            repeated[1::2] = repeated[0]  # every other row the first
            yield repeated
            low = np.zeros_like(a)
            low[:, : min(rows, cols) // 2] = a[:, : min(rows, cols) // 2]
            yield low  # trailing zero columns


@pytest.mark.parametrize("p", [2] + PRIMES)
def test_rref_and_rank_match_sympy(p):
    @oracle
    @given(_either_route(p))
    def check(a):
        reduced, pivots, rk = linalg.rref(a, p)
        want, want_pivots = _dm(a, p).rref()
        assert np.array_equal(reduced, _np(want))
        assert pivots == tuple(want_pivots)
        assert rk == linalg.rank(a, p) == _dm(a, p).rank()

    check()
    for a in _rank_cases(p):
        assert linalg.rank(a, p) == linalg.rref(a, p)[2], a.shape


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_basis_matches_sympy(p):
    @oracle
    @given(_either_route(p))
    def check(a):
        basis = linalg.kernel_basis(a, p).basis
        want = _dm(a, p).nullspace()
        assert basis.shape == (a.shape[1], want.shape[0])
        if a.shape[0] and basis.shape[1]:
            assert (_dm(a, p) * _dm(basis, p)).is_zero_matrix
        assert np.array_equal(_span_rref(basis.T.copy(), p),
                              _span_rref(_np(want), p))

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_solve_matches_sympy(p):
    @oracle
    @given(_either_route(p, least=1), st.integers(1, 3), st.data())
    def check(a, nrhs, data):
        b = data.draw(_matrices(p, rows=st.just(a.shape[0]), cols=st.just(nrhs)))
        if data.draw(st.booleans()):
            # a consistent system half of the time
            x0 = data.draw(_matrices(p, rows=st.just(a.shape[1]), cols=st.just(nrhs)))
            b = _np(_dm(a, p) * _dm(x0, p))
        consistent = _dm(a, p).rank() == _dm(np.hstack([a, b]), p).rank()
        if not consistent:
            with pytest.raises(NoSolution):
                linalg.solve(a, b, p)
            return
        x = linalg.solve(a, b, p)
        assert np.array_equal(_np(_dm(a, p) * _dm(x, p)), b)
        # free variables are zero: x is the pivot-variable solution
        pivots = set(_dm(a, p).rref()[1])
        free = [j for j in range(a.shape[1]) if j not in pivots]
        assert not np.any(x[free])

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_matmul_matches_sympy(p):
    @oracle
    @given(st.integers(0, 4), st.integers(0, 12), st.integers(0, 4), st.data())
    def check(n, k, m, data):
        a = data.draw(_matrices(p, rows=st.just(n), cols=st.just(k)))
        b = data.draw(_matrices(p, rows=st.just(k), cols=st.just(m)))
        got = linalg.matmul(a, b, p)
        assert got.shape == (n, m)
        if n and k and m:
            assert np.array_equal(got, _np(_dm(a, p) * _dm(b, p)))
        else:
            assert not np.any(got)

    check()


@pytest.mark.parametrize("p", PRIMES)
def test_trilinear_matches_sympy(p):
    """sum_{i,j} x_i y_j table[i,j,k] is the bilinear form x^T table[:,:,k] y
    at each k: one DomainMatrix product per output coordinate."""
    @oracle
    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
    def check(a, b, c, data):
        x = data.draw(_matrices(p, rows=st.just(1), cols=st.just(a)))
        y = data.draw(_matrices(p, rows=st.just(b), cols=st.just(1)))
        slices = [data.draw(_matrices(p, rows=st.just(a), cols=st.just(b)))
                  for _ in range(c)]
        table = np.stack(slices, axis=2) if c else np.zeros((a, b, 0), np.int64)
        got = _trilinear(x[0], y[:, 0], table, p)
        assert got.shape == (c,)
        if a and b:
            want = [_np(_dm(x, p) * _dm(t, p) * _dm(y, p))[0, 0] for t in slices]
            assert got.tolist() == want
        else:
            assert not np.any(got)

    check()
