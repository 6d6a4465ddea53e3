import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmod import linalg
from gpmod.errors import InternalError, NoSolution, ShapeError
from gpmod.linalg import FieldSpec

P = 101


def test_field_spec_rejects_composites():
    with pytest.raises(ValueError):
        FieldSpec(100)
    with pytest.raises(ValueError):
        FieldSpec(1)
    assert FieldSpec().p == 101


def test_rref_identity():
    r, piv, rank = linalg.rref(linalg.identity(3), P)
    assert np.array_equal(r, linalg.identity(3))
    assert piv == (0, 1, 2) and rank == 3


def test_rref_hand_reduction():
    # [[1,2],[2,4]] has proportional rows
    r, piv, rank = linalg.rref(np.array([[1, 2], [2, 4]]), P)
    assert r.tolist() == [[1, 2], [0, 0]]
    assert piv == (0,) and rank == 1


def test_rref_empty():
    r, piv, rank = linalg.rref(linalg.zeros(0, 0), P)
    assert rank == 0 and piv == ()


def test_kernel_of_sum_functional():
    k = linalg.kernel_basis(np.array([[1, 1]]), P)
    assert k.dim == 1
    v = k.basis[:, 0]
    assert (v[0] + v[1]) % P == 0 and np.any(v)


def test_cokernel_of_zero_and_identity():
    dim, proj, free = linalg.cokernel(linalg.zeros(2, 2), P)
    assert dim == 2 and np.array_equal(proj, linalg.identity(2)) and free == (0, 1)
    dim, proj, free = linalg.cokernel(linalg.identity(4), P)
    assert dim == 0 and proj.shape == (0, 4) and free == ()


def test_solve_identity_and_inconsistent():
    b = np.array([[3], [4]])
    assert np.array_equal(linalg.solve(linalg.identity(2), b, P), b)
    with pytest.raises(NoSolution):
        linalg.solve(np.array([[1], [0]]), np.array([[0], [1]]), P)


def test_solve_pivot_variable_convention():
    x = linalg.solve(np.array([[1, 1]]), np.array([[5]]), P)
    assert x.tolist() == [[5], [0]]


def test_is_isomorphism():
    assert linalg.is_isomorphism(linalg.identity(4), P)
    assert not linalg.is_isomorphism(np.array([[1, 0]]), P)
    assert linalg.is_isomorphism(linalg.zeros(0, 0), P)


def _random_matrix(rng, rows, cols, p=P):
    return rng.integers(0, p, size=(rows, cols)).astype(np.int64)


def test_rank_transpose_and_rank_nullity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = _random_matrix(rng, int(rng.integers(0, 6)), int(rng.integers(0, 6)))
        assert linalg.rank(a, P) == linalg.rank(a.T, P)
        k = linalg.kernel_basis(a, P)
        assert a.shape[1] == linalg.rank(a, P) + k.dim
        if k.dim:
            assert not np.any(linalg.matmul(a, k.basis, P))


def test_cokernel_annihilates_image():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = _random_matrix(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        dim, proj, _ = linalg.cokernel(a, P)
        assert dim == a.shape[0] - linalg.rank(a, P)
        assert not np.any(linalg.matmul(proj, a, P))
        img = linalg.image_basis(a, P)
        assert not np.any(linalg.matmul(proj, img.basis, P))
        assert linalg.rank(proj, P) == dim


def test_solve_recovers_consistent_systems():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = _random_matrix(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        x0 = _random_matrix(rng, a.shape[1], int(rng.integers(1, 3)))
        b = linalg.matmul(a, x0, P)
        x = linalg.solve(a, b, P)
        assert np.array_equal(linalg.matmul(a, x, P), b)


def _oracle_solve_left(a, b, p):
    """Solve x @ a = b through ``solve`` on the transposes: the general
    solve that maps out of a cokernel used before ``linalg.factor``.
    Raises NoSolution."""
    return linalg.solve(a.T % p, b.T % p, p).T.copy()


@pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1])
def test_factor_matches_the_general_left_solve(p):
    """``factor`` through a cokernel projection against the general left
    solve: equal bytes and dtype wherever the solve succeeds, InternalError
    exactly where it raises NoSolution.  Relation matrices have 0 to 5 rows
    and columns and a drawn rank; right-hand sides are in the projection's
    row space, changed there at one entry, or uniform."""
    rng = np.random.default_rng(p % 997 + 19)
    solved = refused = empty = 0
    for _ in range(400):
        rows, cols = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        inner = int(rng.integers(0, min(rows, cols) + 1))
        left = rng.integers(0, p, size=(rows, inner)).astype(object)
        right = rng.integers(0, p, size=(inner, cols)).astype(object)
        a = (left.dot(right) % p).astype(np.int64).reshape(rows, cols)
        empty += a.size == 0
        dim, proj, free = linalg.cokernel(a, p)
        assert proj.shape == (dim, rows) and len(free) == dim
        assert np.array_equal(proj[:, list(free)], linalg.identity(dim))
        k = int(rng.integers(0, 4))
        kind = rng.integers(3)
        if kind == 2:
            b = _random_matrix(rng, k, rows, p)
        else:
            b = linalg.matmul(_random_matrix(rng, k, dim, p), proj, p)
            if kind == 1 and b.size:
                b[int(rng.integers(k)), int(rng.integers(rows))] += 1
                b %= p
        try:
            want = _oracle_solve_left(proj, b, p)
        except NoSolution:
            with pytest.raises(InternalError, match="^no factor$"):
                linalg.factor(proj, free, b, p, "no factor")
            refused += 1
            continue
        got = linalg.factor(proj, free, b, p, "no factor")
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        solved += 1
    assert solved >= 150 and refused >= 40 and empty >= 40


def test_matmul_chunked_agrees_with_python_ints():
    # a prime large enough that a single dot product would overflow int64
    p = 2147483629
    assert FieldSpec(p).p == p
    rng = np.random.default_rng(5)
    a = rng.integers(0, p, size=(3, 40)).astype(np.int64)
    b = rng.integers(0, p, size=(40, 2)).astype(np.int64)
    got = linalg.matmul(a, b, p)
    want = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(40)) % p
             for j in range(2)] for i in range(3)]
    assert got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-50, max_value=50),
                         min_size=1, max_size=4),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_rref_is_idempotent(rows):
    a = linalg.as_matrix(rows, P)
    r1, piv1, rank1 = linalg.rref(a, P)
    r2, piv2, rank2 = linalg.rref(r1, P)
    assert np.array_equal(r1, r2) and piv1 == piv2 and rank1 == rank2


def test_deterministic_outputs():
    rng = np.random.default_rng(3)
    a = _random_matrix(rng, 4, 5)
    assert np.array_equal(linalg.rref(a, P)[0], linalg.rref(a.copy(), P)[0])
    assert np.array_equal(linalg.kernel_basis(a, P).basis,
                          linalg.kernel_basis(a.copy(), P).basis)


def _rref_bytes(result):
    reduced, pivots, rk = result
    return reduced.dtype, reduced.shape, reduced.tobytes(), pivots, rk


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_rref_routes_agree_byte_for_byte(p):
    """The Python-integer route and the numpy route return the same reduced
    bytes, pivots and rank, on inputs that are not reduced mod p, on both
    sides of the crossover that chooses between them."""
    rng = np.random.default_rng(p % 997)
    small = [(0, 0), (0, 1), (0, 7), (7, 0), (1, 1), (1, 9), (9, 1), (2, 3),
             (3, 2), (4, 4), (5, 7), (8, 8), (1, 64), (64, 1)]
    large = [(1, 65), (65, 1), (9, 8), (8, 9), (12, 12), (5, 30), (20, 40)]
    assert all(r * c <= linalg._SMALL_CELLS for r, c in small)
    assert all(r * c > linalg._SMALL_CELLS for r, c in large)
    edges = np.array([0, 1, p - 2, p - 1], dtype=np.int64)
    cases = 0
    for shape in small + large:
        for kind in ("uniform", "edges", "unreduced", "low-rank", "sparse"):
            if kind == "uniform":
                a = rng.integers(0, p, size=shape)
            elif kind == "edges":
                a = rng.choice(edges, size=shape)
            elif kind == "unreduced":
                # negatives and values >= p, including multiples of p
                a = rng.choice(edges, size=shape) + p * rng.integers(-3, 4, size=shape)
            elif kind == "low-rank":
                inner = int(rng.integers(0, 3))
                a = (rng.integers(0, p, size=(shape[0], inner)).astype(object)
                     .dot(rng.integers(0, p, size=(inner, shape[1])).astype(object))
                     % p).astype(np.int64).reshape(shape)
            else:
                a = rng.integers(0, p, size=shape) * (rng.random(shape) < 0.3)
            a = a.astype(np.int64)
            want = _rref_bytes(linalg._rref_numpy(a, p))
            assert want[:2] == (np.int64, shape)
            assert _rref_bytes(linalg._rref_ints(a, p)) == want, (shape, kind)
            assert _rref_bytes(linalg.rref(a, p)) == want, (shape, kind)
            cases += 1
    assert cases == 5 * len(small + large)


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_matmul_stack_matches_matmul_slice_by_slice(p):
    """Each slice of a stacked product has the bytes of matmul on that
    slice and the value of the product in Python integers, with empty
    stacks, empty factors, and an inner dimension above the chunk step at
    the largest prime."""
    rng = np.random.default_rng(p % 991)
    step = max(1, 2**62 // (p - 1) ** 2)
    shapes = [(0, 2, 3, 2), (3, 0, 2, 2), (3, 2, 0, 4), (3, 2, 4, 0), (7, 1, 1, 1),
              (5, 3, 4, 2), (4, 2, 40, 3)]
    if p == 2**31 - 1:
        assert step < 40
    edges = np.array([0, 1, p - 2, p - 1], dtype=np.int64)
    for n, r, k, c in shapes:
        for kind in ("uniform", "edges"):
            if kind == "uniform":
                a = rng.integers(0, p, size=(n, r, k)).astype(np.int64)
                b = rng.integers(0, p, size=(n, k, c)).astype(np.int64)
            else:
                a, b = rng.choice(edges, size=(n, r, k)), rng.choice(edges, size=(n, k, c))
            got = linalg.matmul_stack(a, b, p)
            assert got.dtype == np.int64 and got.shape == (n, r, c)
            for i in range(n):
                want = linalg.matmul(a[i], b[i], p)
                assert got[i].tobytes() == want.tobytes(), (n, r, k, c, kind)
                assert got[i].tolist() == [
                    [sum(int(a[i, x, t]) * int(b[i, t, y]) for t in range(k)) % p
                     for y in range(c)] for x in range(r)]
    with pytest.raises(ShapeError):
        linalg.matmul_stack(np.zeros((2, 1, 3), np.int64), np.zeros((2, 2, 1), np.int64), p)
    with pytest.raises(ShapeError):
        linalg.matmul_stack(np.zeros((2, 1, 3), np.int64), np.zeros((1, 3, 1), np.int64), p)
