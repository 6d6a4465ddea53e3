"""Exact dense linear algebra over a prime field.

All matrices are numpy int64 arrays with entries reduced modulo the field
prime p.  Zero-row and zero-column matrices are legal and denote maps to or
from the zero space.  Every routine is a deterministic function of its
inputs: pivots are always the leftmost nonzero column and the smallest
eligible row, so bases, projections and solutions are byte-reproducible.

Every elimination that returns a basis, a projection or a solution goes
through ``rref``, which has two routes.  Matrices of at most 64 cells,
nearly all of those the invariants reduce on grids, are row-reduced in
lists of Python integers; larger ones in numpy, one array operation per
pivot.  A matrix has exactly one reduced row-echelon form, so the two
routes return the same bytes, pivots and rank.  ``rank`` needs no reduced
form: on at most 64 cells it eliminates forward only, below each pivot
(``_rank_ints``), and takes larger matrices through ``rref``.  The passes
over a module's elements meet many matrices with no cells, and ``rank``
and ``cokernel`` answer those without elimination: rank 0, and the
identity projection with every index free, which is what the (empty)
reduced form would give.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InternalError, NoSolution, ShapeError, ValidationError

# The most cells of one parsed input (``textio``) or one hom system (``modules``)
CELL_LIMIT = 2**24


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p; p must be prime and lie in [2, 2**31)."""

    p: int = 101

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 <= self.p < 2**31 or not _is_prime(self.p):
            raise ValueError(f"field modulus must be a prime in [2, 2**31), got {self.p!r}")


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of F_p^n given by a matrix whose columns are independent."""

    ambient_dim: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


# Outside input -- a dimension, an index table or an array handed to a
# constructor or a public entry point -- becomes gpmod data here and only
# here: the module and graded layers call these and coerce nothing
# themselves.

_INT64 = np.dtype(np.int64)


def as_dims(values, labels, what: str, bound: int | None = None) -> tuple[int, ...]:
    """One dimension, or one index below bound, per label, as Python ints.
    The one check of a dimension from outside: a value that is not a
    non-negative integer (a float or a string is refused, never truncated
    or parsed), or not below bound, is a ShapeError("<what> at <label>
    must be a non-negative integer [below <bound>], got <value>"), and
    anything but a sequence of one value per label is a
    ShapeError("expected <n> <what>s, got ...")."""
    try:
        given = tuple(values)
    except TypeError:
        given = None
    if given is None or len(given) != len(labels):
        raise ShapeError(f"expected {len(labels)} {what}s, got {values!r}")
    dims = []
    for label, d in zip(labels, given):
        try:
            n = operator.index(d)
        except TypeError:
            n = -1
        if n < 0 or bound is not None and n >= bound:
            below = "" if bound is None else f" below {bound}"
            raise ShapeError(f"{what} at {label!r} must be a non-negative "
                             f"integer{below}, got {d!r}")
        dims.append(n)
    return tuple(dims)


def is_built(m, shape: tuple[int, ...]) -> bool:
    """Whether m is taken as built by a constructor given ``validate=False``:
    an int64 ``np.ndarray`` of the declared shape, stored as given, whose
    caller promises that it holds valid entries (reduced mod p, or indices
    in range) and that nothing writes to it afterwards."""
    return type(m) is np.ndarray and m.dtype is _INT64 and m.shape == shape


def _integers(m, shape: tuple[int, ...], what: str) -> np.ndarray:
    """m as an array of the given shape whose entries are integers: an
    integer dtype, or objects such as Python integers past int64.  A flat
    sequence given for a matrix is one row; an array with no cells passes
    whatever its dtype."""
    try:
        a = np.asarray(m)
    except ValueError:
        kind = "matrix" if len(shape) == 2 else "array"
        raise ShapeError(f"{what} is not a rectangular {kind}") from None
    if a.ndim == 1 and len(shape) == 2:
        a = a.reshape(1, -1)
    if a.shape != shape:
        raise ShapeError(f"{what} has shape {a.shape}, expected {shape}")
    if a.dtype.kind not in "biu" and a.size:
        if a.dtype.kind != "O":
            raise ShapeError(f"{what} has {a.dtype} entries, not integers")
        if not all(hasattr(type(x), "__index__") for x in a.flat):
            raise ShapeError(f"{what} has entries that are not integers")
    return a


def as_shaped(m, shape: tuple[int, ...], p: int, what: str) -> np.ndarray:
    """m, nested sequences or an array of integers of any rank, as a new
    int64 array of the given shape reduced mod p; an array with no cells
    is only cast.  Unsigned and Python integers are reduced before the
    cast, so none wraps.  Raises ShapeError("<what> has shape ...") for a
    wrong shape, and ShapeError naming <what> for a ragged matrix or
    entries that are not integers, which are never truncated."""
    a = _integers(m, shape, what)
    if not a.size:
        return a.astype(np.int64, copy=False)
    if a.dtype.kind == "O" or a.dtype.kind == "u" and a.dtype.itemsize == 8:
        return (a % p).astype(np.int64)
    return np.mod(a.astype(np.int64, copy=False), p)


def as_indices(m, shape: tuple[int, ...], bound: int, what: str) -> np.ndarray:
    """m, nested sequences or an array of integers, as a new int64 index
    table of the given shape with every entry in range(bound).  The first
    entry outside it, in row-major order, is a ValidationError naming its
    cell; shape and entry type are checked as in ``as_shaped``."""
    a = _integers(m, shape, what)
    bad = np.argwhere((a < 0) | (a >= bound))
    if bad.size:
        cell = tuple(int(i) for i in bad[0])
        raise ValidationError(f"{what} entry {cell} is {int(a[cell])}, "
                              f"outside range({bound})")
    return a.astype(np.int64)


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


@functools.cache
def _empty_block(rows: int, cols: int) -> np.ndarray:
    """The one shared matrix of a shape with no cells: no caller can write
    through it."""
    return zeros(rows, cols)


def zero_map(rows: int, cols: int) -> np.ndarray:
    """The zero map F_p^cols -> F_p^rows: fresh zeros, or the one shared
    block of its shape when a side is zero."""
    return zeros(rows, cols) if rows and cols else _empty_block(rows, cols)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p.

    The inner dimension is split into chunks small enough that every
    intermediate sum stays below 2**63, so the result is exact for any
    prime below 2**31.
    """
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return _chunked_product(a, b, p)


def _chunked_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p over the last two axes, with the inner dimension cut
    into chunks of at most 2**62 // (p - 1)**2 terms: a chunk's sum plus
    the reduced accumulator stays below 2**63."""
    k = a.shape[-1]
    shape = a.shape[:-1] + b.shape[-1:]
    if k == 0:
        return np.zeros(shape, dtype=np.int64)
    step = max(1, (2**62) // max(1, (p - 1) ** 2))
    if k <= step:
        return (a @ b) % p
    acc = np.zeros(shape, dtype=np.int64)
    for i in range(0, k, step):
        acc = (acc + a[..., i : i + step] @ b[..., i : i + step, :]) % p
    return acc


# Matrices of at most this many cells are reduced in Python integers.  A
# numpy pivot step costs several array calls whatever the size, a Python one
# grows with the cells it touches, so lists win on small inputs only.
# Medians of one call on uniform entries, 2-vCPU shared VM, Python against
# numpy, at p = 101 and at p = 2**31 - 1, where a product of two entries
# takes three 30-bit digits of a Python integer:
#   1x1     4 against 12 us        4 against 14 us
#   3x5    16 against 50 us       21 against 72 us
#   6x10   80 against 117 us     162 against 202 us
#   8x8   107 against 180 us     209 against 266 us
#   8x12  161 against 122 us     231 against 192 us
#   8x16  193 against 186 us     270 against 197 us
#   20x40 1447 against 394 us   4902 against 847 us
_SMALL_CELLS = 64


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Reduced row-echelon form with unit pivots.

    Returns (reduced, pivot column indices, rank); ``reduced`` is a fresh
    int64 array of the input's shape.  Pivot choice is the leftmost nonzero
    column, smallest row index.  A matrix with no cells returns at once.
    One of at most ``_SMALL_CELLS`` (64, the measured crossover) cells is
    reduced by Gauss-Jordan elimination on lists of Python integers, a
    larger one by the numpy loop.  Elementary row operations keep the row
    space, and each row space has exactly one reduced row-echelon form with
    unit pivots, so both routes return the same bytes, pivots and rank.
    """
    r = np.asarray(a, dtype=np.int64)
    rows, cols = r.shape
    if rows == 0 or cols == 0:
        return zeros(rows, cols), (), 0
    if rows * cols <= _SMALL_CELLS:
        return _rref_ints(r, p)
    return _rref_numpy(r, p)


def _rref_ints(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """``rref`` as Gauss-Jordan elimination on lists of Python integers."""
    rows, cols = a.shape
    r = [[x % p for x in line] for line in a.tolist()]
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        i = row
        while i < rows and not r[i][col]:
            i += 1
        if i == rows:
            continue
        r[row], r[i] = r[i], r[row]
        top = r[row]
        inv = pow(top[col], -1, p)
        if inv != 1:
            top = r[row] = [x * inv % p for x in top]
        for k, line in enumerate(r):
            f = line[col]
            if f and k != row:
                r[k] = [(x - f * y) % p for x, y in zip(line, top)]
        pivots.append(col)
        row += 1
    return np.array(r, dtype=np.int64).reshape(rows, cols), tuple(pivots), row


def _rref_numpy(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...], int]:
    """``rref`` with one numpy row operation per pivot."""
    r = np.mod(a, p).copy()
    rows, cols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            r[[row, i]] = r[[i, row]]
        inv = pow(int(r[row, col]), -1, p)
        r[row] = (r[row] * inv) % p
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, tuple(pivots), row


def rank(a: np.ndarray, p: int) -> int:
    """The rank of a; 0 for a matrix with no cells, without ``rref``.  One
    of at most ``_SMALL_CELLS`` cells is reduced by forward elimination
    only (``_rank_ints``), a larger one through ``rref``."""
    if not a.size:
        return 0
    if a.size <= _SMALL_CELLS:
        return _rank_ints(a, p)
    return rref(a, p)[2]


def _rank_ints(a: np.ndarray, p: int) -> int:
    """The rank by forward elimination on lists of Python integers: each
    pivot clears only the rows below it, and only in the trailing columns.
    The shorter side is taken as rows (a and its transpose have one rank):
    every row costs a Python step per pivot, and the column loop stops once
    every row has been a pivot.  Medians of one call against the longer
    side as rows, p = 101, 2-vCPU shared VM: 1x8 1.6 against 8.6 us, 2x8
    5.7 against 14.4, 3x6 7.9 against 14.9, 2x32 14 against 82, 8x8 71
    against 66."""
    rows = [[x % p for x in line]
            for line in (a if a.shape[0] <= a.shape[1] else a.T).tolist()]
    rk = 0
    for col in range(len(rows[0])):
        for k, top in enumerate(rows):
            if top[col]:
                break
        else:
            continue
        del rows[k]
        rk += 1
        if not rows:
            break
        inv = pow(top[col], -1, p)
        tail = [y * inv % p for y in top[col + 1:]]
        for line in rows:
            f = line[col]
            if f:
                line[col + 1:] = [(x - f * y) % p for x, y in zip(line[col + 1:], tail)]
    return rk


def kernel_basis(a: np.ndarray, p: int) -> SubspaceBasis:
    """Basis of {v : a v = 0}, one column per free variable of the rref."""
    return kernel_basis_with_free(a, p)[0]


def kernel_basis_with_free(a: np.ndarray,
                           p: int) -> tuple[SubspaceBasis, tuple[int, ...]]:
    """``kernel_basis`` and the free column indices of a's rref, from one
    elimination.

    Column k of the basis is the solution with free variable free[k] set to
    1 and the other free variables to 0, so the basis restricted to the
    free rows is the identity.  A vector v of the kernel is therefore the
    basis times v's entries at the free rows, and ``lift`` reads every map
    into the kernel off them.
    """
    reduced, pivots, _ = rref(a, p)
    cols = a.shape[1]
    pivot_set = set(pivots)
    free = tuple(j for j in range(cols) if j not in pivot_set)
    basis = zeros(cols, len(free))
    for k, j in enumerate(free):
        basis[j, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(reduced[i, j])) % p
    return SubspaceBasis(cols, basis), free


def lift(basis: np.ndarray, free: tuple[int, ...], y: np.ndarray, p: int,
         message: str) -> np.ndarray:
    """The x with basis @ x = y, for a basis and free rows from
    ``kernel_basis_with_free``; raises InternalError(message) if there is
    none.  The twin of ``factor``: a map into a kernel, read off its free
    rows.

    basis[free] is the identity, so y[free] is the only candidate, and
    independent columns make the solution unique when it exists.
    """
    x = y[list(free)]
    if not np.array_equal(matmul(basis, x, p), y):
        raise InternalError(message)
    return x


def image_basis(a: np.ndarray, p: int) -> SubspaceBasis:
    """Basis of the column space: the original columns at pivot positions."""
    _, pivots, _ = rref(a, p)
    return SubspaceBasis(a.shape[0], np.mod(a[:, list(pivots)], p))


def cokernel(a: np.ndarray, p: int) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """Quotient by the column space of a.

    Returns (dim, projection, free).  The projection has full row rank
    rows(a) - rank(a) and projection @ a = 0; it is the transposed kernel
    basis of a.T (``kernel_basis_with_free``), so its columns at the free
    indices form the identity.  ``factor`` reads every map out of the
    quotient off those columns.  A matrix with no cells spans nothing:
    the projection is the identity, every index free, with no elimination.
    """
    if not a.size:
        return a.shape[0], identity(a.shape[0]), tuple(range(a.shape[0]))
    left_null, free = kernel_basis_with_free(a.T % p, p)
    projection = left_null.basis.T.copy()
    return projection.shape[0], projection, free


def factor(projection: np.ndarray, free: tuple[int, ...], b: np.ndarray,
           p: int, message: str) -> np.ndarray:
    """The x with x @ projection = b, for a projection and free indices
    from ``cokernel``; raises InternalError(message) if there is none.

    projection[:, free] is the identity, so b[:, free] is the only
    candidate, and full row rank makes the solution unique when it exists.
    """
    x = b[:, list(free)].copy()
    if not np.array_equal(matmul(x, projection, p), b):
        raise InternalError(message)
    return x


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Solve a @ x = b, free variables set to 0.  Raises NoSolution."""
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"solve row mismatch: {a.shape} vs {b.shape}")
    aug = np.hstack([a, b]) % p
    reduced, pivots, _ = rref(aug, p)
    na = a.shape[1]
    if any(c >= na for c in pivots):
        raise NoSolution("right-hand side is outside the column span")
    x = zeros(na, b.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = reduced[i, na:]
    return x


def is_isomorphism(a: np.ndarray, p: int) -> bool:
    return a.shape[0] == a.shape[1] == rank(a, p)


def block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    """Block-diagonal assembly; the empty list gives the 0 x 0 matrix."""
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = zeros(rows, cols)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def hstack(blocks: list[np.ndarray], rows: int) -> np.ndarray:
    """Horizontal concatenation that tolerates the empty list."""
    if not blocks:
        return zeros(rows, 0)
    return np.hstack(blocks)


def vstack(blocks: list[np.ndarray], cols: int) -> np.ndarray:
    if not blocks:
        return zeros(0, cols)
    return np.vstack(blocks)
