"""Finite monoids, acts, graded algebras, and the module-category bridges.

Three data layouts carry the same mathematics on finite instances:

* FunctorModule: one small matrix per (algebra basis element, point) arrow,
  i.e. an additive functor on the action category of the act.
* GradedModule: one total-space matrix per algebra basis element, with the
  grading recorded as a block-support condition.
* SmashModule: one total-space matrix per basis element of the smash
  product, a module over a ring without identity.

The last two keep their matrices as one reduced int64 array of shape
(count, n, n), which the validators read directly.  phi/psi convert between
the first two and gamma/lambda_functor between the first and third; all
four are data transformations whose round trips are exact identities,
which the validators and test suites check exhaustively.  Random functor
modules are quotients of one free module on a list of points
(free_functor_module).

Input from outside follows the rule of ``PersModule``, and ``gpmod.linalg``
alone applies it.  Dimensions and degrees go through ``linalg.as_dims``,
monoid and act tables through ``linalg.as_indices``, and structure
constants, unit, arrows, actions and the vectors given to ``product``,
``unit_sides``, ``act_vector`` and ``local_unit`` through
``linalg.as_shaped``.  An entry that is not an integer, a dimension that
is not a non-negative integer, a degree outside the monoid and a wrong
shape raise ShapeError naming the argument; a table entry outside its
range raises ValidationError naming the cell.  Nothing is truncated, and
unsigned entries are reduced before any cast.  Every constructor's
``validate=True`` coerces into new arrays and checks the axioms.  With
``validate=False``, which the library's own builders pass, an int64
``np.ndarray`` of the declared shape is stored as given
(``linalg.is_built``): its caller promises that it is reduced mod p, or in
range for a table, and that nothing writes to it afterwards.  Anything
else is still coerced and checked as under ``validate=True``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import (
    ArityMismatch,
    InternalError,
    NotComparable,
    NotUnital,
    ValidationError,
)
from .linalg import FieldSpec
from .modules import PersModule
from .posets import build_poset


# ---------------------------------------------------------------------------
# monoids and acts


def _refuse(kind: str, witness) -> None:
    """The one refusal of every validating constructor here: witness is
    its validator's first failing tuple, or None when the axioms hold."""
    if witness is not None:
        raise ValidationError(f"{kind} axiom violated at {witness}")


class Monoid:
    """A finite monoid given by its full multiplication table, an n x n
    table of indices into ``names``.  ``validate`` as in the module
    docstring: True copies the table (``linalg.as_indices``) and checks
    the unit and associativity; False stores an int64 table as given."""

    __slots__ = ("names", "table", "unit", "name")

    def __init__(self, names, table, *, name="G", validate=True):
        self.names = tuple(names)
        n = len(self.names)
        self.table = (table if not validate and linalg.is_built(table, (n, n))
                      else linalg.as_indices(table, (n, n), n, "monoid table"))
        self.name = name
        ids = np.arange(n)
        units = np.flatnonzero(np.all(self.table == ids, axis=1)
                               & np.all(self.table.T == ids, axis=1))
        if units.size == 0:
            raise ValidationError("monoid table has no two-sided unit")
        self.unit = int(units[0])
        if validate:
            _refuse("monoid", validate_monoid(self))

    def __len__(self):
        return len(self.names)

    def mul(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def __eq__(self, other):
        return (isinstance(other, Monoid) and self.names == other.names
                and np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.names, self.table.tobytes()))

    def __repr__(self):
        return f"Monoid({self.name!r}, order {len(self)})"


def validate_monoid(mon: Monoid):
    """None if associative with the recorded unit, else the first bad tuple."""
    t, ids = mon.table, np.arange(len(mon))
    bad = _first((t[mon.unit] != ids) | (t[:, mon.unit] != ids))
    if bad is not None:
        return ("unit", mon.names[bad[0]])
    # [g, h, k]: (g h) k against g (h k)
    bad = _first(t[t] != t[ids[:, None, None], t])
    if bad is not None:
        return ("associativity",) + tuple(mon.names[x] for x in bad)
    return None


def cyclic_monoid(n: int) -> Monoid:
    names = ["1"] + [f"g{i}" if n > 2 else "g" for i in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return Monoid(names, table, name=f"Z{n}", validate=False)


def trivial_monoid() -> Monoid:
    return Monoid(["1"], [[0]], name="1", validate=False)


class GAct:
    """A left action of a monoid on a finite set of points: a |G| x |A|
    table of indices into ``points``.  ``validate`` as for Monoid, with
    the unit and compatibility axioms."""

    __slots__ = ("monoid", "points", "table", "name")

    def __init__(self, monoid: Monoid, points, table, *, name="A", validate=True):
        self.monoid = monoid
        self.points = tuple(points)
        shape = (len(monoid), len(self.points))
        self.table = (table if not validate and linalg.is_built(table, shape)
                      else linalg.as_indices(table, shape, shape[1], "act table"))
        self.name = name
        if validate:
            _refuse("act", validate_act(self))

    def __len__(self):
        return len(self.points)

    def act(self, g: int, a: int) -> int:
        return int(self.table[g, a])

    def __eq__(self, other):
        return (isinstance(other, GAct) and self.monoid == other.monoid
                and self.points == other.points
                and np.array_equal(self.table, other.table))

    def __repr__(self):
        return f"GAct({self.name!r}, {len(self)} points over {self.monoid.name})"


def validate_act(act: GAct):
    t, mon = act.table, act.monoid
    bad = _first(t[mon.unit] != np.arange(len(act)))
    if bad is not None:
        return ("unit", act.points[bad[0]])
    # [g, h, a]: (g h) . a against g . (h . a)
    bad = _first(t[mon.table] != t[np.arange(len(mon))[:, None, None], t])
    if bad is not None:
        g, h, a = bad
        return ("compatibility", mon.names[g], mon.names[h], act.points[a])
    return None


def regular_act(mon: Monoid) -> GAct:
    return GAct(mon, mon.names, mon.table.copy(), name=f"{mon.name}-regular",
                validate=False)


def trivial_act(mon: Monoid, k: int = 1) -> GAct:
    points = [f"p{i}" for i in range(k)]
    table = [[a for a in range(k)] for _ in range(len(mon))]
    return GAct(mon, points, table, name="trivial", validate=False)


class PreorderRelation:
    """A reflexive transitive relation on named points."""

    __slots__ = ("elements", "pairs")

    def __init__(self, elements, pairs):
        self.elements = tuple(elements)
        self.pairs = frozenset(pairs)

    def leq(self, a, b) -> bool:
        return (a, b) in self.pairs

    def is_reflexive(self) -> bool:
        return all((a, a) in self.pairs for a in self.elements)

    def is_transitive(self) -> bool:
        return all((a, d) in self.pairs
                   for a, b in self.pairs for c, d in self.pairs if b == c)

    def is_antisymmetric(self) -> bool:
        return not any(a != b and (b, a) in self.pairs for a, b in self.pairs)


def act_preorder(act: GAct) -> PreorderRelation:
    """a <= b when some monoid element moves a to b."""
    pairs = set()
    for a in range(len(act)):
        for g in range(len(act.monoid)):
            pairs.add((act.points[a], act.points[act.act(g, a)]))
    return PreorderRelation(act.points, pairs)


def act_properties(act: GAct) -> dict:
    """Exhaustive freeness, faithfulness and order-preservation checks."""
    g_n, a_n = len(act.monoid), len(act)
    free = all(act.act(g, a) != act.act(h, a)
               for a in range(a_n) for g in range(g_n) for h in range(g_n)
               if g != h)
    faithful = all(any(act.act(g, a) != act.act(h, a) for a in range(a_n))
                   for g in range(g_n) for h in range(g_n) if g != h)
    pre = act_preorder(act)
    order_preserving = all(
        pre.leq(act.points[act.act(g, a)], act.points[act.act(g, b)])
        for a, b in itertools.product(range(a_n), repeat=2)
        if pre.leq(act.points[a], act.points[b])
        for g in range(g_n))
    return {"free": free, "faithful": faithful,
            "order_preserving": order_preserving}


def ker_phi(act: GAct) -> frozenset:
    """Pairs of monoid elements acting identically on every point."""
    out = set()
    g_n = len(act.monoid)
    for g in range(g_n):
        for h in range(g_n):
            if all(act.act(g, a) == act.act(h, a) for a in range(len(act))):
                out.add((act.monoid.names[g], act.monoid.names[h]))
    return frozenset(out)


def witness_map(order, a, b) -> dict:
    """The inflationary endofunction sending a to b and fixing the rest."""
    elements, leq = order.elements, order.leq
    if not leq(a, b):
        raise NotComparable(f"{a!r} is not below {b!r}")
    g = {x: (b if x == a else x) for x in elements}
    for x in elements:
        if not leq(x, g[x]):
            raise InternalError("witness map is not inflationary")
    if g[a] != b:
        raise InternalError("witness map misses its target")
    return g


def mcd_grid(g, h):
    """Componentwise min of two nonnegative integer tuples."""
    g, h = tuple(g), tuple(h)
    if len(g) != len(h):
        raise ArityMismatch(f"{g} vs {h}")
    lo = tuple(min(x, y) for x, y in zip(g, h))
    hi = tuple(max(x, y) for x, y in zip(g, h))
    if tuple(x + y for x, y in zip(lo, hi)) != tuple(x + y for x, y in zip(g, h)):
        raise InternalError("min/max identity failed")
    return lo


def mub_grid(g, h):
    """Componentwise max; the unique minimal upper bound in a grid."""
    g, h = tuple(g), tuple(h)
    if len(g) != len(h):
        raise ArityMismatch(f"{g} vs {h}")
    return tuple(max(x, y) for x, y in zip(g, h))


# ---------------------------------------------------------------------------
# graded algebras


def _first(mask: np.ndarray):
    """The index tuple of the first True cell in row-major order, or None."""
    flat = np.flatnonzero(mask)
    return np.unravel_index(flat[0], mask.shape) if flat.size else None


def _owner(components) -> np.ndarray:
    """The point index of every total-space coordinate."""
    return np.repeat(np.arange(len(components)), components)


def _combine(coeffs, mats: np.ndarray, p: int) -> np.ndarray:
    """sum_k coeffs[k] mats[k] mod p for a vector coeffs from outside
    (``linalg.as_shaped``), exact for any prime below 2**31."""
    d = len(mats)
    coeffs = linalg.as_shaped(coeffs, (d,), p, "x").reshape(1, d)
    flat = linalg.matmul(coeffs, mats.reshape(d, math.prod(mats.shape[1:])), p)
    return flat.reshape(mats.shape[1:])


def _first_defect(mats: np.ndarray, table: np.ndarray, p: int):
    """Whether the n x n matrices ``mats[k]`` represent the structure table:
    the first (i, j) in row-major order where mats[i] mats[j] differs from
    sum_k table[i,j,k] mats[k], with the first nonzero column of the
    difference, as (i, j, column); None when there is none.

    Every algebra and module axiom in this module is this check; a table
    is associative exactly when its left multiplications
    L_i[z, x] = table[i, x, z] represent it.  Entries are reduced mod p;
    one slice per i is live at a time, d * n**2 cells.
    """
    d, n = mats.shape[0], mats.shape[1]
    by_col = mats.transpose(1, 0, 2).reshape(n, d * n)  # [r, (j, c)]
    flat = mats.reshape(d, n * n)
    for i in range(d):
        prods = linalg.matmul(mats[i], by_col, p).reshape(n, d, n)  # [r, j, c]
        combos = linalg.matmul(table[i], flat, p).reshape(d, n, n)  # [j, r, c]
        bad = _first((prods != combos.transpose(1, 0, 2)).any(axis=0))
        if bad is not None:
            return i, int(bad[0]), int(bad[1])
    return None


def _unit_failures(table: np.ndarray, x, p: int) -> np.ndarray:
    """[side, v]: whether x e_v != e_v (side 0) and whether e_v x != e_v
    (side 1).  Row v of the combination of the left (right)
    multiplications is x e_v (e_v x), compared with the identity."""
    n = table.shape[0]
    both = _combine(x, np.concatenate([table, table.transpose(1, 0, 2)], axis=1), p)
    return (both.reshape(2, n, n) != linalg.identity(n)).any(axis=2)


def _trilinear(x, y, table: np.ndarray, p: int) -> np.ndarray:
    """sum_{i,j} x_i y_j table[i,j,:] mod p for vectors x and y from
    outside (``linalg.as_shaped``), intermediate sums kept exact."""
    x = linalg.as_shaped(x, table.shape[:1], p, "x")
    y = linalg.as_shaped(y, table.shape[1:2], p, "y")
    outer = np.mod(x[:, None] * y[None, :], p)
    return linalg.matmul(outer.reshape(1, -1),
                         table.reshape(outer.size, table.shape[2]), p)[0]


class GradedAlgebra:
    """A finite-dimensional algebra graded by a monoid.

    ``mult[i, j, k]`` is the coefficient of basis element k in the product
    of basis elements i and j; ``degs[i]`` indexes the monoid element
    grading basis element i.  The unit vector must be supported in degree
    one so that graded free modules have a well-placed generator.

    ``degs`` is always checked (``linalg.as_dims``, below the monoid's
    order) and kept as a tuple.  ``validate`` as in the module docstring: True copies ``mult``
    and ``unit`` reduced mod p (``linalg.as_shaped``) and checks the
    grading, the unit and associativity; False stores int64 arrays of
    shapes (d, d, d) and (d,) as given.
    """

    __slots__ = ("field", "monoid", "syms", "degs", "mult", "unit", "name")

    def __init__(self, field: FieldSpec, monoid: Monoid, syms, degs, mult,
                 unit, *, name="S", validate=True):
        self.field = field
        self.monoid = monoid
        self.syms = tuple(syms)
        d, p = len(self.syms), field.p
        self.degs = linalg.as_dims(degs, self.syms, "degree", len(monoid))
        self.mult = (mult if not validate and linalg.is_built(mult, (d, d, d))
                     else linalg.as_shaped(mult, (d, d, d), p, "structure constants"))
        self.unit = (unit if not validate and linalg.is_built(unit, (d,))
                     else linalg.as_shaped(unit, (d,), p, "unit"))
        self.name = name
        if validate:
            _refuse("algebra", validate_graded_algebra(self))

    @property
    def dim(self) -> int:
        return len(self.syms)

    @property
    def is_monoid_algebra(self) -> bool:
        """Whether this is the monoid algebra k[G]: basis element i has
        degree i, with the structure constants and unit of
        ``monoid_algebra``."""
        if self.degs != tuple(range(len(self.monoid))):
            return False
        ref = monoid_algebra(self.monoid, self.field)
        return (np.array_equal(self.mult, ref.mult)
                and np.array_equal(self.unit, ref.unit))

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _trilinear(x, y, self.mult, self.field.p)

    def __eq__(self, other):
        return (isinstance(other, GradedAlgebra) and self.field == other.field
                and self.monoid == other.monoid and self.syms == other.syms
                and self.degs == other.degs
                and np.array_equal(self.mult, other.mult)
                and np.array_equal(self.unit, other.unit))

    def __repr__(self):
        return f"GradedAlgebra({self.name!r}, dim {self.dim} over {self.monoid.name})"


def validate_graded_algebra(alg: GradedAlgebra):
    p, syms = alg.field.p, alg.syms
    degs = np.array(alg.degs, dtype=np.int64)
    bad = _first((alg.unit != 0) & (degs != alg.monoid.unit))
    if bad is not None:
        return ("unit_degree", syms[bad[0]])
    # [i, j, k]: e_k occurs in e_i e_j outside the degree deg(i) deg(j)
    product_deg = alg.monoid.table[degs[:, None], degs]
    bad = _first((alg.mult != 0) & (degs != product_deg[:, :, None]))
    if bad is not None:
        return ("grading",) + tuple(syms[x] for x in bad)
    left, right = _unit_failures(alg.mult, alg.unit, p)
    bad = _first(left | right)
    if bad is not None:
        return ("left_unit" if left[bad[0]] else "right_unit", syms[bad[0]])
    bad = _first_defect(alg.mult.transpose(0, 2, 1), alg.mult, p)  # L_i
    if bad is not None:
        return ("associativity",) + tuple(syms[x] for x in bad)
    return None


def monoid_algebra(mon: Monoid, field: FieldSpec) -> GradedAlgebra:
    """The monoid algebra with one basis element per monoid element."""
    n = len(mon)
    mult = np.zeros((n, n, n), dtype=np.int64)
    g = np.arange(n)
    mult[g[:, None], g, mon.table] = 1
    unit = np.zeros(n, dtype=np.int64)
    unit[mon.unit] = 1
    return GradedAlgebra(field, mon, mon.names, list(range(n)), mult, unit,
                         name=f"k[{mon.name}]", validate=False)


def dual_numbers_algebra(field: FieldSpec) -> GradedAlgebra:
    """k[x]/(x^2) graded over the order-2 cyclic monoid with x in the
    nontrivial degree; the smallest graded algebra that is not a monoid
    algebra."""
    mon = cyclic_monoid(2)
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = 1
    mult[0, 1, 1] = 1
    mult[1, 0, 1] = 1
    unit = np.array([1, 0], dtype=np.int64)
    return GradedAlgebra(field, mon, ("u", "x"), (0, 1), mult, unit,
                         name="k[x]/(x^2)")


def matrix_units_algebra(field: FieldSpec) -> GradedAlgebra:
    """The 2x2 matrix algebra graded over the order-2 group by parity of the
    off-diagonal position; noncommutative test fixture."""
    mon = cyclic_monoid(2)
    syms = ("e11", "e22", "e12", "e21")
    degs = (0, 0, 1, 1)
    mult = np.zeros((4, 4, 4), dtype=np.int64)
    pos = {"e11": (0, 0), "e22": (1, 1), "e12": (0, 1), "e21": (1, 0)}
    rev = {v: k for k, v in pos.items()}
    idx = {s: i for i, s in enumerate(syms)}
    for a in syms:
        for b in syms:
            (i1, j1), (i2, j2) = pos[a], pos[b]
            if j1 == i2:
                mult[idx[a], idx[b], idx[rev[(i1, j2)]]] = 1
    unit = np.array([1, 1, 0, 0], dtype=np.int64)
    return GradedAlgebra(field, mon, syms, degs, mult, unit, name="M2")


# ---------------------------------------------------------------------------
# the three module layouts


class FunctorModule:
    """Per-arrow matrices: arrows[(i, a)] maps the space at point a to the
    space at point deg(i) . a; ``spaces`` holds one dimension per point.

    A missing arrow is the zero map (``linalg.zero_map``).  ``validate`` as
    in the module docstring: True coerces every arrow and checks the unit
    and composition axioms; False stores an int64 arrow of its declared
    shape as given."""

    __slots__ = ("algebra", "act", "spaces", "arrows")

    def __init__(self, algebra: GradedAlgebra, act: GAct, spaces, arrows,
                 *, validate=True):
        if act.monoid != algebra.monoid:
            raise ValidationError("act and algebra are over different monoids")
        self.algebra = algebra
        self.act = act
        self.spaces = linalg.as_dims(spaces, act.points, "space")
        p = algebra.field.p
        fixed = {}
        for i in range(algebra.dim):
            g = algebra.degs[i]
            for a in range(len(act)):
                b = act.act(g, a)
                m, shape = arrows.get((i, a)), (self.spaces[b], self.spaces[a])
                if m is None:
                    m = linalg.zero_map(*shape)
                elif validate or not linalg.is_built(m, shape):
                    m = linalg.as_shaped(m, shape, p, f"arrow ({algebra.syms[i]!r}, "
                                                      f"{act.points[a]!r})")
                fixed[(i, a)] = m
        stray = [key for key in arrows if key not in fixed]
        if stray:
            raise ValidationError(
                f"arrow key {stray[0]!r} names no (basis element, point) pair")
        self.arrows = fixed
        if validate:
            _refuse("functor module", validate_functor_module(self))

    @property
    def total_dim(self) -> int:
        return sum(self.spaces)

    def __eq__(self, other):
        return (isinstance(other, FunctorModule) and self.algebra == other.algebra
                and self.act == other.act and self.spaces == other.spaces
                and all(np.array_equal(self.arrows[k], other.arrows[k])
                        for k in self.arrows))

    def __repr__(self):
        return f"FunctorModule(spaces={self.spaces})"


def validate_functor_module(f: FunctorModule):
    """The axioms on phi(f)'s matrices; the column block of the first
    failing column names the point."""
    alg, points = f.algebra, f.act.points
    p = alg.field.p
    mats = phi(f).action
    owner = _owner(f.spaces)
    unit = _combine(alg.unit, mats, p) != linalg.identity(f.total_dim)
    bad = _first(unit.any(axis=0))
    if bad is not None:
        return ("unit", points[owner[bad[0]]])
    bad = _first_defect(mats, alg.mult, p)
    if bad is not None:
        i, j, col = bad
        return ("composition", alg.syms[i], alg.syms[j], points[owner[col]])
    return None


class GradedModule:
    """One total-space matrix per algebra basis element, ``action[i]``; the
    grading is the block-support condition linking point components, one
    dimension per point.  ``validate`` as in the module docstring: True
    coerces ``action`` and checks grading, unit and associativity; False
    stores an int64 array of shape (dim, n, n) as given."""

    __slots__ = ("algebra", "act", "components", "offsets", "action")

    def __init__(self, algebra: GradedAlgebra, act: GAct, components, action,
                 *, validate=True):
        if act.monoid != algebra.monoid:
            raise ValidationError("act and algebra are over different monoids")
        self.algebra = algebra
        self.act = act
        self.components = linalg.as_dims(components, act.points, "component")
        self.offsets = tuple(itertools.accumulate(self.components, initial=0))[:-1]
        total = sum(self.components)
        shape = (algebra.dim, total, total)
        self.action = (action if not validate and linalg.is_built(action, shape)
                       else linalg.as_shaped(action, shape, algebra.field.p,
                                             "graded action"))
        if validate:
            _refuse("graded module", validate_graded_module(self))

    @property
    def total_dim(self) -> int:
        return sum(self.components)

    def block(self, mat: np.ndarray, row_pt: int, col_pt: int) -> np.ndarray:
        r0 = self.offsets[row_pt]
        c0 = self.offsets[col_pt]
        return mat[r0:r0 + self.components[row_pt], c0:c0 + self.components[col_pt]]

    def __eq__(self, other):
        return (isinstance(other, GradedModule) and self.algebra == other.algebra
                and self.act == other.act and self.components == other.components
                and np.array_equal(self.action, other.action))

    def __repr__(self):
        return f"GradedModule(components={self.components})"


def validate_graded_module(q: GradedModule):
    alg, act = q.algebra, q.act
    p, mats = alg.field.p, q.action
    owner = _owner(q.components)
    # [i, r, c]: the column's point does not move to the row's under deg(i)
    target = act.table[list(alg.degs)][:, owner]
    off_block = owner[None, :, None] != target[:, None, :]
    bad = _first(((mats != 0) & off_block).any(axis=1))
    if bad is not None:
        return ("grading", alg.syms[bad[0]], act.points[owner[bad[1]]])
    if np.any(_combine(alg.unit, mats, p) != linalg.identity(q.total_dim)):
        return ("unit",)
    bad = _first_defect(mats, alg.mult, p)
    if bad is not None:
        return ("associativity", alg.syms[bad[0]], alg.syms[bad[1]])
    return None


def phi(f: FunctorModule) -> GradedModule:
    """Assemble per-arrow matrices into total graded action matrices."""
    alg, act = f.algebra, f.act
    n = f.total_dim
    q = GradedModule(alg, act, f.spaces, np.zeros((alg.dim, n, n), dtype=np.int64),
                     validate=False)
    for i in range(alg.dim):
        for a in range(len(act)):
            # q.block is a view into q's own action matrix
            q.block(q.action[i], act.act(alg.degs[i], a), a)[:] = f.arrows[(i, a)]
    return q


def psi(q: GradedModule) -> FunctorModule:
    """Slice total graded action matrices into per-arrow matrices."""
    alg, act = q.algebra, q.act
    arrows = {}
    for i in range(alg.dim):
        g = alg.degs[i]
        for a in range(len(act)):
            b = act.act(g, a)
            arrows[(i, a)] = q.block(q.action[i], b, a).copy()
    return FunctorModule(alg, act, q.components, arrows, validate=False)


# ---------------------------------------------------------------------------
# smash products


class SmashAlgebra:
    """The smash product of a graded algebra with an act: a ring without
    identity on basis pairs (algebra basis element, point projection)."""

    __slots__ = ("algebra", "act", "pairs", "index", "table")

    def __init__(self, algebra: GradedAlgebra, act: GAct, *, validate=True):
        self.algebra = algebra
        self.act = act
        d, n_pts = algebra.dim, len(act)
        self.pairs = tuple((i, a) for i in range(d) for a in range(n_pts))
        self.index = {pair: t for t, pair in enumerate(self.pairs)}
        n = len(self.pairs)
        # e_(i,a) e_(j,b) = sum_k mult[i,j,k] e_(k,b) when deg(j) . b = a
        meets = (act.table[list(algebra.degs)][None, :, :]
                 == np.arange(n_pts)[:, None, None]).astype(np.int64)
        self.table = np.einsum("ijk,ajb,bc->iajbkc", algebra.mult, meets,
                               linalg.identity(n_pts)).reshape(n, n, n)
        if validate and not self._associative():
            raise InternalError("smash product table is not associative")

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def __eq__(self, other):
        return (isinstance(other, SmashAlgebra) and self.algebra == other.algebra
                and self.act == other.act
                and np.array_equal(self.table, other.table))

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _trilinear(x, y, self.table, self.algebra.field.p)

    def basis_vector(self, i: int, a: int) -> np.ndarray:
        (i,) = linalg.as_dims((i,), ("basis element",), "index", self.algebra.dim)
        (a,) = linalg.as_dims((a,), ("point",), "index", len(self.act))
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.index[(i, a)]] = 1
        return v

    def point_idempotent(self, a: int) -> np.ndarray:
        """p_a: the unit of the algebra times the projection at a."""
        return self.idempotent_sum([a])

    def idempotent_sum(self, points) -> np.ndarray:
        """The sum of p_a over the distinct points a in ``points``, reduced
        mod the algebra's prime: the unit's entries in the columns of those
        points, since p_a and p_b share no basis pair for a != b."""
        points = _point_indices(points, self.act)
        v = np.zeros((self.algebra.dim, len(self.act)), dtype=np.int64)
        v[:, sorted(set(points))] = self.algebra.unit[:, None]
        return v.reshape(self.dim)

    def unit_sides(self, x: np.ndarray) -> tuple[bool, bool]:
        """Whether x is a left and whether it is a right unit: x e_v = e_v
        and e_u x = e_u for every basis element."""
        left, right = ~_unit_failures(self.table, x, self.algebra.field.p).any(axis=1)
        return bool(left), bool(right)

    def _associative(self) -> bool:
        return _first_defect(self.table.transpose(0, 2, 1), self.table,
                             self.algebra.field.p) is None

    def pair_name(self, t: int) -> str:
        i, a = self.pairs[t]
        return f"{self.algebra.syms[i]}@{self.act.points[a]}"


def _point_indices(points, act: GAct) -> tuple[int, ...]:
    """A list of points of act from outside, as indices below len(act),
    each labelled by its place in the list."""
    points = tuple(points)
    return linalg.as_dims(points, range(len(points)), "point", len(act))


def smash_product(algebra: GradedAlgebra, act: GAct) -> SmashAlgebra:
    return SmashAlgebra(algebra, act)


def local_unit(sm: SmashAlgebra, elements) -> np.ndarray:
    """An idempotent w with w t = t and w t w = w t for every listed t.

    ``elements`` is a nonempty list of smash algebra vectors, each of shape
    (sm.dim,) with integer entries (``linalg.as_shaped``); the point set
    B collects, for every nonzero basis component, the source point and its
    image under the component's degree.
    """
    elements = [linalg.as_shaped(t, (sm.dim,), sm.algebra.field.p, f"element {k}")
                for k, t in enumerate(elements)]
    if not elements:
        raise ValidationError("local_unit needs a nonempty element list")
    points = set()
    for t in elements:
        for flat in np.nonzero(t)[0]:
            i, a = sm.pairs[int(flat)]
            points.add(a)
            points.add(sm.act.act(sm.algebra.degs[i], a))
    w = sm.idempotent_sum(points)
    if not np.array_equal(sm.product(w, w), w):
        raise InternalError("local unit is not idempotent")
    for t in elements:
        wt = sm.product(w, t)
        if not np.array_equal(wt, t):
            raise InternalError("local unit fails to absorb on the left")
        if not np.array_equal(sm.product(wt, w), wt):
            raise InternalError("local unit fails w t w = w t")
    return w


class SmashModule:
    """A module over the smash product: one total matrix per basis pair,
    ``action[t]`` for the pair ``smash.pairs[t]``.  ``validate`` as in the
    module docstring: True coerces ``action`` and checks the product
    axiom; False stores an int64 array of shape (smash.dim, dim, dim) as
    given."""

    __slots__ = ("smash", "dim", "action")

    def __init__(self, smash: SmashAlgebra, dim: int, action, *, validate=True):
        self.smash = smash
        (self.dim,) = linalg.as_dims((dim,), ("smash module",), "dimension")
        shape = (smash.dim, self.dim, self.dim)
        self.action = (action if not validate and linalg.is_built(action, shape)
                       else linalg.as_shaped(action, shape, smash.algebra.field.p,
                                             "smash module action"))
        if validate:
            _refuse("smash module", validate_smash_module(self))

    def act_vector(self, x) -> np.ndarray:
        return _combine(x, self.action, self.smash.algebra.field.p)

    def __eq__(self, other):
        return (isinstance(other, SmashModule) and self.smash == other.smash
                and self.dim == other.dim
                and np.array_equal(self.action, other.action))

    def __repr__(self):
        return f"SmashModule(dim={self.dim})"


def validate_smash_module(q: SmashModule):
    sm = q.smash
    bad = _first_defect(q.action, sm.table, sm.algebra.field.p)
    if bad is not None:
        return ("product", sm.pair_name(bad[0]), sm.pair_name(bad[1]))
    return None


def gamma(f: FunctorModule, sm: SmashAlgebra | None = None) -> SmashModule:
    """Total space is the sum of the point spaces; the basis pair (i, a)
    acts through the arrow at (i, a) on the a-block."""
    if sm is None:
        sm = SmashAlgebra(f.algebra, f.act, validate=False)
    # phi(f)'s matrix for i with every column outside the a-block zeroed
    pairs = np.array(sm.pairs, dtype=np.int64).reshape(-1, 2)
    in_block = _owner(f.spaces) == pairs[:, 1, None]
    action = phi(f).action[pairs[:, 0]] * in_block[:, None, :]
    return SmashModule(sm, f.total_dim, action, validate=False)


def point_projectors(q: SmashModule) -> list[np.ndarray]:
    return [q.act_vector(q.smash.point_idempotent(a))
            for a in range(len(q.smash.act))]


def is_unital(q: SmashModule) -> bool:
    """The point idempotents must decompose the total space: idempotent,
    pairwise orthogonal images, ranks summing to the dimension."""
    p = q.smash.algebra.field.p
    projs = point_projectors(q)
    for i, pi in enumerate(projs):
        if not np.array_equal(linalg.matmul(pi, pi, p), pi):
            return False
        for j, pj in enumerate(projs):
            if i != j and np.any(linalg.matmul(pi, pj, p)):
                return False
    return sum(linalg.rank(pi, p) for pi in projs) == q.dim


def lambda_functor(q: SmashModule):
    """Split a unital smash module into per-point spaces and arrows.

    Returns (FunctorModule, inclusion matrices per point).  Point spaces
    are the images of the point idempotents p_a, taken as the kernels of
    I - p_a: each basis is the identity at its free rows, where every arrow
    is read off and then checked in one product.
    """
    if not is_unital(q):
        raise NotUnital("smash module is not unital")
    sm = q.smash
    p = sm.algebra.field.p
    ident = linalg.identity(q.dim)
    kernels = [linalg.kernel_basis_with_free((ident - pa) % p, p)
               for pa in point_projectors(q)]
    bases = [k.basis for k, _ in kernels]
    spaces = [b.shape[1] for b in bases]
    arrows = {}
    for i in range(sm.algebra.dim):
        g = sm.algebra.degs[i]
        for a in range(len(sm.act)):
            b = sm.act.act(g, a)
            moved = linalg.matmul(q.action[sm.index[(i, a)]], bases[a], p)
            arrows[(i, a)] = linalg.factor(bases[b].T, kernels[b][1], moved.T, p,
                                           "graded piece escapes its block").T
    fm = FunctorModule(sm.algebra, sm.act, spaces, arrows, validate=False)
    return fm, bases


# ---------------------------------------------------------------------------
# category algebra vs smash product


def category_algebra_iso(field: FieldSpec, mon: Monoid, act: GAct) -> dict:
    """Compare the linearized action-category algebra with the smash product
    of the monoid algebra, under the basis swap (a, g) -> (g, a)."""
    sm = SmashAlgebra(monoid_algebra(mon, field), act, validate=False)
    n_g, n_a = len(mon), len(act)
    dim = n_g * n_a
    # the category basis element (a, g) is the arrow g: a -> g a, at index
    # a * n_g + g; swap[ci] is its smash index
    swap = np.array([sm.index[(g, a)] for a in range(n_a) for g in range(n_g)])
    bijective = np.array_equal(np.sort(swap), np.arange(dim))
    # e_(b,h) . e_(a,g) = e_(a,hg) when g a = b, built from the tables alone
    cat = np.zeros((n_a, n_g, n_a, n_g, n_a, n_g), dtype=np.int64)
    h, a, g = np.indices((n_g, n_a, n_g), sparse=True)
    cat[act.table[g, a], h, a, g, a, mon.table[h, g]] = 1
    smash = sm.table[swap][:, swap][:, :, swap]
    # rows in (b, h, a, g) order; the witness is the first mismatching row
    bad = np.any(smash != cat.reshape(dim, dim, dim), axis=2).reshape(-1)
    ring_hom = not bad.any()
    witness = None
    if not ring_hom:
        b, h, a, g = np.unravel_index(int(np.argmax(bad)), (n_a, n_g, n_a, n_g))
        witness = (act.points[b], mon.names[h], act.points[a], mon.names[g])
    return {"dim": dim, "ring_hom": ring_hom, "bijective": bijective,
            "sum_pa_is_unit": all(sm.unit_sides(sm.idempotent_sum(range(n_a)))),
            "witness": witness}


# ---------------------------------------------------------------------------
# free functor modules, cokernels, random instances


def free_functor_module(alg: GradedAlgebra, act: GAct, points) -> FunctorModule:
    """The free functor module with one generator at each listed point,
    summands in list order.

    The space at b is spanned by the pairs (t, i) with deg(i) . points[t]
    = b, in (t, i) order; arrow j sends (t, i) to sum_k mult[j,i,k] (t, k).
    """
    n_pts = len(act)
    points = _point_indices(points, act)
    at = act.table[np.ix_(alg.degs, points)].T  # [t, i]: the point of (t, i)
    # pos[t, i]: the place of (t, i) among the pairs at its point
    pos = np.empty_like(at)
    spaces = [0] * n_pts
    for t, i in np.ndindex(at.shape):
        pos[t, i] = spaces[at[t, i]]
        spaces[at[t, i]] += 1
    arrows = {(j, b): linalg.zeros(spaces[act.act(alg.degs[j], b)], spaces[b])
              for j in range(alg.dim) for b in range(n_pts)}
    for j, i, k in zip(*np.nonzero(alg.mult)):
        for t in range(len(points)):
            arrows[(j, at[t, i])][pos[t, k], pos[t, i]] = alg.mult[j, i, k]
    return FunctorModule(alg, act, spaces, arrows, validate=False)


def fm_cokernel(target: FunctorModule, components: dict) -> FunctorModule:
    """Pointwise cokernel of a morphism into ``target`` given by per-point
    component matrices; arrows are induced on the quotients."""
    alg, act = target.algebra, target.act
    p = alg.field.p
    coks = [linalg.cokernel(components[a], p) for a in range(len(act))]
    arrows = {}
    for i in range(alg.dim):
        for a in range(len(act)):
            b = act.act(alg.degs[i], a)
            rhs = linalg.matmul(coks[b][1], target.arrows[(i, a)], p)
            _, proj, free = coks[a]
            arrows[(i, a)] = linalg.factor(proj, free, rhs, p,
                                           "cokernel arrow is not induced")
    return FunctorModule(alg, act, [d for d, _, _ in coks], arrows, validate=False)


def random_functor_module(alg: GradedAlgebra, act: GAct, rng,
                          max_gens: int = 2, max_rels: int = 2) -> FunctorModule:
    """A random quotient of a free module on random points.

    A relation at b0 with vector v is the image of the generator of the
    free module at b0: the columns arrows[(i, b0)] v at deg(i) . b0.
    """
    n_pts, p = len(act), alg.field.p
    n_gens = int(rng.integers(1, max_gens + 1))
    free = free_functor_module(alg, act, [int(rng.integers(0, n_pts))
                                          for _ in range(n_gens)])
    n_rels = int(rng.integers(0, max_rels + 1))
    if n_rels == 0:
        return free
    cols = [[linalg.zeros(free.spaces[b], 0)] for b in range(n_pts)]
    for b0 in [int(rng.integers(0, n_pts)) for _ in range(n_rels)]:
        v = rng.integers(0, p, size=(free.spaces[b0], 1)).astype(np.int64)
        for i in range(alg.dim):
            cols[act.act(alg.degs[i], b0)].append(
                linalg.matmul(free.arrows[(i, b0)], v, p))
    return fm_cokernel(free, {b: np.hstack(cols[b]) for b in range(n_pts)})


# ---------------------------------------------------------------------------
# bridge to persistence modules


def pers_from_functor_module(f: FunctorModule, field: FieldSpec | None = None,
                             *, name="transported") -> PersModule:
    """Reread a functor module over a monoid algebra as a persistence module
    over the act's order.

    Needs an antisymmetric action preorder, so the points form a poset.
    Along each cover the acting element must be determined: either unique,
    or all elements moving the lower point to the upper one act through
    equal arrows in this module.  (Over a finite monoid a genuinely free
    act only exists for the trivial group, since some power of every
    element is an idempotent and idempotents pin points; the per-cover
    condition is the finite-scale version of freeness.)
    """
    alg, act = f.algebra, f.act
    if not alg.is_monoid_algebra:
        raise ValidationError("transport needs a monoid algebra")
    pre = act_preorder(act)
    if not pre.is_antisymmetric():
        raise ValidationError("act preorder is not antisymmetric")
    poset = build_poset(act.points, pre.pairs, name="act-order")
    dims = {act.points[a]: f.spaces[a] for a in range(len(act))}
    maps = {}
    for a_name, b_name in poset.covers:
        a = act.points.index(a_name)
        b = act.points.index(b_name)
        movers = [g for g in range(len(act.monoid)) if act.act(g, a) == b]
        arrows = [f.arrows[(g, a)] for g in movers]
        if any(not np.array_equal(arrows[0], m) for m in arrows[1:]):
            raise ValidationError(
                f"ambiguous transport along {a_name!r} -> {b_name!r}")
        maps[(a_name, b_name)] = arrows[0]
    return PersModule(poset, field or alg.field, dims, maps, name=name,
                      validate=True)


# ---------------------------------------------------------------------------
# exhaustive catalogs of small monoids and acts


@lru_cache(maxsize=None)
def enumerate_monoids(max_order: int = 4) -> tuple[Monoid, ...]:
    """All monoids of order at most max_order, one per isomorphism class,
    with the unit normalized to index 0."""
    out = []
    for n in range(1, max_order + 1):
        t = _associative_tables(n)
        sigma = np.array([(0,) + perm for perm in itertools.permutations(range(1, n))],
                         dtype=np.int8)
        inv = np.argsort(sigma, axis=1)
        # cands[r, s, x, y] = sigma_s(t_r[sigma_s^-1(x), sigma_s^-1(y)])
        cands = sigma[np.arange(len(sigma))[:, None, None],
                      t[:, inv[:, :, None], inv[:, None, :]]]
        canon = _least_relabellings(cands.reshape(len(t), len(sigma), n * n))
        for i, table in enumerate(canon.reshape(-1, n, n)):
            names = ["1", "a", "b", "c"][:n]
            out.append(Monoid(names, table.astype(np.int64), name=f"G{n}.{i}",
                              validate=False))
    return tuple(out)


def _associative_tables(n: int) -> np.ndarray:
    """Every associative n x n table with two-sided unit 0, as an int8
    array of shape (rows, n, n) in lexicographic order.

    The (n-1)**2 cells off the unit row and column are filled one at a time
    in row-major order: each row is repeated n times and the new cell takes
    the values 0..n-1 in turn, so the rows stay in lexicographic order.
    After each cell, every row is dropped that breaks an associativity
    constraint (a b) c = a (b c) whose four cells (a, b), (b, c),
    (ab, c) and (a, bc) are all filled; ``filled`` marks those cells,
    and the last two are looked up from each row's own entries.  A row
    survives to the end exactly when every constraint holds."""
    ids = np.arange(n, dtype=np.int8)
    tables = np.zeros((1, n, n), dtype=np.int8)
    tables[:, 0, :] = ids
    tables[:, :, 0] = ids
    filled = np.zeros((n, n), dtype=bool)
    filled[0, :] = filled[:, 0] = True
    for g, h in itertools.product(range(1, n), repeat=2):
        tables = np.repeat(tables, n, axis=0)
        tables[:, g, h] = np.tile(ids, len(tables) // n)
        filled[g, h] = True
        # the triples (a, b, c) whose (a, b) and (b, c) are filled
        a, b, c = np.nonzero(filled[:, :, None] & filled[None])
        rows = np.arange(len(tables))[:, None]
        ab, bc = tables[:, a, b], tables[:, b, c]
        broken = (filled[ab, c] & filled[a, bc]
                  & (tables[rows, ab, c] != tables[rows, a, bc]))
        tables = tables[~broken.any(axis=1)]
    return tables


@lru_cache(maxsize=None)
def _transformations(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m**m self-maps of range(m), one int16 row each in lexicographic
    order, and comp[i, j], the row of f_i o f_j (apply f_j first).  Both
    are cached and read-only.  comp reads the digits f_i(f_j(k)) of a row
    one k at a time by Horner's rule, in place, so no (m**m, m**m, m)
    gather is built."""
    funcs = np.indices((m,) * m, dtype=np.int16).reshape(m, m ** m).T
    comp = np.zeros((m ** m, m ** m), dtype=np.int32)
    for k in range(m):
        comp *= m
        comp += funcs[:, funcs[:, k]]
    funcs.flags.writeable = False
    comp.flags.writeable = False
    return funcs, comp


@lru_cache(maxsize=None)
def enumerate_acts(mon: Monoid, max_size: int = 4) -> tuple[GAct, ...]:
    """All acts of the monoid on at most max_size points, one per act
    isomorphism class (bijections of the point set).

    Each act on m points is a hom into the maps of range(m), found by
    _hom_assignments in closure order: an element that is a product of
    elements already assigned gets its image forced, and any other draws
    only the maps its square allows.  The hom rows come out in an order
    that depends on how they were drawn, which does not reach the output:
    _least_relabellings sorts and dedupes the canonical forms."""
    out = []
    n = len(mon)
    for m in range(1, max_size + 1):
        funcs, _ = _transformations(m)
        tables = funcs[_hom_assignments(mon, m)]
        sigma = np.array(list(itertools.permutations(range(m))), dtype=np.int8)
        # cands[r, s, x, y] = sigma_s(t_r[x, sigma_s^-1(y)])
        cands = sigma[np.arange(len(sigma))[:, None],
                      tables[:, :, np.argsort(sigma, axis=1)]].transpose(0, 2, 1, 3)
        canon = _least_relabellings(cands.reshape(len(tables), len(sigma), n * m))
        for table in canon.reshape(-1, n, m):
            points = [f"p{i}" for i in range(m)]
            out.append(GAct(mon, points, table.astype(np.int64),
                            name=f"act{m}", validate=False))
    return tuple(out)


def _hom_assignments(mon: Monoid, m: int) -> np.ndarray:
    """Every monoid hom from mon into the maps of range(m), as one int32
    row of _transformations(m) indices per hom, indexed by element.

    The elements get their images in closure order: the unit first, then
    the least element that is a product x y of elements already assigned,
    or if there is none the least unassigned element.  A product's image
    is forced, so only the generators met in this order branch."""
    _, comp = _transformations(m)
    n = len(mon)
    assign = np.full((1, n), -1, dtype=np.int32)
    assign[0, mon.unit] = np.ravel_multi_index(np.arange(m), (m,) * m)
    assigned = [mon.unit]
    while len(assigned) < n:
        products = {mon.mul(x, y) for x in assigned for y in assigned}
        g = min(products - set(assigned) or set(range(n)) - set(assigned))
        assign = _extend_assignments(assign, assigned, g, mon, comp)
        assigned.append(g)
    return assign


def _extend_assignments(assign: np.ndarray, assigned, g: int, mon: Monoid,
                        comp: np.ndarray) -> np.ndarray:
    """Give element g an image in every partial hom assignment, whose
    columns ``assigned`` are filled, and keep the rows that respect every
    product x y = z among the assigned elements and g.

    If g = x y for assigned x and y, its image is forced: one gather of
    comp, with no new rows.  Otherwise each row is repeated once per
    candidate map: the idempotent maps when g g = g; the square roots of
    the row's image of h when g g = h is assigned, found by a binary
    search in the sorted diagonal of comp; all maps when g g is not yet
    assigned.  A hom must send g to a candidate, so no hom is lost, and
    every constraint is still checked on every row afterwards."""
    t = mon.table
    forced = [(x, y) for x in assigned for y in assigned if t[x, y] == g]
    square = np.diagonal(comp)  # square[f] is the index of f o f
    rows = len(assign)
    if forced:
        x, y = forced[0]
        pool, first = np.arange(len(comp)), comp[assign[:, x], assign[:, y]]
        counts = np.ones(rows, dtype=np.intp)
    elif t[g, g] in assigned:
        pool = np.argsort(square, kind="stable")
        target = assign[:, t[g, g]]
        first = np.searchsorted(square[pool], target, side="left")
        counts = np.searchsorted(square[pool], target, side="right") - first
    else:
        pool = np.arange(len(comp))
        if t[g, g] == g:
            pool = pool[square == pool]
        first = np.zeros(rows, dtype=np.intp)
        counts = np.full(rows, len(pool))
    assign = np.repeat(assign, counts, axis=0)
    # the k-th copy of a row draws pool[first + k]
    offset = np.arange(len(assign)) - np.repeat(np.cumsum(counts) - counts, counts)
    assign[:, g] = pool[np.repeat(first, counts) + offset]
    done = list(assigned) + [g]
    keep = np.ones(len(assign), dtype=bool)
    for x in done:
        for y in done:
            if t[x, y] in done:
                keep &= assign[:, t[x, y]] == comp[assign[:, x], assign[:, y]]
    return assign[keep]


def _least_relabellings(cands: np.ndarray) -> np.ndarray:
    """The distinct least rows of a batch of relabelled tables, sorted.

    ``cands`` has shape (tables, relabellings, cells): every relabelling of
    every table, flattened.  A table's canonical form is its
    lexicographically least relabelling; entries lie below the dtype's
    maximum, which marks the relabellings already ruled out.
    """
    rows = cands.shape[0]
    ruled_out = np.iinfo(cands.dtype).max
    # narrow each row's candidates cell by cell to its least relabelling
    least = np.ones(cands.shape[:2], dtype=bool)
    for cell in range(cands.shape[2]):
        vals = np.where(least, cands[:, :, cell], ruled_out)
        least &= vals == vals.min(axis=1, keepdims=True)
    canon = cands[np.arange(rows), least.argmax(axis=1)]
    canon = canon[np.lexsort(canon.T[::-1])]
    fresh = np.ones(rows, dtype=bool)
    fresh[1:] = np.any(canon[1:] != canon[:-1], axis=1)
    return canon[fresh]
