"""One rule for input from outside, on every constructor and public entry
point of the persistence and graded layers: dimensions and entries that are
not integers, and arrays of the wrong shape, are refused naming the
argument, never truncated; unsigned entries are reduced before any cast, so
none wraps; and with ``validate=False`` an int64 array of the declared
shape is stored as given while anything else is still coerced."""

import re

import numpy as np
import pytest

from gpmod import graded as gr
from gpmod.errors import ShapeError, ValidationError
from gpmod.linalg import FieldSpec
from gpmod.modules import ModuleMorphism, PersModule, free_sum_layout
from gpmod.posets import chain

FIELD = FieldSpec(101)
P = FIELD.p
U64_MAX = 2**64 - 1  # reduces to 78 mod 101; cast to int64 first, it reads -1 (100)
Z2 = gr.cyclic_monoid(2)
ACT = gr.regular_act(Z2)
ALG = gr.monoid_algebra(Z2, FIELD)
FM = gr.free_functor_module(ALG, ACT, [0])  # spaces (1, 1)
SMASH_MOD = gr.gamma(FM)
SM = SMASH_MOD.smash
CHAIN = chain(2)
PM = PersModule(CHAIN, FIELD, {"0": 1, "1": 1}, {("0", "1"): [[1]]})


def _constructor(build, attr):
    """run(value, validate) -> what the constructor stored for value."""
    return lambda value, validate: attr(build(value, validate))


# (name, what the refusal names, a good int64 value, run, index bound or
# None for entries mod p, whether run stores its value as given)
ENTRIES = [
    ("Monoid", "monoid table", Z2.table,
     _constructor(lambda t, v: gr.Monoid(Z2.names, t, validate=v), lambda m: m.table),
     2, True),
    ("GAct", "act table", ACT.table,
     _constructor(lambda t, v: gr.GAct(Z2, ACT.points, t, validate=v), lambda a: a.table),
     2, True),
    ("GradedAlgebra.mult", "structure constants", ALG.mult,
     _constructor(lambda m, v: gr.GradedAlgebra(FIELD, Z2, ALG.syms, ALG.degs, m,
                                                ALG.unit, validate=v),
                  lambda a: a.mult),
     None, True),
    ("GradedAlgebra.unit", "unit", ALG.unit,
     _constructor(lambda u, v: gr.GradedAlgebra(FIELD, Z2, ALG.syms, ALG.degs,
                                                ALG.mult, u, validate=v),
                  lambda a: a.unit),
     None, True),
    ("FunctorModule.arrows", "arrow ('g', '1')", FM.arrows[(1, 0)],
     _constructor(lambda m, v: gr.FunctorModule(ALG, ACT, FM.spaces,
                                                {**FM.arrows, (1, 0): m}, validate=v),
                  lambda f: f.arrows[(1, 0)]),
     None, True),
    ("GradedModule.action", "graded action", gr.phi(FM).action,
     _constructor(lambda m, v: gr.GradedModule(ALG, ACT, FM.spaces, m, validate=v),
                  lambda q: q.action),
     None, True),
    ("SmashModule.action", "smash module action", SMASH_MOD.action,
     _constructor(lambda m, v: gr.SmashModule(SM, SMASH_MOD.dim, m, validate=v),
                  lambda q: q.action),
     None, True),
    ("PersModule.cover_maps", "map '0'->'1'", np.array([[1]], dtype=np.int64),
     _constructor(lambda m, v: PersModule(CHAIN, FIELD, PM.dims, {("0", "1"): m},
                                          validate=v),
                  lambda m: m.cover_maps[("0", "1")]),
     None, True),
    ("ModuleMorphism.components", "component at '0'", np.array([[1]], dtype=np.int64),
     _constructor(lambda m, v: ModuleMorphism(PM, PM, {"0": m, "1": [[1]]}, validate=v),
                  lambda f: f.components["0"]),
     None, True),
    ("local_unit", "element 0", SM.basis_vector(1, 0),
     lambda x, validate: gr.local_unit(SM, [x]), None, False),
    ("GradedAlgebra.product", "x", ALG.unit,
     lambda x, validate: ALG.product(x, np.array([3, 5], dtype=np.int64)), None, False),
    ("SmashAlgebra.product", "x", SM.basis_vector(1, 0),
     lambda x, validate: SM.product(x, SM.basis_vector(1, 1)), None, False),
    ("SmashModule.act_vector", "x", SM.basis_vector(1, 0),
     lambda x, validate: SMASH_MOD.act_vector(x), None, False),
]
ENTRY_IDS = [e[0] for e in ENTRIES]


def _planted(good, value):
    """good as nested lists with its first cell replaced by value."""
    rows = good.tolist()
    cell = rows
    for _ in range(good.ndim - 1):
        cell = cell[0]
    cell[0] = value
    return rows


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("name, what, good, run, bound, kept", ENTRIES, ids=ENTRY_IDS)
def test_entries_that_are_not_integers_or_misshapen_are_refused(
        name, what, good, run, bound, kept, validate):
    for bad, kind in ((1.7, "float64"), ("2", "<U")):
        with pytest.raises(ShapeError, match=f"^{re.escape(what)} has {kind}"):
            run(_planted(good, bad), validate)
        with pytest.raises(ShapeError, match=f"^{re.escape(what)} has "):
            run(np.array(_planted(good, bad), dtype=object), validate)
    wrong = np.zeros(tuple(s + 1 for s in good.shape), dtype=np.int64)
    with pytest.raises(ShapeError, match=f"^{re.escape(what)} has shape "
                                         f"{re.escape(str(wrong.shape))}, expected "):
        run(wrong, validate)


@pytest.mark.parametrize("name, what, good, run, bound, kept", ENTRIES, ids=ENTRY_IDS)
def test_unsigned_entries_are_reduced_before_the_cast(name, what, good, run, bound, kept):
    if bound is not None:
        # an index table holds indices, not residues: 2**64 - 1 is out of range
        assert np.array_equal(run(good.astype(np.uint64), False), good)
        cell = re.escape(str((0,) * good.ndim))
        with pytest.raises(ValidationError, match=f"^{re.escape(what)} entry {cell} "
                                                  f"is {U64_MAX}, outside range\\(2\\)$"):
            run(np.array(_planted(good, U64_MAX), dtype=np.uint64), False)
        return
    big = np.array(_planted(good, U64_MAX), dtype=np.uint64)
    want = np.array(_planted(good, U64_MAX % P), dtype=np.int64)
    assert U64_MAX % P == 78
    got = run(big, False)
    assert got.dtype == np.int64 and np.array_equal(got, run(want, False))
    if kept:
        assert np.array_equal(got, want)
    # Python integers past int64 reduce the same way
    assert np.array_equal(run(np.array(_planted(good, U64_MAX), dtype=object), False), got)


@pytest.mark.parametrize("name, what, good, run, bound, kept",
                         [e for e in ENTRIES if e[5]], ids=[e[0] for e in ENTRIES if e[5]])
def test_validate_false_stores_int64_arrays_as_given_and_coerces_lists(
        name, what, good, run, bound, kept):
    assert run(good, False) is good
    listed = run(good.tolist(), False)
    assert type(listed) is np.ndarray and listed.dtype == np.int64
    assert np.array_equal(listed, good) and listed is not good
    assert run(good, True) is not good


def _functor(spaces, validate):
    return gr.FunctorModule(ALG, ACT, spaces, {}, validate=validate).spaces


def _graded(components, validate):
    return gr.GradedModule(ALG, ACT, components, np.zeros((2, 1, 1), np.int64),
                           validate=validate).components


def _degrees(degs, validate):
    return gr.GradedAlgebra(FIELD, Z2, ALG.syms, degs, ALG.mult, ALG.unit,
                            validate=validate).degs


# (name, what the refusal names, run(value, validate) -> the value stored,
# the bound it must stay below or None, a wrong-shaped value, its message)
DIMS = [
    ("PersModule.dims", "dimension at '0'",
     lambda d, v: PersModule(CHAIN, FIELD, {"0": d}, {}, validate=v).dims["0"],
     None, [1], None),
    ("FunctorModule.spaces", "space at 'g'", lambda d, v: _functor((0, d), v)[1],
     None, lambda v: _functor((0, 0, 0), v), r"expected 2 spaces, got \(0, 0, 0\)"),
    ("GradedModule.components", "component at '1'", lambda d, v: _graded((d, 0), v)[0],
     None, lambda v: _graded((0,), v), r"expected 2 components, got \(0,\)"),
    ("GradedAlgebra.degs", "degree at 'g'", lambda d, v: _degrees((0, d), v)[1],
     2, lambda v: _degrees((0, 1, 1), v), r"expected 2 degrees, got \(0, 1, 1\)"),
    ("SmashModule.dim", "dimension at 'smash module'",
     lambda d, v: gr.SmashModule(SM, d, np.zeros((SM.dim, 1, 1), np.int64),
                                 validate=v).dim,
     None, [1], None),
    ("free_sum_layout", "multiplicity at '0'",
     lambda d, v: free_sum_layout(CHAIN, [("0", d)], FIELD)[0].dims["0"],
     None, [1], None),
]


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("name, what, run, bound, wrong, message", DIMS,
                         ids=[d[0] for d in DIMS])
def test_dimensions_that_are_not_non_negative_integers_are_refused(
        name, what, run, bound, wrong, message, validate):
    rule = f"{re.escape(what)} must be a non-negative integer"
    if bound is not None:
        rule += f" below {bound}"
    # an index, unlike a dimension, has a bound, which 2**64 - 1 must not wrap under
    past = () if bound is None else (bound, np.uint64(U64_MAX))
    for bad in (1.7, "2", -1, None) + past:
        with pytest.raises(ShapeError, match=f"^{rule}, got {re.escape(repr(bad))}$"):
            run(bad, validate)
    if message is None:  # one dimension: a sequence in its place is refused
        with pytest.raises(ShapeError, match=f"^{rule}, got \\[1\\]$"):
            run(wrong, validate)
    else:
        with pytest.raises(ShapeError, match=f"^{message}$"):
            wrong(validate)
    if validate:
        return
    for good in (1, np.int64(1), np.uint64(1)):
        stored = run(good, validate)
        assert stored == 1 and type(stored) is int


# (name, what the refusal names, run(index) -> a value built from it, with
# the index at place 1 of a point list); Z2 has two points and two basis
# elements, so every index is below 2
INDICES = [
    ("SmashAlgebra.idempotent_sum", "point at 1", lambda k: SM.idempotent_sum([0, k])),
    ("SmashAlgebra.basis_vector", "index at 'basis element'",
     lambda k: SM.basis_vector(k, 0)),
    ("SmashAlgebra.basis_vector", "index at 'point'", lambda k: SM.basis_vector(0, k)),
    ("free_functor_module", "point at 1",
     lambda k: gr.free_functor_module(ALG, ACT, [0, k]).spaces),
]


@pytest.mark.parametrize("name, what, run", INDICES, ids=[i[0] for i in INDICES])
def test_graded_indices_are_refused_out_of_range(name, what, run):
    # -1 once read the last point, and 2 or 7 raised a bare IndexError
    for bad in (-1, 2, 7, 1.0, "1", None, np.uint64(U64_MAX)):
        with pytest.raises(ShapeError, match=f"^{re.escape(what)} must be a non-negative "
                                             f"integer below 2, got {re.escape(repr(bad))}$"):
            run(bad)
    for good in (1, np.int64(1), np.uint64(1)):
        assert np.array_equal(run(good), run(1))


@pytest.mark.parametrize("validate", [True, False])
def test_functor_module_refuses_an_arrow_key_that_names_no_pair(validate):
    # as PersModule refuses a key that is not a cover; (7, 0) on k[Z2] was
    # once dropped without a word
    for key in ((7, 0), (0, 2), (-1, 0), "g"):
        with pytest.raises(ValidationError,
                           match=f"^arrow key {re.escape(repr(key))} names no "
                                 r"\(basis element, point\) pair$"):
            gr.FunctorModule(ALG, ACT, FM.spaces, {**FM.arrows, key: [[1]]},
                             validate=validate)
    assert gr.FunctorModule(ALG, ACT, FM.spaces, dict(FM.arrows), validate=validate) == FM
