import numpy as np
import pytest

from gpmod import linalg, modules
from gpmod.errors import (
    FunctorialityError,
    InternalError,
    MismatchedBase,
    NotAnInterval,
    NotComparable,
    ShapeError,
    TooLargeError,
    ValidationError,
)
from gpmod.modules import (
    ModuleMorphism,
    PersModule,
    direct_sum,
    free_module,
    free_sum,
    hom_basis,
    hom_space_dim,
    interval_module,
    is_epi,
    is_iso,
    is_mono,
    kernel_module,
    cokernel_module,
    random_module,
    random_morphism,
    zero_module,
)
from gpmod.invariants import projective_cover
from gpmod.kan import induce, restrict
from gpmod.linalg import FieldSpec
from gpmod.posets import Poset, chain, grid_poset, up_set
from gpmod.verify import random_poset, run_suite
from test_linalg import _oracle_solve_left


def test_new_module_chain(chain3, field):
    m = PersModule(chain3, field, {"0": 1, "1": 1, "2": 1},
                   {("0", "1"): [[2]], ("1", "2"): [[3]]})
    assert m.eval_map("0", "2").tolist() == [[6]]
    assert m.eval_map("1", "1").tolist() == [[1]]
    with pytest.raises(NotComparable):
        m.eval_map("2", "0")


def test_functoriality_error(diamond, field):
    with pytest.raises(FunctorialityError) as err:
        PersModule(diamond, field, {e: 1 for e in "abcd"},
                   {("a", "b"): [[1]], ("a", "c"): [[1]],
                    ("b", "d"): [[1]], ("c", "d"): [[2]]})
    assert err.value.source == "a" and err.value.target == "d"


def test_zero_module_is_valid(diamond, field):
    z = zero_module(diamond, field)
    assert z.support().ids() == []
    assert z.total_dim == 0


def test_shape_error(chain3, field):
    with pytest.raises(ShapeError):
        PersModule(chain3, field, {"0": 1, "1": 2}, {("0", "1"): [[1]]})


def test_constructors_reduce_and_shape_check_every_matrix(chain3, field):
    """Lists and arrays of any integer dtype are reduced mod p to int64; an
    array with no cells is cast; a wrong shape names the map."""
    dims = {"0": 1, "1": 2, "2": 0}
    maps = {("0", "1"): np.array([[-1], [203]], dtype=np.int32),
            ("1", "2"): np.zeros((0, 2), dtype=np.int8)}
    m = PersModule(chain3, field, dims, maps)
    assert m.cover_maps[("0", "1")].tolist() == [[100], [1]]
    assert all(a.dtype == np.int64 for a in m.cover_maps.values())
    f = ModuleMorphism(m, m, {"0": [[102]], "1": np.array([[-100, 0], [0, 203]])})
    assert f.components["0"].tolist() == [[1]]
    assert f.components["1"].tolist() == [[1, 0], [0, 1]]
    assert f.components["2"].shape == (0, 0) and f.components["2"].dtype == np.int64
    with pytest.raises(ShapeError, match=r"^map '0'->'1' has shape \(1, 2\), expected \(2, 1\)$"):
        PersModule(chain3, field, dims, {("0", "1"): np.array([[1, 1]])})
    with pytest.raises(ShapeError, match=r"^component at '1' has shape \(1, 1\), expected \(2, 2\)$"):
        ModuleMorphism(m, m, {"1": [[1]]})


@pytest.mark.parametrize("validate", [True, False])
def test_constructors_refuse_what_they_would_truncate(chain3, field, validate):
    """A dimension or an entry that is not an integer is a ShapeError
    naming its element, cover or component, never truncated; integers
    past int64 are reduced, not refused."""
    with pytest.raises(ShapeError, match=r"^dimension at '0' must be a non-negative "
                                         r"integer, got 1\.7$"):
        PersModule(chain3, field, {"0": 1.7}, {}, validate=validate)
    with pytest.raises(ShapeError, match=r"^dimension at '1' must be a non-negative "
                                         r"integer, got '2'$"):
        PersModule(chain3, field, {"1": "2"}, {}, validate=validate)
    dims = {"0": 1, "1": 1, "2": 1}
    assert PersModule(chain3, field, {e: np.int64(1) for e in dims}, {}).dims == dims
    for bad in ([[1.9]], np.array([[1.9]])):
        with pytest.raises(ShapeError, match=r"^map '0'->'1' has float64 entries, "
                                             r"not integers$"):
            PersModule(chain3, field, dims, {("0", "1"): bad}, validate=validate)
    with pytest.raises(ShapeError, match=r"^map '1'->'2' has entries that are not "
                                         r"integers$"):
        PersModule(chain3, field, dims, {("1", "2"): [[None]]}, validate=validate)
    with pytest.raises(ShapeError, match=r"^map '0'->'1' is not a rectangular matrix$"):
        PersModule(chain3, field, {"0": 2, "1": 2}, {("0", "1"): [[1, 0], [1]]},
                   validate=validate)
    m = PersModule(chain3, field, dims, {("0", "1"): [[2**70]], ("1", "2"): [[-2**70]]},
                   validate=validate)
    assert m.cover_maps[("0", "1")].tolist() == [[2**70 % 101]]
    assert m.cover_maps[("1", "2")].tolist() == [[-2**70 % 101]]
    with pytest.raises(ShapeError, match=r"^component at '2' has float64 entries, "
                                         r"not integers$"):
        ModuleMorphism(m, m, {"2": np.array([[1.0]])}, validate=validate)
    with pytest.raises(ShapeError, match=r"^component at '0' has <U1 entries, "
                                         r"not integers$"):
        ModuleMorphism(m, m, {"0": [["1"]]}, validate=validate)


def test_validate_false_keeps_int64_arrays_and_coerces_the_rest(chain3, field):
    """validate=False stores an int64 array of the declared shape as given
    and still coerces a list, another dtype and a wrong shape, with the
    messages of validate=True."""
    dims = {"0": 1, "1": 2, "2": 0}
    kept = np.array([[3], [4]], dtype=np.int64)
    m = PersModule(chain3, field, dims, {("0", "1"): kept}, validate=False)
    assert m.cover_maps[("0", "1")] is kept
    m = PersModule(chain3, field, dims, {("0", "1"): [[-1], [203]]}, validate=False)
    assert m.cover_maps[("0", "1")].tolist() == [[100], [1]]
    assert m.cover_maps[("0", "1")].dtype == np.int64
    m = PersModule(chain3, field, dims, {("0", "1"): np.array([[-1], [203]], dtype=np.int32)},
                   validate=False)
    assert m.cover_maps[("0", "1")].tolist() == [[100], [1]]
    assert m.cover_maps[("1", "2")] is linalg.zero_map(0, 2)
    for validate in (True, False):
        with pytest.raises(ShapeError, match=r"^map '0'->'1' has shape \(1, 2\), "
                                             r"expected \(2, 1\)$"):
            PersModule(chain3, field, dims, {("0", "1"): np.array([[1, 1]])},
                       validate=validate)
        with pytest.raises(ShapeError, match=r"^component at '1' has shape \(1, 1\), "
                                             r"expected \(2, 2\)$"):
            ModuleMorphism(m, m, {"1": np.array([[1]])}, validate=validate)
    square = np.array([[1, 0], [0, 1]], dtype=np.int64)
    f = ModuleMorphism(m, m, {"0": [[102]], "1": square}, validate=False)
    assert f.components["1"] is square and f.components["0"].tolist() == [[1]]
    assert ModuleMorphism(m, m, {"0": [[1]], "1": square}).components["1"] is not square


def test_interval_module(chain3, diamond, field):
    m = interval_module(chain3, ["1", "2"], field)
    assert [m.dims[e] for e in chain3.elements] == [0, 1, 1]
    assert m.cover_maps[("1", "2")].tolist() == [[1]]
    assert m.support().ids() == ["1", "2"]
    whole = interval_module(diamond, diamond.elements, field)
    assert all(d == 1 for d in whole.dims.values())
    # {b, c} satisfies betweenness vacuously: no error raised
    bc = interval_module(diamond, ["b", "c"], field)
    assert bc.dims["b"] == 1 and bc.dims["a"] == 0
    with pytest.raises(NotAnInterval):
        interval_module(diamond, ["a", "d"], field)


def test_free_module(diamond, chain3, field):
    f = free_module(diamond, "a", 2, field)
    assert all(f.dims[e] == 2 for e in diamond.elements)
    f = free_module(chain3, "1", 1, field)
    assert [f.dims[e] for e in chain3.elements] == [0, 1, 1]
    assert free_module(diamond, "b", 0, field).total_dim == 0


def _oracle_free_module(poset, c, multiplicity, field):
    """The representable at c as free_module built it before free_sum:
    identity maps on the covers inside up(c), zero maps elsewhere."""
    up = up_set(poset, [c])
    ident = linalg.identity(multiplicity)
    maps = {(a, b): ident for a, b in poset.covers if a in up and b in up}
    return PersModule(poset, field, {e: multiplicity for e in up}, maps,
                      name=f"free({c},{multiplicity})", validate=False)


def _same_bytes(m, n):
    assert m.name == n.name and m.dims == n.dims
    for c in m.poset.covers:
        x, y = m.cover_maps[c], n.cover_maps[c]
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_free_sum_matches_the_direct_sum_of_representables(p):
    field = FieldSpec(p)
    rng = np.random.default_rng(p % 1000)
    posets = [random_poset(rng, 1, 9) for _ in range(25)]
    posets += [grid_poset((r, c)) for r in range(1, 7) for c in range(r, 7)]
    posets.append(grid_poset((3, 3, 3)))
    cases = 0
    for poset in posets:
        for _ in range(3):
            pieces = [(poset.elements[int(rng.integers(len(poset)))],
                       int(rng.integers(0, 4)))
                      for _ in range(int(rng.integers(0, 7)))]
            got = free_sum(poset, pieces, field, name="cover(M)")
            want = direct_sum(zero_module(poset, field),
                              *(_oracle_free_module(poset, e, k, field)
                                for e, k in pieces), name="cover(M)")
            # the maps are built on this first read: every cover, in
            # canonical order, with the bytes of the direct sum, and they
            # pass the validating constructor
            assert tuple(got.cover_maps) == poset.covers
            _same_bytes(got, want)
            assert PersModule(poset, field, got.dims, dict(got.cover_maps)) == got
            cases += 1
        e = poset.elements[int(rng.integers(len(poset)))]
        k = int(rng.integers(0, 4))
        _same_bytes(free_module(poset, e, k, field),
                    _oracle_free_module(poset, e, k, field))
    assert cases == 3 * len(posets) == 3 * 47
    assert free_sum(chain(2), [], FieldSpec(p)).name == "0"
    with pytest.raises(ShapeError):
        free_sum(chain(2), [("0", 1), ("1", -1)], FieldSpec(p))


def test_free_sum_maps_are_built_once_on_first_read(monkeypatch, field):
    calls = []
    original = modules._inclusions

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(modules, "_inclusions", counting)
    grid = grid_poset((4, 4))
    f, held = modules.free_sum_layout(grid, [("(1,0)", 2), ("(0,2)", 1)], field)
    assert f.dims["(3,3)"] == 3 and f.support().ids()[0] == "(1,0)" and held[-1] == 0b111
    assert not hasattr(f, "no_such_attribute")
    assert not calls
    maps = f.cover_maps
    assert len(calls) == 1
    assert f.cover_maps is maps
    assert f.eval_map("(1,0)", "(3,3)").tolist() == [[1, 0], [0, 1], [0, 0]]
    assert len(calls) == 1
    # an unread free sum reads its maps through eval_map too
    g = free_sum(grid, [("(0,0)", 1)], field)
    assert g.eval_map("(0,0)", "(2,1)").tolist() == [[1]] and len(calls) == 2


def test_direct_sum(chain3, field):
    a = interval_module(chain3, ["0", "1"], field)
    b = interval_module(chain3, ["1", "2"], field)
    s = direct_sum(a, b)
    assert [s.dims[e] for e in chain3.elements] == [1, 2, 1]
    assert s.support().mask == a.support().union(b.support()).mask
    z = direct_sum(a, zero_module(chain3, field))
    assert z == a
    with pytest.raises(MismatchedBase):
        direct_sum(a, interval_module(chain(2), ["0"], field))
    # any number of summands: the same module as the binary fold
    c = free_module(chain3, "1", 2, field)
    three = direct_sum(a, b, c)
    assert three == direct_sum(direct_sum(a, b), c)
    assert [three.dims[e] for e in chain3.elements] == [1, 4, 3]
    assert direct_sum(a) == a
    with pytest.raises(MismatchedBase):
        direct_sum(a, b, interval_module(chain(2), ["0"], field))


def test_eval_map_composition_property(field):
    rng = np.random.default_rng(21)
    for _ in range(40):
        p = random_poset(rng, 2, 6)
        m = random_module(p, 3, field, seed=int(rng.integers(2**32)))
        for a in p.elements:
            for b in p.elements:
                if not p.leq(a, b):
                    continue
                for c in p.elements:
                    if p.leq(b, c):
                        lhs = m.eval_map(a, c)
                        rhs = np.mod(m.eval_map(b, c) @ m.eval_map(a, b), 101)
                        assert np.array_equal(lhs, rhs)


def test_morphism_naturality_checked(chain3, field):
    src = interval_module(chain3, ["0", "1"], field)
    tgt = interval_module(chain3, ["1", "2"], field)
    # identity at "1" does not commute with the structure maps
    with pytest.raises(Exception):
        ModuleMorphism(src, tgt, {"1": [[1]]})
    ModuleMorphism(src, tgt, {})  # zero morphism is natural


def test_kernel_cokernel_of_identity_and_zero(chain3, field):
    m = interval_module(chain3, ["0", "1", "2"], field)
    ident = ModuleMorphism.identity(m)
    ker, incl = kernel_module(ident)
    assert ker.total_dim == 0
    zero = ModuleMorphism.zero(m, m)
    ker, incl = kernel_module(zero)
    assert ker == m or all(ker.dims[e] == m.dims[e] for e in chain3.elements)
    cok, proj = cokernel_module(zero)
    assert all(cok.dims[e] == m.dims[e] for e in chain3.elements)
    cok, proj = cokernel_module(ident)
    assert cok.total_dim == 0


def test_kernel_koszul_dims(koszul, grid33, field):
    from gpmod.invariants import projective_cover

    _, h = projective_cover(koszul, grid33.whole())
    ker, incl = kernel_module(h)
    for e in grid33.elements:
        want = 1 if grid33.leq("(1,1)", e) else 0
        assert ker.dims[e] == want
    assert is_mono(incl)
    for e in grid33.elements:
        composed = np.mod(h.components[e] @ incl.components[e], 101)
        assert not np.any(composed)


def test_kernel_cokernel_rank_bookkeeping(field):
    rng = np.random.default_rng(22)
    for _ in range(30):
        p = random_poset(rng, 2, 5)
        a = random_module(p, 2, field, seed=int(rng.integers(2**32)))
        b = random_module(p, 2, field, seed=int(rng.integers(2**32)))
        f = random_morphism(a, b, rng)
        ker, incl = kernel_module(f)
        cok, proj = cokernel_module(f)
        from gpmod import linalg
        for e in p.elements:
            rank = linalg.rank(f.components[e], 101)
            assert ker.dims[e] + rank == a.dims[e]
            assert cok.dims[e] == b.dims[e] - rank
            assert not np.any(linalg.matmul(proj.components[e],
                                            f.components[e], 101))


def test_epi_mono_iso(chain3, field):
    m = interval_module(chain3, ["0", "1", "2"], field)
    n = interval_module(chain3, ["1", "2"], field)
    ident = ModuleMorphism.identity(m)
    assert is_epi(ident) and is_mono(ident) and is_iso(ident)
    zero_to = ModuleMorphism.zero(m, n)
    assert not is_epi(zero_to)
    # the interval [1, 2] into [0, 2]
    inc = ModuleMorphism(n, m, {"1": [[1]], "2": [[1]]})
    assert is_mono(inc) and not is_epi(inc)
    _, proj = cokernel_module(inc)
    assert is_epi(proj) and not is_mono(proj)


def test_random_module_deterministic(chain3, field):
    for gen in ("solve", "intervals"):
        a = random_module(chain3, 3, field, seed=99, generator=gen)
        b = random_module(chain3, 3, field, seed=99, generator=gen)
        assert a == b


def test_random_modules_are_functorial(field):
    rng = np.random.default_rng(23)
    for gen in ("solve", "intervals"):
        for _ in range(25):
            p = random_poset(rng, 2, 6)
            m = random_module(p, 3, field, seed=int(rng.integers(2**32)),
                              generator=gen)
            PersModule(p, field, m.dims, m.cover_maps, validate=True)


def _oracle_random_interval(poset, rng):
    """modules._random_interval as it was, with one order query per element."""
    a = poset.elements[int(rng.integers(0, len(poset)))]
    ups = list(up_set(poset, [a]))
    b = ups[int(rng.integers(0, len(ups)))]
    members = [c for c in poset.elements if poset.leq(a, c) and poset.leq(c, b)]
    return members


def _oracle_random_solved(poset, max_dim, field, rng):
    """modules._random_solved as it was, with one order query per element
    for the sources of each cover and one dimension draw per element."""
    p = field.p
    dims = {e: int(rng.integers(0, max_dim + 1)) for e in poset.elements}
    maps = {}
    composites = {(e, e): linalg.identity(dims[e]) for e in poset.elements}
    for c in poset.elements:
        below = poset.covers_below(c)
        fixed_into_c = {}
        for b in below:
            sources = [s for s in poset.elements if poset.leq(s, b)]
            constrained = [s for s in sources if s in fixed_into_c]
            a_blocks = [composites[(s, b)].T for s in constrained]
            b_blocks = [fixed_into_c[s].T for s in constrained]
            if constrained:
                a_sys = linalg.vstack(a_blocks, dims[b])
                b_sys = linalg.vstack(b_blocks, dims[c])
                try:
                    xt = linalg.solve(a_sys, b_sys, p)
                except linalg.NoSolution:
                    return None
                null = linalg.kernel_basis(a_sys, p)
                if null.dim and dims[c]:
                    coeffs = rng.integers(0, p, size=(null.dim, dims[c]))
                    xt = (xt + linalg.matmul(null.basis, coeffs, p)) % p
                x = xt.T.copy()
            else:
                x = rng.integers(0, p, size=(dims[c], dims[b])).astype(np.int64)
            maps[(b, c)] = x
            for s in sources:
                if s not in fixed_into_c:
                    fixed_into_c[s] = linalg.matmul(x, composites[(s, b)], p)
        for s, m in fixed_into_c.items():
            composites[(s, c)] = m
    return PersModule(poset, field, dims, maps, name="random", validate=False)


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_random_module_matches_the_order_query_generators(p, monkeypatch):
    """Reading sources and interval members from the up and down masks draws
    the same random numbers in the same order as one ``leq`` per element."""
    field = FieldSpec(p)
    rng = np.random.default_rng(p % 991)
    posets = [random_poset(rng, 1, 9) for _ in range(20)]
    posets += [grid_poset((r, c)) for r in range(1, 9) for c in range(r, 9, 3)]
    cases = [(poset, gen, int(rng.integers(2**32)))
             for poset in posets for gen in ("solve", "intervals")]
    got = [random_module(poset, 2, field, seed, gen) for poset, gen, seed in cases]
    monkeypatch.setattr(modules, "_random_interval", _oracle_random_interval)
    monkeypatch.setattr(modules, "_random_solved", _oracle_random_solved)
    for m, (poset, gen, seed) in zip(got, cases):
        _same_bytes(m, random_module(poset, 2, field, seed, gen))
    assert len(cases) == 2 * (20 + 15)


@pytest.mark.parametrize("n", [1, 7, 100, 10_000])
@pytest.mark.parametrize("bound", [2, 3, 6])
def test_one_dimension_draw_matches_one_draw_per_element(n, bound):
    """``_random_solved`` draws every element's dimension in one call.  That
    gives the values of one scalar draw per element, in turn, and leaves
    the generator where those draws leave it."""
    vector = np.random.default_rng(n * bound)
    scalar = np.random.default_rng(n * bound)
    got = vector.integers(0, bound, size=n).tolist()
    want = [int(scalar.integers(0, bound)) for _ in range(n)]
    assert got == want
    assert vector.bit_generator.state == scalar.bit_generator.state
    assert vector.integers(2**32) == scalar.integers(2**32)


def test_random_modules_ask_no_order_query(monkeypatch, field):
    def refuse(self, a, b):
        raise AssertionError("Poset.leq called")

    monkeypatch.setattr(Poset, "leq", refuse)
    grid = grid_poset((8, 8))
    for gen in ("solve", "intervals"):
        for seed in range(3):
            assert random_module(grid, 2, field, seed, gen).total_dim
    report = run_suite("interval-ex", cases=20, seed=7)
    assert report["failures"] == [], report["messages"]


def test_hom_basis_matches_interval_rule(chain3, field):
    m = interval_module(chain3, ["0", "1"], field)
    assert hom_space_dim(m, m) == 1
    # intervals map onto earlier overlapping intervals, never later ones
    n = interval_module(chain3, ["1", "2"], field)
    assert hom_space_dim(n, m) == 1
    assert hom_space_dim(m, n) == 0
    for f in hom_basis(n, m):
        ModuleMorphism(n, m, f.components)  # naturality revalidated


def test_hom_basis_refuses_an_oversized_system_before_allocating(field, monkeypatch):
    """Free sums of 40 generators at the bottom of an 8x8 grid: the
    naturality system has 112 * 40**2 rows and 64 * 40**2 columns, about
    1.8e10 cells, far past ``linalg.CELL_LIMIT``; it is refused from the
    dims alone, before any matrix is allocated."""
    grid = grid_poset((8, 8))
    m = free_sum(grid, [(grid.elements[0], 40)], field)
    cells = 112 * 40**2 * 64 * 40**2
    assert cells > 1000 * linalg.CELL_LIMIT
    rng = np.random.default_rng(0)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size guard fired")

    monkeypatch.setattr(linalg, "zeros", refuse)
    monkeypatch.setattr(np, "zeros", refuse)
    for call in (hom_basis, hom_space_dim, lambda a, b: random_morphism(a, b, rng)):
        with pytest.raises(TooLargeError, match=f"needs {cells} cells"):
            call(m, m)


def _check_by_propagation(m):
    """The functoriality check that ``PersModule`` ran before the local
    one, kept verbatim as its oracle: from every source, propagate the
    composite along every cover and compare wherever two routes meet."""
    poset = m.poset
    for a in poset.elements:
        if m.dims[a] == 0:
            continue
        reached = {a: linalg.identity(m.dims[a])}
        for c in poset.elements:
            if c not in reached:
                continue
            base = reached[c]
            for d in poset.covers_above(c):
                mat = linalg.matmul(m.cover_maps[(c, d)], base, m.field.p)
                if d in reached:
                    if not np.array_equal(reached[d], mat):
                        raise FunctorialityError(a, d)
                else:
                    reached[d] = mat


def _is_functorial(check, m):
    try:
        check()
    except FunctorialityError as err:
        assert m.poset.leq(err.source, err.target)
        return False
    return True


def test_local_functoriality_check_matches_propagation():
    """Random cover maps, functorial modules, and functorial modules with
    one cover map changed, over random posets and small grids."""
    rng = np.random.default_rng(31)
    field = FieldSpec(3)
    grids = [grid_poset([3, 3]), grid_poset([2, 2, 2]), grid_poset([2, 4])]
    broken = 0
    for k in range(3000):
        p = grids[k % 3] if k % 5 == 0 else random_poset(rng, 4, 9)
        m = random_module(p, 2, field, seed=int(rng.integers(2**32)))
        maps = dict(m.cover_maps)
        if k % 3 == 0:
            changed = p.covers
        elif k % 3 == 1 and p.covers:
            changed = [p.covers[int(rng.integers(len(p.covers)))]]
        else:
            changed = []
        for c in changed:
            maps[c] = rng.integers(0, 3, size=maps[c].shape)
        m = PersModule(p, field, m.dims, maps, validate=False)
        local = _is_functorial(m._check_functoriality, m)
        fresh = PersModule(p, field, m.dims, maps, validate=False)
        assert local == _is_functorial(lambda: _check_by_propagation(fresh), fresh)
        broken += not local
    assert broken >= 100


def _chain_module(n, field):
    """Dimension 1 everywhere on chain(n), cover k -> k+1 multiplying by
    k % 7 + 2, so the composite 0 -> k is the product of those factors."""
    p = chain(n)
    maps = {(a, b): [[int(a) % 7 + 2]] for a, b in p.covers}
    return PersModule(p, field, {e: 1 for e in p.elements}, maps, validate=False)


def test_eval_map_walks_long_routes_without_recursion(field):
    m = _chain_module(3000, field)
    expected = 1
    for k in range(2999):
        expected = expected * (k % 7 + 2) % field.p
    assert m.eval_map("0", "2999").tolist() == [[expected]]
    # every pair on the route is memoized
    assert set(m._eval_cache) == {("0", str(k)) for k in range(1, 3000)}
    assert m.eval_map("5", "5").tolist() == [[1]]


def _recursive_eval_map(m, a, b):
    """The former recursive composite: first lower cover of b above a."""
    if a == b:
        return linalg.identity(m.dims[a])
    cached = m._eval_cache.get((a, b))
    if cached is not None:
        return cached
    for c in m.poset.covers_below(b):
        if m.poset.leq(a, c):
            out = linalg.matmul(m.cover_maps[(c, b)], _recursive_eval_map(m, a, c),
                                m.field.p)
            m._eval_cache[(a, b)] = out
            return out
    raise AssertionError("no cover path")


def test_eval_map_memoizes_what_the_recursive_route_did(field):
    rng = np.random.default_rng(23)
    for _ in range(30):
        p = random_poset(rng, 2, 9)
        seed = int(rng.integers(2**32))
        loop, rec = (random_module(p, 3, field, seed=seed) for _ in range(2))
        pairs = [(a, b) for a in p.elements for b in p.elements if p.leq(a, b)]
        for k in rng.permutation(len(pairs)):
            a, b = pairs[k]
            assert loop.eval_map(a, b).tobytes() == _recursive_eval_map(rec, a, b).tobytes()
            assert loop._eval_cache.keys() == rec._eval_cache.keys()


def _naturality_by_loop(f):
    """The naturality check on every cover, none skipped: one pair of
    matmul calls per cover, in canonical order, raising at the first
    failing cover."""
    p = f.source.field.p
    for a, b in f.source.poset.covers:
        left = linalg.matmul(f.target.cover_maps[(a, b)], f.components[a], p)
        right = linalg.matmul(f.components[b], f.source.cover_maps[(a, b)], p)
        if not np.array_equal(left, right):
            raise ValidationError(f"naturality fails on cover {(a, b)!r}")


def _naturality_verdict(check):
    try:
        check()
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_naturality_skips_only_covers_without_cells(p):
    """Valid morphisms and copies with one component entry changed, on
    random posets and grids up to 6x6 with elements of dimension 0:
    skipping the covers where dims_T(b) or dims_S(a) is 0 accepts what the
    check on every cover accepts and names the same first failing cover."""
    field = FieldSpec(p)
    rng = np.random.default_rng(p % 983)
    posets = [random_poset(rng, 2, 8) for _ in range(30)]
    posets += [grid_poset(shape) for shape in ((1, 5), (2, 3), (3, 3), (4, 4), (5, 3), (6, 6))]
    seen = {"accepted": 0, "rejected": 0, "dim 0": 0}
    for poset in posets:
        for generator in ("solve", "intervals"):
            m, n = (random_module(poset, 2, field, seed=int(rng.integers(2**32)),
                                  generator=generator) for _ in range(2))
            seen["dim 0"] += 0 in m.dims.values() or 0 in n.dims.values()
            f = random_morphism(m, n, rng)
            candidates = [f.components]
            filled = [e for e in poset.elements if f.components[e].size]
            for _ in range(min(3, len(filled))):
                e = filled[int(rng.integers(len(filled)))]
                comps = dict(f.components)
                entry = comps[e].copy()
                i, j = (int(rng.integers(d)) for d in entry.shape)
                entry[i, j] = (entry[i, j] + int(rng.integers(1, p))) % p
                comps[e] = entry
                candidates.append(comps)
            for comps in candidates:
                g = ModuleMorphism(m, n, comps, validate=False)
                want = _naturality_verdict(lambda: _naturality_by_loop(g))
                assert _naturality_verdict(g._check_naturality) == want
                assert _naturality_verdict(lambda: ModuleMorphism(m, n, comps)) == want
                seen["accepted" if want is None else "rejected"] += 1
    assert all(seen.values()), seen


def _flat_components(comps, elements):
    return np.concatenate([np.asarray(comps[e], dtype=np.int64).reshape(-1)
                           for e in elements]).reshape(-1, 1)


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_validated_morphisms_are_the_span_of_hom_basis(p):
    """On modules of at most 5 elements and dimension at most 2, a family
    of components passes ModuleMorphism(..., validate=True) exactly when
    its entries lie in the span of hom_basis, tested by ranks over F_p:
    random families, random points of the span, and such points with one
    entry changed."""
    field = FieldSpec(p)
    rng = np.random.default_rng(p % 991)
    seen = {"in span": 0, "outside": 0}
    for _ in range(40):
        poset = random_poset(rng, 2, 5)
        m, n = (random_module(poset, 2, field, seed=int(rng.integers(2**32)),
                              generator=("solve", "intervals")[int(rng.integers(2))])
                for _ in range(2))
        elements = poset.elements
        shapes = {e: (n.dims[e], m.dims[e]) for e in elements}
        cells = sum(r * c for r, c in shapes.values())
        span = np.hstack([linalg.zeros(cells, 0)]
                         + [_flat_components(h.components, elements)
                            for h in hom_basis(m, n)])
        families = [{e: rng.integers(0, p, size=shapes[e]) for e in elements}]
        for _ in range(2):
            point = random_morphism(m, n, rng).components
            families.append(point)
            filled = [e for e in elements if point[e].size]
            if filled:
                e = filled[int(rng.integers(len(filled)))]
                entry = point[e].copy()
                i, j = (int(rng.integers(d)) for d in entry.shape)
                entry[i, j] = (entry[i, j] + int(rng.integers(1, p))) % p
                families.append({**point, e: entry})
        for comps in families:
            v = _flat_components(comps, elements) % p
            in_span = (linalg.rank(np.hstack([span, v]), p) == linalg.rank(span, p))
            valid = _naturality_verdict(lambda: ModuleMorphism(m, n, comps)) is None
            assert valid == in_span, (poset.covers, m.dims, n.dims)
            seen["in span" if in_span else "outside"] += 1
    assert all(seen.values()), seen


def _oracle_kernel_module(f):
    """``kernel_module`` as it was: one ``linalg.solve`` per cover, in
    canonical order, raising at the first cover with no solution."""
    p = f.source.field.p
    src = f.source
    bases = {e: linalg.kernel_basis(f.components[e], p).basis
             for e in src.poset.elements}
    dims = {e: bases[e].shape[1] for e in src.poset.elements}
    maps = {}
    for a, b in src.poset.covers:
        moved = linalg.matmul(src.cover_maps[(a, b)], bases[a], p)
        try:
            maps[(a, b)] = linalg.solve(bases[b], moved, p)
        except linalg.NoSolution as exc:
            raise InternalError(f"kernel map at cover {(a, b)!r}") from exc
    ker = PersModule(src.poset, src.field, dims, maps,
                     name=f"ker({f.source.name})", validate=False)
    incl = ModuleMorphism(ker, src, bases, validate=False)
    return ker, incl


def _verdict(route, f):
    """(error message, None) when route raises InternalError, else (None,
    route(f)): a kernel and its inclusion, or a cokernel and its
    projection."""
    try:
        return None, route(f)
    except InternalError as exc:
        return str(exc), None


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_pair(got, want):
    """The same module (dims, name, cover map bytes) and the same map
    between it and f's endpoint (component bytes)."""
    (ker, incl), (old_ker, old_incl) = got, want
    poset = ker.poset
    assert ker.dims == old_ker.dims and ker.name == old_ker.name
    for c in poset.covers:
        _assert_same_arrays(ker.cover_maps[c], old_ker.cover_maps[c])
    for e in poset.elements:
        _assert_same_arrays(incl.components[e], old_incl.components[e])


def _kernel_cases(p):
    """(morphism, kind): projective covers of random modules on random
    posets and on every grid from 1x1 to 6x6, and random morphisms between
    random modules on random posets."""
    field = FieldSpec(p)
    rng = np.random.default_rng(p % 991 + 18)
    posets = [random_poset(rng, 2, 8) for _ in range(30)]
    posets += [grid_poset((r, c)) for r in range(1, 7) for c in range(1, 7)]
    for poset in posets:
        for generator in ("solve", "intervals"):
            m = random_module(poset, 3, field, seed=int(rng.integers(2**32)),
                              generator=generator)
            yield projective_cover(m, poset.whole())[1], "cover"
    for _ in range(40):
        poset = random_poset(rng, 2, 6)
        a, b = (random_module(poset, 2, field, seed=int(rng.integers(2**32)))
                for _ in range(2))
        yield random_morphism(a, b, rng), "morphism"


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_kernel_module_matches_the_per_cover_solve(p):
    """The kernel maps read off the free rows, and the inclusion, against
    the per-cover solve: the same dims, and every cover map and inclusion
    component with the same dtype, shape and bytes."""
    seen = {"cover": 0, "morphism": 0, "checked map": 0, "empty map": 0}
    for f, kind in _kernel_cases(p):
        got, want = kernel_module(f), _oracle_kernel_module(f)
        _assert_same_pair(got, want)
        ker = got[0]
        seen[kind] += 1
        for a, b in ker.poset.covers:
            checked = ker.dims[a] and f.source.dims[b]
            seen["checked map" if checked else "empty map"] += 1
    assert min(seen.values()) >= 40, seen


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_kernel_module_of_a_non_natural_map_names_the_oracles_cover(p):
    """Morphisms built with validate=False and one component entry
    changed: where the per-cover solve fails, kernel_module raises
    InternalError naming the same first cover; elsewhere both return the
    same kernel."""
    field = FieldSpec(p)
    rng = np.random.default_rng(p % 989 + 19)
    posets = [random_poset(rng, 2, 8) for _ in range(30)]
    posets += [grid_poset(shape) for shape in ((1, 4), (2, 3), (3, 3), (4, 4))]
    raised = returned = 0
    for poset in posets:
        m = random_module(poset, 3, field, seed=int(rng.integers(2**32)))
        h = projective_cover(m, poset.whole())[1]
        filled = [e for e in poset.elements if h.components[e].size]
        for _ in range(min(3, len(filled))):
            e = filled[int(rng.integers(len(filled)))]
            comps = dict(h.components)
            entry = comps[e].copy()
            i, j = (int(rng.integers(d)) for d in entry.shape)
            entry[i, j] = (entry[i, j] + int(rng.integers(1, p))) % p
            comps[e] = entry
            g = ModuleMorphism(h.source, h.target, comps, validate=False)
            (msg, got), (want_msg, want) = (_verdict(kernel_module, g),
                                            _verdict(_oracle_kernel_module, g))
            assert msg == want_msg
            if msg is None:
                _assert_same_pair(got, want)
                returned += 1
            else:
                assert msg.startswith("kernel map at cover ")
                raised += 1
    assert raised >= 10 and returned >= 1, (raised, returned)


def _oracle_cokernel_module(f):
    """``cokernel_module`` as it was: one general left solve per cover, in
    canonical order, raising at the first cover with no solution."""
    p = f.source.field.p
    tgt = f.target
    projs = {e: linalg.cokernel(f.components[e], p)[1] for e in tgt.poset.elements}
    maps = {}
    for a, b in tgt.poset.covers:
        rhs = linalg.matmul(projs[b], tgt.cover_maps[(a, b)], p)
        try:
            maps[(a, b)] = _oracle_solve_left(projs[a], rhs, p)
        except linalg.NoSolution as exc:
            raise InternalError(f"cokernel map at cover {(a, b)!r}") from exc
    dims = {e: projs[e].shape[0] for e in tgt.poset.elements}
    cok = PersModule(tgt.poset, tgt.field, dims, maps,
                     name=f"coker({f.source.name})", validate=False)
    return cok, ModuleMorphism(tgt, cok, projs, validate=False)


def _cokernel_failures(f):
    """The covers (a, b) whose cokernel map the general left solve cannot
    find, each checked on its own."""
    p = f.source.field.p
    projs = {e: linalg.cokernel(c, p)[1] for e, c in f.components.items()}
    failed = []
    for a, b in f.target.poset.covers:
        try:
            _oracle_solve_left(projs[a], linalg.matmul(
                projs[b], f.target.cover_maps[(a, b)], p), p)
        except linalg.NoSolution:
            failed.append((a, b))
    return failed


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_cokernel_module_matches_the_per_cover_left_solve(p):
    """Random morphisms, and the same with one component entry changed
    (validate=False): cokernel_module returns the oracle's cokernel and
    projection byte for byte, or raises InternalError naming the oracle's
    first failing cover in canonical order."""
    field = FieldSpec(p)
    rng = np.random.default_rng(p % 983 + 19)
    seen = {"returned": 0, "raised": 0, "raised, several covers fail": 0}
    for _ in range(60):
        poset = random_poset(rng, 2, 6)
        a, b = (random_module(poset, 2, field, seed=int(rng.integers(2**32)))
                for _ in range(2))
        f = random_morphism(a, b, rng)
        candidates = [f.components]
        filled = [e for e in poset.elements if f.components[e].size]
        for _ in range(min(3, len(filled))):
            e = filled[int(rng.integers(len(filled)))]
            comps = dict(f.components)
            entry = comps[e].copy()
            i, j = (int(rng.integers(d)) for d in entry.shape)
            entry[i, j] = (entry[i, j] + int(rng.integers(1, p))) % p
            comps[e] = entry
            candidates.append(comps)
        for comps in candidates:
            g = ModuleMorphism(a, b, comps, validate=False)
            (msg, got), (want_msg, want) = (_verdict(cokernel_module, g),
                                            _verdict(_oracle_cokernel_module, g))
            assert msg == want_msg
            if msg is None:
                _assert_same_pair(got, want)
                seen["returned"] += 1
            else:
                failed = _cokernel_failures(g)
                assert msg == f"cokernel map at cover {failed[0]!r}"
                seen["raised"] += 1
                seen["raised, several covers fail"] += len(failed) > 1
    assert seen["returned"] >= 40 and seen["raised"] >= 10, seen
    assert seen["raised, several covers fail"] >= 3, seen


def _assert_as_built(arrays, shapes, p):
    """Every array an int64 np.ndarray of its declared shape, reduced mod p:
    what a constructor called with validate=False stores as given."""
    assert arrays.keys() == shapes.keys()
    for key, a in arrays.items():
        assert type(a) is np.ndarray and a.dtype == np.int64, key
        assert a.shape == shapes[key], key
        assert a.size == 0 or (a.min() >= 0 and a.max() < p), key


def _assert_module_as_built(m):
    _assert_as_built(m.cover_maps, {(a, b): (m.dims[b], m.dims[a])
                                     for a, b in m.poset.covers}, m.field.p)
    assert PersModule(m.poset, m.field, m.dims, m.cover_maps) == m


def _assert_morphism_as_built(f):
    _assert_module_as_built(f.source)
    _assert_module_as_built(f.target)
    _assert_as_built(f.components, {e: (f.target.dims[e], f.source.dims[e])
                                    for e in f.source.poset.elements}, f.source.field.p)
    assert ModuleMorphism(f.source, f.target, f.components) == f


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_library_builders_hand_over_reduced_int64_maps(p):
    """The builders that construct with validate=False pass int64 maps and
    components of the declared shape, reduced mod p, and what they build
    passes the validating constructors unchanged."""
    field = FieldSpec(p)
    rng = np.random.default_rng(p % 977 + 27)
    posets = [grid_poset((3, 4)), *(random_poset(rng, 3, 7) for _ in range(6))]
    for poset in posets:
        elements = poset.elements
        for generator in ("solve", "intervals"):
            m = random_module(poset, 3, field, seed=int(rng.integers(2**32)),
                              generator=generator)
            _assert_module_as_built(m)
            pieces = [(elements[int(rng.integers(len(elements)))], int(rng.integers(0, 3)))
                      for _ in range(3)]
            _assert_module_as_built(modules.free_sum_layout(poset, pieces, field)[0])
            top = elements[-1]
            i = interval_module(poset, poset.subset_from_mask(poset.down_mask(top)), field)
            _assert_module_as_built(i)
            _assert_module_as_built(direct_sum(m, i, m))
            h = projective_cover(m, poset.whole())[1]
            _assert_morphism_as_built(h)
            for f in kernel_module(h)[1], cokernel_module(h)[1]:
                _assert_morphism_as_built(f)
            g = random_morphism(m, m, rng)
            _assert_morphism_as_built(g.compose(h))
            for f in kernel_module(g)[1], cokernel_module(g)[1]:
                _assert_morphism_as_built(f)
            s = poset.subset(elements[::2])
            r = restrict(m, s)
            _assert_module_as_built(r)
            _assert_module_as_built(induce(r, poset))


def _stacked_kernel_module(f):
    """``kernel_module`` with every cover in the stacked products, the
    covers where the target is zero at both ends included."""
    p = f.source.field.p
    src = f.source
    covers = src.poset.covers
    bases, free = {}, {}
    for e in src.support():
        if f.target.dims[e]:
            kernel, free[e] = linalg.kernel_basis_with_free(f.components[e], p)
            bases[e] = kernel.basis
        else:
            bases[e], free[e] = linalg.identity(src.dims[e]), tuple(range(src.dims[e]))
    dims = {e: basis.shape[1] for e, basis in bases.items()}
    groups = {}
    for k, (a, b) in enumerate(covers):
        key = (src.dims[b], src.dims[a], dims.get(a, 0), dims.get(b, 0))
        if key[0] and key[2]:
            groups.setdefault(key, []).append(k)
    maps, failed = {}, []
    for ks in groups.values():
        pairs = [covers[k] for k in ks]
        moved = linalg.matmul_stack(np.stack([src.cover_maps[c] for c in pairs]),
                                    np.stack([bases[a] for a, _ in pairs]), p)
        rows = np.array([free[b] for _, b in pairs], dtype=np.intp)
        x = moved[np.arange(len(pairs))[:, None], rows]
        back = linalg.matmul_stack(np.stack([bases[b] for _, b in pairs]), x, p)
        bad = (back != moved).any(axis=(1, 2))
        if bad.any():
            failed.append(ks[int(bad.argmax())])
        maps.update(zip(pairs, x))
    if failed:
        raise InternalError(f"kernel map at cover {covers[min(failed)]!r}")
    ker = PersModule(src.poset, src.field, dims, maps,
                     name=f"ker({f.source.name})", validate=False)
    return ker, ModuleMorphism(ker, src, bases, validate=False)


def _sparse_grid_sums(p):
    """(morphism, kind) on the 6x6 grid: projective covers of sums of small
    boxes and of representables, and random morphisms from a free sum into
    a sum of boxes, so the targets are zero on most of the sources'
    support."""
    field = FieldSpec(p)
    grid = grid_poset((6, 6))
    rng = np.random.default_rng(p % 971 + 27)

    def box():
        x, y = (int(v) for v in rng.integers(0, 6, size=2))
        w, h = (int(v) for v in rng.integers(0, 3, size=2))
        return interval_module(grid, [f"({i},{j})" for i in range(x, min(x + w, 5) + 1)
                                      for j in range(y, min(y + h, 5) + 1)], field)

    def corner():
        return grid.elements[int(rng.integers(len(grid)))]

    for _ in range(12):
        boxes = direct_sum(*(box() for _ in range(3)))
        frees = free_sum(grid, [(corner(), int(rng.integers(1, 3))) for _ in range(2)],
                         field)
        yield projective_cover(boxes, grid.whole())[1], "interval sum"
        yield projective_cover(direct_sum(boxes, frees), grid.whole())[1], "with a free sum"
        yield random_morphism(frees, boxes, rng), "free sum into boxes"


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_kernel_maps_shared_where_the_target_is_zero_match_the_stacked_route(p):
    """On a cover where the target is zero at both ends the kernel keeps
    the source's own map; every map and inclusion component has the bytes
    of the all-stacked route, and both routes are exercised."""
    seen = {"interval sum": 0, "with a free sum": 0, "free sum into boxes": 0,
            "shared": 0, "stacked": 0}
    for f, kind in _sparse_grid_sums(p):
        got = kernel_module(f)
        _assert_same_pair(got, _stacked_kernel_module(f))
        ker, src, tgt = got[0], f.source, f.target
        seen[kind] += 1
        for a, b in ker.poset.covers:
            if not (src.dims[b] and ker.dims[a]):
                continue
            if tgt.dims[a] or tgt.dims[b]:
                seen["stacked"] += 1
            else:
                assert ker.cover_maps[(a, b)] is src.cover_maps[(a, b)]
                seen["shared"] += 1
    assert min(seen.values()) >= 12, seen
