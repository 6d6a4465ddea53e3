import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from gpmod import graded, linalg
from gpmod.errors import (
    ArityMismatch,
    GpmodError,
    InternalError,
    NoSolution,
    NotComparable,
    NotUnital,
    ValidationError,
)
from gpmod.graded import (
    FunctorModule,
    GAct,
    GradedAlgebra,
    GradedModule,
    Monoid,
    SmashAlgebra,
    SmashModule,
    act_preorder,
    act_properties,
    category_algebra_iso,
    cyclic_monoid,
    dual_numbers_algebra,
    enumerate_acts,
    enumerate_monoids,
    free_functor_module,
    gamma,
    is_unital,
    ker_phi,
    lambda_functor,
    local_unit,
    matrix_units_algebra,
    mcd_grid,
    monoid_algebra,
    mub_grid,
    pers_from_functor_module,
    phi,
    psi,
    random_functor_module,
    regular_act,
    smash_product,
    trivial_act,
    trivial_monoid,
    validate_act,
    validate_functor_module,
    validate_graded_algebra,
    validate_graded_module,
    validate_monoid,
    validate_smash_module,
    witness_map,
)
from gpmod.invariants import births, deaths
from gpmod.linalg import FieldSpec
from gpmod.posets import chain
from gpmod.textio import parse_text, serialize_act, serialize_algebra, serialize_monoid

PRIMES = (101, 2**31 - 1)


def test_validate_monoid():
    assert validate_monoid(cyclic_monoid(2)) is None
    bad = Monoid(["1", "a", "b"], [[0, 1, 2], [1, 2, 1], [2, 1, 1]],
                 validate=False)
    v = validate_monoid(bad)
    assert v is not None and v[0] == "associativity"
    with pytest.raises(ValidationError):
        Monoid(["a", "b"], [[1, 1], [1, 1]])  # no unit


def test_validate_act():
    z2 = cyclic_monoid(2)
    assert validate_act(regular_act(z2)) is None
    bad = GAct(z2, ["x", "y"], [[0, 1], [1, 0]], validate=False)
    assert validate_act(bad) is None  # the swap act is lawful
    broken = GAct(z2, ["x", "y"], [[1, 1], [0, 0]], validate=False)
    assert validate_act(broken) is not None


def test_monoid_algebra_valid(field):
    for mon in enumerate_monoids(3):
        assert validate_graded_algebra(monoid_algebra(mon, field)) is None


def test_fixture_algebras_valid(field):
    assert validate_graded_algebra(dual_numbers_algebra(field)) is None
    assert validate_graded_algebra(matrix_units_algebra(field)) is None


def test_act_properties():
    z2 = cyclic_monoid(2)
    assert act_properties(regular_act(z2)) == {
        "free": True, "faithful": True, "order_preserving": True}
    z3 = cyclic_monoid(3)
    props = act_properties(trivial_act(z3, 1))
    assert not props["free"] and not props["faithful"]
    assert props["order_preserving"]


def test_commutative_acts_order_preserving(field):
    for mon in enumerate_monoids(3):
        commutative = np.array_equal(mon.table, mon.table.T)
        if not commutative:
            continue
        for act in enumerate_acts(mon, 3):
            assert act_properties(act)["order_preserving"]


def test_act_preorder_reflexive_transitive():
    for mon in enumerate_monoids(3):
        for act in enumerate_acts(mon, 3):
            pre = act_preorder(act)
            assert pre.is_reflexive() and pre.is_transitive()


def test_ker_phi_trivial_for_faithful():
    z2 = cyclic_monoid(2)
    assert ker_phi(regular_act(z2)) == frozenset({("1", "1"), ("g", "g")})
    z3 = cyclic_monoid(3)
    k = ker_phi(trivial_act(z3, 1))
    assert len(k) == 9  # every pair acts identically on one point


def test_action_category_morphism_count_iff_free():
    # the action category collapses onto the thin order category exactly
    # when distinct monoid elements never agree on a point
    for mon in enumerate_monoids(3):
        for act in enumerate_acts(mon, 3):
            free = act_properties(act)["free"]
            collapses = all(
                len({g for g in range(len(mon)) if act.act(g, a) == b}) <= 1
                for a in range(len(act)) for b in range(len(act)))
            assert collapses == free


def test_witness_map():
    c2 = chain(2)
    g = witness_map(c2, "0", "1")
    assert g == {"0": "1", "1": "1"}
    assert witness_map(c2, "1", "1") == {"0": "0", "1": "1"}
    with pytest.raises(NotComparable):
        witness_map(c2, "1", "0")


def test_mcd_mub_grid():
    assert mcd_grid((2, 0), (1, 1)) == (1, 0)
    assert mub_grid((2, 0), (1, 1)) == (2, 1)
    assert mcd_grid((3, 2), (3, 2)) == (3, 2) == mub_grid((3, 2), (3, 2))
    assert mcd_grid((0, 0), (4, 7)) == (0, 0)
    assert mub_grid((0, 0), (4, 7)) == (4, 7)
    with pytest.raises(ArityMismatch):
        mcd_grid((1,), (1, 2))


def test_smash_product_rule(field):
    z2 = cyclic_monoid(2)
    sm = smash_product(monoid_algebra(z2, field), regular_act(z2))
    assert sm.dim == 4
    # (e_g p_1)(e_g p_g) lands on e_1 p_g since g.g = 1
    prod = sm.product(sm.basis_vector(1, 0), sm.basis_vector(1, 1))
    assert [sm.pair_name(t) for t in np.nonzero(prod)[0]] == ["1@g"]
    # gate closed: acting element does not move the right point correctly
    assert not np.any(sm.product(sm.basis_vector(1, 0), sm.basis_vector(1, 0)))
    # point idempotents are orthogonal
    p0, p1 = sm.point_idempotent(0), sm.point_idempotent(1)
    assert np.array_equal(sm.product(p0, p0), p0)
    assert not np.any(sm.product(p0, p1))


def test_local_unit(field):
    z2 = cyclic_monoid(2)
    sm = smash_product(monoid_algebra(z2, field), regular_act(z2))
    w = local_unit(sm, [sm.basis_vector(1, 0)])  # e_g p_1, with g.1 != 1
    assert [sm.pair_name(t) for t in np.nonzero(w)[0]] == ["1@1", "1@g"]
    w = local_unit(sm, [sm.point_idempotent(0)])
    assert np.array_equal(w, sm.point_idempotent(0))


def _setting(field, kind):
    if kind == "dual":
        alg = dual_numbers_algebra(field)
        return alg, regular_act(alg.monoid)
    if kind == "m2":
        alg = matrix_units_algebra(field)
        return alg, trivial_act(alg.monoid, 2)
    mon = cyclic_monoid(3)
    return monoid_algebra(mon, field), regular_act(mon)


@pytest.mark.parametrize("kind", ["dual", "m2", "z3"])
def test_phi_psi_round_trip(field, kind):
    alg, act = _setting(field, kind)
    rng = np.random.default_rng(61)
    for _ in range(10):
        fm = random_functor_module(alg, act, rng)
        assert validate_functor_module(fm) is None
        q = phi(fm)
        assert validate_graded_module(q) is None
        assert psi(q) == fm
        assert phi(psi(q)) == q


@pytest.mark.parametrize("kind", ["dual", "m2", "z3"])
def test_gamma_lambda_round_trip(field, kind):
    alg, act = _setting(field, kind)
    rng = np.random.default_rng(62)
    for _ in range(10):
        fm = random_functor_module(alg, act, rng)
        q = gamma(fm)
        assert validate_smash_module(q) is None
        assert is_unital(q)
        lam, bases = lambda_functor(q)
        assert lam == fm
        assert gamma(lam, q.smash) == q


def test_non_unital_detection(field):
    alg, act = _setting(field, "z3")
    rng = np.random.default_rng(63)
    fm = random_functor_module(alg, act, rng)
    q = gamma(fm)
    padded = np.pad(q.action, ((0, 0), (0, 1), (0, 1)))
    bigger = SmashModule(q.smash, q.dim + 1, padded)
    assert validate_smash_module(bigger) is None
    assert not is_unital(bigger)
    with pytest.raises(NotUnital):
        lambda_functor(bigger)


def test_one_point_act_is_plain_module(field):
    # over a one point act the smash algebra is the algebra itself and a
    # functor module is one space with one matrix per basis element
    alg = monoid_algebra(cyclic_monoid(2), field)
    act = trivial_act(alg.monoid, 1)
    sm = smash_product(alg, act)
    assert sm.dim == alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert np.array_equal(
                sm.product(sm.basis_vector(i, 0), sm.basis_vector(j, 0)),
                alg.product(*(np.eye(alg.dim, dtype=np.int64)[k]
                              for k in (i, j))))
    rng = np.random.default_rng(64)
    fm = random_functor_module(alg, act, rng)
    q = gamma(fm)
    assert q.dim == fm.spaces[0]


def test_category_algebra_iso_trivial_monoid(field):
    mon = trivial_monoid()
    act = trivial_act(mon, 3)
    rep = category_algebra_iso(field, mon, act)
    assert rep["ring_hom"] and rep["dim"] == 3 and rep["sum_pa_is_unit"]


def test_category_algebra_iso_z2_regular(field):
    z2 = cyclic_monoid(2)
    rep = category_algebra_iso(field, z2, regular_act(z2))
    assert rep["ring_hom"] and rep["dim"] == 4 and rep["sum_pa_is_unit"]


def test_monoid_catalog_counts():
    mons = enumerate_monoids(4)
    by_order = [sum(1 for m in mons if len(m) == k) for k in (1, 2, 3, 4)]
    assert by_order == [1, 2, 7, 35]
    for m in mons:
        assert validate_monoid(m) is None


def test_act_catalog_is_lawful():
    for mon in enumerate_monoids(3):
        acts = enumerate_acts(mon, 3)
        assert acts, mon.name
        for act in acts:
            assert validate_act(act) is None
    # the trivial monoid admits exactly one act per size
    assert len(enumerate_acts(trivial_monoid(), 4)) == 4


def test_act_catalog_is_bound_to_its_monoid(field):
    # the same table under other element names is another monoid, so its
    # acts must not come from the catalog of the first
    z2 = cyclic_monoid(2)
    enumerate_acts(z2, 2)
    renamed = Monoid(["e", "x"], z2.table, name="Z2'")
    acts = enumerate_acts(renamed, 2)
    assert acts and all(act.monoid == renamed for act in acts)
    alg = monoid_algebra(renamed, field)
    rng = np.random.default_rng(5)
    for act in acts:
        assert validate_functor_module(random_functor_module(alg, act, rng)) is None


def test_free_functor_module_spaces(field):
    z2 = cyclic_monoid(2)
    alg = monoid_algebra(z2, field)
    act = regular_act(z2)
    fm = free_functor_module(alg, act, [0])
    assert fm.spaces == (1, 1)
    assert validate_functor_module(fm) is None
    three = free_functor_module(alg, act, [0, 1, 1])
    assert three.spaces == (3, 3)
    assert validate_functor_module(three) is None
    assert free_functor_module(alg, act, []).spaces == (0, 0)


def test_transport_preserves_births_deaths(field):
    # idempotent monoid moving a chain: transport the functor module to a
    # persistence module directly and through the graded round trip
    mon = Monoid(["1", "t"], [[0, 1], [1, 1]], name="idem")
    act = GAct(mon, ["a", "b"], [[0, 1], [1, 1]])
    alg = monoid_algebra(mon, field)
    rng = np.random.default_rng(65)
    transported = 0
    for _ in range(25):
        fm = random_functor_module(alg, act, rng)
        try:
            pm = pers_from_functor_module(fm)
        except ValidationError:
            continue
        round_trip = pers_from_functor_module(psi(phi(fm)))
        assert pm == round_trip
        whole = pm.poset.whole()
        assert births(pm, whole).mask == births(round_trip, whole).mask
        assert deaths(pm, whole).mask == deaths(round_trip, whole).mask
        transported += 1
    assert transported >= 10


def test_parsed_monoid_algebra_transports(field):
    mon = Monoid(["1", "t"], [[0, 1], [1, 1]], name="idem")
    act = GAct(mon, ["a", "b"], [[0, 1], [1, 1]])
    alg = monoid_algebra(mon, field)
    ws = parse_text(serialize_monoid(mon, "T") + serialize_act(act, "A", "T")
                    + serialize_algebra(alg, "K", "T"))
    parsed, parsed_act = ws.algebras["K"], ws.acts["A"]
    assert parsed == alg and parsed.is_monoid_algebra
    rng = np.random.default_rng(67)
    transported = 0
    for _ in range(10):
        state = rng.bit_generator.state
        fm = random_functor_module(alg, act, rng)
        rng.bit_generator.state = state
        parsed_fm = random_functor_module(parsed, parsed_act, rng)
        try:
            pm = pers_from_functor_module(fm)
        except ValidationError:
            continue
        assert pers_from_functor_module(parsed_fm) == pm
        transported += 1
    assert transported >= 3
    # the same structure constants under other degrees are not k[G]
    assert not dual_numbers_algebra(field).is_monoid_algebra
    swapped = GradedAlgebra(field, mon, alg.syms, (1, 0), alg.mult, alg.unit,
                            validate=False)
    assert not swapped.is_monoid_algebra


def test_module_actions_are_one_array_of_checked_shape(field):
    alg, act = _setting(field, "m2")
    fm = random_functor_module(alg, act, np.random.default_rng(68))
    q, s = phi(fm), gamma(fm)
    n = fm.total_dim
    assert q.action.shape == (alg.dim, n, n) and q.action.dtype == np.int64
    assert s.action.shape == (s.smash.dim, n, n) and s.action.dtype == np.int64
    with pytest.raises(ValidationError):
        GradedModule(alg, act, q.components, q.action[:-1])
    with pytest.raises(ValidationError):
        GradedModule(alg, act, q.components, [np.eye(n), np.eye(n + 1)])
    with pytest.raises(ValidationError):
        SmashModule(s.smash, n + 1, s.action)
    # entries are reduced on the way in
    assert GradedModule(alg, act, q.components, q.action - field.p) == q


def test_trivial_group_transport(field):
    mon = trivial_monoid()
    act = trivial_act(mon, 3)
    alg = monoid_algebra(mon, field)
    rng = np.random.default_rng(66)
    fm = random_functor_module(alg, act, rng)
    pm = pers_from_functor_module(fm)
    assert len(pm.poset.covers) == 0
    assert pm.total_dim == fm.total_dim


# ---------------------------------------------------------------------------
# oracles for the whole-table smash kernels


def _catalog_sample(seed, k):
    entries = [(mon, act) for mon in enumerate_monoids(4)
               for act in enumerate_acts(mon, 4)]
    rng = np.random.default_rng(seed)
    return [entries[int(i)] for i in rng.choice(len(entries), k, replace=False)]


def _brute_smash_table(alg, act):
    """e_(i,a) e_(j,b) = sum_k mult[i,j,k] e_(k,b) when deg(j) b = a, one
    basis pair at a time; basis pair (i, a) has index i * |A| + a."""
    n_pts = len(act)
    n = alg.dim * n_pts
    table = np.zeros((n, n, n), dtype=np.int64)
    for i in range(alg.dim):
        for a in range(n_pts):
            for j in range(alg.dim):
                for b in range(n_pts):
                    if act.act(alg.degs[j], b) == a:
                        for k in range(alg.dim):
                            table[i * n_pts + a, j * n_pts + b,
                                  k * n_pts + b] = alg.mult[i, j, k]
    return table


def _brute_associative(table, p):
    """(e_u e_v) e_w == e_u (e_v e_w) for all triples, in Python integers."""
    n = table.shape[0]
    t = table.astype(object)
    left = (t.reshape(n * n, n) @ t.reshape(n, n * n)) % p  # [(u,v), (w,z)]
    right = (t.reshape(n * n, n) @ t.transpose(1, 0, 2).reshape(n, n * n)) % p
    right = right.reshape(n, n, n, n).transpose(2, 0, 1, 3)  # [v,w,u,z] -> [u,v,w,z]
    return bool(np.all(left.reshape(n, n, n, n) == right))


def _brute_witness(mon, act, table):
    """The first (b, h, a, g) where the smash table disagrees with the
    category product e_(b,h) e_(a,g) = e_(a,hg) (when g a = b), or None."""
    n_g, n_a = len(mon), len(act)
    for b in range(n_a):
        for h in range(n_g):
            for a in range(n_a):
                for g in range(n_g):
                    expected = np.zeros(n_g * n_a, dtype=np.int64)
                    if act.act(g, a) == b:
                        expected[mon.mul(h, g) * n_a + a] = 1
                    if not np.array_equal(table[h * n_a + b, g * n_a + a],
                                          expected):
                        return (act.points[b], mon.names[h],
                                act.points[a], mon.names[g])
    return None


def _perturbed(alg, rng):
    """A copy of ``alg`` with one structure constant shifted by a nonzero
    amount; not validated, so it may fail any axiom."""
    p = alg.field.p
    mult = alg.mult.copy()
    i, j, k = (int(rng.integers(0, alg.dim)) for _ in range(3))
    mult[i, j, k] = (mult[i, j, k] + int(rng.integers(1, p))) % p
    return GradedAlgebra(alg.field, alg.monoid, alg.syms, alg.degs, mult,
                         alg.unit, validate=False)


def _smash_settings(field, seed):
    settings = [_setting(field, "dual"), _setting(field, "m2")]
    settings += [(monoid_algebra(mon, field), act)
                 for mon, act in _catalog_sample(seed, 10)]
    return settings


@pytest.mark.parametrize("p", PRIMES)
def test_category_algebra_iso_witness_matches_brute_force(monkeypatch, p):
    field = FieldSpec(p)
    rng = np.random.default_rng(91)
    plain = graded.monoid_algebra
    for mon, act in _catalog_sample(92, 25):
        alg = _perturbed(plain(mon, field), rng)
        monkeypatch.setattr(graded, "monoid_algebra", lambda m, f: alg)
        rep = category_algebra_iso(field, mon, act)
        assert not rep["ring_hom"]
        assert rep["witness"] == _brute_witness(mon, act,
                                                _brute_smash_table(alg, act))
        assert rep["witness"] is not None and rep["bijective"]


@pytest.mark.parametrize("p", PRIMES)
def test_smash_table_matches_definition(p):
    for alg, act in _smash_settings(FieldSpec(p), 93):
        sm = SmashAlgebra(alg, act, validate=True)
        assert np.array_equal(sm.table, _brute_smash_table(alg, act))


@pytest.mark.parametrize("p", PRIMES)
def test_smash_validate_rejects_non_associative(p):
    rng = np.random.default_rng(94)
    rejected = 0
    for alg, act in _smash_settings(FieldSpec(p), 95):
        for _ in range(2):
            bent = _perturbed(alg, rng)
            if _brute_associative(_brute_smash_table(bent, act), p):
                SmashAlgebra(bent, act, validate=True)
                continue
            with pytest.raises(InternalError):
                SmashAlgebra(bent, act, validate=True)
            rejected += 1
    assert rejected >= 10


def test_unit_sides_tells_left_from_right(field):
    # e e = e, e f = f, f e = f f = 0: e is a left unit but not a right one
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = mult[0, 1, 1] = 1
    mon = trivial_monoid()
    alg = GradedAlgebra(field, mon, ("e", "f"), (0, 0), mult, (1, 0),
                        validate=False)
    sm = SmashAlgebra(alg, trivial_act(mon, 1))
    assert sm.unit_sides(np.array([1, 0])) == (True, False)
    z2 = cyclic_monoid(2)
    sm = smash_product(monoid_algebra(z2, field), regular_act(z2))
    assert sm.unit_sides(sm.point_idempotent(0) + sm.point_idempotent(1)) == (True, True)
    assert sm.unit_sides(sm.point_idempotent(0)) == (False, False)


def test_catalog_digest(field):
    # one sha256 over every (monoid table, act table) pair of the order <= 4
    # catalog and its category_algebra_iso report, recorded on the per-pair
    # loop implementation
    h = hashlib.sha256()
    for mon in enumerate_monoids(4):
        for act in enumerate_acts(mon, 4):
            rep = category_algebra_iso(field, mon, act)
            h.update(json.dumps([mon.table.tolist(), act.table.tolist(), rep],
                                sort_keys=True).encode())
    assert h.hexdigest() == ("9b3155cf21944cfef3aeb58417dad050"
                             "13542c91ddbe550af0348ed9fd3a6af5")


# ---------------------------------------------------------------------------
# oracles for the catalog builders: the former per-table and per-row loops


def _oracle_canonical_monoid(table_bytes: bytes, n: int) -> bytes:
    """The least relabelling of a monoid table over the permutations fixing
    the unit 0, one permutation at a time."""
    t = np.frombuffer(table_bytes, dtype=np.int8).reshape(n, n)
    best = None
    for perm in itertools.permutations(range(1, n)):
        sigma = np.array((0,) + perm, dtype=np.int8)
        inv = np.empty(n, dtype=np.int8)
        inv[sigma] = np.arange(n, dtype=np.int8)
        permuted = sigma[t[np.ix_(inv, inv)]].tobytes()
        if best is None or permuted < best:
            best = permuted
    return best


def _oracle_composition(m: int) -> tuple[np.ndarray, np.ndarray]:
    funcs = np.array(list(itertools.product(range(m), repeat=m)), dtype=np.int16)
    encode = m ** np.arange(m - 1, -1, -1, dtype=np.int64)
    comp = np.empty((len(funcs), len(funcs)), dtype=np.int32)
    for i in range(len(funcs)):
        composed = funcs[i][funcs]  # row j holds f_i(f_j(x)) for all x
        comp[i] = (composed.astype(np.int64) @ encode).astype(np.int32)
    return funcs, comp


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_least_relabelling_matches_the_per_table_loop(n):
    tables = graded._associative_tables(n)
    assert all(validate_monoid(Monoid(range(n), t, validate=False)) is None
               for t in tables)
    if n <= 3:
        # exactly the unital candidates that pass validate_monoid, in
        # lexicographic order (at order 4 there are 262,144 candidates)
        lawful = []
        for grid in itertools.product(range(n), repeat=(n - 1) ** 2):
            t = np.zeros((n, n), dtype=np.int8)
            t[0], t[:, 0] = np.arange(n), np.arange(n)
            t[1:, 1:] = np.reshape(grid, (n - 1, n - 1))
            if validate_monoid(Monoid(range(n), t, validate=False)) is None:
                lawful.append(t.tobytes())
        assert [t.tobytes() for t in tables] == lawful
    sigmas = [np.array((0,) + perm, dtype=np.int8)
              for perm in itertools.permutations(range(1, n))]
    for t in tables:
        cands = np.array([s[t[np.argsort(s)][:, np.argsort(s)]].reshape(-1)
                          for s in sigmas])
        least = graded._least_relabellings(cands[None])
        assert least.shape == (1, n * n)
        assert least.tobytes() == _oracle_canonical_monoid(t.tobytes(), n)
    classes = sorted({_oracle_canonical_monoid(t.tobytes(), n) for t in tables})
    catalog = [m.table.astype(np.int8).tobytes()
               for m in enumerate_monoids(4) if len(m) == n]
    assert catalog == classes


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_composition_table_matches_the_per_row_loop(m):
    funcs, comp = graded._transformations(m)
    old_funcs, old_comp = _oracle_composition(m)
    assert funcs.dtype == old_funcs.dtype and comp.dtype == old_comp.dtype
    assert np.array_equal(funcs, old_funcs)
    assert np.array_equal(comp, old_comp)


def test_monoid_catalog_stays_small_in_memory():
    # the 262,144 order-4 candidates take about 40 MB as a Python list of
    # tuples and under 8 MB as int8 arrays
    tracemalloc.start()
    try:
        graded.enumerate_monoids.__wrapped__(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _oracle_associative_tables(n: int) -> np.ndarray:
    """The former builder: all n**((n-1)**2) unital tables at once, then
    27 full-batch associativity gathers at order 4."""
    free = n - 1
    cells = free * free
    batch = n ** cells
    tables = np.zeros((batch, n, n), dtype=np.int8)
    tables[:, 0, :] = np.arange(n, dtype=np.int8)
    tables[:, :, 0] = np.arange(n, dtype=np.int8)
    tables[:, 1:, 1:] = np.indices((n,) * cells, dtype=np.int8).reshape(
        cells, batch).T.reshape(batch, free, free)
    ok = np.ones(batch, dtype=bool)
    rows = np.arange(batch)
    for g in range(1, n):
        for h in range(1, n):
            gh = tables[rows, g, h]
            for k in range(1, n):
                left = tables[rows, gh, k]
                right = tables[rows, g, tables[rows, h, k]]
                ok &= left == right
    return tables[ok]


def _oracle_extend_assignments(assign, g, mon, comp, n_funcs):
    """The former step: extend by all m**m maps, then filter."""
    if assign.shape[0] == 0:
        return assign
    determined = [int(x) for x in np.nonzero(assign[0] >= 0)[0]] + [g]
    constraints = []
    for x in determined:
        for y in determined:
            prod = mon.mul(x, y)
            if prod in determined or prod == g:
                constraints.append((x, y, prod))
    survivors = []
    chunk = max(1, 2**20 // n_funcs)
    candidates = np.arange(n_funcs, dtype=np.int32)
    for start in range(0, assign.shape[0], chunk):
        part = assign[start:start + chunk]
        reps = np.repeat(part, n_funcs, axis=0)
        reps[:, g] = np.tile(candidates, part.shape[0])
        keep = np.ones(reps.shape[0], dtype=bool)
        for x, y, prod in constraints:
            expected = comp[reps[:, x], reps[:, y]]
            keep &= reps[:, prod] == expected
        survivors.append(reps[keep])
    return np.concatenate(survivors, axis=0)


def _oracle_hom_assignments(mon: Monoid, m: int) -> np.ndarray:
    """The former loop: elements in index order, each by all maps."""
    funcs, comp = graded._transformations(m)
    assign = np.full((1, len(mon)), -1, dtype=np.int32)
    assign[0, mon.unit] = np.ravel_multi_index(np.arange(m), (m,) * m)
    for g in range(len(mon)):
        if g != mon.unit:
            assign = _oracle_extend_assignments(assign, g, mon, comp, len(funcs))
    return assign


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_associative_tables_match_the_full_batch_filter(n):
    tables, old = graded._associative_tables(n), _oracle_associative_tables(n)
    assert tables.dtype == old.dtype and tables.shape == old.shape
    assert tables.tobytes() == old.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_hom_assignments_match_the_index_order_loop(m):
    for mon in enumerate_monoids(4):
        rows = graded._hom_assignments(mon, m)
        old = _oracle_hom_assignments(mon, m)
        assert rows.dtype == old.dtype and rows.shape == old.shape, mon.name
        assert set(map(tuple, rows.tolist())) == set(map(tuple, old.tolist())), mon.name


@pytest.mark.parametrize("mon", enumerate_monoids(3),
                         ids=lambda mon: mon.name)
def test_act_catalog_matches_brute_force(mon):
    # every one of the m**(n*m) tables, kept when validate_act passes and
    # reduced to its least relabelling over all bijections of the points
    n = len(mon)
    for m in (1, 2, 3):
        sigmas = [np.array(s, dtype=np.int8) for s in itertools.permutations(range(m))]
        classes = set()
        for cells in itertools.product(range(m), repeat=n * m):
            t = np.array(cells, dtype=np.int8).reshape(n, m)
            if validate_act(GAct(mon, range(m), t, validate=False)) is None:
                classes.add(min(s[t[:, np.argsort(s)]].tobytes() for s in sigmas))
        catalog = [act.table.astype(np.int8).tobytes()
                   for act in enumerate_acts(mon, 3) if len(act) == m]
        assert catalog == sorted(classes), (mon.name, m)


def test_catalog_names_and_tables_digest():
    # names and table bytes of all 45 monoids and 1205 acts, in catalog
    # order, recorded on the full-batch builders
    h = hashlib.sha256()
    count = 0
    for mon in enumerate_monoids(4):
        h.update(json.dumps([mon.name, list(mon.names)]).encode())
        h.update(mon.table.tobytes())
        for act in enumerate_acts(mon, 4):
            count += 1
            h.update(json.dumps([act.name, list(act.points)]).encode())
            h.update(act.table.tobytes())
    assert (len(enumerate_monoids(4)), count) == (45, 1205)
    assert h.hexdigest() == ("3fb50d5871dc0acd4588f09cb001a62b"
                             "c913f0ebdbd6fe83cb76d8e2b0400270")


def test_transformations_are_cached_and_read_only():
    funcs, comp = graded._transformations(3)
    with pytest.raises(ValueError):
        funcs[0, 0] = 1
    with pytest.raises(ValueError):
        comp[0, 0] = 1
    graded._transformations.cache_clear()
    for mon in enumerate_monoids(4):
        graded.enumerate_acts.__wrapped__(mon, 4)
    info = graded._transformations.cache_info()
    assert info.misses == 4 and info.currsize == 4


def test_transformations_build_no_three_way_gather():
    # encoding comp from the (256, 256, 4) gather funcs[:, funcs] promoted
    # it to int64 and peaked at about 3.2 MB; Horner's rule in place, one
    # digit at a time, peaks at about 0.4 MB
    tracemalloc.start()
    try:
        graded._transformations.__wrapped__(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_act_catalog_stays_small_in_memory():
    # extending every partial hom by all m**m maps before filtering peaked
    # at about 4.6 MB over the catalog monoids; the cached transformation
    # tables (about 2 MB to build at m = 4) are built once per process
    mons = enumerate_monoids(4)
    for m in (1, 2, 3, 4):
        graded._transformations(m)
    tracemalloc.start()
    try:
        for mon in mons:
            graded.enumerate_acts.__wrapped__(mon, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_lambda_refuses_a_piece_outside_its_block(field):
    # a free module on both points of the regular Z2 act; moving the
    # g-pair's image at x into the wrong block leaves the point idempotents,
    # which come from the unit pairs only, untouched
    alg = monoid_algebra(cyclic_monoid(2), field)
    act = regular_act(alg.monoid)
    q = gamma(free_functor_module(alg, act, [0, 1]))
    t = q.smash.index[(1, 0)]
    action = q.action.copy()
    action[t] = action[t][::-1]
    bent = SmashModule(q.smash, q.dim, action, validate=False)
    assert is_unital(bent)
    with pytest.raises(InternalError, match="^graded piece escapes its block$"):
        lambda_functor(bent)


# ---------------------------------------------------------------------------
# the representation kernel: large primes and the per-triple loop oracles


def _truncated_polynomials_random_basis(p, seed, d=6):
    """k[x]/(x^d) over the trivial monoid, written in a seeded random basis
    f_a = sum_i B[i, a] x^i; the inverse comes from linalg.solve and the
    structure constants are computed on Python integers."""
    rng = np.random.default_rng(seed)
    while True:
        basis = rng.integers(0, p, size=(d, d)).astype(np.int64)
        try:
            inverse = linalg.solve(basis, linalg.identity(d), p)
        except NoSolution:
            continue
        break
    b, inv = basis.astype(object), inverse.astype(object)
    mult = np.zeros((d, d, d), dtype=object)
    for i in range(d):
        for j in range(d - i):
            # f_a f_b gains B[i,a] B[j,b] x^(i+j), and x^k = sum_c inv[c,k] f_c
            mult += np.multiply.outer(np.outer(b[i], b[j]), inv[:, i + j])
    return GradedAlgebra(FieldSpec(p), trivial_monoid(), [f"f{a}" for a in range(d)],
                         [0] * d, (mult % p).astype(np.int64),
                         (inv[:, 0] % p).astype(np.int64), name="trunc",
                         validate=False)


def test_associative_algebra_near_2_31_is_accepted():
    p = 2**31 - 1
    alg = _truncated_polynomials_random_basis(p, 71)
    assert validate_graded_algebra(alg) is None
    text = (serialize_monoid(alg.monoid, "T")
            + serialize_algebra(alg, "A", monoid_name="T"))
    loaded = parse_text(text).algebras["A"]
    assert np.array_equal(loaded.mult, alg.mult)
    assert np.array_equal(loaded.unit, alg.unit)
    bent = alg.mult.copy()
    bent[1, 2, 3] = (bent[1, 2, 3] + 1) % p
    assert validate_graded_algebra(GradedAlgebra(
        alg.field, alg.monoid, alg.syms, alg.degs, bent, alg.unit,
        validate=False)) is not None
    bent_text = (serialize_monoid(alg.monoid, "T") + serialize_algebra(
        GradedAlgebra(alg.field, alg.monoid, alg.syms, alg.degs, bent,
                      alg.unit, validate=False), "A", monoid_name="T"))
    with pytest.raises(GpmodError):
        parse_text(bent_text)


def _exact(m):
    return np.asarray(m).astype(object)


def _loop_monoid(mon):
    n, t, u = len(mon), mon.table, mon.unit
    for g in range(n):
        if t[u, g] != g or t[g, u] != g:
            return ("unit", mon.names[g])
    for g in range(n):
        for h in range(n):
            for k in range(n):
                if t[t[g, h], k] != t[g, t[h, k]]:
                    return ("associativity", mon.names[g], mon.names[h],
                            mon.names[k])
    return None


def _loop_act(act):
    mon = act.monoid
    for a in range(len(act)):
        if act.table[mon.unit, a] != a:
            return ("unit", act.points[a])
    for g in range(len(mon)):
        for h in range(len(mon)):
            for a in range(len(act)):
                if act.table[mon.mul(g, h), a] != act.table[g, act.table[h, a]]:
                    return ("compatibility", mon.names[g], mon.names[h],
                            act.points[a])
    return None


def _loop_algebra(alg):
    p, d, t = alg.field.p, alg.dim, _exact(alg.mult)
    for i in range(d):
        if alg.unit[i] and alg.degs[i] != alg.monoid.unit:
            return ("unit_degree", alg.syms[i])
    for i in range(d):
        for j in range(d):
            deg = alg.monoid.mul(alg.degs[i], alg.degs[j])
            for k in range(d):
                if alg.mult[i, j, k] and alg.degs[k] != deg:
                    return ("grading", alg.syms[i], alg.syms[j], alg.syms[k])
    unit = _exact(alg.unit)
    for j in range(d):
        if any((unit @ t[:, j] - np.eye(d, dtype=object)[j]) % p):
            return ("left_unit", alg.syms[j])
        if any((t[j].T @ unit - np.eye(d, dtype=object)[j]) % p):
            return ("right_unit", alg.syms[j])
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if any((t[i, j] @ t[:, k, :] - t[j, k] @ t[i]) % p):
                    return ("associativity", alg.syms[i], alg.syms[j], alg.syms[k])
    return None


def _loop_represents(mats, table, p):
    """The first (i, j) where mats[i] mats[j] != sum_k table[i,j,k] mats[k]."""
    mats = [_exact(m) for m in mats]
    for i in range(len(mats)):
        for j in range(len(mats)):
            combo = sum(int(c) * m for c, m in zip(table[i, j], mats))
            if np.any((mats[i] @ mats[j] - combo) % p):
                return i, j
    return None


def _loop_functor(f):
    alg, act = f.algebra, f.act
    p = alg.field.p
    arrows = {k: _exact(m) for k, m in f.arrows.items()}
    for a in range(len(act)):
        ident = np.eye(f.spaces[a], dtype=object)
        for i in np.flatnonzero(alg.unit):
            ident = ident - int(alg.unit[i]) * arrows[(int(i), a)]
        if np.any(ident % p):
            return ("unit", act.points[a])
    for i in range(alg.dim):
        for j in range(alg.dim):
            for a in range(len(act)):
                b = act.act(alg.degs[j], a)
                combo = sum(int(alg.mult[i, j, k]) * arrows[(k, a)]
                            for k in range(alg.dim) if alg.mult[i, j, k])
                if np.any((arrows[(i, b)] @ arrows[(j, a)] - combo) % p):
                    return ("composition", alg.syms[i], alg.syms[j], act.points[a])
    return None


def _loop_graded(q):
    alg, act = q.algebra, q.act
    for i in range(alg.dim):
        for a in range(len(act)):
            target = act.act(alg.degs[i], a)
            for b in range(len(act)):
                if b != target and np.any(q.block(q.action[i], b, a)):
                    return ("grading", alg.syms[i], act.points[a])
    unit = sum(int(alg.unit[i]) * _exact(q.action[i]) for i in range(alg.dim))
    if np.any((unit - np.eye(q.total_dim, dtype=object)) % alg.field.p):
        return ("unit",)
    bad = _loop_represents(q.action, alg.mult, alg.field.p)
    if bad is not None:
        return ("associativity", alg.syms[bad[0]], alg.syms[bad[1]])
    return None


def _loop_smash(q):
    sm = q.smash
    bad = _loop_represents([q.action[t] for t in range(sm.dim)], sm.table,
                           sm.algebra.field.p)
    return None if bad is None else ("product", sm.pair_name(bad[0]),
                                     sm.pair_name(bad[1]))


def _bump(m, rng, p):
    """A copy of m with one random entry shifted by a nonzero amount."""
    m = np.array(m, dtype=np.int64)
    if m.size:
        cell = tuple(int(rng.integers(0, s)) for s in m.shape)
        m[cell] = (m[cell] + int(rng.integers(1, p))) % p
    return m


def _bent_algebra(alg, rng):
    """A copy of alg with its structure constants, unit or one degree
    changed at random (or nothing), not validated."""
    p, mult, unit, degs = alg.field.p, alg.mult, alg.unit, list(alg.degs)
    roll = int(rng.integers(0, 4))
    if roll == 0:
        mult = _bump(mult, rng, p)
    elif roll == 1:
        unit = _bump(unit, rng, p)
    elif roll == 2:
        degs[int(rng.integers(0, alg.dim))] = int(rng.integers(0, len(alg.monoid)))
    return GradedAlgebra(alg.field, alg.monoid, alg.syms, degs, mult, unit,
                         validate=False)


@pytest.mark.parametrize("p", PRIMES)
def test_validators_match_loop_witnesses(p):
    field = FieldSpec(p)
    rng = np.random.default_rng(97)
    seen = set()
    for mon, act in _catalog_sample(98, 30):
        bent = mon.table.copy()
        g, h = (int(rng.integers(1, len(mon))) if len(mon) > 1 else 0
                for _ in range(2))
        bent[g, h] = int(rng.integers(0, len(mon)))
        bent_mon = Monoid(mon.names, bent, validate=False)
        for m in (mon, bent_mon):
            assert validate_monoid(m) == _loop_monoid(m)
            seen.add(("monoid", validate_monoid(m) is None))
        bent_act = GAct(mon, act.points, act.table.copy(), validate=False)
        bent_act.table[int(rng.integers(0, len(mon))),
                       int(rng.integers(0, len(act)))] = int(rng.integers(0, len(act)))
        for a in (act, bent_act):
            assert validate_act(a) == _loop_act(a)
            seen.add(("act", validate_act(a) is None))
    settings = _smash_settings(field, 99)
    settings.append((_truncated_polynomials_random_basis(p, 72), None))
    for alg, act in settings:
        for bent in [alg] + [_bent_algebra(alg, rng) for _ in range(4)]:
            assert validate_graded_algebra(bent) == _loop_algebra(bent)
            seen.add(("algebra", validate_graded_algebra(bent) is None))
        if act is None:
            continue
        fm = random_functor_module(alg, act, rng)
        for _ in range(3):
            arrows = dict(fm.arrows)
            key = list(arrows)[int(rng.integers(0, len(arrows)))]
            arrows[key] = _bump(arrows[key], rng, p)
            for f in (fm, FunctorModule(alg, act, fm.spaces, arrows,
                                        validate=False)):
                assert validate_functor_module(f) == _loop_functor(f)
                seen.add(("functor", validate_functor_module(f) is None))
            q = phi(fm)
            action = q.action.copy()
            i = int(rng.integers(0, alg.dim))
            action[i] = _bump(action[i], rng, p)
            for g in (q, GradedModule(alg, act, q.components, action,
                                      validate=False)):
                assert validate_graded_module(g) == _loop_graded(g)
                seen.add(("graded", validate_graded_module(g) is None))
            s = gamma(fm)
            action = s.action.copy()
            t = int(rng.integers(0, s.smash.dim))
            action[t] = _bump(action[t], rng, p)
            for sq in (s, SmashModule(s.smash, s.dim, action, validate=False)):
                assert validate_smash_module(sq) == _loop_smash(sq)
                seen.add(("smash", validate_smash_module(sq) is None))
    # every validator met both lawful and broken instances
    assert len(seen) == 12


@pytest.mark.parametrize("p", PRIMES)
def test_unit_sides_match_loop(p):
    rng = np.random.default_rng(101)
    for alg, act in _smash_settings(FieldSpec(p), 102):
        sm = SmashAlgebra(alg, act, validate=False)
        t = _exact(sm.table)
        total = sum(sm.point_idempotent(a) for a in range(len(act))) % p
        for x in (total, _bump(total, rng, p),
                  rng.integers(0, p, size=sm.dim)):
            x = _exact(x)
            ident = np.eye(sm.dim, dtype=object)
            left = not np.any((np.tensordot(x, t, axes=(0, 0)) - ident) % p)
            right = not np.any((np.tensordot(t, x, axes=(1, 0)) - ident) % p)
            assert sm.unit_sides(x.astype(np.int64)) == (left, right)


@pytest.mark.parametrize("p", PRIMES)
def test_idempotent_sum_is_the_sum_of_point_idempotents(p):
    """idempotent_sum over a point list with repeats is the sum of p_a over
    its distinct points, written out from the definition of p_a (the unit
    of the algebra times the projection at a) and reduced mod p."""
    rng = np.random.default_rng(105)
    for alg, act in _smash_settings(FieldSpec(p), 106):
        sm = SmashAlgebra(alg, act, validate=False)
        points = [int(a) for a in rng.integers(0, len(act), size=3)]
        want = np.zeros(sm.dim, dtype=object)
        for a in set(points):
            for i in range(alg.dim):
                want[sm.pairs.index((i, a))] += int(alg.unit[i])
        got = sm.idempotent_sum(points)
        assert got.dtype == np.int64
        assert got.tolist() == (want % p).tolist()
        assert np.array_equal(sm.idempotent_sum([points[0]]),
                              sm.point_idempotent(points[0]))


@pytest.mark.parametrize("p", PRIMES)
def test_gamma_places_each_arrow_in_its_block(p):
    rng = np.random.default_rng(103)
    for alg, act in _smash_settings(FieldSpec(p), 104):
        fm = random_functor_module(alg, act, rng)
        q = gamma(fm)
        offsets = np.concatenate([[0], np.cumsum(fm.spaces)])
        for t, (i, a) in enumerate(q.smash.pairs):
            b = act.act(alg.degs[i], a)
            expected = np.zeros((fm.total_dim, fm.total_dim), dtype=np.int64)
            expected[offsets[b]:offsets[b + 1],
                     offsets[a]:offsets[a + 1]] = fm.arrows[(i, a)]
            assert q.action[t].dtype == expected.dtype
            assert q.action[t].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# oracle for the free-module builder: the former construction, a direct sum
# of one representable module per generator and one free morphism per
# relation


def _oracle_free_functor_module(alg: GradedAlgebra, act: GAct, a0: int,
                                mult: int = 1) -> FunctorModule:
    """The representable functor module generated at the point a0.

    The space at b is spanned by pairs (copy, algebra basis element i) with
    deg(i) . a0 = b; arrows act by left multiplication through the
    structure constants.
    """
    d = alg.dim
    basis_at = [[] for _ in range(len(act))]
    for i in range(d):
        basis_at[act.act(alg.degs[i], a0)].append(i)
    spaces = [mult * len(basis_at[b]) for b in range(len(act))]
    pos = {}
    for b in range(len(act)):
        for t in range(mult):
            for r, i in enumerate(basis_at[b]):
                pos[(b, t, i)] = t * len(basis_at[b]) + r
    arrows = {}
    for j in range(d):
        g = alg.degs[j]
        for b in range(len(act)):
            target = act.act(g, b)
            m = linalg.zeros(spaces[target], spaces[b])
            for t in range(mult):
                for i in basis_at[b]:
                    col = pos[(b, t, i)]
                    for k in np.nonzero(alg.mult[j, i])[0]:
                        m[pos[(target, t, int(k))], col] = alg.mult[j, i, k]
            arrows[(j, b)] = m % alg.field.p
    return FunctorModule(alg, act, spaces, arrows, validate=False)


def _oracle_fm_direct_sum(f1: FunctorModule, f2: FunctorModule) -> FunctorModule:
    spaces = [a + b for a, b in zip(f1.spaces, f2.spaces)]
    arrows = {k: linalg.block_diag([f1.arrows[k], f2.arrows[k]])
              for k in f1.arrows}
    return FunctorModule(f1.algebra, f1.act, spaces, arrows, validate=False)


def _oracle_fm_zero(alg: GradedAlgebra, act: GAct) -> FunctorModule:
    return FunctorModule(alg, act, [0] * len(act), {}, validate=False)


def _oracle_free_morphism_components(free: FunctorModule, a0: int, mult: int,
                                     target: FunctorModule, images) -> dict:
    """Components of the morphism free -> target sending the copy-t
    generator to images[t] (a vector in the target space at a0)."""
    alg, act = free.algebra, free.act
    p = alg.field.p
    basis_at = [[] for _ in range(len(act))]
    for i in range(alg.dim):
        basis_at[act.act(alg.degs[i], a0)].append(i)
    comps = {}
    for b in range(len(act)):
        m = linalg.zeros(target.spaces[b], free.spaces[b])
        width = len(basis_at[b])
        for t in range(mult):
            for r, i in enumerate(basis_at[b]):
                col = t * width + r
                m[:, col] = linalg.matmul(
                    target.arrows[(i, a0)],
                    images[t].reshape(-1, 1), p)[:, 0]
        comps[b] = m
    return comps


def _oracle_random_functor_module(alg: GradedAlgebra, act: GAct, rng,
                                  max_gens: int = 2, max_rels: int = 2) -> FunctorModule:
    """A random quotient of a random sum of representable modules."""
    n_pts = len(act)
    gens = [(int(rng.integers(0, n_pts)), 1)
            for _ in range(int(rng.integers(1, max_gens + 1)))]
    total = _oracle_fm_zero(alg, act)
    for a0, mult in gens:
        total = _oracle_fm_direct_sum(
            total, _oracle_free_functor_module(alg, act, a0, mult))
    n_rels = int(rng.integers(0, max_rels + 1))
    if n_rels == 0:
        return total
    rel_sources = [int(rng.integers(0, n_pts)) for _ in range(n_rels)]
    comps = {b: linalg.zeros(total.spaces[b], 0) for b in range(n_pts)}
    for b0 in rel_sources:
        free = _oracle_free_functor_module(alg, act, b0, 1)
        image = rng.integers(0, alg.field.p, size=total.spaces[b0]).astype(np.int64)
        part = _oracle_free_morphism_components(free, b0, 1, total, [image])
        for b in range(n_pts):
            comps[b] = np.hstack([comps[b], part[b]])
    return graded.fm_cokernel(total, comps)


def _builder_cases(field):
    """Every 7th act of every catalog monoid at 3 seeds; dual numbers and
    matrix units on regular and trivial acts at 50 seeds."""
    for mon in enumerate_monoids(4):
        alg = monoid_algebra(mon, field)
        for act in enumerate_acts(mon, 4)[::7]:
            for seed in range(3):
                yield alg, act, seed
    for alg in (dual_numbers_algebra(field), matrix_units_algebra(field)):
        for act in (regular_act(alg.monoid), trivial_act(alg.monoid, 2)):
            for seed in range(50):
                yield alg, act, seed


def _same_functor_bytes(new, old):
    assert new.spaces == old.spaces
    assert new.arrows.keys() == old.arrows.keys()
    for key, m in old.arrows.items():
        assert new.arrows[key].dtype == m.dtype
        assert new.arrows[key].tobytes() == m.tobytes()


@pytest.mark.parametrize("p", PRIMES)
def test_free_module_builder_matches_the_sum_of_representables(p):
    cases = 0
    for alg, act, seed in _builder_cases(FieldSpec(p)):
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        _same_functor_bytes(random_functor_module(alg, act, new_rng),
                            _oracle_random_functor_module(alg, act, old_rng))
        # both drew the same numbers from the generator
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        if seed == 0:
            points = [len(act) - 1] + list(range(len(act))) + [0]
            summands = [_oracle_free_functor_module(alg, act, a0, 1)
                        for a0 in points]
            total = _oracle_fm_zero(alg, act)
            for f in summands:
                total = _oracle_fm_direct_sum(total, f)
            _same_functor_bytes(free_functor_module(alg, act, points), total)
        cases += 1
    assert cases == 764


def test_fm_cokernel_of_a_non_submodule_is_refused(field):
    # the free dual-numbers module on one point has basis (1, eps), and eps
    # sends 1 to eps: the span of eps is a submodule, the span of 1 is not
    alg = dual_numbers_algebra(field)
    free = free_functor_module(alg, trivial_act(alg.monoid), [0])
    cok = graded.fm_cokernel(free, {0: np.array([[0], [1]])})
    assert cok.spaces == (1,)
    with pytest.raises(InternalError, match="^cokernel arrow is not induced$"):
        graded.fm_cokernel(free, {0: np.array([[1], [0]])})
