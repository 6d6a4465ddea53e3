import numpy as np
import pytest

import gpmod.kan
from gpmod import linalg
from gpmod.errors import InternalError, UnknownElement, ValidationError
from gpmod.invariants import projective_cover, splitting
from gpmod.kan import (
    ColimitResult,
    _cocone,
    _window_sweep,
    _factor_cocone,
    _offsets,
    _relation_matrix,
    canonical_mu,
    colim_injection,
    colim_over_mask,
    induce,
    induce_with_data,
    lambda_map,
    lambda_with_window,
    restrict,
    window_mask,
    window_ranks,
)
from gpmod.modules import (
    ModuleMorphism,
    PersModule,
    cokernel_module,
    direct_sum,
    free_module,
    free_sum,
    interval_module,
    is_epi,
    is_iso,
    is_mono,
    kernel_module,
    new_module,
    random_module,
    random_morphism,
)
from gpmod.posets import _bits, build_poset, chain, grid_id, grid_poset
from gpmod.verify import random_poset
from test_linalg import _oracle_solve_left

P = 101


def colim_dim_all_pairs(m, mask):
    """Independent oracle: quotient by relations over every comparable pair
    inside the window, not just covers."""
    poset = m.poset
    window = [e for e in poset.elements if mask >> poset.index(e) & 1]
    offsets, total = {}, 0
    for d in window:
        offsets[d] = total
        total += m.dims[d]
    blocks = []
    for d in window:
        for d2 in window:
            if d != d2 and poset.leq(d, d2):
                block = linalg.zeros(total, m.dims[d])
                block[offsets[d]:offsets[d] + m.dims[d]] = linalg.identity(m.dims[d])
                block[offsets[d2]:offsets[d2] + m.dims[d2]] = \
                    (-m.eval_map(d, d2)) % P
                blocks.append(block)
    rel = linalg.hstack(blocks, total)
    return total - linalg.rank(rel, P)


def test_colim_singleton(chain3, field):
    m = interval_module(chain3, ["0", "1", "2"], field)
    cr = colim_over_mask(m, 1 << chain3.index("1"))
    assert cr.dim == 1
    assert np.array_equal(colim_injection(m, cr, "1"), linalg.identity(1))


def test_colim_empty_window(chain3, field):
    m = interval_module(chain3, ["0", "1", "2"], field)
    cr = colim_over_mask(m, window_mask(chain3.subset([]), "0"))
    assert cr.dim == 0


def test_colim_free_module_window(field):
    # window colimit of a representable module below c is one-dimensional
    rng = np.random.default_rng(31)
    found = 0
    for _ in range(60):
        p = random_poset(rng, 3, 6)
        s_mask = int(rng.integers(1, p.full_mask + 1))
        s = p.subset_from_mask(s_mask)
        pairs = [(e, c) for e in s for c in p.elements if e != c and p.leq(e, c)]
        if not pairs:
            continue
        e, c = pairs[int(rng.integers(0, len(pairs)))]
        m = free_module(p, e, 1, field)
        cr = colim_over_mask(m, window_mask(s, c))
        assert cr.dim == 1
        found += 1
    assert found >= 20


def test_colim_incomparable_window(diamond, field):
    m = interval_module(diamond, ["b", "c", "d"], field)
    cr = colim_over_mask(m, (1 << diamond.index("b")) | (1 << diamond.index("c")))
    assert cr.dim == 2
    assert cr.presentation.shape[1] == 0


def test_colim_matches_all_pairs_oracle(field):
    rng = np.random.default_rng(32)
    for _ in range(80):
        p = random_poset(rng, 2, 6)
        m = random_module(p, 3, field, seed=int(rng.integers(2**32)))
        mask = int(rng.integers(0, p.full_mask + 1))
        cr = colim_over_mask(m, mask)
        assert cr.dim == colim_dim_all_pairs(m, mask)
        # cocone commutes over every comparable pair of the window
        window = p.subset_from_mask(cr.mask).members
        for d in window:
            for d2 in window:
                if d != d2 and p.leq(d, d2):
                    lhs = colim_injection(m, cr, d)
                    rhs = linalg.matmul(colim_injection(m, cr, d2), m.eval_map(d, d2), P)
                    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_colimit_reads_structure_maps_only_at_span_sources(p, monkeypatch):
    """Every ``eval_map`` call inside ``colim_over_mask`` starts at the d of
    a span (d, t0, t) of ``Poset.local_spans(mask)``: the colimit builds its
    relations and nothing more, in particular no injection of an element
    below the tops.  Strict and non-strict windows over S the whole poset
    and a random S, on random posets and a 4x4 grid."""
    field = linalg.FieldSpec(p)
    rng = np.random.default_rng(p % 997 + 80)
    posets = [random_poset(rng, 3, 9) for _ in range(40)] + [grid_poset((4, 4))] * 4
    modules = [random_module(poset, 3, field, seed=int(rng.integers(2**32)),
                             generator=generator)
               for poset in posets for generator in ("solve", "intervals")]
    sources = []
    eval_map = PersModule.eval_map

    def recording(self, a, b):
        sources.append(a)
        return eval_map(self, a, b)

    monkeypatch.setattr(PersModule, "eval_map", recording)
    calls = below = 0
    for m in modules:
        poset = m.poset
        for s in (poset.whole(),
                  poset.subset_from_mask(int(rng.integers(0, poset.full_mask + 1)))):
            for c in poset.elements:
                for strict in (True, False):
                    mask = window_mask(s, c, strict=strict)
                    sources.clear()
                    cr = colim_over_mask(m, mask)
                    spans = poset.local_spans(mask)[1]
                    assert set(sources) <= {d for d, _, _ in spans}, (poset.elements, mask)
                    calls += len(sources)
                    below += cr.dim > 0 and any(
                        m.dims[d] and d not in cr.tops
                        for d in poset.subset_from_mask(mask))
    assert calls >= 80 and below >= 300, (calls, below)


def test_restrict(chain3, field):
    m = interval_module(chain3, ["0", "1", "2"], field)
    r = restrict(m, ["0", "2"])
    assert set(r.poset.covers) == {("0", "2")}
    assert r.cover_maps[("0", "2")].tolist() == [[1]]
    whole = restrict(m, chain3.elements)
    assert whole.dims == m.dims
    empty = restrict(m, [])
    assert empty.total_dim == 0 and len(empty.poset) == 0


def test_induce_whole_and_empty(chain3, field):
    m = random_module(chain3, 3, field, seed=4)
    ind = induce(restrict(m, chain3.elements), chain3)
    assert ind.dims == m.dims
    assert is_iso(canonical_mu(m, chain3.whole()))
    z = induce(restrict(m, []), chain3)
    assert z.total_dim == 0


def test_induce_recovers_free_module(field):
    rng = np.random.default_rng(33)
    for _ in range(40):
        p = random_poset(rng, 2, 6)
        e = p.elements[int(rng.integers(0, len(p)))]
        s_mask = int(rng.integers(0, p.full_mask + 1)) | (1 << p.index(e))
        f = free_module(p, e, int(rng.integers(1, 3)), field)
        mu = canonical_mu(f, p.subset_from_mask(s_mask))
        assert is_iso(mu)


def test_induce_not_iso_when_generator_missing(diamond, field):
    # bottom generator excluded: the window at the top splits into two
    # incomparable pieces, doubling the colimit
    f = free_module(diamond, "a", 1, field)
    ind = induce(restrict(f, ["b", "c"]), diamond)
    assert ind.dims["d"] == 2
    assert f.dims["d"] == 1


def test_mu_zero_when_window_empty(chain3, field):
    m = interval_module(chain3, ["1", "2"], field)
    mu = canonical_mu(m, ["0"])
    assert not is_epi(mu)
    assert all(mu.components[e].shape == (m.dims[e], 0) for e in ("1", "2"))


def test_lambda_examples(chain3, field):
    m = interval_module(chain3, ["0", "1", "2"], field)
    lam = lambda_map(m, ["0", "1"], "2")
    assert lam.tolist() == [[1]]
    # at a minimal element the map leaves the zero space
    lam = lambda_map(m, chain3.whole(), "0")
    assert lam.shape == (1, 0)


def _two_meet_module(field):
    """a and b lie below both t1 and t2, which lie below top.  The window
    at top has maximal elements t1, t2, whose common lower set {a, b} has
    two maximal elements; m(a) and m(b) land on different basis vectors, so
    both relations count."""
    p = build_poset(["a", "b", "t1", "t2", "top"],
                    [("a", "t1"), ("a", "t2"), ("b", "t1"), ("b", "t2"),
                     ("t1", "top"), ("t2", "top")])
    dims = {"a": 1, "b": 1, "t1": 2, "t2": 2, "top": 2}
    e1, e2 = [[1], [0]], [[0], [1]]
    maps = {("a", "t1"): e1, ("a", "t2"): e1, ("b", "t1"): e2, ("b", "t2"): e2,
            ("t1", "top"): [[1, 0], [0, 1]], ("t2", "top"): [[1, 0], [0, 1]]}
    return new_module(p, field, dims, maps)


def _window_ranks_cases(field):
    rng = np.random.default_rng(34)
    for _ in range(60):
        p = random_poset(rng, 2, 6)
        m = random_module(p, 3, field, seed=int(rng.integers(2**32)))
        yield m, p.subset_from_mask(int(rng.integers(0, p.full_mask + 1)))
    for _ in range(25):
        p = random_poset(rng, 6, 8)
        m = random_module(p, 2, field, seed=int(rng.integers(2**32)),
                          generator=("solve", "intervals")[int(rng.integers(0, 2))])
        yield m, p.subset_from_mask(int(rng.integers(0, p.full_mask + 1)))
    for n in (3, 4, 5):
        g = grid_poset((n, n))
        for generator in ("solve", "intervals"):
            m = random_module(g, 2, field, seed=int(rng.integers(2**32)),
                              generator=generator)
            sparse = int(sum(1 << i for i in range(len(g)) if rng.random() < 0.3))
            yield m, g.subset_from_mask(sparse)
    m = _two_meet_module(field)
    yield m, m.poset.whole()
    for seed in range(4):
        yield random_module(m.poset, 2, field, seed=seed), m.poset.whole()


def test_window_ranks_match_lambda(field):
    """The ranks in window_ranks against the colimit and the lambda matrix
    behind lambda_with_window and splitting."""
    for m, s in _window_ranks_cases(field):
        p = m.poset
        for c in p.elements:
            mask = window_mask(s, c)
            tops = p.maximal_of_mask(mask)
            assert tops == sum(1 << i for i in range(len(p)) if mask >> i & 1
                               and not mask & p._up[i] & ~(1 << i))
            lam, cr = lambda_with_window(m, s, c)
            rank, colim_dim, dim_c = window_ranks(m, s, c)
            assert lam.shape == (dim_c, cr.dim)
            assert cr.dim == colim_dim
            assert linalg.rank(lam, P) == rank
            assert dim_c - rank == splitting(m, s, c).dim
    m = _two_meet_module(field)
    p = m.poset
    common = p.down_mask("t1") & p.down_mask("t2")
    assert p.maximal_of_mask(common) == p.subset(["a", "b"]).mask
    assert window_ranks(m, p.whole(), "top") == (2, 2, 2)


def test_right_exactness_of_window_colimit(field):
    # a pointwise surjection induces a surjection on window colimits
    rng = np.random.default_rng(35)
    for _ in range(40):
        p = random_poset(rng, 2, 5)
        n = random_module(p, 3, field, seed=int(rng.integers(2**32)))
        l = random_module(p, 2, field, seed=int(rng.integers(2**32)))
        g = random_morphism(l, n, rng)
        m, f = cokernel_module(g)
        mask = int(rng.integers(0, p.full_mask + 1))
        cr_n = colim_over_mask(n, mask)
        cr_m = colim_over_mask(m, mask)
        total_f = linalg.block_diag([f.components[d] for d in cr_n.tops])
        rhs = linalg.matmul(cr_m.projection, total_f, P)
        induced = linalg.factor(cr_n.projection, cr_n.free, rhs, P, "not induced")
        assert linalg.rank(induced, P) == cr_m.dim


def test_a_non_functorial_module_is_refused_where_a_cocone_is_factored(diamond, field):
    # a <= b <= d is 1 and a <= c <= d is 2: the cocone into d does not
    # kill the relation of the window {a, b, c} along a
    maps = {("a", "b"): [[1]], ("a", "c"): [[1]], ("b", "d"): [[1]], ("c", "d"): [[2]]}
    m = PersModule(diamond, field, {e: 1 for e in "abcd"}, maps, validate=False)
    assert lambda_map(m, diamond.whole(), "b").tolist() == [[1]]
    with pytest.raises(InternalError, match=r"^lambda at 'd' does not kill relations$"):
        lambda_map(m, diamond.whole(), "d")
    with pytest.raises(InternalError,
                       match=r"^mu component at 'd' does not kill relations$"):
        canonical_mu(m, ["a", "b", "c"])


def test_mu_components_kill_relations(field):
    rng = np.random.default_rng(36)
    for _ in range(30):
        p = random_poset(rng, 2, 5)
        m = random_module(p, 3, field, seed=int(rng.integers(2**32)))
        s = p.subset_from_mask(int(rng.integers(0, p.full_mask + 1)))
        mu = canonical_mu(m, s)  # raises InternalError if a relation survives
        ModuleMorphism(mu.source, mu.target, mu.components)


def test_adjunction_dimension(field):
    from gpmod.modules import hom_space_dim

    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(40):
        p = random_poset(rng, 2, 5)
        s = p.subset_from_mask(int(rng.integers(0, p.full_mask + 1)))
        n = restrict(random_module(p, 2, field, seed=int(rng.integers(2**32))), s)
        m = random_module(p, 2, field, seed=int(rng.integers(2**32)))
        if n.total_dim + m.total_dim > 40:
            continue
        assert hom_space_dim(induce(n, p), m) == hom_space_dim(n, restrict(m, s))
        checked += 1
    assert checked >= 25


def test_restrict_and_mu_on_a_long_chain():
    # a composite of 2999 covers, once deeper than Python's recursion limit
    p = chain(3000)
    field = linalg.FieldSpec(P)
    m = new_module(p, field, {e: 1 for e in p.elements},
                   {c: [[2]] for c in p.covers})
    s = ["1", "2999"]
    res = restrict(m, s)
    assert res.cover_maps[("1", "2999")].tolist() == [[pow(2, 2998, P)]]
    mu = canonical_mu(m, s)
    # ind(res(m)) vanishes at 0 and is m from 1 on
    assert mu.components["0"].shape == (1, 0)
    assert not is_epi(mu) and is_mono(mu)
    assert all(mu.components[e].shape == (1, 1) for e in p.elements[1:])


def _window_ranks_unshared(m, s, c):
    """kan.window_ranks as it was: every call presents its window afresh."""
    s = m.poset.subset(s)
    tops, spans = m.poset.local_spans(window_mask(s, c))
    offsets, total = _offsets(m, tops)
    relations = _relation_matrix(m, offsets, total, spans)
    colim_dim = total - linalg.rank(relations, m.field.p)
    return linalg.rank(_cocone(m, tops, c), m.field.p), colim_dim, m.dims[c]


def test_window_ranks_share_windows_as_the_unshared_route_would(field):
    """A module and the kernel of its cover, each asked in shuffled element
    order for two S that differ in one element, so that most windows repeat
    across S: the shared colimit dimensions give what a fresh presentation
    per call gives."""
    rng = np.random.default_rng(58)
    posets = [random_poset(rng, 3, 9) for _ in range(40)]
    posets += [grid_poset((n, n)) for n in (3, 4, 5)]
    calls = repeats = 0
    for p in posets:
        m = random_module(p, 2, field, seed=int(rng.integers(2**32)),
                          generator=("solve", "intervals")[int(rng.integers(0, 2))])
        ker, _ = kernel_module(projective_cover(m, p.whole())[1])
        s1 = int(rng.integers(0, p.full_mask + 1))
        s2 = s1 ^ 1 << int(rng.integers(len(p)))
        for module in (m, ker):
            windows = set()
            for s in (p.subset_from_mask(s1), p.subset_from_mask(s2)):
                for c in (p.elements[i] for i in rng.permutation(len(p))):
                    want = _window_ranks_unshared(module, s, c)
                    assert window_ranks(module, s, c) == want, (p.elements, s, c)
                    mask = window_mask(s, c)
                    calls += 1
                    repeats += mask in windows
                    windows.add(mask)
    assert repeats > calls // 3, (repeats, calls)


def _interval_and_free_sum(field, rng):
    """Boxes and free modules on the 12x12 grid, summed, with a sparse S:
    each box's corner and the elements just past it, each free module's
    generator, and the top."""
    grid = grid_poset((12, 12))
    m, s = free_module(grid, grid_id((11, 11)), 1, field), {(11, 11)}
    for _ in range(6):
        x, y = (int(v) for v in rng.integers(0, 12, size=2))
        if rng.integers(0, 2):
            u, v = min(11, x + int(rng.integers(0, 5))), min(11, y + int(rng.integers(0, 5)))
            box = [grid_id((i, j)) for i in range(x, u + 1) for j in range(y, v + 1)]
            m = direct_sum(m, interval_module(grid, box, field))
            s |= {(x, y), (min(11, u + 1), y), (x, min(11, v + 1))}
        else:
            m = direct_sum(m, free_module(grid, grid_id((x, y)), 1, field))
            s.add((x, y))
    return m, grid.subset(grid_id(xy) for xy in s)


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_window_sweep_matches_the_per_element_route(p):
    """One sweep per (module, S) gives every row that a fresh presentation
    per element gives, and the birth and death masks read off those rows;
    ``window_ranks`` then reads its row of the module's table."""
    field = linalg.FieldSpec(p)
    rng = np.random.default_rng(33)
    cases = list(_window_ranks_cases(field))
    cases += [_interval_and_free_sum(field, rng) for _ in range(4)]
    for m, s in cases:
        want = [_window_ranks_unshared(m, s, c) for c in m.poset.elements]
        table = _window_sweep(m, s.mask)
        assert list(table) == want, (m.poset.elements, s)
        assert table.born == sum(1 << i for i, (rk, _, dim_c) in enumerate(want)
                                 if rk != dim_c)
        assert table.dead == sum(1 << i for i, (rk, colim_dim, _) in enumerate(want)
                                 if rk != colim_dim)
        assert [window_ranks(m, s, c) for c in m.poset.elements] == want


def _relation_matrix_by_blocks(m, offsets, total, spans):
    """kan._relation_matrix as it was: one zero block per span, every block
    from ``eval_map``, joined by ``hstack``."""
    p = m.field.p
    blocks = []
    for d, a, b in spans:
        block = linalg.zeros(total, m.dims[d])
        block[offsets[a]:offsets[a] + m.dims[a]] = m.eval_map(d, a)
        block[offsets[b]:offsets[b] + m.dims[b]] = (-m.eval_map(d, b)) % p
        blocks.append(block)
    return linalg.hstack(blocks, total)


def _cocone_by_blocks(m, window, c):
    """kan._cocone as it was: one ``eval_map`` per summand, joined by
    ``hstack``."""
    return linalg.hstack([m.eval_map(d, c) for d in window], m.dims[c])


def _assert_same_array(got, want, where):
    assert got.dtype == want.dtype, where
    assert got.shape == want.shape, where
    assert got.tobytes() == want.tobytes(), where


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_window_assembly_matches_the_block_route(p):
    """The one-array relation matrices and cocones against the former
    block-and-hstack assembly, on the cover spans of ``colim_over_mask``
    and the local spans of ``window_ranks``, for strict and non-strict
    windows (so the cocone meets d == c), with the cocone's summands also
    in reverse order."""
    field = linalg.FieldSpec(p)
    rng = np.random.default_rng(p % 997 + 60)
    posets = [random_poset(rng, 1, 8) for _ in range(30)]
    posets += [grid_poset((1, 4)), grid_poset((3, 3)), grid_poset((4, 4))]
    seen = dict.fromkeys(("zero summand", "no spans", "one summand",
                          "zero target", "d == c"), 0)
    for poset in posets:
        for generator in ("solve", "intervals"):
            m = random_module(poset, 3, field, seed=int(rng.integers(2**32)),
                              generator=generator)
            for _ in range(3):
                s = poset.subset_from_mask(int(rng.integers(0, poset.full_mask + 1)))
                for c in poset.elements:
                    for strict in (True, False):
                        mask = window_mask(s, c, strict=strict)
                        window = [poset.elements[i] for i in _bits(mask)]
                        cover = [(d, d, d2) for d, d2 in poset.cover_pairs_within(mask)]
                        routes = [(window, cover)]
                        if mask:
                            routes.append(poset.local_spans(mask))
                        for summands, spans in routes:
                            where = (poset.elements, s.ids(), c, strict, summands, spans)
                            offsets, total = _offsets(m, summands)
                            _assert_same_array(
                                _relation_matrix(m, offsets, total, spans),
                                _relation_matrix_by_blocks(m, offsets, total, spans), where)
                            for order in (summands, summands[::-1]):
                                _assert_same_array(_cocone(m, order, c),
                                                   _cocone_by_blocks(m, order, c), where)
                            seen["zero summand"] += any(m.dims[d] == 0 for d in summands)
                            seen["no spans"] += bool(summands) and not spans
                            seen["one summand"] += len(summands) == 1
                            seen["zero target"] += bool(summands) and m.dims[c] == 0
                            seen["d == c"] += c in summands and m.dims[c] > 0
    assert min(seen.values()) >= 300, seen


def test_induce_refuses_a_subposet_that_does_not_embed(field):
    """The order on the subposet must be the one induced by the ambient
    poset, in both directions, and every element must exist there."""
    ambient = chain(2)
    antichain = build_poset(["0", "1"], [])
    with pytest.raises(InternalError):
        induce(new_module(antichain, field, {"0": 1, "1": 1}, {}), ambient)
    with pytest.raises(InternalError):
        induce(new_module(ambient, field, {"0": 1, "1": 1}, {("0", "1"): [[1]]}),
               antichain)
    missing = build_poset(["0", "x"], [])
    with pytest.raises(UnknownElement):
        induce(new_module(missing, field, {"0": 1, "x": 1}, {}), ambient)
    whole = new_module(ambient, field, {"0": 1, "1": 1}, {("0", "1"): [[1]]})
    assert induce(restrict(whole, ["1"]), ambient).dims == {"0": 0, "1": 1}


# -- the former cover route, kept as the oracle ------------------------------
#
# Every window colimit used to be presented on the sum of all window spaces,
# related along every cover inside the window.  The two presentations give
# isomorphic colimits with different bases; the helpers below keep that
# route, and the test checks the canonical isomorphism between them.


def _relations(m, mask):
    """The window on mask, its summand offsets and the relation matrix on
    the direct sum: one block x - m(d <= d2) x per cover d < d2 inside."""
    window = [m.poset.elements[i] for i in _bits(mask)]
    offsets, total = _offsets(m, window)
    spans = [(d, d, d2) for d, d2 in m.poset.cover_pairs_within(mask)]
    return window, offsets, _relation_matrix(m, offsets, total, spans)


def _cover_colim(m, mask):
    """``colim_over_mask`` as it was: every window element is a summand (a
    top, for ``_factor_cocone``).  Returns the colimit and its own record of
    the injections, each window element's slice of the full-window
    projection."""
    window, offsets, presentation = _relations(m, mask)
    dim, projection, free = linalg.cokernel(presentation, m.field.p)
    injections = {d: projection[:, offsets[d]:offsets[d] + m.dims[d]].copy()
                  for d in window}
    return ColimitResult(dim=dim, mask=mask, tops=tuple(window),
                         offsets=offsets, presentation=presentation,
                         projection=projection, free=free), injections


def _cover_induce_with_data(n, ambient):
    """``induce_with_data`` as it was: each cover map is solved from the
    summand inclusion of a's window sum into b's."""
    sub, p = n.poset, n.field.p
    s_mask_ambient = 0
    for e in sub.elements:
        s_mask_ambient |= 1 << ambient.index(e)

    def sub_mask_of(c):
        mask = 0
        for i in _bits(ambient.down_mask(c) & s_mask_ambient):
            mask |= 1 << sub.index(ambient.elements[i])
        return mask

    data = {c: _cover_colim(n, sub_mask_of(c)) for c in ambient.elements}
    maps = {}
    for a, b in ambient.covers:
        (da, _), (db, _) = data[a], data[b]
        incl = linalg.zeros(db.projection.shape[1], da.projection.shape[1])
        for d in sub.subset_from_mask(da.mask):
            k = n.dims[d]
            incl[db.offsets[d]:db.offsets[d] + k, da.offsets[d]:da.offsets[d] + k] = \
                linalg.identity(k)
        maps[(a, b)] = _oracle_solve_left(da.projection,
                                          linalg.matmul(db.projection, incl, p), p)
    return {c: data[c][0].dim for c in ambient.elements}, maps, data


def _comparison(m, old, new, p):
    """The map T from the cover-route colimit old = (colimit, injections) to
    the local one new with T P_cover = Q, Q the injections of new
    (``colim_injection``) side by side over the window.  It exists when
    those injections kill the cover relations, and it must be invertible."""
    old, old_injections = old
    assert old.mask == new.mask and old.dim == new.dim
    window = m.poset.subset_from_mask(new.mask).members
    new_injections = {d: colim_injection(m, new, d) for d in window}
    q = linalg.hstack([new_injections[d] for d in window], new.dim)
    t = _oracle_solve_left(old.projection, q, p)  # NoSolution if none
    assert linalg.is_isomorphism(t, p)
    for d in window:
        assert np.array_equal(linalg.matmul(t, old_injections[d], p),
                              new_injections[d])
    return t


def _oracle_cases(field):
    """Random modules on random posets and on grids from 1x4 to 4x4, and on
    the grids also a free sum and the kernel of a projective cover, whose
    windows meet relations with non-zero spaces; each with S the whole
    poset and a random S."""
    rng = np.random.default_rng(field.p % 997 + 70)
    grids = [grid_poset(shape) for shape in ((1, 4), (2, 3), (3, 3), (3, 4), (4, 4))]
    for poset in [random_poset(rng, 2, 8) for _ in range(40)] + grids:
        modules = [random_module(poset, 3, field, seed=int(rng.integers(2**32)),
                                 generator=generator)
                   for generator in ("solve", "intervals")]
        if poset in grids:
            pieces = [(poset.elements[0], 2)]
            pieces += [(poset.elements[int(rng.integers(len(poset)))], 1) for _ in range(2)]
            modules.append(free_sum(poset, pieces, field))
            modules.append(kernel_module(projective_cover(modules[0], poset.whole())[1])[0])
        for m in modules:
            yield m, poset.whole()
            yield m, poset.subset_from_mask(int(rng.integers(0, poset.full_mask + 1)))
    m = _two_meet_module(field)
    yield m, m.poset.whole()
    for seed in range(6):
        yield random_module(m.poset, 3, field, seed=seed), m.poset.whole()


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_local_presentation_matches_the_cover_route(p):
    """Every strict and non-strict window colimit, every lambda, the induced
    module and every counit component against the former cover route, up to
    the canonical isomorphism T between the two colimits."""
    field = linalg.FieldSpec(p)
    seen = dict.fromkeys(("several tops", "relations", "injection below the tops",
                          "zero summand", "induced cover map", "mu at c"), 0)
    for m, s in _oracle_cases(field):
        poset = m.poset
        for c in poset.elements:
            for strict in (True, False):
                mask = window_mask(s, c, strict=strict)
                new, old = colim_over_mask(m, mask), _cover_colim(m, mask)
                t = _comparison(m, old, new, p)
                seen["several tops"] += len(new.tops) > 1
                seen["relations"] += new.presentation.shape[1] > 0
                window = poset.subset_from_mask(mask).members
                seen["injection below the tops"] += any(
                    m.dims[d] and d not in new.tops for d in window) and new.dim > 0
                seen["zero summand"] += any(m.dims[d] == 0 for d in window)
                if strict:
                    lam, cr = lambda_with_window(m, s, c)
                    assert cr.dim == new.dim
                    old_lam = _factor_cocone(m, old[0], c, "lambda")
                    assert np.array_equal(linalg.matmul(lam, t, p), old_lam)
        n = restrict(m, s)
        ind, data = induce_with_data(n, poset)
        old_dims, old_maps, old_data = _cover_induce_with_data(n, poset)
        assert ind.dims == old_dims
        iso = {c: _comparison(n, old_data[c], data[c], p) for c in poset.elements}
        for a, b in poset.covers:
            assert np.array_equal(linalg.matmul(ind.cover_maps[(a, b)], iso[a], p),
                                  linalg.matmul(iso[b], old_maps[(a, b)], p)), (a, b)
            seen["induced cover map"] += old_dims[a] > 0 and old_dims[b] > 0
        mu = canonical_mu(m, s)
        for c in poset.elements:
            old_mu = _factor_cocone(m, old_data[c][0], c, "mu component")
            assert np.array_equal(linalg.matmul(mu.components[c], iso[c], p), old_mu)
            seen["mu at c"] += old_dims[c] > 0 and m.dims[c] > 0
    assert min(seen.values()) >= 60, seen


# -- the counit memo -----------------------------------------------------------


def _cold(m):
    """m with the same maps and an empty counit memo."""
    return PersModule(m.poset, m.field, m.dims, m.cover_maps, validate=False)


def _sub_window(sub, poset, c):
    """The mask in sub of {e in sub : e <= c}, c in the ambient poset."""
    return sub.subset([e for e in sub.elements if poset.leq(e, c)]).mask


def _counit_memo_cases(field):
    """Random modules on ``random_poset`` draws of 2-6 elements, the diamond
    and the 3x3 grid.  The diamond carries the constant module, whose
    window colimit at d is 2-dimensional over S = {b, c} and 1-dimensional
    over S = {a, b, c}: same tops, different spans."""
    rng = np.random.default_rng(field.p % 997 + 34)
    diamond = build_poset(["a", "b", "c", "d"],
                          [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    yield interval_module(diamond, diamond.elements, field)
    for poset in [random_poset(rng, 2, 6) for _ in range(8)] + [diamond, grid_poset((3, 3))]:
        yield random_module(poset, 2, field, seed=int(rng.integers(2**32)),
                            generator=("solve", "intervals")[int(rng.integers(0, 2))])


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_a_warm_counit_memo_gives_the_cold_bytes(p):
    """Every subset S of one module in increasing mask order, so that later
    S hit the windows that earlier S presented: each counit component, the
    induced module's dims and maps, and each colimit's mask in the
    subposet are what a module with an empty memo gives."""
    field = linalg.FieldSpec(p)
    hits = 0
    for m in _counit_memo_cases(field):
        poset = m.poset
        for mask in range(poset.full_mask + 1):
            s = poset.subset_from_mask(mask)
            before, cold = len(m._counit), _cold(m)
            mu, cold_mu = canonical_mu(m, s), canonical_mu(cold, s)
            hits += len(m._counit) - before < len(cold._counit)
            for c in poset.elements:
                got, want = mu.components[c], cold_mu.components[c]
                assert got.dtype == want.dtype and np.array_equal(got, want), (s.ids(), c)
            res = restrict(m, s)
            ind, data = induce_with_data(res, poset)
            cold_ind = induce(restrict(_cold(m), s), poset)
            assert ind.dims == cold_ind.dims, s.ids()
            for pair in poset.covers:
                got, want = ind.cover_maps[pair], cold_ind.cover_maps[pair]
                assert got.dtype == want.dtype and np.array_equal(got, want), (s.ids(), pair)
            for c in poset.elements:
                assert data[c].mask == _sub_window(res.poset, poset, c), (s.ids(), c)
    assert hits > 500, hits


def test_the_counit_memo_is_shared_by_restrictions_only(field):
    """A module and its restrictions, restrictions of those included, share
    one memo; two modules on one poset keep their own, and interleaved
    counits give each its cold result; kernels, cokernels, sums and induced
    modules start with an empty one."""
    poset = grid_poset((2, 3))
    m1, m2 = (random_module(poset, 2, field, seed=seed) for seed in (5, 6))
    s, t = poset.subset_from_mask(0b111011), ["(0,1)", "(1,2)"]
    assert restrict(restrict(m1, s), t)._counit is m1._counit
    assert m2._counit is not m1._counit
    for mask in range(poset.full_mask + 1):
        sub = poset.subset_from_mask(mask)
        for m in (m1, m2):
            cold = canonical_mu(_cold(m), sub)
            mu = canonical_mu(m, sub)
            assert all(np.array_equal(mu.components[c], cold.components[c])
                       for c in poset.elements), (m.name, sub.ids())
    f = random_morphism(m1, m2, np.random.default_rng(7))
    built = [kernel_module(f)[0], cokernel_module(f)[0], direct_sum(m1, m2),
             induce(restrict(m1, s), poset)]
    assert all(n._counit == {} and n._counit is not m1._counit for n in built)


def test_each_window_presentation_is_presented_once_per_module(field, monkeypatch):
    """Over every S of one module, ``colim_over_mask`` runs once per
    distinct window presentation, not once per (S, c)."""
    calls = []

    def counted(n, mask):
        calls.append(n.poset.local_spans(mask))
        return colim_over_mask(n, mask)

    monkeypatch.setattr(gpmod.kan, "colim_over_mask", counted)
    poset = grid_poset((2, 3))
    m = random_module(poset, 2, field, seed=9)
    for mask in range(poset.full_mask + 1):
        canonical_mu(m, poset.subset_from_mask(mask))
    assert len(calls) == len(set(calls))
    assert len(calls) < (poset.full_mask + 1) * len(poset) // 4, len(calls)


def test_the_counits_naturality_check_still_fires(chain3, field, monkeypatch):
    """``canonical_mu`` stores its components as given and runs the
    naturality check itself, once: a component broken on a cover is refused
    by that check, and a valid counit holds what ``validate=True`` stores."""
    checks = []
    check = ModuleMorphism._check_naturality
    monkeypatch.setattr(ModuleMorphism, "_check_naturality",
                        lambda f: checks.append(f) or check(f))
    m = interval_module(chain3, chain3.elements, field)
    mu = canonical_mu(m, chain3.whole())
    assert len(checks) == 1 and checks[0] is mu
    assert all(linalg.is_built(mu.components[c], (1, 1)) for c in chain3.elements)
    checked = ModuleMorphism(mu.source, mu.target, mu.components)
    for c in chain3.elements:
        got, want = mu.components[c], checked.components[c]
        assert got.dtype == want.dtype and np.array_equal(got, want), c
    comps = dict(mu.components, **{"1": (mu.components["1"] + 1) % field.p})
    broken = ModuleMorphism(mu.source, mu.target, comps, validate=False)
    with pytest.raises(ValidationError, match=r"^naturality fails on cover \('0', '1'\)$"):
        broken._check_naturality()
