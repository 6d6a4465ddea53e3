import itertools

import numpy as np
import pytest

from gpmod.errors import (
    CycleError,
    EmptySetError,
    ParseError,
    TooLargeError,
    UnknownElement,
)
from gpmod.kan import window_mask
from gpmod.posets import (
    POSET_SIZE_LIMIT,
    PROPERTY_M,
    Poset,
    _bits,
    as_grid_shape,
    build_poset,
    chain,
    down_set,
    grid_coord,
    grid_poset,
    hat,
    is_connected,
    is_interval,
    mub,
    up_set,
)
from gpmod.textio import parse_text
from gpmod.verify import random_poset


def test_singleton():
    p = build_poset(["a"], [])
    assert p.elements == ("a",)
    assert p.leq("a", "a")
    assert p.covers == ()


def test_diamond_closure_and_reduction(diamond):
    # closure of the four generating pairs, reduced back to exactly them
    assert set(diamond.covers) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}
    assert diamond.leq("a", "d")
    assert not diamond.leq("b", "c")


def test_redundant_relation_is_reduced():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert set(p.covers) == {("a", "b"), ("b", "c")}
    # the cover set that module construction and parsing look pairs up in
    assert p._cover_set == frozenset(p.covers)
    assert ("a", "c") not in p._cover_set


def test_cycle_error():
    with pytest.raises(CycleError):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_unknown_element():
    with pytest.raises(UnknownElement):
        build_poset(["a"], [("a", "z")])


def test_an_unknown_element_is_refused_in_a_self_relation_and_a_later_one():
    # a self-relation is dropped only once both of its ends are known
    with pytest.raises(UnknownElement, match="unknown element 'z'"):
        build_poset(["a"], [("z", "z")])
    with pytest.raises(UnknownElement, match="unknown element 'z'"):
        build_poset(["a", "b"], [("a", "b"), ("b", "z")])
    for text, line_no in [("poset P\nelem a\nrel z z", 3),
                          ("poset P\nelem a\nelem b\nrel a b\nrel b z", 5)]:
        with pytest.raises(ParseError) as err:
            parse_text(text, stem="f")
        assert err.value.line_no == line_no
        assert str(err.value) == (f"line {line_no}: relation references "
                                  f"unknown element 'z'")


def test_up_down_sets(diamond, chain3):
    assert up_set(diamond, ["b"]).ids() == ["b", "d"]
    assert up_set(diamond, []).ids() == []
    assert down_set(chain3, ["1"]).ids() == ["0", "1"]


def test_mub(diamond):
    assert mub(diamond, ["b", "c"]).ids() == ["d"]
    assert mub(diamond, ["a"]).ids() == ["a"]
    anti = build_poset(["a", "b"], [])
    assert mub(anti, ["a", "b"]).ids() == []
    with pytest.raises(EmptySetError):
        mub(diamond, [])


def test_hat(diamond, grid33):
    assert hat(diamond, ["b", "c"]).ids() == ["b", "c", "d"]
    assert hat(diamond, ["a"]).ids() == ["a"]
    assert hat(grid33, ["(1,0)", "(0,1)"]).ids() == ["(0,1)", "(1,0)", "(1,1)"]


def test_hat_guard():
    p = grid_poset([25])
    with pytest.raises(TooLargeError):
        hat(p, p.elements)


def property_m_by_enumeration(p):
    """Both property M flags, checked over every non-empty subset: its upper
    bounds have at most n minimal elements, and each lies above one."""
    n = len(p)
    weakly_bounded = mub_complete = True
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            ub = p.full_mask
            for i in combo:
                ub &= p._up[i]
            mubs = p.minimal_of_mask(ub)
            weakly_bounded &= mubs.bit_count() <= n
            mub_complete &= all(p._down[c] & mubs for c in _bits(ub))
    return {"weakly_bounded": weakly_bounded, "mub_complete": mub_complete}


def test_property_m(diamond):
    posets = [diamond, build_poset(["x"], []), chain(5), grid_poset([3, 4])]
    rng = np.random.default_rng(84)
    posets += [random_poset(rng, 1, 12) for _ in range(12)]
    assert max(len(p) for p in posets) == 12
    for p in posets:
        assert property_m_by_enumeration(p) == PROPERTY_M, p


def test_property_m_oracle_sees_a_missing_minimal_element(monkeypatch, diamond):
    monkeypatch.setattr(Poset, "minimal_of_mask", lambda self, mask: 0)
    assert property_m_by_enumeration(diamond)["mub_complete"] is False


def test_is_interval(diamond):
    assert is_interval(diamond, ["b", "c", "d"])
    assert is_interval(diamond, diamond.elements)
    # {b, c} is betweenness-closed vacuously
    assert is_interval(diamond, ["b", "c"])
    assert not is_interval(diamond, ["a", "d"])


def test_is_connected(diamond):
    assert not is_connected(diamond, ["b", "c"])
    assert is_connected(diamond, ["a", "b", "c"])
    assert not is_connected(diamond, [])


def test_grid_poset():
    g = grid_poset([2, 2])
    assert len(g) == 4 and len(g.covers) == 4
    g = grid_poset([3, 3])
    assert len(g) == 9 and len(g.covers) == 12
    assert chain(1).elements == ("0",)
    # the one poset size limit, at its boundary
    assert POSET_SIZE_LIMIT == 100 * 100
    assert len(grid_poset([100, 100])) == POSET_SIZE_LIMIT
    with pytest.raises(TooLargeError):
        grid_poset([100, 101])
    with pytest.raises(TooLargeError):
        grid_poset([1000, 1000])


GRID_SHAPES = [(a, b) for a in range(2, 7) for b in range(2, 7)] + [(3, 3, 3),
                                                                     (2, 3, 2, 2)]


@pytest.mark.parametrize("shape", GRID_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_grid_poset_matches_build_over_all_componentwise_pairs(shape):
    g = grid_poset(shape)
    coords = list(itertools.product(*(range(d) for d in shape)))
    ids = [f"({','.join(map(str, c))})" for c in coords]
    rels = [(ids[i], ids[j]) for i, a in enumerate(coords)
            for j, b in enumerate(coords) if all(x <= y for x, y in zip(a, b))]
    p = build_poset(ids, rels)
    assert g.elements == p.elements
    assert g.topo_rank == p.topo_rank
    assert g.topo_rank == tuple(sum(grid_coord(e)) for e in g.elements)
    assert g._up == p._up and g._down == p._down
    assert g.covers == p.covers
    assert len(g.covers) == sum(len(coords) // d * (d - 1) for d in shape)


def test_as_grid_shape_recognizes_grids_and_their_round_trip():
    from gpmod.textio import parse_text, serialize_poset

    for shape in [(1,), (4,), (3, 3), (2, 5), (3, 3, 3), (2, 3, 2, 2)]:
        g = grid_poset(shape)
        assert as_grid_shape(g) == shape
        parsed = parse_text(serialize_poset(g, "G")).posets["G"]
        assert parsed == g and as_grid_shape(parsed) == shape
    g = grid_poset((3, 4))
    for dropped in g.covers:
        rels = [c for c in g.covers if c != dropped]
        assert as_grid_shape(build_poset(g.elements, rels)) is None
    assert as_grid_shape(chain(3)) is None
    assert as_grid_shape(build_poset(["(0,0)", "(1,1)"], [("(0,0)", "(1,1)")])) is None


def test_grid_mub_is_componentwise_max(grid33):
    from gpmod.graded import mub_grid

    for g in itertools.product(range(3), repeat=2):
        for h in itertools.product(range(3), repeat=2):
            gid = f"({g[0]},{g[1]})"
            hid = f"({h[0]},{h[1]})"
            want = mub_grid(g, h)
            got = mub(grid33, [gid, hid]).ids()
            assert got == [f"({want[0]},{want[1]})"]


def _closure_by_floyd(n, edges):
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return reach


def test_closure_reduction_round_trip_random_dags():
    # covers regenerate leq: rebuilding from the reduced covers gives the
    # same order as an independent Floyd-Warshall closure of the input;
    # topo_rank is the longest chain below in that closure, and elements
    # come in (rank, id) order
    rng = np.random.default_rng(7)
    for _ in range(150):
        n = int(rng.integers(1, 8))
        ids = [f"v{i}" for i in range(n)]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        p = build_poset(ids, [(ids[i], ids[j]) for i, j in edges])
        reach = _closure_by_floyd(n, edges)
        for i in range(n):
            for j in range(n):
                assert p.leq(ids[i], ids[j]) == reach[i][j]
        # edges go from lower to higher index, so index order is a linear
        # extension of the closure
        longest = []
        for j in range(n):
            longest.append(max((longest[i] + 1 for i in range(j) if reach[i][j]),
                               default=0))
        rank = dict(zip(ids, longest))
        assert p.topo_rank == tuple(rank[e] for e in p.elements)
        assert list(p.elements) == sorted(ids, key=lambda e: (rank[e], e))
        again = build_poset(list(p.elements), list(p.covers))
        assert set(again.covers) == set(p.covers)
        for a in p.elements:
            for b in p.elements:
                assert again.leq(a, b) == p.leq(a, b)


def test_mub_is_antichain_and_complete():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        ids = [f"v{i}" for i in range(n)]
        rels = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.35]
        p = build_poset(ids, rels)
        size = int(rng.integers(1, n + 1))
        s = list(rng.choice(ids, size=size, replace=False))
        ms = mub(p, s)
        for x in ms:
            for y in ms:
                assert x == y or not p.leq(x, y)
        # every upper bound dominates some minimal upper bound
        for c in p.elements:
            if all(p.leq(x, c) for x in s):
                assert any(p.leq(x, c) for x in ms)


def test_hat_monotone_tower():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(1, 8))
        ids = [f"v{i}" for i in range(n)]
        rels = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.35]
        p = build_poset(ids, rels)
        k = int(rng.integers(1, min(n, 5) + 1))
        s = p.subset(rng.choice(ids, size=k, replace=False))
        h1 = hat(p, s)
        h2 = hat(p, h1)
        assert s.mask & ~h1.mask == 0
        assert h1.mask & ~h2.mask == 0


def _hat_by_enumeration(p, s):
    """hat as its definition reads: mub over every nonempty subset of s."""
    out = set()
    for size in range(1, len(s) + 1):
        for combo in itertools.combinations(s.ids(), size):
            out |= set(mub(p, combo))
    return sorted(out, key=p.index)


def test_hat_matches_subset_enumeration():
    rng = np.random.default_rng(10)
    cases = []
    for _ in range(150):
        n = int(rng.integers(1, 10))
        ids = [f"v{i}" for i in range(n)]
        rels = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                if rng.random() < float(rng.uniform(0.1, 0.6))]
        p = build_poset(ids, rels)
        k = int(rng.integers(0, n + 1))
        cases.append((p, list(rng.choice(ids, size=k, replace=False))))
    for shape in ([6, 6], [4, 5], [3, 3, 3]):
        g = grid_poset(shape)
        for _ in range(8):
            # sparse S: a few scattered grid points
            k = int(rng.integers(1, 8))
            cases.append((g, list(rng.choice(g.elements, size=k, replace=False))))
    # every subset of S has its own upper bounds: x_j lies above all of S
    # but s_j
    k = 10
    s_ids = [f"s{i}" for i in range(k)]
    rels = [(s_ids[i], f"x{j}") for i in range(k) for j in range(k) if i != j]
    cases.append((build_poset(s_ids + [f"x{j}" for j in range(k)], rels), s_ids))
    for p, ids in cases:
        s = p.subset(ids)
        assert hat(p, s).ids() == _hat_by_enumeration(p, s)


def test_canonical_order_is_topological(diamond, grid33):
    for p in (diamond, grid33):
        for a, b in p.covers:
            assert p.index(a) < p.index(b)


def _cover_pairs_by_scan(p, mask):
    """The scan over every comparable pair that ``cover_pairs_within`` used
    before the local cover route, kept verbatim as its oracle."""
    out = []
    for a in _bits(mask):
        reach = p._up[a] & mask & ~(1 << a)
        for b in _bits(reach):
            if reach & p._down[b] & ~(1 << b) == 0:
                out.append((p.elements[a], p.elements[b]))
    return out


def test_cover_pairs_within_matches_comparable_pair_scan():
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(2000):
        n = int(rng.integers(1, 13))
        ids = [f"v{i}" for i in range(n)]
        q = float(rng.uniform(0.05, 0.7))
        rels = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                if rng.random() < q]
        p = build_poset(ids, rels)
        cases.append((p, int(rng.integers(0, p.full_mask + 1))))
    for shape in ([6, 6], [4, 5], [3, 3, 3], [2, 3, 2, 2]):
        g = grid_poset(shape)
        cases.append((g, g.full_mask))
        for _ in range(40):
            c = g.elements[int(rng.integers(len(g)))]
            k = int(rng.integers(1, len(g) + 1))
            s = g.subset(rng.choice(g.elements, size=k, replace=False))
            cases.append((g, window_mask(s, c)))
            cases.append((g, window_mask(g.whole(), c, strict=False)))
    for p, mask in cases:
        assert p.cover_pairs_within(mask) == _cover_pairs_by_scan(p, mask)


def test_cover_pairs_within_is_the_transitive_reduction_of_the_induced_order():
    """Against networkx's transitive reduction of the induced subposet, on
    the full mask, the empty mask and random masks: the same pairs, each
    once, in canonical order; and the cover tables agree with ``covers``."""
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(33)
    for _ in range(300):
        p = random_poset(rng, 1, 9)
        masks = [p.full_mask, 0] + [int(rng.integers(0, p.full_mask + 1))
                                    for _ in range(4)]
        for mask in masks:
            members = [p.elements[i] for i in _bits(mask)]
            order = nx.DiGraph()
            order.add_nodes_from(members)
            order.add_edges_from((a, b) for a in members for b in members
                                 if a != b and p.leq(a, b))
            got = p.cover_pairs_within(mask)
            assert sorted(got) == sorted(nx.transitive_reduction(order).edges)
            assert got == sorted(got, key=lambda pair: (p.index(pair[0]),
                                                        p.index(pair[1])))
        assert p.covers == tuple(p.cover_pairs_within(p.full_mask))
        assert p._cover_set == frozenset(p.covers)
        for e in p.elements:
            assert p.covers_above(e) == tuple(b for a, b in p.covers if a == e)
            assert p.covers_below(e) == tuple(a for a, b in p.covers if b == e)


def test_local_spans_relate_each_top_to_the_first_above_d(diamond):
    below = diamond.down_mask("d") & ~(1 << diamond.index("d"))
    assert diamond.local_spans(below) == (("b", "c"), (("a", "b", "c"),))
    # a fan of four tops over one bottom: one span per later top, not one
    # per pair of tops
    tops = [f"t{i}" for i in range(4)]
    p = build_poset(["z", *tops, "b"],
                    [("z", t) for t in tops] + [(t, "b") for t in tops])
    below = p.down_mask("b") & ~(1 << p.index("b"))
    assert p.local_spans(below) == (tuple(tops), tuple(("z", "t0", t) for t in tops[1:]))
    assert p.local_spans(p.subset(tops).mask) == (tuple(tops), ())


def test_local_spans_scan_only_tops_with_something_below(monkeypatch, field):
    # K_m,m: every lower element below every upper one.  Below an upper
    # element the tops are the m lower ones, none with anything under it,
    # so no pair of tops is scanned: one maximal_of_mask call per distinct
    # mask local_spans computes (it memoizes by mask), also through the
    # functoriality check
    from gpmod.linalg import identity
    from gpmod.modules import PersModule
    from gpmod.posets import Poset

    m = 12
    lower, upper = [f"a{i}" for i in range(m)], [f"b{i}" for i in range(m)]
    p = build_poset(lower + upper, [(a, b) for a in lower for b in upper])
    calls = {"local_spans": 0, "maximal_of_mask": 0}
    masks = set()
    real_spans, real_max = Poset.local_spans, Poset.maximal_of_mask

    def spans(self, mask):
        calls["local_spans"] += 1
        masks.add(mask)
        return real_spans(self, mask)

    def maximal(self, mask):
        calls["maximal_of_mask"] += 1
        return real_max(self, mask)

    monkeypatch.setattr(Poset, "local_spans", spans)
    monkeypatch.setattr(Poset, "maximal_of_mask", maximal)
    for b in upper:
        assert p.local_spans(p.down_mask(b) & ~(1 << p.index(b))) == (tuple(sorted(lower)), ())
    assert calls == {"local_spans": m, "maximal_of_mask": 1} and len(masks) == 1
    PersModule(p, field, {e: 1 for e in p.elements},
               {c: identity(1) for c in p.covers}, validate=True)
    assert calls["local_spans"] == 3 * m
    assert calls["maximal_of_mask"] == len(masks) == 2


def test_local_spans_memo_matches_a_fresh_poset():
    """local_spans on a poset whose memo is warm returns what an equal,
    freshly built poset computes."""
    rng = np.random.default_rng(61)
    posets = [random_poset(rng, 2, 10) for _ in range(40)] + [grid_poset((4, 5))]
    for p in posets:
        masks = [int(rng.integers(0, p.full_mask + 1)) for _ in range(20)]
        masks += [p.down_mask(b) & ~(1 << p.index(b)) for b in p.elements]
        masks += [0, p.full_mask]
        cold = [p.local_spans(mask) for mask in masks]
        warm = [p.local_spans(mask) for mask in masks]
        fresh = build_poset(p.elements, p.covers, name=p.name)
        assert fresh == p and fresh is not p
        assert warm == cold == [fresh.local_spans(mask) for mask in masks]
