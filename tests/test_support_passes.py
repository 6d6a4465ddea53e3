"""The support-aware passes against the former routes.

Ranks, kernels, window tables, epi/mono/iso tests, composition,
determination, projective covers and the functoriality check skip every
step whose matrices have no cells.  The loops they replaced, which visit
every element, cover and span and take every rank through ``rref``, are
kept here verbatim as oracles and compared on random modules with many
zero spaces.
"""

import numpy as np
import pytest

from gpmod import linalg
from gpmod.errors import FunctorialityError, InternalError
from gpmod.invariants import (
    _window_table,
    birth_death_report,
    births,
    is_determined,
    minimal_presentation,
    projective_cover,
    splitting,
)
from gpmod.kan import _cocone, _local_presentation, window_mask
from gpmod.linalg import FieldSpec
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
    random_module,
    random_morphism,
)
from gpmod.posets import grid_poset, up_set
from gpmod.verify import random_poset


# -- the former routes ------------------------------------------------------


def _rank_by_rref(a, p):
    return linalg.rref(a, p)[2]


def _kernel_basis_with_free_by_rref(a, p):
    """``linalg.kernel_basis_with_free`` as it was: every matrix through
    ``rref``."""
    reduced, pivots, _ = linalg.rref(a, p)
    cols = a.shape[1]
    pivot_set = set(pivots)
    free = tuple(j for j in range(cols) if j not in pivot_set)
    basis = linalg.zeros(cols, len(free))
    for k, j in enumerate(free):
        basis[j, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(reduced[i, j])) % p
    return linalg.SubspaceBasis(cols, basis), free


def _cokernel_by_rref(a, p):
    left_null, free = _kernel_basis_with_free_by_rref(a.T % p, p)
    projection = left_null.basis.T.copy()
    return projection.shape[0], projection, free


def _kernel_module_every_element(f):
    """``kernel_module`` as it was: a kernel basis at every element."""
    p = f.source.field.p
    src = f.source
    covers = src.poset.covers
    bases, free = {}, {}
    for e in src.poset.elements:
        kernel, free[e] = _kernel_basis_with_free_by_rref(f.components[e], p)
        bases[e] = kernel.basis
    dims = {e: bases[e].shape[1] for e in src.poset.elements}
    groups = {}
    for k, (a, b) in enumerate(covers):
        key = (src.dims[b], src.dims[a], dims[a], dims[b])
        if key[0] and key[2]:
            groups.setdefault(key, []).append(k)
    maps, failed = {}, []
    for ks in groups.values():
        pairs = [covers[k] for k in ks]
        moved = linalg._chunked_product(np.stack([src.cover_maps[c] for c in pairs]),
                                        np.stack([bases[a] for a, _ in pairs]), p)
        rows = np.array([free[b] for _, b in pairs], dtype=np.intp)
        x = moved[np.arange(len(pairs))[:, None], rows]
        back = linalg._chunked_product(np.stack([bases[b] for _, b in pairs]), x, p)
        bad = (back != moved).any(axis=(1, 2))
        if bad.any():
            failed.append(ks[int(bad.argmax())])
        maps.update(zip(pairs, x))
    if failed:
        raise InternalError(f"kernel map at cover {covers[min(failed)]!r}")
    ker = PersModule(src.poset, src.field, dims, maps,
                     name=f"ker({f.source.name})", validate=False)
    incl = ModuleMorphism(ker, src, bases, validate=False)
    return ker, incl


def _window_ranks_every_window(m, s, c):
    """``kan.window_ranks`` as it was, unshared: every non-empty window is
    presented, and every rank goes through ``rref``."""
    s = m.poset.subset(s)
    mask = window_mask(s, c)
    if not mask:
        return 0, 0, m.dims[c]
    p = m.field.p
    tops, _, relations = _local_presentation(m, mask)
    colim_dim = relations.shape[0] - _rank_by_rref(relations, p)
    return _rank_by_rref(_cocone(m, tops, c), p), colim_dim, m.dims[c]


def _is_epi_every_element(f):
    p = f.source.field.p
    return all(_rank_by_rref(f.components[e], p) == f.target.dims[e]
               for e in f.source.poset.elements)


def _is_mono_every_element(f):
    p = f.source.field.p
    return all(_rank_by_rref(f.components[e], p) == f.source.dims[e]
               for e in f.source.poset.elements)


def _is_iso_every_element(f):
    p = f.source.field.p
    return all(a.shape[0] == a.shape[1] == _rank_by_rref(a, p)
               for a in (f.components[e] for e in f.source.poset.elements))


def _compose_every_element(outer, inner):
    p = outer.source.field.p
    return {e: linalg.matmul(outer.components[e], inner.components[e], p)
            for e in outer.source.poset.elements}


def _check_functoriality_every_span(m):
    """``PersModule._check_functoriality`` as it was: every b, every span."""
    poset, p = m.poset, m.field.p
    for b in poset.elements:
        _, spans = poset.local_spans(poset.down_mask(b) & ~(1 << poset.index(b)))
        for d, t0, t in spans:
            if not np.array_equal(
                    linalg.matmul(m.cover_maps[(t0, b)], m.eval_map(d, t0), p),
                    linalg.matmul(m.cover_maps[(t, b)], m.eval_map(d, t), p)):
                raise FunctorialityError(d, b)


def _is_determined_every_cover(m, s):
    s = m.poset.subset(s)
    poset = m.poset
    support = poset.subset([e for e in poset.elements if m.dims[e] > 0])
    if support.mask & ~up_set(poset, s).mask:
        return False
    return all(_rank_by_rref(m.cover_maps[(a, b)], m.field.p)
               == m.cover_maps[(a, b)].shape[0] == m.cover_maps[(a, b)].shape[1]
               for a, b in poset.covers
               if poset.down_mask(a) & s.mask == poset.down_mask(b) & s.mask)


def _cover_components_every_element(m, s):
    """``projective_cover``'s components as they were: an array at every
    element, filled where dims(c) > 0."""
    s = m.poset.subset(s)
    poset, p = m.poset, m.field.p
    pieces = []
    for e in births(m, s):
        res = splitting(m, s, e)
        section = linalg.solve(res.projection, linalg.identity(res.dim), p)
        pieces.append((e, res.dim, section))
    cover = free_sum(poset, [(e, mult) for e, mult, _ in pieces], m.field)
    ups = [poset._up[poset.index(e)] for e, _, _ in pieces]
    comps = {}
    for i, c in enumerate(poset.elements):
        out = comps[c] = linalg.zeros(m.dims[c], cover.dims[c])
        if not m.dims[c]:
            continue
        j = 0
        for (e, mult, section), up in zip(pieces, ups):
            if up >> i & 1:
                out[:, j:j + mult] = linalg.matmul(m.eval_map(e, c), section, p)
                j += mult
    return comps


# -- cases --------------------------------------------------------------------


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _sparse_cases(p):
    """(module, S): interval and free sums, and a few solved modules, on
    random posets and grids, with a random S and the whole poset."""
    field = FieldSpec(p)
    rng = np.random.default_rng(p % 997 + 23)
    posets = [random_poset(rng, 3, 9) for _ in range(24)]
    posets += [grid_poset(shape) for shape in ((3, 3), (4, 4), (2, 6), (5, 5), (6, 6))]
    for k, poset in enumerate(posets):
        generator, max_dim = ("solve", 3) if k % 4 == 3 else ("intervals", 2)
        m = random_module(poset, max_dim, field, seed=int(rng.integers(2**32)),
                          generator=generator)
        yield m, poset.whole()
        yield m, poset.subset_from_mask(int(rng.integers(0, poset.full_mask + 1)))


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_ranks_kernels_and_cokernels_match_rref_on_empty_matrices(p):
    """Every shape with no cells, and random matrices with cells."""
    rng = np.random.default_rng(p % 983 + 5)
    shapes = [(0, 0), (0, 3), (4, 0)] + [tuple(rng.integers(1, 6, size=2)) for _ in range(30)]
    for shape in shapes:
        a = rng.integers(0, p, size=shape).astype(np.int64)
        if shape[0] > 1:
            a[-1] = a[0]  # a rank deficiency
        assert linalg.rank(a, p) == _rank_by_rref(a, p)
        got, want = linalg.kernel_basis_with_free(a, p), _kernel_basis_with_free_by_rref(a, p)
        _same_array(got[0].basis, want[0].basis)
        assert got[1] == want[1]
        got, want = linalg.cokernel(a, p), _cokernel_by_rref(a, p)
        assert got[0] == want[0] and got[2] == want[2]
        _same_array(got[1], want[1])


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_support_passes_match_the_every_element_routes(p):
    """Window tables of a module and of its cover's kernel, the kernel
    itself, the cover's components, determination, and the epi, mono and
    iso answers for the cover, the kernel inclusion, their composite, the
    identity, the zero map and random morphisms."""
    zero_spaces = spaces = 0
    verdicts = set()
    for m, s in _sparse_cases(p):
        poset = m.poset
        zero_spaces += sum(not d for d in m.dims.values())
        spaces += len(poset)
        assert _window_table(m, s) == tuple(
            _window_ranks_every_window(m, s, c) for c in poset.elements)
        assert is_determined(m, s) == _is_determined_every_cover(m, s)
        cover, h = projective_cover(m, poset.whole())
        want = _cover_components_every_element(m, poset.whole())
        for e in poset.elements:
            _same_array(h.components[e], want[e])
        (ker, incl), (old_ker, old_incl) = kernel_module(h), _kernel_module_every_element(h)
        assert ker.dims == old_ker.dims
        for c in poset.covers:
            _same_array(ker.cover_maps[c], old_ker.cover_maps[c])
        for e in poset.elements:
            _same_array(incl.components[e], old_incl.components[e])
        assert _window_table(ker, s) == tuple(
            _window_ranks_every_window(ker, s, c) for c in poset.elements)
        rel_cover, rel_h = projective_cover(ker, poset.whole())
        morphisms = [h, incl, incl.compose(rel_h), ModuleMorphism.identity(m),
                     ModuleMorphism.zero(m, m), ModuleMorphism.zero(ker, cover)]
        if len(poset) <= 9:
            other = random_module(poset, 2, m.field, seed=len(poset) + p % 7)
            rng = np.random.default_rng(len(poset))
            morphisms += [random_morphism(m, other, rng), random_morphism(other, m, rng)]
        for f in morphisms:
            got = (is_epi(f), is_mono(f), is_iso(f))
            assert got == (_is_epi_every_element(f), _is_mono_every_element(f),
                           _is_iso_every_element(f))
            verdicts.update(enumerate(got))
        composite = incl.compose(rel_h)
        for e, want in _compose_every_element(incl, rel_h).items():
            _same_array(composite.components[e], want)
    assert zero_spaces * 5 >= spaces * 2, (zero_spaces, spaces)
    assert verdicts == {(k, v) for k in range(3) for v in (False, True)}


def _grid_fp_module(n, gens, rels, p, seed, rel_from=0):
    """The cokernel of a random map from ``rels`` free summands to ``gens``
    on the n x n grid, with a coefficient only where generator <= relation
    (the benchmark's grid-fp recipe).  Generators are drawn anywhere,
    relations where both coordinates are at least ``rel_from``."""
    rng = np.random.default_rng(seed)
    field = FieldSpec(p)
    grid = grid_poset((n, n))
    gen_at = [grid.elements[int(k)] for k in rng.integers(len(grid), size=gens)]
    rel_at = [f"({x},{y})" for x, y in rng.integers(rel_from, n, size=(rels, 2))]
    coeff = np.zeros((gens, rels), dtype=np.int64)
    for i, g in enumerate(gen_at):
        for j, r in enumerate(rel_at):
            if grid.leq(g, r):
                coeff[i, j] = int(rng.integers(1, p))
    comps = {}
    for c in grid.elements:
        rows = [i for i, g in enumerate(gen_at) if grid.leq(g, c)]
        cols = [j for j, r in enumerate(rel_at) if grid.leq(r, c)]
        comps[c] = coeff[np.ix_(rows, cols)]
    source = free_sum(grid, [(r, 1) for r in rel_at], field)
    target = free_sum(grid, [(g, 1) for g in gen_at], field)
    return cokernel_module(ModuleMorphism(source, target, comps))[0]


@pytest.mark.parametrize("p", [101, 2**31 - 1])
@pytest.mark.parametrize("shape", [(8, 6, 6, 0), (10, 40, 40, 5)],
                         ids=["8x8-6-6", "10x10-40-40"])
def test_cover_sweep_matches_the_per_birth_products_at_density(p, shape):
    """Finitely presented modules with many summands held at each element:
    the sweep's components, filled from lower covers, have the bytes of
    one structure map times one section per birth and element, and the
    naturality check the sweep replaced accepts them."""
    n, gens, rels, rel_from = shape
    m = _grid_fp_module(n, gens, rels, p, seed=n * gens + p % 89, rel_from=rel_from)
    cover, h = projective_cover(m, m.poset.whole())
    want = _cover_components_every_element(m, m.poset.whole())
    for e in m.poset.elements:
        _same_array(h.components[e], want[e])
    ModuleMorphism(cover, m, h.components, validate=True)
    assert max(cover.dims.values()) >= 3 and max(m.dims.values()) >= 2


@pytest.mark.parametrize("p", [101, 2**31 - 1])
def test_functoriality_check_names_the_first_failing_span_as_before(p):
    """Each module with one entry of one cover map changed: the support
    pass raises the FunctorialityError (d, b) of the walk over every span,
    or neither raises."""
    rng = np.random.default_rng(p % 977 + 29)
    raised = passed = 0
    for m, _ in _sparse_cases(p):
        filled = [c for c in m.poset.covers if m.cover_maps[c].size]
        for c in [filled[int(k)] for k in rng.permutation(len(filled))[:6]]:
            maps = dict(m.cover_maps)
            entry = maps[c].copy()
            i, j = (int(rng.integers(n)) for n in entry.shape)
            entry[i, j] = (entry[i, j] + int(rng.integers(1, p))) % p
            maps[c] = entry
            verdicts = []
            for check in (PersModule._check_functoriality, _check_functoriality_every_span):
                fresh = PersModule(m.poset, m.field, m.dims, maps, validate=False)
                try:
                    check(fresh)
                    verdicts.append(None)
                except FunctorialityError as err:
                    verdicts.append((err.source, err.target))
            assert verdicts[0] == verdicts[1], c
            raised += verdicts[0] is not None
            passed += verdicts[0] is None
    assert raised >= 15 and passed >= 15, (raised, passed)


# -- the skipped work stays skipped ---------------------------------------------


def _sparse_grid_module(field):
    """A box interval and a free summand near the top corner on the 12x12
    grid: 107 of its 144 spaces are 0."""
    grid = grid_poset((12, 12))
    box = [f"({x},{y})" for x in range(2, 7) for y in range(3, 8)]
    return direct_sum(interval_module(grid, box, field),
                      free_module(grid, "(9,8)", 1, field))


def test_report_and_presentation_reduce_no_matrix_without_cells(monkeypatch):
    """``birth_death_report`` and ``minimal_presentation`` on a sparse
    12x12 module call ``rref`` on no matrix without cells, and
    ``kernel_basis_with_free`` only on matrices whose both ends are
    non-zero."""
    field = FieldSpec(101)
    rref, kernel_basis_with_free = linalg.rref, linalg.kernel_basis_with_free
    rref_shapes, kernel_shapes = [], []

    def counting_rref(a, p):
        rref_shapes.append(a.shape)
        return rref(a, p)

    def counting_kernel_basis(a, p):
        kernel_shapes.append(a.shape)
        return kernel_basis_with_free(a, p)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(linalg, "kernel_basis_with_free", counting_kernel_basis)
    m = _sparse_grid_module(field)
    assert sum(not d for d in m.dims.values()) == 107
    report = birth_death_report(m, m.poset.whole())
    assert report["presented"] and report["xi0"] == {"(2,3)": 1, "(9,8)": 1}
    pres = minimal_presentation(_sparse_grid_module(field), m.poset.whole())
    assert pres.exact and sum(pres.rels.values()) == 2
    assert rref_shapes and all(r and c for r, c in rref_shapes)
    assert kernel_shapes and all(r and c for r, c in kernel_shapes)


def test_projective_cover_names_where_it_is_not_onto(monkeypatch):
    """The section at the second birth zeroed: the cover fails at that
    birth first, and the error names it and the S of the cover."""
    field = FieldSpec(101)
    m = _sparse_grid_module(field)
    s = m.poset.subset(["(2,3)", "(9,8)"])
    solve, sections = linalg.solve, []

    def second_section_zero(a, b, p):
        sections.append(solve(a, b, p))
        return sections[-1] * 0 if len(sections) == 2 else sections[-1]

    monkeypatch.setattr(linalg, "solve", second_section_zero)
    with pytest.raises(InternalError) as err:
        projective_cover(m, s)
    assert str(err.value) == ("projective cover is not onto at '(9,8)', "
                              "built for S = ['(2,3)', '(9,8)']")
