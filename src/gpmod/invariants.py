"""Births, deaths, splitting functors, minimality and presentation invariants.

For a module M and a subset S, the comparison map at c goes from the
colimit of M over {d in S : d < c} into M(c).  Births are the elements
where it fails to be surjective, deaths where it fails to be injective.
Everything downstream (generation and presentation tests, minimal
generating degrees, projective covers, generator/relation multisets) is
computed from exact rank data of these maps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    InternalError,
    NotAGrid,
    NotDetermined,
    NotGenerated,
    NotPresented,
    TooLargeError,
    ValidationError,
)
from .kan import lambda_with_window, window_ranks
from .modules import (
    ModuleMorphism,
    PersModule,
    free_sum_layout,
    is_epi,
    kernel_module,
    summand_columns,
)
from .posets import (
    ElementSet,
    _bits,
    as_grid_shape,
    hat,
    up_set,
)


class _WindowTable(tuple):
    """The ``window_ranks`` triples of one (module, S), in canonical order,
    with the masks of the elements where the rank falls short of dims(c)
    (``born``) and of the colimit dimension (``dead``)."""


def _window_table(m: PersModule, s) -> _WindowTable:
    """``window_ranks`` at every element, in canonical order, computed once
    per (module, S) with the birth and death masks in the same pass: the
    module keeps it, keyed by the S mask."""
    s = m.poset.subset(s)
    table = m._window_cache.get(s.mask)
    if table is None:
        rows, born, dead = [], 0, 0
        for i, c in enumerate(m.poset.elements):
            row = rk, colim_dim, dim_c = window_ranks(m, s, c)
            rows.append(row)
            if rk != dim_c:
                born |= 1 << i
            if rk != colim_dim:
                dead |= 1 << i
        table = _WindowTable(rows)
        table.born, table.dead = born, dead
        m._window_cache[s.mask] = table
    return table


def births(m: PersModule, s) -> ElementSet:
    """Elements where the window comparison map is not surjective."""
    return m.poset.subset_from_mask(_window_table(m, s).born)


def deaths(m: PersModule, s) -> ElementSet:
    """Elements where the window comparison map is not injective."""
    return m.poset.subset_from_mask(_window_table(m, s).dead)


@dataclass(frozen=True)
class SplittingResult:
    dim: int
    projection: np.ndarray
    free: tuple[int, ...]


def _split_dim(m: PersModule, s, c: str) -> int:
    """The splitting dimension at c, dims(c) - rank(lambda), from ranks
    alone; ``splitting`` solves for a projection as well."""
    rk, _, dim_c = _window_table(m, s)[m.poset.index(c)]
    return dim_c - rk


def _death_dim(m: PersModule, s, c: str) -> int:
    """The dimension of ker(lambda) at c, colim_dim - rank(lambda), from
    ranks alone."""
    rk, colim_dim, _ = _window_table(m, s)[m.poset.index(c)]
    return colim_dim - rk


def splitting(m: PersModule, s, c: str) -> SplittingResult:
    """The splitting quotient at c: M(c) modulo the window image."""
    lam, _ = lambda_with_window(m, s, c)
    return SplittingResult(*linalg.cokernel(lam, m.field.p))


def splitting_map(f: ModuleMorphism, s, c: str) -> np.ndarray:
    """The map induced by f between the splitting quotients at c."""
    p = f.source.field.p
    rhs = linalg.matmul(splitting(f.target, s, c).projection, f.components[c], p)
    src = splitting(f.source, s, c)
    return linalg.factor(src.projection, src.free, rhs, p, f"splitting map at {c!r}")


def is_generated(m: PersModule, s) -> bool:
    """S-generation test by the window rank criterion; the counit route is
    ``is_epi(canonical_mu(m, s))``."""
    s = m.poset.subset(s)
    return births(m, s).mask & ~s.mask == 0


def is_presented(m: PersModule, s) -> bool:
    """S-presentation test by the window rank criterion; the counit route
    is ``is_iso(canonical_mu(m, s))``."""
    s = m.poset.subset(s)
    return (births(m, s).mask | deaths(m, s).mask) & ~s.mask == 0


def is_determined(m: PersModule, s) -> bool:
    """Support inside the upset of s, and m(c <= d) an isomorphism whenever
    c <= d have equal s-downsets (s & down(c) == s & down(d)).

    Only covers a < b are tested.  That suffices: if c <= e <= d and c, d
    have equal s-downsets, then s & down(c) <= s & down(e) <= s & down(d)
    = s & down(c), so e has the same s-downset too.  Every cover in a
    maximal chain of covers from c to d therefore has equal s-downsets,
    and m(c <= d), the composite of their maps, is an isomorphism when
    each of them is.  Conversely a cover is a comparable pair.  A cover
    between two zero spaces is an isomorphism, so only covers with an end
    in the support are tested.
    """
    s = m.poset.subset(s)
    poset, support = m.poset, m.support_mask
    if support & ~up_set(poset, s).mask:
        return False
    index, down = poset._index, poset._down
    return all(linalg.is_isomorphism(m.cover_maps[(a, b)], m.field.p)
               for a, b in poset.covers
               if (support >> index[a] | support >> index[b]) & 1
               and down[index[a]] & s.mask == down[index[b]] & s.mask)


def minimal_generating_degrees(m: PersModule, s) -> ElementSet:
    """The birth set, which is the least T inside s generating m."""
    s = m.poset.subset(s)
    if not is_generated(m, s):
        raise NotGenerated(f"module is not generated by {sorted(s.ids())}")
    return births(m, s)


def minimal_presentation_support(m: PersModule, s) -> ElementSet:
    """Births and deaths together: the least T inside s presenting m."""
    s = m.poset.subset(s)
    support = births(m, s).union(deaths(m, s))
    bad = support.difference(s)
    if bad.mask:
        raise NotPresented(f"births/deaths outside S at {sorted(bad.ids())}")
    return support


def _frames(m: PersModule, s: ElementSet) -> dict:
    """The frame of every element above the support of m: the canonical-
    first element of mub(T_c) below c, with T_c = s & down(c).

    Those elements are the minimal ones of X_c = {e <= c : T_e = T_c}, and
    X_c is c together with the X_d of the lower covers d of c with T_d =
    T_c.  The canonical order extends the partial order, so the first
    element of that union is minimal in it, and the frame of c is the
    canonical-first frame of those d, or c itself when there is none: one
    sweep over up(s) in canonical order finds every frame.
    """
    poset = m.poset
    names, index, down = poset.elements, poset._index, poset._down
    frame = {}  # canonical index -> canonical index of its frame
    for i in _bits(up_set(poset, s).mask):
        below = down[i] & s.mask
        frame[i] = min((frame[index[d]] for d in poset.covers_below(names[i])
                        if down[index[d]] & s.mask == below), default=i)
    return {names[i]: names[frame[i]]
            for i in _bits(up_set(poset, m.support()).mask)}


@dataclass(frozen=True)
class FspReport:
    """The support ``fsp`` = hat(hat(s)) of a presentation of ``module``,
    certified by ``fsp_from_determined``.  ``frames`` (``_frames``) is built
    from the module and s the first time it is read, once."""

    fsp: ElementSet
    presented: bool
    module: PersModule
    s: ElementSet

    @cached_property
    def frames(self) -> dict:
        return _frames(self.module, self.s)


def fsp_from_determined(m: PersModule, s) -> FspReport:
    """The double minimal-upper-bound closure of s as a finite support of a
    presentation, with a frame below every element above the support
    (``FspReport.frames``, built when first read).

    t = hat(hat(s)) contains s, and a module presented by s is presented by
    every T containing s: left Kan extensions compose along s <= T <= P,
    and the one along s <= T is the restriction to T of the one along
    s <= P, so the counit for T is the one for s.  So t is certified from
    s's window table when s presents m, and from t's own table only
    otherwise, the case where the theorem says more than this lemma.
    """
    s = m.poset.subset(s)
    if not is_determined(m, s):
        raise NotDetermined(f"module is not determined by {sorted(s.ids())}")
    poset = m.poset
    t = hat(poset, hat(poset, s))
    if not (is_presented(m, s) or is_presented(m, t)):
        outside = (births(m, t).mask | deaths(m, t).mask) & ~t.mask
        first = next((poset.elements[i] for i in _bits(outside)), None)
        raise InternalError(
            f"double-hat closure failed to present the module: S = {s.ids()}, "
            f"t = {t.ids()}, first birth or death outside t: {first!r}")
    return FspReport(fsp=t, presented=True, module=m, s=s)


@dataclass(frozen=True)
class WitnessReport:
    pointwise_ok: bool
    support: ElementSet


def finitely_presented_witness(m: PersModule) -> WitnessReport:
    """Minimal presentation support over the whole poset.  The poset's
    boundedness and mub-completeness hypotheses need no witness
    (``posets.PROPERTY_M`` holds for every finite poset), and field
    coefficients make every pointwise space finitely presented."""
    return WitnessReport(pointwise_ok=True,
                         support=minimal_presentation_support(m, m.poset.whole()))


def projective_cover(m: PersModule, s) -> tuple[PersModule, ModuleMorphism]:
    """The minimal epimorphism onto m from a sum of free modules placed at
    the birth elements, one summand per splitting dimension.  Births are
    exactly where the splitting dimension is non-zero, since rank(lambda)
    is the rank of the stacked structure maps.  ``_cover_from`` builds it
    and checks that it is onto.
    """
    s = m.poset.subset(s)
    return _cover_from(m, s, {e: splitting(m, s, e)
                              for e in minimal_generating_degrees(m, s)})


def _cover_from(m: PersModule, s: ElementSet,
                splits: dict) -> tuple[PersModule, ModuleMorphism]:
    """The map onto m from a sum of free modules, one summand at e for each
    dimension of ``splits[e]``, a splitting of m at e; ``splits`` is in
    canonical order and every dimension in it is non-zero.

    The cover F is built as one free module (``free_sum_layout``), summands
    in canonical degree order, and its bitmasks of held summands fix the
    columns at every element; nothing here reads F's maps, so they are not
    built.  The component h is then filled in one sweep, in canonical
    order, over the elements c where both m and F are non-zero.  The summands born at c take the section at c.  Each lower
    cover a with dims_F(a) > 0 gives one product m(a <= c) h_a: its columns
    fill the summands of a not yet filled at c and are compared with the
    ones already there.  Each fill and each comparison is the equation
    m(a <= c) h_a == h_c F(a <= c), so together they check naturality on
    every cover whose two sides have cells, and the morphism is built
    without a second check.  For a natural h, the unique map with the
    given sections, the products are exact mod p, so each column is the
    structure map from its birth times the section.  A failing comparison
    raises ValidationError at the first failing cover in canonical cover
    order.  Sections of the splitting projections are the deterministic
    pivot-variable lifts, so the cover is byte-reproducible.  If the cover
    is not onto, because m has a birth that ``splits`` leaves out (no
    natural input gives ``projective_cover`` one), InternalError names the
    first element where it is not and the S it was built for.
    """
    poset, p, dims = m.poset, m.field.p, m.dims
    names, index = poset.elements, poset._index
    sections = {index[e]: linalg.solve(res.projection, linalg.identity(res.dim), p)
                for e, res in splits.items()}
    pieces = [(e, res.dim) for e, res in splits.items()]  # (degree, multiplicity)
    cover, held = free_sum_layout(poset, pieces, m.field, name=f"cover({m.name})")
    comps, failed = {}, []
    for i in _bits(m.support_mask & cover.support_mask):
        c, at = names[i], held[i]
        out = comps[c] = linalg.zeros(dims[c], cover.dims[c])
        filled = 0
        for a in poset.covers_below(c):
            below = held[index[a]]
            if not below:
                continue
            if dims[a]:
                moved = linalg.matmul(m.cover_maps[(a, c)], comps[a], p)
            else:
                moved = linalg.zeros(dims[c], cover.dims[a])
            new, old = below & ~filled, below & filled
            if new:
                out[:, summand_columns(at, new)] = moved[:, summand_columns(below, new)]
            if old and not np.array_equal(out[:, summand_columns(at, old)],
                                          moved[:, summand_columns(below, old)]):
                failed.append((a, c))
            filled |= below
        if at & ~filled:  # the summands born at c
            out[:, summand_columns(at, at & ~filled)] = sections[i]
    if failed:
        raise ValidationError(
            f"naturality fails on cover {min(failed, key=poset.covers.index)!r}")
    h = ModuleMorphism(cover, m, comps, validate=False)
    if not is_epi(h):
        c = next(c for c in m.support() if linalg.rank(h.components[c], p) != m.dims[c])
        raise InternalError(f"projective cover is not onto at {c!r}, built for S = {s.ids()}")
    return cover, h


def _check_exact(h: ModuleMorphism, rel: dict, s: ElementSet) -> None:
    """Certify that F1 -rel-> F0 -h-> m -> 0 is exact at F0, given that h is
    onto: at every c in the support of F0, h_c rel_c == 0 (the image of rel
    lies in ker h) and rank(rel_c) == dims_F0(c) - dims_m(c) (it is all of
    ker h).  ``rel`` maps each element to rel's component there.  The
    first failure raises InternalError naming the element and the S the
    presentation was built for."""
    cover, m, p = h.source, h.target, h.target.field.p
    for c in cover.support():
        r = rel[c]
        through = r.size and m.dims[c] and linalg.matmul(h.components[c], r, p).any()
        if through or linalg.rank(r, p) != cover.dims[c] - m.dims[c]:
            raise InternalError(
                f"presentation is not exact at {c!r}, built for S = {s.ids()}")


@dataclass(frozen=True)
class _RelationHalf:
    kernel: PersModule
    relation_map: ModuleMorphism
    verho_equal: bool
    exact: bool


@dataclass(frozen=True)
class Presentation:
    """gens/rels multisets with the witnessing two-step exact sequence.

    Eager, from ``minimal_presentation``: ``gens``, ``rels``, the cover
    map h: F0 -> m (certified onto by ``projective_cover``) and the death
    set.  Both multisets are read from the module's window table.

    Built on first read, once: the relation half.  Reading ``kernel``,
    ``relation_map``, ``verho_equal`` or ``exact`` builds the kernel K of
    h, splits it at the deaths, covers it by F1 -> K (``_cover_from``,
    whose onto check proves K is born nowhere else and raises
    InternalError otherwise), composes F1 -> F0, and checks the result.
    ``verho_equal`` certifies that K's splitting dimension at every death
    equals ``rels`` there.  ``exact`` is certified by ``_check_exact`` on
    the returned maps, which raises InternalError on a failure, so a
    presentation that reads ``exact`` is exact.
    """

    gens: Counter
    rels: Counter
    cover_map: ModuleMorphism
    s: ElementSet
    death_set: ElementSet

    @cached_property
    def _relation_half(self) -> _RelationHalf:
        h, s = self.cover_map, self.s
        ker, incl = kernel_module(h)
        ker_splits = {e: splitting(ker, s, e) for e in self.death_set}
        verho_equal = all(res.dim == self.rels[e] for e, res in ker_splits.items())
        _, rel_h = _cover_from(ker, s, {e: res for e, res in ker_splits.items() if res.dim})
        relation_map = incl.compose(rel_h)
        _check_exact(h, relation_map.components, s)
        return _RelationHalf(ker, relation_map, verho_equal, exact=True)

    @property
    def kernel(self) -> PersModule:
        return self._relation_half.kernel

    @property
    def relation_map(self) -> ModuleMorphism:
        return self._relation_half.relation_map

    @property
    def verho_equal(self) -> bool:
        return self._relation_half.verho_equal

    @property
    def exact(self) -> bool:
        return self._relation_half.exact


def minimal_presentation(m: PersModule, s) -> Presentation:
    """Generator and relation degrees with multiplicities.

    The multiplicity at a degree c counts minimal generators there, i.e.
    the dimension of the splitting quotient at c of the module (for gens)
    and of the kernel K of the cover F0 -> m (for rels).

    Both are read from m's window table.  Generators sit at the births of
    m, with multiplicity dims - rank, and ``projective_cover`` builds F0 ->
    m and certifies it onto.  For the relations, the window colimit is
    right exact and lambda of the free F0 is injective, so the snake lemma
    gives coker lambda_K(c) = ker lambda_m(c): K is born exactly at the
    deaths of m, with multiplicity colim_dim - rank there.  So no kernel
    is built here.  The relation half of the returned ``Presentation``
    (K, F1 -> F0, ``verho_equal`` and ``exact``) is built and certified
    the first time one of them is read; the route through K's own window
    table stays in the ``verho`` suite as an independent check.
    """
    s = m.poset.subset(s)
    minimal_presentation_support(m, s)
    born, death_set = births(m, s), deaths(m, s)
    _, h = projective_cover(m, s)
    gens = Counter({e: _split_dim(m, s, e) for e in born})
    rels = Counter({e: _death_dim(m, s, e) for e in death_set})
    return Presentation(gens=gens, rels=rels, cover_map=h, s=s, death_set=death_set)


def degree_counts(poset, counts: Counter) -> dict[str, int]:
    """A multiset of degrees (xi0 or xi1) as a JSON-ready dict of ints, in
    the poset's canonical order."""
    return {e: int(k) for e, k in sorted(counts.items(), key=lambda t: poset.index(t[0]))}


@dataclass(frozen=True)
class SplitSumReport:
    quotient_dim: int
    splitting_sum: int
    equal: bool


def verify_split_esim(m: PersModule, s) -> SplitSumReport:
    """Two routes to the total splitting dimension over a grid.

    The left side builds the submodule generated by the spaces at s and
    quotients by one application of the grid shifts; the right side sums
    splitting dimensions from the window ranks.  Both are computed
    independently.
    """
    if as_grid_shape(m.poset) is None:
        raise NotAGrid(f"poset {m.poset.name!r} is not a grid")
    s = m.poset.subset(s)
    p = m.field.p
    poset = m.poset
    sub_basis = {}
    for b in poset.elements:
        gens = [m.eval_map(e, b) for e in s if poset.leq(e, b)]
        stacked = linalg.hstack(gens, m.dims[b])
        sub_basis[b] = linalg.image_basis(stacked, p).basis
    lhs = 0
    for c in poset.elements:
        shifted = [linalg.matmul(m.cover_maps[(b, c)], sub_basis[b], p)
                   for b in poset.covers_below(c)]
        stacked = linalg.hstack(shifted, m.dims[c])
        lhs += m.dims[c] - linalg.rank(stacked, p)
    rhs = sum(_split_dim(m, s, c) for c in poset.elements)
    return SplitSumReport(quotient_dim=lhs, splitting_sum=rhs, equal=lhs == rhs)


def birth_death_report(m: PersModule, s=None, *, module_id=None) -> dict:
    """The JSON-ready analysis record with stable key order.

    ``xi0`` and ``xi1`` are the ``gens`` and ``rels`` of
    ``minimal_presentation``, read from the module's window table; ``xi0``
    is certified by the generator cover's onto check, which reads the
    cover's dims and components and not its maps.  The report reads no
    other part of the presentation and no frames of ``fsp_from_determined``,
    so it builds no kernel, no relation cover, no generator-cover maps and
    no frames.  For |S| <= 20, ``determined`` is the test that
    ``fsp_from_determined`` makes first (``NotDetermined`` reads false), so
    determinedness is tested once; for a larger S, where the report skips
    the double hat, ``is_determined`` gives it.
    """
    poset = m.poset
    s = poset.whole() if s is None else poset.subset(s)
    b = births(m, s)
    d = deaths(m, s)
    generated = b.mask & ~s.mask == 0
    presented = generated and d.mask & ~s.mask == 0
    interest = b.union(d).union(s)
    split_dims = {e: _split_dim(m, s, e) for e in interest}
    fsp = None
    if len(s) > 20:
        determined = is_determined(m, s)
    else:
        # fsp_from_determined tests determinedness first
        determined = True
        try:
            fsp = fsp_from_determined(m, s).fsp.ids()
        except NotDetermined:
            determined = False
        except TooLargeError:
            # hat(hat(S)) can pass the 20-element guard that S itself meets
            pass
    xi0 = xi1 = None
    if presented:
        pres = minimal_presentation(m, s)
        xi0, xi1 = degree_counts(poset, pres.gens), degree_counts(poset, pres.rels)
    return {
        "module_id": module_id or m.name,
        "S": s.ids(),
        "births": b.ids(),
        "deaths": d.ids(),
        "split_dims": {e: int(v) for e, v in split_dims.items()},
        "generated": generated,
        "presented": presented,
        "determined": determined,
        "fsp": fsp,
        "xi0": xi0,
        "xi1": xi1,
    }
