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
from dataclasses import dataclass, field as dc_field

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


def _window_table(m: PersModule, s) -> tuple[tuple[int, int, int], ...]:
    """``window_ranks`` at every element, in canonical order, computed once
    per (module, S): the module keeps it, keyed by the S mask."""
    s = m.poset.subset(s)
    table = m._window_cache.get(s.mask)
    if table is None:
        table = tuple(window_ranks(m, s, c) for c in m.poset.elements)
        m._window_cache[s.mask] = table
    return table


def births(m: PersModule, s) -> ElementSet:
    """Elements where the window comparison map is not surjective."""
    return m.poset.subset_from_mask(sum(
        1 << i for i, (rk, _, dim_c) in enumerate(_window_table(m, s))
        if rk != dim_c))


def deaths(m: PersModule, s) -> ElementSet:
    """Elements where the window comparison map is not injective."""
    return m.poset.subset_from_mask(sum(
        1 << i for i, (rk, colim_dim, _) in enumerate(_window_table(m, s))
        if rk != colim_dim))


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


@dataclass(frozen=True)
class FspReport:
    fsp: ElementSet
    frames: dict
    presented: bool


def fsp_from_determined(m: PersModule, s) -> FspReport:
    """The double minimal-upper-bound closure of s as a finite support of a
    presentation, with a frame below every element above the support.

    The frame of c is the canonical-first element of mub(T_c) below c, with
    T_c = s & down(c).  Those elements are the minimal ones of X_c = {e <= c
    : T_e = T_c}, and X_c is c together with the X_d of the lower covers d
    of c with T_d = T_c.  The canonical order extends the partial order, so
    the first element of that union is minimal in it, and the frame of c is
    the canonical-first frame of those d, or c itself when there is none:
    one sweep over up(s) in canonical order finds every frame.
    """
    s = m.poset.subset(s)
    if not is_determined(m, s):
        raise NotDetermined(f"module is not determined by {sorted(s.ids())}")
    t = hat(m.poset, hat(m.poset, s))
    if not is_presented(m, t):
        raise InternalError("double-hat closure failed to present the module")
    poset = m.poset
    names, index, down = poset.elements, poset._index, poset._down
    frame = {}  # canonical index -> canonical index of its frame
    for i in _bits(up_set(poset, s).mask):
        below = down[i] & s.mask
        frame[i] = min((frame[index[d]] for d in poset.covers_below(names[i])
                        if down[index[d]] & s.mask == below), default=i)
    frames = {names[i]: names[frame[i]]
              for i in _bits(up_set(poset, m.support()).mask)}
    return FspReport(fsp=t, frames=frames, presented=True)


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
    is the rank of the stacked structure maps.

    The cover F is built as one free module (``free_sum_layout``), summands
    in canonical birth order, and its bitmasks of held summands fix the
    columns at every element.  The component h is then filled in one sweep,
    in canonical order, over the elements c where both m and F are
    non-zero.  The summands born at c take the section at c.  Each lower
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
    is not onto, which no natural input allows, InternalError names the
    first element where it is not and the S it was built for.
    """
    s = m.poset.subset(s)
    poset, p, dims = m.poset, m.field.p, m.dims
    names, index = poset.elements, poset._index
    pieces, sections = [], {}  # (birth, multiplicity); birth index -> section
    for e in minimal_generating_degrees(m, s):
        res = splitting(m, s, e)
        sections[index[e]] = linalg.solve(res.projection, linalg.identity(res.dim), p)
        pieces.append((e, res.dim))
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


@dataclass
class Presentation:
    """gens/rels multisets with the witnessing two-step exact sequence."""

    gens: Counter
    rels: Counter
    cover_map: ModuleMorphism
    kernel: PersModule
    relation_map: ModuleMorphism
    verho_equal: bool
    exact: bool
    death_set: ElementSet = dc_field(default=None)


def minimal_presentation(m: PersModule, s) -> Presentation:
    """Generator and relation degrees with multiplicities.

    The multiplicity at a degree c counts minimal generators there, i.e.
    the dimension of the splitting quotient at c of the module (for gens)
    and of the kernel of the cover (for rels).

    ``exact`` says that F1 -> F0 -> m -> 0 is exact: F0 -> m is onto, and
    F1 -> F0 has the image ker(F0 -> m), since F1 covers that kernel.
    Both covers come from ``projective_cover``, which checks that its
    cover is onto (``is_epi``) and raises InternalError otherwise, so
    every presentation returned is exact and no second check runs.
    """
    s = m.poset.subset(s)
    minimal_presentation_support(m, s)
    born, death_set = births(m, s), deaths(m, s)
    cover, h = projective_cover(m, s)
    ker, incl = kernel_module(h)
    gens = Counter({e: _split_dim(m, s, e) for e in born})
    ker_births = births(ker, s)
    rels = Counter({e: _split_dim(ker, s, e) for e in ker_births})
    rel_cover, rel_h = projective_cover(ker, s)
    relation_map = incl.compose(rel_h)
    verho_equal = ker_births.mask == death_set.mask
    return Presentation(gens=gens, rels=rels, cover_map=h, kernel=ker,
                        relation_map=relation_map, verho_equal=verho_equal,
                        exact=True, death_set=death_set)


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
    """The JSON-ready analysis record with stable key order."""
    poset = m.poset
    s = poset.whole() if s is None else poset.subset(s)
    b = births(m, s)
    d = deaths(m, s)
    generated = b.mask & ~s.mask == 0
    presented = generated and d.mask & ~s.mask == 0
    determined = is_determined(m, s)
    interest = b.union(d).union(s)
    split_dims = {e: _split_dim(m, s, e) for e in interest}
    fsp = None
    if determined and len(s) <= 20:
        try:
            fsp = fsp_from_determined(m, s).fsp.ids()
        except TooLargeError:
            # hat(hat(S)) can pass the 20-element guard that S itself meets
            fsp = None
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
