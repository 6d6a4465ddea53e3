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
)
from .kan import canonical_mu, lambda_with_window, window_ranks
from .modules import (
    ModuleMorphism,
    PersModule,
    direct_sum,
    free_module,
    is_epi,
    is_iso,
    kernel_module,
    zero_module,
)
from .posets import (
    ElementSet,
    as_grid_shape,
    check_property_m,
    hat,
    mub,
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


def _split_dim(m: PersModule, s, c: str) -> int:
    """The splitting dimension at c, dims(c) - rank(lambda), from ranks
    alone; ``splitting`` solves for a projection as well."""
    rk, _, dim_c = _window_table(m, s)[m.poset.index(c)]
    return dim_c - rk


def splitting(m: PersModule, s, c: str) -> SplittingResult:
    """The splitting quotient at c: M(c) modulo the window image."""
    lam, _ = lambda_with_window(m, s, c)
    dim, proj = linalg.cokernel(lam, m.field.p)
    return SplittingResult(dim, proj)


def splitting_map(f: ModuleMorphism, s, c: str) -> np.ndarray:
    """The map induced by f between the splitting quotients at c."""
    p = f.source.field.p
    lam_src, _ = lambda_with_window(f.source, s, c)
    lam_tgt, _ = lambda_with_window(f.target, s, c)
    _, proj_src = linalg.cokernel(lam_src, p)
    _, proj_tgt = linalg.cokernel(lam_tgt, p)
    rhs = linalg.matmul(proj_tgt, f.components[c], p)
    try:
        return linalg.solve_left(proj_src, rhs, p)
    except linalg.NoSolution as exc:  # pragma: no cover - naturality guards this
        raise InternalError(f"splitting map at {c!r}") from exc


def is_generated(m: PersModule, s, *, via: str = "births") -> bool:
    """S-generation test; via="births" uses the window rank criterion,
    via="mu" tests surjectivity of the induction counit directly."""
    s = m.poset.subset(s)
    if via == "mu":
        return is_epi(canonical_mu(m, s))
    if via != "births":
        raise ValueError(f"unknown route {via!r}")
    return births(m, s).mask & ~s.mask == 0


def is_presented(m: PersModule, s, *, via: str = "births") -> bool:
    """S-presentation test; via="mu" tests that the counit is an iso."""
    s = m.poset.subset(s)
    if via == "mu":
        return is_iso(canonical_mu(m, s))
    if via != "births":
        raise ValueError(f"unknown route {via!r}")
    return (births(m, s).mask | deaths(m, s).mask) & ~s.mask == 0


def is_determined(m: PersModule, s) -> bool:
    """Support inside the upset of s, and m(c <= d) an isomorphism whenever
    c <= d have equal s-downsets (s & down(c) == s & down(d)).

    Only covers a < b are tested.  That suffices: if c <= e <= d and c, d
    have equal s-downsets, then s & down(c) <= s & down(e) <= s & down(d)
    = s & down(c), so e has the same s-downset too.  Every cover in a
    maximal chain of covers from c to d therefore has equal s-downsets,
    and m(c <= d), the composite of their maps, is an isomorphism when
    each of them is.  Conversely a cover is a comparable pair.
    """
    s = m.poset.subset(s)
    if m.support().mask & ~up_set(m.poset, s).mask:
        return False
    poset = m.poset
    return all(linalg.is_isomorphism(m.cover_maps[(a, b)], m.field.p)
               for a, b in poset.covers
               if poset.down_mask(a) & s.mask == poset.down_mask(b) & s.mask)


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
    presentation, with a frame below every element above the support."""
    s = m.poset.subset(s)
    if not is_determined(m, s):
        raise NotDetermined(f"module is not determined by {sorted(s.ids())}")
    t = hat(m.poset, hat(m.poset, s))
    if not is_presented(m, t):
        raise InternalError("double-hat closure failed to present the module")
    poset = m.poset
    frames = {}
    for c in up_set(poset, m.support()):
        down_c = poset.down_mask(c) & s.mask
        frame = next((cand for cand in mub(poset, poset.subset_from_mask(down_c))
                      if poset.down_mask(cand) & s.mask == down_c
                      and poset.leq(cand, c)), None)
        if frame is None:
            raise InternalError(f"no frame found for {c!r}")
        frames[c] = frame
    return FspReport(fsp=t, frames=frames, presented=True)


@dataclass(frozen=True)
class WitnessReport:
    pointwise_ok: bool
    support: ElementSet
    property_m: object


def finitely_presented_witness(m: PersModule) -> WitnessReport:
    """Minimal presentation support over the whole poset, plus the
    enumeration record showing the poset satisfies the boundedness and
    mub-completeness hypotheses (automatic for finite posets, and field
    coefficients make every pointwise space finitely presented)."""
    s = minimal_presentation_support(m, m.poset.whole())
    return WitnessReport(pointwise_ok=True, support=s,
                         property_m=check_property_m(m.poset))


def projective_cover(m: PersModule, s) -> tuple[PersModule, ModuleMorphism]:
    """The minimal epimorphism onto m from a sum of free modules placed at
    the birth elements, one summand per splitting dimension.  Births are
    exactly where the splitting dimension is non-zero, since rank(lambda)
    is the rank of the stacked structure maps.

    Sections of the splitting projections are the deterministic
    pivot-variable lifts, so the cover is byte-reproducible.
    """
    s = m.poset.subset(s)
    born = minimal_generating_degrees(m, s)
    p = m.field.p
    pieces = []  # (element, multiplicity, section)
    for e in born:
        res = splitting(m, s, e)
        section = linalg.solve(res.projection, linalg.identity(res.dim), p)
        pieces.append((e, res.dim, section))
    cover = direct_sum(zero_module(m.poset, m.field),
                       *(free_module(m.poset, e, mult, m.field)
                         for e, mult, _ in pieces),
                       name=f"cover({m.name})")
    comps = {}
    for c in m.poset.elements:
        blocks = [linalg.matmul(m.eval_map(e, c), section, p)
                  for e, _, section in pieces if m.poset.leq(e, c)]
        comps[c] = linalg.hstack(blocks, m.dims[c])
    h = ModuleMorphism(cover, m, comps, validate=True)
    if not is_epi(h):
        raise InternalError("projective cover is not pointwise surjective")
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
    exact = is_epi(h) and is_epi(rel_h)
    return Presentation(gens=gens, rels=rels, cover_map=h, kernel=ker,
                        relation_map=relation_map, verho_equal=verho_equal,
                        exact=exact, death_set=death_set)


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
            fsp = sorted(fsp_from_determined(m, s).fsp.ids(),
                         key=poset.index)
        except InternalError:
            fsp = None
    xi0 = xi1 = None
    if presented:
        pres = minimal_presentation(m, s)
        xi0 = {e: int(k) for e, k in sorted(pres.gens.items(), key=lambda t: poset.index(t[0]))}
        xi1 = {e: int(k) for e, k in sorted(pres.rels.items(), key=lambda t: poset.index(t[0]))}
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
