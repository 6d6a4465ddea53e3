"""Colimits of vector-space diagrams over poset windows, restriction and
induction along a subset inclusion, and the canonical comparison maps.

A window colimit is presented as the cokernel of a relation matrix on a
direct sum of window spaces.  The bases route (``colim_over_mask``, and
through it ``lambda_with_window``, ``induce`` and ``canonical_mu``) sums
every window space and takes relations only from the covers of the order
induced on the window, which suffices because covers generate the order.
``window_ranks`` needs only dimensions and ranks, so it uses a smaller
local presentation: the spaces at the window's maximal elements, related
along the maximal common lower bounds of pairs (``Poset.local_spans``).
Both routes assemble their relation matrix (``_relation_matrix``) and their
cocone into m(c) (``_cocone``) in one array, filled slice by slice:
summands of dimension 0 are skipped without calling ``eval_map``, and an
identity block is written in place.  All bases come from the deterministic
cokernel convention in ``linalg``, so injections and induced maps are
byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InternalError
from .modules import ModuleMorphism, PersModule
from .posets import ElementSet, Poset, build_poset, _bits


@dataclass(frozen=True)
class IndexWindow:
    """The diagram index {d in S : d < c} (strict) or {d in S : d <= c}."""

    S: ElementSet
    c: str
    strict: bool = True

    def mask(self) -> int:
        p = self.S.poset
        m = p.down_mask(self.c) & self.S.mask
        if self.strict:
            m &= ~(1 << p.index(self.c))
        return m


@dataclass
class ColimitResult:
    """A presented colimit of the diagram on a window.

    ``projection`` maps the direct sum of the window spaces onto the
    colimit; ``injections[d]`` is the structure injection of the summand at
    d, and ``presentation`` is the relation matrix whose cokernel was taken.
    """

    dim: int
    window: tuple[str, ...]
    offsets: dict[str, int]
    injections: dict[str, np.ndarray]
    presentation: np.ndarray
    projection: np.ndarray


def _offsets(m: PersModule, window) -> tuple[dict[str, int], int]:
    """Summand offsets of the window spaces in their direct sum, and its
    dimension."""
    offsets = {}
    total = 0
    for d in window:
        offsets[d] = total
        total += m.dims[d]
    return offsets, total


def _fill_identity(out: np.ndarray, row: int, col: int, k: int) -> None:
    """Write the k x k identity into out with its corner at (row, col)."""
    for i in range(k):
        out[row + i, col + i] = 1


def _relation_matrix(m: PersModule, offsets, total, spans) -> np.ndarray:
    """The relation matrix on the direct sum of the window spaces: per span
    (d, a, b), the columns x -> m(d <= a) x - m(d <= b) x, with the block
    m(d <= a) at the summand a and -m(d <= b) at the summand b.

    The matrix is one array, allocated at its full size and filled slice by
    slice.  A span with dims(d) = 0 has no columns and is skipped, and so is
    a block at a summand of dimension 0: neither calls ``eval_map``.  When
    d == a the block at a is the identity, written in place."""
    p, dims = m.field.p, m.dims
    out = linalg.zeros(total, sum(dims[d] for d, _, _ in spans))
    j = 0
    for d, a, b in spans:
        k = dims[d]
        if not k:
            continue
        if a == d:
            _fill_identity(out, offsets[a], j, k)
        elif dims[a]:
            out[offsets[a]:offsets[a] + dims[a], j:j + k] = m.eval_map(d, a)
        if dims[b]:
            out[offsets[b]:offsets[b] + dims[b], j:j + k] = (-m.eval_map(d, b)) % p
        j += k
    return out


def _relations(m: PersModule, mask: int):
    """The window on mask, its summand offsets and the relation matrix on
    the direct sum: one block x - m(d <= d2) x per cover d < d2 inside."""
    window = [m.poset.elements[i] for i in _bits(mask)]
    offsets, total = _offsets(m, window)
    spans = [(d, d, d2) for d, d2 in m.poset.cover_pairs_within(mask)]
    return window, offsets, _relation_matrix(m, offsets, total, spans)


def _cocone(m: PersModule, window, c: str) -> np.ndarray:
    """The structure maps m(d <= c) for d in the window, side by side, in
    one array filled slice by slice.  Summands of dimension 0, and every
    summand when dims(c) = 0, are skipped without calling ``eval_map``; d
    == c gives the identity, written in place."""
    dims = m.dims
    out = linalg.zeros(dims[c], sum(dims[d] for d in window))
    if not dims[c]:
        return out
    j = 0
    for d in window:
        k = dims[d]
        if d == c:
            _fill_identity(out, 0, j, k)
        elif k:
            out[:, j:j + k] = m.eval_map(d, c)
        j += k
    return out


def colim_over_mask(m: PersModule, mask: int) -> ColimitResult:
    """Colimit of m restricted to the subset given as a bitmask."""
    window, offsets, presentation = _relations(m, mask)
    dim, projection = linalg.cokernel(presentation, m.field.p)
    injections = {d: projection[:, offsets[d]:offsets[d] + m.dims[d]].copy()
                  for d in window}
    return ColimitResult(dim=dim, window=tuple(window), offsets=offsets,
                         injections=injections, presentation=presentation,
                         projection=projection)


def colim_window(m: PersModule, w: IndexWindow) -> ColimitResult:
    return colim_over_mask(m, w.mask())


def restrict(m: PersModule, s) -> PersModule:
    """The module over the full subposet on s, structure maps composed."""
    s = m.poset.subset(s)
    sub_rels = m.poset.cover_pairs_within(s.mask)
    sub = build_poset(s.ids(), sub_rels, name=f"{m.poset.name}|{len(s)}")
    dims = {e: m.dims[e] for e in s}
    maps = {(a, b): m.eval_map(a, b) for a, b in sub.covers}
    return PersModule(sub, m.field, dims, maps,
                      name=f"res({m.name})", validate=False)


def _embeds_as_full_subposet(sub: Poset, ambient: Poset) -> bool:
    for a in sub.elements:
        ambient.index(a)
    for a in sub.elements:
        for b in sub.elements:
            if sub.leq(a, b) != ambient.leq(a, b):
                return False
    return True


def induce_with_data(n: PersModule, ambient: Poset):
    """Left Kan extension along the subset inclusion, with colimit data.

    Returns (module over ambient, {element: ColimitResult}).  The colimit
    at c indexes over {t in S : t <= c}; the structure map along a cover
    c <= c' is solved from the compatibility of the two projections.
    """
    sub = n.poset
    if not _embeds_as_full_subposet(sub, ambient):
        raise InternalError("subposet does not embed fully in the ambient poset")
    p = n.field.p
    s_mask_ambient = 0
    for e in sub.elements:
        s_mask_ambient |= 1 << ambient.index(e)

    # Window masks are expressed inside the subposet so colimits can be
    # shared between ambient elements with equal windows.
    def sub_mask_of(c: str) -> int:
        mask = 0
        for i in _bits(ambient.down_mask(c) & s_mask_ambient):
            mask |= 1 << sub.index(ambient.elements[i])
        return mask

    cache: dict[int, ColimitResult] = {}
    data = {}
    dims = {}
    for c in ambient.elements:
        mask = sub_mask_of(c)
        if mask not in cache:
            cache[mask] = colim_over_mask(n, mask)
        data[c] = cache[mask]
        dims[c] = data[c].dim
    maps = {}
    for a, b in ambient.covers:
        da, db = data[a], data[b]
        # the summand inclusion of a's window sum into b's
        incl = linalg.zeros(db.projection.shape[1], da.projection.shape[1])
        for d in da.window:
            _fill_identity(incl, db.offsets[d], da.offsets[d], n.dims[d])
        rhs = linalg.matmul(db.projection, incl, p)
        try:
            maps[(a, b)] = linalg.solve_left(da.projection, rhs, p)
        except linalg.NoSolution as exc:  # pragma: no cover - cocone property
            raise InternalError(f"induced map at cover {(a, b)!r}") from exc
    mod = PersModule(ambient, n.field, dims, maps,
                     name=f"ind({n.name})", validate=False)
    return mod, data


def induce(n: PersModule, ambient: Poset) -> PersModule:
    return induce_with_data(n, ambient)[0]


def _factor_cocone(m: PersModule, cr: ColimitResult, c: str, what: str):
    """The map out of the colimit cr through which the cocone into m(c)
    factors; raises InternalError if the cocone does not kill the
    relations."""
    p = m.field.p
    cocone = _cocone(m, cr.window, c)
    if np.any(linalg.matmul(cocone, cr.presentation, p)):
        raise InternalError(f"{what} at {c!r} does not kill relations")
    try:
        return linalg.solve_left(cr.projection, cocone, p)
    except linalg.NoSolution as exc:  # pragma: no cover - cocone property
        raise InternalError(f"{what} at {c!r}") from exc


def canonical_mu(m: PersModule, s) -> ModuleMorphism:
    """The counit ind(res(m)) -> m of the restriction/induction adjunction.

    The component at c sends the class of x in m(d), d in the window, to
    the structure map m(d <= c) applied to x; well-definedness is certified
    by checking that the component annihilates the colimit relations.
    """
    s = m.poset.subset(s)
    ind, data = induce_with_data(restrict(m, s), m.poset)
    comps = {c: _factor_cocone(m, data[c], c, "mu component")
             for c in m.poset.elements}
    return ModuleMorphism(ind, m, comps)


def lambda_with_window(m: PersModule, s, c: str):
    """The natural map from the strict-window colimit into m(c).

    Returns (matrix of shape dims(c) x colim_dim, ColimitResult).
    """
    s = m.poset.subset(s)
    cr = colim_window(m, IndexWindow(s, c, strict=True))
    return _factor_cocone(m, cr, c, "lambda"), cr


def lambda_map(m: PersModule, s, c: str) -> np.ndarray:
    return lambda_with_window(m, s, c)[0]


def window_ranks(m: PersModule, s, c: str) -> tuple[int, int, int]:
    """(rank of lambda, colimit dimension, dims(c)) for the strict window.

    Uses the local presentation of the colimit over W = {d in s : d < c}
    from ``Poset.local_spans``.  Let T be the maximal elements of W.  The
    generators are the sum of m(t) over t in T, with one relation block
    m(d <= t0) - m(d <= t) per span (d, t0, t).  This presents the same
    colimit as the cover presentation of ``colim_over_mask``: every d in W
    lies below some t in T, so a cocone on W is fixed by its legs at T;
    those legs extend to a cocone exactly when each two agree on their
    common lower set.  Agreement at d' implies agreement at every d <= d',
    so the maximal common lower bounds d suffice, and at each of them it
    is enough that every top above d agrees with the first one.  Hence the
    colimit dimension is sum dims(T) - rank(relations).  The projection is
    surjective and m(d <= c) factors through m(t <= c), so rank(lambda) is
    the rank of the structure maps m(t <= c), t in T, side by side.  Both
    numbers are ranks, so they do not depend on a choice of basis.

    The relations involve only the diagram on W, never c or S beyond W, so
    the colimit dimension is a function of W's local presentation (tops
    and spans), which the poset memoizes per window mask.  The module
    keeps the dimension in ``_colim_dims``, keyed by that presentation, for
    every S and c with the same window.  An empty window has the zero
    colimit, and lambda is the zero map.
    """
    s = m.poset.subset(s)
    mask = IndexWindow(s, c, strict=True).mask()
    if not mask:
        return 0, 0, m.dims[c]
    p = m.field.p
    local = m.poset.local_spans(mask)
    tops, spans = local
    colim_dim = m._colim_dims.get(local)
    if colim_dim is None:
        offsets, total = _offsets(m, tops)
        relations = _relation_matrix(m, offsets, total, spans)
        colim_dim = m._colim_dims[local] = total - linalg.rank(relations, p)
    return linalg.rank(_cocone(m, tops, c), p), colim_dim, m.dims[c]
