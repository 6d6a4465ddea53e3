"""Colimits of vector-space diagrams over poset windows, restriction and
induction along a subset inclusion, and the canonical comparison maps.

A window colimit has one presentation (``_local_presentation``): the
cokernel of a relation matrix on the direct sum of the spaces at the
window's maximal elements (its tops), related along the maximal common
lower bounds of pairs of tops (``Poset.local_spans``).  The window table
reads only ranks from it, in one sweep per (module, S) over the elements'
canonical indices (``_window_sweep``), and ``window_ranks`` reads one row
of that table.  ``colim_over_mask`` (behind ``lambda_map``, ``induce`` and
``canonical_mu``) returns that presentation and the window's mask alone:
the window's elements, and each injection (``colim_injection``), are
derived where they are read.  It is a pure function and keeps nothing:
``gpm colim`` and ``lambda_with_window`` call it once per window.  The
counit route (``induce_with_data`` and ``canonical_mu``) memoizes its
colimits, induced cover maps and counit components in the module's counit
memo (``PersModule._counit``), keyed by the window's local presentation,
which a module shares with all its restrictions (``restrict``), so the
subsets S of one module present each window once.  The relation matrix
(``_relation_matrix``) and the cocone into m(c) (``_cocone``) are each one
array, filled slice by slice: summands of dimension 0 are skipped without
calling ``eval_map``, and an identity block is written in place.  All
bases come from the deterministic cokernel convention in ``linalg``, so
injections and induced maps are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InternalError
from .modules import ModuleMorphism, PersModule
from .posets import ElementSet, Poset, build_poset


def window_mask(s: ElementSet, c: str, strict: bool = True) -> int:
    """The diagram index {d in s : d < c} (strict) or {d in s : d <= c}, as
    a bitmask of the poset's elements."""
    p = s.poset
    mask = p.down_mask(c) & s.mask
    return mask & ~(1 << p.index(c)) if strict else mask


@dataclass
class ColimitResult:
    """A presented colimit of the diagram on a window.

    The colimit is presented on the window's tops (``_local_presentation``).
    ``mask`` is the window as a bitmask of the poset's elements,
    ``presentation`` is the relation matrix on the direct sum of the spaces
    at the tops, ``offsets`` are their summand offsets in it,
    ``projection`` maps that sum onto the colimit, and ``free`` are the
    projection's identity columns (``linalg.cokernel``): a map out of the
    colimit is the map out of the sum read at those columns
    (``linalg.factor``).  Nothing per window
    element is stored: the window's elements are
    ``poset.subset_from_mask(mask).members``, and ``colim_injection``
    derives the injection of an element, each where it is read.
    """

    dim: int
    mask: int
    tops: tuple[str, ...]
    offsets: dict[str, int]
    presentation: np.ndarray
    projection: np.ndarray
    free: tuple[int, ...]


def _offsets(m: PersModule, summands) -> tuple[dict[str, int], int]:
    """Offsets of the spaces at summands in their direct sum, and its
    dimension."""
    offsets = {}
    total = 0
    for d in summands:
        offsets[d] = total
        total += m.dims[d]
    return offsets, total


def _relation_matrix(m: PersModule, offsets, total, spans) -> np.ndarray:
    """The relation matrix on the direct sum of the summand spaces: per span
    (d, a, b), the columns x -> m(d <= a) x - m(d <= b) x, with the block
    m(d <= a) at the summand a and -m(d <= b) at the summand b.

    The matrix is one array, allocated at its full size and filled slice by
    slice.  A span with dims(d) = 0 has no columns and is skipped, and so is
    a block at a summand of dimension 0: neither calls ``eval_map``."""
    p, dims = m.field.p, m.dims
    out = linalg.zeros(total, sum(dims[d] for d, _, _ in spans))
    j = 0
    for d, a, b in spans:
        k = dims[d]
        if not k:
            continue
        if dims[a]:
            out[offsets[a]:offsets[a] + dims[a], j:j + k] = m.eval_map(d, a)
        if dims[b]:
            out[offsets[b]:offsets[b] + dims[b], j:j + k] = (-m.eval_map(d, b)) % p
        j += k
    return out


def _cocone(m: PersModule, summands, c: str) -> np.ndarray:
    """The structure maps m(d <= c) for d in summands, side by side, in
    one array filled slice by slice.  Summands of dimension 0, and every
    summand when dims(c) = 0, are skipped without calling ``eval_map``; d
    == c gives the identity, written in place."""
    dims = m.dims
    out = linalg.zeros(dims[c], sum(dims[d] for d in summands))
    if not dims[c]:
        return out
    j = 0
    for d in summands:
        k = dims[d]
        if d == c:
            for i in range(k):
                out[i, j + i] = 1
        elif k:
            out[:, j:j + k] = m.eval_map(d, c)
        j += k
    return out


def _local_presentation(m: PersModule, mask: int):
    """The presentation of the colimit of m over the window on mask: its
    tops, their summand offsets, and the relation matrix on their direct
    sum.

    Let W be the window and T its maximal elements, from
    ``Poset.local_spans``.  The generators are the sum of m(t) over t in T,
    with one relation block m(d <= t0) - m(d <= t) per span (d, t0, t).
    This presents the colimit of the diagram on W: every d in W lies below
    some t in T, so a cocone on W is fixed by its legs at T; those legs
    extend to a cocone exactly when each two agree on their common lower
    set.  Agreement at d' implies agreement at every d <= d', so the
    maximal common lower bounds d suffice, and at each of them it is enough
    that every top above d agrees with the first one.  The relations
    involve only the diagram on W, never anything outside it.
    """
    tops, spans = m.poset.local_spans(mask)
    offsets, total = _offsets(m, tops)
    return tops, offsets, _relation_matrix(m, offsets, total, spans)


def colim_over_mask(m: PersModule, mask: int) -> ColimitResult:
    """Colimit of m restricted to the subset given as a bitmask, presented
    on the window's tops as described in ``ColimitResult``."""
    tops, offsets, presentation = _local_presentation(m, mask)
    dim, projection, free = linalg.cokernel(presentation, m.field.p)
    return ColimitResult(dim=dim, mask=mask, tops=tops, offsets=offsets,
                         presentation=presentation, projection=projection,
                         free=free)


def colim_injection(m: PersModule, cr: ColimitResult, d: str) -> np.ndarray:
    """The structure injection of m(d) into the colimit cr, d in its window.

    For a top, its slice of the projection; below the tops, the injection
    of the first top t0 above d composed with m(d <= t0).  A summand of
    dimension 0, or any summand of a zero colimit, gets its zero injection
    without an ``eval_map`` call."""
    dims, poset = m.dims, m.poset
    if d in cr.offsets:
        return cr.projection[:, cr.offsets[d]:cr.offsets[d] + dims[d]].copy()
    if not (cr.dim and dims[d]):
        return linalg.zeros(cr.dim, dims[d])
    t0 = next(t for t in cr.tops if poset.leq(d, t))
    return linalg.matmul(colim_injection(m, cr, t0), m.eval_map(d, t0), m.field.p)


def restrict(m: PersModule, s) -> PersModule:
    """The module over the full subposet on s, structure maps composed.

    The result shares m's counit memo (``PersModule._counit``): its maps
    are m's composites, which functoriality makes unique, and a window's
    colimit bytes are a function of its named local presentation and those
    maps, so m and every restriction of m, or of a restriction of m, read
    the same colimits, induced maps and counit components
    (``induce_with_data``)."""
    s = m.poset.subset(s)
    sub_rels = m.poset.cover_pairs_within(s.mask)
    sub = build_poset(s.ids(), sub_rels, name=f"{m.poset.name}|{len(s)}")
    dims = {e: m.dims[e] for e in s}
    maps = {(a, b): m.eval_map(a, b) for a, b in sub.covers}
    res = PersModule(sub, m.field, dims, maps,
                     name=f"res({m.name})", validate=False)
    res._counit = m._counit
    return res


def _windows_in_sub(sub: Poset, ambient: Poset) -> dict[str, int]:
    """For each c in ambient, the mask in sub of {e in sub : e <= c}.

    One sweep over ambient in canonical order, where lower covers come
    first: c's own bit if c is in sub, or-ed with the masks of its lower
    covers.  Raises UnknownElement for an element of sub that ambient
    lacks, and InternalError unless sub is a full subposet of ambient,
    which holds exactly when every e in sub gets its down mask in sub."""
    for e in sub.elements:
        ambient.index(e)
    own = {e: 1 << i for i, e in enumerate(sub.elements)}
    windows = {}
    for c in ambient.elements:
        mask = own.get(c, 0)
        for b in ambient.covers_below(c):
            mask |= windows[b]
        windows[c] = mask
    if any(windows[e] != sub.down_mask(e) for e in sub.elements):
        raise InternalError("subposet does not embed fully in the ambient poset")
    return windows


def induce_with_data(n: PersModule, ambient: Poset):
    """Left Kan extension along the subset inclusion, with colimit data.

    Returns (module over ambient, {element: ColimitResult}).  The colimit
    at c indexes over {t in S : t <= c}, masked inside the subposet so that
    ambient elements with equal windows share one colimit.  The structure
    map along a cover a <= b is the map out of a's colimit that sends the
    summand at each top t of a's window to b's injection at t
    (``colim_injection``), read off a's projection (``linalg.factor``).

    The colimits and the cover maps are memoized in n's counit memo
    (``PersModule._counit``), which a module shares with its restrictions
    (``restrict``).  The key is the window's local presentation
    (``Poset.local_spans``: tops and spans, by name), not its mask: a
    restriction orders its elements by their rank inside S, so one window
    may list its tops and spans in another order under another S, and the
    colimit's bytes depend only on that named presentation and the maps,
    which are the parent's composites.  A colimit is keyed by its
    presentation, and a cover map, which is a function of the two
    colimits alone, by the pair of them.  On a miss each runs and is
    checked as without the memo; a hit returns what was checked on the same
    inputs, with ``mask`` the window's mask in n's own poset.
    """
    p = n.field.p
    windows = _windows_in_sub(n.poset, ambient)
    memo, local_spans = n._counit, n.poset.local_spans
    cache: dict[int, tuple] = {}  # window mask -> (local presentation, colimit)
    data, local, dims = {}, {}, {}
    for c in ambient.elements:
        mask = windows[c]
        found = cache.get(mask)
        if found is None:
            key = local_spans(mask)
            cr = memo.get(key)
            if cr is None:
                cr = memo[key] = colim_over_mask(n, mask)
            elif cr.mask != mask:
                cr = ColimitResult(cr.dim, mask, cr.tops, cr.offsets,
                                   cr.presentation, cr.projection, cr.free)
            found = cache[mask] = key, cr
        local[c], data[c] = found
        dims[c] = data[c].dim
    maps = {}
    for a, b in ambient.covers:
        key = (local[a], local[b])
        f = memo.get(key)
        if f is None:
            da, db = data[a], data[b]
            rhs = linalg.hstack([colim_injection(n, db, t) for t in da.tops], db.dim)
            f = memo[key] = linalg.factor(da.projection, da.free, rhs, p,
                                          f"induced map at cover {(a, b)!r}")
        maps[(a, b)] = f
    mod = PersModule(ambient, n.field, dims, maps,
                     name=f"ind({n.name})", validate=False)
    return mod, data


def induce(n: PersModule, ambient: Poset) -> PersModule:
    return induce_with_data(n, ambient)[0]


def _factor_cocone(m: PersModule, cr: ColimitResult, c: str, what: str):
    """The map out of the colimit cr through which the cocone into m(c)
    factors: its columns at the colimit's free indices.  It factors
    exactly when it kills the relations, since the projection's rows span
    their left null space; otherwise raises InternalError."""
    return linalg.factor(cr.projection, cr.free, _cocone(m, cr.tops, c),
                         m.field.p, f"{what} at {c!r} does not kill relations")


def canonical_mu(m: PersModule, s) -> ModuleMorphism:
    """The counit ind(res(m)) -> m of the restriction/induction adjunction.

    The component at c sends the class of x in m(d), d in the window, to
    the structure map m(d <= c) applied to x; well-definedness is certified
    by checking that the component, read off the colimit's free indices,
    gives back the cocone (``_factor_cocone``).

    Every subset S of m shares m's counit memo (``restrict``), where the
    component at c is keyed by (c's window presentation, c): it depends on
    the colimit, a function of that presentation, and on the maps m(t <= c)
    from its tops, which are the same for every restriction that has c.
    The key shapes keep the three kinds of entry apart: a colimit's key
    ends in its spans, a cover map's in a presentation and a component's
    in an element name.  The components are built int64 arrays, so the
    morphism stores them as given and checks naturality on every cover,
    the check that ``validate=True`` runs, without coercing them again.
    """
    s = m.poset.subset(s)
    res = restrict(m, s)
    ind, data = induce_with_data(res, m.poset)
    memo, local_spans = m._counit, res.poset.local_spans
    comps = {}
    for c, cr in data.items():
        key = (local_spans(cr.mask), c)
        comp = memo.get(key)
        if comp is None:
            comp = memo[key] = _factor_cocone(m, cr, c, "mu component")
        comps[c] = comp
    mu = ModuleMorphism(ind, m, comps, validate=False)
    mu._check_naturality()
    return mu


def lambda_with_window(m: PersModule, s, c: str):
    """The natural map from the strict-window colimit into m(c).

    Returns (matrix of shape dims(c) x colim_dim, ColimitResult).  The
    matrix is the cocone into m(c) (the maps m(t <= c), t a top, side by
    side) at the colimit's free indices.
    """
    s = m.poset.subset(s)
    cr = colim_over_mask(m, window_mask(s, c))
    return _factor_cocone(m, cr, c, "lambda"), cr


def lambda_map(m: PersModule, s, c: str) -> np.ndarray:
    return lambda_with_window(m, s, c)[0]


class _WindowTable(tuple):
    """The ``window_ranks`` rows of one (module, S), in canonical order,
    with the masks of the elements where the rank falls short of dims(c)
    (``born``) and of the colimit dimension (``dead``)."""


def _window_sweep(m: PersModule, s_mask: int) -> _WindowTable:
    """(rank of lambda, colimit dimension, dims(c)) for the strict window
    W = {d in S : d < c} of every element c, in one sweep over canonical
    indices, with the birth and death masks.

    The colimit over W is presented on W's tops T (``_local_presentation``),
    so its dimension is sum dims(T) - rank(relations).  The projection is
    surjective and m(d <= c) factors through m(t <= c), so rank(lambda) is
    the rank of the structure maps m(t <= c), t in T, side by side.  Both
    numbers are ranks, so they do not depend on a choice of basis.

    The window of the element at index i is the mask down(i) & S - i.  A
    window that misses the support, or whose tops are all zero spaces, has
    the zero colimit, and lambda is the zero map: that is read off the
    masks and the dimensions before any presentation or cocone is built.
    The relations involve only the diagram on W, never c or S beyond W, so
    the colimit dimension is a function of W's local presentation (tops and
    spans), which the poset memoizes per window mask.  The module keeps the
    dimension in ``_colim_dims``, keyed by that presentation, for every S
    and c with the same window.
    """
    poset, p, dims = m.poset, m.field.p, m.dims
    down, memo = poset._down, poset._spans
    support, colim_dims = m.support_mask, m._colim_dims
    rows, born, dead = [], 0, 0
    # dims holds every element in canonical order (``PersModule._set``)
    for i, (c, dim_c) in enumerate(dims.items()):
        rk = colim_dim = 0
        mask = down[i] & s_mask & ~(1 << i)
        if mask & support:
            local = memo.get(mask) or poset.local_spans(mask)
            tops = local[0]
            for t in tops:
                if dims[t]:
                    break
            else:
                tops = ()
            if tops:
                colim_dim = colim_dims.get(local)
                if colim_dim is None:
                    offsets, total = _offsets(m, tops)
                    relations = _relation_matrix(m, offsets, total, local[1])
                    colim_dim = colim_dims[local] = total - linalg.rank(relations, p)
                if dim_c:
                    rk = linalg.rank(_cocone(m, tops, c), p)
        rows.append((rk, colim_dim, dim_c))
        if rk != dim_c:
            born |= 1 << i
        if rk != colim_dim:
            dead |= 1 << i
    table = _WindowTable(rows)
    table.born, table.dead = born, dead
    return table


def _window_table(m: PersModule, s) -> _WindowTable:
    """The window table of (m, S): one ``_window_sweep`` the first time it
    is asked for, kept on the module and keyed by the S mask, so births,
    deaths, splitting dimensions, covers, presentations and the report
    share one pass."""
    s = m.poset.subset(s)
    table = m._window_cache.get(s.mask)
    if table is None:
        table = m._window_cache[s.mask] = _window_sweep(m, s.mask)
    return table


def window_ranks(m: PersModule, s, c: str) -> tuple[int, int, int]:
    """(rank of lambda, colimit dimension, dims(c)) for the strict window
    {d in s : d < c}: the row of c in the window table of (m, s)
    (``_window_table``).  The first call for an (m, s) sweeps every element
    (``_window_sweep``); every later one reads a row."""
    return _window_table(m, s)[m.poset.index(c)]
