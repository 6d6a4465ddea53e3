"""Persistence modules over a finite poset and their morphisms.

A module assigns a finite-dimensional F_p vector space to every poset
element and a matrix to every cover; composites along covers must be
path-independent, which construction checks locally, on the spans below
each element.  Structure maps between arbitrary comparable pairs are
composed on demand along one fixed route and memoized.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from .errors import (
    FunctorialityError,
    InternalError,
    MismatchedBase,
    NotAnInterval,
    NotComparable,
    TooLargeError,
    ValidationError,
)
from .linalg import FieldSpec, is_built
from .posets import ElementSet, Poset, _bits, is_interval, up_set


class PersModule:
    """A functor from a finite poset to F_p vector spaces.

    Args:
        poset: the index poset.
        field: FieldSpec with the prime modulus.
        dims: mapping element id -> dimension, a non-negative integer;
            missing ids mean 0.
        cover_maps: mapping (lower, upper) cover pair -> matrix of shape
            (dims[upper], dims[lower]); missing covers default to zero.
            A map with a zero end has no cells, so constructors omit it:
            every omitted map of one shape is the same shared empty block
            (``linalg.zero_map``).
        name: label used in reports.
        validate: coerce every map (``linalg.as_shaped``: a new int64
            array reduced mod p) and run the functoriality check.  Library
            builders pass False for modules that are path-independent by
            construction; then an int64 ``np.ndarray`` of the declared
            shape is stored as given (``linalg.is_built``), so the caller
            promises that it is reduced mod p and that nothing writes to it
            afterwards.  Any other map (a list, another dtype, a wrong
            shape) is still coerced, and a wrong shape or an entry that is
            not an integer still raises ShapeError.  Dimensions are checked
            under both values (``linalg.as_dims``).  The graded layouts of
            ``gpmod.graded`` follow the same contract.

    Instances are immutable after construction, apart from the ``name``
    label: nothing writes to ``dims`` or ``cover_maps`` outside
    ``__init__``, except that a free sum (``free_sum_layout``) builds its
    0/1 maps, and completes them with the zero maps, the first time
    ``cover_maps`` is read; what that read returns, then and after, is
    what ``__init__`` with ``validate=False`` would have stored.
    ``support_mask`` is the bitmask of the elements of
    non-zero dimension, computed once there; the passes that only have
    work where a space is non-zero (functoriality, epi/mono/iso tests,
    composition, kernels, window ranks, the cover) walk its bits.  The
    memos depend on immutability too:
    ``_eval_cache`` holds composite structure maps (a cover pair's entry is
    its cover map itself), ``_window_cache`` holds the window-rank table of
    each subset S with its birth and death masks, keyed by the S mask and
    built by one sweep (``kan._window_table``), and ``_colim_dims`` holds
    the colimit dimension of each window that a sweep presented, keyed by
    the window's local presentation (``Poset.local_spans``), which any S
    and c with that window share.  ``_counit`` holds the counit route's
    window colimits, induced cover maps and counit components, keyed by
    local presentations as well (``kan.induce_with_data``).  It is the one
    memo a module shares: ``kan.restrict`` hands its result the parent's
    dict, since a restriction's structure maps are the parent's composites,
    so a module and all its restrictions fill one memo; a module built any
    other way starts with an empty one.
    """

    __slots__ = ("poset", "field", "dims", "support_mask", "cover_maps", "name",
                 "_pending", "_eval_cache", "_window_cache", "_colim_dims",
                 "_counit")

    def __init__(self, poset: Poset, field: FieldSpec, dims, cover_maps,
                 *, name="M", validate=True):
        given = dict(dims)
        for e in given:
            poset.index(e)
        every = dict.fromkeys(poset.elements, 0)
        every.update(zip(given, linalg.as_dims(given.values(), given, "dimension")))
        self._set(poset, field, every, name)
        self.cover_maps = self._complete(cover_maps, validate)
        if validate:
            self._check_functoriality()

    def _set(self, poset, field, dims, name):
        """Everything but the maps, from ``dims``: every element's
        dimension, a Python int, in canonical order."""
        self.poset = poset
        self.field = field
        self.name = name
        self.dims = dims
        self.support_mask = sum(1 << i for i, d in enumerate(dims.values()) if d)
        self._pending = None
        self._eval_cache = {}
        self._window_cache = {}
        self._colim_dims = {}
        self._counit = {}

    def _complete(self, cover_maps, validate) -> dict:
        """Every cover's map in canonical order: the given ones, coerced as
        the class docstring says, and the shared zero map for the rest."""
        poset, dims, p = self.poset, self.dims, self.field.p
        given = dict(cover_maps)
        for pair in given:
            if pair not in poset._cover_set:
                raise ValidationError(f"{pair!r} is not a cover of {poset.name!r}")
        maps = {}
        for pair in poset.covers:
            a, b = pair
            m, shape = given.get(pair), (dims[b], dims[a])
            if m is None:
                m = linalg.zero_map(*shape)
            elif validate or not is_built(m, shape):
                m = linalg.as_shaped(m, shape, p, f"map {a!r}->{b!r}")
            maps[pair] = m
        return maps

    @classmethod
    def _deferred(cls, poset, field, dims, build, *, name) -> "PersModule":
        """The module with ``dims`` (as ``_set`` takes them, checked by the
        caller) whose cover maps are ``build()``, built and completed as
        ``__init__`` with ``validate=False`` would on the first read of
        ``cover_maps``."""
        m = cls.__new__(cls)
        m._set(poset, field, dims, name)
        m._pending = build
        return m

    def __getattr__(self, attr):
        # reached only when the slot is unset: ``cover_maps`` of a
        # ``_deferred`` module before its first read
        if attr != "cover_maps" or self._pending is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        maps = self.cover_maps = self._complete(self._pending(), validate=False)
        self._pending = None
        return maps

    # -- validation ------------------------------------------------------

    def _check_functoriality(self):
        """At each b, the routes through two lower covers t0, t of b agree
        at every span (d, t0, t) of down(b) - b.  By induction on b this
        makes ``eval_map`` the one composite (see ``kan._window_sweep``).
        Where dims(b) = 0 or dims(d) = 0 both routes are maps with no
        cells, so only b in the support and spans with dims(d) > 0 are
        compared; b goes in canonical order, so the first failing (d, b)
        is the one a walk over every span would meet first."""
        poset, p, dims = self.poset, self.field.p, self.dims
        for b in self.support():
            _, spans = poset.local_spans(poset.down_mask(b) & ~(1 << poset.index(b)))
            for d, t0, t in spans:
                if dims[d] and not np.array_equal(
                        linalg.matmul(self.cover_maps[(t0, b)], self.eval_map(d, t0), p),
                        linalg.matmul(self.cover_maps[(t, b)], self.eval_map(d, t), p)):
                    raise FunctorialityError(d, b)

    # -- basic queries ---------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def eval_map(self, a: str, b: str) -> np.ndarray:
        """The composite structure map a -> b (identity when a == b).

        A memoized pair is returned at once: only comparable pairs are
        memoized.  Otherwise the route steps down from b, each time to the
        first lower cover inside a's up-set, until it meets a or a memoized
        pair (a, c); the products are then taken back up it, and every pair
        (a, x) on it is memoized.
        """
        cache = self._eval_cache
        m = cache.get((a, b))
        if m is not None:
            return m
        m = self.cover_maps.get((a, b))
        if m is not None:
            cache[(a, b)] = m
            return m
        poset = self.poset
        index = poset._index
        up_a = poset._up[poset.index(a)]
        if not up_a >> poset.index(b) & 1:
            raise NotComparable(f"{a!r} is not below {b!r}")
        if a == b:
            return linalg.identity(self.dims[a])
        route = []  # the covers (c, x) stepped down, top first
        x = b
        while m is None:
            for c in poset.covers_below(x):
                if up_a >> index[c] & 1:
                    break
            else:
                raise InternalError(f"no cover path from {a!r} to {b!r}")
            route.append((c, x))
            x = c
            m = linalg.identity(self.dims[a]) if x == a else cache.get((a, x))
        for c, x in reversed(route):
            m = linalg.matmul(self.cover_maps[(c, x)], m, self.field.p)
            cache[(a, x)] = m
        return m

    def support(self) -> ElementSet:
        return self.poset.subset_from_mask(self.support_mask)

    def __eq__(self, other):
        if not isinstance(other, PersModule):
            return NotImplemented
        return (self.poset == other.poset and self.field == other.field
                and self.dims == other.dims
                and all(np.array_equal(self.cover_maps[c], other.cover_maps[c])
                        for c in self.poset.covers))

    def __repr__(self):
        return f"PersModule({self.name!r} over {self.poset.name!r}, dims={self.dims})"


class ModuleMorphism:
    """A natural transformation between two modules over the same poset.

    Omitted components are zero maps; one with a zero end is the shared
    empty block of its shape (``linalg.zero_map``), so constructors omit
    those.  ``validate`` works as in PersModule: True coerces every
    component (``linalg.as_shaped``) and checks naturality on every cover,
    one pair of exact products per cover with cells on both sides; with
    False an int64 ``np.ndarray`` of the declared shape is stored as given
    (reduced mod p and never written afterwards, the caller promises), and
    anything else is still coerced and shape-checked.
    """

    __slots__ = ("source", "target", "components")

    def __init__(self, source: PersModule, target: PersModule, components,
                 *, validate=True):
        if source.poset != target.poset or source.field != target.field:
            raise MismatchedBase("morphism endpoints live over different bases")
        self.source = source
        self.target = target
        p = source.field.p
        given = dict(components)
        self.components = comps = {}
        for e in source.poset.elements:
            m, shape = given.get(e), (target.dims[e], source.dims[e])
            if m is None:
                m = linalg.zero_map(*shape)
            elif validate or not is_built(m, shape):
                m = linalg.as_shaped(m, shape, p, f"component at {e!r}")
            comps[e] = m
        if validate:
            self._check_naturality()

    def _check_naturality(self):
        """T(a <= b) C_a == C_b S(a <= b) on every cover a < b, for source S,
        target T and components C, in canonical order, raising at the first
        failing cover.  Where dims_T(b) or dims_S(a) is 0 both sides are
        maps with no cells, so those covers are skipped."""
        src, tgt, comps = self.source, self.target, self.components
        p = src.field.p
        for a, b in src.poset.covers:
            if tgt.dims[b] and src.dims[a] and not np.array_equal(
                    linalg.matmul(tgt.cover_maps[(a, b)], comps[a], p),
                    linalg.matmul(comps[b], src.cover_maps[(a, b)], p)):
                raise ValidationError(f"naturality fails on cover {(a, b)!r}")

    def __eq__(self, other):
        if not isinstance(other, ModuleMorphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and all(np.array_equal(self.components[e], other.components[e])
                        for e in self.source.poset.elements))

    def compose(self, inner: "ModuleMorphism") -> "ModuleMorphism":
        """self after inner.  A component through a zero space, or between
        zero spaces, is the zero map the constructor fills in, so products
        are taken only where all three spaces are non-zero."""
        if inner.target is not self.source and inner.target != self.source:
            raise MismatchedBase("composition endpoints do not match")
        p = self.source.field.p
        mask = inner.source.support_mask & self.source.support_mask & self.target.support_mask
        comps = {e: linalg.matmul(self.components[e], inner.components[e], p)
                 for e in self.source.poset.subset_from_mask(mask)}
        return ModuleMorphism(inner.source, self.target, comps, validate=False)

    @staticmethod
    def identity(m: PersModule) -> "ModuleMorphism":
        return ModuleMorphism(m, m, {e: linalg.identity(m.dims[e]) for e in m.support()},
                              validate=False)

    @staticmethod
    def zero(source: PersModule, target: PersModule) -> "ModuleMorphism":
        return ModuleMorphism(source, target, {}, validate=False)


def new_module(poset, field, dims, cover_maps, *, name="M") -> PersModule:
    """Validated module constructor (alias of the PersModule initializer)."""
    return PersModule(poset, field, dims, cover_maps, name=name)


def _full_rank_on(f: ModuleMorphism, m: PersModule) -> bool:
    """rank f(e) == dims_m(e) at every e, for m the source or target of
    f: true at once where dims_m(e) = 0, so only m's support is visited."""
    return all(linalg.rank(f.components[e], m.field.p) == m.dims[e] for e in m.support())


def is_epi(f: ModuleMorphism) -> bool:
    return _full_rank_on(f, f.target)


def is_mono(f: ModuleMorphism) -> bool:
    return _full_rank_on(f, f.source)


def is_iso(f: ModuleMorphism) -> bool:
    """Equal supports and a full-rank square component on them: a
    component between two zero spaces is an isomorphism, one with a
    single zero end is not."""
    return f.source.support_mask == f.target.support_mask and all(
        linalg.is_isomorphism(f.components[e], f.source.field.p) for e in f.source.support())


def interval_module(poset: Poset, interval, field: FieldSpec, *, name=None) -> PersModule:
    """Dimension 1 on the interval, identity maps inside, zero elsewhere."""
    i = poset.subset(interval)
    if not is_interval(poset, i):
        raise NotAnInterval(f"{sorted(i.ids())} is not betweenness-closed")
    dims = {e: 1 for e in i}
    maps = {}
    one = linalg.identity(1)
    for a, b in poset.covers:
        if a in i and b in i:
            maps[(a, b)] = one
    return PersModule(poset, field, dims, maps, name=name or "interval", validate=False)


def free_module(poset: Poset, c: str, multiplicity: int, field: FieldSpec,
                *, name=None) -> PersModule:
    """The representable module at c with the given multiplicity: dimension
    ``multiplicity`` on the upset of c, identity maps inside."""
    return free_sum(poset, [(c, multiplicity)], field, name=name)


def _bit_indices(mask: int, width: int) -> np.ndarray:
    """Indices of the set bits of a mask below ``width``, ascending."""
    raw = np.frombuffer(mask.to_bytes(-(-width // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").nonzero()[0]


def free_sum(poset: Poset, pieces, field: FieldSpec, *, name=None) -> PersModule:
    """The direct sum of the representables at e with multiplicity mult,
    for (e, mult) in ``pieces``, summands in that order.

    The space at c holds the summands of the pieces with e <= c, in order,
    and the map on a cover (a, b) is the 0/1 matrix sending each summand at
    a to the same summand at b.  The summands at c are those born at c and
    those at its lower covers, so one sweep in canonical order finds them
    all as bitmasks, and each distinct pair of bitmasks on a cover gets one
    matrix.  The result equals ``direct_sum(zero_module(poset,
    field), *(free_module(poset, e, mult, field) for e, mult in pieces))``,
    matrix bytes included.
    """
    return free_sum_layout(poset, pieces, field, name=name)[0]


def free_sum_layout(poset: Poset, pieces, field: FieldSpec, *,
                    name=None) -> tuple[PersModule, list[int]]:
    """``free_sum`` and its layout: for each element, in canonical order,
    the bitmask of the summands held there.  Summand k is bit k, and the
    space at c holds them in ascending order, so column j at c is the j-th
    set bit of its mask.

    The multiplicities are checked, and the dims, the support and the
    layout set, here; the 0/1 maps (``_inclusions``) are built the first
    time ``cover_maps`` is read, which a projective cover's onto check and
    fill sweep never do.  The layout list is read by those maps: callers
    do not write to it."""
    pieces = list(pieces)
    elems = [e for e, _ in pieces]
    pieces = list(zip(elems, linalg.as_dims([m for _, m in pieces], elems, "multiplicity")))
    held = [0] * len(poset)  # summand bitmask: born at each element, then held there
    total = 0
    for e, mult in pieces:
        held[poset.index(e)] |= ((1 << mult) - 1) << total
        total += mult
    index = poset._index
    for i, c in enumerate(poset.elements):
        for d in poset.covers_below(c):
            held[i] |= held[index[d]]
    dims = {c: h.bit_count() for c, h in zip(poset.elements, held)}
    name = name or "+".join(f"free({e},{mult})" for e, mult in pieces) or "0"
    build = functools.partial(_inclusions, poset, held, total)
    return PersModule._deferred(poset, field, dims, build, name=name), held


def _inclusions(poset: Poset, held: list[int], total: int) -> dict:
    """The maps of a ``free_sum_layout`` with ``total`` summands: on each
    cover (a, b) with summands at a, the 0/1 matrix sending each summand at
    a to the same summand at b, one shared matrix per distinct pair of
    summand bitmasks.  The zero maps are left to ``PersModule``."""
    index = poset._index
    maps, inclusions = {}, {}
    for a, b in poset.covers:
        key = (held[index[a]], held[index[b]])
        if not key[0]:
            continue
        if key not in inclusions:
            sub, sup = (_bit_indices(h, total) for h in key)
            inclusions[key] = (sup[:, None] == sub).astype(np.int64)
        maps[(a, b)] = inclusions[key]
    return maps


# cached: uncached, grid-fp and grid-sparse ops/s read 3.2% and 3.1% lower
# (1 of 10 paired 20 s runs better on each, 2-vCPU VM)
@functools.lru_cache(maxsize=4096)
def summand_columns(held: int, sub: int):
    """The columns, at an element of a ``free_sum_layout`` holding the
    summand bitmask ``held``, of the summands in ``sub`` (a subset of
    held): summand k sits at the number of held summands below k.  All of
    held is the full slice; otherwise a read-only index array."""
    if sub == held:
        return slice(None)
    cols = np.array([(held & ((1 << k) - 1)).bit_count() for k in _bits(sub)],
                    dtype=np.intp)
    cols.flags.writeable = False
    return cols


def direct_sum(first: PersModule, *rest: PersModule, name=None) -> PersModule:
    """The direct sum of one or more modules, summands in the given order."""
    summands = (first, *rest)
    if any(n.poset != first.poset or n.field != first.field for n in rest):
        raise MismatchedBase("direct sum over different bases")
    dims = {e: sum(n.dims[e] for n in summands) for e in first.poset.elements}
    maps = {(a, b): linalg.block_diag([n.cover_maps[(a, b)] for n in summands])
            for a, b in first.poset.covers if dims[a] and dims[b]}
    return PersModule(first.poset, first.field, dims, maps,
                      name=name or "+".join(n.name for n in summands),
                      validate=False)


def zero_module(poset: Poset, field: FieldSpec) -> PersModule:
    return PersModule(poset, field, {}, {}, name="0", validate=False)


def kernel_module(f: ModuleMorphism) -> tuple[PersModule, ModuleMorphism]:
    """Pointwise kernel with induced structure maps and its inclusion.

    The kernel basis at each element (``linalg.kernel_basis_with_free``)
    is the identity on its free rows.  Where the source is 0 the kernel is
    0, and where the target is 0 it is the whole source: the identity
    basis, every column free, with no elimination.  On a cover (a, b), with
    S the source, the map x solves bases[b] @ x = S(a <= b) @ bases[a] =:
    moved.  The free rows of bases[b] @ x are x itself, so the one candidate is
    moved's rows at b's free indices, read off without a solve.  It is
    the solution exactly when bases[b] @ x == moved, which holds when f
    is natural.  Where the target is 0 at both a and b, both bases are
    identities, so x is S(a <= b) itself and the check is an identity:
    the kernel shares the source's map there.  Every other cover is
    checked in stacked products (``linalg.matmul_stack``): covers with
    equal (dims_S(b), dims_S(a), dims_ker(a), dims_ker(b)) form one stack.
    A cover with dims_S(b) = 0 or dims_ker(a) = 0 has an empty map, which
    PersModule fills in.  A failing check raises InternalError at the
    first failing cover in canonical order.
    """
    p = f.source.field.p
    src, tdims = f.source, f.target.dims
    covers = src.poset.covers
    bases, free = {}, {}
    for e in src.support():
        if tdims[e]:
            kernel, free[e] = linalg.kernel_basis_with_free(f.components[e], p)
            bases[e] = kernel.basis
        else:
            bases[e], free[e] = linalg.identity(src.dims[e]), tuple(range(src.dims[e]))
    dims = {e: basis.shape[1] for e, basis in bases.items()}
    maps = {}
    groups = {}  # shape key -> indices into covers
    for k, (a, b) in enumerate(covers):
        key = (src.dims[b], src.dims[a], dims.get(a, 0), dims.get(b, 0))
        if not (key[0] and key[2]):
            continue  # the map is empty
        if tdims[a] or tdims[b]:
            groups.setdefault(key, []).append(k)
        else:
            maps[(a, b)] = src.cover_maps[(a, b)]
    failed = []
    # stacked products, chosen when grid-sparse built kernels; only `gpm
    # present` builds one now.  On grid-fp a loop over the covers read
    # ops/s 2% higher (260.3 against 255.0, median of 6 paired 10 s runs,
    # 5 higher; the four kernels 3.2 against 3.7 ms in-process, 2-vCPU VM)
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
    incl = ModuleMorphism(ker, src, bases, validate=False)
    return ker, incl


def cokernel_module(f: ModuleMorphism) -> tuple[PersModule, ModuleMorphism]:
    """Pointwise cokernel with induced structure maps and its projection."""
    p = f.source.field.p
    tgt = f.target
    dims, projs, free = {}, {}, {}
    for e in tgt.poset.elements:
        dims[e], projs[e], free[e] = linalg.cokernel(f.components[e], p)
    maps = {}
    for a, b in tgt.poset.covers:
        rhs = linalg.matmul(projs[b], tgt.cover_maps[(a, b)], p)
        maps[(a, b)] = linalg.factor(projs[a], free[a], rhs, p,
                                     f"cokernel map at cover {(a, b)!r}")
    cok = PersModule(tgt.poset, tgt.field, dims, maps,
                     name=f"coker({f.source.name})", validate=False)
    proj = ModuleMorphism(tgt, cok, projs, validate=False)
    return cok, proj


def hom_basis(m: PersModule, n: PersModule) -> list[ModuleMorphism]:
    """A basis of the space of morphisms m -> n.

    Solves the naturality constraints over all covers as one linear system;
    each kernel vector is reshaped into per-element component matrices.
    Its cells are counted from the dims first, and a system past
    ``linalg.CELL_LIMIT`` raises TooLargeError before anything is allocated.
    """
    if m.poset != n.poset or m.field != n.field:
        raise MismatchedBase("hom over different bases")
    p = m.field.p
    poset = m.poset
    offsets = {}
    total = 0
    for e in poset.elements:
        offsets[e] = total
        total += n.dims[e] * m.dims[e]
    cells = total * sum(n.dims[b] * m.dims[a] for a, b in poset.covers)
    if cells > linalg.CELL_LIMIT:
        raise TooLargeError(f"hom system needs {cells} cells, more than "
                            f"{linalg.CELL_LIMIT}")
    rows = []
    for a, b in poset.covers:
        block_rows = n.dims[b] * m.dims[a]
        if block_rows == 0:
            continue
        row = linalg.zeros(block_rows, total)
        # vec(f_b @ M_ab) = (I kron M_ab^T) vec(f_b), row-major vec
        if n.dims[b] and m.dims[b]:
            row[:, offsets[b]:offsets[b] + n.dims[b] * m.dims[b]] = np.kron(
                linalg.identity(n.dims[b]), m.cover_maps[(a, b)].T) % p
        if n.dims[a] and m.dims[a]:
            row[:, offsets[a]:offsets[a] + n.dims[a] * m.dims[a]] = (
                row[:, offsets[a]:offsets[a] + n.dims[a] * m.dims[a]]
                - np.kron(n.cover_maps[(a, b)], linalg.identity(m.dims[a]))) % p
        rows.append(row)
    system = linalg.vstack(rows, total)
    null = linalg.kernel_basis(system, p)
    out = []
    for k in range(null.dim):
        vec = null.basis[:, k]
        comps = {}
        for e in poset.elements:
            size = n.dims[e] * m.dims[e]
            comps[e] = vec[offsets[e]:offsets[e] + size].reshape(n.dims[e], m.dims[e])
        out.append(ModuleMorphism(m, n, comps, validate=False))
    return out


def hom_space_dim(m: PersModule, n: PersModule) -> int:
    return len(hom_basis(m, n))


def random_morphism(m: PersModule, n: PersModule, rng) -> ModuleMorphism:
    """A random point of the morphism space (zero if the space is zero)."""
    basis = hom_basis(m, n)
    p = m.field.p
    comps = {e: linalg.zeros(n.dims[e], m.dims[e]) for e in m.poset.elements}
    for f in basis:
        c = int(rng.integers(0, p))
        if c == 0:
            continue
        for e in m.poset.elements:
            comps[e] = (comps[e] + c * f.components[e]) % p
    return ModuleMorphism(m, n, comps, validate=False)


def _random_interval(poset: Poset, rng) -> ElementSet:
    """The interval [a, b] for a random a and a random b above it."""
    a = poset.elements[int(rng.integers(0, len(poset)))]
    up = up_set(poset, [a])
    ups = up.ids()
    b = ups[int(rng.integers(0, len(ups)))]
    return poset.subset_from_mask(up.mask & poset.down_mask(b))


def random_module(poset: Poset, max_dim: int, field: FieldSpec, seed,
                  generator: str = "solve") -> PersModule:
    """Deterministic random module.

    generator="intervals": a direct sum of a few interval and free modules.
    generator="solve": random dimensions, random maps on a spanning forest
        of the covers, remaining maps derived by solving the
        path-independence constraints; resamples on failure.
    """
    rng = np.random.default_rng(seed)
    if generator == "intervals":
        return _random_interval_sum(poset, max_dim, field, rng)
    if generator != "solve":
        raise ValidationError(f"unknown generator {generator!r}")
    for _ in range(50):
        m = _random_solved(poset, max_dim, field, rng)
        if m is not None:
            return m
    return _random_interval_sum(poset, max_dim, field, rng)


def _random_interval_sum(poset, max_dim, field, rng) -> PersModule:
    count = max(1, int(rng.integers(1, max(2, max_dim + 1))))
    pieces = []
    for _ in range(count):
        if rng.integers(0, 2) == 0:
            pieces.append(interval_module(poset, _random_interval(poset, rng), field))
        else:
            c = poset.elements[int(rng.integers(0, len(poset)))]
            pieces.append(free_module(poset, c, 1, field))
    return direct_sum(*pieces, name="random")


def _random_solved(poset, max_dim, field, rng) -> PersModule | None:
    p = field.p
    # one draw for every element: the values, and the generator's state
    # after them, are those of one scalar draw per element in turn
    draws = rng.integers(0, max_dim + 1, size=len(poset)).tolist()
    dims = dict(zip(poset.elements, draws))
    maps = {}
    # composites[(s, c)] = structure map s -> c fixed so far, for s < c
    composites = {}

    def composite(s, b):
        return linalg.identity(dims[b]) if s == b else composites[(s, b)]

    for c in poset.elements:
        below = poset.covers_below(c)
        fixed_into_c = {}
        for b in below:
            sources = poset.subset_from_mask(poset.down_mask(b)).members
            constrained = [s for s in sources if s in fixed_into_c]
            a_blocks = [composite(s, b).T for s in constrained]
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
                    fixed_into_c[s] = linalg.matmul(x, composite(s, b), p)
        for s, m in fixed_into_c.items():
            composites[(s, c)] = m
    return PersModule(poset, field, dims, maps, name="random", validate=False)
