"""Finite posets: construction, order queries, minimal upper bounds, closures.

Elements are opaque strings.  After construction a poset fixes one canonical
element order, (topological rank, identifier), and every derived object
(subsets, matrices, reports) is expressed in that order so results are
byte-reproducible.  Reachability is cached as one bitmask per element;
subsets are bitmasks too, so order queries are integer arithmetic.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    CycleError,
    EmptySetError,
    TooLargeError,
    UnknownElement,
    ValidationError,
)

HAT_SIZE_LIMIT = 20
# Each element holds two n-bit masks: about 25 MB in all at 10**4 elements,
# 2.5 GB at 10**5.
POSET_SIZE_LIMIT = 10**4
# Property M, the two hypotheses of the finitely-presented characterization,
# holds for every finite poset of n elements.  The upper bounds of any subset
# form a finite set, so they have at most n minimal elements (weakly
# bounded), and every upper bound lies above one of those minimal elements,
# since a finite set has no infinite descending chain (mub-complete).
PROPERTY_M = {"weakly_bounded": True, "mub_complete": True}


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """An immutable finite poset.

    Attributes:
        elements: element ids in canonical order (topo rank, then id).
        covers: the transitive reduction as (lower, upper) id pairs,
            sorted canonically.
        topo_rank: longest-chain-below rank per element, aligned with
            ``elements``.
    """

    __slots__ = ("elements", "covers", "topo_rank", "name",
                 "_index", "_up", "_down", "_cover_set", "_covers_above",
                 "_covers_below", "_spans")

    def __init__(self, elements, topo_rank, up, down, name="poset"):
        # Internal constructor: everything is given in canonical order, with
        # ``up[i]``/``down[i]`` the reachability bitmasks of elements[i].
        # Use build_poset().
        self.elements = tuple(elements)
        self.topo_rank = tuple(topo_rank)
        self.name = name
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._up = tuple(up)
        self._down = tuple(down)
        self.covers = tuple(self.cover_pairs_within(self.full_mask))
        self._cover_set = frozenset(self.covers)  # membership for module maps
        above = {e: [] for e in self.elements}
        below = {e: [] for e in self.elements}
        for a, b in self.covers:
            above[a].append(b)
            below[b].append(a)
        self._covers_above = {e: tuple(v) for e, v in above.items()}
        self._covers_below = {e: tuple(v) for e, v in below.items()}
        self._spans = {}  # local_spans by mask

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Poset({self.name!r}, {len(self)} elements, {len(self.covers)} covers)"

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.elements == other.elements
                and self._up == other._up)

    def __hash__(self):
        return hash((self.elements, self._up))

    def index(self, e: str) -> int:
        try:
            return self._index[e]
        except KeyError:
            raise UnknownElement(f"unknown element {e!r} in poset {self.name!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return bool(self._up[self.index(a)] >> self.index(b) & 1)

    def down_mask(self, e: str) -> int:
        return self._down[self.index(e)]

    @property
    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    def covers_above(self, e: str) -> tuple[str, ...]:
        return self._covers_above[e]

    def covers_below(self, e: str) -> tuple[str, ...]:
        return self._covers_below[e]

    def subset(self, ids) -> "ElementSet":
        if isinstance(ids, ElementSet):
            if ids.poset is self:
                return ids
            if ids.poset == self:
                # equal posets share the canonical order, so masks carry over
                return ElementSet(self, ids.mask)
            raise UnknownElement(f"subset belongs to poset {ids.poset.name!r}, "
                                 f"not {self.name!r}")
        mask = 0
        for e in ids:
            mask |= 1 << self.index(e)
        return ElementSet(self, mask)

    def subset_from_mask(self, mask: int) -> "ElementSet":
        return ElementSet(self, mask)

    def whole(self) -> "ElementSet":
        return ElementSet(self, self.full_mask)

    def empty(self) -> "ElementSet":
        return ElementSet(self, 0)

    def minimal_of_mask(self, mask: int) -> int:
        """Bitmask of the minimal elements of the given subset mask."""
        out = 0
        for i in _bits(mask):
            if mask & self._down[i] & ~(1 << i) == 0:
                out |= 1 << i
        return out

    def maximal_of_mask(self, mask: int) -> int:
        """Bitmask of the maximal elements of the given subset mask.

        The canonical order extends the partial order, so the highest
        index left is maximal; dropping its downset leaves the rest.
        """
        out = 0
        while mask:
            i = mask.bit_length() - 1
            out |= 1 << i
            mask &= ~self._down[i]
        return out

    def local_spans(self, mask: int):
        """The maximal elements ``tops`` of the subset mask, and its spans
        (d, t0, t): d maximal in mask & down(t1) & down(t2) for two tops,
        t0 the first top above d and t each later one, both as tuples.  A
        diagram on mask is its values at the tops glued along the spans
        (``kan._window_sweep``).  Only tops with something strictly below
        them in mask can share a d: a common lower bound of two distinct
        tops lies strictly below each.

        The result depends on the order and the mask alone, and the poset
        is immutable, so it is memoized by mask: a window that a module,
        its kernel and the functoriality check all present is scanned once.
        """
        found = self._spans.get(mask)
        if found is not None:
            return found
        names, down = self.elements, self._down
        tops = list(_bits(self.maximal_of_mask(mask)))
        low = [t for t in tops if mask & down[t] & ~(1 << t)]
        common = {d for k, t1 in enumerate(low) for t2 in low[k + 1:]
                  for d in _bits(self.maximal_of_mask(mask & down[t1] & down[t2]))}
        spans = []
        for d in sorted(common):
            t0, *later = [t for t in tops if down[t] >> d & 1]
            spans += [(names[d], names[t0], names[t]) for t in later]
        found = self._spans[mask] = (tuple(names[t] for t in tops), tuple(spans))
        return found

    def cover_pairs_within(self, mask: int) -> list[tuple[str, str]]:
        """Transitive reduction of the order induced on the subset mask, in
        canonical order: the lower covers of b are the maximal elements of
        (down(b) & mask) - b, the tops of its ``local_spans``, found as in
        ``maximal_of_mask``.  Each is put in the bucket of its lower end as
        b ascends, so the buckets, read in ascending order, give the pairs
        in canonical order without sorting them."""
        names, down = self.elements, self._down
        above = {}  # lower end -> its upper covers in mask, ascending
        for b in _bits(mask):
            below = mask & down[b] & ~(1 << b)
            while below:
                a = below.bit_length() - 1
                below &= ~down[a]
                above.setdefault(a, []).append(b)
        return [(names[a], names[b]) for a in sorted(above) for b in above[a]]


class ElementSet:
    """A subset of a poset's elements, iterated in canonical order."""

    __slots__ = ("poset", "mask", "_members")

    def __init__(self, poset: Poset, mask: int):
        self.poset = poset
        self.mask = mask
        self._members = None

    @property
    def members(self) -> tuple[str, ...]:
        if self._members is None:
            self._members = tuple(self.poset.elements[i] for i in _bits(self.mask))
        return self._members

    def ids(self) -> list[str]:
        return list(self.members)

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, e: str) -> bool:
        i = self.poset._index.get(e)
        return i is not None and bool(self.mask >> i & 1)

    def __eq__(self, other):
        if isinstance(other, ElementSet):
            return self.poset == other.poset and self.mask == other.mask
        return NotImplemented

    def __hash__(self):
        return hash((self.poset, self.mask))

    def __repr__(self):
        return f"ElementSet({{{', '.join(self.members)}}})"

    def union(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.poset, self.mask | other.mask)

    def difference(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.poset, self.mask & ~other.mask)


def build_poset(elements, relations, name="poset") -> Poset:
    """Build a poset from element ids and 'first <= second' pairs.

    The reflexive-transitive closure of the pairs becomes the order; the
    stored cover relation is its transitive reduction.  Raises CycleError
    if the closure is not antisymmetric and UnknownElement for dangling
    references.
    """
    ids = list(elements)
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate element identifiers")
    index = {e: i for i, e in enumerate(ids)}
    n = len(ids)
    succ = [set() for _ in range(n)]
    for a, b in relations:
        try:
            i, j = index[a], index[b]
        except KeyError:
            x = a if a not in index else b
            raise UnknownElement(f"relation references unknown element {x!r}") from None
        if i != j:
            succ[i].add(j)
    indeg = [0] * n
    for i in range(n):
        for j in succ[i]:
            indeg[j] += 1
    # Kahn's pass also takes the longest-chain rank: a longest chain is a
    # chain of covers, and every cover is an input pair.
    rank = [0] * n
    queue = [i for i in range(n) if indeg[i] == 0]
    done = 0
    while queue:
        i = queue.pop()
        done += 1
        for j in succ[i]:
            rank[j] = max(rank[j], rank[i] + 1)
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if done != n:
        cyclic = [ids[i] for i in range(n) if indeg[i] > 0]
        raise CycleError(f"relation closure is cyclic through {cyclic[:4]}")
    # The canonical order (rank, id) is a linear extension, so up-sets close
    # over successors from the last element back and down-sets over
    # predecessors from the first on, both in canonical indices.
    order = sorted(range(n), key=lambda i: (rank[i], ids[i]))
    pos = {old: new for new, old in enumerate(order)}
    up = [0] * n
    pred = [[] for _ in range(n)]
    for i in reversed(range(n)):
        m = 1 << i
        for j in succ[order[i]]:
            m |= up[pos[j]]
            pred[pos[j]].append(i)
        up[i] = m
    down = [0] * n
    for i in range(n):
        m = 1 << i
        for j in pred[i]:
            m |= down[j]
        down[i] = m
    return Poset([ids[i] for i in order], [rank[i] for i in order], up, down,
                 name=name)


def up_set(p: Poset, s) -> ElementSet:
    """The upset generated by s: all c with some member below c."""
    s = p.subset(s)
    mask = 0
    for i in _bits(s.mask):
        mask |= p._up[i]
    return ElementSet(p, mask)


def down_set(p: Poset, s) -> ElementSet:
    """The downset cogenerated by s."""
    s = p.subset(s)
    mask = 0
    for i in _bits(s.mask):
        mask |= p._down[i]
    return ElementSet(p, mask)


def upper_bound_mask(p: Poset, mask: int) -> int:
    out = p.full_mask
    for i in _bits(mask):
        out &= p._up[i]
    return out


def mub(p: Poset, s) -> ElementSet:
    """Minimal upper bounds of a nonempty subset."""
    s = p.subset(s)
    if s.mask == 0:
        raise EmptySetError("mub of the empty set")
    ub = upper_bound_mask(p, s.mask)
    return ElementSet(p, p.minimal_of_mask(ub))


def hat(p: Poset, s) -> ElementSet:
    """Union of mub over every nonempty subset of s (the singleton subsets
    put s itself inside the result).

    c lies in mub(T) for some nonempty T exactly when T_c = s & down(c) is
    nonempty and no lower cover d of c has s & down(d) == T_c.  T_c is the
    largest T that c bounds, and an upper bound e < c of T_c would put T_c
    below the lower cover of c above e.  So one pass over up(s) replaces
    the enumeration of all 2**|s| subsets.
    """
    s = p.subset(s)
    k = len(s)
    if k > HAT_SIZE_LIMIT:
        raise TooLargeError(f"hat() guard: |S| = {k} > {HAT_SIZE_LIMIT}")
    down, index = p._down, p._index
    out = 0
    for c in _bits(up_set(p, s).mask):
        below = down[c] & s.mask
        if all(down[index[d]] & s.mask != below
               for d in p.covers_below(p.elements[c])):
            out |= 1 << c
    return ElementSet(p, out)


def is_interval(p: Poset, i) -> bool:
    """Betweenness closure: a, b in I and a <= c <= b imply c in I."""
    i = p.subset(i)
    if i.mask == 0:
        raise EmptySetError("is_interval of the empty set")
    for c in range(len(p)):
        if i.mask >> c & 1:
            continue
        if (p._down[c] & i.mask) and (p._up[c] & i.mask):
            return False
    return True


def is_connected(p: Poset, s) -> bool:
    """Connectivity of the comparability graph induced on the subset.

    The empty subset counts as not connected.
    """
    s = p.subset(s)
    if s.mask == 0:
        return False
    members = list(_bits(s.mask))
    start = members[0]
    seen = 1 << start
    frontier = [start]
    while frontier:
        a = frontier.pop()
        reach = (p._up[a] | p._down[a]) & s.mask & ~seen
        for b in _bits(reach):
            seen |= 1 << b
            frontier.append(b)
    return seen == s.mask


def grid_id(coord) -> str:
    return "(" + ",".join(str(c) for c in coord) + ")"


def grid_coord(e: str) -> tuple[int, ...]:
    return tuple(int(t) for t in e.strip("()").split(","))


def _grid_covers(dims) -> tuple[list[str], list[tuple[str, str]]]:
    """Ids of the grid of the given shape in lexicographic coordinate order,
    and its covers: each element with its successor along every axis."""
    coords = list(itertools.product(*(range(d) for d in dims)))
    ids = [grid_id(c) for c in coords]
    strides = [math.prod(dims[axis + 1:]) for axis in range(len(dims))]
    pairs = [(ids[i], ids[i + stride]) for i, c in enumerate(coords)
             for axis, stride in enumerate(strides) if c[axis] + 1 < dims[axis]]
    return ids, pairs


def grid_poset(dims) -> Poset:
    """Product of chains with the componentwise order.

    Element ids are coordinate tuples rendered as "(i,j,...)".
    """
    dims = list(dims)
    if not dims or any(d < 1 for d in dims):
        raise ValidationError("grid dimensions must be positive")
    total = math.prod(dims)
    if total > POSET_SIZE_LIMIT:
        raise TooLargeError(f"grid size {total} exceeds {POSET_SIZE_LIMIT}")
    ids, pairs = _grid_covers(dims)
    return build_poset(ids, pairs, name="grid" + "x".join(str(d) for d in dims))


def chain(n: int) -> Poset:
    """The chain 0 < 1 < ... < n-1."""
    if n < 1:
        raise ValidationError("chain length must be positive")
    ids = [str(i) for i in range(n)]
    rels = [(str(i), str(i + 1)) for i in range(n - 1)]
    return build_poset(ids, rels, name=f"chain{n}")


def as_grid_shape(p: Poset) -> tuple[int, ...] | None:
    """Recognize a grid poset structurally; returns its shape or None."""
    try:
        coords = [grid_coord(e) for e in p.elements]
    except (ValueError, AttributeError):
        return None
    if not coords:
        return None
    arity = len(coords[0])
    if any(len(c) != arity or any(x < 0 for x in c) for c in coords):
        return None
    dims = tuple(max(c[a] for c in coords) + 1 for a in range(arity))
    if math.prod(dims) != len(p.elements) or len(set(coords)) != len(coords):
        return None
    if set(p.covers) != set(_grid_covers(dims)[1]):
        return None
    return dims
