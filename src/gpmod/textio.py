"""Line-oriented text formats for posets, modules, monoids, acts and
graded algebras, plus canonical serializers.

A file holds one or more blocks.  A block starts with its kind keyword and
an optional name and consumes directive lines until the next block:

    poset P              module M over P field 101
    elem a               space a 1
    rel a b              map a b [1 0 ; 2 3]

    monoid G             act A over G          algebra S over G field 101
    elem 1               point x               basis u deg 1
    mul 1 1 1            apply g x y           mul u u = u

'#' starts a comment.  Matrices are row-major bracketed integers with ';'
between rows; a flat list is accepted when the shape is known.  Unnamed
blocks are named after the file stem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    GpmodError,
    InputTooLarge,
    ParseError,
    UnknownElement,
    ValidationError,
)
from .graded import GAct, GradedAlgebra, Monoid
from .linalg import CELL_LIMIT, FieldSpec, NoSolution, solve, zeros
from .modules import PersModule
from .posets import POSET_SIZE_LIMIT, Poset, build_poset

# Parse-time size guards, checked line by line before anything is
# allocated: elements of one poset (``posets.POSET_SIZE_LIMIT``), the
# dimension at one element (validation builds its identity matrix), and
# the cells of one module's cover maps together (``linalg.CELL_LIMIT``).
# That limit also bounds the n**3 cells of a monoid's associativity check,
# the |G|**2 * |A| of an act's and the 2 * d**3 of an algebra's unit system.
DIM_LIMIT = 4096


@dataclass
class Workspace:
    posets: dict = dc_field(default_factory=dict)
    modules: dict = dc_field(default_factory=dict)
    monoids: dict = dc_field(default_factory=dict)
    acts: dict = dc_field(default_factory=dict)
    algebras: dict = dc_field(default_factory=dict)

    def single(self, kind: str, requested: str | None = None):
        table = getattr(self, kind + "s")
        if requested is not None:
            if requested not in table:
                raise UnknownElement(f"no {kind} named {requested!r} loaded")
            return table[requested]
        if len(table) != 1:
            raise UnknownElement(
                f"{len(table)} {kind}s loaded; pick one of {sorted(table)}")
        return next(iter(table.values()))


def _parse_matrix_tokens(tokens: list[str], line_no: int, p: int) -> list[list[int]]:
    text = " ".join(tokens)
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(line_no, "matrix literal must be bracketed")
    body = text[1:-1].strip()
    rows = []
    for chunk in body.split(";"):
        chunk = chunk.strip()
        entries = []
        for tok in chunk.split():
            try:
                entries.append(int(tok) % p)
            except ValueError:
                raise ParseError(line_no, f"bad matrix entry {tok!r}") from None
        rows.append(entries)
    return rows


def _shape_matrix(rows, shape, line_no):
    """``rows`` as an array of the given shape.  A literal with no ``;`` is
    one row (``_parse_matrix_tokens`` splits at each ``;``), read flat in
    row-major order; one with a ``;`` must have exactly the shape's rows."""
    r, c = shape
    if len(rows) == 1:
        flat = rows[0]
        if len(flat) != r * c:
            raise ParseError(line_no, f"expected {r * c} entries for shape {shape}, "
                                      f"got {len(flat)}")
        return np.array(flat, dtype=np.int64).reshape(r, c) if r * c else zeros(r, c)
    if len(rows) != r or any(len(row) != c for row in rows):
        raise ParseError(line_no, f"expected shape {shape}")
    return np.array(rows, dtype=np.int64).reshape(r, c) if r * c else zeros(r, c)


def _parse_lin_combo(text: str, syms: dict, dim: int, line_no: int,
                     p: int) -> np.ndarray:
    out = np.zeros(dim, dtype=np.int64)
    text = text.strip()
    if text == "0":
        return out
    for term in text.split("+"):
        parts = term.split()
        if len(parts) == 1:
            coeff, sym = 1, parts[0]
        elif len(parts) == 2:
            try:
                coeff = int(parts[0])
            except ValueError:
                raise ParseError(line_no, f"bad coefficient {parts[0]!r}") from None
            sym = parts[1]
        else:
            raise ParseError(line_no, f"bad term {term.strip()!r}")
        if sym not in syms:
            raise ParseError(line_no, f"unknown basis symbol {sym!r}")
        out[syms[sym]] = (out[syms[sym]] + coeff % p) % p
    return out


class _Block:
    def __init__(self, kind, name, line_no, header):
        self.kind = kind
        self.name = name
        self.line_no = line_no
        self.header = header
        self.lines = []  # (line_no, tokens, the line with its comment cut)


def _split_blocks(text: str, stem: str):
    blocks = []
    anon_counts = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] in _PARSERS:
            kind = tokens[0]
            name = None
            rest = tokens[1:]
            if rest and rest[0] not in ("over", "field"):
                name = rest[0]
                rest = rest[1:]
            if name is None:
                k = anon_counts.get(kind, 0)
                anon_counts[kind] = k + 1
                name = stem if k == 0 else f"{stem}.{k}"
            blocks.append(_Block(kind, name, line_no, rest))
        else:
            if not blocks:
                raise ParseError(line_no, f"directive {tokens[0]!r} outside a block")
            blocks[-1].lines.append((line_no, tokens, line))
    return blocks


def _header_option(header, key, line_no):
    if key in header:
        i = header.index(key)
        if i + 1 >= len(header):
            raise ParseError(line_no, f"missing value after {key!r}")
        return header[i + 1]
    return None


def _header_field(block, default_field: int) -> FieldSpec:
    """The block's ``field p`` (else the default, the CLI's ``--field``);
    anything but a prime in [2, 2**31) is a ParseError at the header line,
    naming the header's text or the default it tried."""
    text = _header_option(block.header, "field", block.line_no)
    try:
        return FieldSpec(int(text) if text else default_field)
    except ValueError:
        got = repr(text) if text else f"{default_field!r} from --field"
        raise ParseError(block.line_no, f"field must be a prime in [2, 2**31), "
                                        f"got {got}") from None


def _over(block, table: dict, kind: str):
    """The block's ``over`` target, looked up in table; a missing or unknown
    target is a ParseError at the header line."""
    name = _header_option(block.header, "over", block.line_no)
    if name is None:
        raise ParseError(block.line_no, f"{block.kind} needs 'over <{kind}>'")
    if name not in table:
        raise ParseError(block.line_no,
                         f"{block.kind} references unknown {kind} {name!r}")
    return table[name]


def _check_cells(cells: int, line_no: int, owner: str, noun: str = "cells"):
    if cells > CELL_LIMIT:
        raise InputTooLarge(line_no, f"{owner} needs {cells} {noun}, more than "
                                     f"{CELL_LIMIT}")


def _parse_poset(block, ws: Workspace, default_field: int) -> Poset:
    elements, relations = [], []
    for line_no, tokens, _ in block.lines:
        if tokens[0] == "elem" and len(tokens) == 2:
            if len(elements) == POSET_SIZE_LIMIT:
                raise InputTooLarge(line_no, f"poset {block.name!r} has more than "
                                             f"{POSET_SIZE_LIMIT} elements")
            elements.append(tokens[1])
        elif tokens[0] == "rel" and len(tokens) == 3:
            relations.append((tokens[1], tokens[2]))
        else:
            raise ParseError(line_no, f"bad poset directive {tokens[0]!r}")
    try:
        return build_poset(elements, relations, name=block.name)
    except (UnknownElement, ValidationError):
        # build_poset checks every relation's ends, after the ids are found
        # distinct; a relation with an unknown end is named at its line,
        # ahead of a duplicate id
        known = set(elements)
        for line_no, tokens, _ in block.lines:
            for x in tokens[1:] if tokens[0] == "rel" else ():
                if x not in known:
                    raise ParseError(line_no, f"relation references unknown "
                                              f"element {x!r}") from None
        raise


def _parse_module(block, ws: Workspace, default_field: int) -> PersModule:
    poset = _over(block, ws.posets, "poset")
    field = _header_field(block, default_field)
    dims = {}
    get = dims.get
    cells = 0  # sum of dims[a] * dims[b] over the covers a < b
    raw_maps = []
    for line_no, tokens, _ in block.lines:
        if tokens[0] == "space" and len(tokens) == 3:
            e = tokens[1]
            if e not in poset._index:
                raise ParseError(line_no, f"unknown element {e!r}")
            try:
                dim = int(tokens[2])
            except ValueError:
                dim = -1
            if dim < 0:
                raise ParseError(line_no, f"dimension at {e!r} must be a "
                                          f"non-negative integer, got {tokens[2]!r}")
            if dim > DIM_LIMIT:
                raise InputTooLarge(line_no, f"dimension {dim} at {e!r} exceeds "
                                             f"{DIM_LIMIT}")
            cells += (dim - get(e, 0)) * (sum(get(x, 0) for x in poset.covers_below(e))
                                          + sum(get(x, 0) for x in poset.covers_above(e)))
            _check_cells(cells, line_no, f"module {block.name!r}", "cover-map cells")
            dims[e] = dim
        elif tokens[0] == "map" and len(tokens) >= 4:
            raw_maps.append((line_no, tokens[1], tokens[2], tokens[3:]))
        else:
            raise ParseError(line_no, f"bad module directive {tokens[0]!r}")
    maps = {}
    for line_no, a, b, mtokens in raw_maps:
        if a not in poset._index or b not in poset._index:
            raise ParseError(line_no, f"unknown element in map {a!r} {b!r}")
        if (a, b) not in poset._cover_set:
            raise ParseError(line_no, f"{(a, b)!r} is not a cover")
        rows = _parse_matrix_tokens(mtokens, line_no, field.p)
        shape = (dims.get(b, 0), dims.get(a, 0))
        maps[(a, b)] = _shape_matrix(rows, shape, line_no)
    # every map is an int64 array of its cover's shape, reduced mod p, so
    # it is stored as given; only functoriality is left to check
    m = PersModule(poset, field, dims, maps, name=block.name, validate=False)
    m._check_functoriality()
    return m


def _parse_monoid(block, ws: Workspace, default_field: int) -> Monoid:
    names = []
    products = []
    for line_no, tokens, _ in block.lines:
        if tokens[0] == "elem" and len(tokens) == 2:
            _check_cells((len(names) + 1) ** 3, line_no, f"monoid {block.name!r}")
            names.append(tokens[1])
        elif tokens[0] == "mul" and len(tokens) == 4:
            products.append((line_no, tokens[1], tokens[2], tokens[3]))
        else:
            raise ParseError(line_no, f"bad monoid directive {tokens[0]!r}")
    index = {e: i for i, e in enumerate(names)}
    n = len(names)
    table = -np.ones((n, n), dtype=np.int64)
    for line_no, a, b, c in products:
        for x in (a, b, c):
            if x not in index:
                raise ParseError(line_no, f"unknown monoid element {x!r}")
        table[index[a], index[b]] = index[c]
    missing = np.argwhere(table < 0)
    if missing.size:
        i, j = missing[0]
        raise ParseError(block.line_no,
                         f"product {names[i]!r}*{names[j]!r} undefined")
    return Monoid(names, table, name=block.name)


def _parse_act(block, ws: Workspace, default_field: int) -> GAct:
    mon = _over(block, ws.monoids, "monoid")
    points = []
    applications = []
    for line_no, tokens, _ in block.lines:
        if tokens[0] == "point" and len(tokens) == 2:
            _check_cells(len(mon) ** 2 * (len(points) + 1), line_no,
                         f"act {block.name!r}")
            points.append(tokens[1])
        elif tokens[0] == "apply" and len(tokens) == 4:
            applications.append((line_no, tokens[1], tokens[2], tokens[3]))
        else:
            raise ParseError(line_no, f"bad act directive {tokens[0]!r}")
    p_index = {a: i for i, a in enumerate(points)}
    g_index = {g: i for i, g in enumerate(mon.names)}
    table = -np.ones((len(mon), len(points)), dtype=np.int64)
    table[mon.unit] = np.arange(len(points))
    for line_no, g, a, b in applications:
        if g not in g_index:
            raise ParseError(line_no, f"unknown monoid element {g!r}")
        if a not in p_index or b not in p_index:
            raise ParseError(line_no, "unknown point in apply")
        table[g_index[g], p_index[a]] = p_index[b]
    missing = np.argwhere(table < 0)
    if missing.size:
        g, a = missing[0]
        raise ParseError(block.line_no,
                         f"action of {mon.names[g]!r} on {points[a]!r} undefined")
    return GAct(mon, points, table, name=block.name)


def _parse_algebra(block, ws: Workspace, default_field: int) -> GradedAlgebra:
    mon = _over(block, ws.monoids, "monoid")
    field = _header_field(block, default_field)
    syms, degs = [], []
    mul_lines = []
    g_index = {g: i for i, g in enumerate(mon.names)}
    for line_no, tokens, raw in block.lines:
        if tokens[0] == "basis" and len(tokens) == 4 and tokens[2] == "deg":
            if tokens[3] not in g_index:
                raise ParseError(line_no, f"unknown degree {tokens[3]!r}")
            _check_cells(2 * (len(syms) + 1) ** 3, line_no, f"algebra {block.name!r}")
            syms.append(tokens[1])
            degs.append(g_index[tokens[3]])
        elif tokens[0] == "mul" and "=" in raw:
            mul_lines.append((line_no, tokens, raw))
        else:
            raise ParseError(line_no, f"bad algebra directive {tokens[0]!r}")
    s_index = {s: i for i, s in enumerate(syms)}
    d = len(syms)
    mult = np.zeros((d, d, d), dtype=np.int64)
    for line_no, tokens, raw in mul_lines:
        head, _, combo = raw.partition("=")
        parts = head.split()
        if len(parts) != 3:
            raise ParseError(line_no, "mul needs two basis symbols")
        _, a, b = parts
        if a not in s_index or b not in s_index:
            raise ParseError(line_no, "unknown basis symbol in mul")
        mult[s_index[a], s_index[b]] = _parse_lin_combo(combo, s_index, d, line_no,
                                                        field.p)
    unit = _solve_unit(mult, d, field.p, block.line_no)
    return GradedAlgebra(field, mon, syms, degs, mult, unit, name=block.name)


def _solve_unit(mult: np.ndarray, d: int, p: int, line_no: int) -> np.ndarray:
    """Find the two-sided unit vector from the structure constants."""
    rows = []
    rhs = []
    for j in range(d):
        for k in range(d):
            rows.append(mult[:, j, k])
            rhs.append(1 if j == k else 0)
            rows.append(mult[j, :, k])
            rhs.append(1 if j == k else 0)
    if not rows:
        raise ParseError(line_no, "algebra needs at least one basis element")
    a = np.mod(np.array(rows, dtype=np.int64), p)
    b = np.mod(np.array(rhs, dtype=np.int64).reshape(-1, 1), p)
    try:
        return solve(a, b, p)[:, 0]
    except NoSolution:
        raise ParseError(line_no, "algebra has no two-sided unit") from None


# the block kinds, each with its parser, called as parser(block, ws, default_field)
_PARSERS = {"poset": _parse_poset, "module": _parse_module,
            "monoid": _parse_monoid, "act": _parse_act, "algebra": _parse_algebra}


def parse_text(text: str, stem: str = "ws", workspace: Workspace | None = None,
               default_field: int = 101) -> Workspace:
    """Parse every block into the workspace.  Any failure is a ParseError:
    one raised while a block is built (a cycle, an axiom, functoriality)
    names the block's header line."""
    ws = workspace if workspace is not None else Workspace()
    for block in _split_blocks(text, stem):
        try:
            parsed = _PARSERS[block.kind](block, ws, default_field)
        except ParseError:
            raise
        except GpmodError as exc:
            raise ParseError(block.line_no, str(exc)) from exc
        getattr(ws, block.kind + "s")[block.name] = parsed
    return ws


def parse_path(path, workspace: Workspace | None = None,
               default_field: int = 101) -> Workspace:
    import pathlib

    path = pathlib.Path(path)
    return parse_text(path.read_text(), stem=path.stem, workspace=workspace,
                      default_field=default_field)


# ---------------------------------------------------------------------------
# canonical serializers


def matrix_literal(m: np.ndarray) -> str:
    rows = [" ".join(str(int(x)) for x in row) for row in m]
    return "[" + " ; ".join(rows) + "]"


def serialize_poset(p: Poset, name: str | None = None) -> str:
    out = [f"poset {name or p.name}"]
    out += [f"elem {e}" for e in p.elements]
    out += [f"rel {a} {b}" for a, b in p.covers]
    return "\n".join(out) + "\n"


def serialize_module(m: PersModule, name: str | None = None,
                     poset_name: str | None = None) -> str:
    out = [f"module {name or m.name} over {poset_name or m.poset.name} "
           f"field {m.field.p}"]
    for e in m.poset.elements:
        if m.dims[e]:
            out.append(f"space {e} {m.dims[e]}")
    for (a, b) in m.poset.covers:
        mat = m.cover_maps[(a, b)]
        if mat.size and np.any(mat):
            out.append(f"map {a} {b} {matrix_literal(mat)}")
    return "\n".join(out) + "\n"


def serialize_monoid(mon: Monoid, name: str | None = None) -> str:
    out = [f"monoid {name or mon.name}"]
    out += [f"elem {e}" for e in mon.names]
    for i, a in enumerate(mon.names):
        for j, b in enumerate(mon.names):
            out.append(f"mul {a} {b} {mon.names[mon.mul(i, j)]}")
    return "\n".join(out) + "\n"


def serialize_act(act: GAct, name: str | None = None,
                  monoid_name: str | None = None) -> str:
    out = [f"act {name or act.name} over {monoid_name or act.monoid.name}"]
    out += [f"point {a}" for a in act.points]
    for g, gname in enumerate(act.monoid.names):
        for a, aname in enumerate(act.points):
            out.append(f"apply {gname} {aname} {act.points[act.act(g, a)]}")
    return "\n".join(out) + "\n"


def serialize_algebra(alg: GradedAlgebra, name: str | None = None,
                      monoid_name: str | None = None) -> str:
    out = [f"algebra {name or alg.name} over {monoid_name or alg.monoid.name} "
           f"field {alg.field.p}"]
    for s, d in zip(alg.syms, alg.degs):
        out.append(f"basis {s} deg {alg.monoid.names[d]}")
    for i, a in enumerate(alg.syms):
        for j, b in enumerate(alg.syms):
            vec = alg.mult[i, j]
            if np.any(vec):
                combo = " + ".join(
                    (f"{int(c)} {alg.syms[k]}" if c != 1 else alg.syms[k])
                    for k, c in enumerate(vec) if c)
                out.append(f"mul {a} {b} = {combo}")
    return "\n".join(out) + "\n"


def to_json(obj) -> str:
    """Canonical JSON rendering: sorted keys, stable separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
