import contextlib
import copy
import io
import json
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmod import cli
from gpmod import graded as gr
from gpmod.errors import GpmodError, ParseError, TooLargeError
from gpmod.graded import regular_act, cyclic_monoid, monoid_algebra
from gpmod.modules import direct_sum, free_module, new_module, random_module
from gpmod.posets import PROPERTY_M, chain, grid_poset
from gpmod.textio import (
    CELL_LIMIT,
    DIM_LIMIT,
    POSET_SIZE_LIMIT,
    parse_text,
    serialize_act,
    serialize_algebra,
    serialize_module,
    serialize_monoid,
    serialize_poset,
    to_json,
)
from gpmod.verify import HARD_CAPS, VerifyConfig, random_poset

REPO = pathlib.Path(__file__).resolve().parent.parent

POSET_TEXT = """
# a diamond
poset D
elem a
elem b
elem c
elem d
rel a b
rel a c
rel b d
rel c d
"""

MODULE_TEXT = POSET_TEXT + """
module M over D field 101
space b 1
space c 1
space d 1
map b d [1]
map c d [1]
"""

GRADED_TEXT = """
monoid G
elem 1
elem g
mul 1 1 1
mul 1 g g
mul g 1 g
mul g g 1

act A over G
point x
point y
apply g x y
apply g y x

algebra S over G field 101
basis u deg 1
basis v deg g
mul u u = u
mul u v = v
mul v u = v
mul v v = u
"""


def test_parse_poset():
    ws = parse_text(POSET_TEXT, stem="f")
    p = ws.posets["D"]
    assert set(p.covers) == {("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")}


def test_parse_module():
    ws = parse_text(MODULE_TEXT, stem="f")
    m = ws.modules["M"]
    assert m.dims["b"] == 1 and m.dims["a"] == 0
    assert m.cover_maps[("b", "d")].tolist() == [[1]]
    # omitted covers default to the zero map
    assert not np.any(m.cover_maps[("a", "b")])


def test_parse_module_bad_shape():
    bad = MODULE_TEXT.replace("map b d [1]", "map b d [1 2 ; 3 4]")
    with pytest.raises(ParseError) as err:
        parse_text(bad, stem="f")
    assert err.value.line_no > 0


def test_parse_module_unknown_poset():
    with pytest.raises(ParseError) as err:
        parse_text("module M over NOPE field 5\nspace a 1", stem="f")
    assert err.value.line_no == 1
    assert "unknown poset 'NOPE'" in str(err.value)


# (block header, valid line, broken line): an unknown or missing ``over``
# target, and blocks that parse but fail their axioms or functoriality
BROKEN_BLOCKS = {
    "act-unknown-monoid": ("act A over H", "act A over G", "act A over H"),
    "act-without-over": ("act A", "act A over G", "act A"),
    "algebra-unknown-monoid": ("algebra S over H field 101",
                               "algebra S over G field 101",
                               "algebra S over H field 101"),
    "module-without-over": ("module M field 101", "module M over D field 101",
                            "module M field 101"),
    "monoid": ("monoid G", "mul g 1 g", "mul g 1 1"),
    "act": ("act A over G", "apply g y x", "apply g y y"),
    "algebra": ("algebra S over G field 101", "mul v v = u", "mul v v = v"),
    "module": ("module M over D field 101", "map c d [1]",
               "map c d [2]\nspace a 1\nmap a b [1]\nmap a c [1]"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_BLOCKS))
def test_block_failures_name_their_header(case):
    header, good, bad = BROKEN_BLOCKS[case]
    text = (MODULE_TEXT + GRADED_TEXT).replace(good, bad)
    assert text != MODULE_TEXT + GRADED_TEXT
    with pytest.raises(ParseError) as err:
        parse_text(text, stem="f")
    assert err.value.line_no == text.splitlines().index(header) + 1
    assert str(err.value).startswith(f"line {err.value.line_no}: ")


def test_parse_matrix_flat_and_rows():
    text = POSET_TEXT + """
module M over D field 7
space a 1
space b 2
map a b [1 2]
"""
    ws = parse_text(text, stem="f")
    assert ws.modules["M"].cover_maps[("a", "b")].tolist() == [[1], [2]]
    text2 = text.replace("[1 2]", "[1 ; 2]")
    ws2 = parse_text(text2, stem="f")
    assert ws2.modules["M"].cover_maps[("a", "b")].tolist() == [[1], [2]]


# (map literal, error message): a literal with no ';' is read flat, one
# with a ';' row by row; the map b d has shape (1, 1), a b shape (1, 0)
MAP_LITERAL_ERRORS = [
    ("[1 2]", "expected 1 entries for shape (1, 1), got 2"),
    ("[]", "expected 1 entries for shape (1, 1), got 0"),
    ("[1 ; 2]", "expected shape (1, 1)"),
    ("[1 ;]", "expected shape (1, 1)"),
    ("[;]", "expected shape (1, 1)"),
    ("1]", "matrix literal must be bracketed"),
    ("[1 x]", "bad matrix entry 'x'"),
]


@pytest.mark.parametrize("literal, message", MAP_LITERAL_ERRORS)
def test_map_literal_errors_name_their_line(literal, message):
    text = MODULE_TEXT.replace("map b d [1]", f"map b d {literal}")
    with pytest.raises(ParseError) as err:
        parse_text(text, stem="f")
    assert str(err.value) == f"line {text.splitlines().index(f'map b d {literal}') + 1}: {message}"


def test_map_literals_with_no_cells():
    for literal in ("[]", "[ ]"):
        text = MODULE_TEXT + f"map a b {literal}\n"
        assert parse_text(text, stem="f").modules["M"].cover_maps[("a", "b")].shape == (1, 0)


def test_values_reduced_mod_p():
    text = POSET_TEXT + """
module M over D field 5
space a 1
space b 1
map a b [7]
"""
    ws = parse_text(text, stem="f")
    assert ws.modules["M"].cover_maps[("a", "b")].tolist() == [[2]]


def test_parse_graded():
    ws = parse_text(GRADED_TEXT, stem="g")
    mon = ws.monoids["G"]
    assert mon.names == ("1", "g") and mon.unit == 0
    act = ws.acts["A"]
    assert act.act(1, 0) == 1
    alg = ws.algebras["S"]
    assert alg.unit.tolist() == [1, 0]
    assert alg.mult[1, 1].tolist() == [1, 0]


def test_parse_errors_have_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_text("poset P\nelem a\nbogus x", stem="f")
    assert err.value.line_no == 3


@pytest.mark.parametrize("dim", ["-2", "x"])
def test_bad_space_dimension_names_its_line(dim):
    text = POSET_TEXT + f"""
module M over D field 7
space a 1
space b {dim}
"""
    line_no = text.splitlines().index(f"space b {dim}") + 1
    with pytest.raises(ParseError) as err:
        parse_text(text, stem="f")
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: ")
    assert "non-negative integer" in str(err.value)


@pytest.mark.parametrize("value", ["x", "100", "1", "2147483659"])
@pytest.mark.parametrize("block", ["module", "algebra"])
def test_bad_field_names_its_header(block, value):
    good = MODULE_TEXT if block == "module" else GRADED_TEXT
    header = "module M over D" if block == "module" else "algebra S over G"
    text = good.replace(f"{header} field 101", f"{header} field {value}")
    line_no = text.splitlines().index(f"{header} field {value}") + 1
    with pytest.raises(ParseError) as err:
        parse_text(text, stem="f")
    assert err.value.line_no == line_no
    assert "field must be a prime" in str(err.value)


@pytest.mark.parametrize("block", ["module", "algebra"])
def test_bad_default_field_names_the_prime_it_tried(block, tmp_path, capsys):
    """A block with no field header reads --field; a non-prime there is
    refused at the header line with the value, not the absent header."""
    good = MODULE_TEXT if block == "module" else GRADED_TEXT
    header = "module M over D" if block == "module" else "algebra S over G"
    text = good.replace(f"{header} field 101", header)
    line_no = text.splitlines().index(header) + 1
    with pytest.raises(ParseError) as err:
        parse_text(text, stem="f", default_field=100)
    assert str(err.value) == (f"line {line_no}: field must be a prime in "
                              f"[2, 2**31), got 100 from --field")
    f = tmp_path / "nofield.gpm"
    f.write_text(text)
    args = ["check", str(f)] if block == "module" else ["graded", "smash", str(f)]
    rc, out = _main_in_process([*args, "--field", "100"])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == (f"error: line {line_no}: field must be a prime "
                                       f"in [2, 2**31), got 100 from --field\n")


def test_unknown_relation_element_names_its_line():
    text = POSET_TEXT.replace("rel b d", "rel b e")
    with pytest.raises(ParseError) as err:
        parse_text(text, stem="f")
    assert err.value.line_no == text.splitlines().index("rel b e") + 1
    assert "'e'" in str(err.value)


def test_cyclic_relations_name_the_poset_header():
    text = POSET_TEXT + "rel d a\n"
    with pytest.raises(ParseError) as err:
        parse_text(text, stem="f")
    assert err.value.line_no == text.splitlines().index("poset D") + 1
    assert "cyclic" in str(err.value)


# tokens the fuzz may insert besides those of the file itself
HOSTILE_TOKENS = ["x", "0", "-1", "2", "100", str(2**70), "[", "]", ";", "=", "+",
                  "[1", "2]", "over", "field", "deg", "elem", "rel", "mul", "poset",
                  "module", "monoid", "act", "algebra", "#"]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.data())
def test_parse_text_fuzz_raises_only_gpmod_errors(data):
    """Mutated copies of a valid five-block file: swapped, inserted and
    deleted tokens and duplicated lines.  Parsing may fail, but only with
    a ParseError that names a line."""
    text = MODULE_TEXT + GRADED_TEXT
    lines = [line.split() for line in text.splitlines() if line and line[0] != "#"]
    vocab = sorted({tok for line in lines for tok in line}) + HOSTILE_TOKENS
    spot = st.sampled_from(range(len(lines)))
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(st.sampled_from(["swap", "insert", "delete", "duplicate"]))
        line = lines[data.draw(spot)]
        if op == "duplicate":
            lines.insert(data.draw(spot), list(line))
        elif op == "insert":
            line.insert(data.draw(st.integers(0, len(line))),
                        data.draw(st.sampled_from(vocab)))
        elif line:
            j = data.draw(st.integers(0, len(line) - 1))
            if op == "delete":
                del line[j]
            else:
                other = lines[data.draw(spot)] or line
                k = data.draw(st.integers(0, len(other) - 1))
                line[j], other[k] = other[k], line[j]
    try:
        parse_text("\n".join(" ".join(line) for line in lines), stem="fuzz")
    except ParseError as err:
        assert err.line_no >= 1


def _cyclic_monoid_text(n):
    names = [f"g{i}" for i in range(n)]
    return ("monoid G\n" + "".join(f"elem {g}\n" for g in names)
            + "".join(f"mul {names[i]} {names[j]} {names[(i + j) % n]}\n"
                      for i in range(n) for j in range(n)))


def _oversized_case(kind):
    """A workspace text past one parse-time guard, and the line it names."""
    if kind == "dimension":
        text = ("poset P\nelem a\nelem b\nrel a b\n"
                "module M over P field 101\nspace a 99999999999\nspace b 1\n")
        return text, 6
    if kind == "cells":
        # two covers of 3000 x 3000 cells together pass 2**24 on the last line
        dim = 3000
        assert dim <= DIM_LIMIT and dim * dim <= CELL_LIMIT < 2 * dim * dim
        text = ("poset P\nelem a\nelem b\nelem c\nrel a b\nrel b c\n"
                f"module M over P field 101\nspace a {dim}\nspace c {dim}\n"
                f"space b {dim}\n")
        return text, 10
    if kind == "monoid":
        # validation builds the n**3 products t[t]: 257**3 > 2**24 >= 256**3
        assert 256 ** 3 <= CELL_LIMIT < 257 ** 3
        return "monoid G\n" + "".join(f"elem g{i}\n" for i in range(257)), 258
    if kind == "act":
        # |G|**2 * |A| cells over a group of order 64 pass 2**24 at point 4097
        assert 64 ** 2 * 4096 <= CELL_LIMIT < 64 ** 2 * 4097
        text = _cyclic_monoid_text(64) + "act A over G\n"
        header = text.count("\n")
        return text + "".join(f"point p{i}\n" for i in range(4097)), header + 4097
    if kind == "algebra":
        # the unit system has 2 * d**3 cells: 2 * 204**3 > 2**24 >= 2 * 203**3
        assert 2 * 203 ** 3 <= CELL_LIMIT < 2 * 204 ** 3
        text = ("monoid G\nelem 1\nmul 1 1 1\nalgebra S over G field 101\n"
                + "".join(f"basis u{i} deg 1\n" for i in range(204)))
        return text, 4 + 204
    elems = "".join(f"elem e{i}\n" for i in range(POSET_SIZE_LIMIT + 1))
    return "poset P\n" + elems, POSET_SIZE_LIMIT + 2


OVERSIZED_KINDS = ["dimension", "cells", "poset", "monoid", "act", "algebra"]


@pytest.mark.parametrize("kind", OVERSIZED_KINDS)
def test_oversized_input_is_refused_at_its_line(kind, monkeypatch):
    text, line_no = _oversized_case(kind)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size guard fired")

    # the guard fires while lines are read: no matrix is built, and no
    # poset past the element guard
    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "array", refuse)
    if kind == "poset":
        monkeypatch.setattr("gpmod.textio.build_poset", refuse)
    with pytest.raises(TooLargeError) as err:
        parse_text(text, stem="f")
    assert isinstance(err.value, ParseError)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: ")


@pytest.mark.parametrize("kind", OVERSIZED_KINDS)
def test_cli_oversized_input_exits_2(kind, tmp_path):
    text, line_no = _oversized_case(kind)
    f = tmp_path / "big.gpm"
    f.write_text(text)
    proc = run_cli(["check", str(f)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: line {line_no}: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_redefined_dimension_replaces_its_cells():
    # a second space line for the same element replaces the first, so
    # cells are counted once per cover
    dim = 3000
    text = ("poset P\nelem a\nelem b\nrel a b\nmodule M over P field 101\n"
            f"space a {dim}\n" + f"space b {dim}\n" * 3 + "space b 1\n")
    assert parse_text(text, stem="f").modules["M"].dims == {"a": dim, "b": 1}


def test_anonymous_blocks_get_stem_names():
    ws = parse_text("poset\nelem a\n\nposet\nelem b", stem="file")
    assert sorted(ws.posets) == ["file", "file.1"]


def test_round_trip_poset():
    rng = np.random.default_rng(71)
    for _ in range(25):
        p = random_poset(rng, 1, 7)
        text = serialize_poset(p)
        again = parse_text(text, stem="x").posets[p.name]
        assert again.elements == p.elements
        assert again.covers == p.covers
        assert serialize_poset(again) == text


def test_round_trip_module(field):
    rng = np.random.default_rng(72)
    for _ in range(25):
        p = random_poset(rng, 1, 6)
        m = random_module(p, 3, field, seed=int(rng.integers(2**32)))
        text = serialize_poset(p) + serialize_module(m, name="M")
        ws = parse_text(text, stem="x")
        again = ws.modules["M"]
        assert again.dims == m.dims
        for c in p.covers:
            assert np.array_equal(again.cover_maps[c], m.cover_maps[c])
        assert serialize_module(again, name="M") == serialize_module(m, name="M")


def test_round_trip_graded(field):
    mon = cyclic_monoid(3)
    act = regular_act(mon)
    alg = monoid_algebra(mon, field)
    text = serialize_monoid(mon) + serialize_act(act) + serialize_algebra(alg)
    ws = parse_text(text, stem="x")
    assert ws.monoids[mon.name] == mon
    assert ws.acts[act.name] == act
    back = ws.algebras[alg.name]
    assert back.syms == alg.syms and back.degs == alg.degs
    assert np.array_equal(back.mult, alg.mult)
    assert np.array_equal(back.unit, alg.unit)


# ---------------------------------------------------------------------------
# command line


def run_cli(args, tmp_path=None):
    proc = subprocess.run([sys.executable, "-m", "gpmod", *args],
                          capture_output=True, text=True)
    return proc


@pytest.fixture
def ws_file(tmp_path):
    f = tmp_path / "demo.gpm"
    f.write_text(MODULE_TEXT)
    return str(f)


@pytest.fixture
def graded_file(tmp_path):
    f = tmp_path / "graded.gpm"
    f.write_text(GRADED_TEXT)
    return str(f)


def test_cli_check(ws_file):
    proc = run_cli(["check", ws_file])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["posets"] == ["D"] and data["modules"] == ["M"]


def test_cli_analyze_interval(ws_file):
    proc = run_cli(["analyze", ws_file])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["births"] == ["b", "c"]
    assert data["deaths"] == ["d"]
    assert data["xi0"] == {"b": 1, "c": 1}
    assert data["xi1"] == {"d": 1}


def test_cli_analyze_zero_module(tmp_path):
    f = tmp_path / "z.gpm"
    f.write_text(POSET_TEXT + "\nmodule Z over D field 101\n")
    proc = run_cli(["analyze", str(f)])
    data = json.loads(proc.stdout)
    assert data["births"] == [] and data["deaths"] == []


def test_cli_analyze_unknown_set_element(ws_file):
    proc = run_cli(["analyze", ws_file, "--set", "zz"])
    assert proc.returncode == 2
    assert "zz" in proc.stderr


def test_cli_analyze_reports_null_fsp_past_the_hat_guard(tmp_path, field):
    # |S| = 16 but |hat(S)| = 21, past the hat guard
    s = ("(1,0),(0,3),(2,1),(1,3),(2,2),(2,3),(4,1),(5,0),(1,5),(2,4),(4,2),"
         "(5,1),(2,5),(3,5),(4,5),(5,5)")
    g = grid_poset((6, 6))
    m = random_module(g, 2, field, 4, generator="intervals")
    f = tmp_path / "h.gpm"
    f.write_text(serialize_poset(g, name="G") +
                 serialize_module(m, name="M", poset_name="G"))
    proc = run_cli(["analyze", str(f), "--set", s])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["determined"] and data["fsp"] is None


def test_cli_set_takes_grid_ids(tmp_path, field):
    g = grid_poset((3, 3))
    m = direct_sum(free_module(g, "(1,1)", 1, field),
                   free_module(g, "(2,2)", 1, field))
    f = tmp_path / "g.gpm"
    f.write_text(serialize_poset(g, name="G") +
                 serialize_module(m, name="F", poset_name="G"))
    proc = run_cli(["analyze", str(f), "--set", "(1,1),(2,2)"])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["S"] == ["(1,1)", "(2,2)"] and data["presented"]
    assert data["births"] == ["(1,1)", "(2,2)"]
    proc = run_cli(["present", str(f), "--set", "(1,1),(2,2)"])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["xi0"] == {"(1,1)": 1, "(2,2)": 1} and data["xi1"] == {}


def test_cli_present_and_not_presented(ws_file):
    proc = run_cli(["present", ws_file])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["verho_equal"] and data["exact"]
    proc = run_cli(["present", ws_file, "--set", "b,c"])
    assert proc.returncode == 2
    assert "d" in proc.stderr  # the missing death is named


def test_cli_fsp(ws_file):
    proc = run_cli(["fsp", ws_file])
    data = json.loads(proc.stdout)
    assert data["pointwise_ok"] and data["S"] == ["b", "c", "d"]
    proc = run_cli(["fsp", ws_file, "--set", "b,c"])
    data = json.loads(proc.stdout)
    assert data["fsp"] == ["b", "c", "d"]


def test_cli_mu_on_a_long_chain(tmp_path, field):
    # the composite from bottom to top spans 2999 covers
    p = chain(3000)
    m = new_module(p, field, {e: 1 for e in p.elements}, {c: [[3]] for c in p.covers})
    f = tmp_path / "chain.gpm"
    f.write_text(serialize_poset(p, "C") + serialize_module(m, "M", "C"))
    proc = run_cli(["mu", str(f), "--set", "0,2999"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["iso"]


def test_cli_fsp_on_a_30x30_grid(tmp_path, field):
    # property M holds for every finite poset, so no poset size refuses it
    g = grid_poset([30, 30])
    f = tmp_path / "grid.gpm"
    f.write_text(serialize_poset(g, "G")
                 + serialize_module(free_module(g, g.elements[0], 1, field), "M", "G"))
    proc = run_cli(["fsp", str(f)])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["property_m"] == {"weakly_bounded": True, "mub_complete": True}
    assert data["S"] == ["(0,0)"]
    proc = run_cli(["poset", str(f), "propm"])
    assert proc.returncode == 0 and proc.stdout == to_json(PROPERTY_M)


def test_cli_poset_queries(ws_file):
    proc = run_cli(["poset", ws_file, "mub", "--set", "b,c"])
    assert json.loads(proc.stdout) == ["d"]
    proc = run_cli(["poset", ws_file, "hat", "--set", "b"])
    assert json.loads(proc.stdout) == ["b"]
    proc = run_cli(["poset", ws_file, "propm"])
    assert proc.stdout == '{"mub_complete":true,"weakly_bounded":true}\n'
    # --text renders a list on one line
    demo = str(REPO / "demos" / "diamond.gpm")
    proc = run_cli(["poset", demo, "mub", "--set", "b,c", "--text"])
    assert (proc.returncode, proc.stdout) == (0, "d\n")
    proc = run_cli(["poset", demo, "hat", "--set", "b,c", "--text"])
    assert (proc.returncode, proc.stdout) == (0, "b c d\n")


def test_cli_colim_mu(ws_file):
    proc = run_cli(["colim", ws_file, "--at", "d", "--set", "b,c"])
    data = json.loads(proc.stdout)
    assert data["dim"] == 2
    proc = run_cli(["mu", ws_file, "--set", "b,c"])
    data = json.loads(proc.stdout)
    assert data["epi"] and not data["iso"]


def test_cli_graded(graded_file):
    proc = run_cli(["graded", "smash", graded_file])
    data = json.loads(proc.stdout)
    assert data["dim"] == 4 and data["sum_pa_is_left_unit"]
    proc = run_cli(["graded", "phi-psi", graded_file, "--cases", "5", "--seed", "3"])
    assert proc.returncode == 0
    assert proc.stdout == to_json({"cases": 5, "failures": [], "seed": 3,
                                   "suite": "phi-psi"})
    proc = run_cli(["graded", "gamma-lambda", graded_file, "--cases", "5",
                    "--seed", "3"])
    assert proc.returncode == 0
    proc = run_cli(["graded", "phi-psi", graded_file, "--cases", "1", "--seed", "-3"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: seed must be non-negative, not -3\n"
    proc = run_cli(["graded", "local-unit", graded_file, "--elements", "v@x"])
    data = json.loads(proc.stdout)
    assert data["w_support"] == ["u@x", "u@y"]


# an algebra whose unit 2**30 u has an entry above the default --field
HALF_UNIT_TEXT = """\
monoid G
elem 1
mul 1 1 1
act A over G
point x
point y
algebra S over G field 2147483647
basis u deg 1
mul u u = 2 u
"""


def test_cli_graded_sums_point_idempotents_mod_the_algebra_prime(tmp_path):
    f = tmp_path / "half.gpm"
    f.write_text(HALF_UNIT_TEXT)
    rc, out = _main_in_process(["graded", "smash", str(f)])
    assert rc == 0 and '"sum_pa_is_left_unit":true' in out
    rc, out = _main_in_process(["graded", "local-unit", str(f), "--elements", "u@x"])
    assert rc == 0 and '"w":[1073741824,0]' in out


def test_cli_local_unit_certifies_idempotent_or_exits_2(graded_file, monkeypatch,
                                                        capsys):
    """The "idempotent" and "absorbs" keys are certificates: with the point
    idempotents' sum patched to twice itself, which is not idempotent mod
    101, `gpm graded local-unit` exits 2 naming the failure and prints
    nothing to stdout."""
    real = gr.SmashAlgebra.idempotent_sum
    monkeypatch.setattr(gr.SmashAlgebra, "idempotent_sum",
                        lambda sm, points: 2 * real(sm, points) % sm.algebra.field.p)
    rc, out = _main_in_process(["graded", "local-unit", graded_file, "--elements", "v@x"])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == "error: local unit is not idempotent\n"


def test_cli_verify(ws_file):
    proc = run_cli(["verify", "--suite", "verho", "--cases", "5", "--seed", "7"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["failures"] == []
    proc = run_cli(["verify", "--suite", "nope", "--cases", "5"])
    assert proc.returncode == 2
    proc = run_cli(["verify", "--suite", "verho", "--cases", "0"])
    assert proc.returncode == 2
    proc = run_cli(["verify", "--suite", "verho", "--cases", "1", "--seed", "-5"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: seed must be non-negative, not -5\n"



@pytest.mark.parametrize("cap", ["--max-poset", "--max-dim", "--max-monoid"])
def test_cli_verify_refuses_a_zero_cap(cap):
    rc, out = _main_in_process(["verify", "--suite", "verho", "--cases", "1",
                                cap, "0"])
    assert (rc, out) == (2, "")


def test_verify_config_refuses_an_act_size_cap():
    # acts are always drawn from the catalog on at most 4 points
    assert "max_act" not in HARD_CAPS
    with pytest.raises(GpmodError, match="^unknown size cap 'max_act'$"):
        VerifyConfig(suite="smash-iso", caps={"max_act": 4})


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_cli_graded_refuses_fewer_than_one_case(graded_file, cases):
    rc, out = _main_in_process(["graded", "phi-psi", graded_file,
                                "--cases", cases])
    assert (rc, out) == (2, "")


def test_cli_graded_runs_the_verify_checks(graded_file, monkeypatch):
    # the unital check belongs to the gamma-lambda verify suite
    monkeypatch.setattr(gr, "is_unital", lambda q: False)
    rc, out = _main_in_process(["graded", "gamma-lambda", graded_file,
                                "--cases", "2"])
    assert rc == 1 and json.loads(out)["failures"] == [0, 1]


def test_cli_exit_code_on_missing_file():
    proc = run_cli(["check", "/nonexistent/file.gpm"])
    assert proc.returncode == 2


def _main_in_process(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(args)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


def test_cli_main_reuses_one_parser(ws_file, graded_file):
    runs = [
        ["analyze", ws_file],
        ["present", ws_file],
        ["analyze", ws_file, "--text"],
        ["verify", "--suite", "verho", "--cases", "2"],
        ["graded", "smash", graded_file],
        ["verify", "--suite", "nope"],  # usage error: argparse exits 2
        ["check", "/nonexistent/file.gpm"],
        ["analyze", ws_file],
    ]
    results = [_main_in_process(args) for args in runs]
    for args, (rc, out) in zip(runs, results):
        proc = run_cli(args)
        assert (rc, out) == (proc.returncode, proc.stdout), args
    assert [rc for rc, _ in results] == [0, 0, 0, 0, 0, 2, 2, 0]
    assert results[0] == results[-1]
    assert cli.build_parser() is cli.build_parser()


def test_parser_is_not_built_at_import():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gpmod.cli as c; print(c.build_parser.cache_info().currsize)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_shared_parser_keeps_no_state(ws_file, graded_file, monkeypatch, capsys):
    parser = cli.build_parser()
    first = parser.parse_args(["verify", "--suite", "verho", "--cases", "2",
                               "--max-dim", "3", "--text"])
    again = parser.parse_args(["verify", "--suite", "verho"])
    assert again is not first
    assert (again.cases, again.max_dim, again.text, again.seed) == (100, None, False, 0)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    assert vars(parser.parse_args(["verify", "--suite", "verho"])) == vars(again)
    # no command writes to its arguments
    for args in (["analyze", ws_file], ["present", ws_file, "--set", "b,c,d"],
                 ["verify", "--suite", "verho", "--cases", "2"],
                 ["graded", "smash", graded_file]):
        ns = parser.parse_args(args)
        before = copy.copy(vars(ns))
        assert ns.func(ns) == 0
        assert vars(ns) == before
    capsys.readouterr()
    # help is laid out for the terminal width at the time it is printed
    monkeypatch.setenv("COLUMNS", "40")
    narrow = parser.format_help()
    monkeypatch.setenv("COLUMNS", "200")
    wide = parser.format_help()
    assert len(narrow.splitlines()) > len(wide.splitlines())


def test_to_json_stable():
    assert to_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}\n'


def _workflow_gpm_commands(text, runner_temp):
    """The argument lists of the ``gpm`` lines of a workflow's shell steps:
    ``$suite`` takes each value of its enclosing ``for suite in ...`` loop,
    ``$RUNNER_TEMP`` is ``runner_temp``, and a leading ``timeout N``, the
    redirections and any ``|| ...`` tail are dropped."""
    commands, suites = [], None
    for line in text.splitlines():
        line = line.strip()
        loop = re.fullmatch(r"for suite in (.+); do", line)
        if loop:
            suites = loop.group(1).split()
            continue
        if line == "done":
            suites = None
            continue
        line = re.sub(r"^timeout \d+ ", "", line.split("||")[0]).strip()
        if not line.startswith("gpm "):
            continue
        line = re.sub(r"\s*\d?> \S+", "", line.replace("$RUNNER_TEMP", runner_temp))
        for suite in (suites if "$suite" in line else [None]):
            expanded = line if suite is None else line.replace("$suite", suite)
            commands.append(shlex.split(expanded)[1:])
    return commands


def test_ci_workflow_gpm_lines_parse(tmp_path):
    """Every gpm call in the CI workflow names a command, flags and suites
    that the parser accepts, so a renamed flag or suite fails here."""
    text = (REPO / ".github" / "workflows" / "tests.yml").read_text()
    commands = _workflow_gpm_commands(text, str(tmp_path))
    assert len(commands) >= 30
    assert ["verify", "--suite", "fsp-apu", "--cases", "3", "--seed", "1",
            "--field", "2147483647"] in commands
    parser = cli.build_parser()
    for args in commands:
        assert not any("$" in a or ">" in a for a in args), args
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                ns = parser.parse_args(args)
        except SystemExit:
            pytest.fail(f"gpm {' '.join(args)}: {err.getvalue()}")
        assert callable(ns.func), args
