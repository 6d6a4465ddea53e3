"""Seeded inputs and operations for the four benchmark workloads.

Every workload is a list of *rounds*; a round is a fixed list of ops.  An
op is one user-level call into gpmod (an in-process ``gpm`` command, or a
direct ``birth_death_report`` / ``category_algebra_iso`` call) together
with the check its output must pass.

Grid modules come from fixed *design* shapes (drawn once from
``DESIGN_SEED``) that the workload seed re-coordinatizes: every element
gets a random invertible change of basis, so the bytes gpmod parses and
every matrix it reduces differ from seed to seed, while the isomorphism
class, and with it the expected output and the size of the work, stays
fixed.  That keeps runs on different seeds comparable and lets one
recorded digest per shape check the output of any seed.

Generation (and the untimed ``prepare`` step of an op) happens before the
clock starts for that op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

P = 101
DESIGN_SEED = 2102_06577
REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")

GRID_FP_SIZE = 8
GRID_FP_SHAPES = 4
GRID_FP_GENS = 6
GRID_FP_RELS = 6

GRID_SPARSE_SIZE = 12
GRID_SPARSE_SHAPES = 2
GRID_SPARSE_PIECES = 3
GRID_SPARSE_MAX_HAT = 16

VERIFY_SUITES = ("fsp-apu", "esitys-minimi", "syntyma-minimi", "verho",
                 "tuplahattu", "tchernev", "induktio-apu", "split-esim",
                 "interval-ex")
VERIFY_CASES_PER_SUITE = 10
SMASH_EXTRA_SUITES = ("smash-iso", "phi-psi", "gamma-lambda")
SMASH_EXTRA_PER_SUITE = 8

WORKLOADS = ("grid-fp", "grid-sparse", "verify-small", "smash-catalog")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_json(obj) -> str:
    """The same rendering as ``gpm``'s JSON output, done independently."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _always(_text: str) -> bool:
    return True


@dataclass
class Op:
    """One timed call.

    ``call`` returns the output text.  When ``prepare`` is set it runs
    untimed and ``call`` gets its result.  The output passes if
    ``certify`` accepts it and, when ``want`` is set, its sha256 is
    ``want``.  ``kind`` groups latencies; ``label`` names the op in the
    reference and in messages.
    """

    kind: str
    label: str
    call: Callable
    want: str | None = None
    certify: Callable[[str], bool] = _always
    prepare: Callable | None = None

    def check(self, out: str) -> bool:
        return self.certify(out) and (self.want is None or sha256(out) == self.want)


@dataclass
class Workload:
    name: str
    rounds: Callable         # round index -> list of Op
    inputs: dict             # input name -> sha256 of the generated input
    expected_round: str | None  # sha256 of round 0's concatenated outputs
    work_dir: pathlib.Path | None = None  # generated files, removed after the run
    digest_kinds: tuple | None = None     # op kinds in that digest (None: all)
    problems: list = field(default_factory=list)  # inputs unlike the record


# ---------------------------------------------------------------------------
# helpers


def _cli_text(argv) -> str:
    """Run ``gpm`` in-process; its stdout, or the exit code if not 0."""
    from gpmod import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return f"exit {rc}\n" if rc else buf.getvalue()


def _inverse_mod_p(a: np.ndarray):
    """Inverse of a square matrix over F_P, or None if it is singular."""
    n = a.shape[0]
    aug = np.concatenate([a % P, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        rows = np.nonzero(aug[col:, col])[0]
        if rows.size == 0:
            return None
        r = col + int(rows[0])
        aug[[col, r]] = aug[[r, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), P - 2, P) % P
        for i in range(n):
            if i != col and aug[i, col]:
                aug[i] = (aug[i] - aug[i, col] * aug[col]) % P
    return aug[:, n:]


def _random_gl(rng, n: int):
    while True:
        g = rng.integers(0, P, size=(n, n)).astype(np.int64)
        inv = _inverse_mod_p(g)
        if inv is not None:
            return g, inv


def recoordinatize(m, rng):
    """An isomorphic copy of m: a random basis change g_c at every element,
    so each cover map f becomes g_b f g_a^-1."""
    from gpmod.modules import PersModule

    bases = {e: _random_gl(rng, m.dims[e]) for e in m.poset.elements}
    maps = {(a, b): bases[b][0] @ f @ bases[a][1] % P
            for (a, b), f in m.cover_maps.items()}
    return PersModule(m.poset, m.field, m.dims, maps, name=m.name,
                      validate=False)


def module_text(m) -> str:
    from gpmod import textio

    return (textio.serialize_poset(m.poset, "P")
            + textio.serialize_module(m, "M", "P"))


# ---------------------------------------------------------------------------
# design shapes


def grid_fp_shape(index: int):
    """Cokernel of a random map between sums of free modules on the 8x8
    grid, with a coefficient only where generator <= relation."""
    from gpmod import modules, posets
    from gpmod.linalg import FieldSpec

    rng = np.random.default_rng([DESIGN_SEED, 1, index])
    field = FieldSpec(P)
    grid = posets.grid_poset((GRID_FP_SIZE, GRID_FP_SIZE))
    els = grid.elements

    def draw(k):
        return [els[int(rng.integers(len(els)))] for _ in range(k)]

    gens, rels = draw(GRID_FP_GENS), draw(GRID_FP_RELS)
    coeff = np.zeros((len(gens), len(rels)), dtype=np.int64)
    for i, g in enumerate(gens):
        for j, r in enumerate(rels):
            if grid.leq(g, r):
                coeff[i, j] = int(rng.integers(1, P))

    def free_sum(points):
        total = modules.zero_module(grid, field)
        for e in points:
            total = modules.direct_sum(total, modules.free_module(grid, e, 1, field))
        return total

    comps = {}
    for c in els:
        rows = [i for i, g in enumerate(gens) if grid.leq(g, c)]
        cols = [j for j, r in enumerate(rels) if grid.leq(r, c)]
        comps[c] = coeff[np.ix_(rows, cols)]
    f = modules.ModuleMorphism(free_sum(rels), free_sum(gens), comps)
    m, _ = modules.cokernel_module(f)
    m.name = "M"
    return m


def grid_sparse_shape(index: int):
    """A direct sum of interval (box) and free modules on the 12x12 grid,
    pointwise dimension at most 3, with two sparse sets that present it:
    S, its births and deaths, and S plus the top element.  Draws are
    repeated until hat(S) stays small enough for the double-hat closure."""
    from gpmod import modules, posets
    from gpmod.linalg import FieldSpec

    n = GRID_SPARSE_SIZE
    field = FieldSpec(P)
    grid = posets.grid_poset((n, n))
    gid = posets.grid_id
    rng = np.random.default_rng([DESIGN_SEED, 2, index])
    while True:
        total = modules.zero_module(grid, field)
        s = set()
        for _ in range(GRID_SPARSE_PIECES):
            if rng.integers(0, 2):
                a = (int(rng.integers(0, n)), int(rng.integers(0, n)))
                b = (min(n - 1, a[0] + int(rng.integers(0, 5))),
                     min(n - 1, a[1] + int(rng.integers(0, 5))))
                box = [gid((x, y)) for x in range(a[0], b[0] + 1)
                       for y in range(a[1], b[1] + 1)]
                piece = modules.interval_module(grid, box, field)
                # births {a}; deaths: the minimal elements just outside the box
                s.add(gid(a))
                if b[0] + 1 < n:
                    s.add(gid((b[0] + 1, a[1])))
                if b[1] + 1 < n:
                    s.add(gid((a[0], b[1] + 1)))
            else:
                a = (int(rng.integers(n // 2, n)), int(rng.integers(n // 2, n)))
                piece = modules.free_module(grid, gid(a), 1, field)
                s.add(gid(a))
            total = modules.direct_sum(total, piece)
        if len(posets.hat(grid, s)) <= GRID_SPARSE_MAX_HAT:
            total.name = "M"
            s = sorted(s, key=grid.index)
            return total, [s, s + [gid((n - 1, n - 1))]]


# ---------------------------------------------------------------------------
# workloads


def _work_dir(root: pathlib.Path, workload: str, seed: int) -> pathlib.Path:
    import os

    d = root / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _shape_problems(inputs: dict, recorded: list) -> list:
    return [f"shape{i}: sha256 {inputs[f'shape{i}']} differs from the recorded {want}"
            for i, want in enumerate(recorded) if inputs[f"shape{i}"] != want]


def _json_flags(*keys):
    def certify(text: str) -> bool:
        try:
            doc = json.loads(text)
        except ValueError:
            return False
        return all(doc.get(k) is True for k in keys)
    return certify


def _write_shapes(name, shapes, seed, root, recoordinate):
    """Write each shape, re-coordinatized unless told otherwise; returns
    (input digests, [(path, text)], the directory written to)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    work = _work_dir(root, name, seed)
    inputs, files = {}, []
    for i, shape in enumerate(shapes):
        inputs[f"shape{i}"] = sha256(module_text(shape))
        text = module_text(recoordinatize(shape, rng) if recoordinate else shape)
        path = work / f"{name}{i}.gpm"
        path.write_text(text)
        inputs[path.name] = sha256(text)
        files.append((path, text))
    return inputs, files, work


def _analyze_op(path, outputs) -> Op:
    label = f"analyze {path.name}"
    return Op("analyze", label, lambda: _cli_text(["analyze", str(path)]),
              want=outputs.get(label))


def build_grid_fp(seed, root, ref, recoordinate=True) -> Workload:
    shapes = [grid_fp_shape(i) for i in range(GRID_FP_SHAPES)]
    inputs, files, work = _write_shapes("grid-fp", shapes, seed, root, recoordinate)
    outputs = ref.get("outputs", {})
    ops = []
    for path, _ in files:
        label = f"present {path.name}"
        ops += [_analyze_op(path, outputs),
                Op("present", label, lambda path=path: _cli_text(["present", str(path)]),
                   want=outputs.get(label), certify=_json_flags("exact", "verho_equal"))]
    return Workload("grid-fp", lambda _: ops, inputs, ref.get("round"), work,
                    problems=_shape_problems(inputs, ref.get("shapes", [])))


def build_grid_sparse(seed, root, ref, recoordinate=True) -> Workload:
    from gpmod import invariants, textio

    drawn = [grid_sparse_shape(i) for i in range(GRID_SPARSE_SHAPES)]
    inputs, files, work = _write_shapes("grid-sparse", [m for m, _ in drawn],
                                        seed, root, recoordinate)
    outputs = ref.get("outputs", {})
    ops = []
    for i, ((path, text), (_, sets)) in enumerate(zip(files, drawn)):
        ops.append(_analyze_op(path, outputs))
        for j, s in enumerate(sets):
            inputs[f"shape{i}.S{j}"] = sha256(canonical_json(s))
            label = f"report {path.name} S{j}"
            # A freshly parsed module per call, so no structure-map cache
            # carries over from an earlier round.
            ops.append(Op("report", label,
                          lambda m, s=s: canonical_json(invariants.birth_death_report(m, s)),
                          want=outputs.get(label),
                          certify=_json_flags("generated", "presented", "determined"),
                          prepare=lambda text=text: textio.parse_text(
                              text, stem="M").single("module")))
    return Workload("grid-sparse", lambda _: ops, inputs, ref.get("round"), work,
                    problems=_shape_problems(inputs, ref.get("shapes", [])))


def verify_expected(suite: str, k: int) -> str:
    """A passing single-case report is fully determined by its inputs."""
    return canonical_json({"suite": suite, "cases": 1, "seed": k, "field": P,
                           "failures": [], "messages": {}})


def _verify_op(suite: str, k: int) -> Op:
    return Op(suite, f"verify {suite} {k}",
              lambda: _cli_text(["verify", "--suite", suite, "--seed", str(k),
                                 "--cases", "1"]),
              want=sha256(verify_expected(suite, k)))


def _seeded_cases(rng, suites, per_suite):
    """Round-robin over the suites, case seeds drawn from the workload seed."""
    ks = rng.integers(0, 2**31, size=(per_suite, len(suites)))
    return [(suite, int(k)) for row in ks for suite, k in zip(suites, row)]


class _Rounds:
    """Rounds drawn lazily from one generator, so round r is the same for a
    given seed however many rounds a run makes."""

    def __init__(self, make):
        self._make = make
        self._made = []

    def __call__(self, r: int):
        while len(self._made) <= r:
            self._made.append(self._make())
        return self._made[r]


def build_verify_small(seed, root, ref, recoordinate=True) -> Workload:
    rng = np.random.default_rng([seed, WORKLOADS.index("verify-small")])
    cases = _Rounds(lambda: _seeded_cases(rng, VERIFY_SUITES, VERIFY_CASES_PER_SUITE))
    first = cases(0)
    expected = sha256("".join(verify_expected(s, k) for s, k in first))
    return Workload("verify-small", lambda r: [_verify_op(s, k) for s, k in cases(r)],
                    {"cases": sha256(canonical_json(first))}, expected)


def catalog():
    from gpmod import graded

    return [(mon, act) for mon in graded.enumerate_monoids(4)
            for act in graded.enumerate_acts(mon, 4)]


def build_smash_catalog(seed, root, ref, recoordinate=True) -> Workload:
    from gpmod import graded
    from gpmod.linalg import FieldSpec

    field = FieldSpec(P)
    entries = catalog()
    catalog_ops = [Op("catalog", f"catalog {i}",
                      lambda mon=mon, act=act: canonical_json(
                          graded.category_algebra_iso(field, mon, act)),
                      certify=_json_flags("ring_hom", "sum_pa_is_unit"))
                   for i, (mon, act) in enumerate(entries)]
    rng = np.random.default_rng([seed, WORKLOADS.index("smash-catalog")])
    # New verify cases every round, so a run averages over many of them.
    cases = _Rounds(lambda: _seeded_cases(rng, SMASH_EXTRA_SUITES, SMASH_EXTRA_PER_SUITE))
    inputs = {"catalog": sha256(canonical_json(
                  [[mon.table.tolist(), act.table.tolist()] for mon, act in entries])),
              "cases": sha256(canonical_json(cases(0)))}
    # The recorded digest covers the catalog ops of a round; the extra
    # verify cases are checked against their closed-form reports.
    return Workload("smash-catalog",
                    lambda r: catalog_ops + [_verify_op(s, k) for s, k in cases(r)],
                    inputs, ref.get("catalog"), digest_kinds=("catalog",))


# One-off set-up a user process pays before its first op, as Python source.
SETUP = {
    "grid-fp": "import gpmod.cli",
    "grid-sparse": "import gpmod.cli",
    "verify-small": "import gpmod.cli",
    "smash-catalog": "import gpmod.cli\n"
                     "from gpmod import graded\n"
                     "for mon in graded.enumerate_monoids(4):\n"
                     "    graded.enumerate_acts(mon, 4)\n",
}

BUILDERS = {
    "grid-fp": build_grid_fp,
    "grid-sparse": build_grid_sparse,
    "verify-small": build_verify_small,
    "smash-catalog": build_smash_catalog,
}


def build(workload: str, seed: int, root: pathlib.Path, *, ref: dict | None = None,
          recoordinate: bool = True) -> Workload:
    """Generate a workload's inputs.  ``recoordinate=False`` keeps the design
    shapes as they are, which is how the reference outputs are recorded."""
    if ref is None:
        ref = load_reference().get(workload, {})
    return BUILDERS[workload](seed, root, ref, recoordinate)
