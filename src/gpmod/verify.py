"""Seeded verification suites.

Each suite draws random instances from a case seed and checks one exact
statement about them; a failing case records its seed so it can be
replayed with ``--seed <case_seed> --cases 1``.  Case seeds are
``base_seed + index``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from . import graded as gr
from . import invariants as inv
from . import linalg
from .errors import GpmodError
from .kan import canonical_mu, induce, restrict
from .linalg import FieldSpec
from .modules import (
    _random_interval,
    free_module,
    hom_space_dim,
    interval_module,
    is_epi,
    is_iso,
    random_module,
    random_morphism,
)
from .posets import Poset, build_poset, grid_poset, hat, is_connected, up_set


def random_poset(rng, n_min: int = 2, n_max: int = 6) -> Poset:
    n = int(rng.integers(n_min, n_max + 1))
    q = float(rng.uniform(0.15, 0.55))
    ids = [f"e{i}" for i in range(n)]
    rels = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < q]
    return build_poset(ids, rels, name=f"random{n}")


def random_subset_mask(rng, p: Poset) -> int:
    return int(rng.integers(0, p.full_mask + 1)) if len(p) else 0


def _draw_module(rng, poset, field, max_dim):
    generator = "solve" if rng.integers(0, 2) else "intervals"
    return random_module(poset, max_dim, field, seed=int(rng.integers(2**32)),
                         generator=generator)


def _subsets_to_try(rng, p: Poset, sample: int = 12):
    if len(p) <= 5:
        return list(range(p.full_mask + 1))
    return sorted({int(rng.integers(0, p.full_mask + 1)) for _ in range(sample)})


# ---------------------------------------------------------------------------
# suite case bodies (raise AssertionError on failure)


def _case_fsp_apu(rng, field, caps):
    p = random_poset(rng, 2, caps["max_poset"])
    m = _draw_module(rng, p, field, caps["max_dim"])
    for mask in _subsets_to_try(rng, p):
        s = p.subset_from_mask(mask)
        mu = canonical_mu(m, s)
        assert inv.is_generated(m, s) == is_epi(mu), \
            f"generation mismatch at S={s.ids()}"
        assert inv.is_presented(m, s) == is_iso(mu), \
            f"presentation mismatch at S={s.ids()}"


def _draw_case(rng, field, caps, n_max, holds):
    """A random poset of at most n_max elements, a module on it and a random
    subset S, which falls back to the whole poset unless holds(m, S)."""
    p = random_poset(rng, 2, n_max)
    m = _draw_module(rng, p, field, caps["max_dim"])
    s = p.subset_from_mask(random_subset_mask(rng, p))
    return p, m, s if holds(m, s) else p.whole()


def _draw_induced(rng, field, caps):
    """A random subset S and the module induced back from the restriction
    of a random module to S."""
    p, m0, s = _draw_case(rng, field, caps, caps["max_poset"], lambda m, s: True)
    return p, induce(restrict(m0, s), p), s


def _submasks(mask: int):
    """Every submask of mask once, in increasing order."""
    t = 0
    yield t
    while t != mask:
        t = (t - mask) & mask
        yield t


def _check_least(m, s, least, holds, misses):
    """least (a subset of s) lies inside every subset T of s with holds(m,
    T); each T is tested once, in increasing mask order."""
    for t_mask in _submasks(s.mask):
        t = m.poset.subset_from_mask(t_mask)
        if holds(m, t):
            assert least.mask & ~t_mask == 0, misses.format(t.ids(), least.ids())


def _case_least_set(holds, find_least, fails, misses, rng, field, caps):
    """find_least(m, S) satisfies holds and is the least subset of S that
    does: syntyma-minimi for generation, esitys-minimi for presentation."""
    _, m, s = _draw_case(rng, field, caps, min(5, caps["max_poset"]), holds)
    least = find_least(m, s)
    assert holds(m, least), fails
    _check_least(m, s, least, holds, misses)


def _case_verho(rng, field, caps):
    _, m, s = _draw_case(rng, field, caps, caps["max_poset"], inv.is_presented)
    pres = inv.minimal_presentation(m, s)
    assert pres.verho_equal, \
        f"kernel births {sorted(pres.rels)} != deaths {pres.death_set.ids()}"
    assert pres.exact, "two-step sequence is not exact"
    assert set(pres.gens) == set(inv.births(m, s).ids()), "gens set mismatch"
    # the route the presentation leaves out: the kernel's own window table
    ker_births = inv.births(pres.kernel, s)
    assert ker_births.mask == pres.death_set.mask, \
        f"kernel table births {ker_births.ids()} != deaths {pres.death_set.ids()}"
    assert dict(pres.rels) == {e: inv._split_dim(pres.kernel, s, e) for e in ker_births}, \
        f"relations {dict(pres.rels)} differ from the kernel table's splitting dimensions"


def _case_tuplahattu(rng, field, caps):
    p, m, s = _draw_induced(rng, field, caps)
    assert inv.is_determined(m, s), "induced module is not determined"
    t = hat(p, hat(p, s))
    assert inv.is_presented(m, t), \
        f"double-hat {t.ids()} fails to present (S={s.ids()})"


def _case_syntyma_vertailu(rng, field, caps):
    p, m, s = _draw_induced(rng, field, caps)
    assert inv.is_generated(m, s), "induced module is not generated"
    whole = inv.births(m, p.whole())
    relative = inv.births(m, s)
    assert whole.mask == relative.mask, \
        f"births differ: {whole.ids()} vs {relative.ids()}"


def _case_tchernev(rng, field, caps):
    p, m, s = _draw_case(rng, field, caps, min(5, caps["max_poset"]), inv.is_generated)
    if rng.integers(0, 2):
        _, f = inv.projective_cover(m, s)
    else:
        src = _draw_module(rng, p, field, caps["max_dim"])
        f = random_morphism(src, m, rng)
    antecedent = True
    for c in inv.births(m, s):
        sm = inv.splitting_map(f, s, c)
        target_dim = inv.splitting(m, s, c).dim
        if linalg.rank(sm, field.p) != target_dim:
            antecedent = False
            break
    if antecedent:
        assert is_epi(f), "splitting-surjective map fails to be surjective"


def check_phi_psi(alg, act, rng):
    """phi and psi are mutually inverse on a random functor module."""
    fm = gr.random_functor_module(alg, act, rng)
    assert gr.validate_functor_module(fm) is None, "generator produced bad module"
    q = gr.phi(fm)
    assert gr.validate_graded_module(q) is None, "phi image fails validation"
    assert gr.psi(q) == fm, "psi(phi(F)) != F"
    assert gr.phi(gr.psi(q)) == q, "phi(psi(Q)) != Q"


def check_gamma_lambda(alg, act, rng):
    """gamma and lambda are mutually inverse on a random functor module, the
    image is unital, and a dead vector is caught."""
    fm = gr.random_functor_module(alg, act, rng)
    q = gr.gamma(fm)
    assert gr.validate_smash_module(q) is None, "gamma image fails validation"
    assert gr.is_unital(q), "gamma image is not unital"
    lam, _ = gr.lambda_functor(q)
    assert lam == fm, "lambda(gamma(F)) != F"
    assert gr.gamma(lam, q.smash) == q, "gamma(lambda(Q)) != Q"
    if q.dim:
        padded = np.pad(q.action, ((0, 0), (0, 1), (0, 1)))
        bigger = gr.SmashModule(q.smash, q.dim + 1, padded, validate=False)
        assert not gr.is_unital(bigger), "dead vector went unnoticed"


# the checks gpm graded runs on a given algebra and act
GRADED_CHECKS = {"phi-psi": check_phi_psi, "gamma-lambda": check_gamma_lambda}


def _case_graded(check, rng, field, caps):
    check(*_draw_graded_setting(rng, field, caps), rng)


def _case_smash_iso(rng, field, caps):
    mon = _draw_monoid(rng, caps)
    act = _draw_act(rng, mon)
    rep = gr.category_algebra_iso(field, mon, act)
    assert rep["ring_hom"], f"table mismatch at {rep['witness']}"
    assert rep["sum_pa_is_unit"], "sum of point idempotents is not a unit"
    sm = gr.smash_product(gr.monoid_algebra(mon, field), act)
    picks = [sm.basis_vector(int(rng.integers(0, len(mon))),
                             int(rng.integers(0, len(act))))
             for _ in range(int(rng.integers(1, 4)))]
    gr.local_unit(sm, picks)


def _case_split_esim(rng, field, caps):
    shapes = [(2, 2), (3, 3), (2, 3), (2, 2, 2), (4, 2)]
    shape = shapes[int(rng.integers(0, len(shapes)))]
    p = grid_poset(shape)
    m = _draw_module(rng, p, field, min(2, caps["max_dim"]))
    s = p.subset_from_mask(random_subset_mask(rng, p))
    rep = inv.verify_split_esim(m, s)
    assert rep.equal, f"{rep.quotient_dim} != {rep.splitting_sum} (S={s.ids()})"


def _case_interval_ex(rng, field, caps):
    p = random_poset(rng, 2, caps["max_poset"] + 1)
    i_set = _random_interval(p, rng)
    m = interval_module(p, i_set, field)
    minimal = p.minimal_of_mask(i_set.mask)
    got_b = inv.births(m, p.whole())
    assert got_b.mask == minimal, \
        f"births {got_b.ids()} != minimal {p.subset_from_mask(minimal).ids()}"
    s1 = up_set(p, i_set).mask & ~i_set.mask
    s1_min = p.minimal_of_mask(s1)
    s2 = 0
    for c in i_set:
        ci = p.index(c)
        below = (p.down_mask(c) & i_set.mask) & ~(1 << ci)
        if below and not is_connected(p, p.subset_from_mask(below)):
            s2 |= 1 << ci
    got_d = inv.deaths(m, p.whole())
    assert got_d.mask == s1_min | s2, \
        f"deaths {got_d.ids()} != closed form"


def _case_induktio_apu(rng, field, caps):
    p = random_poset(rng, 2, caps["max_poset"])
    s_mask = random_subset_mask(rng, p)
    e = p.elements[int(rng.integers(0, len(p)))]
    s_mask |= 1 << p.index(e)
    s = p.subset_from_mask(s_mask)
    mult = int(rng.integers(1, 3))
    fm = free_module(p, e, mult, field)
    mu = canonical_mu(fm, s)
    assert is_iso(mu), f"counit not iso for free at {e!r}, S={s.ids()}"
    # adjunction: Hom(ind N, M) and Hom(N, res M) have equal dimension
    m = _draw_module(rng, p, field, 2)
    n0 = _draw_module(rng, p, field, 2)
    n = restrict(n0, s)
    if n.total_dim + m.total_dim <= 40:
        ind_n = induce(n, p)
        res_m = restrict(m, s)
        assert hom_space_dim(ind_n, m) == hom_space_dim(n, res_m), \
            "adjunction dimension mismatch"


def _draw_monoid(rng, caps) -> gr.Monoid:
    mons = gr.enumerate_monoids(caps["max_monoid"])
    return mons[int(rng.integers(0, len(mons)))]


def _draw_act(rng, mon) -> gr.GAct:
    acts = gr.enumerate_acts(mon, 4)
    return acts[int(rng.integers(0, len(acts)))]


def _draw_graded_setting(rng, field, caps):
    roll = int(rng.integers(0, 4))
    if roll == 0:
        alg = gr.dual_numbers_algebra(field)
        mon = alg.monoid
        act = [gr.regular_act(mon), gr.trivial_act(mon, 1),
               gr.trivial_act(mon, 2)][int(rng.integers(0, 3))]
    elif roll == 1:
        alg = gr.matrix_units_algebra(field)
        mon = alg.monoid
        act = gr.regular_act(mon) if rng.integers(0, 2) else gr.trivial_act(mon, 2)
    else:
        mon = _draw_monoid(rng, caps)
        act = _draw_act(rng, mon)
        alg = gr.monoid_algebra(mon, field)
    return alg, act


SUITES = {
    "fsp-apu": _case_fsp_apu,
    "syntyma-minimi": partial(_case_least_set, inv.is_generated,
                              inv.minimal_generating_degrees,
                              "birth set does not generate",
                              "smaller generating set {} misses births {}"),
    "esitys-minimi": partial(_case_least_set, inv.is_presented,
                             inv.minimal_presentation_support,
                             "birth/death set does not present",
                             "smaller presenting set {} misses {}"),
    "verho": _case_verho,
    "tuplahattu": _case_tuplahattu,
    "syntyma-vertailu": _case_syntyma_vertailu,
    "tchernev": _case_tchernev,
    **{name: partial(_case_graded, check) for name, check in GRADED_CHECKS.items()},
    "smash-iso": _case_smash_iso,
    "split-esim": _case_split_esim,
    "interval-ex": _case_interval_ex,
    "induktio-apu": _case_induktio_apu,
}

DEFAULT_CAPS = {"max_poset": 6, "max_dim": 3, "max_monoid": 4}
HARD_CAPS = {"max_poset": 10, "max_dim": 5, "max_monoid": 4}


@dataclass(frozen=True)
class VerifyConfig:
    """A suite run request: name, seed, case count and size caps."""

    suite: str
    seed: int = 0
    cases: int = 100
    field: int = 101
    caps: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise GpmodError(f"unknown suite {self.suite!r}; "
                             f"known: {sorted(SUITES)}")
        if self.cases < 1:
            raise GpmodError("cases must be at least 1")
        if self.seed < 0:
            raise GpmodError(f"seed must be non-negative, not {self.seed}")
        for key, value in self.caps.items():
            if key not in HARD_CAPS:
                raise GpmodError(f"unknown size cap {key!r}")
            if not 1 <= value <= HARD_CAPS[key]:
                raise GpmodError(f"{key} must lie in [1, {HARD_CAPS[key]}]")

    def merged_caps(self) -> dict:
        merged = dict(DEFAULT_CAPS)
        merged.update(self.caps)
        return merged


def run_cases(check, seed: int, cases: int) -> tuple[list[int], dict]:
    """Run check(rng) with one generator per case seed in seed, ..., seed +
    cases - 1: the failing seeds, and their messages keyed by str(seed)."""
    failures = []
    messages = {}
    for case_seed in range(seed, seed + cases):
        try:
            check(np.random.default_rng(case_seed))
        except (AssertionError, GpmodError) as exc:
            failures.append(case_seed)
            messages[str(case_seed)] = (str(exc) if isinstance(exc, AssertionError)
                                        else f"{type(exc).__name__}: {exc}")
    return failures, messages


def run_config(config: VerifyConfig) -> dict:
    """Run a configured suite; the report is a deterministic function of the
    configuration."""
    field = FieldSpec(config.field)
    body = SUITES[config.suite]
    caps = config.merged_caps()
    failures, messages = run_cases(lambda rng: body(rng, field, caps),
                                   config.seed, config.cases)
    return {"suite": config.suite, "cases": config.cases, "seed": config.seed,
            "field": config.field, "failures": failures, "messages": messages}


def run_suite(name: str, cases: int, seed: int, field_p: int = 101,
              caps: dict | None = None) -> dict:
    return run_config(VerifyConfig(suite=name, seed=seed, cases=cases,
                                   field=field_p, caps=caps or {}))
