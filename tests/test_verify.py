"""The verify suites that share their draws and checks, against their
former bodies.

The oracles below are the suite bodies as they were before the suites
shared ``_draw_case``, ``_draw_induced``, ``_case_least_set`` and
``_case_graded``, kept verbatim.  For a case seed, field and caps, each
current suite must leave its generator in the same state as its oracle and
fail with the same message, or pass, so every ``gpm verify`` report stays
byte-identical.

PYTEST_DONT_REWRITE: pytest leaves this module's asserts as they are, so
the oracles fail with the bare messages they had in the package.
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from gpmod import invariants as inv
from gpmod import linalg
from gpmod.errors import GpmodError
from gpmod.kan import induce, restrict
from gpmod.linalg import FieldSpec
from gpmod.modules import free_module, is_epi, random_morphism
from gpmod.posets import build_poset, hat
from gpmod.verify import (
    DEFAULT_CAPS,
    HARD_CAPS,
    SUITES,
    _case_least_set,
    _check_least,
    _draw_graded_setting,
    _draw_module,
    _submasks,
    check_gamma_lambda,
    check_phi_psi,
    random_poset,
    random_subset_mask,
)


def _case_syntyma_minimi(rng, field, caps):
    p = random_poset(rng, 2, min(5, caps["max_poset"]))
    m = _draw_module(rng, p, field, caps["max_dim"])
    s = p.subset_from_mask(random_subset_mask(rng, p))
    if not inv.is_generated(m, s):
        s = p.whole()
    b = inv.minimal_generating_degrees(m, s)
    assert inv.is_generated(m, b), "birth set does not generate"
    for mask in range(s.mask + 1):
        t_mask = mask & s.mask
        t = p.subset_from_mask(t_mask)
        if inv.is_generated(m, t):
            assert b.mask & ~t_mask == 0, \
                f"smaller generating set {t.ids()} misses births {b.ids()}"


def _case_esitys_minimi(rng, field, caps):
    p = random_poset(rng, 2, min(5, caps["max_poset"]))
    m = _draw_module(rng, p, field, caps["max_dim"])
    s = p.subset_from_mask(random_subset_mask(rng, p))
    if not inv.is_presented(m, s):
        s = p.whole()
    bd = inv.minimal_presentation_support(m, s)
    assert inv.is_presented(m, bd), "birth/death set does not present"
    for mask in range(s.mask + 1):
        t_mask = mask & s.mask
        t = p.subset_from_mask(t_mask)
        if inv.is_presented(m, t):
            assert bd.mask & ~t_mask == 0, \
                f"smaller presenting set {t.ids()} misses {bd.ids()}"


def _case_verho(rng, field, caps):
    p = random_poset(rng, 2, caps["max_poset"])
    m = _draw_module(rng, p, field, caps["max_dim"])
    s = p.subset_from_mask(random_subset_mask(rng, p))
    if not inv.is_presented(m, s):
        s = p.whole()
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
    p = random_poset(rng, 2, caps["max_poset"])
    m0 = _draw_module(rng, p, field, caps["max_dim"])
    s = p.subset_from_mask(random_subset_mask(rng, p))
    m = induce(restrict(m0, s), p)
    assert inv.is_determined(m, s), "induced module is not determined"
    t = hat(p, hat(p, s))
    assert inv.is_presented(m, t), \
        f"double-hat {t.ids()} fails to present (S={s.ids()})"


def _case_syntyma_vertailu(rng, field, caps):
    p = random_poset(rng, 2, caps["max_poset"])
    m0 = _draw_module(rng, p, field, caps["max_dim"])
    s = p.subset_from_mask(random_subset_mask(rng, p))
    m = induce(restrict(m0, s), p)
    assert inv.is_generated(m, s), "induced module is not generated"
    whole = inv.births(m, p.whole())
    relative = inv.births(m, s)
    assert whole.mask == relative.mask, \
        f"births differ: {whole.ids()} vs {relative.ids()}"


def _case_tchernev(rng, field, caps):
    p = random_poset(rng, 2, min(5, caps["max_poset"]))
    m = _draw_module(rng, p, field, caps["max_dim"])
    s = p.subset_from_mask(random_subset_mask(rng, p))
    if not inv.is_generated(m, s):
        s = p.whole()
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


def _case_phi_psi(rng, field, caps):
    check_phi_psi(*_draw_graded_setting(rng, field, caps), rng)


def _case_gamma_lambda(rng, field, caps):
    check_gamma_lambda(*_draw_graded_setting(rng, field, caps), rng)


ORACLES = {
    "syntyma-minimi": _case_syntyma_minimi,
    "esitys-minimi": _case_esitys_minimi,
    "verho": _case_verho,
    "tuplahattu": _case_tuplahattu,
    "syntyma-vertailu": _case_syntyma_vertailu,
    "tchernev": _case_tchernev,
    "phi-psi": _case_phi_psi,
    "gamma-lambda": _case_gamma_lambda,
}


def _outcome(body, seed, field, caps):
    """The generator state a case body leaves, and how it failed: the
    (exception type, message) of an AssertionError or GpmodError, or None."""
    rng = np.random.default_rng(seed)
    try:
        body(rng, field, caps)
        failure = None
    except (AssertionError, GpmodError) as exc:
        failure = (type(exc).__name__, str(exc))
    return rng.bit_generator.state, failure


@pytest.mark.parametrize("caps", [DEFAULT_CAPS, HARD_CAPS], ids=["default", "hard"])
@pytest.mark.parametrize("prime", [101, 2**31 - 1])
@pytest.mark.parametrize("suite", sorted(ORACLES))
def test_suite_draws_and_fails_as_its_former_body(suite, prime, caps):
    field = FieldSpec(prime)
    for seed in range(300):
        assert (_outcome(SUITES[suite], seed, field, caps)
                == _outcome(ORACLES[suite], seed, field, caps)), (suite, seed)


def _empty(m, s):
    return m.poset.subset([])


def _whole_set(m, s):
    return s


def _no_verho(orig):
    return lambda m, s: dataclasses.replace(orig(m, s), verho_equal=False)


# (suite, invariant to break, its broken stand-in): every failure message
# of a suite whose checks moved is met, on the current body and the oracle
BROKEN = [
    ("syntyma-minimi", "minimal_generating_degrees", _empty),
    ("syntyma-minimi", "minimal_generating_degrees", _whole_set),
    ("esitys-minimi", "minimal_presentation_support", _empty),
    ("esitys-minimi", "minimal_presentation_support", _whole_set),
    ("verho", "minimal_presentation", _no_verho(inv.minimal_presentation)),
    ("tuplahattu", "is_determined", lambda m, s: False),
    ("syntyma-vertailu", "is_generated", lambda m, s: False),
]


@pytest.mark.parametrize("suite, name, broken", BROKEN)
def test_suite_fails_with_the_messages_of_its_former_body(monkeypatch, suite, name,
                                                          broken):
    body = SUITES[suite]
    if isinstance(body, partial):
        # the minimality suites hold their least-set function
        holds, _, fails, misses = body.args
        body = partial(_case_least_set, holds, broken, fails, misses)
    monkeypatch.setattr(inv, name, broken)
    field = FieldSpec(101)
    got = [_outcome(body, seed, field, DEFAULT_CAPS) for seed in range(40)]
    assert got == [_outcome(ORACLES[suite], seed, field, DEFAULT_CAPS)
                   for seed in range(40)]
    assert any(failure for _, failure in got)


def test_submasks_are_every_subset_once_in_increasing_order():
    for mask in (0, 0b1, 0b10110, 0b1111, 0b100101):
        got = list(_submasks(mask))
        assert got == [t for t in range(mask + 1) if t & ~mask == 0]


def test_minimality_check_tests_each_subset_once():
    # S = {e1, e2, e4} is not a low-bit prefix, so the former loop over
    # range(S.mask + 1) met most of its subsets more than once
    p = build_poset([f"e{i}" for i in range(5)], [("e0", "e1"), ("e2", "e3")])
    s = p.subset(["e1", "e2", "e4"])
    least = p.subset(["e2"])
    asked = []

    def holds(m, t):
        asked.append(t.mask)
        return t.mask & least.mask != 0

    m = free_module(p, "e0", 1, FieldSpec(101))
    _check_least(m, s, least, holds, "{} misses {}")
    assert asked == [t for t in range(s.mask + 1) if t & ~s.mask == 0]
    assert len(asked) == 2 ** len(s)
    # the first failing subset is the empty one, and the check stops there
    asked.clear()
    with pytest.raises(AssertionError, match=r"^\[\] misses \['e2'\]$"):
        _check_least(m, s, least, lambda m, t: holds(m, t) or True, "{} misses {}")
    assert asked == [0]
