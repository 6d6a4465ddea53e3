"""Byte-identity regression: digests over the outputs of fixed seeded
modules.

``EXPECTED`` covers the JSON birth/death report and, wherever the module is
S-presented, the minimal presentation (generator and relation multisets,
the two certificate flags, and the matrices of the cover and relation
maps).  ``BASES_EXPECTED`` covers the bases route of ``kan`` (below).  A
change that alters any output byte changes a digest.  Re-record one only
for a deliberate change of output, and say why.
"""

import hashlib

import numpy as np

from gpmod.invariants import birth_death_report, minimal_presentation
from gpmod.kan import (canonical_mu, colim_injection, colim_over_mask, induce, lambda_map,
                       restrict, window_mask)
from gpmod.linalg import FieldSpec
from gpmod.modules import random_module
from gpmod.posets import grid_poset
from gpmod.textio import to_json
from gpmod.verify import random_poset, random_subset_mask

EXPECTED = "49298e3625baae949eba77cff8893a0b46ddd6f320170cef03e06e471484106a"


def _cases():
    field = FieldSpec(101)
    rng = np.random.default_rng(20210212)
    for k in range(30):
        p = random_poset(rng, 3, 7)
        generator = ("solve", "intervals")[k % 2]
        m = random_module(p, 3, field, seed=int(rng.integers(2**32)),
                          generator=generator)
        yield m, p.subset_from_mask(random_subset_mask(rng, p))
    g = grid_poset((4, 4))
    m = random_module(g, 2, field, seed=7, generator="solve")
    yield m, g.whole()


def _matrices_digest(comps) -> str:
    h = hashlib.sha256()
    for c in sorted(comps):
        a = np.ascontiguousarray(comps[c], dtype=np.int64)
        h.update(f"{c}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _presentation_record(m, s) -> dict:
    idx = m.poset.index
    pres = minimal_presentation(m, s)
    return {
        "xi0": {e: int(k) for e, k in sorted(pres.gens.items(), key=lambda t: idx(t[0]))},
        "xi1": {e: int(k) for e, k in sorted(pres.rels.items(), key=lambda t: idx(t[0]))},
        "verho_equal": pres.verho_equal,
        "exact": pres.exact,
        "cover_map": _matrices_digest(pres.cover_map.components),
        "relation_map": _matrices_digest(pres.relation_map.components),
    }


def output_digest() -> str:
    total = hashlib.sha256()
    for k, (m, s) in enumerate(_cases()):
        report = birth_death_report(m, s, module_id=f"case{k}")
        total.update(hashlib.sha256(to_json(report).encode()).digest())
        if report["presented"]:
            record = to_json(_presentation_record(m, s))
            total.update(hashlib.sha256(record.encode()).digest())
    return total.hexdigest()


def test_outputs_are_byte_identical():
    assert output_digest() == EXPECTED


# -- the bases route ---------------------------------------------------------
#
# A second digest over what kan's bases route prints or returns: every strict
# and non-strict window colimit (dimension, window, presentation, projection
# and injections, as ``gpm colim`` prints them), every ``lambda_map``, the
# induced module ``induce(restrict(m, S))`` and every ``canonical_mu``
# component (``gpm mu``).  Each array enters with its dtype and shape, so a
# change of layout shows as well as a change of value.

BASES_EXPECTED = "863629378254b4eb0eebc0b51b88c378c73508c41762c5cc56823202831b912b"


def _bases_cases(p: int):
    field = FieldSpec(p)
    rng = np.random.default_rng(20210213)
    for k in range(16):
        poset = random_poset(rng, 3, 7)
        generator = ("solve", "intervals")[k % 2]
        m = random_module(poset, 3, field, seed=int(rng.integers(2**32)),
                          generator=generator)
        yield m, poset.subset_from_mask(random_subset_mask(rng, poset))
    g = grid_poset((4, 4))
    for seed, generator in ((7, "solve"), (8, "intervals")):
        m = random_module(g, 2, field, seed=seed, generator=generator)
        yield m, g.whole()
        yield m, g.subset_from_mask(int(rng.integers(0, g.full_mask + 1)))


def _hash_array(h, key: str, a: np.ndarray):
    h.update(f"{key}:{a.dtype.str}:{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())


def _bases_digest(p: int) -> tuple[str, int]:
    """The digest of the bases route at prime p, and how many window
    summands of dimension 0 it presented."""
    h = hashlib.sha256()
    zero_summands = 0
    for k, (m, s) in enumerate(_bases_cases(p)):
        for c in m.poset.elements:
            for strict in (True, False):
                cr = colim_over_mask(m, window_mask(s, c, strict=strict))
                key = f"{k}:{c}:{strict}"
                window = m.poset.subset_from_mask(cr.mask).members
                h.update(f"{key}:{cr.dim}:{window}".encode())
                _hash_array(h, f"{key}:presentation", cr.presentation)
                _hash_array(h, f"{key}:projection", cr.projection)
                for d in window:
                    _hash_array(h, f"{key}:inj:{d}", colim_injection(m, cr, d))
                    zero_summands += m.dims[d] == 0
            _hash_array(h, f"{k}:{c}:lambda", lambda_map(m, s, c))
        ind = induce(restrict(m, s), m.poset)
        h.update(f"{k}:induced:{sorted(ind.dims.items())}".encode())
        for a, b in ind.poset.covers:
            _hash_array(h, f"{k}:induced:{a}:{b}", ind.cover_maps[(a, b)])
        mu = canonical_mu(m, s)
        for c in m.poset.elements:
            _hash_array(h, f"{k}:mu:{c}", mu.components[c])
    return h.hexdigest(), zero_summands


def test_bases_route_is_byte_identical():
    h = hashlib.sha256()
    for p in (101, 2**31 - 1):
        digest, zero_summands = _bases_digest(p)
        assert zero_summands > 100, (p, zero_summands)
        h.update(digest.encode())
    assert h.hexdigest() == BASES_EXPECTED
