"""Byte-identity regression: one digest over the analysis outputs of fixed
seeded modules.

The digest covers the JSON birth/death report and, wherever the module is
S-presented, the minimal presentation (generator and relation multisets,
the two certificate flags, and the matrices of the cover and relation
maps).  A change that alters any output byte changes the digest.  Re-record
``EXPECTED`` only for a deliberate change of output, and say why.
"""

import hashlib

import numpy as np

from gpmod.invariants import birth_death_report, minimal_presentation
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
