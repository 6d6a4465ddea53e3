"""Span recording around gpmod's layer entry points, from outside gpmod.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (group, start, end, parent span, op).  A function is
replaced under every name it can be looked up through: module attributes
in every loaded ``gpmod`` module (``invariants`` binds ``window_ranks`` by
``from .kan import``, ``cli`` binds ``run_config`` by ``from .verify
import``) and class attributes for methods.  ``uninstall()`` puts the
originals back.

Spans are kept in flat arrays while the run lasts; ``save()`` writes them
out at the end.  ``metrics()`` turns them into the per-layer numbers: a
group's ``calls`` counts spans not nested in a span of the same group, and
its ``self_s`` is span time minus the time of direct child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# group -> traced functions, as "module:attribute" or "module:Class.method"
GROUPS = {
    "linalg.rref": ["gpmod.linalg:rref"],
    "linalg.matmul": ["gpmod.linalg:matmul"],
    "linalg.solve": ["gpmod.linalg:solve"],
    "posets.cover_pairs_within": ["gpmod.posets:Poset.cover_pairs_within"],
    "posets.build": ["gpmod.posets:build_poset", "gpmod.posets:grid_poset"],
    "posets.hat": ["gpmod.posets:hat", "gpmod.posets:mub"],
    "modules.eval_map": ["gpmod.modules:PersModule.eval_map"],
    "modules.validate": ["gpmod.modules:PersModule._check_functoriality",
                         "gpmod.modules:ModuleMorphism._check_naturality"],
    "modules.kernel": ["gpmod.modules:kernel_module", "gpmod.modules:cokernel_module"],
    "kan.colim": ["gpmod.kan:colim_over_mask"],
    "kan.window_ranks": ["gpmod.kan:window_ranks"],
    "kan.lambda": ["gpmod.kan:lambda_with_window"],
    "kan.mu": ["gpmod.kan:canonical_mu"],
    "kan.induce": ["gpmod.kan:induce_with_data"],
    "invariants.births": ["gpmod.invariants:births"],
    "invariants.deaths": ["gpmod.invariants:deaths"],
    "invariants.splitting": ["gpmod.invariants:splitting"],
    "invariants.projective_cover": ["gpmod.invariants:projective_cover"],
    "invariants.minimal_presentation": ["gpmod.invariants:minimal_presentation"],
    "invariants.is_determined": ["gpmod.invariants:is_determined"],
    "invariants.fsp": ["gpmod.invariants:fsp_from_determined"],
    "invariants.report": ["gpmod.invariants:birth_death_report"],
    "graded.category_algebra_iso": ["gpmod.graded:category_algebra_iso"],
    "graded.smash_assoc": ["gpmod.graded:SmashAlgebra._associative"],
    "graded.trilinear": ["gpmod.graded:_trilinear"],
    "graded.roundtrip": ["gpmod.graded:phi", "gpmod.graded:psi",
                         "gpmod.graded:gamma", "gpmod.graded:lambda_functor"],
    "graded.enumerate": ["gpmod.graded:enumerate_monoids", "gpmod.graded:enumerate_acts"],
    "textio.parse": ["gpmod.textio:parse_text"],
    "textio.to_json": ["gpmod.textio:to_json"],
    "verify.case": ["gpmod.verify:run_config"],
    "cli.main": ["gpmod.cli:main"],
}
OP_GROUP = "op"

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {
    "linalg.rref.calls": "count", "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count", "linalg.rref.tiny_frac": "ratio",
    "linalg.matmul.calls": "count", "linalg.matmul.self_s": "s",
    "linalg.matmul.madds": "count",
    "linalg.solve.calls": "count", "linalg.solve.self_s": "s",
    "posets.cover_pairs_within.calls": "count",
    "posets.cover_pairs_within.self_s": "s",
    "posets.build.calls": "count", "posets.build.self_s": "s",
    "posets.hat.calls": "count", "posets.hat.self_s": "s",
    "modules.eval_map.calls": "count", "modules.eval_map.repeat_frac": "ratio",
    "modules.validate.self_s": "s", "modules.kernel.self_s": "s",
    "kan.colim.calls": "count", "kan.colim.self_s": "s",
    "kan.colim.distinct_frac": "ratio",
    "kan.window_ranks.calls": "count", "kan.window_ranks.self_s": "s",
    "kan.window_ranks.distinct_frac": "ratio",
    "kan.lambda.calls": "count", "kan.lambda.self_s": "s",
    "kan.mu.self_s": "s", "kan.induce.self_s": "s",
    "invariants.births.self_s": "s", "invariants.deaths.self_s": "s",
    "invariants.splitting.calls": "count", "invariants.splitting.self_s": "s",
    "invariants.projective_cover.self_s": "s",
    "invariants.minimal_presentation.self_s": "s",
    "invariants.is_determined.self_s": "s", "invariants.fsp.self_s": "s",
    "invariants.report.self_s": "s",
    "graded.category_algebra_iso.calls": "count",
    "graded.category_algebra_iso.self_s": "s",
    "graded.smash_assoc.self_s": "s",
    "graded.trilinear.calls": "count", "graded.trilinear.self_s": "s",
    "graded.roundtrip.self_s": "s", "graded.enumerate.self_s": "s",
    "textio.parse.calls": "count", "textio.parse.self_s": "s",
    "textio.parse.bytes": "bytes", "textio.to_json.self_s": "s",
    "verify.case.self_s": "s", "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Which workloads each per-layer metric is expected to be non-zero on: the
# workloads whose end-to-end numbers the metric should move (bench/README.md).
_FP, _SP, _VS, _SC = "grid-fp", "grid-sparse", "verify-small", "smash-catalog"
_GRIDS = (_FP, _SP)
EXERCISED_ON = {
    "linalg.rref.calls": (_FP,), "linalg.rref.self_s": (_FP,),
    "linalg.rref.cells": (_FP,), "linalg.rref.tiny_frac": (_VS, _FP),
    "linalg.matmul.calls": (_SC, _FP), "linalg.matmul.self_s": (_SC, _FP),
    "linalg.matmul.madds": (_SC, _FP),
    "linalg.solve.calls": (_FP,), "linalg.solve.self_s": (_FP,),
    "posets.cover_pairs_within.calls": (_SP,),
    "posets.cover_pairs_within.self_s": (_SP,),
    "posets.build.calls": (_VS, _SP), "posets.build.self_s": (_VS, _SP),
    "posets.hat.calls": (_SP,), "posets.hat.self_s": (_SP,),
    "modules.eval_map.calls": (_SP,), "modules.eval_map.repeat_frac": (_SP,),
    "modules.validate.self_s": (_FP, _VS), "modules.kernel.self_s": (_FP,),
    "kan.colim.calls": _GRIDS, "kan.colim.self_s": _GRIDS,
    "kan.colim.distinct_frac": _GRIDS,
    "kan.window_ranks.calls": _GRIDS, "kan.window_ranks.self_s": _GRIDS,
    "kan.window_ranks.distinct_frac": _GRIDS,
    "kan.lambda.calls": (_FP,), "kan.lambda.self_s": (_FP,),
    "kan.mu.self_s": (_VS,), "kan.induce.self_s": (_VS,),
    "invariants.births.self_s": _GRIDS, "invariants.deaths.self_s": _GRIDS,
    "invariants.splitting.calls": _GRIDS, "invariants.splitting.self_s": _GRIDS,
    "invariants.projective_cover.self_s": _GRIDS,
    "invariants.minimal_presentation.self_s": _GRIDS,
    "invariants.is_determined.self_s": _GRIDS,
    # grid-fp analyzes with S = the whole grid, where the report skips fsp
    "invariants.fsp.self_s": (_SP,),
    "invariants.report.self_s": _GRIDS,
    "graded.category_algebra_iso.calls": (_SC,),
    "graded.category_algebra_iso.self_s": (_SC,),
    "graded.smash_assoc.self_s": (_SC,),
    "graded.trilinear.calls": (_SC,), "graded.trilinear.self_s": (_SC,),
    "graded.roundtrip.self_s": (_SC,), "graded.enumerate.self_s": (_SC,),
    "textio.parse.calls": _GRIDS, "textio.parse.self_s": _GRIDS,
    "textio.parse.bytes": _GRIDS, "textio.to_json.self_s": _GRIDS,
    "verify.case.self_s": (_VS,), "cli.main.self_s": (_VS,),
    "trace.overhead_frac": (),
}


def _set_key(s):
    mask = getattr(s, "mask", None)
    return mask if mask is not None else tuple(s)


class Tracer:
    """Records spans while installed and enabled; see the module docstring."""

    def __init__(self):
        self.names = [OP_GROUP] + list(GROUPS)
        self._gid = {n: i for i, n in enumerate(self.names)}
        self.group = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self.enabled = True
        self._patches: list[tuple[object, str, object]] = []
        # work counters measured at the call boundary
        self.rref_cells = 0
        self.rref_tiny = 0
        self.matmul_madds = 0
        self.parse_bytes = 0
        # (group) -> keys seen in the current op, and repeats of them
        self._keys: dict[str, set] = {}
        self._keep: list = []        # objects whose id() is in a key, kept alive per op
        self.key_calls: dict[str, int] = {}
        self.key_repeats: dict[str, int] = {}

    # -- spans -------------------------------------------------------------

    def _open(self, gid: int) -> int:
        idx = len(self.group)
        self.group.append(gid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def run_op(self, fn, *args):
        """Run one benchmark op as a root span; keyed counters reset per op,
        so object ids in keys stay unique while they are compared."""
        self._op += 1
        self._keys = {}
        self._keep = []
        idx = self._open(0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, perf_counter())

    def _count_key(self, group: str, obj, key) -> None:
        seen = self._keys.setdefault(group, set())
        self._keep.append(obj)
        self.key_calls[group] = self.key_calls.get(group, 0) + 1
        if key in seen:
            self.key_repeats[group] = self.key_repeats.get(group, 0) + 1
        else:
            seen.add(key)

    def _record_args(self, group: str, args, outermost: bool) -> None:
        if group == "linalg.rref":
            cells = args[0].shape[0] * args[0].shape[1]
            self.rref_cells += cells
            self.rref_tiny += cells <= 1
        elif group == "linalg.matmul":
            a, b = args[0], args[1]
            self.matmul_madds += a.shape[0] * a.shape[1] * b.shape[1]
        elif group == "textio.parse":
            self.parse_bytes += len(args[0].encode())
        elif not outermost:
            return
        elif group == "modules.eval_map":
            m, a, b = args[:3]
            self._count_key(group, m, (id(m), a, b))
        elif group == "kan.colim":
            m, mask = args[:2]
            self._count_key(group, m, (id(m), mask))
        elif group == "kan.window_ranks":
            m, s, c = args[:3]
            self._count_key(group, m, (id(m), _set_key(s), c))

    def _wrap(self, fn, group: str):
        gid = self._gid[group]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            outermost = not stack or tracer.group[stack[-1]] != gid
            tracer._record_args(group, args, outermost)
            idx = tracer._open(gid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, perf_counter())

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import gpmod.cli  # noqa: F401 - loads every layer module

        mods = [m for name, m in sys.modules.items()
                if (name == "gpmod" or name.startswith("gpmod.")) and m is not None]
        for group, targets in GROUPS.items():
            for target in targets:
                modname, attr = target.split(":")
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, self._wrap(cls.__dict__[meth], group))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(original, group)
                for mod in mods:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict:
        return {"group": np.frombuffer(self.group, dtype=np.uint16),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, overhead_frac: float) -> dict:
        a = self.arrays()
        group, parent = a["group"].astype(np.int64), a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        parent_group = np.full(len(group), -1)
        parent_group[has_parent] = group[parent[has_parent]]
        outer = parent_group != group
        n = len(self.names)
        calls = np.bincount(group[outer], minlength=n)
        self_s = np.bincount(group, weights=self_time, minlength=n)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in PER_LAYER:
            grp, _, stat = name.rpartition(".")
            if grp == "trace":
                continue
            gid = self._gid[grp]
            if stat == "calls":
                out[name] = int(calls[gid])
            elif stat == "self_s":
                out[name] = float(self_s[gid])
        rref_calls = int(np.count_nonzero(group == self._gid["linalg.rref"]))
        out["linalg.rref.cells"] = self.rref_cells
        out["linalg.rref.tiny_frac"] = ratio(self.rref_tiny, rref_calls)
        out["linalg.matmul.madds"] = self.matmul_madds
        out["textio.parse.bytes"] = self.parse_bytes
        out["modules.eval_map.repeat_frac"] = ratio(
            self.key_repeats.get("modules.eval_map", 0),
            self.key_calls.get("modules.eval_map", 0))
        for grp in ("kan.colim", "kan.window_ranks"):
            total = self.key_calls.get(grp, 0)
            out[f"{grp}.distinct_frac"] = ratio(
                total - self.key_repeats.get(grp, 0), total)
        out["trace.overhead_frac"] = overhead_frac
        return out
