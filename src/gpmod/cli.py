"""The gpm command line tool.

Every command prints one canonical JSON document (sorted keys) so repeated
runs on identical inputs are byte-identical; --text renders the same data
as key/value lines.  Exit codes: 0 success, 1 a verified property failed,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from . import graded as gr
from . import invariants as inv
from .errors import GpmodError
from .kan import canonical_mu, colim_injection, colim_over_mask, window_mask
from .modules import is_epi, is_iso
from .posets import PROPERTY_M, hat, mub
from .textio import Workspace, parse_path, to_json
from .verify import GRADED_CHECKS, SUITES, VerifyConfig, run_cases, run_config


def _load(files, default_field) -> Workspace:
    ws = Workspace()
    for f in files:
        parse_path(f, workspace=ws, default_field=default_field)
    return ws


def _parse_set(poset, text):
    if text is None:
        return poset.whole()
    # grid ids such as "(1,1)" carry commas, so split only outside parentheses
    ids = [t for t in re.split(r",(?![^(]*\))", text) if t]
    return poset.subset(ids)


def _module_and_set(args):
    """The module named by --module (or the only one) in the loaded files,
    and the subset of its poset named by --set (default: the whole poset)."""
    m = _load(args.files, args.field).single("module", args.module)
    return m, _parse_set(m.poset, args.set)


def _emit(payload, as_text: bool) -> None:
    """Canonical JSON, or under --text a dict as key/value lines and a list
    as one space-joined line."""
    if not as_text:
        sys.stdout.write(to_json(payload))
    elif isinstance(payload, list):
        sys.stdout.write(" ".join(str(x) for x in payload) + "\n")
    else:
        for key in sorted(payload):
            sys.stdout.write(f"{key}: {payload[key]}\n")


def _matrix_lists(m: np.ndarray):
    return [[int(x) for x in row] for row in m]


def cmd_check(args) -> int:
    ws = _load(args.files, args.field)
    payload = {
        "files": len(args.files),
        "posets": sorted(ws.posets),
        "modules": sorted(ws.modules),
        "monoids": sorted(ws.monoids),
        "acts": sorted(ws.acts),
        "algebras": sorted(ws.algebras),
        "ok": True,
    }
    _emit(payload, args.text)
    return 0


def cmd_analyze(args) -> int:
    m, s = _module_and_set(args)
    report = inv.birth_death_report(m, s, module_id=args.module or m.name)
    _emit(report, args.text)
    return 0


def cmd_present(args) -> int:
    m, s = _module_and_set(args)
    pres = inv.minimal_presentation(m, s)
    payload = {
        "module_id": args.module or m.name,
        "S": s.ids(),
        "xi0": inv.degree_counts(m.poset, pres.gens),
        "xi1": inv.degree_counts(m.poset, pres.rels),
        "verho_equal": pres.verho_equal,
        "exact": pres.exact,
    }
    _emit(payload, args.text)
    return 0


def cmd_fsp(args) -> int:
    m, s = _module_and_set(args)
    if args.set is None:
        report = inv.finitely_presented_witness(m)
        payload = {
            "module_id": args.module or m.name,
            "pointwise_ok": report.pointwise_ok,
            "S": report.support.ids(),
            "property_m": PROPERTY_M,
        }
    else:
        fr = inv.fsp_from_determined(m, s)
        payload = {
            "module_id": args.module or m.name,
            "S": s.ids(),
            "fsp": fr.fsp.ids(),
            "frames": dict(sorted(fr.frames.items())),
            "presented": fr.presented,
        }
    _emit(payload, args.text)
    return 0


def cmd_colim(args) -> int:
    m, s = _module_and_set(args)
    cr = colim_over_mask(m, window_mask(s, args.at, strict=not args.non_strict))
    window = m.poset.subset_from_mask(cr.mask).ids()
    payload = {
        "module_id": args.module or m.name,
        "at": args.at,
        "strict": not args.non_strict,
        "S": s.ids(),
        "dim": cr.dim,
        "window": window,
        "injections": {d: _matrix_lists(colim_injection(m, cr, d)) for d in window},
    }
    _emit(payload, args.text)
    return 0


def cmd_mu(args) -> int:
    m, s = _module_and_set(args)
    mu = canonical_mu(m, s)
    payload = {
        "module_id": args.module or m.name,
        "S": s.ids(),
        "epi": is_epi(mu),
        "iso": is_iso(mu),
        "components": {e: _matrix_lists(mu.components[e]) for e in m.poset.elements},
    }
    _emit(payload, args.text)
    return 0


def cmd_poset(args) -> int:
    p = _load(args.files, args.field).single("poset", args.poset)
    if args.query == "propm":
        _emit(PROPERTY_M, args.text)
    else:
        query = {"mub": mub, "hat": hat}[args.query]
        _emit(query(p, _parse_set(p, args.set or "")).ids(), args.text)
    return 0


def cmd_graded(args) -> int:
    ws = _load(args.files, args.field)
    alg = ws.single("algebra", args.algebra)
    act = ws.single("act", args.act)
    if args.action in GRADED_CHECKS:
        config = VerifyConfig(suite=args.action, seed=args.seed, cases=args.cases)
        check = GRADED_CHECKS[args.action]
        failures, _ = run_cases(lambda rng: check(alg, act, rng), config.seed,
                                config.cases)
        payload = {"suite": args.action, "cases": args.cases, "seed": args.seed,
                   "failures": failures}
        _emit(payload, args.text)
        return 0 if not failures else 1
    sm = gr.smash_product(alg, act)
    if args.action == "smash":
        left_unit, _ = sm.unit_sides(sm.idempotent_sum(range(len(act))))
        payload = {"dim": sm.dim, "associative": True,
                   "basis": [sm.pair_name(t) for t in range(sm.dim)],
                   "sum_pa_is_left_unit": left_unit}
        _emit(payload, args.text)
        return 0
    # the one action left is local-unit
    if not args.elements:
        raise GpmodError("local-unit needs --elements sym@point,...")
    vecs = []
    for token in args.elements.split(","):
        sym, _, point = token.partition("@")
        if sym not in alg.syms or point not in act.points:
            raise GpmodError(f"unknown smash basis element {token!r}")
        vecs.append(sm.basis_vector(alg.syms.index(sym), act.points.index(point)))
    w = gr.local_unit(sm, vecs)
    payload = {
        "elements": args.elements.split(","),
        "w": [int(x) for x in w],
        "w_support": [sm.pair_name(t) for t in np.nonzero(w)[0]],
        "idempotent": True,
        "absorbs": True,
    }
    _emit(payload, args.text)
    return 0


def cmd_verify(args) -> int:
    # a cap of 0 is passed on, so that VerifyConfig refuses it
    caps = {key: getattr(args, key) for key in ("max_poset", "max_dim", "max_monoid")
            if getattr(args, key) is not None}
    config = VerifyConfig(suite=args.suite, seed=args.seed, cases=args.cases,
                          field=args.field, caps=caps)
    report = run_config(config)
    _emit(report, args.text)
    return 0 if not report["failures"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gpm parser, built on first use and shared by every later call.

    Sharing is safe: parse_args fills a fresh Namespace each time (the
    sub-parsers copy their defaults into it), no cmd_* function writes to
    its arguments, a usage error exits before anything is stored, and help
    text reads the terminal width when it is formatted.
    """
    parser = argparse.ArgumentParser(
        prog="gpm",
        description="Exact invariants of persistence modules over finite "
                    "posets, with graded and smash-product equivalences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, files=True):
        if files:
            p.add_argument("files", nargs="+", help="workspace files")
        p.add_argument("--field", type=int, default=101,
                       help="prime modulus (default 101)")
        p.add_argument("--json", dest="text", action="store_false",
                       default=False, help="JSON output (default)")
        p.add_argument("--text", dest="text", action="store_true",
                       help="key/value text output")

    p = sub.add_parser("check", help="parse and validate workspace files")
    common(p)
    p.set_defaults(func=cmd_check)

    def module_command(name, func, summary):
        """A sub-command on one module of the loaded files and a subset of
        its poset (read by _module_and_set)."""
        p = sub.add_parser(name, help=summary)
        common(p)
        p.add_argument("--module", help="module name (default: the only one)")
        p.add_argument("--set", help="comma-separated subset (default: all)")
        p.set_defaults(func=func)
        return p

    module_command("analyze", cmd_analyze, "births/deaths/splitting report")
    module_command("present", cmd_present, "minimal generator/relation multisets")
    module_command("fsp", cmd_fsp, "finite presentation support witness")
    p = module_command("colim", cmd_colim, "window colimit at an element")
    p.add_argument("--at", required=True, help="target element")
    p.add_argument("--non-strict", action="store_true",
                   help="use d <= at instead of d < at")
    module_command("mu", cmd_mu, "counit of induction/restriction")

    p = sub.add_parser("poset", help="order queries")
    common(p)
    p.add_argument("query", choices=["mub", "hat", "propm"])
    p.add_argument("--poset", help="poset name (default: the only one)")
    p.add_argument("--set")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("graded", help="graded/smash equivalence checks")
    p.add_argument("action", choices=["phi-psi", "gamma-lambda", "smash",
                                      "local-unit"])
    common(p)
    p.add_argument("--algebra")
    p.add_argument("--act")
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--elements", help="sym@point,... for local-unit")
    p.set_defaults(func=cmd_graded)

    p = sub.add_parser("verify", help="seeded theorem verification suites")
    common(p, files=False)
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-poset", type=int)
    p.add_argument("--max-dim", type=int)
    p.add_argument("--max-monoid", type=int)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GpmodError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
