"""Command-line front end: build posets, compute indices, certify and verify.

Everything is file/stdin/stdout JSON or canonical polynomial text, so
commands compose in pipelines:

    posetlab build polygon 6 | posetlab cd-index -

Exit codes: 0 verified/success, 1 mathematical failure (with a witness) or
a closed stdout, 2 usage or precondition error.  POSETLAB_SEED sets the
default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions as cons
from . import corpus, flags, homology, sheaves, subdivision
from . import ncpoly
from . import poset as poset_mod
from .ncpoly import cd_words, to_text
from .poset import PosetError

MATH_FAIL = 1
USAGE_FAIL = 2


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_poset(path):
    return poset_mod.from_json(_read_text(path))


def _emit_poset(P):
    print(poset_mod.to_json(P, indent=2))


def _emit_poly(p, as_json):
    if as_json:
        print(ncpoly.to_json(p, indent=2))
    else:
        print(to_text(p))


def _map_to_json(phi):
    return json.dumps({
        "source": poset_mod.to_json_dict(phi.source),
        "target": poset_mod.to_json_dict(phi.target),
        "assignment": sorted([x, y] for x, y in phi.assignment.items()),
    }, indent=2, sort_keys=True)


def _map_from_json(text):
    doc = json.loads(text)
    if not (isinstance(doc, dict) and {"source", "target", "assignment"} <= doc.keys()):
        raise PosetError("a map document must be an object with source, "
                         "target and assignment")
    source = poset_mod.from_json_dict(doc["source"])
    target = poset_mod.from_json_dict(doc["target"])
    assignment = {}
    for x, y in poset_mod.int_pairs(doc["assignment"], "assignment"):
        if x in assignment:
            raise PosetError(f"assignment maps {x} twice")
        assignment[x] = y
    return cons.PosetMap(source, target, assignment)


def _parse_boundary(P, value):
    if value == "auto":
        return sorted(homology.derive_boundary(P))
    return [int(x) for x in value.split(",") if x.strip() != ""]


# the numbers of poset-file or integer arguments each build kind accepts
# (cube and cross default their dimension to 3)
_BUILD_ARITY = {"boolean": (1,), "polygon": (1,), "pyr": (1,), "star": (2,),
                "product": (2,), "polytope-product": (2,), "order-complex": (1,),
                "cube": (0, 1), "cross": (0, 1), "semisusp": (1,),
                "subdivision-target": (1,), "collapse": (1,)}


def _cmd_build(args):
    kind, got = args.kind, len(args.args)
    if got not in _BUILD_ARITY[kind]:
        raise ValueError(f"build {kind} takes "
                         f"{' or '.join(map(str, _BUILD_ARITY[kind]))} "
                         f"argument(s), got {got}")
    if kind in ("semisusp", "subdivision-target", "collapse") and args.element is None:
        raise ValueError(f"build {kind} requires --element")
    if kind == "boolean":
        P = cons.boolean_algebra(int(args.args[0]))
    elif kind == "polygon":
        P = cons.polygon(int(args.args[0]))
    elif kind == "pyr":
        P = cons.pyr_poset(_load_poset(args.args[0]))
    elif kind == "star":
        P = cons.star_product(_load_poset(args.args[0]), _load_poset(args.args[1]))
    elif kind == "product":
        P = cons.cartesian_product(_load_poset(args.args[0]), _load_poset(args.args[1]))
    elif kind == "polytope-product":
        P = cons.polytope_product(_load_poset(args.args[0]), _load_poset(args.args[1]))
    elif kind == "order-complex":
        P = cons.order_complex(_load_poset(args.args[0]))
    elif kind == "cube":
        P = cons.cube_poset(int(args.args[0]) if args.args else 3)
    elif kind == "cross":
        P = cons.cross_polytope(int(args.args[0]) if args.args else 3)
    elif kind == "semisusp":
        P = cons.semisuspension(_load_poset(args.args[0]), args.element)
    elif kind == "subdivision-target":
        _target, phi = cons.subdivision_target_and_map(_load_poset(args.args[0]),
                                                       args.element)
        print(_map_to_json(phi))
        return 0
    elif kind == "collapse":
        phi = cons.collapse_map(_load_poset(args.args[0]), args.element)
        print(_map_to_json(phi))
        return 0
    _emit_poset(P)
    return 0


def _cmd_ab_index(args):
    _emit_poly(flags.ab_index(_load_poset(args.poset)), args.json)
    return 0


def _cmd_cd_index(args):
    _emit_poly(flags.cd_index(_load_poset(args.poset)), args.json)
    return 0


def _cmd_near_cd_index(args):
    P = _load_poset(args.poset)
    boundary = _parse_boundary(P, args.boundary)
    nc = flags.near_cd_index(P, boundary)
    if args.json:
        print(json.dumps({"phi": ncpoly.to_json_dict(nc.phi),
                          "boundary": ncpoly.to_json_dict(nc.boundary)},
                         indent=2, sort_keys=True))
    else:
        print(f"phi      = {to_text(nc.phi)}")
        print(f"boundary = {to_text(nc.boundary)}")
    return 0


def _cmd_lambda_nu(args):
    P = _load_poset(args.poset)
    _emit_poly(flags.lambda_nu_ab_formula(P, args.element), args.json)
    return 0


def _cmd_lambda_nu_prime(args):
    P = _load_poset(args.poset)
    _emit_poly(flags.lambda_nu_prime_cd(P, args.element), args.json)
    return 0


def _cmd_check(args):
    P = _load_poset(args.poset)
    if args.property == "gorenstein-star":
        cert = homology.gorenstein_star_report(P)
    elif args.property == "near-gorenstein-star":
        boundary = _parse_boundary(P, args.boundary or "auto")
        cert = homology.near_gorenstein_star_report(P, boundary)
    elif args.property == "cm":
        cert = homology.cohen_macaulay_report(P)
    else:
        raise ValueError(f"unknown property {args.property!r}")
    report = {"property": args.property, "holds": bool(cert)}
    if not cert:
        report["reason"] = cert.reason
        report["witness_chain"] = [P.label(e) for e in cert.witness]
        if cert.betti is not None:
            report["betti"] = {str(k): v for k, v in sorted(cert.betti.items())}
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"{args.property}: {'yes' if cert else 'no'}"
              + ("" if cert else f" ({cert.reason}; witness {report.get('witness_chain')})"))
    return 0 if cert else MATH_FAIL


def _cmd_verify(args):
    if args.what == "decomposition":
        phi = _map_from_json(_read_text(args.map))
        dec = subdivision.decompose(phi)
        print(f"assembled = {to_text(dec.assembled)}")
        for s in phi.target.elements():
            poly = dec.terms[s]
            if not poly.is_zero():
                print(f"  Phi[{phi.target.label(s)}] = {to_text(poly)}")
        ineq = subdivision.verify_subdivision_inequality(phi)
        print("subdivision inequality:", "holds" if ineq else f"fails at {ineq.witness}")
        return 0 if ineq else MATH_FAIL
    P = _load_poset(args.poset)
    if args.what == "main-inequality":
        rep = subdivision.verify_main_inequality(P, args.element)
    elif args.what == "stanley":
        rep = subdivision.verify_stanley_minimum(P)
    elif args.what == "semisusp":
        rep = subdivision.verify_corollary_semisusp(P, args.element)
    else:
        raise ValueError(f"unknown verification {args.what!r}")
    if rep:
        print(f"verified: {to_text(rep.right)} <= {to_text(rep.left)}")
        return 0
    print(f"FAILS at monomials {list(rep.witness)}: "
          f"{to_text(rep.right)} vs {to_text(rep.left)}")
    return MATH_FAIL


def _cmd_sheaf_cd(args):
    P = _load_poset(args.poset)
    want = flags.cd_index(P)
    words = [args.word] if args.word else cd_words(P.n)
    rows = []
    mismatches = 0
    for w in words:
        got = sheaves.cd_coefficient_via_CD(P, w, seed=args.seed)
        expect = want.coeff(w)
        rows.append((w, got, expect))
        if got != expect:
            mismatches += 1
    if args.json:
        print(json.dumps({"seed": args.seed,
                          "table": [{"word": w, "extracted": g, "flag": e}
                                    for w, g, e in rows],
                          "mismatches": mismatches}, indent=2, sort_keys=True))
    else:
        print(f"{'word':<10} {'extracted':>9} {'flag':>6}")
        for w, g, e in rows:
            mark = "" if g == e else "  <- MISMATCH"
            print(f"{w:<10} {g:>9} {e:>6}{mark}")
    if args.verify and mismatches:
        return MATH_FAIL
    return 0


def _cmd_corpus(args):
    if args.action == "list":
        for name, P in corpus.gorenstein_corpus(args.max_rank):
            lattice = "lattice" if P.is_lattice() else "non-lattice"
            print(f"{name:<22} rank {P.n}  {len(P):>3} elements  {lattice}")
        return 0
    results = corpus.run_acceptance(seed=args.seed, sweeps=args.sweeps,
                                    max_rank=args.max_rank)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else MATH_FAIL


def build_parser():
    ap = argparse.ArgumentParser(
        prog="posetlab",
        description="Flag enumeration, cd-indices, homology certification "
                    "and sheaf coefficient extraction on graded posets.")
    ap.add_argument("--json", action="store_true", help="emit JSON reports")
    seed_text = os.environ.get("POSETLAB_SEED", "0")
    try:
        default_seed = int(seed_text)
    except ValueError:
        raise ValueError(f"POSETLAB_SEED must be an integer, got {seed_text!r}") from None
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a poset (JSON to stdout)")
    b.add_argument("kind", choices=list(_BUILD_ARITY))
    b.add_argument("args", nargs="*")
    b.add_argument("--element", type=int, help="distinguished element id")
    b.set_defaults(fn=_cmd_build)

    for name, fn in [("ab-index", _cmd_ab_index), ("cd-index", _cmd_cd_index)]:
        p = sub.add_parser(name, help=f"{name} of a poset file ('-' = stdin)")
        p.add_argument("poset")
        p.set_defaults(fn=fn)

    p = sub.add_parser("near-cd-index", help="cd-index split of a near-Gorenstein* pair")
    p.add_argument("poset")
    p.add_argument("--boundary", required=True,
                   help="comma-separated element ids, or 'auto'")
    p.set_defaults(fn=_cmd_near_cd_index)

    p = sub.add_parser("lambda-nu",
                       help="ab-index of Lambda_nu via the closed flag formula")
    p.add_argument("poset")
    p.add_argument("--element", type=int, required=True)
    p.set_defaults(fn=_cmd_lambda_nu)

    p = sub.add_parser("lambda-nu-prime",
                       help="cd-index of the semisuspension via the alpha formula")
    p.add_argument("poset")
    p.add_argument("--element", type=int, required=True)
    p.set_defaults(fn=_cmd_lambda_nu_prime)

    p = sub.add_parser("check", help="homology certification")
    p.add_argument("property", choices=["gorenstein-star", "near-gorenstein-star", "cm"])
    p.add_argument("poset")
    p.add_argument("--boundary", help="element ids or 'auto' (near-gorenstein-star)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("verify", help="theorem-level verification")
    p.add_argument("what", choices=["decomposition", "main-inequality",
                                    "stanley", "semisusp"])
    p.add_argument("poset", nargs="?", help="poset file (not for decomposition)")
    p.add_argument("--map", help="map JSON file (decomposition)")
    p.add_argument("--element", type=int, help="element id (inequalities)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sheaf-cd", help="C/D coefficient extraction table")
    p.add_argument("poset")
    p.add_argument("--word", help="single cd-word (default: all of degree n)")
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--verify", action="store_true",
                   help="exit nonzero on any mismatch with flag enumeration")
    p.set_defaults(fn=_cmd_sheaf_cd)

    p = sub.add_parser("corpus", help="corpus registry and acceptance battery")
    p.add_argument("action", choices=["list", "run-all"])
    p.add_argument("--seed", type=int, default=default_seed)
    p.add_argument("--sweeps", type=int, default=100,
                   help="random seeds per D application (run-all)")
    p.add_argument("--max-rank", type=int, default=4,
                   help="cap the corpus at this poset rank")
    p.set_defaults(fn=_cmd_corpus)
    return ap


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return USAGE_FAIL if exc.code not in (0, None) else 0
    except (PosetError, subdivision.RankMismatch, subdivision.SourceNotGorenstein,
            subdivision.TargetNotGorenstein, subdivision.NotGorensteinStar,
            homology.BoundaryNotIdeal, homology.BoundaryWrongRank,
            homology.NotNearGorenstein, sheaves.BadBase, sheaves.BadSupport,
            sheaves.NotCohenMacaulay, ncpoly.NotHomogeneous, FileNotFoundError,
            ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_FAIL
    except (subdivision.NotASubdivision, subdivision.DecompositionMismatch,
            ncpoly.NotExpressible, sheaves.SurjectivityFailed) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return MATH_FAIL


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
