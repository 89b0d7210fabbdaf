"""Command-line front end: build posets, compute indices, certify and verify.

Everything is file/stdin/stdout JSON or canonical polynomial text, so
commands compose in pipelines:

    posetlab build polygon 6 | posetlab cd-index -

Exit codes: 0 verified/success, 1 mathematical failure (with a witness) or
a closed stdout, 2 usage or precondition error: an OSError or a ValueError,
the base of every input exception (homology.FaceBudgetExceeded included).
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


def _emit_poly(p, as_json):
    if as_json:
        print(ncpoly.to_json(p, indent=2))
    else:
        print(to_text(p))


def _map_to_json(phi):
    sid, tid = poset_mod._json_ids(phi.source), poset_mod._json_ids(phi.target)
    return json.dumps({
        "source": poset_mod.to_json_dict(phi.source),
        "target": poset_mod.to_json_dict(phi.target),
        "assignment": sorted([sid[i], tid[t]] for i, t in enumerate(phi.image)),
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
    return cons.PosetMap.from_assignment(source, target, assignment)


def _parse_boundary(P, value):
    """'auto' derives the boundary; a nonempty id list gets the bottom in
    front, as the near-Gorenstein* split reads a boundary."""
    if value == "auto":
        return sorted(homology.derive_boundary(P))
    ids = [int(x) for x in value.split(",") if x.strip() != ""]
    return ids and [P.bottom, *ids]


def _from_posets(build):
    return lambda paths, _element: build(*map(_load_poset, paths))


def _at_element(build):
    return lambda paths, element: build(_load_poset(paths[0]), element)


def _of_size(build):
    return lambda sizes, _element: build(int(sizes[0]) if sizes else 3)


# each build kind: the numbers of poset-file or integer arguments it takes
# (cube and cross default their dimension to 3), whether it needs
# --element, and its builder, which returns a poset or a PosetMap
_BUILD = {
    "boolean": ((1,), False, _of_size(cons.boolean_algebra)),
    "polygon": ((1,), False, _of_size(cons.polygon)),
    "pyr": ((1,), False, _from_posets(cons.pyr_poset)),
    "star": ((2,), False, _from_posets(cons.star_product)),
    "product": ((2,), False, _from_posets(cons.cartesian_product)),
    "polytope-product": ((2,), False, _from_posets(cons.polytope_product)),
    "order-complex": ((1,), False, _from_posets(cons.order_complex)),
    "cube": ((0, 1), False, _of_size(cons.cube_poset)),
    "cross": ((0, 1), False, _of_size(cons.cross_polytope)),
    "semisusp": ((1,), True, _at_element(cons.semisuspension)),
    "subdivision-target": ((1,), True, _at_element(
        lambda L, nu: cons.subdivision_target_and_map(L, nu)[1])),
    "collapse": ((1,), True, _at_element(cons.collapse_map)),
}


def _cmd_build(args):
    kind, got = args.kind, len(args.args)
    counts, needs_element, build = _BUILD[kind]
    if got not in counts:
        raise ValueError(f"build {kind} takes "
                         f"{' or '.join(map(str, counts))} "
                         f"argument(s), got {got}")
    if needs_element and args.element is None:
        raise ValueError(f"build {kind} requires --element")
    if not needs_element and args.element is not None:
        raise ValueError(f"build {kind} takes no --element")
    out = build(args.args, args.element)
    print(_map_to_json(out) if isinstance(out, cons.PosetMap)
          else poset_mod.to_json(out, indent=2))
    return 0


# each polynomial command: its help text, whether it takes --element, and
# the function of the poset (and the element) whose polynomial it prints
_POLY = {
    "ab-index": ("ab-index of a poset file ('-' = stdin)", False,
                 lambda P, _element: flags.ab_index(P)),
    "cd-index": ("cd-index of a poset file ('-' = stdin)", False,
                 lambda P, _element: flags.cd_index(P)),
    "lambda-nu": ("ab-index of Lambda_nu via the closed flag formula", True,
                  lambda P, element: flags.lambda_nu_ab_formula(P, element)),
    "lambda-nu-prime": ("cd-index of the semisuspension via the alpha formula", True,
                        lambda P, element: flags.lambda_nu_prime_cd(P, element)),
}


def _cmd_poly(args):
    index = _POLY[args.command][2]
    _emit_poly(index(_load_poset(args.poset), args.element), args.json)
    return 0


def _cmd_near_cd_index(args):
    P = _load_poset(args.poset)
    boundary = _parse_boundary(P, args.boundary)
    # the split holds only for a certified pair
    cert = homology.near_gorenstein_star_report(P, boundary)
    if not cert:
        raise homology.NotNearGorenstein(
            f"near-cd-index needs a near-Gorenstein* pair: {cert.reason}")
    nc = flags.near_cd_index(P, boundary)
    if args.json:
        print(json.dumps({"phi": ncpoly.to_json_dict(nc.phi),
                          "boundary": ncpoly.to_json_dict(nc.boundary)},
                         indent=2, sort_keys=True))
    else:
        print(f"phi      = {to_text(nc.phi)}")
        print(f"boundary = {to_text(nc.boundary)}")
    return 0


def _cmd_check(args):
    if args.boundary is not None and args.property != "near-gorenstein-star":
        raise ValueError(f"check {args.property} takes no --boundary")
    P = _load_poset(args.poset)
    if args.property == "gorenstein-star":
        cert = homology.gorenstein_star_report(P)
    elif args.property == "near-gorenstein-star":
        boundary = _parse_boundary(P, args.boundary or "auto")
        cert = homology.near_gorenstein_star_report(P, boundary)
    else:  # cm: argparse admits no other choice
        cert = homology.cohen_macaulay_report(P)
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


# each verify target's inputs, named in this order when missing; any other
# input given is named as stray
_VERIFY_INPUTS = {"decomposition": ("--map",), "main-inequality": ("a poset file", "--element"),
                  "stanley": ("a poset file",), "semisusp": ("a poset file", "--element")}


def _cmd_verify(args):
    given = {"--map": args.map, "a poset file": args.poset, "--element": args.element}
    wanted = _VERIFY_INPUTS[args.what]
    for name in wanted:
        if given[name] is None:
            raise ValueError(f"verify {args.what} requires {name}")
    for name, value in given.items():
        if value is not None and name not in wanted:
            raise ValueError(f"verify {args.what} does not take {name}")
    if args.what == "decomposition":
        phi = _map_from_json(_read_text(args.map))
        dec = subdivision.decompose(phi)
        print(f"assembled = {to_text(dec.assembled)}")
        # by rank, then by the line itself, so no element id sets the order
        T = phi.target
        for _, line in sorted((T.rank(s), f"  Phi[{T.label(s)}] = {to_text(poly)}")
                              for s, poly in dec.terms.items() if not poly.is_zero()):
            print(line)
        ineq = subdivision.verify_subdivision_inequality(phi)
        print("subdivision inequality:", "holds" if ineq else f"fails at {ineq.witness}")
        return 0 if ineq else MATH_FAIL
    P = _load_poset(args.poset)
    if args.what == "main-inequality":
        rep = subdivision.verify_main_inequality(P, args.element)
    elif args.what == "stanley":
        rep = subdivision.verify_stanley_minimum(P)
    else:  # semisusp: argparse admits no other choice
        rep = subdivision.verify_corollary_semisusp(P, args.element)
    if rep:
        print(f"verified: {to_text(rep.right)} <= {to_text(rep.left)}")
    else:
        print(f"FAILS at monomials {list(rep.witness)}: "
              f"{to_text(rep.right)} vs {to_text(rep.left)}")
    if rep.note:
        print(f"note: {rep.note}")
    return 0 if rep else MATH_FAIL


def _cmd_sheaf_cd(args):
    P = _load_poset(args.poset)
    want = flags.cd_index(P)
    words = [args.word] if args.word is not None else cd_words(P.n)
    rows = [(w, sheaves.cd_coefficient_via_CD(P, w, seed=args.seed), want.coeff(w))
            for w in words]
    mismatches = sum(got != expect for _, got, expect in rows)
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
    return MATH_FAIL if mismatches else 0


def _cmd_corpus(args):
    # a corpus with no poset in it passes every check vacuously
    if args.action == "list":
        if args.max_rank < 1:
            raise ValueError("corpus list needs --max-rank >= 1")
        for name, P in corpus.gorenstein_corpus(args.max_rank):
            lattice = "lattice" if P.is_lattice() else "non-lattice"
            print(f"{name:<22} rank {P.n}  {len(P):>3} elements  {lattice}")
        return 0
    if args.max_rank < 2:
        raise ValueError("corpus run-all needs --max-rank >= 2, "
                         "where the lattice corpus starts")
    if args.sweeps < 1:
        raise ValueError("corpus run-all needs --sweeps >= 1")
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
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a poset (JSON to stdout)")
    b.add_argument("kind", choices=list(_BUILD))
    b.add_argument("args", nargs="*")
    b.add_argument("--element", type=int, help="distinguished element id")
    b.set_defaults(fn=_cmd_build)

    for name, (text, needs_element, _index) in _POLY.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("poset")
        if needs_element:
            p.add_argument("--element", type=int, required=True)
        p.set_defaults(fn=_cmd_poly, element=None)

    p = sub.add_parser("near-cd-index", help="cd-index split of a near-Gorenstein* pair")
    p.add_argument("poset")
    p.add_argument("--boundary", required=True,
                   help="comma-separated element ids, or 'auto'")
    p.set_defaults(fn=_cmd_near_cd_index)

    p = sub.add_parser("check", help="homology certification")
    p.add_argument("property", choices=["gorenstein-star", "near-gorenstein-star", "cm"])
    p.add_argument("poset")
    p.add_argument("--boundary", help="element ids or 'auto' (near-gorenstein-star)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("verify", help="theorem-level verification")
    p.add_argument("what", choices=list(_VERIFY_INPUTS))
    p.add_argument("poset", nargs="?", help="poset file (not for decomposition)")
    p.add_argument("--map", help="map JSON file (decomposition)")
    p.add_argument("--element", type=int, help="element id (main-inequality, semisusp)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sheaf-cd", help="C/D coefficient extraction table")
    p.add_argument("poset")
    p.add_argument("--word", help="single cd-word (default: all of degree n)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sheaf_cd)

    p = sub.add_parser("corpus", help="corpus registry and acceptance battery")
    p.add_argument("action", choices=["list", "run-all"])
    p.add_argument("--seed", type=int, default=0)
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
    except BrokenPipeError:
        raise  # a closed stdout is main()'s to handle, not a usage error
    except (subdivision.NotASubdivision, subdivision.DecompositionMismatch,
            ncpoly.NotExpressible, sheaves.SurjectivityFailed) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return MATH_FAIL
    except (ValueError, OSError) as exc:  # every input or precondition error
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_FAIL


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
