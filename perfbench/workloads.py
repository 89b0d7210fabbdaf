"""The four benchmark workloads: seeded op lists with an oracle per op.

A workload is a list of groups.  A group holds one poset as JSON text and
the ops that run on it; the text is parsed once per pass, at the group's
first op, so that op pays the parse and every cold cache.  `certify` and
`flag_index` give every op its own group (caches always start cold);
`decompose` and `sheaf_sweep` share one parsed poset across many ops, which
is what their caches are for.

The seed relabels every poset (a random permutation of the non-bottom
ids, elements and covers listed in random order), draws the D-operation
seeds, and orders the groups.  Which elements nu and which facets are used,
and the order of the ops inside a group (which one pays the cold caches),
are fixed, so every seed does the same work up to relabelling and runs
with different seeds are comparable.

The library sees only the JSON text; every expected answer is computed here
by an independent route (closed forms, pyramid and star-product identities,
the other Lambda_nu route, flag enumeration, the boundary remove_upset
predicts) or is known from how the poset was built.
"""

from __future__ import annotations

import hashlib
import json
import operator
import random
from dataclasses import dataclass, field

from posetlab import (constructions, flags, homology, poset, sheaves,
                      subdivision)
from posetlab.corpus import gorenstein_corpus, lattice_corpus
from posetlab.ncpoly import NcPoly, cd_words, pyr_op, to_text
from posetlab.poset import NotEulerian


@dataclass
class Op:
    """One timed call: `call(P, make_rng)` on the group's parsed poset.

    `expect` is the oracle answer, or an exception class when raising it is
    the correct verdict; `check(got, expect)` compares a returned answer.
    """

    kind: str
    desc: str
    call: object
    expect: object
    check: object = operator.eq

    @property
    def negative(self):
        return self.expect is False or isinstance(self.expect, type)


@dataclass
class Group:
    text: str
    ops: list = field(default_factory=list)


@dataclass
class Workload:
    groups: list

    def ops(self):
        return [op for g in self.groups for op in g.ops]

    def truncate(self, n):
        """Keep only the first n ops."""
        kept = []
        for g in self.groups:
            if n <= 0:
                break
            kept.append(Group(g.text, g.ops[:n]))
            n -= len(kept[-1].ops)
        self.groups = kept

    def digest(self):
        """Hash of the generated inputs and oracle answers."""
        h = hashlib.sha256()
        for g in self.groups:
            h.update(g.text.encode())
            for op in g.ops:
                h.update(f"\n{op.kind} {op.desc} {_canon(op.expect)}\n".encode())
        return h.hexdigest()[:16]


def _canon(value):
    if isinstance(value, NcPoly):
        return f"{value.alphabet}:{to_text(value)}"
    if isinstance(value, frozenset):
        return repr(sorted(value))
    if isinstance(value, type):
        return value.__name__
    return repr(value)


def relabel(P, rng):
    """JSON text of P under a random relabelling, and the id map P -> text.

    Follows the documented poset JSON format (id 0 is the bottom); labels
    are optional there and are left out.
    """
    elems = P.elements()  # sorted by (rank, id): the bottom comes first
    fresh = list(range(1, len(elems)))
    rng.shuffle(fresh)
    new = dict(zip(elems, [0] + fresh))
    elements = [{"id": new[e], "rank": P.rank(e)} for e in elems]
    covers = [[new[a], new[b]] for a, b in P.covers()]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return json.dumps({"n": P.n, "elements": elements, "covers": covers}), new


def _of_rank(P, r, k=None):
    """The elements of rank r, or k of them spread evenly over that list."""
    elems = [e for e in P.elements() if P.rank(e) == r]
    return elems if k is None else elems[::max(1, len(elems) // k)][:k]


def _pyr_power(P, k):
    for _ in range(k):
        P = constructions.pyr_poset(P)
    return P


def _pyr_op_power(p, k):
    for _ in range(k):
        p = pyr_op(p)
    return p


def _polygon_cd(m):
    """Closed form: cd(polygon m) = c^2 + (m - 2) d."""
    return NcPoly("cd", {"cc": 1, "d": m - 2})


def _simplex_cd(k):
    """boolean_algebra(k) is the pyramid tower over a segment (cd = c)."""
    return _pyr_op_power(NcPoly("cd", {"c": 1}), k - 2)


def _path_poset():
    """Three vertices joined by two edges: a path, so a ball and no sphere."""
    return poset.GradedPoset.from_covers(
        2, {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2},
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5)])


def _misglued(P):
    """P with one facet replaced by a cell glued over all but one of its
    ridges: that ridge then lies in a single facet, so no sphere."""
    pi = _of_rank(P, P.n)[0]
    ridges = [a for a, b in P.covers() if b == pi]
    dropped = ridges[0]
    ranks = {e: P.rank(e) for e in P.elements() if e != pi}
    new = max(P.elements()) + 1
    ranks[new] = P.n
    covers = [(a, b) for a, b in P.covers() if pi not in (a, b)]
    covers += [(r, new) for r in ridges if r != dropped]
    return poset.GradedPoset.from_covers(P.n, ranks, covers)


# -- certify ------------------------------------------------------------------


def _unary(module, name):
    """An op calling `module.name(P)`, looked up at call time so that the
    traced run's rebinding of that attribute takes effect."""
    return lambda P, _make_rng: getattr(module, name)(P)


def _single(text, kind, desc, call, expect):
    """A group of one op: the poset is parsed fresh, so caches start cold."""
    return Group(text, [Op(kind, desc, call, expect)])


def _certify(rng):
    groups = []
    gorenstein = _unary(homology, "is_gorenstein_star")
    derive = _unary(homology, "derive_boundary")
    cons = constructions
    spheres = list(gorenstein_corpus(4)) + [
        ("B6", cons.boolean_algebra(6)),
        ("pyr_B5", cons.pyr_poset(cons.boolean_algebra(5))),
        ("cube4", cons.cube_poset(4)),
        ("cross4", cons.cross_polytope(4)),
        ("polygon4xpolygon5",
         cons.polytope_product(cons.polygon(4), cons.polygon(5))),
        ("pyr_pyr_cube", _pyr_power(cons.cube_poset(3), 2)),
    ]
    for name, P in spheres:
        text = relabel(P, rng)[0]
        groups.append(_single(text, "is_gorenstein_star", name, gorenstein, True))
        if P.n <= 3:
            groups.append(_single(text, "derive_boundary", f"{name} (a sphere)",
                                  derive, homology.NotNearGorenstein))
        if 2 <= P.n <= 4 and len(P) <= 60:
            groups.append(_single(relabel(_misglued(P), rng)[0],
                                  "is_gorenstein_star", f"{name} misglued",
                                  gorenstein, False))
    for name, L in lattice_corpus(4):
        for r in range(1, L.n + 1):
            ball, bd = cons.remove_upset(L, _of_rank(L, r)[0])
            text, new = relabel(ball, rng)
            bd = frozenset(new[e] for e in bd)
            desc = f"{name} minus [{r}-face, top)"
            groups.append(_single(
                text, "is_near_gorenstein_star", desc,
                lambda P, _make_rng, bd=bd: homology.is_near_gorenstein_star(P, bd),
                True))
            groups.append(_single(text, "derive_boundary", desc, derive, bd))
            groups.append(_single(text, "is_gorenstein_star", f"{desc} (a ball)",
                                  gorenstein, False))
    groups.append(_single(relabel(_path_poset(), rng)[0], "is_gorenstein_star",
                          "path", gorenstein, False))
    return groups


# -- decompose ----------------------------------------------------------------


def _decomposes_to(dec, source_cd):
    """The assembled sum equals the source cd-index and every Phi is
    coefficientwise nonnegative."""
    return dec.assembled == source_cd and all(
        c >= 0 for poly in dec.terms.values() for c in poly.terms.values())


def _subdivision_op(nu):
    return lambda L, _rng: subdivision.decompose(
        constructions.subdivision_target_and_map(L, nu)[1])


def _collapse_op(nu):
    return lambda L, _rng: subdivision.decompose(constructions.collapse_map(L, nu))


def _decompose(rng):
    groups = []
    for name, L in lattice_corpus(4):
        text, new = relabel(L, rng)
        source_cd = flags.cd_index(L)
        per_rank = 1 if L.n >= 4 else 2
        ops = []
        for r in range(1, L.n + 1):
            for nu in _of_rank(L, r, per_rank):
                desc = f"{name} nu=rank-{r} id {new[nu]}"
                ops.append(Op("decompose.subdivision", desc,
                              _subdivision_op(new[nu]), source_cd, _decomposes_to))
                ops.append(Op("decompose.collapse", desc,
                              _collapse_op(new[nu]), source_cd, _decomposes_to))
        groups.append(Group(text, ops))
    return groups


# -- sheaf_sweep ----------------------------------------------------------------


def _coefficient_op(word, d_seed):
    return lambda P, make_rng: sheaves.cd_coefficient_via_CD(
        P, word, seed=make_rng(d_seed))


def _sheaf_sweep(rng):
    groups = []
    for name, P in gorenstein_corpus(4):
        if P.n < 3:
            continue
        want = flags.cd_index(P)
        draws = 7 if P.n == 3 else 2
        ops = []
        for w in cd_words(P.n):
            for _ in range(draws if "d" in w else 1):
                d_seed = rng.randrange(2 ** 32)
                ops.append(Op("cd_coefficient_via_CD", f"{name} {w} seed {d_seed}",
                              _coefficient_op(w, d_seed), want.coeff(w)))
        groups.append(Group(relabel(P, rng)[0], ops))
    return groups


# -- flag_index -----------------------------------------------------------------


def _flag_index(rng):
    groups = []
    cd = _unary(flags, "cd_index")

    def add(P, desc, expect):
        groups.append(_single(relabel(P, rng)[0], "cd_index", desc, cd, expect))

    cons = constructions
    for k in (7, 8, 9):
        add(cons.boolean_algebra(k), f"boolean{k}", _simplex_cd(k))
    for m, k in ((5, 3), (8, 3), (6, 4), (7, 4), (4, 5)):
        add(_pyr_power(cons.polygon(m), k), f"pyr^{k}(polygon{m})",
            _pyr_op_power(_polygon_cd(m), k))
    for a, b in ((3, 4), (4, 6), (5, 5), (5, 7), (6, 8), (8, 12), (3, 9)):
        add(cons.star_product(cons.polygon(a), cons.polygon(b)),
            f"polygon{a}*polygon{b}", _polygon_cd(a) * _polygon_cd(b))
    for a, b in ((4, 5), (5, 6)):
        add(cons.star_product(cons.boolean_algebra(a), cons.boolean_algebra(b)),
            f"boolean{a}*boolean{b}", _simplex_cd(a) * _simplex_cd(b))
    add(cons.star_product(cons.polygon(6), cons.boolean_algebra(6)),
        "polygon6*boolean6", _polygon_cd(6) * _simplex_cd(6))
    for name, L in lattice_corpus(4):
        if L.n != 4:
            continue
        for r in range(1, L.n + 1):
            for nu in _of_rank(L, r, 4):
                # each route is checked against the other route's definition
                text, new = relabel(L, rng)
                groups.append(_single(
                    text, "lambda_nu_ab_formula", f"{name} nu=rank-{r} id {new[nu]}",
                    lambda P, _make_rng, nu=new[nu]: flags.lambda_nu_ab_formula(P, nu),
                    flags.ab_index(cons.lambda_nu_poset(L, nu))))
                text, new = relabel(L, rng)
                groups.append(_single(
                    text, "lambda_nu_prime_cd", f"{name} nu=rank-{r} id {new[nu]}",
                    lambda P, _make_rng, nu=new[nu]: flags.lambda_nu_prime_cd(P, nu),
                    flags.cd_index(cons.semisuspension(L, nu))))
    for name, L in lattice_corpus(4):
        proper = [e for e in L.elements() if e != L.bottom]
        for nu in (proper[0], proper[-1]):
            add(cons.remove_upset(L, nu)[0], f"{name} minus an upset (a ball)",
                NotEulerian)
        add(cons.lambda_nu_poset(L, proper[len(proper) // 2]),
            f"Lambda_nu of {name} (a ball)", NotEulerian)
    add(_path_poset(), "path", NotEulerian)
    return groups


BUILDERS = {"certify": _certify, "decompose": _decompose,
            "sheaf_sweep": _sheaf_sweep, "flag_index": _flag_index}


def build(name, seed):
    """The workload's op list for this seed, groups in seeded order."""
    rng = random.Random(f"{name}/{seed}")
    groups = BUILDERS[name](rng)
    rng.shuffle(groups)
    return Workload(groups)
