"""The verification corpus and the acceptance battery.

One registry defines every poset the checks run over (polygons, Boolean
algebras, cube and cross-polytope, pyramids and a few star products; rank
capped at 4 so order complexes stay tractable), and `run_acceptance`
executes the eight headline checks, returning one timed pass/fail record
per criterion.  The CLI's `corpus run-all` and the acceptance test module
both consume this.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import constructions as cons
from . import flags, homology, sheaves, subdivision
from .ncpoly import (NcPoly, ab_expand, alpha, alpha_ab_form, cd_contract,
                     cd_words, pyr_op, to_text)
from .poset import TOP


def lattice_corpus(max_rank=4):
    """Gorenstein* lattices: the main-inequality / decomposition corpus."""
    out = []
    for m in range(3, 9):
        out.append((f"polygon{m}", cons.polygon(m)))
    for k in range(3, 6):
        out.append((f"boolean{k}", cons.boolean_algebra(k)))
    out.append(("cube", cons.cube_poset(3)))
    out.append(("cross", cons.cross_polytope(3)))
    for m in range(3, 9):
        out.append((f"pyr_polygon{m}", cons.pyr_poset(cons.polygon(m))))
    out.append(("pyr_boolean3", cons.pyr_poset(cons.boolean_algebra(3))))
    out.append(("pyr_boolean4", cons.pyr_poset(cons.boolean_algebra(4))))
    out.append(("pyr_cube", cons.pyr_poset(cons.cube_poset(3))))
    out.append(("pyr_cross", cons.pyr_poset(cons.cross_polytope(3))))
    return [(n, P) for n, P in out if P.n <= max_rank]


def gorenstein_corpus(max_rank=4):
    """All Gorenstein* corpus posets, lattices or not (rank <= 4)."""
    seg = cons.segment
    out = [("polygon2", cons.polygon(2)), ("boolean2", cons.boolean_algebra(2))]
    out.extend(lattice_corpus(max_rank))
    out.append(("seg_star_seg", cons.star_product(seg(), seg())))
    out.append(("seg_star_polygon3", cons.star_product(seg(), cons.polygon(3))))
    out.append(("polygon2_star_seg", cons.star_product(cons.polygon(2), seg())))
    out.append(("prism3", cons.polytope_product(seg(), cons.polygon(3))))
    return [(n, P) for n, P in out if P.n <= max_rank]


def proper_elements(P):
    return [e for e in P.elements() if e != P.bottom]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} [{self.number}] {self.name} ({self.seconds:.2f}s) {self.detail}"


def _timed(fn):
    t0 = time.time()
    passed, detail = fn()
    return passed, time.time() - t0, detail


def criterion_1_polygon_formula():
    for m in range(2, 13):
        got = flags.cd_index(cons.polygon(m))
        want = NcPoly("cd", {"cc": 1, "d": m - 2})
        if got != want:
            return False, f"polygon({m}) gave {to_text(got)}"
    return True, "cd(polygon(n)) = c^2 + (n-2)d for n = 2..12"


def criterion_2_main_inequality(max_rank=4):
    checked = 0
    for name, L in lattice_corpus(max_rank):
        for nu in proper_elements(L):
            rep = subdivision.verify_main_inequality(L, nu)
            if not rep:
                return False, f"{name}, nu={L.label(nu)}: witness {rep.witness}"
            checked += 1
    rep = subdivision.verify_main_inequality(cons.polygon(2), 1)
    if rep or rep.witness != ("d",):
        return False, f"2-gon did not fail with witness d (got {rep.witness})"
    return True, f"{checked} (lattice, nu) pairs hold; 2-gon fails with witness d"


def criterion_3_decomposition(max_rank=4):
    pairs = 0
    for name, L in lattice_corpus(max_rank):
        for nu in proper_elements(L):
            maps = [cons.subdivision_target_and_map(L, nu)[1],
                    cons.collapse_map(L, nu)]
            for phi in maps:
                # decompose checks the assembled sum against flag enumeration
                try:
                    dec = subdivision.decompose(phi)
                except (subdivision.NotASubdivision,
                        subdivision.DecompositionMismatch) as exc:
                    return False, f"{name}, nu={L.label(nu)}: {exc}"
                for s, poly in dec.terms.items():
                    if any(c < 0 for c in poly.terms.values()):
                        return False, (f"{name}, nu={L.label(nu)}: negative Phi "
                                       f"at {phi.target.label(s)}")
                pairs += 1
    return True, f"{pairs} subdivision maps decompose exactly with nonnegative Phi"


def criterion_4_stanley(max_rank=4):
    for name, L in lattice_corpus(max_rank):
        rep = subdivision.verify_stanley_minimum(L)
        if not rep:
            return False, f"{name}: witness {rep.witness}"
    return True, "boolean cd-index is a lower bound across the lattice corpus"


def criterion_5_flag_formulas(max_rank=4):
    for k in range(1, 9):
        if alpha_ab_form(k) != ab_expand(alpha(k)):
            return False, f"alpha_ab_form({k}) mismatch"
    pairs = 0
    for name, L in lattice_corpus(max_rank):
        for nu in proper_elements(L):
            lam = cons.lambda_nu_poset(L, nu)
            if flags.lambda_nu_ab_formula(L, nu) != flags.ab_index(lam):
                return False, f"{name}, nu={L.label(nu)}: Lambda_nu formula"
            prime = cons.semisuspension(L, nu)
            if not prime.is_eulerian():
                return False, f"{name}, nu={L.label(nu)}: semisuspension not Eulerian"
            if flags.lambda_nu_prime_cd(L, nu) != flags.cd_index(prime):
                return False, f"{name}, nu={L.label(nu)}: semisuspension formula"
            if flags.star_chain_sum(L, nu) != \
                    flags.ab_index(prime) - flags.ab_index(lam):
                return False, f"{name}, nu={L.label(nu)}: star-chain sum"
            pairs += 1
    intervals = 0
    for name, L in lattice_corpus(max_rank):
        for tau in L.elements():
            for pi in list(L.elements()) + [TOP]:
                gap = (L.n + 1 - L.rank(tau) if pi is TOP
                       else L.rank(pi) - L.rank(tau))
                if pi is not TOP and (pi == tau or not L.leq(tau, pi)):
                    continue
                if not 1 <= gap <= 4:
                    continue
                if not flags.pyr_alpha_recurrence_check(L, tau, pi):
                    return False, f"{name}: recurrence fails on [{tau}, {pi}]"
                intervals += 1
    return True, (f"alpha forms k=1..8; {pairs} (lattice, nu) formula pairs; "
                  f"{intervals} recurrence intervals")


def criterion_6_homology(max_rank=4):
    for name, P in gorenstein_corpus(max_rank):
        if not homology.is_gorenstein_star(P):
            return False, f"{name} not certified Gorenstein*"
    path = cons.GradedPoset.from_covers(
        2, {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2},
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
    if homology.is_gorenstein_star(path):
        return False, "path poset certified Gorenstein*"
    ball, _ = cons.remove_upset(cons.polygon(4), 1)
    if homology.is_gorenstein_star(ball):
        return False, "sphere-minus-cell certified Gorenstein*"
    # Gorenstein* <-> near-Gorenstein* in both directions
    instances = 0
    for name, P in gorenstein_corpus(max_rank):
        for pi in P.maximal_elements():
            if instances >= 24:
                break
            remaining = [e for e in P.elements() if e != pi]
            sub = P.restrict(remaining)
            bd = [e for e in remaining if P.leq(e, pi) and e != pi]
            if not homology.near_gorenstein_star_report(sub, bd):
                return False, f"{name} minus {P.label(pi)} not near-Gorenstein*"
            glued = _glue_cell(P, pi, bd)
            if not homology.is_gorenstein_star(glued):
                return False, f"regluing {P.label(pi)} onto {name} broke Gorenstein*"
            instances += 1
    # remove_upset pairs carry exactly the predicted boundary
    for name, L in lattice_corpus(max_rank)[:8]:
        for nu in proper_elements(L)[:3]:
            sub, bd = cons.remove_upset(L, nu)
            if not homology.is_near_gorenstein_star(sub, bd):
                return False, f"remove_upset({name}, {L.label(nu)}) not certified"
            if homology.derive_boundary(sub) != frozenset(bd):
                return False, f"remove_upset({name}, {L.label(nu)}) boundary differs"
    return True, f"corpus certified; lemma verified on {instances} instances"


def _glue_cell(P, pi, boundary_ids):
    """P minus pi, with a fresh top-rank cell glued over the old boundary."""
    ranks = {e: P.rank(e) for e in P.elements() if e != pi}
    new = max(P.elements()) + 1
    ranks[new] = P.n
    covers = [(a, b) for a, b in P.covers() if pi not in (a, b)]
    sub_ids = set(boundary_ids)
    for e in boundary_ids:
        if not any(P.leq(e, f) and e != f for f in sub_ids):
            covers.append((e, new))
    return cons.GradedPoset.from_covers(P.n, ranks, covers)


def extraction_sweep(P, seed, sweeps, word=None):
    """(word, seed, extracted, flag coefficient) for each C/D extraction on
    P: every degree-n cd-word, or only `word`; a word with a d at seeds
    seed..seed+sweeps-1, a c-only word (no D draws) once."""
    want = flags.cd_index(P)
    for w in cd_words(P.n) if word is None else [word]:
        for s in range(seed, seed + (sweeps if "d" in w else 1)):
            yield w, s, sheaves.cd_coefficient_via_CD(P, w, seed=s), want.coeff(w)


def criterion_7_sheaf_cross_validation(seed=0, sweeps=100, max_rank=4):
    words_checked = 0
    for name, P in gorenstein_corpus(min(max_rank, 4)):
        for w, s, got, want in extraction_sweep(P, seed, sweeps):
            if got != want:
                return False, f"{name}, word {w}, seed {s}: {got} != {want}"
        words_checked += len(cd_words(P.n))
    return True, (f"{words_checked} (poset, word) extractions agree with flag "
                  f"enumeration across {sweeps} seeds")


def criterion_8_algebra_properties(seed=0, max_rank=4):
    rng = random.Random(seed)
    for _ in range(500):
        n = rng.randint(0, 8)
        poly = NcPoly("cd", {w: rng.randint(-6, 6) for w in cd_words(n)})
        if cd_contract(ab_expand(poly)) != poly:
            return False, f"roundtrip failed on {to_text(poly)}"
    small = [P for _, P in gorenstein_corpus(max_rank) if P.n <= 2]
    for P in small:
        for Q in small:
            if P.n + Q.n > 4:
                continue
            S = cons.star_product(P, Q)
            if flags.ab_index(S) != flags.ab_index(P) * flags.ab_index(Q):
                return False, "star product is not multiplicative"
    for name, P in gorenstein_corpus(max_rank):
        if P.n > 3:
            continue
        if flags.cd_index(cons.pyr_poset(P)) != pyr_op(flags.cd_index(P)):
            return False, f"pyramid compatibility fails on {name}"
    duals = 0
    for name, P in gorenstein_corpus(max_rank):
        if P.n > 3 or len(P) > 16:
            continue
        F = sheaves.constant_sheaf(P)
        D = sheaves.dual_sheaf(F)
        for i, e in enumerate(P.elements()):
            if sheaves.dual_dimension_formula(F, i) != D.dim(i):
                return False, f"duality dimension formula fails on {name} at {e}"
            duals += 1
    return True, (f"500 contraction roundtrips; star/pyramid compatibility; "
                  f"{duals} dual dimension checks")


def run_acceptance(seed=0, sweeps=100, max_rank=4):
    """Run all eight acceptance criteria; returns CriterionResults."""
    battery = [
        (1, "polygon cd-index formula", criterion_1_polygon_formula),
        (2, "main inequality over the corpus",
         lambda: criterion_2_main_inequality(max_rank)),
        (3, "decomposition theorem",
         lambda: criterion_3_decomposition(max_rank)),
        (4, "Stanley minimum", lambda: criterion_4_stanley(max_rank)),
        (5, "flag formulas and recurrence",
         lambda: criterion_5_flag_formulas(max_rank)),
        (6, "homology certification", lambda: criterion_6_homology(max_rank)),
        (7, "sheaf coefficient cross-validation",
         lambda: criterion_7_sheaf_cross_validation(seed, sweeps, max_rank)),
        (8, "algebra properties",
         lambda: criterion_8_algebra_properties(seed, max_rank=max_rank)),
    ]
    results = []
    for number, name, fn in battery:
        passed, seconds, detail = _timed(fn)
        results.append(CriterionResult(number, name, passed, seconds, detail))
    return results
