"""Subdivision maps, the decomposition theorem, and inequality verifiers.

Every verifier returns a report object carrying witnesses (the failing
target element, the offending cd-monomials, both sides of an inequality)
because a bare boolean is useless for a verification artifact.  Reports are
truthy iff the property holds.

Fiber certifications are cached on the source poset keyed by fiber element
masks, so closed intervals shared between different maps, different nu and
different target elements are certified once.  Fibers and boundaries are
order ideals of the source, read off its one cached flag walk.  `decompose`
reads [sigma, 1-hat) for each sigma with Phi != 0 from one top-down walk of
its target (`flags.upper_intervals`) and contracts each distinct ab-index
once, in a memo on the same source poset.

Most fibers are cones [0-hat, tau] of the certified source, balls with no
walk of their own (the cone lemma in `homology`): for the subdivision map
those over the tau below nu and over the top-coordinate cells (tau, top),
tau >= nu; for the collapse map those over Lambda_nu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import constructions, flags, homology
from .ncpoly import NcPoly, coeffwise_witness, pyr_op, to_text
from .poset import NotALattice, SubPoset, _bits, interval_view


class RankMismatch(Exception):
    pass


class SourceNotGorenstein(Exception):
    pass


class TargetNotGorenstein(Exception):
    pass


class NotASubdivision(Exception):
    pass


class DecompositionMismatch(Exception):
    pass


class NotGorensteinStar(Exception):
    pass


@dataclass(frozen=True)
class SubdivisionReport:
    """`fibers` holds the certified fiber masks of a passing check, as
    `_fiber_masks` gives them, for `decompose` to reuse."""

    ok: bool
    reason: str = ""
    failing_sigma: object = None
    detail: object = None
    fibers: tuple = field(default=None, compare=False, repr=False)

    def __bool__(self):
        return self.ok


def _fiber_masks(phi):
    """Two lists by target index: the masks (over source indices) of the
    closed fiber phi^-1[0,sigma], bottom-up its image or'ed with the closed
    fibers of its lower covers, and of the image phi^-1(sigma)."""
    src, tgt = phi.source, phi.target
    image = [0] * len(tgt._ids)
    assignment, index = phi.assignment, tgt._idx
    for i, x in enumerate(src._ids):
        image[index[assignment[x]]] |= 1 << i
    closed = image[:]
    for t, ups in enumerate(tgt._covers_up):
        for u in ups:
            closed[u] |= closed[t]
    return closed, image


def is_subdivision(phi):
    """Check Def-style subdivision conditions: equal rank Gorenstein* ends,
    surjectivity, and near-Gorenstein* fiber pairs of matching rank."""
    src, tgt = phi.source, phi.target
    if src.n != tgt.n:
        raise RankMismatch(f"source rank {src.n} != target rank {tgt.n}")
    if not homology.is_gorenstein_star(src):
        raise SourceNotGorenstein("source poset is not Gorenstein*")
    if not homology.is_gorenstein_star(tgt):
        raise TargetNotGorenstein("target poset is not Gorenstein*")
    closed, image = _fiber_masks(phi)
    missing = [s for s, imask in zip(tgt._ids, image) if not imask]
    if missing:
        return SubdivisionReport(False, "map is not surjective", min(missing))
    for s, cmask, imask, r in zip(tgt._ids, closed, image, tgt._rank):
        cert = homology.certify_near_gorenstein(
            src._root, cmask, src._bottom_idx, r, cmask & ~imask)
        if not cert:
            return SubdivisionReport(False,
                                     f"fiber pair over {tgt.label(s)} is not "
                                     f"near-Gorenstein*: {cert.reason}",
                                     s, cert)
    return SubdivisionReport(True, fibers=(closed, image))


@dataclass(frozen=True)
class Decomposition:
    """Per-sigma Phi polynomials and the assembled sum, which equals the
    cd-index of the source exactly (checked by `decompose`)."""

    terms: dict = field(compare=False)
    assembled: NcPoly = None
    source_cd: NcPoly = None


def decompose(phi):
    """Evaluate the decomposition: Psi(source) = sum over sigma of
    Phi(fiber over sigma) * Psi([sigma, top) in target).

    Raises NotASubdivision when the map fails certification and
    DecompositionMismatch when the assembled sum differs from the source
    cd-index (which would signal a bug or an invalid certificate).
    """
    report = is_subdivision(phi)
    if not report:
        raise NotASubdivision(report.reason)
    src, tgt = phi.source, phi.target
    closed, image = report.fibers
    cache = src._cache.setdefault("fiber_phi", {})
    terms = []
    for cmask, imask, r in zip(closed, image, tgt._rank):
        key = (cmask, cmask & ~imask, r)
        if key not in cache:
            fiber = SubPoset(src._root, cmask, src._bottom_idx, r)
            bd_ids = [src._root._ids[i] for i in _bits(key[1])]
            cache[key] = flags.near_cd_index(fiber, bd_ids).phi
        terms.append(cache[key])
    memo = flags.contraction_memo(src)
    upper = flags.upper_intervals(
        tgt, sum(1 << t for t, term in enumerate(terms) if not term.is_zero()))
    assembled = NcPoly.zero("cd")
    for t, key in upper.items():
        assembled = assembled + terms[t] * flags.cd_of(key, memo)
    source_cd = flags.cd_index(src)
    if assembled != source_cd:
        raise DecompositionMismatch(
            f"assembled {to_text(assembled)} != source {to_text(source_cd)}")
    return Decomposition(dict(zip(tgt._ids, terms)), assembled, source_cd)


@dataclass(frozen=True)
class InequalityReport:
    ok: bool
    left: NcPoly = None
    right: NcPoly = None
    witness: tuple = ()
    note: str = ""

    def __bool__(self):
        return self.ok


def verify_subdivision_inequality(phi):
    """Theorem-level coefficientwise inequality Psi(source) >= Psi(target)."""
    report = is_subdivision(phi)
    if not report:
        raise NotASubdivision(report.reason)
    lo = flags.cd_index(phi.target)
    hi = flags.cd_index(phi.source)
    witness = tuple(coeffwise_witness(lo, hi))
    return InequalityReport(not witness, hi, lo, witness)


def verify_main_inequality(L, nu):
    """Psi(Lambda) >= Psi[0,nu) * Pyr(Psi[nu,top)), coefficientwise, plus
    the dual form with the pyramid on the lower factor.

    The inequality is evaluated even when L is not a lattice (the 2-gon
    counterexample must be reportable); the report notes lattice status.
    """
    if not homology.is_gorenstein_star(L):
        raise NotGorensteinStar("the main inequality needs a Gorenstein* poset")
    if nu == L.bottom:
        raise ValueError("nu must satisfy 0 < nu < top")
    left = flags.cd_index(L)
    ni = L._root._index(nu)
    lower = flags.cd_index(interval_view(L, L._bottom_idx, ni))
    upper = flags.cd_index(interval_view(L, ni))
    right = lower * pyr_op(upper)
    witness = tuple(coeffwise_witness(right, left)) or tuple(
        coeffwise_witness(pyr_op(lower) * upper, left))
    note = "" if L.is_lattice() else "input is not a lattice"
    return InequalityReport(not witness, left, right, witness, note)


def verify_stanley_minimum(L):
    """cd-index of the Boolean algebra of matching rank is a coefficientwise
    lower bound for any Gorenstein* lattice; the report notes lattice status."""
    if not homology.is_gorenstein_star(L):
        raise NotGorensteinStar("the Boolean-minimum bound needs a Gorenstein* poset")
    boolean = flags.cd_index(constructions.boolean_algebra(L.n + 1))
    mine = flags.cd_index(L)
    witness = tuple(coeffwise_witness(boolean, mine))
    note = "" if L.is_lattice() else "input is not a lattice"
    return InequalityReport(not witness, mine, boolean, witness, note)


def verify_corollary_semisusp(L, nu):
    """Psi of the semisuspension is coefficientwise at most Psi(Lambda)."""
    if not L.is_lattice():
        raise NotALattice("the semisuspension corollary needs a lattice")
    lo = flags.lambda_nu_prime_cd(L, nu)
    hi = flags.cd_index(L)
    witness = tuple(coeffwise_witness(lo, hi))
    return InequalityReport(not witness, hi, lo, witness)
