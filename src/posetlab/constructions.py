"""Factories for every poset the library manipulates.

Boolean algebras, polygons, star and Cartesian products, pyramids, order
complexes, the semisuspension family, upset removal, and the subdivision
target [0,nu) * Pyr[nu,1) with its three-case map.

Derived posets use fresh contiguous ids; `provenance` maps each new id back
to the source data (an id, a pair, a chain tuple, or "*"), and labels stay
human readable because debugging subdivision maps without them is hopeless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .homology import budgeted_chains
from .poset import TOP, GradedPoset, NotALattice, UnknownElement, _bits


@dataclass(frozen=True)
class PosetMap:
    """An order-preserving map between graded posets (rank may drop)."""

    source: GradedPoset
    target: GradedPoset
    assignment: dict = field(compare=False)

    def __post_init__(self):
        # one bit test per cover; the first failure in covers() order is named
        source, target, assignment = self.source, self.target, self.assignment
        image = []
        for x in source.elements():
            if x not in assignment:
                raise UnknownElement(f"map not defined on {x!r}")
            image.append(target._index(assignment[x]))
        geq = target._geq
        if not all(geq[image[i]] >> image[j] & 1
                   for i, ups in enumerate(source._covers_up) for j in ups):
            lo, hi = next((lo, hi) for lo, hi in source.covers()
                          if not target.leq(assignment[lo], assignment[hi]))
            raise ValueError(
                f"map does not preserve order on cover ({lo!r}, {hi!r})")


def single_point():
    return GradedPoset.from_covers(0, {0: 0}, [], labels={0: "0"})


def boolean_algebra(k):
    """All proper subsets of a k-set (the full set is the virtual top);
    rank k-1, a Gorenstein* lattice."""
    if k < 1:
        raise ValueError("boolean_algebra needs k >= 1")
    subsets = []
    for size in range(k):
        subsets.extend(combinations(range(k), size))
    ids = {s: i for i, s in enumerate(subsets)}
    ranks = {i: len(s) for s, i in ids.items()}
    covers = []
    for s, i in ids.items():
        for x in range(k):
            if x not in s:
                t = tuple(sorted(s + (x,)))
                if t in ids:
                    covers.append((i, ids[t]))
    labels = {i: "{" + ",".join(map(str, s)) + "}" for s, i in ids.items()}
    return GradedPoset.from_covers(k - 1, ranks, covers, labels=labels)


def segment():
    """Face poset of a segment: the two-atom rank-1 poset."""
    return boolean_algebra(2)


def polygon(m):
    """Face poset of the plane m-gon (m >= 2); m = 2 is the CW 2-gon with
    two edges glued at both endpoints, which is Gorenstein* but no lattice."""
    if m < 2:
        raise ValueError("polygon needs m >= 2")
    ranks = {0: 0}
    labels = {0: "0"}
    covers = []
    for i in range(m):
        ranks[1 + i] = 1
        labels[1 + i] = f"v{i + 1}"
        ranks[1 + m + i] = 2
        labels[1 + m + i] = f"e{i + 1}"
        covers.append((0, 1 + i))
    for i in range(m):
        e = 1 + m + i
        if m == 2:
            covers.extend([(1, e), (2, e)])
        else:
            covers.append((1 + i, e))
            covers.append((1 + (i + 1) % m, e))
    return GradedPoset.from_covers(2, ranks, covers, labels=labels)


def with_top(P):
    """P with its virtual top materialized as a real element of rank n+1."""
    ids = P.elements()
    ranks = {e: P.rank(e) for e in ids}
    top = max(ids) + 1
    ranks[top] = P.n + 1
    covers = list(P.covers()) + [(e, top) for e in P.maximal_elements()]
    labels = {e: P.label(e) for e in ids}
    labels[top] = "top"
    prov = {e: e for e in ids}
    prov[top] = TOP
    return GradedPoset.from_covers(P.n + 1, ranks, covers, labels=labels,
                                   provenance=prov)


def star_product(P, Q):
    """P * Q: all of P strictly below every element of Q minus its bottom;
    rank adds, Gorenstein*-ness is preserved (certified in tests)."""
    ranks, labels, prov, covers = {}, {}, {}, []
    pid = {}
    for e in P.elements():
        i = len(ranks)
        pid[e] = i
        ranks[i] = P.rank(e)
        labels[i] = P.label(e)
        prov[i] = ("L", e)
    qid = {}
    for e in Q.elements():
        if e == Q.bottom:
            continue
        i = len(ranks)
        qid[e] = i
        ranks[i] = P.n + Q.rank(e)
        labels[i] = Q.label(e)
        prov[i] = ("R", e)
    covers += [(pid[a], pid[b]) for a, b in P.covers()]
    covers += [(qid[a], qid[b]) for a, b in Q.covers() if a != Q.bottom]
    atoms_q = [e for e in Q.elements() if Q.rank(e) == 1]
    covers += [(pid[t], qid[a]) for t in P.maximal_elements() for a in atoms_q]
    return GradedPoset.from_covers(P.n + Q.n, ranks, covers, labels=labels,
                                   provenance=prov)


def _pair_product(P, Q, n, drop=None, through=False):
    """The pairs (x, y) of P x Q other than `drop`, numbered in
    (P.elements(), Q.elements()) order and ranked rank x + rank y, each
    covered by raising one coordinate along a factor cover.  Provenance is
    (x, y), or the factors' own provenance of x and y when `through`."""
    ranks, labels, prov = {}, {}, {}
    pairs = {}
    for x in P.elements():
        for y in Q.elements():
            if (x, y) == drop:
                continue
            i = len(ranks)
            pairs[(x, y)] = i
            ranks[i] = P.rank(x) + Q.rank(y)
            labels[i] = f"({P.label(x)},{Q.label(y)})"
            prov[i] = (P.provenance[x], Q.provenance[y]) if through else (x, y)
    up_p, up_q = ({F._ids[i]: [F._ids[j] for j in ups]
                   for i, ups in enumerate(F._covers_up)} for F in (P, Q))
    covers = []
    for (x, y), i in pairs.items():
        covers += [(i, pairs[(b, y)]) for b in up_p[x] if (b, y) in pairs]
        covers += [(i, pairs[(x, b)]) for b in up_q[y] if (x, b) in pairs]
    return GradedPoset.from_covers(n, ranks, covers, labels=labels,
                                   provenance=prov)


def cartesian_product(P, Q):
    """(P u {top}) x (Q u {top}) minus its top; rank n_P + n_Q + 1.

    This is the bounded product behind the pyramid operation:
    cartesian_product(P, single_point()) == pyr_poset(P).  Provenance is
    the pair (x, y) with TOP standing for the adjoined maxima.
    """
    PT, QT = with_top(P), with_top(Q)
    return _pair_product(PT, QT, P.n + Q.n + 1, through=True,
                         drop=(PT.elements()[-1], QT.elements()[-1]))


def polytope_product(P, Q):
    """Plain poset product: the face poset of the free sum of the polytopes
    behind P and Q (segment x segment = square); rank n_P + n_Q.

    This is also the product under which order complexes multiply:
    O(P * Q) is isomorphic to polytope_product(O(P), O(Q)).
    """
    return _pair_product(P, Q, P.n + Q.n)


def pyr_poset(P):
    """Pyramid: Pyr(P) u {top} = (P u {top}) x B1, top removed; rank n+1."""
    return cartesian_product(P, single_point())


def cross_polytope(d):
    """Face poset of the d-dimensional cross-polytope: the plain product of
    d segment face posets (free sums of segments)."""
    if d < 1:
        raise ValueError("cross_polytope needs d >= 1")
    out = segment()
    for _ in range(d - 1):
        out = polytope_product(out, segment())
    return out


def cube_poset(d=3):
    """Face poset of the d-cube: the dual of the cross-polytope."""
    if d < 1:
        raise ValueError("cube_poset needs d >= 1")
    bounded = with_top(cross_polytope(d))
    rev = bounded.dual()
    # strip the unique maximal element (the old bottom) to drop the top
    top = max(rev.elements(), key=rev.rank)
    return rev.interval(rev.bottom, top)


def order_complex(P):
    """Chains of P containing the bottom, ordered by inclusion; rank n.

    Provenance stores each chain as the ascending tuple of its non-bottom
    source ids, so elements double as simplices of the order complex.
    Raises homology.FaceBudgetExceeded past homology.FACE_BUDGET chains.
    """
    root = P._root
    chains = sorted(budgeted_chains(root, P._mask & ~(1 << P._bottom_idx)),
                    key=lambda c: (len(c), c))
    ids = {c: i for i, c in enumerate(chains)}
    ranks = {i: len(c) for c, i in ids.items()}
    labels, prov = {}, {}
    for c, i in ids.items():
        names = [root.label(root._ids[j]) for j in (P._bottom_idx,) + c]
        labels[i] = "<".join(names)
        prov[i] = tuple(root._ids[j] for j in c)
    covers = []
    for c, i in ids.items():
        for k in range(len(c)):
            sub = c[:k] + c[k + 1:]
            covers.append((ids[sub], i))
    return GradedPoset.from_covers(P.n, ranks, covers, labels=labels,
                                   provenance=prov)


def _proper_nu(L, nu, what):
    """The index of nu, once L is known to be a lattice (NotALattice names
    `what` otherwise) and nu to lie strictly above its bottom."""
    if not L.is_lattice():
        raise NotALattice(f"{what} needs a lattice")
    ni = L._index(nu)
    if ni == L._bottom_idx:
        raise ValueError("nu must be strictly above the bottom")
    return ni


def _lambda_nu_mask(L, nu):
    ni = _proper_nu(L, nu, "Lambda_nu")
    mask = 0
    for i in range(len(L)):
        if L._geq[i] & L._geq[ni]:
            mask |= 1 << i
    return mask


def lambda_nu_poset(L, nu):
    """Lambda_nu = {sigma | sigma v nu < top}: the faces of the facets
    containing nu; an induced subposet of rank n."""
    return L._materialize(_lambda_nu_mask(L, nu), L.n, 0)


def semisuspension(L, nu):
    """Lambda'_nu: Lambda_nu plus one rank-n cell * above exactly the
    elements not above nu.  The rank of * is forced to n; Eulerianness is
    certified by callers rather than assumed."""
    mask = _lambda_nu_mask(L, nu)
    ni = L._index(nu)
    sub = L._materialize(mask, L.n, 0)
    star = len(sub)
    ranks = {e: sub.rank(e) for e in sub.elements()}
    ranks[star] = L.n
    covers = list(sub.covers())
    # * covers the maximal elements of {sigma in Lambda_nu : nu not <= sigma};
    # sub numbers the members of `mask` in order, ids equal to indices
    below = sum(1 << e for e, i in enumerate(_bits(mask)) if not (L._geq[ni] >> i) & 1)
    covers += [(e, star) for e in _bits(below) if sub._geq[e] & below == 1 << e]
    labels = {e: sub.label(e) for e in sub.elements()}
    labels[star] = "*"
    prov = {e: sub.provenance[e] for e in sub.elements()}
    prov[star] = "*"
    return GradedPoset.from_covers(L.n, ranks, covers, labels=labels,
                                   provenance=prov)


def remove_upset(L, nu):
    """(Lambda minus [nu, top), its boundary {tau | tau v nu < top}).

    The boundary is returned in the ids of the new poset.
    """
    ni = _proper_nu(L, nu, "remove_upset")
    keep = L._mask & ~L._geq[ni]
    sub = L._materialize(keep, L.n, 0)
    boundary = frozenset(
        e for e in sub.elements()
        if L._geq[L._index(sub.provenance[e])] & L._geq[ni])
    return sub, boundary


def subdivision_target_and_map(L, nu):
    """Build T = [0,nu) * Pyr[nu,top) and the three-case map phi: L -> T:
    tau < nu goes to itself, tau >= nu goes to (tau, top-coordinate), and
    anything else goes to (tau v nu, bottom-coordinate), with the virtual
    join landing on the apex cell (top, bottom-coordinate)."""
    ni = _proper_nu(L, nu, "the subdivision target")
    lower, upper = L.interval(L.bottom, nu), L.interval(nu, TOP)
    pyr = pyr_poset(upper)
    target = star_product(lower, pyr)

    # target id by L-level key: tau for tau < nu, and (sigma, eps) for the
    # pyramid cells, sigma in [nu, top] (TOP for the apex side) and eps true
    # iff the point coordinate is the adjoined top
    at = {}
    for e, (side, old) in target.provenance.items():
        if side == "L":
            at[lower.provenance[old]] = e
        else:
            sigma, pt = pyr.provenance[old]
            at[(TOP if sigma is TOP else upper.provenance[sigma], pt is TOP)] = e

    above, below = L._geq[ni], L._leq[ni]
    assignment = {}
    for i, tau in enumerate(L._ids):
        if above >> i & 1:
            assignment[tau] = at[(tau, True)]
        elif below >> i & 1:
            assignment[tau] = at[tau]
        else:
            assignment[tau] = at[(L.join(tau, nu), False)]
    return target, PosetMap(L, target, assignment)


def collapse_map(L, nu):
    """The map L -> Lambda'_nu: identity on Lambda_nu, star elsewhere."""
    prime = semisuspension(L, nu)
    back = {old: e for e, old in prime.provenance.items()}
    assignment = {tau: back.get(tau, back["*"]) for tau in L.elements()}
    return PosetMap(L, prime, assignment)
