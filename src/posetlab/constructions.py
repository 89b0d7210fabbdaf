"""Factories for every poset the library manipulates.

Boolean algebras, polygons, star and Cartesian products, pyramids, order
complexes, the semisuspension family, upset removal, and the subdivision
target [0,nu) * Pyr[nu,1) with its three-case map.

Face posets of simplicial complexes (the point, Boolean algebras, order
complexes) come from one kernel, `_face_poset`, and a derived poset from
its inputs' index records; both go to the `GradedPoset` constructor
unchecked, but for the covers of the semisuspension's *, which skip a rank
when L is not thin.  Only `polygon` (its 2-gon is no simplicial complex)
has a cover list, validated by `GradedPoset.from_covers`.  Each poset's
ids keep the (rank, id) order and equal its indices, except in `with_top`,
which keeps P's ids, and `_pair_product`, whose ids are its pair numbers
in (P, Q) order, not its indices (in Pyr(P), the cell (a, e) over P's
index a, len(P) for the top, is pair 2a + e).  Maps are index records too,
read off their targets' layouts.  `provenance` maps each new id back to
its source data (an id, a pair, a chain tuple, or "*"); labels stay human
readable, since debugging subdivision maps without them is hopeless.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from .homology import budgeted_chains
from .poset import TOP, GradedPoset, NotALattice, NotGraded, UnknownElement, _bits


@dataclass(frozen=True)
class PosetMap:
    """An order-preserving map between graded posets (rank may drop): image[i]
    is the target index of source index i.  Builders pass it unchecked, with
    a proof; `from_assignment` checks an id assignment from outside."""

    source: GradedPoset
    target: GradedPoset
    image: tuple

    @classmethod
    def from_assignment(cls, source, target, assignment):
        # one bit test per cover; the first failure in covers() order is named
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
        if stray := assignment.keys() - source._idx.keys():
            raise UnknownElement(f"map defined on unknown element {min(stray)!r}")
        return cls(source, target, tuple(image))


def _face_poset(n, faces, labels, provenance=None):
    """The face poset of a simplicial complex whose facets have n vertices:
    `faces` are ascending vertex tuples, closed under taking faces, grouped
    by size with the empty face first.  Face i gets id and index i, rank
    len(face), labels[i] and provenance[i]; the faces one vertex larger
    cover it.  Valid unchecked: ranks ascend with the indices from the one
    empty face; a face minus a vertex is a face (closure) one rank lower;
    and f < g climbs through f plus one vertex of g at a time, all faces,
    so these covers generate inclusion, every face above the empty one."""
    index = {f: i for i, f in enumerate(faces)}
    covers_up = [[] for _ in faces]
    for i, f in enumerate(faces):
        for k in range(len(f)):
            covers_up[index[f[:k] + f[k + 1:]]].append(i)
    return GradedPoset(n, range(len(faces)), map(len, faces), covers_up,
                       dict(enumerate(labels)), dict(enumerate(provenance or ())))


def single_point():
    """The face poset of the empty complex: its empty face alone."""
    return _face_poset(0, [()], ["0"])


def boolean_algebra(k):
    """The proper subsets of a k-set, faces of the (k-1)-simplex's boundary
    (the full set is the virtual top); rank k-1, a Gorenstein* lattice."""
    if k < 1:
        raise ValueError("boolean_algebra needs k >= 1")
    faces = [s for size in range(k) for s in combinations(range(k), size)]
    return _face_poset(k - 1, faces, ["{" + ",".join(map(str, s)) + "}" for s in faces])


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
    top = max(P._ids) + 1
    labels = {**{e: P.label(e) for e in P._ids}, top: "top"}
    prov = {**dict(zip(P._ids, P._ids)), top: TOP}
    return GradedPoset(P.n + 1, P._ids + (top,), P._rank + (P.n + 1,),
                       [ups or (len(P),) for ups in P._covers_up] + [()],
                       labels=labels, provenance=prov)


def star_product(P, Q):
    """P * Q: all of P strictly below every element of Q minus its bottom;
    rank adds, Gorenstein*-ness is preserved (certified in tests).  Q's
    index j > 0 becomes len(P) + j - 1, and P's maximal elements are
    covered by Q's atoms."""
    shift = len(P) - 1
    atoms = [shift + j for j in Q._covers_up[0]]
    covers_up = [ups or atoms for ups in P._covers_up]
    covers_up += [[shift + j for j in ups] for ups in Q._covers_up[1:]]
    ranks = P._rank + tuple(P.n + r for r in Q._rank[1:])
    labels = [P.label(e) for e in P._ids] + [Q.label(e) for e in Q._ids[1:]]
    prov = [("L", e) for e in P._ids] + [("R", e) for e in Q._ids[1:]]
    return GradedPoset(P.n + Q.n, range(len(ranks)), ranks, covers_up,
                       labels=dict(enumerate(labels)),
                       provenance=dict(enumerate(prov)))


def _pair_product(P, Q, n, drop=(-1, -1)):
    """The index pairs (a, b) of P x Q other than `drop`, the pair of tops
    that `with_top` adjoined, ranked rank a + rank b, each covered by
    raising one coordinate along a factor cover.  Each pair's id is its
    number in (a, b) order, and its index its place by (rank, id), so the
    ids are not the indices.  Provenance is the factors' ids (x, y), with
    TOP for an adjoined top."""
    pairs = [(a, b) for a in range(len(P)) for b in range(len(Q)) if (a, b) != drop]
    rank = [P._rank[a] + Q._rank[b] for a, b in pairs]
    order = sorted(range(len(pairs)), key=rank.__getitem__)  # stable: ties by id
    index = {pairs[k]: i for i, k in enumerate(order)}
    covers_up = [[index[c, b] for c in P._covers_up[a] if (c, b) in index]
                 + [index[a, c] for c in Q._covers_up[b] if (a, c) in index]
                 for a, b in map(pairs.__getitem__, order)]
    labels, prov = {}, {}
    for k, (a, b) in enumerate(pairs):
        x, y = P._ids[a], Q._ids[b]
        labels[k] = f"({P.label(x)},{Q.label(y)})"
        prov[k] = (TOP if a == drop[0] else x, TOP if b == drop[1] else y)
    return GradedPoset(n, order, map(rank.__getitem__, order), covers_up,
                       labels=labels, provenance=prov)


def cartesian_product(P, Q):
    """(P u {top}) x (Q u {top}) minus its top; rank n_P + n_Q + 1.

    This is the bounded product behind the pyramid operation:
    cartesian_product(P, single_point()) == pyr_poset(P).  Provenance is
    the pair (x, y) with TOP standing for the adjoined maxima.
    """
    PT, QT = with_top(P), with_top(Q)
    return _pair_product(PT, QT, P.n + Q.n + 1, drop=(len(P), len(Q)))


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
    return reduce(polytope_product, [segment() for _ in range(d)])


def cube_poset(d=3):
    """Face poset of the d-cube: the dual of the cross-polytope."""
    if d < 1:
        raise ValueError("cube_poset needs d >= 1")
    rev = with_top(cross_polytope(d)).dual()
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
    return _face_poset(
        P.n, chains,
        ["<".join(root.label(root._ids[j]) for j in (P._bottom_idx,) + c) for c in chains],
        [tuple(root._ids[j] for j in c) for c in chains])


def _proper_nu(L, nu, what):
    """The index of nu, once L is known to be a lattice (NotALattice names
    `what` otherwise) and nu to lie strictly above its bottom."""
    if not L.is_lattice():
        raise NotALattice(f"{what} needs a lattice")
    ni = L._index(nu)
    if ni == L._bottom_idx:
        raise ValueError("nu must be strictly above the bottom")
    return ni


def _lambda_nu_mask(L, ni):
    """Lambda_nu = {sigma | sigma v nu < top} for nu at index ni: the
    elements below some element above nu."""
    return reduce(or_, map(L._leq.__getitem__, _bits(L._geq[ni])))


def lambda_nu_poset(L, nu):
    """Lambda_nu = {sigma | sigma v nu < top}: the faces of the facets
    containing nu; an induced subposet of rank n."""
    ni = _proper_nu(L, nu, "Lambda_nu")
    return L._materialize(_lambda_nu_mask(L, ni), L.n, 0)


def semisuspension(L, nu):
    """Lambda'_nu: Lambda_nu plus one rank-n cell * above exactly the
    elements not above nu.  The rank of * is forced to n (NotGraded when L
    is not thin); Eulerianness is certified by callers rather than assumed."""
    ni = _proper_nu(L, nu, "Lambda_nu")
    mask = _lambda_nu_mask(L, ni)
    sub = L._materialize(mask, L.n, 0)
    star = len(sub)
    # * covers the maximal elements of {sigma in Lambda_nu : nu not <= sigma};
    # sub numbers the members of `mask` in order, ids equal to indices
    below = sum(1 << e for e, i in enumerate(_bits(mask)) if not (L._geq[ni] >> i) & 1)
    covers_up = list(sub._covers_up) + [()]
    for e in _bits(below):
        if sub._geq[e] & below == 1 << e:
            if sub._rank[e] != L.n - 1:
                raise NotGraded(f"cover ({e}, {star}) skips from rank {sub._rank[e]} to {L.n}")
            covers_up[e] += (star,)
    return GradedPoset(L.n, range(star + 1), sub._rank + (L.n,), covers_up,
                       labels={**sub.labels, star: "*"},
                       provenance={**sub.provenance, star: "*"})


def remove_upset(L, nu):
    """(Lambda minus [nu, top), its boundary {tau | tau v nu < top}).

    The boundary is returned in the ids of the new poset, its indices.
    """
    ni = _proper_nu(L, nu, "remove_upset")
    keep = L._mask & ~L._geq[ni]
    lam = _lambda_nu_mask(L, ni)
    boundary = frozenset(e for e, i in enumerate(_bits(keep)) if lam >> i & 1)
    return L._materialize(keep, L.n, 0), boundary


def subdivision_target_and_map(L, nu):
    """Build T = [0,nu) * Pyr[nu,top) and the three-case map phi: L -> T:
    tau < nu goes to itself, tau >= nu goes to (tau, top-coordinate), and
    anything else goes to (tau v nu, bottom-coordinate), with the virtual
    join landing on the apex cell (top, bottom-coordinate).

    phi preserves order on every lattice L.  T orders the pyramid cells
    (sigma, eps) componentwise and puts every tau < nu below each of them
    but (nu, 0), the bottom of the pyramid, which T drops.  Let tau <= tau'.
    If tau < nu, phi(tau') is tau' < nu or a pyramid cell other than
    (nu, 0), above tau either way.  If tau >= nu, so is tau', and (tau, 1) <=
    (tau', 1).  Otherwise tau' is not below nu either; if tau' >= nu, it
    bounds tau and nu, so tau v nu <= tau' < top and (tau v nu, 0) <=
    (tau', 1), and if not, (tau v nu, 0) <= (tau' v nu, 0).  The apex
    (top, 0) lies below no (sigma, 1), and the case split never needs it
    to: tau v nu = top forces tau' v nu = top."""
    ni = _proper_nu(L, nu, "the subdivision target")
    lower, upper = L.interval(L.bottom, nu), L.interval(nu, TOP)
    pyr = pyr_poset(upper)
    target = star_product(lower, pyr)
    # tau < nu keeps its place in leq[nu], and cell (sigma, eps) is pyr's
    # pair 2a + eps, a sigma's place in geq[nu] (nu's too) or len(upper) for
    # the apex; star_product moves pyr's index j to len(lower) + j - 1
    shift, above, below = len(lower) - 1, L._geq[ni], L._leq[ni]
    place = {i: a for mask in (below, above) for a, i in enumerate(_bits(mask))}
    image = []
    for i, up in enumerate(L._geq):
        if above >> i & 1:
            image.append(shift + pyr._idx[2 * place[i] + 1])
        elif below >> i & 1:
            image.append(place[i])
        else:  # tau v nu, or the apex when only the virtual top bounds both
            ub = up & above
            image.append(shift + pyr._idx[2 * (place[L._join_idx(ub)] if ub else len(upper))])
    return target, PosetMap(L, target, tuple(image))


def collapse_map(L, nu):
    """The map L -> Lambda'_nu: identity on Lambda_nu (index i to its
    place in the mask), star (the last index) elsewhere.

    It preserves order.  Let tau <= tau'.  Lambda_nu is an order ideal,
    so either both lie in it and keep their order, or both go to *, or
    only tau lies in it.  Then tau is not above nu, since nu <= tau <= tau'
    would give tau' v nu = tau' < top, putting tau' in Lambda_nu; and *
    lies above every element of Lambda_nu not above nu, an order ideal
    whose maximal elements it covers."""
    prime = semisuspension(L, nu)
    image = [len(prime) - 1] * len(L)
    for e, i in enumerate(_bits(_lambda_nu_mask(L, L._index(nu)))):
        image[i] = e
    return PosetMap(L, prime, tuple(image))
