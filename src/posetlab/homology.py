"""Exact simplicial homology and Gorenstein*/near-Gorenstein* certification.

Two routes compute the same facts:

* a generic simplicial route (SimplicialComplex, reduced_homology, link,
  is_gorenstein_complex) that follows the definitions literally, and

* a fast poset route used by the certification predicates, which walks the
  chains of a poset and assembles each link's Betti vector from memoized
  open-interval homologies (the link of a chain in an order complex is the
  join of the order complexes of its gap intervals, and reduced homology
  turns joins into shifted products).

The generic route is the independent oracle for the fast one; the test
suite checks they agree across the corpus.  The routes build their
complexes and links independently and share one Betti kernel,
`_faces_betti`: faces by dimension -> boundary rows -> `sparse_rank` ->
reduced Betti numbers.  Every certification predicate of the fast route
(Gorenstein*, near-Gorenstein*, Cohen-Macaulay) runs one chain-link walk,
`_first_bad_link`, and differs only in what it expects of each link.  The
kernel and the walk are the seams for any change to how interval homology
is computed or certified.

Interval homology on the fast route is first computed over GF(2)
(`rank_mod2` on bitmask boundary rows), which certifies the Q answer when
it is supported in at most one degree: the boundary matrices are integer
matrices, so each GF(2) rank is at most the Q rank and each GF(2) Betti
number at least the Q one, while the reduced Euler characteristic (the
alternating sum of face counts) is the same over both fields.  Every other
profile, and the whole simplicial route, is computed exactly over Q by
fraction-free elimination over the integers.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import betti_from_ranks, rank_mod2, sparse_rank
from .poset import _bits, iter_chains


class SimplexNotFound(Exception):
    pass


class NotPure(Exception):
    pass


class BoundaryNotIdeal(Exception):
    pass


class BoundaryWrongRank(Exception):
    pass


class NotNearGorenstein(Exception):
    pass


# -- simplicial complexes ----------------------------------------------------


class SimplicialComplex:
    """Finite abstract simplicial complex; the empty simplex is implicit.

    Simplices are stored by dimension as sorted vertex tuples and the
    collection is validated to be closed under taking faces.
    """

    __slots__ = ("by_dim", "dim")

    def __init__(self, simplices):
        by_dim = {}
        seen = set()
        for s in simplices:
            t = tuple(sorted(s))
            if len(set(t)) != len(t):
                raise ValueError(f"repeated vertex in simplex {s!r}")
            if t and t not in seen:
                seen.add(t)
                by_dim.setdefault(len(t) - 1, []).append(t)
        for d, group in by_dim.items():
            group.sort()
            if d > 0:
                lower = set(by_dim.get(d - 1, ()))
                for s in group:
                    for face in combinations(s, d):
                        if face not in lower:
                            raise ValueError(f"complex not closed: missing {face}")
        self.by_dim = by_dim
        self.dim = max(by_dim) if by_dim else -1

    @classmethod
    def closure_of(cls, maximal):
        faces = set()
        for s in maximal:
            t = tuple(sorted(s))
            for k in range(1, len(t) + 1):
                faces.update(combinations(t, k))
        return cls(faces)

    def simplices(self, d):
        return self.by_dim.get(d, [])

    def all_simplices(self):
        """Every simplex including the empty one, ordered by dimension."""
        out = [()]
        for d in sorted(self.by_dim):
            out.extend(self.by_dim[d])
        return out

    def __contains__(self, s):
        t = tuple(sorted(s))
        if not t:
            return True
        return t in set(self.by_dim.get(len(t) - 1, ()))

    def f_vector(self):
        return tuple(len(self.by_dim.get(d, ())) for d in range(self.dim + 1))

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dim}, f={self.f_vector()})"


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers; betti[i] is the dimension in degree i-1, so
    the empty-simplex degree -1 (nonzero exactly for the empty complex)
    sits at index 0."""

    betti: tuple

    @classmethod
    def from_dict(cls, d):
        if not d:
            return cls(())
        top = max(d)
        return cls(tuple(d.get(i, 0) for i in range(-1, top + 1)))

    def degree(self, d):
        i = d + 1
        return self.betti[i] if 0 <= i < len(self.betti) else 0

    def as_dict(self):
        return {i - 1: b for i, b in enumerate(self.betti) if b}

    def is_zero(self):
        return all(b == 0 for b in self.betti)

    def is_real_in_degree(self, d):
        """Exactly one dimension of homology, sitting in degree d."""
        return self.as_dict() == {d: 1}

    def euler_characteristic_reduced(self):
        return sum((-1) ** (i - 1) * b for i, b in enumerate(self.betti))


def _boundary_betti(faces, rank, boundary_row):
    """Reduced Betti numbers {degree: dim}, nonzero only, of the simplicial
    complex whose d-faces are faces[d] (ascending vertex tuples) for
    d = -1 .. top, with faces[-1] == [()], over the field whose matrix rank
    is `rank`.  The boundary matrix of degree d has one row per face in
    faces[d], in that order, built by boundary_row(face, col) with columns
    indexed by position in faces[d - 1] (col maps a face to its column)."""
    top = len(faces) - 2
    ranks = []
    for d in range(top + 1):
        col = {s: k for k, s in enumerate(faces[d - 1])}
        ranks.append(rank([boundary_row(s, col) for s in faces[d]]))
    dims = [len(faces[d]) for d in range(-1, top + 1)]
    return {k - 1: b for k, b in enumerate(betti_from_ranks(dims, ranks)) if b}


def _faces_betti(faces):
    """Reduced Betti numbers over Q, by exact `sparse_rank` of the signed
    boundary rows (see _boundary_betti for the layout of `faces`)."""
    return _boundary_betti(faces, sparse_rank, lambda s, col: {
        col[s[:j] + s[j + 1:]]: (-1) ** j for j in range(len(s))})


def _faces_betti_mod2(faces):
    """Reduced Betti numbers over GF(2): the boundary rows lose their signs
    and become int bitmasks for `rank_mod2`."""
    return _boundary_betti(faces, rank_mod2, lambda s, col: sum(
        1 << col[s[:j] + s[j + 1:]] for j in range(len(s))))


def reduced_homology(K):
    """Reduced Betti numbers over Q via exact ranks of the augmented
    boundary matrices."""
    return HomologyProfile.from_dict(_faces_betti({-1: [()], **K.by_dim}))


def link(K, s):
    """Link of a simplex: all t disjoint from s with t u s in K."""
    t = tuple(sorted(s))
    if t not in K:
        raise SimplexNotFound(f"{s!r} is not a simplex of the complex")
    sset = set(t)
    out = []
    for u in K.all_simplices():
        if u and not (sset & set(u)) and tuple(sorted(t + u)) in K:
            out.append(u)
    return SimplicialComplex(out)


def is_gorenstein_complex(K):
    """Real homology sphere test: the complex must be pure and the link of
    every simplex x (the empty one included) must have its reduced homology
    equal to R concentrated in degree dim(K) - #vertices(x)."""
    maximal_dims = {d for d in K.by_dim
                    if any(_is_maximal(K, s) for s in K.simplices(d))}
    if K.dim >= 0 and maximal_dims != {K.dim}:
        raise NotPure(f"maximal simplices in dimensions {sorted(maximal_dims)}")
    for s in K.all_simplices():
        want = K.dim - len(s)
        if not reduced_homology(link(K, s)).is_real_in_degree(want):
            return False
    return True


def _is_maximal(K, s):
    d = len(s) - 1
    upper = K.simplices(d + 1)
    sset = set(s)
    return not any(sset <= set(u) for u in upper)


def order_complex_simplicial(P):
    """Chains of P avoiding the bottom, as a simplicial complex of
    dimension n-1 on the vertex set P minus the bottom."""
    root = P._root
    vmask = P._mask & ~(1 << P._bottom_idx)
    return SimplicialComplex(tuple(root._ids[i] for i in c)
                             for c in iter_chains(root, vmask) if c)


# -- fast chain-link engine ---------------------------------------------------


def _betti_mul(p, q):
    out = {}
    for d1, b1 in p.items():
        for d2, b2 in q.items():
            d = d1 + d2
            out[d] = out.get(d, 0) + b1 * b2
    return out


def _chain_faces(root, mask):
    """The complex of chains inside the vertex mask, as `_boundary_betti`
    takes it: faces[d] lists the chains with d + 1 elements."""
    faces = {}
    for c in iter_chains(root, mask):
        faces.setdefault(len(c) - 1, []).append(c)
    return faces


def _subset_betti(root, mask):
    """Betti polynomial over Q (dict degree -> dim, degree -1 allowed) of
    the complex of chains inside the vertex mask; memoized on the root
    poset.  The GF(2) profile is computed first and returned when it is
    supported in at most one degree, which proves it equal to the Q profile
    (see the module docstring); any other profile, 2-torsion included, is
    recomputed exactly over Q."""
    cache = root._cache.setdefault("subset_betti", {})
    if mask not in cache:
        faces = _chain_faces(root, mask)
        betti = _faces_betti_mod2(faces)
        cache[mask] = betti if len(betti) <= 1 else _faces_betti(faces)
    return cache[mask]


def _link_betti(root, view_mask, bottom_idx, chain):
    """Betti polynomial of the link of `chain` in the chain complex of the
    view: the join of the gap-interval complexes, shifted by the chain
    length (Kunneth for joins over a field)."""
    out = {len(chain): 1}
    prev = bottom_idx
    for el in chain:
        gap = root._geq[prev] & root._leq[el] & view_mask
        gap &= ~(1 << prev) & ~(1 << el)
        out = _betti_mul(out, _subset_betti(root, gap))
        prev = el
    upper = root._geq[prev] & view_mask & ~(1 << prev)
    return _betti_mul(out, _subset_betti(root, upper))


@dataclass(frozen=True)
class CertResult:
    ok: bool
    reason: str = ""
    witness: tuple = ()
    betti: dict | None = None

    def __bool__(self):
        return self.ok


def _structural_check(root, mask, bottom_idx, n):
    """Graded-poset sanity for an element subset: unique bottom, covers
    raise rank by one inside the subset, maximal elements at rank n."""
    if not (mask >> bottom_idx) & 1:
        return CertResult(False, "bottom not in subset")
    base = root._rank[bottom_idx]
    members = list(_bits(mask))
    for i in members:
        if root._rank[i] - base < 0:
            return CertResult(False, "element below the bottom rank", (root._ids[i],))
        if i != bottom_idx and not (root._geq[bottom_idx] >> i) & 1:
            return CertResult(False, "element not above the bottom", (root._ids[i],))
        if root._rank[i] - base > n:
            return CertResult(False, f"element above rank {n}", (root._ids[i],))
    for i in members:
        covers = root._minimal_in(root._geq[i] & mask & ~(1 << i))
        if not covers and root._rank[i] - base != n:
            return CertResult(False, "maximal element below top rank", (root._ids[i],))
        for j in covers:
            if root._rank[j] - root._rank[i] >= 2:
                return CertResult(False, "cover skips a rank",
                                  (root._ids[i], root._ids[j]))
    return CertResult(True)


def _first_bad_link(root, mask, bottom_idx, fits):
    """The chain-link walk: the first chain of the subposet `mask` (bottom
    excluded, empty chain first) whose link Betti polynomial fails
    `fits(chain, betti)`, as (chain, betti); None when every chain fits."""
    for chain in iter_chains(root, mask & ~(1 << bottom_idx)):
        betti = _link_betti(root, mask, bottom_idx, chain)
        if not fits(chain, betti):
            return chain, betti
    return None


def _boundary_defect(root, mask, bottom_idx, n, bmask):
    """Why `bmask` is not a rank-(n-1) ideal of the subposet `mask`, as
    (reason, index): index None when the rank is wrong, otherwise the first
    boundary element with a lower element outside the boundary.  None when
    `bmask` is such an ideal."""
    base = root._rank[bottom_idx]
    if not bmask or max(root._rank[i] for i in _bits(bmask)) - base != n - 1:
        return "boundary rank is not n-1", None
    for i in _bits(bmask):
        if root._leq[i] & mask & ~bmask:
            return "boundary is not an ideal", i
    return None


def certify_gorenstein(root, mask, bottom_idx, n):
    """Gorenstein* certification of the subposet `mask` (bottom included):
    the link of every chain must have homology R in degree n - k - 1."""
    cache = root._cache.setdefault("gor_cert", {})
    key = (mask, bottom_idx, n)
    if key in cache:
        return cache[key]
    res = _certify_gorenstein(root, mask, bottom_idx, n)
    cache[key] = res
    return res


def _certify_gorenstein(root, mask, bottom_idx, n):
    if mask == 0:
        return CertResult(n == -1, "" if n == -1 else "empty poset of rank != -1")
    st = _structural_check(root, mask, bottom_idx, n)
    if not st:
        return st
    bad = _first_bad_link(root, mask, bottom_idx,
                          lambda chain, betti: betti == {n - len(chain) - 1: 1})
    if bad:
        chain, betti = bad
        return CertResult(False, "link homology not a sphere",
                          tuple(root._ids[i] for i in chain), betti)
    return CertResult(True)


def certify_near_gorenstein(root, mask, bottom_idx, n, bmask):
    """Homology-ball certification of the pair (mask, bmask)."""
    cache = root._cache.setdefault("ngor_cert", {})
    key = (mask, bottom_idx, n, bmask)
    if key in cache:
        return cache[key]
    res = _certify_near_gorenstein(root, mask, bottom_idx, n, bmask)
    cache[key] = res
    return res


def _certify_near_gorenstein(root, mask, bottom_idx, n, bmask):
    if n == 0:
        ok = mask == (1 << bottom_idx) and bmask == 0
        return CertResult(ok, "" if ok else "rank-0 pair must be a bare point")
    st = _structural_check(root, mask, bottom_idx, n)
    if not st:
        return st
    if bmask & ~mask:
        return CertResult(False, "boundary not inside the poset")
    defect = _boundary_defect(root, mask, bottom_idx, n, bmask)
    if defect:
        reason, i = defect
        return CertResult(False, reason, () if i is None else (root._ids[i],))
    bg = certify_gorenstein(root, bmask, bottom_idx, n - 1)
    if not bg:
        return CertResult(False, f"boundary not Gorenstein*: {bg.reason}",
                          bg.witness, bg.betti)
    bvmask = bmask & ~(1 << bottom_idx)

    def in_boundary(chain):
        return all((bvmask >> i) & 1 for i in chain)

    def fits(chain, betti):
        if in_boundary(chain):
            return not betti
        return betti == {n - len(chain) - 1: 1}

    bad = _first_bad_link(root, mask, bottom_idx, fits)
    if bad:
        chain, betti = bad
        reason = ("boundary chain has nonzero link homology" if in_boundary(chain)
                  else "interior chain link is not a sphere")
        return CertResult(False, reason, tuple(root._ids[i] for i in chain), betti)
    return CertResult(True)


# -- public poset-level predicates -------------------------------------------


def is_gorenstein_star(P):
    """True iff the order complex of P is a real homology sphere."""
    return bool(certify_gorenstein(P._root, P._mask, P._bottom_idx, P.n))


def gorenstein_star_report(P):
    return certify_gorenstein(P._root, P._mask, P._bottom_idx, P.n)


def is_near_gorenstein_star(P, boundary_ids):
    """True iff (P, boundary) is a real homology ball with that boundary.

    The boundary must be an ideal of rank n-1 (BoundaryNotIdeal /
    BoundaryWrongRank otherwise); the homology conditions then decide.
    """
    root = P._root
    bmask = root._mask_of(boundary_ids)
    if P.n != 0:
        defect = _boundary_defect(root, P._mask, P._bottom_idx, P.n, bmask)
        if defect and defect[1] is None:
            raise BoundaryWrongRank(f"boundary must have rank {P.n - 1}")
        if defect:
            raise BoundaryNotIdeal(
                f"{root._ids[defect[1]]!r} has lower covers outside the boundary")
    return bool(certify_near_gorenstein(root, P._mask, P._bottom_idx, P.n, bmask))


def near_gorenstein_star_report(P, boundary_ids):
    return certify_near_gorenstein(P._root, P._mask, P._bottom_idx, P.n,
                                   P._root._mask_of(boundary_ids))


def is_cohen_macaulay(P):
    """Link homology of every chain vanishes below its top degree; the top
    degree itself is unconstrained."""
    return _first_bad_link(
        P._root, P._mask, P._bottom_idx,
        lambda chain, betti: all(d == P.n - len(chain) - 1 for d in betti)) is None


def derive_boundary(P):
    """Recover the unique boundary of a near-Gorenstein* poset: the
    elements whose singleton-chain link has vanishing homology, as an
    ideal (the bottom included).  Raises NotNearGorenstein otherwise."""
    root = P._root
    vmask = P._mask & ~(1 << P._bottom_idx)
    bmask = 1 << P._bottom_idx
    for i in _bits(vmask):
        if not _link_betti(root, P._mask, P._bottom_idx, (i,)):
            bmask |= 1 << i
    if P.n == 0:
        bmask = 0
    else:
        defect = _boundary_defect(root, P._mask, P._bottom_idx, P.n, bmask)
        if defect and defect[1] is None:
            raise NotNearGorenstein("no boundary of rank n-1 exists")
        if defect:
            raise NotNearGorenstein("candidate boundary is not an ideal")
    if not certify_near_gorenstein(root, P._mask, P._bottom_idx, P.n, bmask):
        raise NotNearGorenstein("candidate boundary fails the homology conditions")
    return frozenset(root._ids[i] for i in _bits(bmask))
