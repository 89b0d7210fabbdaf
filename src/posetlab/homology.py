"""Exact simplicial homology and Gorenstein*/near-Gorenstein* certification.

Two routes compute the same facts:

* a generic simplicial route (SimplicialComplex, reduced_homology, link,
  is_gorenstein_complex) that follows the definitions literally, and

* a fast poset route used by the certification predicates, which walks the
  open intervals (x, y) of a poset plus a virtual top, y = top included,
  and checks each one's memoized homology in degree rank(y) - rank(x) - 2.

The walk rests on two facts.  The link of a chain in an order complex is
the join of the order complexes of its gap intervals, and over a field
reduced homology turns joins into shifted products (Kunneth): a join is a
sphere iff every factor is, and acyclic iff some factor is.  And each
interval (x, y) is itself the link of the chain that saturates [bottom, x]
and [y, top).  So every chain link fits exactly when every interval does,
and a failure's witness is that saturating chain, whose link Betti numbers
are the interval's.  Every predicate (Gorenstein*, near-Gorenstein*,
Cohen-Macaulay) runs this one walk, `_first_bad_interval`, and differs
only in what it expects of an interval.

The generic route is the independent oracle for the fast one; the test
suite checks they agree.  Both share one Betti kernel, `_faces_betti`:
faces by dimension -> boundary rows -> `sparse_rank` -> reduced Betti
numbers.  The kernel and the walk are the seams for any change to how
interval homology is computed or certified.

Interval homology on the fast route is first computed over GF(2), which
certifies the Q answer when it is supported in at most one degree: the
boundary matrices are integer matrices, so each GF(2) rank is at most the Q
rank and each GF(2) Betti number at least the Q one, while the reduced
Euler characteristic is the same over both fields.  Every other profile,
and the whole simplicial route, is computed exactly over Q by fraction-free
elimination over the integers.  No floating point anywhere.

The GF(2) answer comes from one of two complexes.  The chain route
(`_subset_betti`) builds the order complex of the interval and eliminates
its bitmask boundary rows with `rank_mod2`.  The cellular route
(`_cellular_betti_mod2`, after Bjorner's CW posets) has one cell per
element instead of one per chain: x in dimension -1, each z in (x, y) in
dimension rank z - rank x - 1, and as boundary the cover relation.  It is
exact when every interval (u, v) with x <= u < v < y is a GF(2) sphere.
Filter Delta(x, y) by rank: the relative term of rank r is a sum of
suspensions of the Delta(x, z) with rank z = r, each a GF(2) sphere, so the
spectral sequence has one row and collapses at E2.  Each Delta(x, z) is
then a GF(2) homology manifold too (a link in it is a join of intervals
(u, v) inside [x, z]), so its fundamental class restricts to a generator at
every w covered by z, and the E1 differential is the cover incidence.
Checking only the lower intervals (x, z) is not enough: if some Delta(x, z)
is a sphere but no pseudomanifold (a circle with a pendant edge), a cover
of z can get incidence 0.  Hence the walk goes top-down, x in descending
rank, and uses the cellular route only while every real interval seen so
far is a GF(2) sphere (by its GF(2) profile, not its Q one: RP^3 is a Q
sphere but no GF(2) sphere); from the first one that is not, and for
torsion, the chain route decides.

The cellular complexes of all the intervals (x, y) and (x, top) above one x
are subcomplexes of one complex, the cells of (x, top), and each is closed
under taking boundaries: below a cell z of (x, y) and above x everything
lies in (x, y).  So the walk builds the boundary rows of (x, top) once per
x (`_cell_table`) and every interval above x takes its rows from there, bit
for bit the rows it would build from its own elements.  Most intervals need
no complex at all.  A cover y of x bounds the empty interval, the
(-1)-sphere, which every predicate accepts, and indices are in rank order,
so the walk skips the covers by rank: it takes only the y from the first
index of rank(x) + 2 on.  A gap inside the one rank above x (every real
interval of rank 2, and each (x, top) of height at most 2) is k points,
whose reduced homology over every field is {-1: 1}, {} (k = 1) or
{0: k - 1}, whatever lies around it; `_points_betti` reads it off the
popcount, with no precondition, so the kernel only sees gaps that reach two
levels.  And every predicate accepts a real interval that is a sphere, so
the walk asks `fits` only about each (x, top) and the real non-spheres.

`derive_boundary` runs the same walk.  In a homology ball every real
interval is a sphere and each (x, top) a sphere or acyclic; a walk that
accepts exactly that reads the boundary off as the bottom plus the x whose
(x, top) is acyclic, and on a ball without 2-torsion it never leaves the
cellular route.  A walk that fails has proved the poset no ball, so its
witness chain and that chain's link Betti numbers are the error.  The chain
route counts its faces before it builds them and refuses more than
FACE_BUDGET (FaceBudgetExceeded, a ValueError).

A cone pair, F with a greatest element a over its boundary F - a, needs no
walk of its own: it is near-Gorenstein* iff F - a is Gorenstein*.  Every
real interval (x, y) with y != a lies in the ideal F - a, and (x, a) is
its (x, top); each other (x, top) of F is the cone (x, a], acyclic over
every ring, as x in the boundary or the bottom requires; and (a, top) is
empty, the (-1)-sphere.  When F is all of [bottom, a] in a root whose own
Gorenstein* certificate is cached, F - a is an interval of a Gorenstein*
poset, and not even its walk is needed.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
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


class FaceBudgetExceeded(ValueError):
    pass


# The most faces, the empty one included, of a chain complex that
# `_chain_faces` will build: B8's proper part (545,835 chains) is refused,
# B7's (47,293) is not.  The largest the test suite builds has 2,547 faces
# (RP^3 with two 4-cells over it); the CI commands build none.
FACE_BUDGET = 500_000


# -- simplicial complexes ----------------------------------------------------


class SimplicialComplex:
    """Finite abstract simplicial complex; the empty simplex is implicit.

    Simplices are stored by dimension as sorted vertex tuples and the
    collection is validated to be closed under taking faces.
    """

    __slots__ = ("by_dim", "dim", "_faces")

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
                for s in group:
                    for face in combinations(s, d):
                        if face not in seen:
                            raise ValueError(f"complex not closed: missing {face}")
        self.by_dim = by_dim
        self.dim = max(by_dim) if by_dim else -1
        self._faces = seen

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
        return not t or t in self._faces

    def f_vector(self):
        return tuple(len(self.by_dim.get(d, ())) for d in range(self.dim + 1))

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dim}, f={self.f_vector()})"


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
    """Reduced Betti numbers {degree: dim}, nonzero only, over Q via exact
    ranks of the augmented boundary matrices: {-1: 1} for the empty
    complex, {} for an acyclic one."""
    return _faces_betti({-1: [()], **K.by_dim})


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
        if reduced_homology(link(K, s)) != {want: 1}:
            return False
    return True


def _is_maximal(K, s):
    d = len(s) - 1
    upper = K.simplices(d + 1)
    sset = set(s)
    return not any(sset <= set(u) for u in upper)


def order_complex_simplicial(P):
    """Chains of P avoiding the bottom, as a simplicial complex of
    dimension n-1 on the vertex set P minus the bottom; FaceBudgetExceeded
    past FACE_BUDGET chains."""
    root = P._root
    vmask = P._mask & ~(1 << P._bottom_idx)
    return SimplicialComplex(tuple(root._ids[i] for i in c)
                             for c in budgeted_chains(root, vmask) if c)


# -- fast interval engine ------------------------------------------------------


def _chain_count(root, mask):
    """The number of chains inside the vertex mask, the empty one included.
    In index (hence rank) order, the chains topped by x are x alone and x
    on top of a chain topped by some z < x."""
    topped = {}
    for x in _bits(mask):
        topped[x] = 1 + sum(topped[z] for z in _bits(root._leq[x] & mask & ~(1 << x)))
    return 1 + sum(topped.values())


def budgeted_chains(root, mask):
    """`iter_chains(root, mask)`, after counting the chains: raises
    FaceBudgetExceeded, before enumerating, when there are more than
    FACE_BUDGET of them, the empty one included."""
    count = _chain_count(root, mask)
    if count > FACE_BUDGET:
        raise FaceBudgetExceeded(
            f"the order complex of {mask.bit_count()} elements has {count} faces, "
            f"more than the budget of {FACE_BUDGET}")
    return iter_chains(root, mask)


def _chain_faces(root, mask):
    """The complex of chains inside the vertex mask, as `_boundary_betti`
    takes it: faces[d] lists the chains with d + 1 elements; within
    FACE_BUDGET (`budgeted_chains`)."""
    faces = {}
    for c in budgeted_chains(root, mask):
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


def _cell_table(root, x, above):
    """The cellular complex of (x, top), `above` its elements, whose rows
    serve every interval above x (see `_first_bad_interval`): levels[k] is
    the mask of the cells of dimension k - 1, that is x at k = 0 and the
    elements of `above` at rank rank(x) + k, and rows[z] is the boundary of
    the cell z, `leq[z] & levels[k - 1]`."""
    leq, rank = root._leq, root._rank
    base = rank[x]
    levels, rows = [1 << x, 0], {}
    for z in _bits(above):  # ascending index, hence ascending rank
        k = rank[z] - base
        while len(levels) <= k:
            levels.append(0)
        levels[k] |= 1 << z
        rows[z] = leq[z] & levels[k - 1]
    return levels, rows


def _points_betti(gap):
    """Reduced Betti numbers {degree: dim} of an open interval whose
    elements `gap` form a set of points, no two comparable (empty, or inside
    one rank): {-1: 1} for none, {} for one and {0: k - 1} for k > 1.  Exact
    over every field, and whatever lies around the interval."""
    points = gap.bit_count()
    return {0: points - 1} if points > 1 else {} if points else {-1: 1}


def _cellular_betti_mod2(x, gap, levels, rows):
    """GF(2) Betti numbers {degree: dim} of the open interval above x whose
    elements are `gap`, from its cellular complex, with the levels and
    boundary rows of `_cell_table(root, x, above)`, `gap` inside `above` and
    reaching two levels above x (a gap inside one level is a set of points,
    `_points_betti`): x is the cell of dimension -1, each z in `gap` a cell
    of dimension rank z - rank x - 1, and the boundary of z is the sum of
    the cells it covers.  Equals the order complex's GF(2) homology when
    every interval (u, v) with x <= u < v < y is a GF(2) sphere, which the
    caller guarantees (see the module docstring)."""
    cells = [levels[0]] + [level & gap for level in levels[1:]]
    while not cells[-1]:
        cells.pop()
    # every row of the first level is the cell x: rank 1, unless it has none
    ranks = [1 if cells[1] else 0]
    ranks += [rank_mod2([rows[z] for z in _bits(cell)]) for cell in cells[2:]]
    betti = betti_from_ranks([c.bit_count() for c in cells], ranks)
    return {k - 1: b for k, b in enumerate(betti) if b}


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
    raise rank by one inside the subset, maximal elements at rank n.

    When the subset holds everything between the bottom and each of its
    members (a whole poset, a fiber, a boundary, an interval), i is maximal
    iff geq[i] & mask = {i}, and its covers are the root's inside it (the
    root caches its rank-skipping covers: `GradedPoset.__init__` allows
    them); otherwise they are found by scanning each member's up-set."""
    if not (mask >> bottom_idx) & 1:
        return CertResult(False, "bottom not in subset")
    base, above = root._rank[bottom_idx], root._geq[bottom_idx]
    # ranks ascend with the index: the members ranked above n lie from `high` on
    high = bisect_left(root._rank, base + n + 1)
    if bad := mask & ~above | mask >> high << high:
        i = (bad & -bad).bit_length() - 1
        if root._rank[i] < base:
            reason = "element below the bottom rank"
        elif not (above >> i) & 1:
            reason = "element not above the bottom"
        else:
            reason = f"element above rank {n}"
        return CertResult(False, reason, (root._ids[i],))
    members = list(_bits(mask))
    down = reduce(operator.or_, map(root._leq.__getitem__, members), 0)
    if not down & above & ~mask:
        geq, rank = root._geq, root._rank
        skips = root._cache.get("rank_skips") or root._cache.setdefault(
            "rank_skips", tuple(sum(1 << j for j in ups if rank[j] - rank[i] >= 2)
                                for i, ups in enumerate(root._covers_up)))
        for i in members:
            if geq[i] & mask == 1 << i:
                if rank[i] - base != n:
                    return CertResult(False, "maximal element below top rank",
                                      (root._ids[i],))
            elif skip := skips[i] & mask:
                j = (skip & -skip).bit_length() - 1
                return CertResult(False, "cover skips a rank",
                                  (root._ids[i], root._ids[j]))
        return CertResult(True)
    for i in members:
        covers = root._minimal_in(root._geq[i] & mask & ~(1 << i))
        if not covers and root._rank[i] - base != n:
            return CertResult(False, "maximal element below top rank", (root._ids[i],))
        for j in covers:
            if root._rank[j] - root._rank[i] >= 2:
                return CertResult(False, "cover skips a rank",
                                  (root._ids[i], root._ids[j]))
    return CertResult(True)


def _climb(root, mask, x):
    """The chain climbing from x (excluded) through `mask` by first covers
    until nothing in `mask` lies above; every gap of it is empty."""
    chain = []
    while covers := root._minimal_in(root._geq[x] & mask & ~(1 << x)):
        x = covers[0]
        chain.append(x)
    return chain


def _first_bad_interval(root, mask, bottom_idx, n, fits):
    """The interval walk over the subposet `mask` plus a virtual top: x in
    descending index order, hence descending rank, and for each x the
    intervals (x, y) for y above x in ascending order, then (x, top).  The
    first failure of `fits(x, top, betti, d)`, with rank(top) =
    rank(bottom) + n + 1, as (witness chain ids, betti); None when every
    interval fits.

    `fits` is asked only about the intervals that can fail.  Every predicate
    accepts a real interval (x, y) that is a sphere, {d: 1}, so `fits` sees
    only each (x, top) and the real intervals that are no sphere.  A cover y
    of x bounds the empty interval, the (-1)-sphere, so the walk skips the
    covers by rank: indices are in rank order, and the y with index at
    least s, the first index of rank(x) + 2, are exactly those two or more
    ranks above x.  A gap with no index from s on lies inside rank(x) + 1;
    it is a set of points, answered by `_points_betti` (every real interval
    of rank 2, and each (x, top) of height at most 2).

    Top-down, every interval (u, v) with x <= u < v < y has been visited
    when (x, y) is reached, so while every real interval so far is a GF(2)
    sphere the cellular kernel's precondition holds and it computes the
    GF(2) Betti numbers of each longer gap (see the module docstring).  Its
    answer is the Q answer when it sits in at most one degree; any other
    answer, and every longer gap after the first real interval that is no
    GF(2) sphere, goes through the chain route `_subset_betti`.

    The kernel reads its rows from one `_cell_table` per x, built at the
    first gap above x that misses the cache: for z in (x, y) the elements
    below z and above x all lie in (x, y), so the table's row of z is the
    row of z in every interval (x, y) that contains z, and in (x, top)."""
    geq, leq, rank = root._geq, root._leq, root._rank
    known = root._cache.setdefault("subset_betti", {})
    mod2 = root._cache.setdefault("subset_betti_mod2", {})
    spheres = True
    for x in reversed(list(_bits(geq[bottom_idx] & mask))):
        above = geq[x] & mask & ~(1 << x)
        s = bisect_left(rank, rank[x] + 2)
        table = None
        for y in [*_bits(above >> s << s), None]:
            if y is None:
                gap, d = above, rank[bottom_idx] + n - 1 - rank[x]
            else:
                gap, d = above & leq[y] & ~(1 << y), rank[y] - rank[x] - 2
            if not gap >> s:
                betti = gf2 = _points_betti(gap)
            elif spheres:
                if gap not in mod2:
                    table = table or _cell_table(root, x, above)
                    mod2[gap] = _cellular_betti_mod2(x, gap, *table)
                gf2 = mod2[gap]
                betti = (known.setdefault(gap, gf2) if len(gf2) <= 1
                         else _subset_betti(root, gap))
            else:
                betti = _subset_betti(root, gap)
            if y is not None:
                sphere = {d: 1}
                # gf2 is unset only when spheres already is False; (x, top)
                # lies inside no interval visited later
                spheres = spheres and gf2 == sphere
                if betti == sphere:
                    continue
            if not fits(x, y is None, betti, d):
                chain = _climb(root, mask & leq[x], bottom_idx)
                if y is not None:
                    chain += [y] + _climb(root, mask, y)
                return tuple(root._ids[i] for i in chain), betti
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
    every open interval (x, y) of it plus a virtual top must have homology
    R in degree rank(y) - rank(x) - 2."""
    cache = root._cache.setdefault("gor_cert", {})
    key = (mask, bottom_idx, n)
    if key not in cache:
        cache[key] = _certify_gorenstein(root, mask, bottom_idx, n)
    return cache[key]


def _certify_gorenstein(root, mask, bottom_idx, n):
    if mask == 0:
        return CertResult(n == -1, "" if n == -1 else "empty poset of rank != -1")
    st = _structural_check(root, mask, bottom_idx, n)
    if not st:
        return st
    bad = _first_bad_interval(root, mask, bottom_idx, n,
                              lambda x, top, betti, d: betti == {d: 1})
    return (CertResult(False, "link homology not a sphere", *bad) if bad
            else CertResult(True))


def certify_near_gorenstein(root, mask, bottom_idx, n, bmask):
    """Homology-ball certification of the pair (mask, bmask)."""
    cache = root._cache.setdefault("ngor_cert", {})
    key = (mask, bottom_idx, n, bmask)
    if key not in cache:
        cache[key] = _certify_near_gorenstein(root, mask, bottom_idx, n, bmask)
    return cache[key]


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
    # a cone pair is a ball iff its boundary is a sphere (module docstring); past
    # the checks above, a boundary missing only the top index a makes a greatest
    a = mask.bit_length() - 1
    cone = bmask == mask & ~(1 << a)
    if cone and mask == root._leq[a] & root._geq[root._bottom] and root._cache.get(
            "gor_cert", {}).get((root._mask, root._bottom, root.n)):
        return CertResult(True)
    bg = certify_gorenstein(root, bmask, bottom_idx, n - 1)
    if not bg:
        return CertResult(False, f"boundary not Gorenstein*: {bg.reason}",
                          bg.witness, bg.betti)
    # (x, top) is acyclic for x in the boundary or the bottom (bset); every
    # other interval is a sphere
    bset = bmask | 1 << bottom_idx
    bad = not cone and _first_bad_interval(
        root, mask, bottom_idx, n,
        lambda x, top, betti, d: not betti if top and (bset >> x) & 1 else betti == {d: 1})
    if not bad:
        return CertResult(True)
    reason = ("interior chain link is not a sphere" if root._mask_of(bad[0]) & ~bset
              else "boundary chain has nonzero link homology")
    return CertResult(False, reason, *bad)


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


def cohen_macaulay_report(P):
    """Cohen-Macaulay certification: the homology of every open interval
    (x, y) of P plus a virtual top vanishes below degree
    rank(y) - rank(x) - 2; that top degree itself is unconstrained."""
    bad = _first_bad_interval(P._root, P._mask, P._bottom_idx, P.n,
                              lambda x, top, betti, d: all(k == d for k in betti))
    return (CertResult(False, "link homology below top degree", *bad) if bad
            else CertResult(True))


def is_cohen_macaulay(P):
    return bool(cohen_macaulay_report(P))


def derive_boundary(P):
    """Recover the unique boundary of a near-Gorenstein* poset: the
    elements i whose singleton-chain link, the join of (bottom, i) and
    (i, top), has vanishing homology, as an ideal (the bottom included).
    Raises NotNearGorenstein otherwise.

    In a homology ball every real interval is a sphere and each (x, top) is
    a sphere or acyclic, so one interval walk that accepts exactly that
    reads the boundary off as the bottom plus the x with acyclic (x, top):
    each (bottom, x) is a sphere, so the link of x vanishes exactly then.
    An acyclic (x, top) does not end the walk's cellular route, since it
    lies inside no interval visited later.  When the walk fails the poset is
    no ball, and the error names the walk's witness chain and the Betti
    numbers of its link: no chain of a ball has them, since its links are
    spheres, or acyclic for chains inside the boundary, below rank n."""
    root, bottom = P._root, P._bottom_idx
    bmask = 1 << bottom

    def fits(x, top, betti, d):
        nonlocal bmask
        if top and not betti:
            bmask |= 1 << x
            return True
        return betti == {d: 1}

    bad = _first_bad_interval(root, P._mask, bottom, P.n, fits)
    if bad:
        raise NotNearGorenstein(f"not a homology ball: the link of chain {bad[0]!r} "
                                f"has reduced Betti numbers {bad[1]!r}")
    if P.n == 0:
        bmask = 0
    else:
        defect = _boundary_defect(root, P._mask, bottom, P.n, bmask)
        if defect and defect[1] is None:
            raise NotNearGorenstein("no boundary of rank n-1 exists")
        if defect:
            raise NotNearGorenstein("candidate boundary is not an ideal")
    if not certify_near_gorenstein(root, P._mask, bottom, P.n, bmask):
        raise NotNearGorenstein("candidate boundary fails the homology conditions")
    return frozenset(root._ids[i] for i in _bits(bmask))
