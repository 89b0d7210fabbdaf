"""Exact simplicial homology and Gorenstein*/near-Gorenstein* certification.

The certification predicates walk the open intervals (x, y) of a poset
plus a virtual top, y = top included, and check each one's memoized
homology in degree rank(y) - rank(x) - 2.  Their independent oracle, a
simplicial route that follows the definitions literally (complexes, links,
reduced homology), lives in the test suite's helpers, and the tests check
that the two agree.

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

The walk's chain route and the tests' simplicial oracle share one Betti
kernel, `_faces_betti`: faces by dimension -> boundary rows ->
`sparse_rank` -> reduced Betti numbers.  The kernel and the walk are the
seams for any change to how interval homology is computed or certified.

Interval homology is first computed over GF(2), which
certifies the Q answer when it is supported in at most one degree: the
boundary matrices are integer matrices, so each GF(2) rank is at most the Q
rank and each GF(2) Betti number at least the Q one, while the reduced
Euler characteristic is the same over both fields.  Every other profile
is computed exactly over Q by fraction-free elimination over the integers.
No floating point anywhere.

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

Most gaps that reach two levels need no complex either.  Lemma: if every
proper subinterval of an interval of dimension d = 1 or 2 is a GF(2)
sphere of its expected dimension, (u, top) for each u in the gap included
when the interval is (x, top), then the interval is a sphere iff it is
connected and, for d = 2, c0 - c1 + c2 = 2, where c_i counts the gap's
elements of rank rank(x) + 1 + i; and it is connected when it has at most
3 atoms.  Proof.  The link of a nonempty chain in the order complex is the
join of the chain's gap intervals, passed subintervals, so it is a GF(2)
sphere of dimension d minus the chain's size: the complex is a closed
GF(2)-homology d-manifold.  Its gap has exactly d + 1 levels, since a
cover that skips a rank, or an element maximal below the top rank, would
bound an empty subinterval whose expected dimension is at least 0.  At
d = 1 every vertex link is two points, so the complex is a disjoint union
of cycles, a circle iff connected.  At d = 2 every edge link is two
points, so every vertex link is a disjoint union of cycles, and a
connected one, one cycle: the complex is a closed surface, and each
component has Euler characteristic at most 2, with equality only for the
sphere.  By Hall's theorem chi - 1 = mu(x, y) = -(1 + the sum of mu(x, z)
over z in the gap), and mu(x, z) = (-1)^(rank z - rank x), the reduced
Euler characteristic of the sphere (x, z); so chi = c0 - c1 + c2.
Connectivity: each component holds an element w of the top level, and
(x, w), a sphere of dimension d - 1, holds at least two atoms; the atoms
below any element are joined through the level-2 elements below it
((x, w) is a connected circle for w of level 3).  So the complex is
connected iff its atoms are, through the level-2 elements, which a bitmask
flood decides, and with at most 3 atoms it is.  `_counted_sphere` applies
the lemma, and the walk keeps its hypothesis (see `_first_bad_interval`).
The count only ever certifies a sphere: every other gap goes on to the
kernel, so each non-sphere keeps its exact Betti numbers and witness.

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

A walk of a whole root that ends without a failure and finds every real
interval a GF(2) sphere, whatever it asks of each (x, top), flags the root
("gf2_spheres" in its cache).  Lemma: a walk of any view on a flagged
root's bottom need visit only its (x, top).  Proof.  The view is convex and
holds the root's bottom, so it is an order ideal, and each of its real
intervals (x, y) is the root's own, all of whose elements lie below y.  The
root's walk found that interval a GF(2) sphere, hence a Q sphere (a GF(2)
profile in one degree is the Q profile, above): every predicate accepts it
without asking `fits`, `spheres` stays true, and the cellular precondition
and the count's hypothesis hold for every (x, top) as if the real
intervals had been visited.  So the walk's verdict, witness and Betti
numbers are the full walk's, and fibers, their boundaries and a ball's
boundary walk only their (x, top).  The flag reads the GF(2) profile, not
the Q verdict that "gor_cert" caches: RP^3 is a Q sphere but no GF(2)
sphere, so a Gorenstein* root with an RP^3 interval stays unflagged, and
an ideal holding that interval walks it, leaving the cellular route there.
A walk that fails, or of a proper view, never flags.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .linalg import betti_from_ranks, rank_mod2, sparse_rank
from .poset import _bits, iter_chains


class BoundaryNotIdeal(ValueError):
    pass


class BoundaryWrongRank(ValueError):
    pass


class NotNearGorenstein(ValueError):
    pass


class FaceBudgetExceeded(ValueError):
    pass


# The most faces, the empty one included, of a chain complex that
# `_chain_faces` will build: B8's proper part (545,835 chains) is refused,
# B7's (47,293) is not.  The largest the test suite builds has 2,547 faces
# (RP^3 with two 4-cells over it); the CI commands build none.
FACE_BUDGET = 500_000


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


def _counted_sphere(leq, gap, s, t, d):
    """True when the gap of an interval above x, of dimension d = 1 or 2,
    is a sphere by the module docstring's counting lemma; False when it is
    not.  The gap reaches two levels above x, s and t are the first indices
    of ranks rank(x) + 2 and rank(x) + 3, and the caller guarantees the
    lemma's hypothesis: every proper subinterval of the interval, each
    (u, top) with u in the gap included for (x, top), is a GF(2) sphere of
    its expected dimension."""
    atoms = gap & ((1 << s) - 1)
    high = gap >> t << t
    middle = gap >> s << s & ~high
    if d == 2 and atoms.bit_count() - middle.bit_count() + high.bit_count() != 2:
        return False
    if atoms.bit_count() <= 3:
        return True
    pairs = [leq[e] & atoms for e in _bits(middle)]
    reached, grown = atoms & -atoms, True
    while grown:
        grown = False
        for pair in pairs:
            if pair & reached and pair & ~reached:
                reached |= pair
                grown = True
    return reached == atoms


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
    """Graded-poset sanity for a view: unique bottom, members above it and
    at most n ranks up, maximal elements at rank n.  The mask is convex, so
    i is maximal in it iff geq[i] & mask = {i}, and its covers in it are
    root covers, none of which skips a rank.  Every mask the library
    certifies is convex: a poset, an interval, a `restrict` view; a fiber
    phi^-1[bottom, sigma] and its boundary phi^-1[bottom, sigma), ideals as
    phi preserves order; a boundary past `_boundary_defect`, an ideal in a
    convex mask; and `corpus.criterion_6_homology`'s poset minus a maximal
    element."""
    if not (mask >> bottom_idx) & 1:
        return CertResult(False, "bottom not in subset")
    base, above, rank = root._rank[bottom_idx], root._geq[bottom_idx], root._rank
    # ranks ascend with the index: members n ranks up lie from `top` on,
    # those ranked above n from `high` on
    top = bisect_left(rank, base + n)
    high = bisect_left(rank, base + n + 1, top)
    if bad := mask & ~above | mask >> high << high:
        i = (bad & -bad).bit_length() - 1
        if rank[i] < base:
            reason = "element below the bottom rank"
        elif not (above >> i) & 1:
            reason = "element not above the bottom"
        else:
            reason = f"element above rank {n}"
        return CertResult(False, reason, (root._ids[i],))
    for i in _bits(mask & (1 << top) - 1):
        if root._geq[i] & mask == 1 << i:
            return CertResult(False, "maximal element below top rank", (root._ids[i],))
    return CertResult(True)


def _climb(root, mask, x):
    """The chain climbing from x (excluded) through the convex `mask` by its
    first covers until nothing in `mask` lies above; its gaps are empty."""
    chain, covers = [], root._covers_up
    while (x := next((j for j in covers[x] if mask >> j & 1), None)) is not None:
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
    row of z in every interval (x, y) that contains z, and in (x, top).

    Before the kernel, `_counted_sphere` certifies a gap of dimension 1 or
    2 by the module docstring's counting lemma, whose hypothesis is that
    every proper subinterval has passed as a GF(2) sphere.  For a real
    (x, y) that is the kernel's precondition, `spheres`: its subintervals
    are real intervals visited earlier.  (x, top) also contains the upper
    interval (u, top) of each u above x, all visited earlier, so the walk
    keeps `top_bad`, the mask of the x whose (x, top) was no GF(2) sphere,
    and counts (x, top) only while `spheres` holds and `top_bad` has no
    element above x.  The order complex is then a closed GF(2)-homology
    manifold: for d = 1 a union of cycles, a sphere iff connected; for
    d = 2 a closed surface, a sphere iff connected with c0 - c1 + c2 = 2.
    A gap the count does not certify goes on to the kernel unchanged.

    On a root flagged "gf2_spheres", a view on its bottom, an order ideal,
    visits only its (x, top), since its real intervals are the root's GF(2)
    spheres; a walk of the whole root that ends with `spheres` true sets
    the flag (see the module docstring)."""
    geq, leq, rank = root._geq, root._leq, root._rank
    known = root._cache.setdefault("subset_betti", {})
    mod2 = root._cache.setdefault("subset_betti_mod2", {})
    on_bottom = bottom_idx == root._bottom
    skip = on_bottom and root._cache.get("gf2_spheres")
    spheres, top_bad = True, 0
    for x in reversed(list(_bits(geq[bottom_idx] & mask))):
        above = geq[x] & mask & ~(1 << x)
        s = bisect_left(rank, rank[x] + 2)
        t = bisect_left(rank, rank[x] + 3, s)
        table = None
        for y in [None] if skip else [*_bits(above >> s << s), None]:
            if y is None:
                gap, d = above, rank[bottom_idx] + n - 1 - rank[x]
                closed = not above & top_bad
            else:
                gap, d = above & leq[y] & ~(1 << y), rank[y] - rank[x] - 2
                closed = True
            sphere = {d: 1}
            if not gap >> s:
                betti = gf2 = _points_betti(gap)
            elif spheres and closed and d <= 2 and _counted_sphere(leq, gap, s, t, d):
                betti = gf2 = sphere
            elif spheres:
                if gap not in mod2:
                    table = table or _cell_table(root, x, above)
                    mod2[gap] = _cellular_betti_mod2(x, gap, *table)
                gf2 = mod2[gap]
                betti = (known.setdefault(gap, gf2) if len(gf2) <= 1
                         else _subset_betti(root, gap))
            else:
                betti = _subset_betti(root, gap)
            # gf2 is unset only when spheres already is False, and then no
            # later gap is counted; (x, top) lies inside no interval visited
            # later, but inside the (u, top) of every u below x
            if y is not None:
                spheres = spheres and gf2 == sphere
                if betti == sphere:
                    continue
            elif spheres and gf2 != sphere:
                top_bad |= 1 << x
            if not fits(x, y is None, betti, d):
                chain = _climb(root, mask & leq[x], bottom_idx)
                if y is not None:
                    chain += [y] + _climb(root, mask, y)
                return tuple(root._ids[i] for i in chain), betti
    if spheres and on_bottom and mask == root._mask:
        root._cache["gf2_spheres"] = True
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
