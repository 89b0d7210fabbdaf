"""Brute-force oracles used to check the production implementations.

Everything here is deliberately naive: chains are materialized one by one
and weighted factor by factor, Euler sums run over all pairs, isomorphism
is a backtracking search, products scan every factor cover for every pair,
cd-splits are solved for in the span of expanded cd-words, and sheaves are
pulled back to the order complex, whose simplicial signs need no
orientation.  Nine oracles keep an
earlier form of a routine: the lattice test scanning each pair's minimal
upper bounds, the structural check and `_materialize` scanning for
covers, near-Gorenstein* certification walking every ball, op_D's random
combination summed in Fractions, the cellular complex built per up-set,
the kernel sheaf with every restriction solved for when it is built, the
interval walk asking about every interval, and cd-contraction peeling
leading letters off NcPoly words.  `uncertified_copy` sends the sheaf
layer down the route of a base that no walk certifies, the oracle of its
certificate route.  The `composed_posets`, `graded_posets`
and `eulerian_lattices` strategies draw the posets that the property tests
share.
"""

import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

from hypothesis import strategies as st

from posetlab import constructions as cons
from posetlab import flags
from posetlab import homology as hm
from posetlab import linalg
from posetlab.corpus import lattice_corpus, proper_elements
from posetlab.ncpoly import (A, B, NcPoly, NotExpressible, NotHomogeneous,
                             _require_alphabet, ab, ab_expand, ab_of, alpha, cd,
                             cd_contract, cd_words, power, word_degree)
from posetlab.poset import (TOP, GradedPoset, PosetError, SubPoset, _bits,
                            from_json_dict)
from posetlab.sheaves import (CellularComplex, Sheaf, _check_d_squared,
                              _orientation, cd_coefficient_via_CD,
                              constant_sheaf, dual_dimension_formula,
                              is_cm_sheaf, sheaf_ab_index, skeleton_poset)


class InvalidChain(Exception):
    pass


def weight(P, chain):
    """Weight of a chain {0-hat = s0 < s1 < ... < sk} of ids: the
    alternating product of (a-b)^(gap-1) factors joined by b's, ending with
    the gap to the virtual top."""
    if not chain or chain[0] != P.bottom:
        raise InvalidChain("chains must start at the bottom element")
    for x, y in zip(chain, chain[1:]):
        if x == y or not P.leq(x, y):
            raise InvalidChain(f"{x!r} < {y!r} fails in the chain")
    out = NcPoly.one("ab")
    for x, y in zip(chain, chain[1:]):
        out = out * power(A - B, P.rank(y) - P.rank(x) - 1) * B
    return out * power(A - B, P.n - P.rank(chain[-1]))


def up_set(P, x):
    """The ids y >= x, in index order."""
    return [P._ids[j] for j in _bits(P._geq[P._index(x)])]


def all_chains(P):
    """Every chain starting at the bottom, materialized as id tuples; a
    SubPoset view is read through its root, in root ids."""
    root = P._root
    ids = [root._ids[i] for i in _bits(P._mask) if i != P._bottom_idx]
    out = []

    def extend(chain):
        out.append(chain)
        last = chain[-1]
        for e in ids:
            if e != last and root.leq(last, e):
                extend(chain + (e,))

    extend((root._ids[P._bottom_idx],))
    return out


def ab_index_oracle(P, scale=None):
    """Direct weight-by-weight chain summation, each chain times
    scale(root index of its largest element) when a scale is given; ranks
    are the root's, measured from the bottom of P."""
    root = P._root
    base = root._rank[P._bottom_idx]

    def rank(x):
        return root.rank(x) - base

    amb = ab("a") - ab("b")
    b = ab("b")
    total = NcPoly.zero("ab")
    for chain in all_chains(P):
        term = NcPoly.one("ab")
        for x, y in zip(chain, chain[1:]):
            gap = rank(y) - rank(x)
            for _ in range(gap - 1):
                term = term * amb
            term = term * b
        for _ in range(P.n + 1 - rank(chain[-1]) - 1):
            term = term * amb
        if scale is not None:
            term = term * scale(root._index(chain[-1]))
        total = total + term
    return total


def flag_h_oracle(f, width, n):
    """`flags._flag_h` unpacking slot by slot, one shift of all of f per
    slot, then inverting over subsets."""
    slot = (1 << width) - 1
    h = [(f >> (width * S)) & slot for S in range(1 << n)]
    for r in range(n):
        bit = 1 << r
        for S in range(1 << n):
            if S & bit:
                h[S] -= h[S ^ bit]
    return h


def ab_key_walk_oracle(P):
    """The ab-index key (n, h) of the view P from its own bottom-up packed
    walk, never the root's: what `flags._ab_key` reads off the root walk
    for an order ideal must equal this."""
    order, near, level = flags._plan(P._root, P._bottom_idx, flags._members(P),
                                     P.n, False)
    count, _ = flags._pack(order, near, level, 0)
    width = (1 + sum(count.values())).bit_length()
    _, out = flags._pack(order, near, level, width)
    return P.n, tuple(flag_h_oracle(1 + sum(out.values()), width, P.n))


def near_cd_index_oracle(P, boundary_ids):
    """`flags.near_cd_index` of the view P from `ab_key_walk_oracle` keys
    and fresh contractions, with no memo and no root walk."""
    root, n = P._root, P.n
    _, h = ab_key_walk_oracle(P)
    bmask = (root._mask_of(boundary_ids) & P._mask) | 1 << P._bottom_idx
    if set(boundary_ids):
        _, hb = ab_key_walk_oracle(SubPoset(root, bmask, P._bottom_idx, n - 1))
    else:
        hb = (0,) * (1 << max(n - 1, 0))
    phi = tuple(c - cb for c, cb in zip(h, hb)) + h[len(hb):]
    return flags.NearCdIndex(cd_contract(ab_of((n, phi))),
                             cd_contract(ab_of((n - 1, hb))))


def homogeneous_degree(p, who):
    """The common degree of p's terms (-1 for the zero polynomial); raises
    NotHomogeneous, saying `who` needs a homogeneous input, when they differ."""
    degrees = {word_degree(p.alphabet, w) for w in p.terms} or {-1}
    if len(degrees) > 1:
        raise NotHomogeneous(f"{who} needs a homogeneous input")
    return degrees.pop()


def closure(maximal):
    """The simplicial complex of every nonempty face of the given simplices."""
    return hm.SimplicialComplex({face for s in maximal
                                 for k in range(1, len(s) + 1)
                                 for face in combinations(sorted(s), k)})


def _split_leading(p):
    """Split degree >= 1 ab-polynomial as a*pa + b*pb."""
    pa, pb = {}, {}
    for word, coeff in p.terms.items():
        (pa if word[0] == "a" else pb)[word[1:]] = coeff
    return NcPoly("ab", pa), NcPoly("ab", pb)


def cd_contract_oracle(p):
    """The unique cd-polynomial expanding to the homogeneous ab-poly p.

    Peels the leading letter: p = c*q + d*r forces q = p_a - b*r and
    r = b-part of (p_a - p_b); failure at any level raises NotExpressible.
    """
    _require_alphabet("ab", p)
    if p.is_zero():
        return NcPoly.zero("cd")
    n = homogeneous_degree(p, "cd_contract")

    def rec(q, deg):
        if deg == 0:
            return NcPoly("cd", {"": q.coeff("")})
        qa, qb = _split_leading(q)
        if deg == 1:
            ca, cb = qa.coeff(""), qb.coeff("")
            if ca != cb:
                raise NotExpressible(f"degree-1 part {ca}*a + {cb}*b is not a multiple of c")
            return NcPoly("cd", {"c": ca} if ca else {})
        diff = qa - qb  # must equal (b - a) * r
        da, db = _split_leading(diff) if not diff.is_zero() else (NcPoly.zero("ab"),) * 2
        if da != -db:
            raise NotExpressible("residual is not of the form (b-a)*r")
        r = db
        head = rec(qa - B * r, deg - 1)
        tail = rec(r, deg - 2)
        return NcPoly("cd", {"c" + w: c for w, c in head.terms.items()}) + \
            NcPoly("cd", {"d" + w: c for w, c in tail.terms.items()})

    return rec(p, n)


def eulerian_oracle(P):
    """Literal alternating sums over every interval, virtual top included."""
    elems = P.elements()
    for tau in elems:
        for pi in elems + [TOP]:
            if pi is TOP:
                total = sum((-1) ** (P.rank(s) - P.rank(tau))
                            for s in elems if P.leq(tau, s))
                total += (-1) ** (P.n + 1 - P.rank(tau))
                if total != 0:
                    return False
            elif pi != tau and P.leq(tau, pi):
                total = sum((-1) ** (P.rank(s) - P.rank(tau))
                            for s in elems if P.leq(tau, s) and P.leq(s, pi))
                if total != 0:
                    return False
    return True


def lattice_oracle(P):
    """Every pair has a join: each pair that is incomparable and has a
    common upper bound scans those bounds for its minimal ones
    (`GradedPoset._minimal_in`) and must find exactly one."""
    geq = P._geq
    return not any(len(P._minimal_in(ub)) > 1
                   for i, gi in enumerate(geq) for gj in geq[i + 1:]
                   if (ub := gi & gj) not in (0, gi, gj))


def lattices_and_balls():
    """Every lattice of `lattice_corpus(4)` and the `remove_upset` ball of
    each of its proper elements, which is a lattice but not Eulerian."""
    lattices = [L for _, L in lattice_corpus(4)]
    return lattices + [cons.remove_upset(L, nu)[0]
                       for L in lattices for nu in proper_elements(L)]


def _star_factor(g):
    """(a-b)^(g-1) b, less 2 a (a-b)^(g-2) b when the gap g is even."""
    term = power(A - B, g - 1)
    if g % 2 == 0:
        term = term - 2 * (A * power(A - B, g - 2))
    return term * B


# formula -> (index of an interval, factor of its rank gap to the top)
SEMISUSPENSION_ROUTES = {
    flags.lambda_nu_ab_formula: (flags.ab_index, lambda g: A * power(B - A, g - 1)),
    flags.star_chain_sum: (flags.ab_index, _star_factor),
    flags.lambda_nu_prime_cd: (flags.cd_index, alpha.__wrapped__),
}


def semisuspension_sum_oracle(L, nu, formula):
    """`formula`, one of the semisuspension sums of `flags`, one pi at a
    time: the index of the materialized [0-hat, pi) times the factor of
    rho(pi, top), summed over nu <= pi.  No lattice or Euler check."""
    index, factor = SEMISUSPENSION_ROUTES[formula]
    terms = (index(L.interval(L.bottom, pi)) * factor(L.n + 1 - L.rank(pi))
             for pi in up_set(L, nu))
    return reduce(operator.add, terms)


def view_poset(P):
    """The SubPoset view P read through its root as a standalone poset on
    root ids: the members with ranks measured from the view's bottom, and
    every pair x < y with no member strictly between as a cover."""
    root = P._root
    base = root._rank[P._bottom_idx]
    ids = [root._ids[i] for i in _bits(P._mask)]
    below = {(x, y) for x in ids for y in ids if x != y and root.leq(x, y)}
    covers = [(x, y) for x, y in below
              if not any((x, z) in below and (z, y) in below for z in ids)]
    return GradedPoset.from_covers(P.n, {e: root.rank(e) - base for e in ids}, covers)


def isomorphic(P, Q):
    """Backtracking rank-preserving order isomorphism test."""
    if P.n != Q.n or len(P) != len(Q):
        return False
    p_elems = P.elements()
    q_elems = Q.elements()

    def signature(R, x):
        up = sum(1 for y in R.elements() if R.leq(x, y))
        down = sum(1 for y in R.elements() if R.leq(y, x))
        return (R.rank(x), up, down)

    from collections import Counter
    if Counter(signature(P, x) for x in p_elems) != \
            Counter(signature(Q, y) for y in q_elems):
        return False
    order = sorted(p_elems, key=lambda x: (P.rank(x), x))
    q_by_sig = {}
    for y in q_elems:
        q_by_sig.setdefault(signature(Q, y), []).append(y)

    assign = {}
    used = set()

    def backtrack(i):
        if i == len(order):
            return True
        x = order[i]
        for y in q_by_sig.get(signature(P, x), []):
            if y in used:
                continue
            ok = all(P.leq(z, x) == Q.leq(assign[z], y)
                     and P.leq(x, z) == Q.leq(y, assign[z])
                     for z in assign)
            if ok:
                assign[x] = y
                used.add(y)
                if backtrack(i + 1):
                    return True
                del assign[x]
                used.discard(y)
        return False

    return backtrack(0)


def count_maximal_chains(P):
    return sum(1 for c in all_chains(P)
               if len(c) == P.n + 1)


# The 6-vertex triangulation of the real projective plane (the
# hemi-icosahedron): every edge lies in exactly two of the ten triangles.
RP2_TRIANGLES = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6))


# The 7-vertex triangulation of the torus.
TORUS_TRIANGLES = tuple(sorted({tuple(sorted((i, (i + 1) % 7, (i + 3) % 7)))
                                for i in range(7)}
                               | {tuple(sorted((i, (i + 2) % 7, (i + 3) % 7)))
                                  for i in range(7)}))


def _face_poset(triangles):
    """Face poset of the 2-complex spanned by `triangles`, empty face as
    bottom, rank 3."""
    faces = sorted({f for t in triangles for k in (1, 2, 3)
                    for f in combinations(t, k)}, key=lambda f: (len(f), f))
    ids = {(): 0, **{f: i for i, f in enumerate(faces, 1)}}
    covers = [(ids[f[:j] + f[j + 1:]], ids[f])
              for f in faces for j in range(len(f))]
    return GradedPoset.from_covers(3, {i: len(f) for f, i in ids.items()}, covers)


def rp2_face_poset():
    """Face poset of the 6-vertex RP^2, empty face as bottom, rank 3.

    Its proper part has reduced homology Z/2 in degree 1, so over GF(2)
    the Betti numbers are 1 in degrees 1 and 2 while over Q they all
    vanish: the torsion case where a mod-2 rank proves nothing."""
    return _face_poset(RP2_TRIANGLES)


def rp3_face_poset():
    """Face poset of RP^3, the antipodal quotient of the boundary of the
    4-cross-polytope, empty face as bottom, rank 4.  A cell is a nonempty
    set of coordinates with signs up to a global flip (4 vertices, 12 edges,
    16 triangles, 8 tetrahedra; 41 elements), and its facets drop one
    coordinate.  RP^3 is orientable, so its proper part has Q homology in
    degree 3 only, but Z/2 torsion in degree 1 gives it GF(2) homology in
    degrees 1, 2 and 3."""
    def cell(coords, signs):
        return coords, signs if signs[0] > 0 else tuple(-s for s in signs)

    faces = [cell(S, (1, *t)) for k in range(1, 5)
             for S in combinations(range(4), k)
             for t in product((1, -1), repeat=k - 1)]
    ids = {f: i for i, f in enumerate(faces, 1)}
    covers = [(0 if len(S) == 1 else ids[cell(S[:j] + S[j + 1:], s[:j] + s[j + 1:])],
               ids[S, s]) for S, s in faces for j in range(len(S))]
    return GradedPoset.from_covers(
        4, {0: 0, **{i: len(S) for (S, _), i in ids.items()}}, covers)


def torus_face_poset():
    """Face poset of the 7-vertex torus: orientable, so its triangles carry
    a +-1 top cycle, but no sphere."""
    return _face_poset(TORUS_TRIANGLES)


def pinched_disks_poset():
    """Face poset of the triangles 123 and 145, which share vertex 1."""
    return GradedPoset.from_covers(
        3, {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 12: 2, 13: 2, 23: 2,
            14: 2, 15: 2, 45: 2, 123: 3, 145: 3},
        [(0, v) for v in (1, 2, 3, 4, 5)]
        + [(e // 10, e) for e in (12, 13, 23, 14, 15, 45)]
        + [(e % 10, e) for e in (12, 13, 23, 14, 15, 45)]
        + [(e, 123) for e in (12, 13, 23)] + [(e, 145) for e in (14, 15, 45)])


def derive_boundary_oracle(P):
    """`homology.derive_boundary` element by element on the chain route: i
    is a boundary element when the order complex of (bottom, i) or of
    (i, top) is acyclic over Q, by exact elimination; the candidate then
    meets the same rank, ideal and homology checks, with the same errors."""
    root, bottom = P._root, P._bottom_idx

    def acyclic(mask):
        return not hm._faces_betti(hm._chain_faces(root, mask))

    bmask = 1 << bottom
    for i in range(len(root._ids)):
        if i != bottom and (P._mask >> i) & 1:
            lower = root._leq[i] & P._mask & ~(1 << bottom) & ~(1 << i)
            upper = root._geq[i] & P._mask & ~(1 << i)
            if acyclic(lower) or acyclic(upper):
                bmask |= 1 << i
    if P.n == 0:
        bmask = 0
    else:
        defect = hm._boundary_defect(root, P._mask, bottom, P.n, bmask)
        if defect and defect[1] is None:
            raise hm.NotNearGorenstein("no boundary of rank n-1 exists")
        if defect:
            raise hm.NotNearGorenstein("candidate boundary is not an ideal")
    if not hm.certify_near_gorenstein(root, P._mask, bottom, P.n, bmask):
        raise hm.NotNearGorenstein("candidate boundary fails the homology conditions")
    return frozenset(root._ids[i] for i in range(len(root._ids)) if (bmask >> i) & 1)


def first_bad_interval_oracle(root, mask, bottom_idx, n, fits):
    """`homology._first_bad_interval` taken literally: in the walk's order
    (x descending; for each x every y above it ascending, covers included,
    then the virtual top) each open interval's Betti numbers over Q come
    from exact elimination on its order complex, and `fits` is asked about
    every one.  The first failure, as (witness chain ids, betti), with the
    walk's witness chain; None when every interval fits.  The Betti numbers
    are memoized per gap in the root's cache, apart from the walk's own."""
    rank, leq, geq = root._rank, root._leq, root._geq
    literal = root._cache.setdefault("literal_betti", {})
    members = [i for i in range(len(root._ids))
               if (mask >> i) & 1 and (geq[bottom_idx] >> i) & 1]
    for x in reversed(members):
        above = geq[x] & mask & ~(1 << x)
        intervals = [(y, above & leq[y] & ~(1 << y), rank[y] - rank[x] - 2)
                     for y in members if (above >> y) & 1]
        intervals.append((None, above, rank[bottom_idx] + n - 1 - rank[x]))
        for y, gap, d in intervals:
            if gap not in literal:
                literal[gap] = hm._faces_betti(hm._chain_faces(root, gap))
            betti = literal[gap]
            if not fits(x, y is None, betti, d):
                chain = hm._climb(root, mask & leq[x], bottom_idx)
                if y is not None:
                    chain += [y] + hm._climb(root, mask, y)
                return tuple(root._ids[i] for i in chain), betti
    return None


def cellular_rows_oracle(root, x, gap):
    """The cellular complex of the open interval above x whose elements are
    `gap`, built from `gap` alone: cells[k] holds the cells of dimension
    k - 1, x at k = 0 and the gap's elements at rank rank(x) + k, and
    rows[z] is the boundary of z, `leq[z]` restricted to the cells one
    dimension lower."""
    leq, rank = root._leq, root._rank
    base = rank[x]
    cells = [0] * (rank[gap.bit_length() - 1] - base + 1 if gap else 1)
    cells[0] = 1 << x
    for z in _bits(gap):
        cells[rank[z] - base] |= 1 << z
    rows = {z: leq[z] & lower for lower, upper in zip(cells, cells[1:])
            for z in _bits(upper)}
    return cells, rows


def cellular_betti_mod2_oracle(root, x, gap):
    """GF(2) Betti numbers of `cellular_rows_oracle`'s complex, every gap
    eliminated, however small: `homology._cellular_betti_mod2` must agree
    with it on every interval, and its table rows with these rows."""
    cells, rows = cellular_rows_oracle(root, x, gap)
    ranks = [linalg.rank_mod2([rows[z] for z in _bits(upper)]) for upper in cells[1:]]
    betti = linalg.betti_from_ranks([c.bit_count() for c in cells], ranks)
    return {k - 1: b for k, b in enumerate(betti) if b}


def structural_check_oracle(root, mask, bottom_idx, n):
    """`homology._structural_check` finding every member's covers inside
    `mask` by scanning its up-set, whatever the mask: the verdicts and
    witnesses the `_covers_up` shortcut on closed masks must keep."""
    if not (mask >> bottom_idx) & 1:
        return hm.CertResult(False, "bottom not in subset")
    base = root._rank[bottom_idx]
    members = list(_bits(mask))
    for i in members:
        if root._rank[i] - base < 0:
            return hm.CertResult(False, "element below the bottom rank", (root._ids[i],))
        if i != bottom_idx and not (root._geq[bottom_idx] >> i) & 1:
            return hm.CertResult(False, "element not above the bottom", (root._ids[i],))
        if root._rank[i] - base > n:
            return hm.CertResult(False, f"element above rank {n}", (root._ids[i],))
    for i in members:
        covers = root._minimal_in(root._geq[i] & mask & ~(1 << i))
        if not covers and root._rank[i] - base != n:
            return hm.CertResult(False, "maximal element below top rank", (root._ids[i],))
        for j in covers:
            if root._rank[j] - root._rank[i] >= 2:
                return hm.CertResult(False, "cover skips a rank",
                                     (root._ids[i], root._ids[j]))
    return hm.CertResult(True)


def near_gorenstein_walk_oracle(root, mask, bottom_idx, n, bmask):
    """`homology._certify_near_gorenstein` without its cone rule: every pair
    that passes the structural and boundary checks has its boundary and
    then its whole ball walked, a cone pair too."""
    if n == 0:
        return hm._certify_near_gorenstein(root, mask, bottom_idx, n, bmask)
    st = hm._structural_check(root, mask, bottom_idx, n)
    if not st:
        return st
    if bmask & ~mask:
        return hm.CertResult(False, "boundary not inside the poset")
    defect = hm._boundary_defect(root, mask, bottom_idx, n, bmask)
    if defect:
        reason, i = defect
        return hm.CertResult(False, reason, () if i is None else (root._ids[i],))
    bg = hm._certify_gorenstein(root, bmask, bottom_idx, n - 1)
    if not bg:
        return hm.CertResult(False, f"boundary not Gorenstein*: {bg.reason}",
                             bg.witness, bg.betti)
    bset = bmask | 1 << bottom_idx
    bad = hm._first_bad_interval(root, mask, bottom_idx, n, lambda x, top, betti, d:
                                 not betti if top and (bset >> x) & 1 else betti == {d: 1})
    if not bad:
        return hm.CertResult(True)
    reason = ("interior chain link is not a sphere" if root._mask_of(bad[0]) & ~bset
              else "boundary chain has nonzero link homology")
    return hm.CertResult(False, reason, *bad)


def materialize_oracle(P, mask, new_n, rank_offset):
    """`GradedPoset._materialize` finding every member's covers inside
    `mask` by scanning its up-set, whatever the mask: the output the
    `_covers_up` shortcut on convex masks must keep."""
    members = list(_bits(mask))
    newid = {i: k for k, i in enumerate(members)}
    covers_up = [[newid[j] for j in P._minimal_in(P._geq[i] & mask & ~(1 << i))]
                 for i in members]
    return GradedPoset(new_n, range(len(members)), [P._rank[i] - rank_offset for i in members],
                       covers_up, labels={newid[i]: P.label(P._ids[i]) for i in members},
                       provenance={newid[i]: P._ids[i] for i in members})


def relabelled(P, rng):
    """P read back from JSON under a random id permutation that keeps the
    bottom at 0, as the benchmark's inputs are, and the id map P -> it."""
    elems = P.elements()
    fresh = list(range(1, len(elems)))
    rng.shuffle(fresh)
    new = dict(zip(elems, [0] + fresh))
    return from_json_dict({
        "n": P.n,
        "elements": [{"id": new[e], "rank": P.rank(e)} for e in elems],
        "covers": [[new[a], new[b]] for a, b in P.covers()]}), new


def wedge_at_bottom(P, Q):
    """P and Q, of equal rank, glued at their bottoms and nowhere else."""
    assert P.n == Q.n
    key = {}
    for tag, R in enumerate((P, Q)):
        for e in R.elements():
            key[tag, e] = 0 if e == R.bottom else len(key) + 1
    ranks = {key[tag, e]: R.rank(e)
             for tag, R in enumerate((P, Q)) for e in R.elements()}
    covers = [(key[tag, a], key[tag, b])
              for tag, R in enumerate((P, Q)) for a, b in R.covers()]
    return GradedPoset.from_covers(P.n, ranks, covers)


# -- products pair by pair ---------------------------------------------------


def cartesian_product_oracle(P, Q):
    """`constructions.cartesian_product`, scanning the full cover list of
    each bounded factor for every pair."""
    PT, QT = cons.with_top(P), cons.with_top(Q)
    ptop = max(PT.elements(), key=PT.rank)
    qtop = max(QT.elements(), key=QT.rank)
    ranks, labels, prov = {}, {}, {}
    pairs = {}
    for x in PT.elements():
        for y in QT.elements():
            if x == ptop and y == qtop:
                continue
            i = len(ranks)
            pairs[(x, y)] = i
            ranks[i] = PT.rank(x) + QT.rank(y)
            labels[i] = f"({PT.label(x)},{QT.label(y)})"
            prov[i] = (PT.provenance.get(x, x), QT.provenance.get(y, y))
    covers = []
    for (x, y), i in pairs.items():
        for a, b in PT.covers():
            if a == x and (b, y) in pairs:
                covers.append((i, pairs[(b, y)]))
        for a, b in QT.covers():
            if a == y and (x, b) in pairs:
                covers.append((i, pairs[(x, b)]))
    return GradedPoset.from_covers(P.n + Q.n + 1, ranks, covers,
                                   labels=labels, provenance=prov)


def polytope_product_oracle(P, Q):
    """`constructions.polytope_product`, scanning the full cover list of
    each factor for every pair."""
    ranks, labels, prov = {}, {}, {}
    pairs = {}
    for x in P.elements():
        for y in Q.elements():
            i = len(ranks)
            pairs[(x, y)] = i
            ranks[i] = P.rank(x) + Q.rank(y)
            labels[i] = f"({P.label(x)},{Q.label(y)})"
            prov[i] = (x, y)
    covers = []
    for (x, y), i in pairs.items():
        for a, b in P.covers():
            if a == x:
                covers.append((i, pairs[(b, y)]))
        for a, b in Q.covers():
            if a == y:
                covers.append((i, pairs[(x, b)]))
    return GradedPoset.from_covers(P.n + Q.n, ranks, covers,
                                   labels=labels, provenance=prov)


def identity_map(P):
    return cons.PosetMap(P, P, {e: e for e in P.elements()})


# -- cd-splits by solving in a span ------------------------------------------


def cd_split_with_a(p):
    """Write the homogeneous ab-polynomial p as f(c,d) + g(c,d)*a.

    Returns the unique (f, g) pair of cd-polynomials (degrees n and n-1),
    solved for in the span of the expanded cd-words, or raises
    NotExpressible when no such split exists.  `flags.near_cd_index`
    computes the same split by contraction.
    """
    _require_alphabet("ab", p)
    if p.is_zero():
        return NcPoly.zero("cd"), NcPoly.zero("cd")
    n = homogeneous_degree(p, "cd_split_with_a")
    basis, tags = [], []
    for w in cd_words(n):
        basis.append(ab_expand(cd(w)).terms)
        tags.append(("f", w))
    for w in cd_words(n - 1):
        basis.append((ab_expand(cd(w)) * A).terms)
        tags.append(("g", w))
    coeffs = linalg.solve_in_span(basis, p.terms)
    if coeffs is None:
        raise NotExpressible("no f + g*a split exists")
    f, g = {}, {}
    for (kind, w), c in zip(tags, coeffs):
        if c:
            (f if kind == "f" else g)[w] = c
    return NcPoly("cd", f), NcPoly("cd", g)


def sheaf_cd_split(F):
    """Express the ab-index of F as f(c,d) + g(c,d)a (NotExpressible when
    no such split exists)."""
    return cd_split_with_a(sheaf_ab_index(F))


# -- sheaves through the order complex ---------------------------------------


def pullback(F):
    """beta^*(F) on the order complex of the base: the stalk at a chain is
    the stalk at its largest element (the bottom for the empty chain)."""
    base = F.base
    oc = cons.order_complex(base)
    top = [base._index((oc.provenance[e] or (base.bottom,))[-1]) for e in oc.elements()]
    stalks = [F.dim(t) for t in top]
    res = {(hi, lo): F.res_between(top[hi], top[lo])
           for lo, ups in enumerate(oc._covers_up) for hi in ups
           if stalks[hi] and stalks[lo]}
    return Sheaf(oc, stalks, res)


def simplicial_cellular_complex(F, support=None):
    """The cellular complex of a sheaf on an order complex (restricted to
    `support` when given), with simplicial incidence signs: dropping the
    i-th vertex of a chain has sign (-1)^i.  d o d = 0 is checked."""
    oc = F.base
    element_of = {oc.provenance[e]: i for i, e in enumerate(oc.elements())}
    members = oc._mask if support is None else oc._mask_of(support)
    cells = {}
    for e in _bits(members):
        for j in range(F.dim(e)):
            cells.setdefault(oc.n - oc._rank[e], []).append((e, j))
    coords = [sorted(cells.get(k, [])) for k in range(max(cells, default=-1) + 1)]
    index = [{c: i for i, c in enumerate(cs)} for cs in coords]
    diff_rows = []
    for k in range(len(coords) - 1):
        rows = [{} for _ in coords[k + 1]]
        for (z, c), col in index[k].items():
            chain = oc.provenance[oc._ids[z]]
            for i in range(len(chain)):
                y = element_of[chain[:i] + chain[i + 1:]]
                m = F.res.get((z, y))
                if not members >> y & 1 or m is None:
                    continue
                for r, entries in enumerate(m):
                    if entries.get(c):
                        rows[index[k + 1][(y, r)]][col] = (-1) ** i * entries[c]
        diff_rows.append(rows)
    cc = CellularComplex(coords, diff_rows)
    _check_d_squared(cc)
    return cc


def cohomology_dims(cc):
    """The dimensions of the cohomology of the cellular complex cc."""
    return linalg.betti_from_ranks([len(c) for c in cc.coords],
                                   [linalg.sparse_rank(rows) for rows in cc.diff_rows])


def uncertified_copy(P):
    """P rebuilt on the same indices with empty caches, except that its
    whole-poset Gorenstein* certificate is stored as failed: the sheaf layer
    then takes the route of a base that no walk certifies, one walk of
    [bottom, z) per z for the orientation and the ranks for the
    Cohen-Macaulay test."""
    Q = GradedPoset(P.n, P._ids, P._rank, P._covers_up)
    Q._cache["gor_cert"] = {(Q._mask, Q._bottom_idx, Q.n): hm.CertResult(False, "withheld")}
    return Q


def certificate_and_interval_routes(P):
    """The orientation and the constant sheaf's Cohen-Macaulay verdict by
    both routes: as `cd_coefficient_via_CD` reads them off the certificate
    of a fresh copy of P, and on `uncertified_copy(P)`.  Returns
    ((eps, cm) by the certificate, (eps, cm) per interval and by ranks)."""
    Q = GradedPoset(P.n, P._ids, P._rank, P._covers_up)
    assert hm.is_gorenstein_star(Q)
    cd_coefficient_via_CD(Q, "c" * Q.n)
    const = Q._cache["cd_prefix"][0]
    U = uncertified_copy(P)
    return ((_orientation(const.base), const._is_cm),
            (_orientation(U), is_cm_sheaf(constant_sheaf(U))))


def fraction_alpha_oracle(cf, family, rng):
    """`sheaves._draw_alpha` as first written: the same two draws per
    alpha_f read as the rational coefficient a/b.  It is as generic as the
    integer combination, so at a generic seed both have the same ranks."""
    coeffs = [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
              for _ in family]
    alpha = []
    for sigma in range(len(cf.base)):
        rows = [{} for _ in range(cf.dim(sigma))]
        for c, maps in zip(coeffs, family):
            for acc, row in zip(rows, maps.get(sigma, ())):
                for j, v in row.items():
                    acc[j] = acc.get(j, 0) + c * v
        alpha.append(rows)
    return alpha


def cellular_complex_oracle(F, support):
    """`sheaves.cellular_complex` as first written: the complex of F on
    `support` built from scratch, cell by cell, with no shared complex."""
    base = F.base
    eps = _orientation(base)
    n = base.n
    members = base._mask_of(support)
    by_deg = {}
    for e in _bits(members):
        if F.dim(e):
            by_deg.setdefault(n - base._rank[e], []).append(e)
    top_deg = max(by_deg) if by_deg else -1
    coords, coord_idx = [], []
    for k in range(top_deg + 1):
        cs = [(e, j) for e in by_deg.get(k, []) for j in range(F.dim(e))]
        coords.append(cs)
        coord_idx.append({key: i for i, key in enumerate(cs)})
    diff_rows = []
    for k in range(top_deg):
        rows = [dict() for _ in coords[k + 1]]
        for y in by_deg.get(k + 1, []):
            for z in base._covers_up[y]:
                if not members >> z & 1 or not F.dim(z):
                    continue
                for r, entries in enumerate(F.res.get((z, y), ())):
                    row = rows[coord_idx[k + 1][(y, r)]]
                    for c, v in entries.items():
                        row[coord_idx[k][(z, c)]] = eps[(y, z)] * v
        diff_rows.append(rows)
    return CellularComplex(coords, diff_rows)


def eager_kernel_sheaf_oracle(cf, cf_dual, alpha):
    """`sheaves._kernel_sheaf` as first written: every restriction solved
    for in the kernel bases when the sheaf is built."""
    target = skeleton_poset(cf.base, cf.base.n - 1)
    bases = [linalg.sparse_nullspace(alpha[sigma], cf_dual.dim(sigma))
             for sigma in range(len(target))]
    stalks = [len(v) for v in bases]
    res = {}
    covers = [(lo, hi) for lo, ups in enumerate(target._covers_up) for hi in ups]
    for lo, hi in covers:
        if stalks[hi] == 0 or stalks[lo] == 0:
            continue
        w = cf_dual.res.get((hi, lo), ())
        rows = [{} for _ in range(stalks[lo])]
        for i, vec in enumerate(bases[hi]):
            image = {}
            for r, entries in enumerate(w):
                v = sum(x * vec[c] for c, x in entries.items() if c in vec)
                if v:
                    image[r] = v
            coeffs = linalg.nullspace_coords(bases[lo], image)
            if coeffs is None:
                raise ArithmeticError("kernel restriction escaped the kernel")
            for r, c in enumerate(coeffs):
                if c:
                    rows[r][i] = c
        res[(hi, lo)] = rows
    return Sheaf(target, stalks, res)


def zero_sheaf(base):
    return Sheaf(base, [0] * len(base), {})


def is_gorenstein_sheaf(F):
    """Cohen-Macaulay with dim H^0 over [x, top) equal to dim F_x.  With
    the higher cohomology gone, that dim H^0 is the Euler characteristic
    `dual_dimension_formula(F, x)`."""
    return is_cm_sheaf(F) and all(
        dual_dimension_formula(F, x) == F.dim(x) for x in range(len(F.base)))


# -- random and composed posets -----------------------------------------------


@st.composite
def graded_posets(draw, max_rank=3, max_width=3):
    """Random graded posets of rank 1 to max_rank with 1 to max_width
    elements per rank above the bottom: each element covers a nonempty
    set of the rank below, and every element below the top rank is
    covered by at least one."""
    n = draw(st.integers(min_value=1, max_value=max_rank))
    layers = [[0]]
    next_id = 1
    for r in range(1, n + 1):
        size = draw(st.integers(min_value=1, max_value=max_width))
        layers.append(list(range(next_id, next_id + size)))
        next_id += size
    ranks = {e: r for r, layer in enumerate(layers) for e in layer}
    covers = []
    for r in range(1, n + 1):
        for e in layers[r]:
            below = draw(st.sets(st.sampled_from(layers[r - 1]), min_size=1))
            covers.extend((b, e) for b in below)
    # make sure nothing below the top rank is maximal
    cover_set = set(covers)
    for r in range(n):
        for e in layers[r]:
            if not any(lo == e for lo, hi in cover_set):
                hi = draw(st.sampled_from(layers[r + 1]))
                covers.append((e, hi))
                cover_set.add((e, hi))
    return GradedPoset.from_covers(n, ranks, covers)


@st.composite
def eulerian_lattices(draw, max_rank=4, max_size=40):
    """Face lattices of polytopes of rank 2 to max_rank (with the virtual
    top), at most max_size elements: a simplex (B3 to B5) or a polygon
    (3- to 6-gon), then up to two pyramids or polytope products with a
    segment (a prism) or a triangle.  Each is an Eulerian lattice; steps
    that overshoot the rank or the size are skipped."""
    P = draw(st.sampled_from(
        [*(lambda k=k: cons.boolean_algebra(k) for k in range(3, 6)),
         *(lambda m=m: cons.polygon(m) for m in range(3, 7))]))()
    factors = {"segment": cons.segment, "polygon3": lambda: cons.polygon(3)}
    for op in draw(st.lists(st.sampled_from(["pyr", "segment", "polygon3"]), max_size=2)):
        nxt = (cons.pyr_poset(P) if op == "pyr"
               else cons.polytope_product(P, factors[op]()))
        if nxt.n <= max_rank and len(nxt) <= max_size:
            P = nxt
    return P


_BASES = {
    "segment": cons.segment,
    "polygon2": lambda: cons.polygon(2),
    "polygon3": lambda: cons.polygon(3),
    "polygon4": lambda: cons.polygon(4),
    "polygon5": lambda: cons.polygon(5),
    "boolean3": lambda: cons.boolean_algebra(3),
}


def _perturbed(draw, P):
    """P after one or two cover moves above the bottom (whose covers can be
    neither dropped nor added), each dropping a cover or adding one between
    adjacent ranks, when `GradedPoset.from_covers` accepts the result; P
    itself otherwise.  A drop and an add can move a cover, which may keep
    the whole complex a sphere and fail deeper down."""
    if P.n < 2:
        return P
    covers = P.covers()
    for drop in draw(st.lists(st.booleans(), min_size=1, max_size=2)):
        if drop:
            covers.remove(draw(st.sampled_from(
                [c for c in covers if c[0] != P.bottom])))
        else:
            r = draw(st.integers(1, P.n - 1))
            covers.append(tuple(draw(st.sampled_from(
                [e for e in P.elements() if P.rank(e) == k])) for k in (r, r + 1)))
    try:
        return GradedPoset.from_covers(P.n, {e: P.rank(e) for e in P.elements()},
                                       covers)
    except PosetError:
        return P


@st.composite
def composed_posets(draw, variants=("sphere", "cone", "ball", "ball_boundary",
                                    "perturbed"), max_rank=4):
    """Gorenstein* posets built by pyramids, star products and polytope
    products of small polygons and Boolean algebras (rank <= max_rank, at
    most 30 elements), then possibly coned off, cut into a ball and its
    boundary, perturbed by cover moves or wedged at the bottom with a second
    one of the same rank, so that non-spheres appear.  Drawn as
    (P, boundary): the boundary ids for the `ball` and `wrong_boundary`
    variants, else None.

    `wrong_boundary` is a ball whose boundary misses one maximal element,
    and `disjoint` (rank >= 2, at most 31 elements) is never Cohen-Macaulay:
    its proper part is two disjoint spheres."""
    P = _BASES[draw(st.sampled_from(sorted(_BASES)))]()
    for op in draw(st.lists(st.sampled_from(["pyr", "star", "product"]), max_size=2)):
        Q = _BASES[draw(st.sampled_from(["segment", "polygon2", "polygon3"]))]()
        nxt = {"pyr": lambda: cons.pyr_poset(P),
               "star": lambda: cons.star_product(P, Q),
               "product": lambda: cons.polytope_product(P, Q)}[op]()
        if nxt.n <= max_rank and len(nxt) <= 30:
            P = nxt
    variant = draw(st.sampled_from(variants))
    if variant == "cone" and P.n < max_rank:
        return cons.with_top(P), None
    if variant in ("ball", "ball_boundary", "wrong_boundary") and P.is_lattice():
        proper = [e for e in P.elements() if e != P.bottom]
        ball, boundary = cons.remove_upset(P, draw(st.sampled_from(proper)))
        if variant == "ball_boundary":
            return ball.restrict(boundary, n=ball.n - 1), None
        if variant == "wrong_boundary" and ball.n >= 2:
            tops = sorted(e for e in boundary
                          if not any(f != e and ball.leq(e, f) for f in boundary))
            boundary = boundary - {draw(st.sampled_from(tops))}
        return ball, boundary
    if variant == "perturbed":
        return _perturbed(draw, P), None
    if variant == "disjoint" and P.n >= 2:
        others = [Q for Q in [P, *(B() for B in _BASES.values())]
                  if Q.n == P.n and len(P) + len(Q) <= 32]
        if others:
            return wedge_at_bottom(P, draw(st.sampled_from(others))), None
    return P, None
