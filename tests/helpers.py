"""Brute-force oracles used to check the production implementations.

Everything here is deliberately naive: chains are materialized one by one,
Euler sums run over all pairs, isomorphism is a backtracking search, and
sheaves are pulled back to the order complex, whose simplicial signs need
no orientation.  The `composed_posets` strategy draws the posets that the
property tests share.
"""

from itertools import combinations, product

from hypothesis import strategies as st

from posetlab import constructions as cons
from posetlab.ncpoly import NcPoly, ab
from posetlab.poset import TOP, GradedPoset, PosetError
from posetlab.sheaves import CellularComplex, Sheaf, _check_d_squared


def all_chains(P):
    """Every chain starting at the bottom, materialized as id tuples."""
    ids = [e for e in P.elements() if e != P.bottom]
    out = []

    def extend(chain):
        out.append(chain)
        last = chain[-1]
        for e in ids:
            if e != last and P.leq(last, e):
                extend(chain + (e,))

    extend((P.bottom,))
    return out


def ab_index_oracle(P):
    """Direct weight-by-weight chain summation."""
    amb = ab("a") - ab("b")
    b = ab("b")
    total = NcPoly.zero("ab")
    for chain in all_chains(P):
        term = NcPoly.one("ab")
        for x, y in zip(chain, chain[1:]):
            gap = P.rank(y) - P.rank(x)
            for _ in range(gap - 1):
                term = term * amb
            term = term * b
        for _ in range(P.n + 1 - P.rank(chain[-1]) - 1):
            term = term * amb
        total = total + term
    return total


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


# -- sheaves through the order complex ---------------------------------------


def pullback(F):
    """beta^*(F) on the order complex of the base: the stalk at a chain is
    the stalk at its largest element (the bottom for the empty chain)."""
    base = F.base
    oc = cons.order_complex(base)
    top = {e: (oc.provenance[e] or (base.bottom,))[-1] for e in oc.elements()}
    stalks = {e: F.dim(top[e]) for e in oc.elements()}
    res = {(hi, lo): F.res_between(top[hi], top[lo])
           for lo, hi in oc.covers() if stalks[hi] and stalks[lo]}
    return Sheaf(oc, stalks, res)


def simplicial_cellular_complex(F, support=None):
    """The cellular complex of a sheaf on an order complex (restricted to
    `support` when given), with simplicial incidence signs: dropping the
    i-th vertex of a chain has sign (-1)^i.  d o d = 0 is checked."""
    oc = F.base
    element_of = {oc.provenance[e]: e for e in oc.elements()}
    members = set(oc.elements()) if support is None else set(support)
    cells = {}
    for e in members:
        for j in range(F.dim(e)):
            cells.setdefault(oc.n - oc.rank(e), []).append((e, j))
    coords = [sorted(cells.get(k, [])) for k in range(max(cells, default=-1) + 1)]
    index = [{c: i for i, c in enumerate(cs)} for cs in coords]
    diff_rows = []
    for k in range(len(coords) - 1):
        rows = [{} for _ in coords[k + 1]]
        for (z, c), col in index[k].items():
            chain = oc.provenance[z]
            for i in range(len(chain)):
                y = element_of[chain[:i] + chain[i + 1:]]
                m = F.res.get((z, y))
                if y not in members or m is None:
                    continue
                for r, entries in enumerate(m):
                    if entries.get(c):
                        rows[index[k + 1][(y, r)]][col] = (-1) ** i * entries[c]
        diff_rows.append(rows)
    cc = CellularComplex(coords, diff_rows)
    _check_d_squared(cc)
    return cc


# -- composed posets ----------------------------------------------------------


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
