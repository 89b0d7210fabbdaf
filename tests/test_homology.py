import ast
import gc
import re
from contextlib import contextmanager
from itertools import combinations, islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from helpers import (NotPure, SimplexNotFound, SimplicialComplex, all_chains,
                     cellular_betti_mod2_oracle, cellular_rows_oracle, closure,
                     composed_posets, derive_boundary_oracle, first_bad_interval_oracle,
                     is_cohen_macaulay, is_gorenstein_complex, link,
                     near_gorenstein_walk_oracle, order_complex_simplicial,
                     pinched_disks_poset, reduced_homology, rp2_face_poset,
                     rp3_face_poset, structural_check_oracle, torus_face_poset,
                     uncertified_copy, wedge_at_bottom)
from posetlab import constructions as cons
from posetlab import homology as hm
from posetlab.corpus import gorenstein_corpus, lattice_corpus, proper_elements
from posetlab.poset import (GradedPoset, PosetError, SubPoset, _bits, from_json,
                            iter_chains, to_json)
from posetlab.subdivision import _fiber_masks


def path_poset():
    """Three edges in a row: Cohen-Macaulay ball-like but not a sphere."""
    return GradedPoset.from_covers(
        2, {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2},
        [(0, 1), (0, 2), (0, 3), (0, 4),
         (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (4, 7)])


class TestSimplicialComplex:
    def test_closure_validated(self):
        with pytest.raises(ValueError):
            SimplicialComplex([(1, 2, 3), (1, 2)])  # missing edges

    def test_contains_empty_simplex(self):
        K = closure([(1,)])
        assert () in K

    def test_contains_any_vertex_order(self):
        K = closure([(1, 2, 3), (3, 4)])
        assert (3, 1) in K and [2, 1, 3] in K and (4, 3) in K
        assert (1, 4) not in K and (1, 2, 3, 4) not in K and (5,) not in K


class TestOrderComplexSimplicial:
    def test_triangle_gives_hexagon_complex(self, polygon3):
        K = order_complex_simplicial(polygon3)
        assert K.f_vector() == (6, 6)

    def test_two_atoms_give_s0(self):
        K = order_complex_simplicial(cons.segment())
        assert K.f_vector() == (2,)

    def test_b4_barycentric_f_vector(self, boolean4):
        K = order_complex_simplicial(boolean4)
        assert K.f_vector() == (14, 36, 24)


class TestReducedHomology:
    def test_circle(self, polygon3):
        K = order_complex_simplicial(polygon3)
        assert reduced_homology(K) == {1: 1}

    def test_s0(self):
        K = order_complex_simplicial(cons.segment())
        assert reduced_homology(K) == {0: 1}

    def test_contractible(self):
        K = closure([(1, 2, 3)])
        assert reduced_homology(K) == {}

    def test_empty_complex(self):
        K = order_complex_simplicial(cons.single_point())
        assert reduced_homology(K) == {-1: 1}

    def test_euler_characteristic_consistency(self, small_gorenstein):
        for name, P in small_gorenstein:
            K = order_complex_simplicial(P)
            betti = reduced_homology(K)
            from_faces = sum((-1) ** d * len(K.simplices(d))
                             for d in range(K.dim + 1)) - 1
            assert sum((-1) ** d * b for d, b in betti.items()) == from_faces, name


class TestLink:
    def test_hexagon_vertex_link_is_s0(self, polygon3):
        K = order_complex_simplicial(polygon3)
        v = K.simplices(0)[0]
        assert reduced_homology(link(K, v)) == {0: 1}

    def test_link_of_empty_is_whole(self, polygon3):
        K = order_complex_simplicial(polygon3)
        assert link(K, ()).f_vector() == K.f_vector()

    def test_sphere_link_in_barycentric_tetrahedron(self, boolean4):
        K = order_complex_simplicial(boolean4)
        v = K.simplices(0)[0]
        assert reduced_homology(link(K, v)) == {1: 1}

    def test_simplex_not_found(self, polygon3):
        K = order_complex_simplicial(polygon3)
        with pytest.raises(SimplexNotFound):
            link(K, (999,))


class TestGorensteinComplex:
    def test_hexagon_boundary(self, polygon3):
        assert is_gorenstein_complex(order_complex_simplicial(polygon3))

    def test_path_of_edges_fails(self):
        K = closure([(1, 2), (2, 3), (3, 4)])
        assert not is_gorenstein_complex(K)

    def test_disjoint_circles_fail(self):
        K = closure([(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
        assert not is_gorenstein_complex(K)

    def test_impure_raises(self):
        K = closure([(1, 2, 3), (4, 5)])
        with pytest.raises(NotPure):
            is_gorenstein_complex(K)


class TestGorensteinStar:
    def test_2gon(self, polygon2):
        assert hm.is_gorenstein_star(polygon2)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_boolean_algebras(self, k):
        assert hm.is_gorenstein_star(cons.boolean_algebra(k))

    def test_cone_is_not_a_sphere(self, polygon3):
        assert not hm.is_gorenstein_star(cons.with_top(polygon3))

    def test_fast_route_agrees_with_generic(self, small_gorenstein):
        for name, P in small_gorenstein:
            generic = is_gorenstein_complex(order_complex_simplicial(P))
            assert hm.is_gorenstein_star(P) == generic == True, name

    @pytest.mark.parametrize("ranks,covers,witness,betti", [
        ({0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2},
         [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 6), (3, 5)],
         (3,), {}),
        ({0: 0, 4: 1, 5: 1, 6: 1, 1: 2, 2: 2, 3: 2},
         [(0, 4), (0, 5), (0, 6), (4, 1), (5, 1), (6, 1), (4, 2), (6, 2), (5, 3)],
         (1,), {0: 2}),
    ], ids=["upper-interval", "lower-interval"])
    def test_circle_with_a_non_sphere_vertex_link(self, ranks, covers, witness, betti):
        """The whole complex is a circle, so the failure sits deeper.  The
        walk goes top-down, so in the first order it meets the upper
        interval of atom 3 (one point) before that of atom 1 (three
        points); in the reversed order the lower interval of coatom 1 is
        three points, not two."""
        P = GradedPoset.from_covers(2, ranks, covers)
        K = order_complex_simplicial(P)
        assert reduced_homology(K) == {1: 1}
        rep = hm.gorenstein_star_report(P)
        assert not rep
        assert rep.witness == witness and rep.betti == betti
        assert reduced_homology(link(K, witness)) == betti

    def test_fast_route_agrees_on_non_examples(self):
        for P in (path_poset(), cons.with_top(cons.polygon(3))):
            generic = is_gorenstein_complex(order_complex_simplicial(P))
            assert hm.is_gorenstein_star(P) == generic == False


class TestNearGorensteinStar:
    def test_cone_over_3gon(self, polygon3):
        P = cons.with_top(polygon3)
        boundary = [e for e in P.elements() if P.rank(e) <= 2]
        assert hm.is_near_gorenstein_star(P, boundary)

    def test_remove_upset_4gon(self):
        sub, boundary = cons.remove_upset(cons.polygon(4), 1)
        assert hm.is_near_gorenstein_star(sub, boundary)

    def test_2gon_is_a_sphere_not_a_ball(self, polygon2):
        assert not hm.is_near_gorenstein_star(polygon2, [0, 1, 2])

    def test_boundary_must_be_ideal(self, polygon3):
        with pytest.raises(hm.BoundaryNotIdeal):
            hm.is_near_gorenstein_star(cons.with_top(polygon3), [1, 4])

    def test_boundary_rank_checked(self, polygon3):
        with pytest.raises(hm.BoundaryWrongRank):
            hm.is_near_gorenstein_star(cons.with_top(polygon3), [0])

    def test_single_point_pair(self):
        assert hm.is_near_gorenstein_star(cons.single_point(), [])


class TestCohenMacaulay:
    def test_gorenstein_implies_cm(self, small_gorenstein):
        for name, P in small_gorenstein:
            assert is_cohen_macaulay(P), name

    def test_cm_and_eulerian_iff_gorenstein(self, small_gorenstein):
        posets = [P for _, P in small_gorenstein]
        posets += [path_poset(), cons.with_top(cons.polygon(3))]
        for P in posets:
            want = is_cohen_macaulay(P) and P.is_eulerian()
            assert hm.is_gorenstein_star(P) == want

    def test_disconnected_fails(self):
        P = GradedPoset.from_covers(
            2, {0: 0, 1: 1, 2: 1, 3: 2, 4: 2}, [(0, 1), (0, 2), (1, 3), (2, 4)])
        assert not is_cohen_macaulay(P)
        rep = hm.cohen_macaulay_report(P)
        assert rep.reason == "link homology below top degree"
        assert rep.witness == () and rep.betti == {0: 1}

    def test_pinched_disks_fail_at_the_pinch(self):
        """Two triangles sharing vertex 1: the complex is contractible, but
        the link of the shared vertex is two disjoint arcs."""
        P = pinched_disks_poset()
        K = order_complex_simplicial(P)
        assert reduced_homology(K) == {}
        rep = hm.cohen_macaulay_report(P)
        assert not rep
        assert rep.witness == (1,) and rep.betti == {0: 1}
        assert reduced_homology(link(K, (1,))) == {0: 1}


class TestDeriveBoundary:
    def test_cone_over_3gon(self, polygon3):
        P = cons.with_top(polygon3)
        want = frozenset(e for e in P.elements() if P.rank(e) <= 2)
        assert hm.derive_boundary(P) == want

    def test_remove_upset_round_trip(self, polygon3):
        sub, boundary = cons.remove_upset(polygon3, 1)
        assert hm.derive_boundary(sub) == frozenset(boundary)

    def test_sphere_has_no_boundary(self, polygon2):
        with pytest.raises(hm.NotNearGorenstein):
            hm.derive_boundary(polygon2)

    def test_corpus_balls_against_the_chain_route(self):
        """Every corpus ball, and for one ball per lattice and rank its
        boundary taken as a sphere of rank n - 1 and the ball with a cover
        dropped: the walk agrees with the chain route
        (`_agrees_with_the_chain_route`).  The spheres fail the rank check
        after a passing walk; some damaged balls fail the walk and some
        pass it and fail the homology conditions."""
        errors = set()
        for _, L in lattice_corpus(4):
            first = {L.rank(nu): nu for nu in reversed(L.elements())}
            for nu in L.elements()[1:]:
                ball, boundary = cons.remove_upset(L, nu)
                assert _agrees_with_the_chain_route(ball) == boundary
                if first[L.rank(nu)] != nu:
                    continue
                for P in [ball.restrict(boundary, n=ball.n - 1),
                          *islice(_covers_dropped(ball), 1)]:
                    errors.add(_agrees_with_the_chain_route(P)[1].split(":")[0])
        assert errors == {"no boundary of rank n-1 exists", "not a homology ball",
                          "candidate boundary fails the homology conditions"}

    def test_pinched_disks_have_no_ideal_candidate(self):
        """Every edge of the pinched disks lies in one triangle, so its link
        is a point, but the link of the pinch vertex is two arcs: the chain
        route's candidate holds the edges at the pinch and not the pinch
        itself, and the walk fails at the pinch."""
        P = pinched_disks_poset()
        with pytest.raises(hm.NotNearGorenstein,
                           match="^candidate boundary is not an ideal$"):
            derive_boundary_oracle(P)
        assert _agrees_with_the_chain_route(P) == (
            hm.NotNearGorenstein,
            "not a homology ball: the link of chain (1,) has reduced Betti numbers {0: 1}")

    def test_balls_need_no_chain_complex(self, polygon3):
        """The walk alone decides: no `_subset_betti` call while the corpus
        balls and the cone over a triangle are derived, nor while a B4 and
        a B8 ball with a cover dropped are refuted."""
        with _chain_route_calls() as calls:
            for _, L in lattice_corpus(4):
                for nu in L.elements()[1:]:
                    ball, boundary = cons.remove_upset(L, nu)
                    assert hm.derive_boundary(ball) == boundary
            cone = cons.with_top(polygon3)
            assert hm.derive_boundary(cone) == frozenset(
                e for e in cone.elements() if cone.rank(e) < cone.n)
            for k in (4, 8):
                ball, _ = cons.remove_upset(cons.boolean_algebra(k), 1)
                damaged = next(_covers_dropped(ball))
                with pytest.raises(hm.NotNearGorenstein, match="^not a homology ball: "):
                    hm.derive_boundary(damaged)
        assert not calls


@contextmanager
def _chain_route_calls():
    """Record the gap mask of every `_subset_betti` call; yields the list."""
    chain_route, calls = hm._subset_betti, []

    def counted(root, mask):
        calls.append(mask)
        return chain_route(root, mask)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hm, "_subset_betti", counted)
        yield calls


def _covers_dropped(P):
    """P without one of its covers above the bottom, for each such cover
    whose removal leaves a graded poset."""
    covers = P.covers()
    for c in covers:
        if c[0] != P.bottom:
            try:
                yield GradedPoset.from_covers(
                    P.n, {e: P.rank(e) for e in P.elements()},
                    [d for d in covers if d != c])
            except PosetError:
                pass


def _covers_added(P):
    """P with one cover added between adjacent ranks above the bottom, for
    each pair of elements that it does not order yet."""
    ranks = {e: P.rank(e) for e in P.elements()}
    for u in P.elements():
        for v in P.elements():
            if 0 < ranks[u] == ranks[v] - 1 and not P.leq(u, v):
                yield GradedPoset.from_covers(P.n, ranks, P.covers() + [(u, v)])


def _derive_outcome(derive, P):
    """derive(P), or the type and message of the error it raises."""
    try:
        return derive(P)
    except hm.NotNearGorenstein as exc:
        return type(exc), str(exc)


_WALK_FAILURE = re.compile(r"not a homology ball: the link of chain (\(.*\)) "
                           r"has reduced Betti numbers (\{.*\})")


def _agrees_with_the_chain_route(P):
    """`derive_boundary(P)` against the chain-route oracle: the same
    boundary, or NotNearGorenstein from both, with the same message
    whenever the walk passed.  A failed walk's message names a chain and
    its link's Betti numbers instead, which `_refutes_a_ball` checks.
    Returns derive_boundary's outcome."""
    got = _derive_outcome(hm.derive_boundary, P)
    want = _derive_outcome(derive_boundary_oracle, P)
    walk_failure = isinstance(got, tuple) and _WALK_FAILURE.fullmatch(got[1])
    if walk_failure:
        assert isinstance(want, tuple)
        _refutes_a_ball(P, *map(ast.literal_eval, walk_failure.groups()))
    else:
        assert got == want
    return got


def _refutes_a_ball(P, chain, betti):
    """The link of `chain` in the literal order complex of P has the Betti
    numbers `betti`, which no chain of a homology ball of rank n has: its
    links are spheres in degree n - 1 - len(chain), or acyclic for chains
    inside the boundary, which lies below rank n."""
    K = order_complex_simplicial(P)
    assert reduced_homology(link(K, chain)) == betti
    assert betti != {P.n - 1 - len(chain): 1}
    assert betti or (chain and P.rank(chain[-1]) == P.n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(composed_posets(("sphere", "cone", "ball", "ball_boundary", "perturbed",
                        "wrong_boundary", "disjoint")))
def test_derive_boundary_against_chain_route_oracle(drawn):
    """Spheres, cones, balls, their boundaries, perturbed and disjoint
    posets: `derive_boundary` agrees with the chain-route oracle
    (`_agrees_with_the_chain_route`)."""
    P, _ = drawn
    _agrees_with_the_chain_route(P)


class TestLemmaBothDirections:
    @pytest.mark.parametrize("build", [
        lambda: cons.polygon(4), lambda: cons.boolean_algebra(4),
        lambda: cons.pyr_poset(cons.polygon(3)),
    ])
    def test_remove_facet_and_reglue(self, build):
        P = build()
        pi = P.maximal_elements()[0]
        remaining = [e for e in P.elements() if e != pi]
        boundary = [e for e in remaining if P.leq(e, pi)]
        sub = P.restrict(remaining)
        cert = hm.certify_near_gorenstein(
            P._root, sub.mask, P._bottom_idx, P.n,
            sum(1 << P._index(e) for e in boundary))
        assert cert


class TestComplementaryPairs:
    @pytest.mark.parametrize("build,nu", [
        (lambda: cons.polygon(4), 1), (lambda: cons.boolean_algebra(4), 1),
    ])
    def test_remove_upset_and_lambda_nu_share_the_boundary(self, build, nu):
        L = build()
        sub, bd = cons.remove_upset(L, nu)
        lam = cons.lambda_nu_poset(L, nu)
        bd_src = {sub.provenance[e] for e in bd}
        lam_bd_src = {lam.provenance[e] for e in hm.derive_boundary(lam)}
        assert bd_src == lam_bd_src
        assert hm.is_near_gorenstein_star(sub, bd)
        assert hm.is_near_gorenstein_star(
            lam, [e for e in lam.elements() if lam.provenance[e] in lam_bd_src])


def _betti_product(p, q):
    """Betti polynomials multiply under products of graded vector spaces."""
    out = {}
    for d1, b1 in p.items():
        for d2, b2 in q.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + b1 * b2
    return out


class TestChainEngineAgainstGenericLinks:
    def test_link_profiles_match_generic(self, polygon3, small_gorenstein):
        """Kunneth for joins, which the interval walk rests on: the link of
        every chain is the join of its gap intervals, so its Betti
        polynomial is the product of theirs shifted by the chain length,
        and it equals the generic simplicial computation.  The chain
        generator yields one chain per simplex of the order complex plus
        the empty chain."""
        ball, boundary = cons.remove_upset(cons.polygon(4), 1)
        posets = [(name, P) for name, P in small_gorenstein] + [
            ("cone_polygon3", cons.with_top(polygon3)),
            ("path", path_poset()),
            ("ball", ball),
            ("ball_boundary", ball.restrict(boundary, n=ball.n - 1)),
        ]
        for name, P in posets:
            K = order_complex_simplicial(P)
            root = P._root
            chains = [tuple(root._ids[i] for i in c)
                      for c in iter_chains(root, P._mask & ~(1 << P._bottom_idx))]
            oracle = all_chains(P)
            assert len(chains) == sum(K.f_vector()) + 1 == len(oracle), name
            assert set(chains) == {c[1:] for c in oracle}, name
            for chain in oracle:
                simplex = tuple(chain[1:])
                idx = [root._index(e) for e in chain]
                gaps = [root._geq[x] & root._leq[y] & P._mask & ~(1 << x) & ~(1 << y)
                        for x, y in zip(idx, idx[1:])]
                gaps.append(root._geq[idx[-1]] & P._mask & ~(1 << idx[-1]))
                betti = {len(simplex): 1}
                for gap in gaps:
                    betti = _betti_product(betti, hm._subset_betti(root, gap))
                generic = reduced_homology(link(K, simplex))
                assert betti == generic, (name, simplex)


class TestNoReferenceCycles:
    def test_certification_leaves_no_cyclic_garbage(self):
        """A certified poset is freed by reference counting alone: the chain
        walk keeps no cycle that holds the poset and its caches."""
        text = to_json(cons.boolean_algebra(4))
        gc.collect()
        gc.disable()
        try:
            P = from_json(text)
            assert hm.is_gorenstein_star(P)
            ball, boundary = cons.remove_upset(P, 1)
            assert hm.is_near_gorenstein_star(ball, boundary)
            del P, ball, boundary
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMod2Certificate:
    def test_rp2_torsion_falls_back_to_q(self):
        """Z/2 torsion: GF(2) sees homology in two degrees, so the mod-2
        answer is no proof and the exact Q profile (acyclic) is returned."""
        P = rp2_face_poset()
        root, mask = P._root, P._mask & ~(1 << P._bottom_idx)
        assert hm._faces_betti_mod2(hm._chain_faces(root, mask)) == {1: 1, 2: 1}
        betti = hm._subset_betti(root, mask)
        assert betti == {}
        assert betti == reduced_homology(order_complex_simplicial(P))
        assert not hm.is_gorenstein_star(P)

    def test_spheres_never_reach_exact_elimination(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("sparse_rank called on a mod-2-certified profile")

        monkeypatch.setattr(hm, "sparse_rank", refuse)
        for P in (cons.boolean_algebra(4), cons.pyr_poset(cons.polygon(3))):
            assert hm.is_gorenstein_star(P)


class TestFaceBudget:
    def test_chains_are_counted_before_they_are_built(self, polygon3, monkeypatch):
        """The proper part of a triangle has 13 chains, the empty one
        included: a budget of 13 admits them and one of 12 refuses them."""
        root = polygon3._root
        mask = polygon3._mask & ~(1 << polygon3._bottom_idx)
        monkeypatch.setattr(hm, "FACE_BUDGET", 13)
        assert sum(map(len, hm._chain_faces(root, mask).values())) == 13
        monkeypatch.setattr(hm, "FACE_BUDGET", 12)
        with pytest.raises(hm.FaceBudgetExceeded, match="of 6 elements has 13 faces"):
            hm._chain_faces(root, mask)

    def test_literal_order_complexes_are_budgeted(self, polygon3, monkeypatch):
        """The simplicial oracle and the order-complex construction count
        the same 13 chains first."""
        monkeypatch.setattr(hm, "FACE_BUDGET", 13)
        assert len(order_complex_simplicial(polygon3).all_simplices()) == 13
        assert len(cons.order_complex(polygon3)) == 13
        monkeypatch.setattr(hm, "FACE_BUDGET", 12)
        for build in (order_complex_simplicial, cons.order_complex):
            with pytest.raises(hm.FaceBudgetExceeded,
                               match="of 6 elements has 13 faces"):
                build(polygon3)


@contextmanager
def _checked_routes():
    """Check every gap that the walk answers under the cellular
    precondition, reaching two levels above x, against the GF(2) chain
    complex of the same interval.  `_counted_sphere` must say True exactly
    when that complex is a sphere of the gap's dimension d, 1 or 2 (under
    the precondition the count decides both ways), and
    `_cellular_betti_mod2` must give its Betti numbers, for a gap that
    reaches two levels.  Yields `routes`: `routes.kernel` lists the
    (root, x, gap) of each kernel call, `routes.counts` the (root, gap,
    answer) of each count.  `_first_bad_interval` and `_cell_table` are
    wrapped too, to tell each call which root poset its bitmasks index."""
    walk, build = hm._first_bad_interval, hm._cell_table
    kernel, count = hm._cellular_betti_mod2, hm._counted_sphere
    routes, roots = SimpleNamespace(kernel=[], counts=[]), {}

    def walked(root, *args):
        roots[id(root._leq)] = root, root._leq  # holding leq keeps its id unique
        return walk(root, *args)

    def table(root, x, above):
        levels, rows = build(root, x, above)
        roots[id(rows)] = root, rows
        return levels, rows

    def counted(leq, gap, s, t, d):
        sphere = count(leq, gap, s, t, d)
        root = roots[id(leq)][0]
        assert d in (1, 2), (gap, d)
        assert sphere == (hm._faces_betti_mod2(hm._chain_faces(root, gap)) == {d: 1}), gap
        routes.counts.append((root, gap, sphere))
        return sphere

    def checked(x, gap, levels, rows):
        betti = kernel(x, gap, levels, rows)
        root = roots[id(rows)][0]
        assert betti == hm._faces_betti_mod2(hm._chain_faces(root, gap)), (x, gap)
        assert max(root._rank[z] for z in _bits(gap)) >= root._rank[x] + 2, (x, gap)
        routes.kernel.append((root, x, gap))
        return betti

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hm, "_first_bad_interval", walked)
        mp.setattr(hm, "_cell_table", table)
        mp.setattr(hm, "_counted_sphere", counted)
        mp.setattr(hm, "_cellular_betti_mod2", checked)
        yield routes


def _answered(routes):
    """The number of gaps the kernel or the count answered: each kernel
    call, and each gap the count certified a sphere (one it does not
    certify goes on to the kernel)."""
    return len(routes.kernel) + sum(sphere for *_, sphere in routes.counts)


def _literal_cm(K):
    """Cohen-Macaulay by definition: every simplex link of K has homology
    only in its top degree."""
    return all(d == K.dim - len(s) for s in K.all_simplices()
               for d in reduced_homology(link(K, s)))


def pendant_edge_poset():
    """Every lower interval (0, z) with z < 9 is a GF(2) sphere, but (0, 7)
    is a circle 1-4-2-5 with a pendant path 1-6-3, so it is no
    pseudomanifold and the cellular complex of (0, 9) is wrong."""
    return GradedPoset.from_covers(
        4, {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 4},
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (1, 5), (2, 5), (1, 6), (3, 6),
         (4, 7), (5, 7), (6, 7), (4, 8), (5, 8), (7, 9), (8, 9)])


class TestCellularKernel:
    def test_pendant_edge_interval_never_reaches_the_kernel(self):
        """Checking only the lower intervals (0, z) is not enough: the
        kernel answers {1: -1} on (0, 9), whose GF(2) homology is {2: 1}.
        The top-down walk meets a non-sphere above 0 first, the single point
        (6, 9), and takes the chain route from there on: the Cohen-Macaulay
        walk computes (0, 9) by `_subset_betti`.  The Gorenstein* walk fails
        at (8, top) before it gets there."""
        P = pendant_edge_poset()
        root = P._root
        bottom, above = P._bottom_idx, P._mask & ~(1 << P._bottom_idx)
        gap = above & ~(1 << root._index(9))
        assert cellular_betti_mod2_oracle(root, bottom, gap) == {1: -1}
        assert hm._cellular_betti_mod2(
            bottom, gap, *hm._cell_table(root, bottom, above)) == {1: -1}
        assert hm._faces_betti_mod2(hm._chain_faces(root, gap)) == {2: 1}
        K = order_complex_simplicial(P)
        oracles = {hm.gorenstein_star_report: is_gorenstein_complex(K),
                   hm.cohen_macaulay_report: _literal_cm(K)}
        chain_route = {}
        for report, want in oracles.items():
            with _checked_routes() as routes, _chain_route_calls() as gaps:
                rep = report(pendant_edge_poset())
            chain_route[report] = gaps
            assert (P._bottom_idx, gap) not in {(x, g) for _, x, g in routes.kernel}
            assert bool(rep) == want
            if not rep:
                assert rep.betti == reduced_homology(link(K, rep.witness))
        assert gap in chain_route[hm.cohen_macaulay_report]
        assert gap not in chain_route[hm.gorenstein_star_report]

    def test_kernel_sees_only_gaps_that_reach_two_levels(self):
        """Under all four predicates over both corpora and one
        `remove_upset` ball per lattice, the walk answers every gap inside
        one level itself: each kernel call's gap reaches rank(x) + 2, and
        each count is right, which `_checked_routes` asserts."""
        with _checked_routes() as routes:
            for _, P in gorenstein_corpus(4) + lattice_corpus(4):
                hm.gorenstein_star_report(P)
                hm.cohen_macaulay_report(P)
                _derive_outcome(hm.derive_boundary, P)
            for _, L in lattice_corpus(4):
                ball, boundary = cons.remove_upset(L, L.elements()[1])
                assert hm.near_gorenstein_star_report(ball, boundary)
        assert _answered(routes) > 100, _answered(routes)

    def test_kernel_against_chain_complex_on_the_corpus(self):
        """Every interval the walk hands to the kernel or counts, over the
        Gorenstein* corpus, RP^2 and one `remove_upset` ball per lattice and
        rank."""
        balls = []
        for _, L in lattice_corpus(4):
            for r in range(1, L.n + 1):
                nu = next(e for e in L.elements() if L.rank(e) == r)
                balls.append(cons.remove_upset(L, nu))
        with _checked_routes() as routes:
            for _, P in gorenstein_corpus(4):
                assert hm.is_gorenstein_star(P) and is_cohen_macaulay(P)
            for ball, boundary in balls:
                assert hm.is_near_gorenstein_star(ball, boundary)
                assert hm.derive_boundary(ball) == frozenset(boundary)
            rp2 = rp2_face_poset()
            assert not hm.is_gorenstein_star(rp2) and is_cohen_macaulay(rp2)
        assert _answered(routes) > 1000, _answered(routes)

    @pytest.mark.parametrize("build, betti", [
        # two disjoint 4-cycles under the rank-3 top: 4 atoms, not connected
        (lambda: wedge_at_bottom(cons.polygon(2), cons.polygon(2)), {0: 1, 1: 2}),
        # the 7-vertex torus: connected, Euler characteristic 0
        (torus_face_poset, {1: 2, 2: 1}),
        # a tetrahedron's boundary and the torus: Euler characteristic 2,
        # which alone would make it a sphere, but not connected
        (lambda: wedge_at_bottom(cons.boolean_algebra(4), torus_face_poset()),
         {0: 1, 1: 2, 2: 2})])
    def test_closed_manifolds_the_count_refutes_reach_the_kernel(self, build, betti):
        """Each proper part is a closed manifold whose every subinterval
        passes, so the count is asked about it, says no, and the kernel
        answers: every report equals the literal oracle's, and the
        Gorenstein* one names the empty chain with the exact Betti
        numbers."""
        P = build()
        whole = P._mask & ~(1 << P._bottom_idx)
        with _checked_routes() as routes:
            reports = _assert_walk_against_literal_oracle(P)
        assert (whole, False) in {(gap, sphere) for _, gap, sphere in routes.counts}
        assert (P._bottom_idx, whole) in {(x, gap) for _, x, gap in routes.kernel}
        assert reports[0] == hm.CertResult(False, "link homology not a sphere", (), betti)

    def test_rp3_torsion_takes_the_chain_route(self):
        """Two 4-cells over RP^3: the whole is a Q homology sphere, but the
        interval below each 4-cell is RP^3, whose GF(2) homology sits in
        three degrees.  From there on the walk must use the chain route, so
        the whole proper part never reaches the kernel."""
        R = rp3_face_poset()
        ranks = {e: R.rank(e) for e in R.elements()}
        tets = [e for e in R.elements() if ranks[e] == 4]
        P = GradedPoset.from_covers(5, {**ranks, "w1": 5, "w2": 5},
                                    R.covers() + [(t, w) for t in tets for w in ("w1", "w2")])
        root, bottom = P._root, P._bottom_idx
        rp3 = P._mask & ~(1 << bottom) & ~root._mask_of(["w1", "w2"])
        with _checked_routes() as routes:
            assert hm.is_gorenstein_star(P)
        seen = {g for _, x, g in routes.kernel}
        assert rp3 in seen and P._mask & ~(1 << bottom) not in seen
        assert hm._faces_betti_mod2(hm._chain_faces(root, rp3)) == {1: 1, 2: 1, 3: 1}
        assert hm._subset_betti(root, rp3) == {3: 1}
        assert hm._subset_betti(root, P._mask & ~(1 << bottom)) == {4: 1}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(composed_posets(("sphere", "cone", "ball", "ball_boundary", "perturbed",
                        "disjoint", "wrong_boundary")))
def test_cellular_kernel_against_chain_complex(drawn):
    """Every interval the walk hands to the kernel or counts, over every
    family, posets that fail deep down included: the kernel's GF(2) Betti
    numbers equal the chain complex's, and the count certifies exactly the
    chain complex's spheres."""
    P, boundary = drawn
    with _checked_routes():
        hm.gorenstein_star_report(P)
        hm.cohen_macaulay_report(P)
        if boundary is not None:
            hm.near_gorenstein_star_report(P, boundary)


def _assert_cell_table_against_oracle(P):
    """For each x of P, one `_cell_table` against the complex that the
    oracle builds from each interval (x, y) and (x, top) alone: the table's
    rows and levels restrict to the oracle's, and the Betti numbers are the
    oracle's: the kernel's, or `_points_betti`'s for a gap that is empty or
    lies inside the first level."""
    root = P._root
    for x in _bits(P._mask):
        above = root._geq[x] & P._mask & ~(1 << x)
        levels, rows = hm._cell_table(root, x, above)
        for gap in [above & root._leq[y] & ~(1 << y) for y in _bits(above)] + [above]:
            cells, want = cellular_rows_oracle(root, x, gap)
            assert {z: rows[z] for z in want} == want, (x, gap)
            assert [levels[0]] + [level & gap for level in levels[1:len(cells)]] == cells
            betti = (hm._points_betti(gap) if not gap & ~levels[1]
                     else hm._cellular_betti_mod2(x, gap, levels, rows))
            assert betti == cellular_betti_mod2_oracle(root, x, gap), (x, gap)


def test_cell_table_against_oracle_on_the_corpora():
    """The corpora, and B4 without its atoms, a record that is no convex
    view (`restrict` refuses it), whose gaps above the bottom skip the
    first level."""
    B4 = cons.boolean_algebra(4)
    skipped = SubPoset(B4, sum(1 << i for i, r in enumerate(B4._rank) if r != 1),
                       B4._bottom_idx, B4.n)
    for P in [P for _, P in gorenstein_corpus(4) + lattice_corpus(4)] + [skipped]:
        _assert_cell_table_against_oracle(P)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(composed_posets(("sphere", "cone", "ball", "ball_boundary", "perturbed",
                        "disjoint", "wrong_boundary")))
def test_cell_table_against_oracle(drawn):
    _assert_cell_table_against_oracle(drawn[0])


def _open_interval_masks(P):
    """Every open interval (x, y) of P u {top}, as root index masks."""
    root = P._root
    members = [i for i in range(len(root._ids)) if (P._mask >> i) & 1]
    for x in members:
        above = root._geq[x] & P._mask & ~(1 << x)
        yield above
        for y in members:
            if (above >> y) & 1:
                yield above & root._leq[y] & ~(1 << y)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(composed_posets())
def test_mod2_certificate_against_exact_and_simplicial_oracle(drawn):
    """Over every open interval the chain count is the number of faces, the
    GF(2) Betti numbers dominate the Q ones with the same Euler
    characteristic, and the mod-2-certified
    `_subset_betti` equals exact elimination over Q; the fast Gorenstein*
    predicate agrees with the literal simplicial one."""
    P, _ = drawn
    root = P._root
    for mask in set(_open_interval_masks(P)):
        faces = hm._chain_faces(root, mask)
        assert hm._chain_count(root, mask) == sum(map(len, faces.values()))
        exact, mod2 = hm._faces_betti(faces), hm._faces_betti_mod2(faces)
        assert all(mod2.get(d, 0) >= b for d, b in exact.items())
        assert (sum((-1) ** d * b for d, b in exact.items())
                == sum((-1) ** d * b for d, b in mod2.items()))
        assert hm._subset_betti(root, mask) == exact
    try:
        generic = is_gorenstein_complex(order_complex_simplicial(P))
    except NotPure:
        generic = False
    assert hm.is_gorenstein_star(P) == generic


@settings(max_examples=40, deadline=None, derandomize=True)
@given(composed_posets(("ball", "perturbed", "disjoint", "wrong_boundary")))
def test_interval_walk_against_simplicial_oracles(drawn):
    """The interval walk against the literal definitions on the order
    complex K, deep failures included: Cohen-Macaulay means every simplex
    link has homology only in its top degree; a ball has acyclic links on
    boundary simplices and sphere links on interior ones; and a failing
    Gorenstein* report names a chain whose link has its Betti numbers and
    is no sphere."""
    P, boundary = drawn
    K = order_complex_simplicial(P)
    links = {s: reduced_homology(link(K, s))
             for s in K.all_simplices()}
    cm = all(d == K.dim - len(s) for s, betti in links.items() for d in betti)
    assert is_cohen_macaulay(P) == cm
    if boundary is not None:
        ball = all(not betti if set(s) <= boundary else betti == {K.dim - len(s): 1}
                   for s, betti in links.items())
        assert hm.is_near_gorenstein_star(P, boundary) == ball
    rep = hm.gorenstein_star_report(P)
    if not rep:
        betti = reduced_homology(link(K, rep.witness))
        assert betti == rep.betti != {P.n - len(rep.witness) - 1: 1}


def _walk_outcomes(P, boundary):
    """Every predicate's answer on P from cold caches: the Gorenstein* and
    Cohen-Macaulay reports, `derive_boundary`'s boundary or error, and the
    near-Gorenstein* report when a boundary is given."""
    P._root._cache.clear()
    out = [hm.gorenstein_star_report(P), hm.cohen_macaulay_report(P),
           _derive_outcome(hm.derive_boundary, P)]
    if boundary is not None:
        out.append(hm.near_gorenstein_star_report(P, boundary))
    return out


def _assert_walk_against_literal_oracle(P, boundary=None):
    """The interval walk and `first_bad_interval_oracle`, which visits
    every interval, computes each over Q and asks `fits` about each, give
    every predicate the same answers: verdicts, reasons, witness chains,
    Betti numbers, boundaries and error messages.  Returns them."""
    fast = _walk_outcomes(P, boundary)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hm, "_first_bad_interval", first_bad_interval_oracle)
        assert _walk_outcomes(P, boundary) == fast
    return fast


# The literal oracle ranks every interval over Q by exact elimination, so
# it cuts into balls only the lattices of at most 35 elements (all but
# pyr(cube) and pyr(cross)), drops covers only from the posets of at most
# 27 (all but those, B5, pyr(B4), pyr(7-gon) and pyr(8-gon)), and adds
# covers only to those of at most 15.
_BALL_SIZE, _DAMAGE_SIZE, _ADDED_SIZE = 35, 27, 15


def test_interval_walk_against_literal_oracle_on_the_corpora():
    """Both corpora, the `remove_upset` balls of their lattices, the
    pendant-edge poset, RP^2 and RP^3."""
    cases = [(P, None) for P in dict(gorenstein_corpus(4) + lattice_corpus(4)).values()]
    cases += [cons.remove_upset(L, nu) for _, L in lattice_corpus(4)
              if len(L) <= _BALL_SIZE for nu in proper_elements(L)]
    cases += [(P, None) for P in (pendant_edge_poset(), rp2_face_poset(),
                                  rp3_face_poset())]
    verdicts = {tuple(bool(cert) for cert in _assert_walk_against_literal_oracle(*case)
                      if isinstance(cert, hm.CertResult))
                for case in cases}
    assert {(True, True), (False, True), (False, True, True)} <= verdicts


def test_interval_walk_against_literal_oracle_with_a_cover_dropped():
    """Every poset obtained from a corpus poset by dropping one cover above
    the bottom: no longer Eulerian, so never Gorenstein*."""
    damaged = [D for P in dict(gorenstein_corpus(4) + lattice_corpus(4)).values()
               if len(P) <= _DAMAGE_SIZE for D in _covers_dropped(P)]
    for D in damaged:
        assert not _assert_walk_against_literal_oracle(D)[0]
    assert len(damaged) > 400, len(damaged)


def test_interval_walk_against_literal_oracle_with_a_cover_added():
    """Every poset obtained from a corpus poset by adding one cover between
    adjacent ranks above the bottom: some real interval then has a point
    too many, or its (x, top) does."""
    added = [Q for P in dict(gorenstein_corpus(4) + lattice_corpus(4)).values()
             if len(P) <= _ADDED_SIZE for Q in _covers_added(P)]
    for Q in added:
        assert not _assert_walk_against_literal_oracle(Q)[0]
    assert len(added) > 100, len(added)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(composed_posets(("sphere", "cone", "ball", "ball_boundary", "perturbed",
                        "disjoint", "wrong_boundary")))
def test_interval_walk_against_literal_oracle(drawn):
    _assert_walk_against_literal_oracle(*drawn)


class TestStructuralCheckOnClosedMasks:
    """Verdicts of the structural check on convex masks."""

    def test_fiber_with_a_maximal_element_below_top_rank(self):
        """The down-sets of a rank-2 element of B4 and of an atom outside
        it form an order ideal; read at rank 2, that atom is a maximal
        element at rank 1."""
        B4 = cons.boolean_algebra(4)
        atoms = [e for e in B4.elements() if B4.rank(e) == 1]
        pair = next(e for e in B4.elements() if B4.rank(e) == 2
                    and not B4.leq(atoms[-1], e))
        mask = B4._leq[B4._index(pair)] | B4._leq[B4._index(atoms[-1])]
        got = hm._structural_check(B4, mask, B4._bottom_idx, 2)
        assert got == hm.CertResult(False, "maximal element below top rank",
                                    (atoms[-1],))
        assert got == structural_check_oracle(B4, mask, B4._bottom_idx, 2)


def test_structural_check_against_the_cover_scan_oracle():
    """`_structural_check` on convex masks: its verdicts and witnesses are
    the up-set scan's on the corpus posets, every `remove_upset` ball and
    boundary, and every closed and open fiber of the subdivision and
    collapse maps of the lattice corpus, and the upper intervals of the
    corpus posets.  Each mask is also checked without members that keep it
    convex and may make it fail: its last member, its first maximal member
    and its whole top rank.  It is checked with members the whole-mask bit
    tests must reject, alone and mixed: one below the bottom's rank, one
    outside the bottom's up-set, one above rank n, and, at rank n - 1, the
    members of its top rank."""
    cases = [(P, P._mask, P._bottom_idx, P.n) for _, P in gorenstein_corpus(4)]
    for _, P in gorenstein_corpus(4):
        for x in list(_bits(P._mask))[1::7]:
            cases.append((P, P._geq[x], x, P.n - P._rank[x]))
    for _, L in lattice_corpus(4):
        for nu in proper_elements(L):
            ball, boundary = cons.remove_upset(L, nu)
            cases.append((ball, ball._mask, ball._bottom_idx, ball.n))
            cases.append((ball, ball._mask_of(boundary), ball._bottom_idx, ball.n - 1))
            for phi in (cons.subdivision_target_and_map(L, nu)[1],
                        cons.collapse_map(L, nu)):
                closed, image_bit = _fiber_masks(phi)
                for cmask, imask, r in zip(closed, image_bit, phi.target._rank):
                    cases.append((L, cmask, L._bottom_idx, r))
                    cases.append((L, cmask & ~imask, L._bottom_idx, r - 1))
    checks = {}
    for P, mask, bottom, n in cases:
        root = P._root
        others = [i for i in _bits(mask) if i != bottom]
        maximal = [i for i in others if root._geq[i] & mask == 1 << i][:1]
        last = root._rank[mask.bit_length() - 1]
        top_rank = sum(1 << i for i in others if root._rank[i] == last)
        for m in [mask, mask & ~top_rank] + [mask & ~(1 << i) for i in maximal + others[-1:]]:
            assert not root._between(m), m
            checks[(id(root), m, bottom, n)] = root
        base, indices = root._rank[bottom], range(len(root._ids))
        below = [i for i in indices if root._rank[i] < base][-1:]
        outside = [i for i in indices
                   if root._rank[i] >= base and not (root._geq[bottom] >> i) & 1]
        high = [i for i in _bits(root._geq[bottom]) if root._rank[i] > base + n][:1]
        strays = list(dict.fromkeys(below + outside[:1] + high + outside[-1:]))
        for k in range(1, len(strays) + 1):
            for group in combinations(strays, k):
                extra = sum(1 << i for i in group)
                checks[(id(root), mask | extra, bottom, n)] = root
        checks[(id(root), mask, bottom, n - 1)] = root
    verdicts = set()
    for (_, m, bottom, n), root in checks.items():
        got = hm._structural_check(root, m, bottom, n)
        assert got == structural_check_oracle(root, m, bottom, n), (m, n)
        verdicts.add(got.reason)
    assert {"", "maximal element below top rank",
            "element below the bottom rank", "element not above the bottom"} <= verdicts
    assert any(reason.startswith("element above rank") for reason in verdicts)


def _cone_pair(root, a, bottom_idx=None):
    """The cone pair [bottom, a] over [bottom, a), as certification
    arguments; the root's bottom unless another is given."""
    bottom_idx = root._bottom_idx if bottom_idx is None else bottom_idx
    mask = root._leq[a] & root._geq[bottom_idx]
    return root, mask, bottom_idx, root._rank[a] - root._rank[bottom_idx], mask & ~(1 << a)


class TestConePairs:
    """A cone pair is near-Gorenstein* iff its boundary is Gorenstein*, so
    certification walks at most the boundary (module docstring)."""

    def test_corpus_fibers_against_the_walk(self):
        """On every fiber pair of the subdivision and collapse maps of the
        lattice corpus, on a certified source and on its uncertified copy,
        the cone rule gives the full walk's verdict, reason, witness and
        Betti numbers; most of those pairs are cones."""
        cones = pairs = 0
        for _, L in lattice_corpus(4):
            assert hm.is_gorenstein_star(L)
            copy = uncertified_copy(L)
            for nu in proper_elements(L):
                for phi in (cons.subdivision_target_and_map(L, nu)[1],
                            cons.collapse_map(L, nu)):
                    closed, image = _fiber_masks(phi)
                    for cmask, imask, r in zip(closed, image, phi.target._rank):
                        bmask = cmask & ~imask
                        want = near_gorenstein_walk_oracle(L, cmask, L._bottom_idx, r, bmask)
                        for root in (L, copy):
                            got = hm._certify_near_gorenstein(
                                root, cmask, root._bottom_idx, r, bmask)
                            assert (got.ok, got.reason, got.witness, got.betti) == (
                                want.ok, want.reason, want.witness, want.betti)
                        a = cmask.bit_length() - 1
                        pairs += 1
                        cones += bmask == cmask & ~(1 << a)
        assert cones > pairs / 2

    @pytest.mark.parametrize("build", [torus_face_poset, rp2_face_poset])
    def test_cone_over_a_non_sphere_fails_on_its_boundary(self, build):
        """The cone over the torus or RP^2 fails as its boundary does, with
        the boundary walk's witness and Betti numbers."""
        P = cons.with_top(build())
        args = _cone_pair(P, len(P) - 1)
        got = hm.certify_near_gorenstein(*args)
        bg = hm.certify_gorenstein(P, args[4], P._bottom_idx, P.n - 1)
        assert not bg and got == near_gorenstein_walk_oracle(*args)
        assert got == hm.CertResult(False, f"boundary not Gorenstein*: {bg.reason}",
                                    bg.witness, bg.betti)
        assert got.reason == "boundary not Gorenstein*: link homology not a sphere"

    def test_two_maximal_elements_are_no_cone(self):
        """A boundary that misses only the top index of a pair with two
        maximal elements keeps the other one at rank n: the pair fails the
        boundary check, as on the walk route, before the cone rule."""
        B4 = cons.boolean_algebra(4)
        c1, c2 = len(B4) - 3, len(B4) - 2
        mask = B4._leq[c1] | B4._leq[c2]
        args = (B4, mask, B4._bottom_idx, 3, mask & ~(1 << c2))
        assert hm.is_gorenstein_star(B4)
        got = hm.certify_near_gorenstein(*args)
        assert got == near_gorenstein_walk_oracle(*args)
        assert got == hm.CertResult(False, "boundary rank is not n-1")

    def test_walks_taken(self, monkeypatch):
        """A cone on [bottom, a] of a certified root needs no walk; on a root
        with no cached certificate, with a withheld one, or on an interval
        view above an atom, it walks its boundary only; a ball that is no
        cone walks its boundary and itself."""
        B4 = cons.boolean_algebra(4)
        a = len(B4) - 2
        atom = next(i for i in _bits(B4._leq[a]) if B4._rank[i] == 1)
        assert hm.is_gorenstein_star(B4)
        fresh = GradedPoset(B4.n, B4._ids, B4._rank, B4._covers_up)
        pair = next(i for i in _bits(B4._leq[a]) if B4._rank[i] == 2)
        ball, boundary = cons.remove_upset(B4, B4._ids[pair])
        cases = [(_cone_pair(B4, a), 0), (_cone_pair(fresh, a), 1),
                 (_cone_pair(uncertified_copy(B4), a), 1), (_cone_pair(B4, a, atom), 1),
                 ((ball, ball._mask, ball._bottom_idx, ball.n, ball._mask_of(boundary)), 2)]
        calls, walk = [], hm._first_bad_interval
        monkeypatch.setattr(hm, "_first_bad_interval",
                            lambda *args: calls.append(args[1]) or walk(*args))
        for args, walks in cases:
            calls.clear()
            assert hm.certify_near_gorenstein(*args)
            assert calls == [args[4], args[1]][:walks], args[1:]
            assert near_gorenstein_walk_oracle(*args)
