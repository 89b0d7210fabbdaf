import pytest

from helpers import all_chains
from posetlab import constructions as cons
from posetlab import homology as hm
from posetlab.poset import GradedPoset, iter_chains


def path_poset():
    """Three edges in a row: Cohen-Macaulay ball-like but not a sphere."""
    return GradedPoset.from_covers(
        2, {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2},
        [(0, 1), (0, 2), (0, 3), (0, 4),
         (1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (4, 7)])


class TestSimplicialComplex:
    def test_closure_validated(self):
        with pytest.raises(ValueError):
            hm.SimplicialComplex([(1, 2, 3), (1, 2)])  # missing edges

    def test_closure_of(self):
        K = hm.SimplicialComplex.closure_of([(1, 2, 3)])
        assert K.f_vector() == (3, 3, 1)

    def test_contains_empty_simplex(self):
        K = hm.SimplicialComplex.closure_of([(1,)])
        assert () in K


class TestOrderComplexSimplicial:
    def test_triangle_gives_hexagon_complex(self, polygon3):
        K = hm.order_complex_simplicial(polygon3)
        assert K.f_vector() == (6, 6)

    def test_two_atoms_give_s0(self):
        K = hm.order_complex_simplicial(cons.segment())
        assert K.f_vector() == (2,)

    def test_b4_barycentric_f_vector(self, boolean4):
        K = hm.order_complex_simplicial(boolean4)
        assert K.f_vector() == (14, 36, 24)


class TestReducedHomology:
    def test_circle(self, polygon3):
        K = hm.order_complex_simplicial(polygon3)
        assert hm.reduced_homology(K).as_dict() == {1: 1}

    def test_s0(self):
        K = hm.order_complex_simplicial(cons.segment())
        assert hm.reduced_homology(K).as_dict() == {0: 1}

    def test_contractible(self):
        K = hm.SimplicialComplex.closure_of([(1, 2, 3)])
        assert hm.reduced_homology(K).is_zero()

    def test_empty_complex(self):
        K = hm.order_complex_simplicial(cons.single_point())
        assert hm.reduced_homology(K).as_dict() == {-1: 1}

    def test_euler_characteristic_consistency(self, small_gorenstein):
        for name, P in small_gorenstein:
            K = hm.order_complex_simplicial(P)
            prof = hm.reduced_homology(K)
            from_faces = sum((-1) ** d * len(K.simplices(d))
                             for d in range(K.dim + 1)) - 1
            assert prof.euler_characteristic_reduced() == from_faces, name


class TestLink:
    def test_hexagon_vertex_link_is_s0(self, polygon3):
        K = hm.order_complex_simplicial(polygon3)
        v = K.simplices(0)[0]
        assert hm.reduced_homology(hm.link(K, v)).as_dict() == {0: 1}

    def test_link_of_empty_is_whole(self, polygon3):
        K = hm.order_complex_simplicial(polygon3)
        assert hm.link(K, ()).f_vector() == K.f_vector()

    def test_sphere_link_in_barycentric_tetrahedron(self, boolean4):
        K = hm.order_complex_simplicial(boolean4)
        v = K.simplices(0)[0]
        assert hm.reduced_homology(hm.link(K, v)).as_dict() == {1: 1}

    def test_simplex_not_found(self, polygon3):
        K = hm.order_complex_simplicial(polygon3)
        with pytest.raises(hm.SimplexNotFound):
            hm.link(K, (999,))


class TestGorensteinComplex:
    def test_hexagon_boundary(self, polygon3):
        assert hm.is_gorenstein_complex(hm.order_complex_simplicial(polygon3))

    def test_path_of_edges_fails(self):
        K = hm.SimplicialComplex.closure_of([(1, 2), (2, 3), (3, 4)])
        assert not hm.is_gorenstein_complex(K)

    def test_disjoint_circles_fail(self):
        K = hm.SimplicialComplex.closure_of(
            [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
        assert not hm.is_gorenstein_complex(K)

    def test_impure_raises(self):
        K = hm.SimplicialComplex.closure_of([(1, 2, 3), (4, 5)])
        with pytest.raises(hm.NotPure):
            hm.is_gorenstein_complex(K)


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
            generic = hm.is_gorenstein_complex(hm.order_complex_simplicial(P))
            assert hm.is_gorenstein_star(P) == generic == True, name

    def test_fast_route_agrees_on_non_examples(self):
        for P in (path_poset(), cons.with_top(cons.polygon(3))):
            generic = hm.is_gorenstein_complex(hm.order_complex_simplicial(P))
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
            assert hm.is_cohen_macaulay(P), name

    def test_cm_and_eulerian_iff_gorenstein(self, small_gorenstein):
        posets = [P for _, P in small_gorenstein]
        posets += [path_poset(), cons.with_top(cons.polygon(3))]
        for P in posets:
            want = hm.is_cohen_macaulay(P) and P.is_eulerian()
            assert hm.is_gorenstein_star(P) == want

    def test_disconnected_fails(self):
        P = GradedPoset.from_covers(
            2, {0: 0, 1: 1, 2: 1, 3: 2, 4: 2}, [(0, 1), (0, 2), (1, 3), (2, 4)])
        assert not hm.is_cohen_macaulay(P)


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


class TestChainEngineAgainstGenericLinks:
    def test_link_profiles_match_generic(self, polygon3, small_gorenstein):
        """Every chain's link Betti vector from the interval engine equals
        the generic simplicial computation, and the chain generator yields
        one chain per simplex of the order complex plus the empty chain."""
        ball, boundary = cons.remove_upset(cons.polygon(4), 1)
        posets = [(name, P) for name, P in small_gorenstein] + [
            ("cone_polygon3", cons.with_top(polygon3)),
            ("path", path_poset()),
            ("ball", ball),
            ("ball_boundary", ball.restrict(boundary, n=ball.n - 1)),
        ]
        for name, P in posets:
            K = hm.order_complex_simplicial(P)
            root = P._root
            chains = [tuple(root._ids[i] for i in c)
                      for c in iter_chains(root, P._mask & ~(1 << P._bottom_idx))]
            oracle = all_chains(P)
            assert len(chains) == sum(K.f_vector()) + 1 == len(oracle), name
            assert set(chains) == {c[1:] for c in oracle}, name
            for chain in oracle:
                simplex = tuple(chain[1:])
                betti = hm._link_betti(
                    root, P._mask, P._bottom_idx,
                    tuple(root._index(e) for e in simplex))
                generic = hm.reduced_homology(hm.link(K, simplex)).as_dict()
                assert betti == generic, (name, simplex)
