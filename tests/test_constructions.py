import re

import pytest

from helpers import (cartesian_product_oracle, isomorphic,
                     polytope_product_oracle)
from posetlab import constructions as cons
from posetlab import flags
from posetlab.corpus import gorenstein_corpus, lattice_corpus
from posetlab.ncpoly import cd
from posetlab.poset import (TOP, GradedPoset, NotALattice, UnknownElement,
                            from_json_dict)


class TestBooleanAlgebra:
    def test_b2_is_two_atoms(self):
        P = cons.boolean_algebra(2)
        assert P.n == 1 and len(P) == 3

    def test_b3_is_the_triangle(self, polygon3):
        assert isomorphic(cons.boolean_algebra(3), polygon3)

    def test_b4_cd_index(self, boolean4):
        assert flags.cd_index(boolean4) == cd("ccc") + cd("cd", 2) + cd("dc", 2)

    def test_lattice(self):
        assert cons.boolean_algebra(4).is_lattice()


class TestPolygon:
    def test_triangle(self, polygon3):
        assert flags.cd_index(polygon3) == cd("cc") + cd("d")

    def test_2gon(self, polygon2):
        assert flags.cd_index(polygon2) == cd("cc")
        assert not polygon2.is_lattice()

    def test_hexagon(self):
        assert flags.cd_index(cons.polygon(6)) == cd("cc") + cd("d", 4)

    def test_too_small(self):
        with pytest.raises(ValueError):
            cons.polygon(1)


class TestStarProduct:
    def test_point_identity(self, polygon3):
        S = cons.star_product(polygon3, cons.single_point())
        assert isomorphic(S, polygon3)

    def test_multiplicativity(self, polygon3):
        seg = cons.segment()
        S = cons.star_product(seg, polygon3)
        assert flags.ab_index(S) == flags.ab_index(seg) * flags.ab_index(polygon3)

    def test_two_segments(self):
        S = cons.star_product(cons.segment(), cons.segment())
        assert S.n == 2 and flags.cd_index(S) == cd("cc")

    def test_associative_up_to_isomorphism(self):
        seg = cons.segment()
        a = cons.star_product(cons.star_product(seg, seg), seg)
        b = cons.star_product(seg, cons.star_product(seg, seg))
        assert isomorphic(a, b)


class TestCartesianProduct:
    def test_with_point_is_pyramid(self, polygon3):
        # the defining identity: the product with a single point is Pyr
        prod = cons.cartesian_product(polygon3, cons.single_point())
        assert isomorphic(prod, cons.pyr_poset(polygon3))

    def test_two_segments_give_the_tetrahedron(self):
        # (P u top) x (Q u top) minus top is the join-type product: two
        # segment boundaries give the tetrahedron, not the square
        prod = cons.cartesian_product(cons.segment(), cons.segment())
        assert isomorphic(prod, cons.boolean_algebra(4))

    def test_triangle_times_point_eulerian(self, polygon3):
        prod = cons.cartesian_product(polygon3, cons.single_point())
        assert prod.is_eulerian()


class TestPolytopeProduct:
    def test_square_from_segments(self):
        sq = cons.polytope_product(cons.segment(), cons.segment())
        assert isomorphic(sq, cons.polygon(4))

    def test_order_complex_multiplies_over_star(self, polygon3):
        seg = cons.segment()
        left = cons.order_complex(cons.star_product(seg, seg))
        right = cons.polytope_product(cons.order_complex(seg),
                                      cons.order_complex(seg))
        assert isomorphic(left, right)


def _same_poset(P, Q):
    return (P.elements() == Q.elements()
            and list(map(P.rank, P.elements())) == list(map(Q.rank, Q.elements()))
            and P.covers() == Q.covers() and P.labels == Q.labels
            and P.provenance == Q.provenance)


_CORPUS = gorenstein_corpus(4)


@pytest.mark.parametrize("left,right", [
    (a, b) for a, (_, P) in enumerate(_CORPUS)
    for b, (_, Q) in enumerate(_CORPUS) if len(P) * len(Q) <= 100],
    ids=lambda i: _CORPUS[i][0])
def test_products_match_the_pair_by_pair_oracle(left, right):
    P, Q = _CORPUS[left][1], _CORPUS[right][1]
    assert _same_poset(cons.cartesian_product(P, Q),
                       cartesian_product_oracle(P, Q))
    assert _same_poset(cons.polytope_product(P, Q),
                       polytope_product_oracle(P, Q))


@pytest.mark.parametrize("height", [1, 2, 3])
def test_pyramid_towers_match_the_pair_by_pair_oracle(height):
    # provenance nests one pair deeper per pyramid
    fast = slow = cons.polygon(4)
    for _ in range(height):
        fast = cons.pyr_poset(fast)
        slow = cartesian_product_oracle(slow, cons.single_point())
    assert _same_poset(fast, slow)
    assert _same_poset(cons.polytope_product(fast, cons.segment()),
                       polytope_product_oracle(slow, cons.segment()))


class TestPyramid:
    def test_pyr_of_segment_is_triangle(self, polygon3):
        assert isomorphic(cons.pyr_poset(cons.segment()), polygon3)

    def test_square_pyramid(self):
        pyr = cons.pyr_poset(cons.polygon(4))
        from posetlab.ncpoly import pyr_op
        assert flags.cd_index(pyr) == pyr_op(cd("cc") + cd("d", 2))
        assert flags.cd_index(pyr) == cd("ccc") + cd("cd", 3) + cd("dc", 3)

    def test_rank_increments(self, boolean4):
        assert cons.pyr_poset(boolean4).n == boolean4.n + 1


class TestCubeAndCross:
    def test_cube_counts(self):
        cube = cons.cube_poset(3)
        ranks = [cube.rank(e) for e in cube.elements()]
        assert (ranks.count(1), ranks.count(2), ranks.count(3)) == (8, 12, 6)

    def test_cross_counts(self):
        cross = cons.cross_polytope(3)
        ranks = [cross.rank(e) for e in cross.elements()]
        assert (ranks.count(1), ranks.count(2), ranks.count(3)) == (6, 12, 8)

    def test_duality_swaps_cd_words(self):
        assert flags.cd_index(cons.cube_poset(3)) == cd("ccc") + cd("cd", 4) + cd("dc", 6)
        assert flags.cd_index(cons.cross_polytope(3)) == cd("ccc") + cd("cd", 6) + cd("dc", 4)


class TestOrderComplex:
    def test_two_atoms_fixed_point(self):
        seg = cons.segment()
        assert isomorphic(cons.order_complex(seg), seg)

    def test_triangle_gives_hexagon(self, polygon3):
        assert isomorphic(cons.order_complex(polygon3), cons.polygon(6))

    def test_always_a_lattice(self, polygon2, polygon3):
        for P in (polygon2, polygon3, cons.boolean_algebra(3)):
            assert cons.order_complex(P).is_lattice()

    def test_rank_preserved(self, boolean4):
        assert cons.order_complex(boolean4).n == boolean4.n


class TestLambdaNu:
    def test_3gon_vertex(self, polygon3):
        lam = cons.lambda_nu_poset(polygon3, 1)
        # 0, three vertices minus nothing: v1 joins v2/v3 at edges; the
        # opposite edge joins v1 only at the top, so it drops out
        kept = {lam.provenance[e] for e in lam.elements()}
        e23 = next(e for e in polygon3.elements()
                   if polygon3.rank(e) == 2 and not polygon3.leq(1, e))
        assert e23 not in kept
        assert len(lam) == len(polygon3) - 1

    def test_4gon_vertex(self):
        L = cons.polygon(4)
        lam = cons.lambda_nu_poset(L, 1)
        kept = {lam.provenance[e] for e in lam.elements()}
        # the opposite vertex v3 and the two far edges disappear
        assert 3 not in kept
        assert len(kept) == 6

    def test_coatom_nu(self, boolean4):
        coatom = next(e for e in boolean4.elements() if boolean4.rank(e) == 3)
        lam = cons.lambda_nu_poset(boolean4, coatom)
        for e in lam.elements():
            src = lam.provenance[e]
            assert boolean4.join(src, coatom) is not TOP

    def test_needs_lattice(self, polygon2):
        with pytest.raises(NotALattice):
            cons.lambda_nu_poset(polygon2, 1)


class TestSemisuspension:
    def test_3gon_vertex_is_again_a_triangle(self, polygon3):
        prime = cons.semisuspension(polygon3, 1)
        assert isomorphic(prime, polygon3)
        assert prime.is_eulerian()

    def test_star_has_top_rank(self, boolean4):
        prime = cons.semisuspension(boolean4, 1)
        star = next(e for e in prime.elements() if prime.provenance[e] == "*")
        assert prime.rank(star) == boolean4.n

    def test_star_covers_non_nu_elements_only(self, boolean4):
        prime = cons.semisuspension(boolean4, 1)
        star = next(e for e in prime.elements() if prime.provenance[e] == "*")
        for lo, hi in prime.covers():
            if hi == star:
                src = prime.provenance[lo]
                assert not boolean4.leq(1, src)

    def test_star_covers_match_the_pairwise_scan(self):
        """The mask test for the maximal elements below * gives the covers
        that a literal scan over all pairs gives, for every nu."""
        for _, L in lattice_corpus(4):
            for nu in L.elements()[1:]:
                prime = cons.semisuspension(L, nu)
                lam = cons.lambda_nu_poset(L, nu)
                below = [e for e in lam.elements() if not L.leq(nu, lam.provenance[e])]
                maximal = [e for e in below
                           if not any(f != e and lam.leq(e, f) for f in below)]
                assert prime.covers() == sorted(
                    lam.covers() + [(e, len(lam)) for e in maximal])

    def test_matches_formula_on_corpus(self):
        L = cons.cube_poset(3)
        nu = next(e for e in L.elements() if L.rank(e) == 2)
        assert flags.cd_index(cons.semisuspension(L, nu)) == \
            flags.lambda_nu_prime_cd(L, nu)


class TestRemoveUpset:
    def test_3gon_vertex(self, polygon3):
        sub, boundary = cons.remove_upset(polygon3, 1)
        assert len(sub) == 4  # bottom, two vertices, one edge
        ranks = sorted(sub.rank(e) for e in sub.elements())
        assert ranks == [0, 1, 1, 2]
        assert len(boundary) == 3
        assert all(sub.rank(e) <= 1 for e in boundary)

    def test_coatom_case_matches_lemma(self, boolean4):
        pi = next(e for e in boolean4.elements() if boolean4.rank(e) == 3)
        sub, boundary = cons.remove_upset(boolean4, pi)
        assert len(sub) == len(boolean4) - 1
        # boundary should be [0, pi)
        srcs = {sub.provenance[e] for e in boundary}
        want = {e for e in boolean4.elements()
                if e != pi and boolean4.leq(e, pi)}
        assert srcs == want


class TestSubdivisionTarget:
    def test_triangle_target_cd(self, polygon3):
        T, phi = cons.subdivision_target_and_map(polygon3, 1)
        assert flags.cd_index(T) == cd("cc") + cd("d")

    def test_surjective_on_corpus(self):
        for L, nu in [(cons.polygon(5), 1), (cons.boolean_algebra(4), 1),
                      (cons.cube_poset(3), 1)]:
            _T, phi = cons.subdivision_target_and_map(L, nu)
            assert phi.is_surjective()

    def test_three_cases_of_the_map(self, boolean4):
        nu = next(e for e in boolean4.elements() if boolean4.rank(e) == 2)
        T, phi = cons.subdivision_target_and_map(boolean4, nu)
        for tau in boolean4.elements():
            img = phi(tau)
            if boolean4.leq(tau, nu) and tau != nu:
                assert T.rank(img) == boolean4.rank(tau)
            elif boolean4.leq(nu, tau):
                assert T.rank(img) == boolean4.rank(tau)
            else:
                j = boolean4.join(tau, nu)
                want_rank = boolean4.n if j is TOP else boolean4.rank(j) - 1
                assert T.rank(img) == want_rank

    def test_apex_cell_present(self, polygon3):
        T, _phi = cons.subdivision_target_and_map(polygon3, 1)
        labels = {T.label(e) for e in T.elements()}
        assert "(top,0)" in labels

    def test_nu_must_not_be_bottom(self, polygon3):
        with pytest.raises(ValueError):
            cons.subdivision_target_and_map(polygon3, polygon3.bottom)


class TestCollapseMap:
    def test_fiber_over_star(self, polygon3):
        phi = cons.collapse_map(polygon3, 1)
        prime = phi.target
        star = next(e for e in prime.elements() if prime.provenance[e] == "*")
        fiber = [x for x in polygon3.elements() if phi(x) == star]
        e23 = next(e for e in polygon3.elements()
                   if polygon3.rank(e) == 2 and not polygon3.leq(1, e))
        assert fiber == [e23]

    def test_fiber_is_complement_of_lambda_nu(self, boolean4):
        phi = cons.collapse_map(boolean4, 1)
        prime = phi.target
        star = next(e for e in prime.elements() if prime.provenance[e] == "*")
        fiber = {x for x in boolean4.elements() if phi(x) == star}
        lam = {lamel for lamel in boolean4.elements()
               if boolean4.join(lamel, 1) is not TOP}
        assert fiber == set(boolean4.elements()) - lam


class TestPosetMap:
    def test_must_be_total(self, polygon3):
        with pytest.raises(UnknownElement):
            cons.PosetMap(polygon3, polygon3,
                          {e: e for e in polygon3.elements() if e != 1})

    def test_first_failing_cover_in_covers_order(self):
        """A JSON source whose ids are not its indices: the chain
        0 < 7 < 1 < 4 sits at indices 0..3, so the cover (7, 1) comes first
        in index order, but covers() sorts (1, 4) first, and the message
        names it."""
        source = from_json_dict({
            "n": 3, "elements": [{"id": e, "rank": r}
                                 for e, r in ((0, 0), (7, 1), (1, 2), (4, 3))],
            "covers": [[0, 7], [7, 1], [1, 4]]})
        assert source._ids == (0, 7, 1, 4)
        target = GradedPoset.from_covers(1, {0: 0, 1: 1, 2: 1}, [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match=re.escape("on cover (1, 4)")):
            cons.PosetMap(source, target, {0: 0, 7: 1, 1: 2, 4: 1})

    def test_must_preserve_order(self, polygon3):
        bad = {e: e for e in polygon3.elements()}
        e1 = next(e for e in polygon3.elements()
                  if polygon3.rank(e) == 2 and polygon3.leq(1, e))
        e2 = next(e for e in polygon3.elements()
                  if polygon3.rank(e) == 2 and not polygon3.leq(1, e))
        bad[e1] = e2
        with pytest.raises(ValueError):
            cons.PosetMap(polygon3, polygon3, bad)
