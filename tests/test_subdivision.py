import pytest

from helpers import identity_map
from posetlab import constructions as cons
from posetlab import flags
from posetlab import subdivision as sd
from posetlab.ncpoly import NcPoly, cd, pyr_op
from posetlab.poset import GradedPoset, NotALattice, interval_view


def path_poset():
    return GradedPoset.from_covers(
        2, {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2},
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5)])


class TestIsSubdivision:
    def test_identity_map(self, polygon3):
        assert sd.is_subdivision(identity_map(polygon3))

    @pytest.mark.parametrize("m", range(3, 7))
    def test_subdivision_target(self, m):
        L = cons.polygon(m)
        _T, phi = cons.subdivision_target_and_map(L, 1)
        assert sd.is_subdivision(phi)

    def test_collapse_maps(self, boolean4):
        for nu in (1, 5):
            assert sd.is_subdivision(cons.collapse_map(boolean4, nu))

    def test_rank_mismatch(self, polygon3):
        seg = cons.segment()
        phi = cons.PosetMap(polygon3, seg,
                            {e: seg.bottom for e in polygon3.elements()})
        with pytest.raises(sd.RankMismatch):
            sd.is_subdivision(phi)

    def test_source_not_gorenstein(self):
        P = path_poset()
        with pytest.raises(sd.SourceNotGorenstein):
            sd.is_subdivision(identity_map(P))

    def test_not_surjective_reported(self, polygon2, polygon3):
        phi = cons.PosetMap(polygon3, polygon3,
                            {e: polygon3.bottom for e in polygon3.elements()})
        rep = sd.is_subdivision(phi)
        assert not rep and "surjective" in rep.reason

    def test_bad_fibers_reported_with_witness(self):
        # fold the square onto the 2-gon: fibers over edges are two
        # disjoint segments, not balls
        square, gon2 = cons.polygon(4), cons.polygon(2)
        phi = cons.PosetMap(square, gon2, {
            0: 0, 1: 1, 2: 2, 3: 1, 4: 2,   # vertices alternate
            5: 3, 6: 4, 7: 3, 8: 4})        # edges alternate
        rep = sd.is_subdivision(phi)
        assert not rep
        assert rep.failing_sigma is not None


class TestDecompose:
    def test_identity_decomposition(self, polygon3):
        dec = sd.decompose(identity_map(polygon3))
        assert dec.assembled == flags.cd_index(polygon3)
        assert dec.terms[polygon3.bottom] == NcPoly.one("cd")
        for s in polygon3.elements():
            if s != polygon3.bottom:
                assert dec.terms[s].is_zero()

    def test_triangle_target(self, polygon3):
        _T, phi = cons.subdivision_target_and_map(polygon3, 1)
        dec = sd.decompose(phi)
        assert dec.assembled == cd("cc") + cd("d")
        nonzero = {s for s, p in dec.terms.items() if not p.is_zero()}
        assert nonzero == {phi.target.bottom}

    def test_hexagon_excess_lands_on_the_apex(self):
        L = cons.polygon(6)
        T, phi = cons.subdivision_target_and_map(L, 1)
        dec = sd.decompose(phi)
        apex = next(e for e in T.elements() if T.label(e) == "(top,0)")
        assert dec.terms[apex] == 3 * cd("d")
        assert dec.assembled == cd("cc") + cd("d", 4)

    def test_every_phi_nonnegative(self, boolean4):
        _T, phi = cons.subdivision_target_and_map(boolean4, 1)
        dec = sd.decompose(phi)
        for poly in dec.terms.values():
            assert all(v >= 0 for v in poly.terms.values())

    def test_upper_intervals_come_from_one_walk(self, boolean4, monkeypatch):
        """No cd_index of an upper view: the only cd_index call is the
        source's, and the target is walked once."""
        cd_calls, walks = [], []
        cd_index, upper_intervals = flags.cd_index, flags.upper_intervals
        monkeypatch.setattr(flags, "cd_index",
                            lambda P: cd_calls.append(P) or cd_index(P))
        monkeypatch.setattr(flags, "upper_intervals",
                            lambda P, among: walks.append(P) or upper_intervals(P, among))
        for phi in (cons.subdivision_target_and_map(boolean4, 1)[1],
                    cons.collapse_map(boolean4, 5)):
            cd_calls.clear()
            walks.clear()
            sd.decompose(phi)
            assert cd_calls == [boolean4]
            assert walks == [phi.target]

    def test_fiber_masks_computed_once(self, boolean4, monkeypatch):
        seen = []
        fiber_masks = sd._fiber_masks
        monkeypatch.setattr(sd, "_fiber_masks",
                            lambda phi: seen.append(phi) or fiber_masks(phi))
        phi = cons.collapse_map(boolean4, 1)
        sd.decompose(phi)
        assert seen == [phi]

    def test_contraction_memo_is_kept_on_the_source(self, boolean4):
        T, phi = cons.subdivision_target_and_map(boolean4, 1)
        sd.decompose(phi)
        memo = boolean4._cache["cd_contract"]
        assert memo and "cd_contract" not in T._cache
        assert all(v == flags.cd_of(k, {}) for k, v in memo.items())

    def test_each_contraction_is_a_distinct_memo_key(self, monkeypatch):
        """Every `cd_contract` that `decompose` makes, in its fibers' splits,
        its target's upper intervals and the source's own `cd_index`,
        contracts a new key of the source's memo."""
        boolean4 = cons.boolean_algebra(4)
        calls = []
        contract = flags.cd_contract
        monkeypatch.setattr(flags, "cd_contract", lambda p: calls.append(p) or contract(p))
        for phi in (cons.subdivision_target_and_map(boolean4, 1)[1],
                    cons.collapse_map(boolean4, 5)):
            sd.decompose(phi)
        assert len(calls) == len(flags.contraction_memo(boolean4))

    def test_not_a_subdivision_raises(self, polygon3):
        phi = cons.PosetMap(polygon3, polygon3,
                            {e: polygon3.bottom for e in polygon3.elements()})
        with pytest.raises(sd.NotASubdivision):
            sd.decompose(phi)


class TestSubdivisionInequality:
    def test_collapse_targets(self):
        for m in range(3, 7):
            phi = cons.collapse_map(cons.polygon(m), 1)
            assert sd.verify_subdivision_inequality(phi)

    def test_identity_is_equality(self, polygon3):
        rep = sd.verify_subdivision_inequality(identity_map(polygon3))
        assert rep and rep.left == rep.right

    def test_hexagon_instance(self):
        _T, phi = cons.subdivision_target_and_map(cons.polygon(6), 1)
        rep = sd.verify_subdivision_inequality(phi)
        assert rep
        assert rep.right == cd("cc") + cd("d")
        assert rep.left == cd("cc") + cd("d", 4)


class TestMainInequality:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_ngon_at_a_vertex(self, m):
        assert sd.verify_main_inequality(cons.polygon(m), 1)

    def test_2gon_fails_with_witness_d(self, polygon2):
        rep = sd.verify_main_inequality(polygon2, 1)
        assert not rep
        assert rep.witness == ("d",)
        assert rep.note == "input is not a lattice"

    def test_b4_at_an_atom_is_equality(self, boolean4):
        rep = sd.verify_main_inequality(boolean4, 1)
        assert rep
        assert rep.right == pyr_op(cd("cc") + cd("d")) == rep.left

    def test_maximal_nu_permitted(self, boolean4):
        coatom = boolean4.maximal_elements()[0]
        assert sd.verify_main_inequality(boolean4, coatom)

    def test_not_gorenstein_raises(self):
        with pytest.raises(sd.NotGorensteinStar):
            sd.verify_main_inequality(path_poset(), 1)

    def test_route_independence(self):
        # the target's cd-index equals the product side of the inequality
        for L, nu in [(cons.polygon(5), 1), (cons.boolean_algebra(4), 1)]:
            T, phi = cons.subdivision_target_and_map(L, nu)
            lower = L.interval(L.bottom, nu, closed_upper=False)
            product = flags.cd_index(lower) * pyr_op(
                flags.cd_index(interval_view(L, L._index(nu))))
            assert flags.cd_index(T) == product
            assert sd.verify_subdivision_inequality(phi).ok == \
                sd.verify_main_inequality(L, nu).ok


class TestStanley:
    def test_ngon_vs_triangle(self):
        for m in range(3, 9):
            assert sd.verify_stanley_minimum(cons.polygon(m))

    def test_cube(self):
        assert sd.verify_stanley_minimum(cons.cube_poset(3))

    def test_boolean_is_equality(self, boolean4):
        rep = sd.verify_stanley_minimum(boolean4)
        assert rep and rep.left == rep.right


class TestSemisuspCorollary:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_ngon_at_a_vertex(self, m):
        assert sd.verify_corollary_semisusp(cons.polygon(m), 1)

    def test_b4_every_nu(self, boolean4):
        for nu in boolean4.elements():
            if nu != boolean4.bottom:
                assert sd.verify_corollary_semisusp(boolean4, nu)

    def test_equality_instance(self, polygon3):
        rep = sd.verify_corollary_semisusp(polygon3, 1)
        assert rep and rep.left == rep.right

    def test_needs_lattice(self, polygon2):
        with pytest.raises(NotALattice):
            sd.verify_corollary_semisusp(polygon2, 1)
