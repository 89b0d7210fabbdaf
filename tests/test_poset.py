import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eulerian_oracle, isomorphic
from posetlab import constructions as cons
from posetlab.poset import (TOP, GradedPoset, NoBottom, NotALattice,
                            NotComparable, NotGraded, NoUniqueTop,
                            PosetError, RankedTooHigh, UnknownElement, UnreachableElement,
                            from_json, int_pairs, to_json, to_json_dict)


def two_atoms():
    return GradedPoset.from_covers(1, {0: 0, 1: 1, 2: 1}, [(0, 1), (0, 2)])


class TestFromCovers:
    def test_two_atom_poset(self):
        P = two_atoms()
        assert P.n == 1 and len(P) == 3
        assert P.bottom == 0

    def test_2gon_is_valid(self, polygon2):
        assert polygon2.n == 2
        assert len(polygon2) == 5

    def test_skipped_rank(self):
        with pytest.raises(NotGraded):
            GradedPoset.from_covers(2, {0: 0, 1: 2}, [(0, 1)])

    def test_no_bottom(self):
        with pytest.raises(NoBottom):
            GradedPoset.from_covers(1, {0: 0, 1: 0, 2: 1}, [(0, 2), (1, 2)])

    def test_rank_too_high(self):
        with pytest.raises(RankedTooHigh):
            GradedPoset.from_covers(1, {0: 0, 1: 2}, [])

    def test_unreachable(self):
        with pytest.raises(UnreachableElement):
            GradedPoset.from_covers(1, {0: 0, 1: 1, 2: 1}, [(0, 1)])

    def test_premature_maximal_is_not_graded(self):
        with pytest.raises(NotGraded):
            GradedPoset.from_covers(
                2, {0: 0, 1: 1, 2: 1, 3: 2}, [(0, 1), (0, 2), (1, 3)])

    def test_indices_out_of_rank_order_rejected(self):
        # the constructor trusts ascending indices to be rank order
        with pytest.raises(ValueError, match="rank order"):
            GradedPoset(1, [0, 1, 2], [1, 0, 1], [[], [0, 2], []])


class TestLeq:
    def test_cover(self, polygon2):
        assert polygon2.leq(1, 4)  # v1 < e2

    def test_incomparable(self, polygon2):
        assert not polygon2.leq(1, 2)
        assert not polygon2.leq(2, 1)

    def test_reflexive(self, polygon3):
        for x in polygon3.elements():
            assert polygon3.leq(x, x)

    def test_bottom_below_everything(self, boolean4):
        for x in boolean4.elements():
            assert boolean4.leq(boolean4.bottom, x)

    def test_unknown_element(self, polygon3):
        with pytest.raises(UnknownElement):
            polygon3.leq(0, 99)


class TestInterval:
    def test_upper_open_at_vertex(self, polygon3):
        up = polygon3.interval(1, TOP)
        assert up.n == 1 and len(up) == 3
        assert sum(1 for e in up.elements() if up.rank(e) == 1) == 2

    def test_full_open_interval_is_self(self, polygon3):
        full = polygon3.interval(polygon3.bottom, TOP)
        assert isomorphic(full, polygon3)

    def test_closed_vertex_edge(self, polygon3):
        e = next(e for e in polygon3.elements()
                 if polygon3.rank(e) == 2 and polygon3.leq(1, e))
        iv = polygon3.interval(1, e, closed_upper=True)
        assert iv.n == 1 and len(iv) == 2

    def test_not_comparable(self, polygon3):
        with pytest.raises(NotComparable):
            polygon3.interval(1, 2, closed_upper=True)

    def test_closed_top_rejected(self, polygon3):
        with pytest.raises(ValueError):
            polygon3.interval(1, TOP, closed_upper=True)

    def test_provenance_maps_back(self, polygon3):
        up = polygon3.interval(1, TOP)
        assert up.provenance[up.bottom] == 1


class TestDual:
    def test_chain_reversal(self):
        C = GradedPoset.from_covers(2, {0: 0, 1: 1, 2: 2}, [(0, 1), (1, 2)])
        D = C.dual()
        assert D.rank(D.bottom) == 0 and isomorphic(C, D)

    def test_involution(self):
        P = cons.with_top(cons.boolean_algebra(3))
        assert isomorphic(P.dual().dual(), P)

    def test_2gon_has_no_unique_top(self, polygon2):
        with pytest.raises(NoUniqueTop):
            polygon2.dual()


class TestEulerian:
    def test_2gon(self, polygon2):
        assert polygon2.is_eulerian()

    @pytest.mark.parametrize("m", range(3, 9))
    def test_ngon_matches_oracle(self, m):
        P = cons.polygon(m)
        assert P.is_eulerian() == eulerian_oracle(P) == True

    def test_broken_2gon(self):
        P = GradedPoset.from_covers(
            2, {0: 0, 1: 1, 2: 1, 3: 2}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert P.is_eulerian() == eulerian_oracle(P) == False

    def test_intervals_of_eulerian_are_eulerian(self, boolean4):
        # half-open intervals: the removed maximum becomes the virtual top
        for x in boolean4.elements():
            for y in boolean4.elements():
                if x != y and boolean4.leq(x, y) and \
                        boolean4.rank(y) - boolean4.rank(x) >= 2:
                    assert boolean4.interval(x, y).is_eulerian()
            assert boolean4.interval(x, TOP).is_eulerian()


class TestJoin:
    def test_vertices_of_common_edge(self, polygon3):
        j = polygon3.join(1, 2)
        assert polygon3.rank(j) == 2 and polygon3.leq(1, j) and polygon3.leq(2, j)

    def test_2gon_not_a_lattice(self, polygon2):
        with pytest.raises(NotALattice):
            polygon2.join(1, 2)

    def test_comparable_pair(self, polygon3):
        e = next(e for e in polygon3.elements()
                 if polygon3.rank(e) == 2 and polygon3.leq(1, e))
        assert polygon3.join(1, e) == e

    def test_top_join(self, polygon3):
        e1, e2 = [e for e in polygon3.elements() if polygon3.rank(e) == 2][:2]
        assert polygon3.join(e1, e2) is TOP

    def test_commutative_and_associative(self, polygon3):
        elems = polygon3.elements()
        for x in elems:
            for y in elems:
                assert polygon3.join(x, y) == polygon3.join(y, x)
        for x in elems:
            for y in elems:
                for z in elems:
                    def j(a, b):
                        r = polygon3.join(a, b)
                        return r

                    left = j(x, y)
                    right = j(y, z)
                    l2 = TOP if left is TOP else j(left, z)
                    r2 = TOP if right is TOP else j(x, right)
                    # joins through TOP stay TOP
                    if left is TOP or right is TOP:
                        assert l2 is TOP or r2 is TOP
                        continue
                    assert l2 == r2


class TestIsLattice:
    @pytest.mark.parametrize("m", range(3, 7))
    def test_ngon(self, m):
        assert cons.polygon(m).is_lattice()

    def test_2gon(self, polygon2):
        assert not polygon2.is_lattice()

    def test_boolean(self, boolean4):
        assert boolean4.is_lattice()


class TestJson:
    def test_round_trip(self, polygon3):
        doc = to_json(polygon3)
        again = to_json(from_json(doc))
        assert doc == again

    def test_labels_survive(self, polygon3):
        P = from_json(to_json(polygon3))
        assert P.label(1) == "v1"

    def test_bottom_must_be_zero(self):
        doc = {"n": 1, "elements": [{"id": 1, "rank": 0}, {"id": 0, "rank": 1}],
               "covers": [[1, 0]]}
        with pytest.raises(NoBottom):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("doc", [
        [],
        {"n": 1, "elements": [{"id": 0, "rank": 0}]},
        {"n": "1", "elements": [{"id": 0, "rank": 0}], "covers": []},
        {"n": 1, "elements": [{"id": 0, "rank": 0}, {"id": "a", "rank": 1}],
         "covers": []},
        {"n": 1, "elements": [{"id": 0, "rank": 0}, {"id": 1, "rank": 1.0}],
         "covers": []},
        {"n": 1, "elements": [{"id": 0, "rank": 0}, {"id": 1, "rank": 1},
                              {"id": 1, "rank": 0}], "covers": [[0, 1]]},
        {"n": 1, "elements": [{"id": 0, "rank": 0}, {"id": 1, "rank": 1}],
         "covers": [[0, 1, 1]]},
        {"n": 1, "elements": [{"id": 0, "rank": 0}, {"id": 1, "rank": 1}],
         "covers": [[0, [1]]]},
        {"n": 1, "elements": [{"id": 0, "rank": 0}, {"id": 1, "rank": 1}],
         "covers": [[0, True]]},
        {"n": 1, "elements": [{"id": 0, "rank": 0}, {"id": 1, "rank": 1}],
         "covers": [[0, 1.0]]},
        {"n": 1, "elements": [{"id": 0, "rank": 0}, {"id": 1, "rank": 1}],
         "covers": [0, 1]},
    ], ids=["not-an-object", "no-covers", "string-n", "string-id",
            "float-rank", "duplicate-id", "cover-triple", "cover-nested",
            "cover-bool", "cover-float", "cover-not-a-list"])
    def test_malformed_documents_raise_poset_error(self, doc):
        with pytest.raises(PosetError):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("bad", [
        [0, True], [1.0, 2], [0, 1, 2], [0], (0, 1), 7, [0, "1"],
    ], ids=["bool", "float", "triple", "single", "tuple", "int", "string"])
    def test_int_pairs_names_the_first_bad_entry(self, bad):
        """A list that fails the whole-list check is walked entry by entry;
        the message names the first bad entry, as before that check."""
        entries = [[0, 1], bad, [2.0, 3]]
        with pytest.raises(PosetError) as err:
            int_pairs(entries, "covers")
        assert str(err.value) == f"covers entry {bad!r} is not a pair of integers"

    def test_int_pairs_accepts_pairs_of_exact_ints(self):
        assert int_pairs([[0, 1], [1, 2]], "covers") == [(0, 1), (1, 2)]
        assert int_pairs([], "covers") == []
        with pytest.raises(PosetError, match="covers must be a list"):
            int_pairs((0, 1), "covers")

    def test_renumbered_export(self):
        # dual posets get nonzero bottoms internally; JSON must renumber
        P = cons.with_top(cons.polygon(3)).dual()
        doc = to_json_dict(P)
        assert doc["elements"][0]["id"] == 0
        assert doc["elements"][0]["rank"] == 0
        assert isomorphic(from_json(json.dumps(doc)), P)


@st.composite
def graded_posets(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    layers = [[0]]
    next_id = 1
    for r in range(1, n + 1):
        size = draw(st.integers(min_value=1, max_value=3))
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


@settings(max_examples=40, deadline=None)
@given(graded_posets())
def test_random_poset_invariants(P):
    for x in P.elements():
        assert P.leq(P.bottom, x)
    assert to_json(from_json(to_json(P))) == to_json(P)
    assert isomorphic(P.interval(P.bottom, TOP), P)
    for lo, hi in P.covers():
        assert P.rank(hi) == P.rank(lo) + 1
    m = len(P._ids)
    assert all((P._leq[j] >> i) & 1 == (P._geq[i] >> j) & 1
               for i in range(m) for j in range(m))
