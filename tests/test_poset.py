import json
from dataclasses import dataclass, fields
from inspect import signature

import pytest
from hypothesis import given, settings

from helpers import (eulerian_oracle, graded_posets, isomorphic, lattice_oracle,
                     lattices_and_balls, materialize_oracle, view_poset)
from posetlab import constructions as cons
from posetlab import corpus
from posetlab.poset import (TOP, GradedPoset, NoBottom, NotALattice,
                            NotComparable, NotGraded, NoUniqueTop,
                            PosetError, RankedTooHigh, SubPoset, UnknownElement,
                            UnreachableElement, _bits, from_json, int_pairs,
                            interval_view, to_json, to_json_dict)


def two_atoms():
    return GradedPoset.from_covers(1, {0: 0, 1: 1, 2: 1}, [(0, 1), (0, 2)])


def bowtie_across_ranks():
    """Rank 3: atoms 1 and 2 below 3; 4 above 1 and 5 above 2 only; 6
    above 4 and 5, 7 above 3."""
    return GradedPoset.from_covers(
        3, {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2, 6: 3, 7: 3},
        [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 5), (4, 6), (5, 6), (3, 7)])


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

    @pytest.mark.parametrize("args, error, message", [
        ((2, {0: 0, 1: 2}, [(0, 1)]), NotGraded, "cover (0, 1) skips from rank 0 to 2"),
        ((1, {0: 0, 1: 0, 2: 1}, [(0, 2), (1, 2)]), NoBottom,
         "expected exactly one rank-0 element"),
        ((1, {0: 0, 1: 2, 2: -1}, []), RankedTooHigh, "element 1 has rank 2 outside [0, 1]"),
        ((1, {0: 0, 1: 1, 2: 1, 3: 1}, [(0, 1)]), UnreachableElement,
         "element 2 is not above the bottom"),
        ((2, {0: 0, 1: 1, 2: 1, 3: 2}, [(0, 1), (0, 2), (1, 3)]), NotGraded,
         "maximal element 2 has rank 1 != 2"),
        ((1, {0: 0, 1: 1}, [(0, 1), (0, 7)]), UnknownElement,
         "cover (0, 7) uses unknown element"),
        ((1, {}, []), NoBottom, "empty poset"),
    ], ids=["skip", "two-bottoms", "rank-range", "unreachable", "early-maximal",
            "unknown", "empty"])
    def test_messages_name_the_first_fault(self, args, error, message):
        with pytest.raises(error) as err:
            GradedPoset.from_covers(*args)
        assert str(err.value) == message

    def test_repeated_cover_is_kept_once(self):
        P = GradedPoset.from_covers(1, {0: 0, 1: 1}, [(0, 1), (0, 1)])
        assert P._covers_up == ((1,), ()) and P.covers() == [(0, 1)]

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

    def test_not_comparable(self, polygon3):
        with pytest.raises(NotComparable):
            polygon3.interval(1, 2)

    def test_provenance_maps_back(self, polygon3):
        up = polygon3.interval(1, TOP)
        assert up.provenance[up.bottom] == 1


def test_materialize_against_the_cover_scan_oracle():
    """`_materialize` reads a convex mask's covers off the root; its covers,
    ranks, labels and provenance are the up-set scan's on every interval
    [x, y) and [x, top) of the corpus posets, every Lambda_nu and every
    ideal left by `remove_upset` of the lattice corpus, and on B4 without
    its atoms, which is not convex."""
    cases = []
    for _, P in corpus.gorenstein_corpus(4):
        for x in range(len(P)):
            for y in [*_bits(P._geq[x] & ~(1 << x)), TOP]:
                view = interval_view(P, x, y)
                cases.append((P, view.mask, view.n, P._rank[x]))
    for _, L in corpus.lattice_corpus(4):
        for nu in corpus.proper_elements(L):
            cases.append((L, cons._lambda_nu_mask(L, nu), L.n, 0))
            cases.append((L, L._mask & ~L._geq[L._index(nu)], L.n, 0))
    B4 = cons.boolean_algebra(4)
    cases.append((B4, sum(1 << i for i, r in enumerate(B4._rank) if r != 1), B4.n, 0))
    convex = set()
    for P, mask, n, offset in cases:
        got, want = P._materialize(mask, n, offset), materialize_oracle(P, mask, n, offset)
        assert (got.n, got._ids, got._rank, got._covers_up, got.labels, got.provenance) == (
            want.n, want._ids, want._rank, want._covers_up, want.labels, want.provenance)
        convex.add(all(P._geq[i] & P._leq[j] & ~mask == 0
                       for i in _bits(mask) for j in _bits(mask)))
    assert convex == {True, False}


def test_sub_poset_is_an_index_record():
    """A view holds the four fields the kernels read and the three aliases
    they share with GradedPoset, and nothing else; GradedPoset keeps no
    view shims, and interval and restrict take no unused option."""

    @dataclass(frozen=True)
    class Record:
        root: GradedPoset
        mask: int
        bottom_idx: int
        n: int

    assert [f.name for f in fields(SubPoset)] == ["root", "mask", "bottom_idx", "n"]
    assert set(vars(SubPoset)) - set(vars(Record)) == {"_root", "_mask", "_bottom_idx"}
    assert not {"_rank_offset", "_vrank", "_indices"} & set(dir(GradedPoset))
    assert list(signature(GradedPoset.interval).parameters) == ["self", "x", "upper"]
    assert list(signature(GradedPoset.restrict).parameters) == ["self", "element_ids", "n"]


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
        with pytest.raises(NotALattice) as err:
            polygon2.join(1, 2)
        assert str(err.value) == "join(1, 2) has 2 minimal upper bounds"

    def test_bowtie_across_ranks(self):
        """Atoms 1 and 2 have the minimal upper bounds 3 (rank 2) and 6
        (rank 3): the lowest bit of their upper bounds is 3, and 6 is not
        above it."""
        P = bowtie_across_ranks()
        with pytest.raises(NotALattice) as err:
            P.join(2, 1)
        assert str(err.value) == "join(2, 1) has 2 minimal upper bounds"
        assert P.join(3, 4) is TOP and P.join(4, 5) == 6 and P.join(1, 3) == 3

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

    def test_bowtie_across_ranks(self):
        P = bowtie_across_ranks()
        assert not P.is_lattice() and not lattice_oracle(P)


def test_lattice_and_euler_tests_against_oracles_on_corpus_and_balls():
    """The lowest-bit join test and the even-gap Euler sums against the
    pair scan and the literal alternating sums."""
    for P in lattices_and_balls():
        assert P.is_lattice() == lattice_oracle(P)
        assert P.is_eulerian() == eulerian_oracle(P)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graded_posets(max_rank=4, max_width=4))
def test_lattice_and_euler_tests_against_oracles_on_random_posets(P):
    assert P.is_lattice() == lattice_oracle(P)
    assert P.is_eulerian() == eulerian_oracle(P)


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

    @pytest.mark.parametrize("bad, message", [
        ({"id": True, "rank": 1}, "element {'id': True, 'rank': 1} needs an integer id and rank"),
        ({"id": 2, "rank": 1.0}, "element {'id': 2, 'rank': 1.0} needs an integer id and rank"),
        ({"id": 2}, "element {'id': 2} needs an integer id and rank"),
        ([2, 1], "element [2, 1] needs an integer id and rank"),
        ("x", "element 'x' needs an integer id and rank"),
        ({"id": [2], "rank": 1}, "element {'id': [2], 'rank': 1} needs an integer id and rank"),
        ({"id": 1, "rank": 1}, "duplicate element id 1"),
    ], ids=["bool-id", "float-rank", "no-rank", "list", "string", "list-id", "duplicate"])
    def test_element_entries_name_the_first_bad_entry(self, bad, message):
        """Element entries that fail the whole-list check (exact dict and
        int types, distinct ids) are walked entry by entry; the message
        names the first bad one, not the later string id."""
        doc = {"n": 1, "elements": [{"id": 0, "rank": 0}, {"id": 1, "rank": 1}, bad,
                                    {"id": "x", "rank": 1}], "covers": [[0, 1]]}
        with pytest.raises(PosetError) as err:
            from_json(json.dumps(doc))
        assert str(err.value) == message

    def test_int_pairs_accepts_pairs_of_exact_ints(self):
        assert int_pairs([[0, 1], [1, 2]], "covers") == [(0, 1), (1, 2)]
        assert int_pairs([], "covers") == []
        with pytest.raises(PosetError, match="covers must be a list"):
            int_pairs((0, 1), "covers")

    @pytest.mark.parametrize("name", ["boolean4", "cube", "pyr_polygon5"])
    def test_view_round_trip(self, name):
        """A ball's boundary, a SubPoset view, is written out through the
        poset it spans."""
        L = dict(corpus.lattice_corpus(4))[name]
        ball, boundary = cons.remove_upset(L, corpus.proper_elements(L)[0])
        view = ball.restrict(boundary, n=ball.n - 1)
        text = to_json(view)
        assert isomorphic(from_json(text), view_poset(view))
        assert to_json(from_json(text)) == text

    def test_view_whose_covers_skip_a_rank_is_not_written(self):
        """A non-convex view materializes to covers that skip a rank:
        to_json raises the NotGraded that reading its document back would."""
        B = cons.boolean_algebra(4)
        view = B.restrict([e for e in B.elements() if B.rank(e) != 1])
        with pytest.raises(NotGraded, match=r"^cover \(0, 1\) skips from rank 0 to 2$"):
            to_json(view)

    def test_renumbered_export(self):
        # dual posets get nonzero bottoms internally; JSON must renumber
        P = cons.with_top(cons.polygon(3)).dual()
        doc = to_json_dict(P)
        assert doc["elements"][0]["id"] == 0
        assert doc["elements"][0]["rank"] == 0
        assert isomorphic(from_json(json.dumps(doc)), P)


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
