import random

import pytest
from hypothesis import given, settings

from helpers import (SEMISUSPENSION_ROUTES, InvalidChain, ab_index_oracle,
                     ab_key_walk_oracle, boundary_view, composed_posets,
                     count_maximal_chains, eulerian_lattices, eulerian_oracle,
                     flag_h_oracle, graded_posets, homogeneous_degree, lattice_oracle,
                     lattices_and_balls, near_cd_index_oracle,
                     semisuspension_sum_oracle, weight)
from posetlab import constructions as cons
from posetlab import corpus, flags
from posetlab.subdivision import _fiber_masks
from posetlab.ncpoly import (A, B, NcPoly, NotExpressible, ab, ab_expand, cd,
                             cd_contract, pyr_op)
from posetlab.poset import (TOP, GradedPoset, NotALattice, NotComparable, NotEulerian,
                            SubPoset, _bits, interval_view)


def two_atoms():
    return GradedPoset.from_covers(1, {0: 0, 1: 1, 2: 1}, [(0, 1), (0, 2)])


class TestWeight:
    def test_bottom_chain_of_ngon(self, polygon3):
        assert weight(polygon3, [0]) == (A - B) * (A - B)

    def test_maximal_chain_of_ngon(self, polygon3):
        e = next(e for e in polygon3.elements()
                 if polygon3.rank(e) == 2 and polygon3.leq(1, e))
        assert weight(polygon3, [0, 1, e]) == ab("bb")

    def test_rank0_bottom_chain_is_empty_product(self):
        assert weight(cons.single_point(), [0]) == NcPoly.one("ab")

    def test_rank1_bottom_chain(self):
        # the a+b value of the rank-1 ab-index pins this down
        assert weight(two_atoms(), [0]) == A - B

    def test_invalid_chain(self, polygon3):
        with pytest.raises(InvalidChain):
            weight(polygon3, [1])
        with pytest.raises(InvalidChain):
            weight(polygon3, [0, 2, 1])


class TestAbIndex:
    def test_two_atoms(self):
        assert flags.ab_index(two_atoms()) == A + B

    def test_2gon(self, polygon2):
        assert flags.ab_index(polygon2) == \
            ab("aa") + ab("ab") + ab("ba") + ab("bb")

    def test_3gon(self, polygon3):
        assert flags.ab_index(polygon3) == ab_expand(cd("cc") + cd("d"))

    @pytest.mark.parametrize("build", [
        lambda: cons.polygon(2), lambda: cons.polygon(5),
        lambda: cons.boolean_algebra(4), lambda: cons.cube_poset(3),
        lambda: cons.pyr_poset(cons.polygon(3)),
        lambda: cons.star_product(cons.segment(), cons.polygon(3)),
    ])
    def test_matches_brute_force_oracle(self, build):
        P = build()
        assert flags.ab_index(P) == ab_index_oracle(P)

    def test_homogeneous_of_degree_n(self, boolean4):
        p = flags.ab_index(boolean4)
        assert homogeneous_degree(p, "the ab-index") == boolean4.n

    def test_coefficient_sum_counts_maximal_chains(self, small_gorenstein):
        for name, P in small_gorenstein:
            total = sum(flags.ab_index(P).terms.values())
            assert total == count_maximal_chains(P), name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(composed_posets(("sphere", "cone", "ball", "ball_boundary", "perturbed",
                        "disjoint", "wrong_boundary")))
def test_packed_ab_index_against_chain_oracles(drawn):
    """The packed flag f-vector kernel against chain-by-chain summation on
    P, on each upper-interval view and on a ball's boundary view; the
    popcount Euler test against the literal alternating sums."""
    P, boundary = drawn
    assert flags.ab_index(P) == ab_index_oracle(P)
    views = [interval_view(P, i) for i in _bits(P._mask)]
    if boundary is not None:
        views.append(boundary_view(P, boundary))
    for view in views:
        assert flags.ab_index(view) == ab_index_oracle(view)
    if isinstance(P, GradedPoset):
        assert P.is_eulerian() == eulerian_oracle(P)


def _assert_readers_match_views(P):
    """Both interval readers of the view P, asked for every root element,
    against the per-view ab_index: [x, 1-hat) for every element x of P,
    [0-hat, pi) for every pi above the bottom."""
    root, bot = P._root, P._bottom_idx
    members = list(_bits(P._mask & root._geq[bot]))
    upper = flags.upper_intervals(P, root._mask)
    assert sorted(upper) == members
    for x, key in upper.items():
        view = interval_view(P, x)
        assert key[0] == view.n
        assert flags.ab_of(key) == flags.ab_index(view)
    lower = flags.lower_intervals(P, root._mask)
    assert sorted(lower) == members[1:]
    for pi, key in lower.items():
        view = interval_view(P, bot, pi)
        assert key[0] == view.n
        assert flags.ab_of(key) == flags.ab_index(view)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(composed_posets(("sphere", "cone", "ball", "ball_boundary", "perturbed",
                        "disjoint", "wrong_boundary")))
def test_interval_readers_against_per_view_ab_index(drawn):
    P, boundary = drawn
    _assert_readers_match_views(P)
    if boundary is not None:
        _assert_readers_match_views(boundary_view(P, boundary))


class TestIntervalReaders:
    def test_gorenstein_corpus(self):
        for name, P in corpus.gorenstein_corpus(4):
            _assert_readers_match_views(P)

    def test_subdivision_and_collapse_targets(self):
        """Every target `decompose` walks in acceptance criterion 3."""
        for name, L in corpus.lattice_corpus(4):
            for nu in corpus.proper_elements(L):
                _assert_readers_match_views(cons.subdivision_target_and_map(L, nu)[0])
                _assert_readers_match_views(cons.collapse_map(L, nu).target)

    def test_lower_reader_inverts_only_the_requested_elements(self, boolean4):
        nu = next(e for e in boolean4.elements() if boolean4.rank(e) == 2)
        want = boolean4._geq[boolean4._index(nu)]
        assert sorted(flags.lower_intervals(boolean4, want)) == list(_bits(want))

    def test_memo_hit_equals_cd_contract(self, boolean4):
        """B4's upper intervals are Boolean algebras, one per rank: four
        contractions, every other key a memo hit."""
        memo = {}
        keys = flags.upper_intervals(boolean4, boolean4._mask)
        for key in keys.values():
            first = flags.cd_of(key, memo)
            assert first == cd_contract(flags.ab_of(key))
            assert flags.cd_of(key, memo) is first
        assert len(memo) == 4

    def test_memo_lives_on_the_root_poset(self, boolean4):
        memo = flags.contraction_memo(boolean4)
        assert flags.contraction_memo(interval_view(boolean4, 1)) is memo
        assert flags.contraction_memo(cons.boolean_algebra(4)) is not memo

    def test_non_eulerian_upper_interval_raises_on_every_call(self):
        """[1, 1-hat) = {1, 3} has ab-index a, which is no cd-polynomial;
        failures are not memoized."""
        broken = GradedPoset.from_covers(
            2, {0: 0, 1: 1, 2: 1, 3: 2}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        memo = flags.contraction_memo(broken)
        key = flags.upper_intervals(broken, broken._mask)[1]
        assert flags.ab_of(key) == ab("a")
        for _ in range(3):
            with pytest.raises(NotEulerian):
                flags.cd_of(key, memo)
        assert key not in memo


def test_flag_h_against_per_slot_unpacking():
    """The halving unpacker against one shift of f per slot, on random
    packed values: every width from 1 to 40 bits, n up to 9 (512 slots,
    three halvings above the 64-slot base), top slots zero or full."""
    rng = random.Random(0)
    for width in range(1, 41):
        for n in range(10):
            slots = [rng.getrandbits(width) for _ in range(1 << n)]
            slots[-1] = rng.choice((0, (1 << width) - 1, slots[-1]))
            f = sum(v << (width * S) for S, v in enumerate(slots))
            assert flags._flag_h(f, width, n) == flag_h_oracle(f, width, n)


def _views_of_root(P, rng):
    """Views of the root P whose keys `_ab_key` must give as their own
    walk would: P, random order ideals (at their own top rank and at P's),
    the lower and upper intervals of random elements, and intervals [x, y)
    off the bottom."""
    root, bot = P._root, P._bottom_idx
    views = [P]
    others = [i for i in _bits(P._mask) if i != bot]
    for _ in range(12):
        mask = 1 << bot
        for i in rng.sample(others, rng.randint(1, min(3, len(others)))):
            mask |= root._leq[i]
        top = root._rank[mask.bit_length() - 1]
        views += [SubPoset(root, mask, bot, top), SubPoset(root, mask, bot, P.n)]
    for i in rng.sample(others, min(6, len(others))):
        views += [interval_view(P, bot, i), interval_view(P, i)]
        above = [j for j in _bits(root._geq[i] & P._mask) if j != i]
        if above:
            views.append(interval_view(P, i, rng.choice(above)))
    return views


class TestRootWalk:
    """`_ab_key` and `lower_intervals` read views on a root's bottom off its
    one cached walk, and every other view off its own top-down walk; every
    answer equals the view's own bottom-up walk."""

    def test_ab_key_of_ideals_and_intervals(self):
        rng = random.Random(1)
        read = 0
        for name, P in corpus.gorenstein_corpus(4):
            for view in _views_of_root(P, rng):
                assert flags._ab_key(view) == ab_key_walk_oracle(view), name
            read += "flag_walk" in P._cache
        assert read == len(corpus.gorenstein_corpus(4))

    def test_lower_intervals_off_the_bottom_raise(self, boolean4):
        atom = boolean4._index(1)
        with pytest.raises(ValueError, match="root's bottom"):
            flags.lower_intervals(interval_view(boolean4, atom), boolean4._mask)

    def test_lower_intervals_of_a_root_among_random_masks(self):
        rng = random.Random(2)
        for name, P in corpus.gorenstein_corpus(4):
            bot = P._bottom_idx
            for _ in range(4):
                among = rng.getrandbits(len(P))
                keys = flags.lower_intervals(P, among)
                assert sorted(keys) == [i for i in _bits(among) if i != bot], name
                for pi, key in keys.items():
                    view = interval_view(P, bot, pi)
                    assert key == ab_key_walk_oracle(view)
                    assert flags.ab_of(key) == flags.ab_index(view)


class TestCdIndex:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_polygon_formula(self, m):
        assert flags.cd_index(cons.polygon(m)) == cd("cc") + (m - 2) * cd("d")

    def test_tetrahedron(self, boolean4):
        assert flags.cd_index(boolean4) == cd("ccc") + cd("cd", 2) + cd("dc", 2)

    def test_not_eulerian(self):
        broken = GradedPoset.from_covers(
            2, {0: 0, 1: 1, 2: 1, 3: 2}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        with pytest.raises(NotEulerian):
            flags.cd_index(broken)

    def test_gorenstein_star_nonnegative(self, small_gorenstein):
        for name, P in small_gorenstein:
            assert all(c >= 0 for c in flags.cd_index(P).terms.values()), name


class TestNearCdIndex:
    def test_cone_over_3gon(self, polygon3):
        P = cons.with_top(polygon3)
        boundary = [e for e in P.elements() if P.rank(e) <= 2]
        nc = flags.near_cd_index(P, boundary)
        # the pyramid lemma forces the degree-3 part to vanish here
        assert nc.phi.is_zero()
        assert nc.boundary == cd("cc") + cd("d")

    def test_single_point(self):
        P = cons.single_point()
        nc = flags.near_cd_index(P, [])
        assert nc.phi == NcPoly.one("cd") and nc.boundary.is_zero()

    def test_boundary_without_bottom(self):
        B3 = cons.boolean_algebra(3)
        ball, boundary = cons.remove_upset(B3, B3.elements()[-1])
        assert flags.near_cd_index(ball, boundary - {ball.bottom}) == \
            flags.near_cd_index(ball, boundary)

    def test_interval_with_top(self):
        P = GradedPoset.from_covers(1, {0: 0, 1: 1}, [(0, 1)])
        nc = flags.near_cd_index(P, [0])
        assert nc.phi.is_zero() and nc.boundary == NcPoly.one("cd")

    def test_memo_hit_equals_cd_contract(self, boolean4):
        """Both parts of every `remove_upset` ball of B4 are the fresh
        contractions of Psi - Psi_boundary * a and Psi_boundary; every memo
        entry is the fresh contraction of its key, and a second call
        returns the memo's objects."""
        for nu in boolean4.elements()[1:]:
            ball, boundary = cons.remove_upset(boolean4, nu)
            nc = flags.near_cd_index(ball, boundary)
            psi_b = flags.ab_index(boundary_view(ball, boundary))
            assert nc.phi == cd_contract(flags.ab_index(ball) - psi_b * A)
            assert nc.boundary == cd_contract(psi_b)
            memo = flags.contraction_memo(ball)
            assert all(v == cd_contract(flags.ab_of(k)) for k, v in memo.items())
            again = flags.near_cd_index(ball, boundary)
            assert again.phi is nc.phi and again.boundary is nc.boundary

    def test_every_fiber_of_criterion_3_maps(self):
        """Each distinct fiber split of every subdivision and collapse map
        of the lattice corpus, read off the source's root walk, against
        the split of the fiber's own walks with fresh contractions."""
        for name, L in corpus.lattice_corpus(4):
            seen = set()
            for nu in corpus.proper_elements(L):
                for phi in (cons.subdivision_target_and_map(L, nu)[1],
                            cons.collapse_map(L, nu)):
                    closed, image = _fiber_masks(phi)
                    for s, cmask, imask, r in zip(phi.target._ids, closed, image,
                                                  phi.target._rank):
                        key = (cmask, cmask & ~imask, r)
                        if key in seen:
                            continue
                        seen.add(key)
                        fiber = SubPoset(L, cmask, L._bottom_idx, key[2])
                        bd = [L._ids[i] for i in _bits(key[1])]
                        assert flags.near_cd_index(fiber, bd) == \
                            near_cd_index_oracle(fiber, bd), (name, nu, s)

    def test_failed_split_is_never_stored(self):
        """[1, 1-hat) = {1, 3} has ab-index a, so no split of this poset is
        cd-expressible: NotExpressible on every call, nothing memoized."""
        broken = GradedPoset.from_covers(
            2, {0: 0, 1: 1, 2: 1, 3: 2}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        for boundary in ([], [0, 1], [0, 1]):
            with pytest.raises(NotExpressible):
                flags.near_cd_index(broken, boundary)
        assert not flags.contraction_memo(broken)


class TestSemisuspensionFormulas:
    cases = [
        (lambda: cons.polygon(3), 1), (lambda: cons.polygon(4), 1),
        (lambda: cons.polygon(4), 5), (lambda: cons.boolean_algebra(4), 1),
        (lambda: cons.cube_poset(3), 1),
    ]

    @pytest.mark.parametrize("build,nu", cases)
    def test_lambda_nu_formula_vs_enumeration(self, build, nu):
        L = build()
        lam = cons.lambda_nu_poset(L, nu)
        assert flags.lambda_nu_ab_formula(L, nu) == flags.ab_index(lam)

    @pytest.mark.parametrize("build,nu", cases)
    def test_star_chain_sum_vs_enumeration(self, build, nu):
        L = build()
        prime = cons.semisuspension(L, nu)
        lam = cons.lambda_nu_poset(L, nu)
        assert flags.star_chain_sum(L, nu) == \
            flags.ab_index(prime) - flags.ab_index(lam)

    @pytest.mark.parametrize("build,nu", cases)
    def test_lambda_nu_prime_cd_vs_built_poset(self, build, nu):
        L = build()
        prime = cons.semisuspension(L, nu)
        assert prime.is_eulerian()
        assert flags.lambda_nu_prime_cd(L, nu) == flags.cd_index(prime)

    @pytest.mark.parametrize("build,nu", cases)
    def test_sum_of_propositions_gives_the_theorem(self, build, nu):
        from posetlab.ncpoly import cd_contract
        L = build()
        total = flags.lambda_nu_ab_formula(L, nu) + flags.star_chain_sum(L, nu)
        assert cd_contract(total) == flags.lambda_nu_prime_cd(L, nu)

    @pytest.mark.parametrize("formula", [flags.lambda_nu_ab_formula,
                                         flags.star_chain_sum,
                                         flags.lambda_nu_prime_cd])
    def test_bottom_nu_rejected(self, formula):
        B3 = cons.boolean_algebra(3)
        with pytest.raises(NotComparable, match="strictly above the bottom"):
            formula(B3, B3.bottom)

    def test_coatom_nu(self):
        L = cons.polygon(4)
        coatom = next(e for e in L.elements() if L.rank(e) == 2)
        lam = cons.lambda_nu_poset(L, coatom)
        assert flags.lambda_nu_ab_formula(L, coatom) == flags.ab_index(lam)


def _assert_semisuspension_sums_match_oracle(L):
    """All three semisuspension formulas at every nu above the bottom of L
    against the per-pi oracle sum, or raising what the pair-scan lattice
    oracle and the literal Euler sums predict."""
    error = (NotALattice if not lattice_oracle(L)
             else NotEulerian if not eulerian_oracle(L) else None)
    for nu in corpus.proper_elements(L):
        for formula in SEMISUSPENSION_ROUTES:
            if error is None:
                assert formula(L, nu) == semisuspension_sum_oracle(L, nu, formula)
            else:
                with pytest.raises(error):
                    formula(L, nu)


def test_semisuspension_sums_against_oracle_on_corpus_and_balls():
    for L in lattices_and_balls():
        _assert_semisuspension_sums_match_oracle(L)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(graded_posets(max_rank=4, max_width=4))
def test_semisuspension_sums_against_oracle_on_random_posets(P):
    _assert_semisuspension_sums_match_oracle(P)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(eulerian_lattices())
def test_semisuspension_sums_against_oracle_on_random_eulerian_lattices(L):
    """`graded_posets` draws almost no Eulerian lattice, so the values of the
    sums are compared on polytope face lattices as well."""
    assert 2 <= L.n <= 4 and lattice_oracle(L) and eulerian_oracle(L)
    _assert_semisuspension_sums_match_oracle(L)


class TestPyrAlphaRecurrence:
    def test_rank1_interval(self, polygon3):
        e = next(e for e in polygon3.elements() if polygon3.rank(e) == 2)
        v = next(v for v in polygon3.elements()
                 if polygon3.rank(v) == 1 and polygon3.leq(v, e))
        assert flags.pyr_alpha_recurrence_check(polygon3, v, e)

    def test_rank2_interval(self, polygon3):
        e = next(e for e in polygon3.elements() if polygon3.rank(e) == 2)
        assert flags.pyr_alpha_recurrence_check(polygon3, polygon3.bottom, e)

    def test_full_interval_with_top(self, boolean4):
        for tau in boolean4.elements():
            assert flags.pyr_alpha_recurrence_check(boolean4, tau, TOP)

    def test_empty_interval_is_not_comparable(self, polygon3):
        """[tau, tau) is empty: the error names the pair, not a view."""
        for tau in polygon3.elements():
            with pytest.raises(NotComparable, match="is not strictly above"):
                flags.pyr_alpha_recurrence_check(polygon3, tau, tau)

    def test_incomparable_pair_is_not_comparable(self, polygon3):
        u, v = [e for e in polygon3.elements() if polygon3.rank(e) == 1][:2]
        with pytest.raises(NotComparable, match=f"^{u!r} is not below {v!r}$"):
            flags.pyr_alpha_recurrence_check(polygon3, u, v)


class TestProductCompat:
    def test_star_multiplicativity(self, small_gorenstein):
        small = [P for _, P in small_gorenstein if P.n <= 2]
        for P in small[:4]:
            for Q in small[:4]:
                S = cons.star_product(P, Q)
                assert flags.ab_index(S) == flags.ab_index(P) * flags.ab_index(Q)

    def test_pyramid_compat(self, small_gorenstein):
        for name, P in small_gorenstein:
            if P.n <= 2:
                assert flags.cd_index(cons.pyr_poset(P)) == \
                    pyr_op(flags.cd_index(P)), name

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_iterated_pyramids_over_polygons(self, m):
        """The cd-index of pyr^k(m-gon) by flag enumeration is
        Pyr^k(c^2 + (m - 2)d), at every rank up to 10 (up to 3,071 elements)."""
        P, want = cons.polygon(m), cd("cc") + (m - 2) * cd("d")
        while P.n < 10:
            P, want = cons.pyr_poset(P), pyr_op(want)
            assert flags.cd_index(P) == want, (m, P.n)
