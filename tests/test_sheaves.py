import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import (ab_index_oracle, all_chains, cellular_complex,
                     cellular_complex_oracle, certificate_and_interval_routes,
                     cohomology_dims, composed_posets, eager_kernel_sheaf_oracle,
                     fraction_alpha_oracle, is_gorenstein_sheaf,
                     order_complex_simplicial, pullback, reduced_homology,
                     relabelled, sheaf_cd_split, simplicial_cellular_complex,
                     torus_face_poset, uncertified_copy, up_set,
                     wedge_at_bottom, weight, zero_sheaf)
from posetlab import constructions as cons
from posetlab import flags
from posetlab import homology as hm
from posetlab import sheaves as sh
from posetlab.corpus import gorenstein_corpus, lattice_corpus
from posetlab.linalg import sparse_rank
from posetlab.ncpoly import cd, cd_words
from posetlab.poset import GradedPoset, UnknownElement, _bits, from_json, to_json


class TestConstantSheaf:
    def test_full_support(self, polygon3):
        F = sh.constant_sheaf(polygon3)
        assert all(F.dim(e) == 1 for e in polygon3.elements())
        assert F.validate()

    def test_lower_interval_support(self, polygon3):
        e = next(e for e in polygon3.elements() if polygon3.rank(e) == 2)
        supp = [x for x in polygon3.elements()
                if polygon3.leq(x, e) and x != e]
        F = sh.constant_sheaf(polygon3, supp)
        assert sum(F.stalk_dim) == len(supp)

    def test_single_maximal_support(self, polygon3):
        e = polygon3.maximal_elements()[0]
        F = sh.constant_sheaf(polygon3, [e])
        assert F.dim(e) == 1

    def test_bad_support(self, polygon3):
        e = polygon3.maximal_elements()[0]
        with pytest.raises(sh.BadSupport):
            sh.constant_sheaf(polygon3, [polygon3.bottom, e])

    def test_unknown_support_element(self, polygon3):
        with pytest.raises(UnknownElement):
            sh.constant_sheaf(polygon3, [polygon3.bottom, 99])

    def test_interval_closed_check_against_pairwise_oracle(self):
        # every support on the square: BadSupport names the first element
        # outside it with support elements both below and above
        P = cons.polygon(4)
        elems = P.elements()
        for bits in range(1 << len(elems)):
            supp = [e for k, e in enumerate(elems) if bits >> k & 1]
            between = [x for x in elems if x not in supp
                       and any(P.leq(t, x) for t in supp)
                       and any(P.leq(x, t) for t in supp)]
            if between:
                with pytest.raises(sh.BadSupport,
                                   match=f"^{between[0]!r} lies between support elements$"):
                    sh.constant_sheaf(P, supp)
            else:
                assert sum(sh.constant_sheaf(P, supp).stalk_dim) == len(supp)


def two_edges():
    """Two edges on separate vertices: each edge covers a single vertex, so
    the base has no orientation."""
    return GradedPoset.from_covers(
        2, {0: 0, 1: 1, 2: 1, 3: 2, 4: 2}, [(0, 1), (0, 2), (1, 3), (2, 4)])


def two_triangles():
    """Two triangles sharing only the bottom: every lower interval is a
    sphere, and the complex is two circles, so it is not Cohen-Macaulay."""
    return wedge_at_bottom(cons.polygon(3), cons.polygon(3))


class TestPullback:
    """The order-complex pullback of the test oracle."""

    def test_constant_pulls_back_to_constant(self, polygon3):
        pf = pullback(sh.constant_sheaf(polygon3))
        assert all(d == 1 for d in pf.stalk_dim)

    def test_edge_support_pulls_back_to_chains_through_it(self, polygon3):
        e = polygon3.maximal_elements()[0]
        F = sh.constant_sheaf(polygon3, [e])
        pf = pullback(F)
        oc = pf.base
        for i, x in enumerate(oc.elements()):
            chain = oc.provenance[x]
            want = 1 if (chain and chain[-1] == e) else 0
            assert pf.dim(i) == want

    def test_stalk_dims_preserved_along_fibers(self, boolean4):
        F = sh.constant_sheaf(boolean4)
        pf = pullback(F)
        oc = pf.base
        for i, x in enumerate(oc.elements()):
            chain = oc.provenance[x]
            top = chain[-1] if chain else boolean4.bottom
            assert pf.dim(i) == F.dim(boolean4._index(top))


class TestCellularComplex:
    def test_cohomology_matches_reduced_homology(self, polygon3):
        # H^i of the cellular complex is reduced homology in degree n-i-1,
        # on the poset itself and on the oracle's order complex
        F = sh.constant_sheaf(polygon3)
        betti = reduced_homology(order_complex_simplicial(polygon3))
        n = polygon3.n
        for cc in (cellular_complex(F),
                   simplicial_cellular_complex(pullback(F))):
            dims = cohomology_dims(cc)
            for i, d in enumerate(dims):
                assert d == betti.get(n - i - 1, 0), i

    def test_zero_sheaf_gives_zero_complex(self, polygon3):
        F = zero_sheaf(polygon3)
        for cc in (cellular_complex(F),
                   simplicial_cellular_complex(pullback(F))):
            assert not any(cc.coords)

    def test_gorenstein_link_has_one_dimensional_h0(self, polygon3):
        F = sh.constant_sheaf(polygon3)
        pf = pullback(F)
        oc = pf.base
        v = next(e for e in oc.elements() if oc.rank(e) == 1)
        w = oc.provenance[v][0]
        for cc in (cellular_complex(F, up_set(polygon3, w)),
                   simplicial_cellular_complex(pf, up_set(oc, v))):
            dims = cohomology_dims(cc)
            assert dims[0] == 1 and all(d == 0 for d in dims[1:])

    def test_d_squared_validated(self):
        P = cons.polygon(3)
        F = sh.constant_sheaf(P)
        cellular_complex(F)  # raises on failure
        simplicial_cellular_complex(pullback(F))
        eps = sh._orientation(P)
        eps[min(eps)] *= -1  # one flipped sign breaks d o d = 0
        # F keeps the complex it built; a new sheaf reads the flipped sign
        with pytest.raises(ValueError):
            cellular_complex(sh.constant_sheaf(P))

    def test_poset_base_rejected(self):
        # a poset base needs an orientation; two edges on separate
        # vertices have none, and the error names the first element
        with pytest.raises(sh.BadBase, match="below 3"):
            cellular_complex(sh.constant_sheaf(two_edges()))

    def test_orientable_non_sphere_rejected(self):
        # the cone over a torus has a +-1 top cycle below its apex, but the
        # apex is no cell: its lower interval is not Gorenstein*
        P = cons.with_top(torus_face_poset())
        apex = P.maximal_elements()[0]
        with pytest.raises(sh.BadBase, match=f"below {apex}"):
            sh.is_cm_sheaf(sh.constant_sheaf(P))


def _upset_cohomology(cc):
    dims = cohomology_dims(cc)
    return dims[0] if dims else 0, not any(dims[1:])


def _oracle_cases():
    """gorenstein_corpus(3), its cones, and one ball per lattice and rank."""
    for name, P in gorenstein_corpus(3):
        yield name, P
        yield name + " cone", cons.with_top(P)
        if P.is_lattice():
            for r in range(1, P.n + 1):
                nu = next(e for e in P.elements() if P.rank(e) == r)
                yield f"{name} without [{nu}, top)", cons.remove_upset(P, nu)[0]


def test_poset_complex_against_order_complex_oracle():
    """On every up-set [sigma, top), the cellular complex on the poset and
    the oracle's simplicial complex on the up-set of the chain {sigma} have
    the same dim H^0 and vanish above degree 0 together, for the constant
    sheaf and for the outputs of op_C and op_D."""
    for name, P in _oracle_cases():
        const = sh.constant_sheaf(P)
        sheaves = [const, sh.op_C(const)]
        if P.n >= 2:
            sheaves.append(sh.op_D(const, random.Random(0)))
        for F in sheaves:
            assert F.validate()
            base = F.base
            pf = pullback(F)
            oc = pf.base
            chain = {oc.provenance[e]: e for e in oc.elements()}
            for sigma in base.elements():
                x = chain[() if sigma == base.bottom else (sigma,)]
                got = _upset_cohomology(cellular_complex(F, up_set(base, sigma)))
                want = _upset_cohomology(simplicial_cellular_complex(pf, up_set(oc, x)))
                assert got == want, (name, base.n, sigma)


class TestCohenMacaulaySheaves:
    @pytest.mark.parametrize("make,gorenstein", [
        (lambda: cons.polygon(3), True),
        # the cone is a ball: Cohen-Macaulay, but its dual lives on the apex
        (lambda: cons.with_top(cons.polygon(3)), False),
    ], ids=["polygon3", "cone"])
    def test_constant_on_gorenstein_is_gorenstein(self, make, gorenstein):
        F = sh.constant_sheaf(make())
        assert sh.is_cm_sheaf(F)
        assert is_gorenstein_sheaf(F) == gorenstein

    def test_disconnected_not_cm(self):
        assert not sh.is_cm_sheaf(sh.constant_sheaf(two_triangles()))
        with pytest.raises(sh.BadBase):
            sh.is_cm_sheaf(sh.constant_sheaf(two_edges()))

    def test_zero_sheaf_cm(self, polygon3):
        assert sh.is_cm_sheaf(zero_sheaf(polygon3))

    def test_exactness_transfer(self):
        # 0 -> R_{ball} -> R_{square} -> R_{upset} -> 0: all supports have
        # full rank, so the three terms share one degree normalization and
        # two Cohen-Macaulay terms force the third
        L = cons.polygon(4)
        ball = [e for e in L.elements() if not L.leq(1, e)]
        upset = [e for e in L.elements() if L.leq(1, e)]
        cm = [sh.is_cm_sheaf(sh.constant_sheaf(L, sup))
              for sup in (ball, None, upset)]
        assert cm == [True, True, True]

    def test_boundary_supported_sheaf_is_cm_on_its_own_base(self, polygon3):
        # on the cone the boundary-constant sheaf sits one degree off, so
        # Cohen-Macaulayness is read on the boundary poset itself
        P = cons.with_top(polygon3)
        boundary = [e for e in P.elements() if P.rank(e) <= 2]
        on_cone = sh.constant_sheaf(P, boundary)
        assert not sh.is_cm_sheaf(on_cone)
        assert sh.is_cm_sheaf(sh.constant_sheaf(polygon3))


class TestDualSheaf:
    def test_gorenstein_dual_is_constant(self, polygon3):
        F = sh.constant_sheaf(polygon3)
        D = sh.dual_sheaf(F)
        assert all(D.dim(i) == 1 for i in range(len(polygon3)))
        assert D.validate()

    def test_near_gorenstein_dual_is_interior(self, polygon3):
        P = cons.with_top(polygon3)
        D = sh.dual_sheaf(sh.constant_sheaf(P))
        for i, e in enumerate(P.elements()):
            assert D.dim(i) == (1 if P.rank(e) == 3 else 0)

    def test_dimension_formula(self, small_gorenstein):
        for name, P in small_gorenstein:
            if len(P) > 16:
                continue
            F = sh.constant_sheaf(P)
            D = sh.dual_sheaf(F)
            for i in range(len(P)):
                assert sh.dual_dimension_formula(F, i) == D.dim(i), name

    def test_double_dual_dimensions(self, polygon3):
        P = cons.with_top(polygon3)
        F = sh.constant_sheaf(P)
        DD = sh.dual_sheaf(sh.dual_sheaf(F))
        assert DD.stalk_dim == F.stalk_dim

    def test_not_cm_rejected(self):
        with pytest.raises(sh.NotCohenMacaulay):
            sh.dual_sheaf(sh.constant_sheaf(two_triangles()))
        with pytest.raises(sh.BadBase):
            sh.dual_sheaf(sh.constant_sheaf(two_edges()))


def test_facet_duals_are_read_off_the_orientation():
    """For a top-rank s of a sphere or a cone, the dual of the constant
    sheaf on [bottom, s) in the skeleton has a one-dimensional H^0 at every
    sigma < s; its generator, scaled by its restriction to the bottom
    (normalised to lead with 1), is y -> eps(y, s) on the lower covers y of
    s above sigma, the vector op_D's alpha_f family reads instead."""
    for name, P in gorenstein_corpus(3):
        for base in (P, cons.with_top(P)):
            eps = sh._orientation(base)
            sk = sh.skeleton_poset(base, base.n - 1)
            for top in base.maximal_elements():
                s = base._index(top)
                below = sh._down_covers(base)[s]
                supp = [t for t in _bits(base._leq[s]) if t != s]
                D = sh.dual_sheaf(sh.constant_sheaf(sk, [sk._ids[t] for t in supp]))
                at_bottom = D._h0[sk._bottom][0]
                scale = Fraction(1, at_bottom[min(at_bottom)])
                for sigma in supp:
                    (gen,) = D._h0[sigma]
                    c = D.res_between(sigma, sk._bottom)[0][0] * scale
                    want = {y: eps[(y, s)] for y in below if base._leq[y] >> sigma & 1}
                    assert {y: c * v for (y, _), v in gen.items()} == want, \
                        (name, base.n, s, sigma)


class TestOpC:
    def test_skeleton_restriction(self, polygon3):
        C = sh.op_C(sh.constant_sheaf(polygon3))
        assert C.base.n == 1
        assert all(C.dim(i) == 1 for i in range(len(C.base)))

    def test_twice_gives_the_cc_coefficient(self, polygon3):
        C2 = sh.op_C(sh.op_C(sh.constant_sheaf(polygon3)))
        assert C2.dim(C2.base.bottom) == 1

    def test_zero_sheaf(self, polygon3):
        C = sh.op_C(zero_sheaf(polygon3))
        assert sum(C.stalk_dim) == 0


class TestOpD:
    def test_triangle_d_coefficient(self, polygon3):
        D = sh.op_D(sh.constant_sheaf(polygon3), random.Random(1))
        assert D.dim(D.base.bottom) == 1

    def test_2gon_d_coefficient(self, polygon2):
        D = sh.op_D(sh.constant_sheaf(polygon2), random.Random(1))
        assert D.dim(D.base.bottom) == 0

    def test_output_is_cm(self, polygon3):
        D = sh.op_D(sh.constant_sheaf(polygon3), random.Random(5))
        assert sh.is_cm_sheaf(D)

    def test_seed_stability(self, polygon3):
        dims = {sh.op_D(sh.constant_sheaf(polygon3),
                        random.Random(s)).dim(0) for s in range(100)}
        assert dims == {1}

    def test_rank_one_base_rejected(self, polygon3):
        # op_D lands on the (n-2)-skeleton, which a rank-1 base lacks
        F = sh.op_C(sh.constant_sheaf(polygon3))
        for G in (F, sh.constant_sheaf(cons.segment())):
            with pytest.raises(ValueError, match="rank >= 2"):
                sh.op_D(G, random.Random(0))

    def test_surjectivity_failure_on_rank_deficient_input(self, polygon3, monkeypatch):
        # every draw of alpha is zero, so no top-rank stalk is hit
        monkeypatch.setattr(sh, "_draw_alpha", _zero_alpha)
        with pytest.raises(sh.SurjectivityFailed):
            sh.op_D(sh.constant_sheaf(polygon3), random.Random(0))


def _zero_alpha(cf, family, rng):
    """A combination of the alpha_f with every coefficient zero."""
    return [[{} for _ in range(d)] for d in cf.stalk_dim]


def _exact_entries(F):
    """Every restriction entry of F is an int or a Fraction, never a float."""
    return all(type(v) in (int, Fraction)
               for rows in F.res.values() for row in rows for v in row.values())


def test_integer_alpha_is_as_generic_as_the_fraction_alpha():
    """Along every word's C/D chain on gorenstein_corpus(4), for three
    seeds: op_D's integer alpha takes two randint(1, 10**6) draws per
    alpha_f, as the rational draws a/b did; its entries are exact; and
    against the Fraction alpha drawn from the same random state it gives
    the same surjectivity verdict at every top cell and a kernel sheaf
    with the same stalk dimensions.  No float enters the constant, C, D
    or dual sheaves."""
    for name, P in gorenstein_corpus(4):
        if P.n < 2:
            continue
        for seed in range(3):
            for w in cd_words(P.n):
                rng = random.Random(seed)
                F = sh.constant_sheaf(P)
                for letter in reversed(w):
                    assert _exact_entries(F), (name, w)
                    if letter == "c":
                        F = sh.op_C(F)
                        continue
                    cf, cf_dual, family = sh._alpha_family(F)
                    assert _exact_entries(cf) and _exact_entries(cf_dual), (name, w)
                    old_rng, want_rng = random.Random(), random.Random()
                    old_rng.setstate(rng.getstate())
                    want_rng.setstate(rng.getstate())
                    alpha = sh._draw_alpha(cf, family, rng)
                    for _ in range(2 * len(family)):
                        want_rng.randint(1, 10 ** 6)
                    assert rng.getstate() == want_rng.getstate(), (name, w)
                    assert all(type(v) in (int, Fraction) for rows in alpha
                               for row in rows for v in row.values()), (name, w)
                    old = fraction_alpha_oracle(cf, family, old_rng)
                    tops = [tau for tau, d in enumerate(cf.stalk_dim)
                            if cf.base._rank[tau] == cf.base.n and d]
                    assert ([sparse_rank(alpha[tau]) == cf.dim(tau) for tau in tops]
                            == [sparse_rank(old[tau]) == cf.dim(tau) for tau in tops]), (name, w)
                    K = sh._kernel_sheaf(cf, cf_dual, alpha)
                    K_old = sh._kernel_sheaf(cf, cf_dual, old)
                    assert K.stalk_dim == K_old.stalk_dim, (name, w, seed)
                    F = K
                assert _exact_entries(F), (name, w)


def _assert_complexes_match_per_upset_oracle(F, where):
    """Every upper interval's complex, H^0 basis and the Cohen-Macaulay
    verdict read off F's one cochain complex equal those of the complex
    built per up-set."""
    base = F.base
    h0 = sh._dual_poset(F)._h0
    cm = True
    for x in base.elements():
        old = cellular_complex_oracle(F, up_set(base, x))
        cc = cellular_complex(F, up_set(base, x))
        assert cc == old, (where, x)
        assert cc.restrict(base._geq[base._index(x)]) == old, (where, x)
        assert h0[base._index(x)] == old.kernel_deg0(), (where, x)
        cm = cm and not any(cohomology_dims(old)[1:])
    assert sh.is_cm_sheaf(F) == cm, where


def test_sheaf_pipeline_against_first_written_routes():
    """Along every word's C/D chain on gorenstein_corpus(4), for three
    seeds, and on sheaves that are not Cohen-Macaulay: the shared cochain
    complex gives the per-up-set route's complexes, H^0 bases and
    Cohen-Macaulay verdicts, the CM flag that each C and D output carries
    is the per-up-set verdict, and each kernel sheaf's restrictions, read
    after it is built, are those the eager kernel sheaf solved for."""
    cone = cons.with_top(cons.polygon(3))
    not_cm = [sh.constant_sheaf(two_triangles()),
              sh.constant_sheaf(cone, [e for e in cone.elements() if cone.rank(e) <= 2])]
    for F in not_cm:
        assert not sh.is_cm_sheaf(F)
        _assert_complexes_match_per_upset_oracle(F, "not CM")
    for name, P in gorenstein_corpus(4):
        if P.n < 2:
            continue
        for seed in range(3):
            for w in cd_words(P.n):
                rng = random.Random(seed)
                F = sh.constant_sheaf(P)
                for k, letter in enumerate(reversed(w)):
                    # past the constant sheaf, is_cm_sheaf reads the carried flag
                    assert k == 0 or F._is_cm is True, (name, seed, w)
                    _assert_complexes_match_per_upset_oracle(F, (name, seed, w))
                    if letter == "c":
                        F = sh.op_C(F)
                        continue
                    cf, cf_dual, family = sh._alpha_family(F)
                    alpha = sh._draw_alpha(cf, family, rng)
                    F = sh._kernel_sheaf(cf, cf_dual, alpha)
                    old = eager_kernel_sheaf_oracle(cf, cf_dual, alpha)
                    assert (F.stalk_dim, F.res) == (old.stalk_dim, old.res), (name, w)
                assert F._is_cm is True, (name, seed, w)
                _assert_complexes_match_per_upset_oracle(F, (name, seed, w))


def test_tampered_alpha_raises_before_restrictions_are_read(monkeypatch):
    """An alpha_f that is no map of sheaves makes op_D raise the escape
    error from the subsheaf check alone: no coordinate is solved for."""
    F = sh.constant_sheaf(cons.cube_poset(3))
    cf, _, family = sh._alpha_family(F)
    row = next(r for r in family.at[cf.base._bottom][0][1] if r)
    row[min(row)] = 2 * row[min(row)] + 1

    def no_coordinates(*args):
        raise AssertionError("kernel coordinates were solved for")

    monkeypatch.setattr(sh, "nullspace_coords", no_coordinates)
    with pytest.raises(ArithmeticError, match="kernel restriction escaped the kernel"):
        sh.op_D(F, random.Random(0))


class TestSheafAbIndex:
    """The chain sum weighted by dim F at each chain's largest element,
    by the chain-by-chain oracle."""

    def test_constant_gives_ab_index(self, polygon3):
        F = sh.constant_sheaf(polygon3)
        assert ab_index_oracle(F.base, F.dim) == flags.ab_index(polygon3)

    def test_zero_sheaf(self, polygon3):
        F = zero_sheaf(polygon3)
        assert ab_index_oracle(F.base, F.dim).is_zero()

    def test_lower_interval_support(self, polygon3):
        from posetlab.ncpoly import NcPoly
        e = polygon3.maximal_elements()[0]
        supp = [x for x in polygon3.elements()
                if polygon3.leq(x, e) and x != e]
        F = sh.constant_sheaf(polygon3, supp)
        total = NcPoly.zero("ab")
        for chain in all_chains(polygon3):
            if chain[-1] in supp:
                total = total + weight(polygon3, chain)
        assert ab_index_oracle(F.base, F.dim) == total

    def test_split_of_near_gorenstein_constant(self, polygon3):
        P = cons.with_top(polygon3)
        f, g = sheaf_cd_split(sh.constant_sheaf(P))
        nc = flags.near_cd_index(
            P, [e for e in P.elements() if P.rank(e) <= 2])
        assert f == nc.phi and g == nc.boundary


class TestCoefficientExtraction:
    @pytest.mark.parametrize("build,word,value", [
        (lambda: cons.polygon(3), "cc", 1),
        (lambda: cons.polygon(3), "d", 1),
        (lambda: cons.polygon(2), "d", 0),
        (lambda: cons.polygon(6), "d", 4),
    ])
    def test_rank2_words(self, build, word, value):
        assert sh.cd_coefficient_via_CD(build(), word, seed=3) == value

    def test_tetrahedron(self, boolean4):
        got = {w: sh.cd_coefficient_via_CD(boolean4, w, seed=4)
               for w in cd_words(3)}
        assert got == {"ccc": 1, "cd": 2, "dc": 2}

    def test_cube_distinguishes_cd_from_dc(self):
        cube = cons.cube_poset(3)
        want = flags.cd_index(cube)
        for w in cd_words(3):
            assert sh.cd_coefficient_via_CD(cube, w, seed=1) == want.coeff(w)

    def test_degree_mismatch(self, polygon3):
        with pytest.raises(ValueError):
            sh.cd_coefficient_via_CD(polygon3, "ccc", seed=0)

    @pytest.mark.parametrize("word,letter", [("xy", "x"), ("cx", "x"), ("D", "D")])
    def test_letters_outside_cd_rejected(self, polygon3, word, letter):
        # "xy" has degree 2 if every non-d letter counts as a c
        with pytest.raises(ValueError, match=f"letter '{letter}'"):
            sh.cd_coefficient_via_CD(polygon3, word, seed=0)

    def test_full_agreement_rank3(self):
        P = cons.pyr_poset(cons.polygon(3))
        want = flags.cd_index(P)
        for w in cd_words(3):
            for s in range(5):
                assert sh.cd_coefficient_via_CD(P, w, seed=s) == want.coeff(w)

    @pytest.mark.parametrize("make", [
        lambda: cons.remove_upset(cons.polygon(6), 1),
        lambda: cons.remove_upset(cons.polygon(4), 1),
        lambda: (cons.with_top(cons.polygon(3)), None),
        lambda: cons.remove_upset(cons.boolean_algebra(4), 1),
    ])
    def test_near_gorenstein_extraction_is_nonnegative_split(self, make):
        # on a homology ball the extracted table is the degree-n part of
        # the unique split Psi = f + g*b, i.e. Phi + Psi_boundary * c: a
        # non-negative integer table that collapses to Phi exactly when the
        # boundary vanishes (the Gorenstein* case of the main theorem)
        P, bd = make()
        if bd is None:
            from posetlab.homology import derive_boundary
            bd = derive_boundary(P)
        nc = flags.near_cd_index(P, bd)
        want = nc.phi + nc.boundary * cd("c")
        for w in cd_words(P.n):
            got = sh.cd_coefficient_via_CD(P, w, seed=2)
            assert got == want.coeff(w), w
            assert got >= 0


class TestResBetween:
    def test_composition_through_zero_stalk(self, polygon3):
        e = polygon3.maximal_elements()[0]
        F = sh.constant_sheaf(polygon3, [e])
        m = F.res_between(e, polygon3.bottom)
        assert m == [[]] or all(not any(row) for row in m)

    def test_validate_rejects_noncommuting(self, polygon3):
        F = sh.constant_sheaf(polygon3)
        e = polygon3.maximal_elements()[0]
        v = next(v for v in polygon3.elements()
                 if polygon3.rank(v) == 1 and polygon3.leq(v, e))
        F.res[(e, v)] = [{0: Fraction(2)}]
        with pytest.raises(ValueError):
            F.validate()

    def test_validate_rejects_column_outside_the_stalk(self, polygon3):
        F = sh.constant_sheaf(polygon3)
        e = polygon3.maximal_elements()[0]
        v = next(v for v in polygon3.elements()
                 if polygon3.rank(v) == 1 and polygon3.leq(v, e))
        F.res[(e, v)] = [{1: Fraction(1)}]  # dim F_e is 1
        with pytest.raises(ValueError, match="wrong shape"):
            F.validate()


def test_coefficient_extraction_leaves_no_cyclic_garbage():
    """The sheaves cached on P for its words live on a copy of P, so P is
    freed by reference counting alone."""
    text = to_json(cons.boolean_algebra(4))
    gc.collect()
    gc.disable()
    try:
        P = from_json(text)
        assert sh.cd_coefficient_via_CD(P, "dc", seed=0) == 2
        assert sh.cd_coefficient_via_CD(P, "cd", seed=0) == 2
        del P
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(composed_posets(("sphere", "cone", "ball"), max_rank=3))
def test_extraction_against_flag_enumeration(drawn):
    """Every cd-word at one seed: a sphere gives its cd-index, and a cone or
    a ball gives Phi + Psi_boundary * c from the near cd-index."""
    P, boundary = drawn
    if boundary is None and hm.is_gorenstein_star(P):
        want = flags.cd_index(P)
    else:
        nc = flags.near_cd_index(P, boundary or hm.derive_boundary(P))
        want = nc.phi + nc.boundary * cd("c")
    for w in cd_words(P.n):
        assert sh.cd_coefficient_via_CD(P, w, seed=0) == want.coeff(w), w


RELABELLED = {"B4": lambda: cons.boolean_algebra(4),
              "cross3": lambda: cons.cross_polytope(3),
              "cone": lambda: cons.with_top(cons.polygon(3))}


@pytest.mark.parametrize("make", RELABELLED.values(), ids=RELABELLED.keys())
class TestRelabelledBase:
    """Sheaves are keyed by base index and take element ids only as
    supports.  On a JSON relabelling whose ids are not its indices, every
    answer agrees with the original through the id map, and the errors
    name the relabelled ids."""

    def test_ids_are_not_indices(self, make):
        for seed in range(3):
            Q, _ = relabelled(make(), random.Random(seed))
            assert Q.elements() != list(range(len(Q)))

    def test_cd_coefficients(self, make):
        P = make()
        for seed in range(3):
            Q, _ = relabelled(P, random.Random(seed))
            for w in cd_words(P.n):
                assert (sh.cd_coefficient_via_CD(Q, w, seed=seed)
                        == sh.cd_coefficient_via_CD(P, w, seed=seed)), (seed, w)

    def test_constant_sheaf_on_a_mapped_support(self, make):
        P = make()
        Q, new = relabelled(P, random.Random(0))
        for top in P.maximal_elements():
            supp = [e for e in P.elements() if P.leq(e, top)]
            F = sh.constant_sheaf(P, supp)
            G = sh.constant_sheaf(Q, [new[e] for e in supp])
            for e in P.elements():
                assert G.dim(Q._index(new[e])) == F.dim(P._index(e)), (top, e)
            assert ({(new[P._ids[hi]], new[P._ids[lo]]): m for (hi, lo), m in F.res.items()}
                    == {(Q._ids[hi], Q._ids[lo]): m for (hi, lo), m in G.res.items()})

    def test_dual_dimension_formula(self, make):
        P = make()
        Q, new = relabelled(P, random.Random(1))
        F, G = sh.constant_sheaf(P), sh.constant_sheaf(Q)
        D = sh.dual_sheaf(G)
        for e in P.elements():
            i, j = P._index(e), Q._index(new[e])
            assert sh.dual_dimension_formula(G, j) == sh.dual_dimension_formula(F, i)
            assert sh.dual_dimension_formula(G, j) == D.dim(j), e

    def test_bad_support_names_the_relabelled_id(self, make):
        # the first element between two support elements, in index order
        named = set()
        for seed in range(3):
            Q, _ = relabelled(make(), random.Random(seed))
            for top in Q.maximal_elements():
                between = [x for x in Q.elements()
                           if Q.leq(x, top) and x not in (Q.bottom, top)]
                with pytest.raises(sh.BadSupport,
                                   match=f"^{between[0]!r} lies between support elements$"):
                    sh.constant_sheaf(Q, [Q.bottom, top])
                named.add(between[0] != Q._index(between[0]))
        assert True in named

    def test_surjectivity_failure_names_the_relabelled_id(self, make, monkeypatch):
        # alpha is zero on the Cohen-Macaulay constant sheaf, and op_D
        # fails at the lowest id of rank n - 1
        monkeypatch.setattr(sh, "_draw_alpha", _zero_alpha)
        for seed in range(3):
            Q, _ = relabelled(make(), random.Random(seed))
            want = min(x for x in Q.elements() if Q.rank(x) == Q.n - 1)
            with pytest.raises(sh.SurjectivityFailed,
                               match=fr"\(last failure at {want!r}\)$"):
                sh.op_D(sh.constant_sheaf(Q), random.Random(0))


def test_bad_base_names_the_relabelled_id():
    """The cone over a torus, relabelled: BadBase names the apex by its
    new id."""
    P = cons.with_top(torus_face_poset())
    apex = P.maximal_elements()[0]
    named = set()
    for seed in range(3):
        Q, new = relabelled(P, random.Random(seed))
        with pytest.raises(sh.BadBase, match=f"^no orientation below {new[apex]!r}: "):
            sh.is_cm_sheaf(sh.constant_sheaf(Q))
        named.add(new[apex] != Q._index(new[apex]))
    assert True in named


# -- the certificate route ------------------------------------------------------


def _certified_cases():
    yield from gorenstein_corpus(4)
    yield from lattice_corpus(4)
    yield "B6", cons.boolean_algebra(6)


def test_certificate_route_equals_the_per_interval_route():
    """On a certified base the orientation skips the walks of [bottom, z)
    and the constant sheaf skips the ranks: the signs are those of the
    route that walks each [bottom, z), and the ranks also find the sheaf
    Cohen-Macaulay."""
    for name, P in _certified_cases():
        (eps, cm), (eps_intervals, cm_ranks) = certificate_and_interval_routes(P)
        assert eps == eps_intervals, name
        assert cm is cm_ranks is True, name


@pytest.mark.parametrize("make", [lambda: cons.boolean_algebra(4),
                                  lambda: cons.cube_poset(3),
                                  lambda: cons.pyr_poset(cons.cross_polytope(3))],
                         ids=["B4", "cube3", "pyr(cross3)"])
def test_one_walk_per_cold_extraction(make, monkeypatch):
    """A cold extraction on a certified base walks the base once and takes
    no rank for the constant sheaf; the route it replaces walks every
    distinct [bottom, z) and takes the ranks."""
    walks, ranks = [], []
    walk, rank = hm._certify_gorenstein, sh.sparse_rank
    monkeypatch.setattr(hm, "_certify_gorenstein", lambda *a: walks.append(a) or walk(*a))
    monkeypatch.setattr(sh, "sparse_rank", lambda rows: ranks.append(rows) or rank(rows))
    P = from_json(to_json(make()))
    sh.cd_coefficient_via_CD(P, "c" * P.n)
    assert len(walks) == 1 and not ranks
    for w in cd_words(P.n):
        sh.cd_coefficient_via_CD(P, w, seed=0)
    assert len(walks) == 1
    walks.clear()
    ranks.clear()
    assert sh.is_cm_sheaf(sh.constant_sheaf(uncertified_copy(P)))
    lower = {P._leq[z] ^ 1 << z for z in range(len(P)) if z != P._bottom}
    assert len(walks) == len(lower) and ranks


@pytest.mark.parametrize("make,want", [
    (lambda: cons.remove_upset(cons.boolean_algebra(4), 1)[0],
     {"ccc": 1, "cd": 0, "dc": 1}),
    (lambda: sh.skeleton_poset(cons.cross_polytope(4), 2), {"cc": 1, "d": 6}),
], ids=["ball", "cross4 2-skeleton"])
def test_uncertified_bases_keep_their_coefficients(make, want):
    """A ball and a skeleton are no Gorenstein* posets: their constant
    sheaves take the per-interval orientation and the ranks, and their
    coefficients are pinned for seeds 0-2."""
    P = make()
    assert not hm.is_gorenstein_star(P)
    for seed in range(3):
        assert {w: sh.cd_coefficient_via_CD(P, w, seed=seed) for w in cd_words(P.n)} == want
