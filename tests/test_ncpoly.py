import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cd_contract_oracle, cd_split_with_a, homogeneous_degree
from posetlab import constructions as cons
from posetlab import corpus, flags
from posetlab.ncpoly import (A, B, C, D, NcPoly, NotExpressible,
                             NotHomogeneous, ab, ab_expand, alpha,
                             alpha_ab_form, cd, cd_contract, cd_words,
                             coeffwise_witness, derivation_G,
                             from_json, from_json_dict, pyr_op,
                             to_json, to_text)


def cd_polys(max_degree=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_degree))
        words = cd_words(n)
        coeffs = draw(st.lists(st.integers(-9, 9),
                               min_size=len(words), max_size=len(words)))
        return NcPoly("cd", dict(zip(words, coeffs)))

    return build()


class TestMul:
    def test_cc(self):
        assert C * C == cd("cc")

    def test_a_minus_b_times_b(self):
        assert (A - B) * B == ab("ab") - ab("bb")

    def test_mixed(self):
        assert (cd("cc") + D) * C == cd("ccc") + cd("dc")

    def test_degrees_add(self):
        p, q = cd("cd", 2), cd("dc", 3)
        assert homogeneous_degree(p * q, "the product") == \
            homogeneous_degree(p, "p") + homogeneous_degree(q, "q")


class TestAbExpand:
    def test_c(self):
        assert ab_expand(C) == A + B

    def test_d(self):
        assert ab_expand(D) == ab("ab") + ab("ba")

    def test_cc(self):
        assert ab_expand(cd("cc")) == ab("aa") + ab("ab") + ab("ba") + ab("bb")

    @settings(max_examples=30, deadline=None)
    @given(cd_polys(4), cd_polys(4))
    def test_ring_map(self, p, q):
        assert ab_expand(p * q) == ab_expand(p) * ab_expand(q)


class TestCdContract:
    def test_c(self):
        assert cd_contract(A + B) == C

    def test_cc(self):
        assert cd_contract(ab("aa") + ab("ab") + ab("ba") + ab("bb")) == cd("cc")

    def test_bare_a_not_expressible(self):
        with pytest.raises(NotExpressible):
            cd_contract(A)

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            cd_contract(A + ab("aa"))

    @settings(max_examples=60, deadline=None)
    @given(cd_polys())
    def test_round_trip(self, p):
        assert cd_contract(ab_expand(p)) == p

    def test_letter_outside_alphabet(self):
        with pytest.raises(ValueError, match="'x'"):
            cd_contract(NcPoly("ab", {"x": 1, "a": 1}))

    def test_zero(self):
        assert cd_contract(NcPoly.zero("ab")).is_zero()


def ab_words(n):
    return st.lists(st.sampled_from("ab"), min_size=n, max_size=n).map("".join)


@st.composite
def homogeneous_ab_polys(draw, max_degree=10):
    """Sparse homogeneous ab-polynomials: mostly not cd-expressible."""
    n = draw(st.integers(0, max_degree))
    return NcPoly("ab", draw(st.dictionaries(ab_words(n), st.integers(-3, 3),
                                             max_size=12)))


@st.composite
def perturbed_expansions(draw, max_degree=10):
    """ab_expand of a cd-polynomial, half the time with one coefficient
    changed, so contraction can fail at any depth."""
    n = draw(st.integers(0, max_degree))
    words = cd_words(n)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(words), max_size=len(words)))
    p = ab_expand(NcPoly("cd", dict(zip(words, coeffs))))
    if draw(st.booleans()):
        p = p + ab(draw(ab_words(n)), draw(st.integers(-2, 2)))
    return p


def contraction_outcome(contract, p):
    """contract(p), or the type and message of what it raised."""
    try:
        return contract(p)
    except (NotExpressible, NotHomogeneous) as exc:
        return type(exc), str(exc)


class TestCdContractOracle:
    """`cd_contract` on the coefficient array agrees with the NcPoly
    recursion: the same polynomial, or the same exception and message."""

    @settings(max_examples=200, deadline=None)
    @given(homogeneous_ab_polys())
    def test_random_homogeneous(self, p):
        assert contraction_outcome(cd_contract, p) == \
            contraction_outcome(cd_contract_oracle, p)

    @settings(max_examples=100, deadline=None)
    @given(perturbed_expansions())
    def test_expansions(self, p):
        assert contraction_outcome(cd_contract, p) == \
            contraction_outcome(cd_contract_oracle, p)

    @pytest.mark.parametrize("p", [
        A + ab("aa"),
        ab_expand(cd("cd") + D) * Fraction(1, 3) + ab("aab", Fraction(1, 2)),
        # c*q + d*r, q failing at degree 1 and r by its residual: q comes first
        (A + B) * (A + B) * (A + B) * A + ab_expand(D) * ab("aa"),
    ])
    def test_examples(self, p):
        assert contraction_outcome(cd_contract, p) == \
            contraction_outcome(cd_contract_oracle, p)

    def test_gorenstein_interval_keys(self):
        """Every key that `upper_intervals` and `lower_intervals` hand the
        contraction memos over the Gorenstein* corpus."""
        keys = set()
        for _, P in corpus.gorenstein_corpus(4):
            keys.update(flags.upper_intervals(P, P._mask).values())
            keys.update(flags.lower_intervals(P, P._mask).values())
        assert keys
        for key in keys:
            p = flags.ab_of(key)
            assert cd_contract(p) == cd_contract_oracle(p)


class TestAlphabetChecks:
    """Exceptions, not asserts, so the checks also hold under python -O."""

    def test_unknown_alphabet(self):
        with pytest.raises(ValueError):
            NcPoly("xy", {"x": 1})

    def test_mixed_sum(self):
        with pytest.raises(ValueError):
            A + C

    def test_mixed_product(self):
        with pytest.raises(ValueError):
            A * C

    def test_contract_of_cd_polynomial(self):
        with pytest.raises(ValueError):
            cd_contract(C)


class TestDerivationG:
    def test_generators(self):
        assert derivation_G(C) == D
        assert derivation_G(D) == cd("cd")

    def test_cc(self):
        assert derivation_G(cd("cc")) == cd("dc") + cd("cd")

    @settings(max_examples=30, deadline=None)
    @given(cd_polys(4), cd_polys(4))
    def test_leibniz(self, p, q):
        assert derivation_G(p * q) == derivation_G(p) * q + p * derivation_G(q)


class TestPyrOp:
    def test_one(self):
        assert pyr_op(NcPoly.one("cd")) == C

    def test_c(self):
        assert pyr_op(C) == cd("cc") + D

    def test_triangle_to_tetrahedron(self):
        assert pyr_op(cd("cc") + D) == cd("ccc") + 2 * cd("cd") + 2 * cd("dc")


class TestAlpha:
    def test_alpha_0(self):
        assert alpha(0) == cd("", -1)

    def test_alpha_1(self):
        assert alpha(1) == C

    def test_alpha_2(self):
        assert alpha(2) == -cd("cc") + D

    def test_alpha_3(self):
        assert alpha(3) == cd("ccc") - cd("cd") - cd("dc")

    @pytest.mark.parametrize("k", range(13))
    def test_integer_coefficients(self, k):
        assert all(isinstance(v, int) for v in alpha(k).terms.values())

    def test_ab_form_base(self):
        assert alpha_ab_form(1) == A + B

    @pytest.mark.parametrize("k", range(1, 9))
    def test_ab_form_matches_expansion(self, k):
        assert alpha_ab_form(k) == ab_expand(alpha(k))

    def test_shared_alphas_stay_unchanged_by_their_users(self):
        """alpha(k) is built once and shared, and NcPoly is mutable: after
        criterion 5 and the flag formulas have used the shared values (the
        whole suite runs them earlier too), each still equals a fresh
        uncached build."""
        assert alpha(5) is alpha(5)
        passed, detail = corpus.criterion_5_flag_formulas(max_rank=3)
        assert passed, detail
        L = cons.boolean_algebra(4)
        for nu in corpus.proper_elements(L):
            flags.lambda_nu_prime_cd(L, nu)
            flags.pyr_alpha_recurrence_check(L, nu)
        for k in range(9):
            assert alpha(k) == alpha.__wrapped__(k)


class TestCoeffwise:
    def test_hexagon_bound(self):
        assert coeffwise_witness(cd("cc") + D, cd("cc") + 4 * D) == []

    def test_2gon_failure(self):
        assert coeffwise_witness(cd("cc") + D, cd("cc")) == ["d"]

    def test_alphabets_must_match(self):
        with pytest.raises(ValueError):
            coeffwise_witness(cd("cc"), ab("aa"))

    @settings(max_examples=30, deadline=None)
    @given(cd_polys(5))
    def test_reflexive(self, p):
        assert coeffwise_witness(p, p) == []


class TestSplitWithA:
    def test_pure_cd(self):
        f, g = cd_split_with_a(ab_expand(cd("cc") + 3 * D))
        assert f == cd("cc") + 3 * D and g.is_zero()

    def test_with_a_part(self):
        p = ab_expand(D) + ab_expand(C) * A
        f, g = cd_split_with_a(p)
        assert f == D and g == C

    def test_not_expressible(self):
        with pytest.raises(NotExpressible):
            cd_split_with_a(ab("ab") - ab("ba"))


class TestFormats:
    def test_render(self):
        assert to_text(cd("cc") + 4 * D) == "c^2 + 4*d"
        assert to_text(cd("ccd", 2) - cd("dc")) == "-d*c + 2*c^2*d"
        assert to_text(cd("ccc") + 2 * cd("cd") + 2 * cd("dc")) == \
            "c^3 + 2*c*d + 2*d*c"
        assert to_text(NcPoly.zero("cd")) == "0"
        assert to_text(-ab("ab") + ab("bb")) == "-a*b + b^2"

    @settings(max_examples=40, deadline=None)
    @given(cd_polys(6))
    def test_json_round_trip(self, p):
        assert from_json(to_json(p)) == p

    def test_fraction_coefficients_in_json(self):
        p = NcPoly("cd", {"c": Fraction(1, 2)})
        assert from_json(to_json(p)) == p

    def test_integer_coefficients_in_json(self):
        doc = {"alphabet": "cd", "terms": [{"word": "cc", "coeff": 2}]}
        assert from_json_dict(doc) == cd("cc", 2)

    @pytest.mark.parametrize("doc", [
        {"alphabet": "ab", "terms": [{"word": "x", "coeff": "1"}]},
        {"alphabet": "cd", "terms": [{"word": "ab", "coeff": "1"}]},
        {"alphabet": "ab", "terms": [{"word": 3, "coeff": "1"}]},
        {"alphabet": "ab", "terms": [{"word": "a", "coeff": "1"},
                                     {"word": "a", "coeff": "2"}]},
        {"alphabet": "xy", "terms": []},
        {"alphabet": ["a", "b"], "terms": [{"word": "a", "coeff": "1"}]},
        {"alphabet": "ab"},
        {"terms": []},
        {"alphabet": "ab", "terms": [{"word": "a"}]},
        {"alphabet": "ab", "terms": ["a"]},
        {"alphabet": "ab", "terms": 5},
        {"alphabet": "ab", "terms": [{"word": "a", "coeff": "one"}]},
        {"alphabet": "ab", "terms": [{"word": "a", "coeff": "1/0"}]},
        {"alphabet": "ab", "terms": [{"word": "a", "coeff": 1.5}]},
        {"alphabet": "ab", "terms": [{"word": "a", "coeff": None}]},
        {"alphabet": "ab", "terms": [{"word": "a", "coeff": True}]},
        ["ab"],
        None,
    ])
    def test_malformed_json_rejected(self, doc):
        with pytest.raises(ValueError):
            from_json_dict(doc)


def test_acceptance_scale_round_trip():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(0, 8)
        p = NcPoly("cd", {w: rng.randint(-9, 9) for w in cd_words(n)})
        assert cd_contract(ab_expand(p)) == p
