"""Noncommutative polynomials over the alphabets {a,b} and {c,d}.

Words are plain strings over a two-letter alphabet; a polynomial is a map
word -> coefficient with zero coefficients never stored.  Degrees: a, b, c
all count 1, d counts 2.  Coefficients are exact (int, with Fraction
appearing transiently inside the alpha polynomials).

The module owns the ab-word order (`_ab_words`: b at the set bits of S in
the S-th word), so a degree-n ab-index is the array of 2^n coefficients the
flag walk makes, and `cd_contract` contracts that array through c = a+b,
d = ab+ba.  Also here: the pyramid derivation G(c) = d, G(d) = cd, the alpha
polynomials of the semisuspension formulas, and the output formats, JSON
and text.  Nothing in the library reads polynomial JSON back; the test
suite's helpers hold that reader.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache


class NotExpressible(Exception):
    """An ab-polynomial with no cd-expression (non-Eulerian data)."""


class NotHomogeneous(ValueError):
    pass


def word_degree(alphabet, word):
    if alphabet == "cd":
        return len(word) + word.count("d")
    return len(word)


def _require_alphabet(alphabet, p):
    if p.alphabet != alphabet:
        raise ValueError(
            f"expected an {alphabet}-polynomial, got a {p.alphabet}-polynomial")


def _norm_coeff(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


class NcPoly:
    """Polynomial in two non-commuting variables."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=None):
        if alphabet not in ("ab", "cd"):
            raise ValueError(f"alphabet must be 'ab' or 'cd', not {alphabet!r}")
        self.alphabet = alphabet
        clean = {}
        for word, coeff in (terms or {}).items():
            coeff = _norm_coeff(coeff)
            if coeff:
                clean[word] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet):
        return cls(alphabet, {"": 1})

    def is_zero(self):
        return not self.terms

    def coeff(self, word):
        return self.terms.get(word, 0)

    def __eq__(self, other):
        return (isinstance(other, NcPoly) and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __add__(self, other):
        _require_alphabet(self.alphabet, other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NcPoly(self.alphabet, out)

    def __neg__(self):
        return NcPoly(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NcPoly(self.alphabet, {w: c * other for w, c in self.terms.items()})
        _require_alphabet(self.alphabet, other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NcPoly(self.alphabet, out)

    def __rmul__(self, scalar):
        return self * scalar

    def sorted_terms(self):
        """(word, coeff) pairs in degree-lexicographic order."""
        return sorted(self.terms.items(),
                      key=lambda kv: (word_degree(self.alphabet, kv[0]), kv[0]))

    def __repr__(self):
        return f"NcPoly({self.alphabet!r}, {to_text(self)!r})"


def ab(word="", coeff=1):
    return NcPoly("ab", {word: coeff})


def cd(word="", coeff=1):
    return NcPoly("cd", {word: coeff})


A, B = ab("a"), ab("b")
C, D = cd("c"), cd("d")


def power(p, e):
    """p^e by repeated multiplication (1 when e <= 0)."""
    out = NcPoly.one(p.alphabet)
    for _ in range(e):
        out = out * p
    return out


def ab_expand(p):
    """Substitute c -> a+b, d -> ab+ba and expand."""
    _require_alphabet("cd", p)
    sub = {"c": (("a", 1), ("b", 1)), "d": (("ab", 1), ("ba", 1))}
    out = {}
    for word, coeff in p.terms.items():
        partial = {"": coeff}
        for letter in word:
            nxt = {}
            for w, c in partial.items():
                for tail, mult in sub[letter]:
                    nxt[w + tail] = nxt.get(w + tail, 0) + c * mult
            partial = nxt
        for w, c in partial.items():
            out[w] = out.get(w, 0) + c
    return NcPoly("ab", out)


@lru_cache(maxsize=None)
def _ab_words(n):
    """{word: S} for the ab-words of length n, the S-th with b exactly at the
    positions r (0-based) whose bit 1 << r is set in S; shared, never mutated."""
    words = [""]
    for _ in range(n):
        words = [w + "a" for w in words] + [w + "b" for w in words]
    return {w: S for S, w in enumerate(words)}


def ab_of(key):
    """The ab-polynomial with the coefficients key = (n, h)."""
    n, h = key
    return NcPoly("ab", dict(zip(_ab_words(n), h)))


def _contract(h):
    """The cd-polynomial expanding to the coefficient array h: with h = a*pa +
    b*pb, c*q + d*r forces r = b-part of pa - pb and q = pa - b*r."""
    if len(h) == 1:
        return cd("", h[0])
    pa, pb = h[0::2], h[1::2]
    if len(h) == 2:
        if pa != pb:
            raise NotExpressible(
                f"degree-1 part {pa[0]}*a + {pb[0]}*b is not a multiple of c")
        return cd("c", pa[0])
    diff = [x - y for x, y in zip(pa, pb)]
    r = diff[1::2]
    if diff[0::2] != [-x for x in r]:
        raise NotExpressible("residual is not of the form (b-a)*r")
    pa[1::2] = [x - y for x, y in zip(pa[1::2], r)]
    return C * _contract(pa) + D * _contract(r)


def cd_contract(p):
    """The unique cd-polynomial expanding to the homogeneous ab-poly p, from
    its coefficient array; NotExpressible when there is none.  The array has
    2^n entries for p of degree n, so this costs Theta(2^n) time and memory
    however few terms p has."""
    _require_alphabet("ab", p)
    n = len(next(iter(p.terms), ""))
    if any(len(w) != n for w in p.terms):
        raise NotHomogeneous("cd_contract needs a homogeneous input")
    index, h = _ab_words(n), [0] * (1 << n)
    for word, coeff in p.terms.items():
        if word not in index:
            raise ValueError(f"{word!r} is not a word over 'ab'")
        h[index[word]] = coeff
    return _contract(h)


def cd_words(n):
    """All cd-words of degree n in lexicographic order."""
    if n < 2:
        return ["c" * n] if n >= 0 else []
    return ["c" + w for w in cd_words(n - 1)] + ["d" + w for w in cd_words(n - 2)]


def derivation_G(p):
    """Leibniz extension of G(c) = d, G(d) = cd."""
    _require_alphabet("cd", p)
    image = {"c": "d", "d": "cd"}
    out = {}
    for word, coeff in p.terms.items():
        for i, letter in enumerate(word):
            w = word[:i] + image[letter] + word[i + 1:]
            out[w] = out.get(w, 0) + coeff
    return NcPoly("cd", out)


def pyr_op(p):
    """Pyramid operator Pyr(w) = w*c + G(w), applied linearly."""
    return p * C + derivation_G(p)


@lru_cache(maxsize=None)
def alpha(k):
    """The alpha_k cd-polynomial: alpha_0 = -1, then the (c^2-2d)-power
    formulas (even and odd cases).  Integer coefficients despite the 1/2.
    Built once per k and shared, so callers must not mutate the result."""
    if k < 0:
        raise ValueError("alpha needs k >= 0")
    if k == 0:
        return cd("", -1)
    base = C * C - 2 * D
    half = Fraction(1, 2)
    if k % 2 == 0:
        j = k // 2
        res = (power(base, j) + C * power(base, j - 1) * C) * (-half)
    else:
        j = k // 2
        res = (power(base, j) * C + C * power(base, j)) * half
    if any(isinstance(c, Fraction) for c in res.terms.values()):
        raise ArithmeticError(f"alpha_{k} has a non-integer coefficient")
    return res


@lru_cache(maxsize=None)
def alpha_ab_lambda(k):
    """a (b-a)^(k-1): the chain factor of `flags.lambda_nu_ab_formula`."""
    return A * power(B - A, k - 1)


@lru_cache(maxsize=None)
def alpha_ab_star(k):
    """(a-b)^(k-1) b - (1 + (-1)^k) a (a-b)^(k-2) b, whose second summand
    vanishes for odd k (so does its formally negative exponent at k = 1):
    the chain factor of `flags.star_chain_sum`."""
    term = power(A - B, k - 1)
    if k % 2 == 0:
        term = term - 2 * (A * power(A - B, k - 2))
    return term * B


def alpha_ab_form(k):
    """Closed ab-expression for alpha_k (k >= 1): the two factors above, summed."""
    if k < 1:
        raise ValueError("alpha_ab_form needs k >= 1")
    return alpha_ab_lambda(k) + alpha_ab_star(k)


def coeffwise_witness(p, q):
    """Words where p's coefficient exceeds q's (degree-lex order); p <= q
    coefficientwise exactly when there is none."""
    _require_alphabet(p.alphabet, q)
    bad = [w for w in set(p.terms) | set(q.terms) if p.coeff(w) > q.coeff(w)]
    return sorted(bad, key=lambda w: (word_degree(p.alphabet, w), w))


# -- text and JSON formats ---------------------------------------------------


def _render_word(word):
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(word[i] if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return "*".join(parts)


def to_text(p):
    """Canonical text form, degree-lex term order, e.g. 'c^2 + 4*d'."""
    if p.is_zero():
        return "0"
    chunks = []
    for word, coeff in p.sorted_terms():
        mag = abs(coeff)
        body = _render_word(word)
        if word and mag == 1:
            piece = body
        elif word:
            piece = f"{mag}*{body}"
        else:
            piece = str(mag)
        if not chunks:
            chunks.append(piece if coeff > 0 else f"-{piece}")
        else:
            chunks.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(chunks)


def to_json_dict(p):
    return {"alphabet": p.alphabet,
            "terms": [{"word": w, "coeff": str(c)} for w, c in p.sorted_terms()]}


def to_json(p, indent=None):
    return json.dumps(to_json_dict(p), indent=indent, sort_keys=True)

