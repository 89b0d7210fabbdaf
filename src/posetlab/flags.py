"""Chain enumeration: weights, ab/cd-indices and the semisuspension formulas.

The ab-index is Stanley's sum over rank sets S of {1..n} of h_S times the
ab-word with b exactly at the positions in S (Flag f-vectors and the
cd-index, Math. Z. 1994), where h_S = sum over T in S of (-1)^|S-T| f_T
and f_T counts the chains bottom < x_1 < ... < x_k with rank set T, each
weighted by `scale` at its largest element (Ehrenborg-Karu's sheaf sums).

`ab_index` counts those chains by rank set in integer bit arithmetic.
Each element x above the bottom gets one packed integer g_x with a W-bit
slot per rank set S (slot S at bit W*S, S read as a bitmask with rank r at
bit r - 1): g_bottom = 1 and g_x is the sum of g_y over y < x, shifted by
W * 2^(rank x - 1), since adding rank x to sets below it is one uniform
shift.  Then f = sum of scale(x) * g_x holds f_S in slot S.  No slot
carries into the next: a slot of g_x is at most the number c_x of chains
ending at x, a slot of f at most T = sum of scale(x) * c_x, so
W = max(T, max c_x).bit_length() bits suffice.  Subset Moebius inversion
(n * 2^n steps) of the unpacked slots gives the h_S.

Everything returns exact NcPoly values; contraction failures surface as
NotEulerian.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

from .ncpoly import (A, B, NcPoly, NotExpressible, alpha, cd_contract, power,
                     pyr_op)
from .poset import (TOP, GradedPoset, NotALattice, NotComparable, NotEulerian,
                    SubPoset, _bits, interval_view)


class InvalidChain(Exception):
    pass


@lru_cache(maxsize=None)
def _amb_pow(k):
    """(a - b)^k."""
    return power(A - B, k)


@lru_cache(maxsize=None)
def _bma_pow(k):
    """(b - a)^k."""
    return power(B - A, k)


def weight(P, chain):
    """Weight of a chain {0-hat = s0 < s1 < ... < sk}: the alternating
    product of (a-b)^(gap-1) factors joined by b's, ending with the gap to
    the virtual top."""
    if not chain or chain[0] != P.bottom:
        raise InvalidChain("chains must start at the bottom element")
    for x, y in zip(chain, chain[1:]):
        if x == y or not P.leq(x, y):
            raise InvalidChain(f"{x!r} < {y!r} fails in the chain")
    out = NcPoly.one("ab")
    for x, y in zip(chain, chain[1:]):
        out = out * _amb_pow(P.rank(y) - P.rank(x) - 1) * B
    return out * _amb_pow(P.rho_to_top(chain[-1]) - 1)


def ab_index(P, scale=None):
    """Sum of the weights of all chains of P (the singleton {0-hat}
    included); homogeneous of degree n.  With `scale`, each chain's
    weight is multiplied by scale(i) at the root index i of its largest
    element (the sheaf engine passes dim F); scale must be a nonnegative
    integer, since negative slots cannot be packed.

    Packs the weighted flag f-vector into one integer (see the module
    docstring) and inverts it over subsets into the ab-word coefficients."""
    root = P._root
    bot = P._bottom_idx
    if not (P._mask >> bot) & 1:
        raise ValueError("the view does not contain its bottom")
    mask = P._mask & root._geq[bot]
    order = list(_bits(mask))
    base, n = root._rank[bot], P.n
    if root._rank[order[-1]] - base > n:
        raise ValueError(f"the view has an element ranked above its rank {n}")
    weights = [1 if scale is None else scale(i) for i in order]
    if any(w < 0 for w in weights):
        raise ValueError("scale must be nonnegative to pack flag f-vectors")
    below = [tuple(_bits(root._leq[i] & mask & ~(1 << i))) for i in order]
    # chains from the bottom ending at each element: they bound every slot
    count = {bot: 1}
    for i, down in zip(order[1:], below[1:]):
        count[i] = sum(map(count.__getitem__, down))
    total = sum(w * count[i] for w, i in zip(weights, order))
    width = max(total, max(count.values())).bit_length()
    packed = {bot: 1}
    f = weights[0]
    for w, i, down in zip(weights[1:], order[1:], below[1:]):
        packed[i] = sum(map(packed.__getitem__, down)) << (
            width << (root._rank[i] - base - 1))
        f += w * packed[i]
    slot = (1 << width) - 1
    h = [(f >> (width * S)) & slot for S in range(1 << n)]
    for r in range(n):
        bit = 1 << r
        for S in range(1 << n):
            if S & bit:
                h[S] -= h[S ^ bit]
    return NcPoly("ab", dict(zip(_ab_words(n), h)))


@lru_cache(maxsize=None)
def _ab_words(n):
    """The ab-words of length n, the S-th with b exactly at the positions
    r (0-based) whose bit 1 << r is set in S."""
    words = [""]
    for _ in range(n):
        words = [w + "a" for w in words] + [w + "b" for w in words]
    return tuple(words)


def cd_index(P):
    """cd-index of an Eulerian poset: cd_contract(ab_index(P))."""
    if isinstance(P, GradedPoset):
        if "cd_index" in P._cache:
            return P._cache["cd_index"]
        if not P.is_eulerian():
            raise NotEulerian("cd_index needs an Eulerian poset")
    try:
        res = cd_contract(ab_index(P))
    except NotExpressible as exc:
        raise NotEulerian(str(exc)) from exc
    if isinstance(P, GradedPoset):
        P._cache["cd_index"] = res
    return res


@dataclass(frozen=True)
class NearCdIndex:
    """cd-index of a near-Gorenstein* pair: a degree-n part phi plus the
    degree-(n-1) cd-index of the boundary."""

    phi: NcPoly
    boundary: NcPoly

    @property
    def total(self):
        return self.phi + self.boundary


def near_cd_index(P, boundary_ids):
    """Split Psi_P = Phi + Psi_boundary * a and contract both parts.

    The caller certifies that (P, boundary) is genuinely near-Gorenstein*;
    a NotExpressible escape here means it was not.  A nonempty boundary
    always contains the bottom, whether or not boundary_ids names it.
    """
    boundary_ids = set(boundary_ids)
    psi = ab_index(P)
    if boundary_ids:
        root = P._root
        bmask = (root._mask_of(boundary_ids) & P._mask) | 1 << P._bottom_idx
        psi_b = ab_index(SubPoset(root, bmask, P._bottom_idx, P.n - 1))
    else:
        psi_b = NcPoly.zero("ab")
    phi_ab = psi - psi_b * A
    return NearCdIndex(cd_contract(phi_ab), cd_contract(psi_b))


def _semisuspension_sum(L, nu, index, factor):
    """Sum over nu <= pi < 1-hat of index([0, pi)) * factor(rho(pi, top)),
    for an Eulerian lattice L and nu strictly above its bottom."""
    if not L.is_lattice():
        raise NotALattice("this operation needs a lattice")
    if not L.is_eulerian():
        raise NotEulerian("this operation needs an Eulerian poset")
    ni = L._index(nu)
    if ni == L._bottom_idx:
        raise NotComparable("nu must be strictly above the bottom")
    return reduce(operator.add, (
        index(interval_view(L, L._bottom_idx, pi)) * factor(L.n + 1 - L._rank[pi])
        for pi in _bits(L._geq[ni])))


def lambda_nu_ab_formula(L, nu):
    """Closed flag formula for the ab-index of Lambda_nu: sum over
    nu <= pi < 1-hat of Psi_[0,pi) * a * (b-a)^(rho(pi,top)-1)."""
    return _semisuspension_sum(L, nu, ab_index, lambda g: A * _bma_pow(g - 1))


def _star_factor(g):
    term = _amb_pow(g - 1)
    if g % 2 == 0:
        term = term - 2 * (A * _amb_pow(g - 2))
    return term * B


def star_chain_sum(L, nu):
    """Total weight of the chains through the added semisuspension cell:
    the second summand vanishes for odd rank gaps (its 1 + (-1)^rho factor
    is zero), which also covers the formally negative exponent."""
    return _semisuspension_sum(L, nu, ab_index, _star_factor)


def lambda_nu_prime_cd(L, nu):
    """cd-index of the semisuspension via the alpha polynomials."""
    return _semisuspension_sum(L, nu, cd_index, alpha)


def pyr_alpha_recurrence_check(P, tau, pi=TOP):
    """Verify Pyr(Psi_[tau,pi)) - alpha_rho(tau,pi) =
    sum over tau < sigma < pi of alpha_rho(tau,sigma) * Pyr(Psi_[sigma,pi))
    exactly on the given interval of an Eulerian poset."""
    root = P._root
    ti = root._index(tau)
    hi = TOP if pi is TOP else root._index(pi)
    if hi is not TOP and not P.leq(tau, pi):
        raise NotComparable(f"{tau!r} is not below {pi!r}")
    whole = interval_view(P, ti, hi)
    left = pyr_op(cd_index(whole)) - alpha(whole.n + 1)
    right = NcPoly.zero("cd")
    for si in _bits(whole.mask & ~(1 << ti)):
        g = root._rank[si] - root._rank[ti]
        right = right + alpha(g) * pyr_op(cd_index(interval_view(P, si, hi)))
    return left == right
