"""Chain enumeration: weights, ab/cd-indices and the semisuspension formulas.

The ab-index is Stanley's sum over rank sets S of {1..n} of h_S times the
ab-word with b exactly at the positions in S (Flag f-vectors and the
cd-index, Math. Z. 1994), where h_S = sum over T in S of (-1)^|S-T| f_T
and f_T counts the chains bottom < x_1 < ... < x_k with rank set T, each
weighted by `scale` at its largest element (Ehrenborg-Karu's sheaf sums).

Flag f-vectors are counted by rank set in integer bit arithmetic, in one
packed walk (`_pack`).  Each element i gets a level l_i >= 1 and a packed
integer with a W-bit slot per set S of levels (slot S at bit W*S, level l
at bit l - 1 of S):

    acc_i = 1 + sum over j in near(i) of acc_j << (W * 2^(l_j - 1)),

since adding level l_j to sets of smaller levels is one uniform shift.  A
slot of acc_i is at most the number of chains acc_i counts, which the same
walk with W = 0 computes, so W = the bit length of the largest count (and,
in `ab_index`, of the weighted total) leaves no carry.  Subset Moebius
inversion (n * 2^n steps) of the slots gives the h_S (`_flag_h`), unpacked
by halving f with one mask and one shift, so each bit is copied once per
halving (`_unpack`).

Bottom-up (elements above the bottom, l_i = rank above the bottom, near(i)
= the elements strictly between) acc_pi is the flag f-vector of [0-hat, pi)
(`lower_intervals`); `ab_index` adds the bottom and each acc_i shifted by
its own level, weighted by scale(i).  Top-down (reverse rank order, near(x)
= the elements above x, l_x = rank gap to the virtual top) acc_x is the
flag f-vector of [x, 1-hat) (`upper_intervals`), a rank r above x at bit
n_x - r: slots keyed on gaps to the top rather than on absolute ranks keep
acc_x at 2^(n_x) slots, and one bit reversal of S re-indexes it.  So one
walk gives every lower or every upper interval's ab-index, the coproduct of
flag f-vectors (Psi is a coalgebra map: Ehrenborg-Readdy, Coproducts and
the cd-index, J. Algebraic Combin. 1998).

Each root poset caches one bottom-up walk (`_root_walk`), W the bit length
of its total chain count.  An order ideal I of the root on its bottom
holds [0-hat, i) for each member i, so acc_i is I's too and I's flag
f-vector is 1 + the sum of out_i over its members: `_ab_key` reads the
root, the fibers and boundaries of `decompose` and [0-hat, nu) so, and
`lower_intervals` of a root reads acc.  No slot carries: each counts
chains of the root, at most its total count, below 2^W.  Every other view
(upper intervals, intervals off the bottom, scaled sums, non-ideals) walks
itself.

An interval's index is read as the key (n, h), h in `ncpoly._ab_words(n)`
order, and `cd_of` contracts each key once per memo.  The memo lives in the
`_cache` of the poset being swept (`decompose` uses its source's, next to
the fiber-Phi cache), so it lasts exactly as long as the maps or intervals
whose keys repeat; a process-wide memo would outlive them.
`cd_index` contracts its poset's key through the memo of the poset's root,
and `near_cd_index` both parts of its split, so the fibers of one source
share them.  Only successes are stored, so a key that is not
cd-expressible raises NotEulerian (NotExpressible in `near_cd_index`) on
every call.

Everything returns exact NcPoly values; contraction failures surface as
NotEulerian.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce

from .ncpoly import (A, B, NcPoly, NotExpressible, ab_of, alpha, cd_contract,
                     power, pyr_op)
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


def _pack(order, near, level, width):
    """One packed walk (see the module docstring): for each i in `order`,
    acc_i = 1 + the sum of out_j over j in near(i), where near is aligned
    with `order` and lists indices earlier in it, and out_i = acc_i <<
    (width << (level[i] - 1)).  Returns (acc, out); with width 0 every
    shift is 0 and acc_i counts the chains it packs."""
    acc, out = {}, {}
    for i, down in zip(order, near):
        a = acc[i] = 1 + sum(map(out.__getitem__, down))
        out[i] = a << (width << (level[i] - 1))
    return acc, out


def _members(P):
    """The mask of the view P's elements above its bottom, after checking
    that P contains its bottom and nothing ranked above its rank n."""
    root, bot, n = P._root, P._bottom_idx, P.n
    if not (P._mask >> bot) & 1:
        raise ValueError("the view does not contain its bottom")
    members = P._mask & root._geq[bot]
    if root._rank[members.bit_length() - 1] - root._rank[bot] > n:
        raise ValueError(f"the view has an element ranked above its rank {n}")
    return members


def _plan(root, bot, members, n, top_down):
    """(order, near, level) of the bottom-up or top-down walk over `members`
    of `root` above `bot`, with the virtual top n + 1 ranks above bot."""
    base = root._rank[bot]
    if top_down:
        order = list(_bits(members))[::-1]
        rel = root._geq
        level = {i: n + 1 + base - root._rank[i] for i in order}
    else:
        members &= ~(1 << bot)
        order = list(_bits(members))
        rel = root._leq
        level = {i: root._rank[i] - base for i in order}
    near = [tuple(_bits(rel[i] & members & ~(1 << i))) for i in order]
    return order, near, level


def _root_walk(root):
    """(width, acc, out) of the root poset's one bottom-up walk, cached."""
    walk = root._cache.get("flag_walk")
    if walk is None:
        plan = _plan(root, root._bottom, root._geq[root._bottom], root.n, False)
        count, _ = _pack(*plan, 0)
        width = (1 + sum(count.values())).bit_length()
        walk = root._cache["flag_walk"] = (width, *_pack(*plan, width))
    return walk


def _unpack(f, width, slots):
    """The `slots` (a power of two) width-bit slots of f, lowest first, by
    halving f down to 64 slots (see the module docstring)."""
    if slots <= 64:
        mask = (1 << width) - 1
        return [(f >> (width * S)) & mask for S in range(slots)]
    half = slots >> 1
    shift = width * half
    return (_unpack(f & ((1 << shift) - 1), width, half)
            + _unpack(f >> shift, width, half))


def _flag_h(f, width, n):
    """The h_S, S < 2^n, of the flag f-vector packed in f (slot S at bit
    width * S): unpack, then invert over subsets."""
    h = _unpack(f, width, 1 << n)
    for r in range(n):
        bit = 1 << r
        for S in range(1 << n):
            if S & bit:
                h[S] -= h[S ^ bit]
    return h


def ab_index(P, scale=None):
    """Sum of the weights of all chains of P (the singleton {0-hat}
    included); homogeneous of degree n.  With `scale`, each chain's
    weight is multiplied by scale(i) at the root index i of its largest
    element (the sheaf engine passes dim F); scale must be a nonnegative
    integer, since negative slots cannot be packed."""
    return ab_of(_ab_key(P, scale))


def _ab_key(P, scale=None):
    """The key (n, h) of `ab_index(P, scale)`, h in ncpoly's word order:
    read off the root's walk when P is an order ideal on the root's bottom
    and unscaled (see the module docstring), else from P's own walk."""
    members = _members(P)
    root, bot = P._root, P._bottom_idx
    if scale is None and bot == root._bottom:
        width, _, out = _root_walk(root)
        inner = list(_bits(members & ~(1 << bot)))
        down = reduce(operator.or_, map(root._leq.__getitem__, inner), 0)
        if not down & root._geq[bot] & ~P._mask:
            f = 1 + sum(map(out.__getitem__, inner))
            return P.n, tuple(_flag_h(f, width, P.n))
    order, near, level = _plan(root, bot, members, P.n, False)
    w_bot = 1 if scale is None else scale(bot)
    weights = [1 if scale is None else scale(i) for i in order]
    if w_bot < 0 or any(w < 0 for w in weights):
        raise ValueError("scale must be nonnegative to pack flag f-vectors")
    count, _ = _pack(order, near, level, 0)
    total = w_bot + sum(w * count[i] for w, i in zip(weights, order))
    width = max(total, max(count.values(), default=0)).bit_length()
    _, out = _pack(order, near, level, width)
    f = w_bot + sum(w * out[i] for w, i in zip(weights, order))
    return P.n, tuple(_flag_h(f, width, P.n))


def _intervals(P, top_down, among):
    """{i: (n_i, h)} for each i of the walk that is in the mask `among`:
    [0-hat, i) bottom-up, [i, 1-hat) top-down, h in ncpoly's word order.
    A root's bottom-up walk is its cached one."""
    members = _members(P)
    if P is P._root and not top_down:
        width, acc, _ = _root_walk(P)
        level = P._rank
    else:
        order, near, level = _plan(P._root, P._bottom_idx, members, P.n, top_down)
        count, _ = _pack(order, near, level, 0)
        width = max(count.values(), default=0).bit_length()
        acc, _ = _pack(order, near, level, width)
    keys = {}
    for i in _bits(among):
        if i in acc:
            n = level[i] - 1
            h = _flag_h(acc[i], width, n)
            keys[i] = (n, tuple(map(h.__getitem__, _reversal(n))) if top_down
                       else tuple(h))
    return keys


def upper_intervals(P, among):
    """{x: (n, h)} for each element x of the view P in the root-index mask
    `among`: the rank n and the ab-index coefficients h of [x, 1-hat),
    from one top-down walk."""
    return _intervals(P, True, among)


def lower_intervals(P, among):
    """{pi: (n, h)} for each element pi above the bottom of the view P in
    the root-index mask `among`: the rank n and the ab-index coefficients
    h of [0-hat, pi), from one bottom-up walk."""
    return _intervals(P, False, among)


@lru_cache(maxsize=None)
def _reversal(n):
    """For each S < 2^n, S with its n bits in reverse order."""
    rev = [0] * (1 << n)
    for S in range(1, 1 << n):
        rev[S] = rev[S >> 1] >> 1 | (S & 1) << (n - 1)
    return tuple(rev)


def contraction_memo(P):
    """The memo `cd_of` keeps for P's root poset."""
    return P._root._cache.setdefault("cd_contract", {})


def _contraction(key, memo):
    """cd_contract of the ab-index key = (n, h), once per memo: only
    successes are stored, so NotExpressible is raised on every call."""
    res = memo.get(key)
    if res is None:
        res = memo[key] = cd_contract(ab_of(key))
    return res


def cd_of(key, memo):
    """The cd-index of the ab-index key = (n, h), contracted once per memo:
    only successes are stored, so NotEulerian is raised on every call."""
    try:
        return _contraction(key, memo)
    except NotExpressible as exc:
        raise NotEulerian(str(exc)) from exc


def cd_index(P):
    """cd-index of an Eulerian poset: cd_contract(ab_index(P)), through
    `cd_of` and the contraction memo of P's root."""
    if isinstance(P, GradedPoset):
        if "cd_index" in P._cache:
            return P._cache["cd_index"]
        if not P.is_eulerian():
            raise NotEulerian("cd_index needs an Eulerian poset")
    res = cd_of(_ab_key(P), contraction_memo(P))
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
    """Split Psi_P = Phi + Psi_boundary * a and contract both parts, each
    once per key through P's `contraction_memo`: the fibers of the maps
    `decompose` checks repeat a few splits many times.

    The caller certifies that (P, boundary) is genuinely near-Gorenstein*;
    a NotExpressible escape here means it was not.  A nonempty boundary
    always contains the bottom, whether or not boundary_ids names it.
    """
    boundary_ids = set(boundary_ids)
    n, h = _ab_key(P)
    if boundary_ids:
        root = P._root
        bmask = (root._mask_of(boundary_ids) & P._mask) | 1 << P._bottom_idx
        _, hb = _ab_key(SubPoset(root, bmask, P._bottom_idx, n - 1))
    else:
        hb = (0,) * (1 << max(n - 1, 0))
    # the words of psi_b * a are the first len(hb) words of degree n
    phi = tuple(c - cb for c, cb in zip(h, hb)) + h[len(hb):]
    memo = contraction_memo(P)
    return NearCdIndex(_contraction((n, phi), memo), _contraction((n - 1, hb), memo))


def _semisuspension_sum(L, nu, index, factor):
    """Sum over nu <= pi < 1-hat of index([0, pi)) * factor(rho(pi, top)),
    for an Eulerian lattice L and nu strictly above its bottom; index maps
    an interval key (n, h) to its index, and the keys come from one
    bottom-up walk that inverts only the pi >= nu.  The key fixes the rank
    gap rho(pi, top) = L.n - n, so each distinct key is one product, times
    the number of pi that share it."""
    if not L.is_lattice():
        raise NotALattice("this operation needs a lattice")
    if not L.is_eulerian():
        raise NotEulerian("this operation needs an Eulerian poset")
    ni = L._index(nu)
    if ni == L._bottom_idx:
        raise NotComparable("nu must be strictly above the bottom")
    keys = Counter(lower_intervals(L, L._geq[ni]).values())
    return reduce(operator.add, (index(key) * factor(L.n - key[0]) * count
                                 for key, count in keys.items()))


def lambda_nu_ab_formula(L, nu):
    """Closed flag formula for the ab-index of Lambda_nu: sum over
    nu <= pi < 1-hat of Psi_[0,pi) * a * (b-a)^(rho(pi,top)-1)."""
    return _semisuspension_sum(L, nu, ab_of, lambda g: A * _bma_pow(g - 1))


def _star_factor(g):
    term = _amb_pow(g - 1)
    if g % 2 == 0:
        term = term - 2 * (A * _amb_pow(g - 2))
    return term * B


def star_chain_sum(L, nu):
    """Total weight of the chains through the added semisuspension cell:
    the second summand vanishes for odd rank gaps (its 1 + (-1)^rho factor
    is zero), which also covers the formally negative exponent."""
    return _semisuspension_sum(L, nu, ab_of, _star_factor)


def lambda_nu_prime_cd(L, nu):
    """cd-index of the semisuspension via the alpha polynomials."""
    memo = contraction_memo(L)
    return _semisuspension_sum(L, nu, lambda key: cd_of(key, memo), alpha)


def pyr_alpha_recurrence_check(P, tau, pi=TOP):
    """Verify Pyr(Psi_[tau,pi)) - alpha_rho(tau,pi) =
    sum over tau < sigma < pi of alpha_rho(tau,sigma) * Pyr(Psi_[sigma,pi))
    exactly on the given interval of an Eulerian poset; every [sigma, pi)
    is read from one top-down walk of [tau, pi)."""
    root = P._root
    ti = root._index(tau)
    hi = TOP if pi is TOP else root._index(pi)
    if hi is not TOP and not P.leq(tau, pi):
        raise NotComparable(f"{tau!r} is not below {pi!r}")
    whole = interval_view(P, ti, hi)
    memo = contraction_memo(P)
    upper = upper_intervals(whole, whole._mask)
    left = pyr_op(cd_of(upper.pop(ti), memo)) - alpha(whole.n + 1)
    right = NcPoly.zero("cd")
    for si, key in upper.items():
        g = root._rank[si] - root._rank[ti]
        right = right + alpha(g) * pyr_op(cd_of(key, memo))
    return left == right
