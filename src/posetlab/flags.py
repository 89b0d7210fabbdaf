"""Chain enumeration: ab/cd-indices and the semisuspension formulas.

The ab-index is Stanley's sum over rank sets S of {1..n} of h_S times the
ab-word with b exactly at the positions in S (Flag f-vectors and the
cd-index, Math. Z. 1994), where h_S = sum over T in S of (-1)^|S-T| f_T
and f_T counts the chains bottom < x_1 < ... < x_k with rank set T.

Flag f-vectors are counted by rank set in integer bit arithmetic, in one
packed walk (`_walk`).  Each element i gets a level l_i >= 1 and a packed
integer with a W-bit slot per set S of levels (slot S at bit W*S, level l
at bit l - 1 of S):

    acc_i = 1 + sum over j in near(i) of acc_j << (W * 2^(l_j - 1)),

since adding level l_j to sets of smaller levels is one uniform shift.  A
slot of acc_i is at most the number of chains acc_i counts, and a slot of
any sum of out_i at most the number of chains of the walk, which the same
walk with W = 0 counts; so W = the bit length of 1 + that total leaves no
carry.  Subset Moebius inversion (n * 2^n steps) of the slots gives the
h_S (`_flag_h`), unpacked by halving f with one mask and one shift, so
each bit is copied once per halving (`_unpack`).

Bottom-up (elements above the bottom, l_i = rank above the bottom, near(i)
= the elements strictly between) acc_pi is the flag f-vector of [0-hat, pi)
(`lower_intervals`); `ab_index` adds the bottom and each acc_i shifted by
its own level.  Top-down (reverse rank order, near(x) = the elements above
x, l_x = rank gap to the virtual top) acc_x is the flag f-vector of
[x, 1-hat) (`upper_intervals`), a rank r above x at bit n_x - r: slots
keyed on gaps to the top rather than on absolute ranks keep acc_x at
2^(n_x) slots, and one bit reversal of S re-indexes it.  So one walk gives
every lower or every upper interval's ab-index, the coproduct of flag
f-vectors (Psi is a coalgebra map: Ehrenborg-Readdy, Coproducts and the
cd-index, J. Algebraic Combin. 1998).

Each root poset caches one bottom-up walk (`_root_walk`).  An order ideal
I of the root on its bottom holds [0-hat, i) for each member i, so acc_i
is I's too and I's flag f-vector is 1 + the sum of out_i over its
members: `_ab_key` reads the root, the fibers and boundaries of
`decompose` and [0-hat, nu) so, and `lower_intervals` of a root reads acc.
No slot carries: each counts chains of the root, below 2^W.  Every other
view (upper intervals, intervals off the bottom, non-ideals) walks itself.

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

from .ncpoly import (NcPoly, NotExpressible, ab_of, alpha, alpha_ab_lambda,
                     alpha_ab_star, cd_contract, pyr_op)
from .poset import (TOP, GradedPoset, NotALattice, NotComparable, NotEulerian,
                    SubPoset, _bits, interval_view)


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


def _walk(plan):
    """(width, acc, out) of one packed walk over plan = (order, near, level)
    (see the module docstring): for each i in `order`, acc_i = 1 + the sum
    of out_j over j in near(i), where near is aligned with `order` and
    lists indices earlier in it, and out_i = acc_i << (width << (level[i] -
    1)).  A first pass at width 0 counts the chains each acc_i packs, and
    width is the bit length of 1 + their total, which bounds every slot and
    every sum of outs."""
    order, near, level = plan
    width = 0
    for _ in range(2):
        acc, out = {}, {}
        for i, down in zip(order, near):
            a = acc[i] = 1 + sum(map(out.__getitem__, down))
            out[i] = a << (width << (level[i] - 1))
        width = width or (1 + sum(acc.values())).bit_length()
    return width, acc, out


def _root_walk(root):
    """`_walk` of the root poset's one bottom-up plan, cached."""
    walk = root._cache.get("flag_walk")
    if walk is None:
        walk = root._cache["flag_walk"] = _walk(
            _plan(root, root._bottom, root._geq[root._bottom], root.n, False))
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


def ab_index(P):
    """Sum of the weights of all chains of P (the singleton {0-hat}
    included); homogeneous of degree n."""
    return ab_of(_ab_key(P))


def _ab_key(P):
    """The key (n, h) of `ab_index(P)`, h in ncpoly's word order, from
    1 + the sum of out_i over the members above the bottom: read off the
    root's walk when P is an order ideal on the root's bottom (see the
    module docstring), else off P's own walk."""
    members = _members(P)
    root, bot = P._root, P._bottom_idx
    inner = list(_bits(members & ~(1 << bot)))
    down = reduce(operator.or_, map(root._leq.__getitem__, inner), 0)
    if bot == root._bottom and not down & root._geq[bot] & ~P._mask:
        width, _, out = _root_walk(root)
    else:
        width, _, out = _walk(_plan(root, bot, members, P.n, False))
    return P.n, tuple(_flag_h(1 + sum(map(out.__getitem__, inner)), width, P.n))


def _intervals(P, top_down, among):
    """{i: (n_i, h)} for each i of the walk that is in the mask `among`:
    [0-hat, i) bottom-up, [i, 1-hat) top-down, h in ncpoly's word order.
    A root's bottom-up walk is its cached one."""
    members = _members(P)
    if P is P._root and not top_down:
        width, acc, _ = _root_walk(P)
        level = P._rank
    else:
        plan = _plan(P._root, P._bottom_idx, members, P.n, top_down)
        width, acc, _ = _walk(plan)
        level = plan[2]
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


def near_cd_index(P, boundary_ids):
    """Split Psi_P = Phi + Psi_boundary * a and contract both parts, each
    once per key through P's `contraction_memo`: the fibers of the maps
    `decompose` checks repeat a few splits many times.

    The caller certifies that (P, boundary) is genuinely near-Gorenstein*;
    a NotExpressible escape here means it was not.  A nonempty boundary
    always contains the bottom, whether or not boundary_ids names it.
    """
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
    return _semisuspension_sum(L, nu, ab_of, alpha_ab_lambda)


def star_chain_sum(L, nu):
    """Total weight of the chains through the added semisuspension cell."""
    return _semisuspension_sum(L, nu, ab_of, alpha_ab_star)


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
