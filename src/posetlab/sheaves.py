"""Sheaves on posets: cellular complexes, duality, and the C/D operations.

A sheaf stores per-element stalk dimensions and exact rational restriction
maps (int or Fraction entries, never floats) on cover pairs, in the format
of the elimination kernel in `linalg`: the map F_hi -> F_lo is a list of
dim F_lo sparse rows, each a dict {column: nonzero value} over the columns
0 .. dim F_hi - 1.  Ranks, nullspaces and coordinates read these rows as
they are, and arbitrary restrictions are composed along cover paths with
`linalg.mat_mul` (well defined because commutation is validated).

Cellular complexes live on the base poset itself, with the cells graded by
corank.  Their incidence signs come from an orientation (Karu, "The
cd-index of fans and posets"): a sign eps(y, z) = +-1 on every cover with
sum_y eps(x, y) * eps(y, z) = 0 over every length-2 interval [x, z], which
is exactly d o d = 0.  It is built once per poset in rank order: every
atom gets +1 against the bottom, and on the lower covers of each z the
signs are the +-1 generator of the top cycle space of the open interval
(bottom, z).  Every [bottom, z) is certified Gorenstein* on the way, so
the base is a CW poset, that cycle space is a line spanned by a +-1
vector, and the complex computes the same cohomology as the order complex.
Where some [bottom, z) is not Gorenstein* BadBase is raised, naming z.

Each sheaf has one cochain complex (`_cochains`), cached on it.  The rows
of d_k at an element lie over cells above it, so the complex of an up-set
is the rows whose element lies in it: upper-interval H^0 and the
Cohen-Macaulay test read row subsets.

The D operation needs a surjection alpha: C(F)-dual -> C(F) assembled from
a "generic enough" random rational combination of the per-cell maps
alpha_f, one per basis section at each top-rank element s.  Each goes
through the dual of the constant sheaf on [bottom, s), read off the
orientation rather than built.  The rational draws are scaled by the lcm
of their denominators to integers: alpha changes by one positive scalar,
which leaves its ranks and its integral nullspace bases as they are.  The
randomness source is explicit and the seed-independent part (C(F), its
dual, the alpha_f family indexed by cell) is cached per input sheaf, so
seed sweeps only redo the cheap assembly, surjectivity check and kernel
extraction.  The kernel is checked to be a subsheaf eagerly, but its
restrictions are built when `res` is first read (never, after a word's
last D).  Coordinates in degree-zero cohomology bases are read with
`linalg.nullspace_coords` by one exact division, not solved for.

`cd_coefficient_via_CD` caches the constant sheaf and its C's on the poset
P.  That sheaf lives on a copy of P (its top skeleton, same ids), so the
cache holds no reference back to P and P is freed by reference counting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, lcm

from . import flags, homology
from .linalg import (betti_from_ranks, mat_mul, nullspace_coords,
                     sparse_nullspace, sparse_rank)
from .linalg import solve_in_span  # noqa: F401  (the perfbench self-test rebinds it)
from .ncpoly import word_degree
from .poset import GradedPoset, interval_view


class BadSupport(Exception):
    pass


class NotCohenMacaulay(Exception):
    pass


class BadBase(Exception):
    pass


class SurjectivityFailed(Exception):
    pass


# op_D's attempts at a surjective random combination before it gives up
OP_D_RETRIES = 8


class Sheaf:
    """Stalk dimensions plus restriction maps on cover pairs.

    res[(sigma, tau)] maps F_sigma -> F_tau for a cover sigma > tau: dim
    F_tau sparse rows over the columns 0 .. dim F_sigma - 1.  Pairs with a
    zero-dimensional end are omitted; compositions through them are zero.
    `res` may be given as a function returning that dict, called on the
    first read.
    """

    def __init__(self, base, stalk_dim, res):
        self.base = base
        self.stalk_dim = {e: stalk_dim.get(e, 0) for e in base.elements()}
        self._res = res if callable(res) else dict(res)
        self._res_memo = {}

    @property
    def res(self):
        if callable(self._res):
            self._res = self._res()
        return self._res

    def dim(self, x):
        return self.stalk_dim.get(x, 0)

    def res_between(self, sigma, tau):
        """Composite restriction F_sigma -> F_tau for sigma >= tau."""
        if sigma == tau:
            return [{i: 1} for i in range(self.dim(sigma))]
        key = (sigma, tau)
        if key not in self._res_memo:
            if self.dim(sigma) == 0 or self.dim(tau) == 0:
                out = [{} for _ in range(self.dim(tau))]
            else:
                step = next(d for d in _down_covers(self.base, sigma)
                            if self.base.leq(tau, d))
                out = self._through(sigma, step, tau)
            self._res_memo[key] = out
        return self._res_memo[key]

    def _through(self, sigma, step, tau):
        """F_sigma -> F_step -> F_tau, for a cover sigma > step >= tau."""
        first = self.res.get((sigma, step))
        if first is None:
            return [{} for _ in range(self.dim(tau))]
        return mat_mul(self.res_between(step, tau), first)

    def validate(self):
        """Shapes on covers and commutation of all two-step compositions
        (which forces commutation of all paths, by induction on rank)."""
        for (s, t), m in self.res.items():
            if len(m) != self.dim(t) or any(
                    not 0 <= c < self.dim(s) for row in m for c in row):
                raise ValueError(f"restriction {s}->{t} has the wrong shape")
        for s in self.base.elements():
            for t in self.base.elements():
                if s == t or not self.base.leq(t, s):
                    continue
                mats = [self._through(s, d, t) for d in _down_covers(self.base, s)
                        if self.base.leq(t, d)]
                if any(m != mats[0] for m in mats[1:]):
                    raise ValueError(f"restrictions {s}->{t} do not commute")
        return True

    def __repr__(self):
        total = sum(self.stalk_dim.values())
        return f"Sheaf(base rank {self.base.n}, total stalk dim {total})"


def constant_sheaf(base, support=None):
    """Stalk 1 on the support (default: everywhere), identity restrictions.

    The support must be interval-closed: no element outside it may sit
    between two elements inside it.
    """
    if support is None:
        supp = set(base.elements())
    else:
        supp = set(support)
        for e in supp:
            base._index(e)
        for x in base.elements():
            if x in supp:
                continue
            below = any(base.leq(t, x) and t != x for t in supp)
            above = any(base.leq(x, t) and t != x for t in supp)
            if below and above:
                raise BadSupport(f"{x!r} lies between support elements")
    stalks = {e: 1 if e in supp else 0 for e in base.elements()}
    res = {}
    for lo, hi in base.covers():
        if lo in supp and hi in supp:
            res[(hi, lo)] = [{0: 1}]
    return Sheaf(base, stalks, res)


# -- cellular complexes -------------------------------------------------------


@dataclass
class CellularComplex:
    """C^k = direct sum of stalks at corank-k elements, with the base's
    orientation as incidence signs; d o d = 0 is checked at construction."""

    coords: list          # coords[k]: list of (element, local index)
    diff_rows: list       # diff_rows[k]: rows of d_k: C^k -> C^(k+1),
                          # indexed by C^(k+1) coordinates
    at: list              # at[k]: base index of each C^k coordinate's element

    def term_dims(self):
        return [len(c) for c in self.coords]

    def cohomology_dims(self):
        return betti_from_ranks(self.term_dims(),
                                [sparse_rank(rows) for rows in self.diff_rows])

    def kernel_deg0(self):
        """Basis of H^0 = ker(d_0) as dicts keyed by (element, local).
        C^0 lies in one rank, so these keys sort in column order and
        `nullspace_coords` reads coordinates in this basis."""
        if not self.coords:
            return []
        ncols = len(self.coords[0])
        rows = self.diff_rows[0] if self.diff_rows else []
        basis = sparse_nullspace(rows, ncols)
        keys = self.coords[0]
        return [{keys[i]: v for i, v in vec.items()} for vec in basis]

    def restrict(self, mask, top=None):
        """The complex on the elements whose base index is in `mask`, in
        degrees up to `top` (default: all): the rows whose element lies in
        it, over its cells renumbered in order (columns outside it dropped;
        an up-set has none), trailing empty degrees removed."""
        keep = [[i for i, e in enumerate(es) if mask >> e & 1]
                for es in self.at[:None if top is None else top + 1]]
        while keep and not keep[-1]:
            keep.pop()
        cols = [{i: j for j, i in enumerate(ks)} for ks in keep]
        return CellularComplex(
            [[self.coords[k][i] for i in ks] for k, ks in enumerate(keep)],
            [[{cols[k][c]: v for c, v in self.diff_rows[k][r].items() if c in cols[k]}
              for r in keep[k + 1]] for k in range(len(keep) - 1)],
            [[self.at[k][i] for i in ks] for k, ks in enumerate(keep)])


def _orientation(base):
    """eps[(y, z)] = +-1 on every cover y < z, with the sum of
    eps(x, y) * eps(y, z) over the y in (x, z) zero for every length-2
    interval [x, z] (cached per poset).

    Built in rank order: once [bottom, z) is certified Gorenstein*, the
    signs on the lower covers of z span the nullspace of those sums, a line
    spanned by a +-1 vector.  The signs compare the integral basis vector's
    entries exactly with its entry at the first lower cover, which gets +1,
    so every atom gets +1 against the bottom.  Raises BadBase naming z when
    [bottom, z) is not Gorenstein* or the nullspace is not such a line.
    """
    eps = base._cache.get("orientation")
    if eps is None:
        eps = {}
        for z in base.elements():
            below = _down_covers(base, z)
            if not below:
                continue
            rows = {}
            for j, y in enumerate(below):
                for x in _down_covers(base, y):
                    rows.setdefault(x, {})[j] = eps[(x, y)]
            null = sparse_nullspace(list(rows.values()), len(below))
            vec = null[0] if len(null) == 1 else {}
            lead = vec.get(0)
            entries = [vec.get(j, 0) for j in range(len(below))]
            if (not lead or any(abs(v) != abs(lead) for v in entries)
                    or not homology.is_gorenstein_star(
                        interval_view(base, base._bottom_idx, base._index(z)))):
                raise BadBase(f"no orientation below {z!r}: "
                              f"[bottom, {z!r}) is not Gorenstein*")
            for y, v in zip(below, entries):
                eps[(y, z)] = 1 if v * lead > 0 else -1
        base._cache["orientation"] = eps
    return eps


def _cochains(F):
    """The whole cellular complex of F, built once and cached on F.  Each
    row of d_k belongs to a C^(k+1) coordinate's element y (`at[k + 1]`),
    and its columns are coordinates at covers of y."""
    cached = getattr(F, "_cochain_cache", None)
    if cached is not None:
        return cached
    base = F.base
    res = F.res
    eps = _orientation(base)
    n = base.n
    by_deg = {}
    for e in sorted(base.elements(), key=lambda e: (base.rank(e), e)):
        if F.dim(e):
            by_deg.setdefault(n - base.rank(e), []).append(e)
    top_deg = max(by_deg) if by_deg else -1
    coords, coord_idx = [], []
    for k in range(top_deg + 1):
        cs = [(e, j) for e in by_deg.get(k, []) for j in range(F.dim(e))]
        coords.append(cs)
        coord_idx.append({key: i for i, key in enumerate(cs)})
    diff_rows = []
    for k in range(top_deg):
        rows = [dict() for _ in coords[k + 1]]
        for y in by_deg.get(k + 1, []):
            for z in _up_covers(base, y):
                sign = eps[(y, z)]
                for r, entries in enumerate(res.get((z, y), ())):
                    row = rows[coord_idx[k + 1][(y, r)]]
                    for c, v in entries.items():
                        row[coord_idx[k][(z, c)]] = sign * v
        diff_rows.append(rows)
    at = [[base._index(e) for e, _ in cs] for cs in coords]
    F._cochain_cache = CellularComplex(coords, diff_rows, at)
    return F._cochain_cache


def cellular_complex(F, support=None, check=True):
    """The cellular complex of F, restricted to `support` when given (which
    must make the restriction a sheaf, e.g. an up-set or interval-closed),
    read off `_cochains(F)`."""
    base = F.base
    mask = base._mask if support is None else base._mask_of(support)
    cc = _cochains(F).restrict(mask)
    if check:
        _check_d_squared(cc)
    return cc


def _check_d_squared(cc):
    for k in range(len(cc.diff_rows) - 1):
        lower, upper = cc.diff_rows[k], cc.diff_rows[k + 1]
        for row in upper:
            acc = {}
            for mid, v in row.items():
                for col, w in lower[mid].items():
                    acc[col] = acc.get(col, 0) + v * w
            if any(acc.values()):
                raise ValueError("cellular differential does not square to zero")


# Covers of one element share a rank, and indices are sorted by (rank, id),
# so both lists below come out in ascending id order.


def _up_covers(base, y):
    return [base._ids[j] for j in base._covers_up[base._index(y)]]


def _down_covers(base, x):
    table = base._cache.get("down_covers")
    if table is None:
        table = [[] for _ in base._ids]
        for i, ups in enumerate(base._covers_up):
            for j in ups:
                table[j].append(base._ids[i])
        base._cache["down_covers"] = table
    return table[base._index(x)]


def is_cm_sheaf(F):
    """Cohen-Macaulay: upper-interval cellular cohomology vanishes above
    degree 0, for every element.  The complex of the up-set of x is the
    rows of `_cochains(F)` whose element lies in it."""
    if getattr(F, "_is_cm", None) is not None:
        return F._is_cm
    cc = _cochains(F)

    def higher_cohomology(mask):
        dims = [sum(mask >> e & 1 for e in es) for es in cc.at]
        ranks = [sparse_rank([row for e, row in zip(cc.at[k + 1], rows) if mask >> e & 1])
                 for k, rows in enumerate(cc.diff_rows)]
        return any(betti_from_ranks(dims, ranks)[1:])

    F._is_cm = not any(higher_cohomology(mask) for mask in F.base._geq)
    return F._is_cm


def dual_sheaf(F):
    """The Cohen-Macaulay dual: stalks are degree-zero upper-interval
    cohomologies, restrictions the transposed projection maps."""
    if not is_cm_sheaf(F):
        raise NotCohenMacaulay("dual_sheaf needs a Cohen-Macaulay input")
    return _dual_poset(F)


def _dual_poset(F):
    base = F.base
    cc = _cochains(F)
    h0 = {x: cc.restrict(mask, 1).kernel_deg0()
          for x, mask in zip(base.elements(), base._geq)}
    stalks = {x: len(b) for x, b in h0.items()}
    res = {}
    for lo, hi in base.covers():
        if stalks[hi] == 0 or stalks[lo] == 0:
            continue
        hi_set = set(base.up_set(hi))
        # row i: coordinates in basis_hi of basis_lo[i] projected to
        # [hi, top); the map H0(lo) -> H0(hi) has the transposed matrix
        mat = [nullspace_coords(h0[hi], {k: v for k, v in vec.items()
                                         if k[0] in hi_set}) for vec in h0[lo]]
        if None in mat:
            raise ArithmeticError("projected cocycle escaped the target kernel")
        res[(hi, lo)] = [{j: v for j, v in enumerate(row) if v} for row in mat]
    dual = Sheaf(base, stalks, res)
    dual._h0 = h0
    return dual


def dual_dimension_formula(F, sigma):
    """The numeric shadow of duality: sum over pi >= sigma of
    (-1)^(n - rank(pi)) * dim F_pi (non-strict at sigma)."""
    base = F.base
    return sum((-1) ** (base.n - base.rank(p)) * F.dim(p)
               for p in base.up_set(sigma))


# -- skeletons and the C / D operations ---------------------------------------


def skeleton_poset(P, k):
    cache = P._cache.setdefault("skeleton", {})
    if k not in cache:
        ids = [e for e in P.elements() if P.rank(e) <= k]
        ranks = {e: P.rank(e) for e in ids}
        keep = set(ids)
        covers = [(a, b) for a, b in P.covers() if a in keep and b in keep]
        labels = {e: P.label(e) for e in ids}
        cache[k] = GradedPoset.from_covers(k, ranks, covers, labels=labels)
        # the skeleton keeps every lower interval, and so the orientation
        if "orientation" in P._cache:
            cache[k]._cache["orientation"] = {
                c: s for c, s in P._cache["orientation"].items() if c[1] in keep}
    return cache[k]


def op_C(F, check=True):
    """Restriction to the (n-1)-skeleton; Cohen-Macaulay stays.  The
    restrictions are F's, filtered when first read."""
    base = F.base
    if check and not is_cm_sheaf(F):
        raise NotCohenMacaulay("op_C needs a Cohen-Macaulay sheaf")
    sk = skeleton_poset(base, base.n - 1)
    keep = set(sk.elements())
    stalks = {e: F.dim(e) for e in keep}
    return Sheaf(sk, stalks, lambda: {pair: m for pair, m in F.res.items()
                                      if pair[0] in keep and pair[1] in keep})


def _alpha_family(F, check=True):
    """Seed-independent data for op_D: the restriction C(F), its dual, and
    the stalkwise matrices of every alpha_f (one per basis section at each
    top-rank element), as an `_AlphaFamily`.  Cached on the sheaf instance.

    The dual of the constant sheaf on [bottom, s) has H^0 over [sigma, s)
    spanned by y -> eps(y, s) on the lower covers y of s above sigma: the
    orientation certifies [bottom, s), so that H^0 is a line, and
    eps(w, y) * eps(y, s) sums to zero over each length-2 interval [w, s].
    """
    cached = getattr(F, "_alpha_family_cache", None)
    if cached is not None:
        return cached
    base = F.base
    eps = _orientation(base)
    cf = op_C(F, check=check)
    cf_dual = _dual_poset(cf)
    h0_cf = cf_dual._h0
    family = []
    for s in base.maximal_elements():
        if F.dim(s) == 0:
            continue
        below = _down_covers(base, s)
        supp = [t for t in base.down_set(s) if t != s]
        for k in range(F.dim(s)):
            # phi_f stalk columns for the k-th basis section at s
            phi_col = {t: [row.get(k, 0) for row in F.res_between(s, t)]
                       for t in supp}
            stalk_maps = {}
            for sigma in supp:
                if cf_dual.dim(sigma) == 0 or cf.dim(sigma) == 0:
                    continue
                # induced H0 map of phi_f on the up-set of sigma
                image = {(y, i): eps[(y, s)] * entry
                         for y in below if base.leq(sigma, y)
                         for i, entry in enumerate(phi_col[y]) if entry}
                t_col = nullspace_coords(h0_cf[sigma], image)
                if t_col is None:
                    raise ArithmeticError("phi_f image escaped H0 of C(F)")
                # alpha_f at sigma: (phi column) * (induced map)^T
                stalk_maps[sigma] = [{j: c * t for j, t in enumerate(t_col) if c and t}
                                     for c in phi_col[sigma]]
            family.append(stalk_maps)
    out = (cf, cf_dual, _AlphaFamily(family))
    F._alpha_family_cache = out
    return out


def op_D(F, rng, check=True):
    """Kernel of a generic surjection C(F)-dual -> C(F), landing on the
    (n-2)-skeleton.  Retries with fresh randomness; raises
    SurjectivityFailed naming the offending element after OP_D_RETRIES
    attempts."""
    if F.base.n < 2:
        raise ValueError(f"op_D needs a base of rank >= 2, not {F.base.n}")
    cf, cf_dual, family = _alpha_family(F, check=check)
    sk = cf.base
    failed_at = None
    for _attempt in range(OP_D_RETRIES):
        alpha = _draw_alpha(cf, family, rng)
        failed_at = next((tau for tau in sk.elements()
                          if sk.rank(tau) == sk.n and cf.dim(tau)
                          and sparse_rank(alpha[tau]) != cf.dim(tau)), None)
        if failed_at is None:
            return _kernel_sheaf(cf, cf_dual, alpha)
    raise SurjectivityFailed(
        f"no surjective combination found after {OP_D_RETRIES} tries "
        f"(last failure at {failed_at!r})")


class _AlphaFamily(list):
    """The alpha_f, one {sigma: rows} dict per f, also indexed by cell:
    at[sigma] lists (f, rows) for the alpha_f that live at sigma, f
    ascending."""

    def __init__(self, maps):
        super().__init__(maps)
        self.at = {}
        for f, stalk_maps in enumerate(self):
            for sigma, rows in stalk_maps.items():
                self.at.setdefault(sigma, []).append((f, rows))


def _draw_alpha(cf, family, rng):
    """One random combination of the alpha_f, stalk by stalk, scaled to
    integer coefficients: the draws are positive rationals a/b, reduced by
    gcd(a, b) and multiplied by the lcm of their denominators.  That changes
    alpha by one positive scalar, which changes no rank and no normalised
    `sparse_nullspace`."""
    draws = [(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in family]
    draws = [(a // g, b // g) for a, b in draws for g in (gcd(a, b),)]
    scale = lcm(*(b for _, b in draws))
    coeffs = [a * (scale // b) for a, b in draws]
    alpha = {}
    for sigma in cf.base.elements():
        rows = [{} for _ in range(cf.dim(sigma))]
        for f, maps in family.at.get(sigma, ()):
            c = coeffs[f]
            for acc, row in zip(rows, maps):
                for j, v in row.items():
                    acc[j] = acc.get(j, 0) + c * v
        alpha[sigma] = rows
    return alpha


def _apply(rows, vec):
    """Matrix (sparse rows) times sparse vector, zeros dropped."""
    out = {}
    for r, entries in enumerate(rows):
        v = sum(x * vec[c] for c, x in entries.items() if c in vec)
        if v:
            out[r] = v
    return out


def _kernel_sheaf(cf, cf_dual, alpha):
    """ker(alpha) on the (n-1)-skeleton: stalks are the `sparse_nullspace`
    bases of alpha, restrictions those of cf_dual in these bases.  That the
    kernel is a subsheaf is checked here: for each cover lo < hi and each
    basis vector b at hi, the restricted vector W b lies in ker(alpha_lo),
    the membership `nullspace_coords` tests.  The coordinates of W b in
    the basis at lo are built when `res` is first read."""
    sk = cf.base
    target = skeleton_poset(sk, sk.n - 1)
    bases = {sigma: sparse_nullspace(alpha[sigma], cf_dual.dim(sigma))
             for sigma in target.elements()}
    stalks = {s: len(v) for s, v in bases.items()}
    images = {}
    for lo, hi in target.covers():
        if stalks[hi] == 0 or stalks[lo] == 0:
            continue
        w = cf_dual.res.get((hi, lo), ())
        images[(hi, lo)] = [_apply(w, vec) for vec in bases[hi]]
        if any(_apply(alpha[lo], image) for image in images[(hi, lo)]):
            raise ArithmeticError("kernel restriction escaped the kernel")

    def res():
        out = {}
        for (hi, lo), imgs in images.items():
            rows = [{} for _ in range(stalks[lo])]
            for i, image in enumerate(imgs):
                for r, c in enumerate(nullspace_coords(bases[lo], image)):
                    if c:
                        rows[r][i] = c
            out[(hi, lo)] = rows
        return out

    return Sheaf(target, stalks, res)


# -- flag polynomials of sheaves ----------------------------------------------


def sheaf_ab_index(F):
    """Sum over chains of wt(chain) * dim F at the largest chain element."""
    base = F.base
    root = base._root
    return flags.ab_index(base, lambda i: F.dim(root._ids[i]))


def cd_coefficient_via_CD(P, word, seed=0):
    """Coefficient of the degree-n cd-word `word` in the cd-index of P,
    extracted as a stalk dimension at the bottom.

    w(C,D) is an operator composition, so the rightmost letter of the word
    acts first on the constant sheaf (the trailing run of c's is cached on
    the poset: it is the seed-independent part every word shares).
    """
    bad = next((letter for letter in word if letter not in "cd"), None)
    if bad is not None:
        raise ValueError(f"word {word!r} has letter {bad!r}; only c and d are allowed")
    if word_degree("cd", word) != P.n:
        raise ValueError(f"word {word!r} must have degree {P.n}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    prefix = P._cache.setdefault("cd_prefix", {})
    if 0 not in prefix:
        # on a copy of P with the same ids: no reference cycle through P
        const = constant_sheaf(skeleton_poset(P, P.n))
        if not is_cm_sheaf(const):
            raise NotCohenMacaulay("the constant sheaf on P is not Cohen-Macaulay")
        prefix[0] = const
    trailing = 0
    while trailing < len(word) and word[-1 - trailing] == "c":
        trailing += 1
    for k in range(1, trailing + 1):
        if k not in prefix:
            prefix[k] = op_C(prefix[k - 1], check=False)
    current = prefix[trailing]
    for letter in reversed(word[:len(word) - trailing]):
        if letter == "c":
            current = op_C(current, check=False)
        else:
            current = op_D(current, rng, check=False)
    return current.dim(current.base.bottom)
