"""Graded posets with a bottom element and a virtual top.

A GradedPoset stores elements with ranks and cover relations.  The minimal
element 0-hat is always present; the maximal element 1-hat is never stored.
By convention rho(1-hat) = n + 1, so the rank gap to the top from x is
n + 1 - rho(x).

Internally elements live at contiguous indices 0..m-1 in rank order (the
constructor rejects any other order, so ascending indices need no sort) and
the full order relation is materialized as per-element bitmasks, which makes
interval, join and chain queries cheap at the few-hundred-element scale this
library targets.  Public APIs speak element ids; the kernels read indices
and convert ids once, at the API.  `from_covers` sorts ids by (rank, id),
so ids 0..m-1 equal indices only when numbered in rank order: a product
numbers its pairs in (x, y) order, and its ids are not its indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import attrgetter, or_


class PosetError(Exception):
    """Base class for structural poset errors."""


class NotGraded(PosetError):
    pass


class NoBottom(PosetError):
    pass


class RankedTooHigh(PosetError):
    pass


class UnreachableElement(PosetError):
    pass


class UnknownElement(PosetError):
    pass


class NotComparable(PosetError):
    pass


class NoUniqueTop(PosetError):
    pass


class NotALattice(PosetError):
    pass


class NotEulerian(PosetError):
    pass


class _Top:
    """Sentinel for the virtual maximal element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOP"


TOP = _Top()


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class GradedPoset:
    """Immutable graded poset with bottom element and no stored top."""

    __slots__ = ("n", "_ids", "_idx", "_rank", "_covers_up", "_geq", "_leq",
                 "_bottom", "labels", "provenance", "_cache")

    def __init__(self, n, ids, rank_by_idx, covers_up, labels=None, provenance=None):
        # Use from_covers for validated construction from user data.
        self.n = n
        self._ids = tuple(ids)
        m = len(self._ids)
        self._idx = dict(zip(self._ids, range(m)))
        self._rank = tuple(rank_by_idx)
        if list(self._rank) != sorted(self._rank):
            raise ValueError("element indices must be in rank order")
        self._covers_up = tuple(map(tuple, map(sorted, covers_up)))
        geq = [0] * m
        for i in reversed(range(m)):
            acc = 1 << i
            for j in self._covers_up[i]:
                acc |= geq[j]
            geq[i] = acc
        self._geq = tuple(geq)
        leq = [1 << i for i in range(m)]
        for i in range(m):
            for j in self._covers_up[i]:
                leq[j] |= leq[i]
        self._leq = tuple(leq)
        bottoms = self._rank.count(0)
        if bottoms != 1:
            raise NoBottom(f"expected exactly one rank-0 element, found {bottoms}")
        self._bottom = self._rank.index(0)
        self.labels = dict(labels or {})
        self.provenance = dict(provenance or {})
        self._cache = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_covers(cls, n, ranks, covers, labels=None, provenance=None):
        """Build and validate a poset from a rank map and cover pairs.

        Raises NotGraded, NoBottom, RankedTooHigh or UnreachableElement when
        the data violates the graded-poset invariants.
        """
        ids = sorted(ranks, key=lambda e: (ranks[e], e))
        if not ids:
            raise NoBottom("empty poset")
        for e, r in ranks.items():
            if r < 0 or r > n:
                raise RankedTooHigh(f"element {e} has rank {r} outside [0, {n}]")
        rank = [ranks[e] for e in ids]
        if rank.count(0) != 1:
            raise NoBottom("expected exactly one rank-0 element")
        idx = dict(zip(ids, range(len(ids))))
        covers_up = [[] for _ in ids]
        for lo, hi in covers:
            i, j = idx.get(lo), idx.get(hi)
            if i is None or j is None:
                raise UnknownElement(f"cover ({lo}, {hi}) uses unknown element")
            if rank[j] != rank[i] + 1:
                raise NotGraded(f"cover ({lo}, {hi}) skips from rank {ranks[lo]} to {ranks[hi]}")
            if j not in covers_up[i]:
                covers_up[i].append(j)
        poset = cls(n, ids, rank, covers_up, labels=labels, provenance=provenance)
        # reachability from the bottom
        reach = poset._geq[poset._bottom]
        for i, e in enumerate(ids):
            if not (reach >> i) & 1:
                raise UnreachableElement(f"element {e} is not above the bottom")
        for e, up, r in zip(ids, poset._covers_up, rank):
            if not up and r != n:
                raise NotGraded(f"maximal element {e} has rank {r} != {n}")
        return poset

    # -- internal protocol shared with SubPoset -----------------------------

    @property
    def _root(self):
        return self

    @property
    def _mask(self):
        return (1 << len(self._ids)) - 1

    @property
    def _bottom_idx(self):
        return self._bottom

    # -- public id-space API -------------------------------------------------

    def __len__(self):
        return len(self._ids)

    def elements(self):
        """Element ids sorted by (rank, id)."""
        return list(self._ids)

    def rank(self, x):
        return self._rank[self._index(x)]

    @property
    def bottom(self):
        return self._ids[self._bottom]

    def covers(self):
        """Sorted list of (lower, upper) cover pairs."""
        out = []
        for i, ups in enumerate(self._covers_up):
            for j in ups:
                out.append((self._ids[i], self._ids[j]))
        return sorted(out)

    def _index(self, x):
        try:
            return self._idx[x]
        except KeyError:
            raise UnknownElement(f"unknown element {x!r}") from None

    def leq(self, x, y):
        """True iff x <= y (reflexive)."""
        return bool((self._geq[self._index(x)] >> self._index(y)) & 1)

    def maximal_elements(self):
        return [self._ids[i] for i, up in enumerate(self._geq) if up == 1 << i]

    def label(self, x):
        return self.labels.get(x, str(x))

    # -- intervals -----------------------------------------------------------

    def interval(self, x, upper):
        """The half-open interval [x, upper) or [x, 1-hat) as a new poset.

        Ranks are normalized so x has rank 0; provenance maps new ids back
        to the source ids.  `upper` may be TOP.
        """
        xi = self._index(x)
        if upper is TOP:
            hi = TOP
        else:
            hi = self._index(upper)
            if not (self._geq[xi] >> hi) & 1:
                raise NotComparable(f"{x!r} is not below {upper!r}")
        view = interval_view(self, xi, hi)
        return self._materialize(view.mask, view.n, self._rank[xi])

    def _materialize(self, mask, new_n, rank_offset):
        """Renumber the elements in `mask` into a standalone GradedPoset: a
        convex mask keeps the root's covers, any other scans each up-set."""
        members = list(_bits(mask))
        newid = {i: k for k, i in enumerate(members)}
        ranks = [self._rank[i] - rank_offset for i in members]
        ups, downs = (reduce(or_, map(rel.__getitem__, members), 0)
                      for rel in (self._geq, self._leq))
        convex = ups & downs == mask
        covers_up = [[newid[j] for j in (self._covers_up[i] if convex else self._minimal_in(
                          self._geq[i] & mask & ~(1 << i))) if mask >> j & 1] for i in members]
        labels = {newid[i]: self.label(self._ids[i]) for i in members}
        prov = {newid[i]: self._ids[i] for i in members}
        return GradedPoset(new_n, range(len(members)), ranks, covers_up,
                           labels=labels, provenance=prov)

    def _minimal_in(self, mask):
        """Indices of the minimal elements of the index set `mask`, ascending:
        with mask the common upper bounds of i and j, the minimal upper
        bounds; with mask the members of a subset strictly above i, the
        covers of i inside that subset."""
        return [k for k in _bits(mask) if mask & self._leq[k] == 1 << k]

    def _mask_of(self, element_ids):
        """Bitmask of the indices of the given element ids."""
        mask = 0
        for e in element_ids:
            mask |= 1 << self._index(e)
        return mask

    def restrict(self, element_ids, n=None):
        """A lightweight SubPoset view on a subset of elements."""
        mask = self._mask_of(element_ids)
        if not (mask >> self._bottom) & 1:
            raise UnknownElement("bottom of the view must belong to it")
        return SubPoset(self, mask, self._bottom, self.n if n is None else n)

    # -- predicates ----------------------------------------------------------

    def dual(self):
        """Order-reversed poset; requires a unique maximal element."""
        maxima = [i for i, up in enumerate(self._geq) if up == 1 << i]
        if len(maxima) != 1:
            raise NoUniqueTop(f"dual needs a unique maximal element, found {len(maxima)}")
        members = sorted(range(len(self._ids)), key=lambda i: (self.n - self._rank[i], i))
        newid = {i: k for k, i in enumerate(members)}
        ranks = [self.n - self._rank[i] for i in members]
        covers_up = [[] for _ in members]
        for i, ups in enumerate(self._covers_up):
            for j in ups:  # i <. j becomes j <. i
                covers_up[newid[j]].append(newid[i])
        labels = {newid[i]: self.label(self._ids[i]) for i in members}
        prov = {newid[i]: self._ids[i] for i in members}
        return GradedPoset(self.n, range(len(members)), ranks, covers_up,
                           labels=labels, provenance=prov)

    def is_eulerian(self):
        """Every interval [tau, pi], pi up to the virtual top, satisfies the
        Euler-Poincare relation (alternating rank sum vanishes): as many
        even-rank as odd-rank elements in each [tau, pi] with tau < pi, and
        for [tau, 1-hat) an even-minus-odd count of (-1)^n.

        Only the intervals of even rank gap are summed.  Let every proper
        subinterval of [s, u] be Eulerian, so mu(v, w) = (-1)^rho(v, w) on
        them, and let m = rho(s, u) be odd.  The two Moebius recursions give
        mu(s, u) = -1 - sum_{s<v<u} (-1)^rho(s, v) and, since (-1)^rho(v, u)
        = -(-1)^rho(s, v), mu(s, u) = sum_{s<v<u} (-1)^rho(s, v) - 1.  Their
        sum is 2 mu(s, u) = -2, so mu(s, u) = -1 = (-1)^m and [s, u] is
        Eulerian.  By induction on the length, the even gaps decide every
        interval."""
        if "eulerian" in self._cache:
            return self._cache["eulerian"]
        even = sum(1 << i for i, r in enumerate(self._rank) if not r & 1)
        odd = self._mask ^ even
        top = 1 - 2 * (self.n & 1)
        leq = self._leq
        ok = True
        for t, up in enumerate(self._geq):
            up_even, up_odd = up & even, up & odd
            # [t, p] has an even gap when rho(p) and rho(t) have the same
            # parity, and [t, 1-hat] when rho(t) and n + 1 have
            parity = self._rank[t] & 1
            same = up_odd if parity else up_even
            if ((parity != self.n & 1
                 and up_even.bit_count() - up_odd.bit_count() != top)
                    or any((leq[p] & up_even).bit_count() != (leq[p] & up_odd).bit_count()
                           for p in _bits(same ^ (1 << t)))):
                ok = False
                break
        self._cache["eulerian"] = ok
        return ok

    def _join_idx(self, ub):
        """The least element of the nonempty upper set `ub`, or None.  Indices
        are in rank order, so a least element is the lowest set bit k of
        ub, and k is least exactly when geq[k] == ub."""
        k = (ub & -ub).bit_length() - 1
        return k if self._geq[k] == ub else None

    def join(self, x, y):
        """Least upper bound of x and y; TOP when only the virtual top works.

        Raises NotALattice when two incomparable minimal upper bounds exist.
        """
        ub = self._geq[self._index(x)] & self._geq[self._index(y)]
        if not ub:
            return TOP
        k = self._join_idx(ub)
        if k is not None:
            return self._ids[k]
        raise NotALattice(
            f"join({x!r}, {y!r}) has {len(self._minimal_in(ub))} minimal upper bounds")

    def is_lattice(self):
        """True iff every pair has a join (possibly the virtual top).  By the
        Bjorner-Edelman-Ziegler lemma ("Hyperplane arrangements with a
        lattice of regions", DCG 1990, Lemma 2.1) only the pairs of covers
        of a common element are checked, each by `_join_idx` unless they
        have no common upper bound (then they join at the virtual top).

        Proof that these pairs suffice, in P with its virtual top, a
        finite bounded poset, which is a lattice once every pair has a
        join.  Suppose some pair has none; among such pairs x, y and their
        common lower bounds z, take one with rank z maximal.  Then every
        pair with a common lower bound of higher rank has a join, and x, y
        are incomparable, so z < x and z < y.  Take covers x' <= x and
        y' <= y of z.  They differ (a common x' would be a higher lower
        bound of x, y), so w = x' v y' exists by the check.  Every common
        upper bound of x, y lies above x' and y', hence above w.  The pairs
        (x, w) and (y, w) have the lower bounds x' and y' above z, so their
        joins u and v exist, and (u, v) has the lower bound w, so t = u v v
        exists.  Every common upper bound of x, y lies above x and w, hence
        above u, likewise above v, hence above t, and t >= x, y: t is the
        join of x and y, a contradiction."""
        if "lattice" in self._cache:
            return self._cache["lattice"]
        geq, join = self._geq, self._join_idx
        ok = all(not (ub := geq[a] & geq[b]) or join(ub) is not None
                 for ups in self._covers_up for a, b in combinations(ups, 2))
        self._cache["lattice"] = ok
        return ok

    def __repr__(self):
        return f"GradedPoset(rank={self.n}, elements={len(self._ids)})"


@dataclass(frozen=True)
class SubPoset:
    """A read-only view on a subset of a GradedPoset's elements: fibers,
    boundaries and half-open intervals that share the root's order relation
    and homology caches.  A view is an index record (the root, the mask of
    its member indices, the root index of its bottom, its rank n) with no
    id-space API; materialize it, as `to_json_dict` does, to read it by ids.
    """

    root: GradedPoset
    mask: int
    bottom_idx: int
    n: int

    # the names the kernels read on a GradedPoset too
    _root = property(attrgetter("root"))
    _mask = property(attrgetter("mask"))
    _bottom_idx = property(attrgetter("bottom_idx"))


def interval_view(P, lo, hi=TOP):
    """The half-open interval [lo, hi) of the view P as a SubPoset sharing
    P's root; `lo` and `hi` are root indices, hi = TOP gives [lo, 1-hat)."""
    root = P._root
    mask = root._geq[lo] & P._mask
    if hi is TOP:
        return SubPoset(root, mask, lo, P.n - root._rank[lo] + root._rank[P._bottom_idx])
    mask &= root._leq[hi] & ~(1 << hi)
    return SubPoset(root, mask, lo, root._rank[hi] - root._rank[lo] - 1)


def iter_chains(root, mask):
    """Every chain inside the index set `mask` of `root`, as an ascending
    index tuple, the empty chain first: depth first, each level in
    ascending index order, which is rank order.

    An explicit stack, not a self-referencing nested generator: that one
    would form a function-cell reference cycle holding `root` (and its
    caches) until the cyclic garbage collector runs."""
    geq = root._geq
    yield ()
    stack = [((), _bits(mask))]
    while stack:
        prefix, candidates = stack[-1]
        i = next(candidates, None)
        if i is None:
            stack.pop()
            continue
        chain = prefix + (i,)
        yield chain
        stack.append((chain, _bits(geq[i] & mask & ~(1 << i))))


# -- JSON format ------------------------------------------------------------
#
# { "n": int,
#   "elements": [ {"id": int, "rank": int, "label": str?}, ... ],
#   "covers": [ [lower, upper], ... ] }
#
# Element id 0 must be the bottom.  Round-trip stable after canonicalization.


def to_json_dict(P):
    """The JSON document of P; a SubPoset view is written as its materialized
    document read back, raising what reading it would (covers may skip a rank)."""
    if isinstance(P, SubPoset):
        base = P.root._rank[P.bottom_idx]
        P = from_json_dict(to_json_dict(P.root._materialize(P.mask, P.n, base)))
    ids = P.elements()
    if P.bottom != 0 or sorted(ids) != list(range(len(ids))):
        # renumber deterministically: bottom first, then by (rank, id)
        order = sorted(ids, key=lambda e: (P.rank(e), e))
        remap = {e: k for k, e in enumerate(order)}
    else:
        remap = {e: e for e in ids}
    elements = []
    for e in sorted(ids, key=lambda e: remap[e]):
        entry = {"id": remap[e], "rank": P.rank(e)}
        if e in P.labels:
            entry["label"] = P.labels[e]
        elements.append(entry)
    covers = sorted([remap[a], remap[b]] for a, b in P.covers())
    return {"n": P.n, "elements": elements, "covers": covers}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def int_pairs(entries, what):
    """The [x, y] integer pairs of a JSON list, as tuples; PosetError for
    anything else.  Parsed JSON passes one whole-list type check (exact
    list and int types, so no bool); only a list that fails it is walked
    entry by entry, to name the first bad entry."""
    if not isinstance(entries, list):
        raise PosetError(f"{what} must be a list")
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}
            and {type(v) for p in entries for v in p} <= {int}):
        for p in entries:
            if not (isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))):
                raise PosetError(f"{what} entry {p!r} is not a pair of integers")
    return list(map(tuple, entries))


def from_json_dict(doc):
    """Parse the JSON format above; PosetError on malformed documents."""
    if not isinstance(doc, dict):
        raise PosetError("a poset document must be a JSON object")
    missing = [k for k in ("n", "elements", "covers") if k not in doc]
    if missing:
        raise PosetError(f"poset document lacks {', '.join(missing)}")
    if not _is_int(doc["n"]):
        raise PosetError("n must be an integer")
    entries = doc["elements"]
    if not isinstance(entries, list):
        raise PosetError("elements must be a list")
    # as in `int_pairs`: only a list that fails one whole-list check is walked
    ranks = ({e["id"]: e["rank"] for e in entries} if set(map(type, entries)) <= {dict}
             and {type(e.get(k)) for e in entries for k in ("id", "rank")} <= {int} else {})
    if len(ranks) != len(entries):
        ranks = {}
        for entry in entries:
            if not (isinstance(entry, dict) and _is_int(entry.get("id"))
                    and _is_int(entry.get("rank"))):
                raise PosetError(f"element {entry!r} needs an integer id and rank")
            if entry["id"] in ranks:
                raise PosetError(f"duplicate element id {entry['id']}")
            ranks[entry["id"]] = entry["rank"]
    labels = {e["id"]: e["label"] for e in entries if "label" in e}
    if ranks.get(0) != 0:
        raise NoBottom("JSON posets must use id 0 for the bottom element")
    return GradedPoset.from_covers(doc["n"], ranks,
                                   int_pairs(doc["covers"], "covers"),
                                   labels=labels)


def to_json(P, indent=None):
    return json.dumps(to_json_dict(P), indent=indent, sort_keys=True)


def from_json(text):
    return from_json_dict(json.loads(text))
