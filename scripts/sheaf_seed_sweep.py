#!/usr/bin/env python3
"""Genericity experiment: sweep seeds through the C/D coefficient
extraction on one poset and report the distribution of extracted values
per cd-word (a correct run is constant across seeds).  Exits 1 when any
word is unstable across seeds or disagrees with flag enumeration.

Usage: python scripts/sheaf_seed_sweep.py [poset.json] [--sweeps N]
Defaults to the 3-cube when no file is given.
"""

import argparse
import sys
from collections import Counter

from posetlab import constructions as cons
from posetlab import flags, poset, sheaves
from posetlab.ncpoly import cd_words, to_text


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("poset", nargs="?", help="poset JSON file (default: 3-cube)")
    ap.add_argument("--sweeps", type=int, default=100)
    args = ap.parse_args()
    if args.poset:
        with open(args.poset, "r", encoding="utf-8") as fh:
            P = poset.from_json(fh.read())
    else:
        P = cons.cube_poset(3)
    want = flags.cd_index(P)
    failed = False
    print(f"rank {P.n}, {len(P)} elements, flag cd-index: {to_text(want)}")
    for w in cd_words(P.n):
        runs = args.sweeps if "d" in w else 1
        values = Counter(sheaves.cd_coefficient_via_CD(P, w, seed=s)
                         for s in range(runs))
        status = "stable" if len(values) == 1 else "UNSTABLE"
        ok = "match" if set(values) == {want.coeff(w)} else "MISMATCH"
        print(f"  {w:<8} {dict(values)}  ({runs} seeds, {status}, {ok})")
        failed = failed or status != "stable" or ok != "match"
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
