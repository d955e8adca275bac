#!/usr/bin/env python3
"""Norm-convention experiment for magic squares.

For each exponent pair, measures the brute-force operator norm under both
uniform measure conventions (weights 1 and weights 1/n) and both exponent
orderings, and tabulates the relative gap to the closed form
alpha * n**(1/q - 1/p).  The table shows which convention/ordering realizes
the closed form; nothing is asserted.  The CSV is the one
``glsx check-super-exact --order N --pairs ... --format csv`` writes.
"""
import argparse
import sys

from glsx.cli import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--pairs", default="1:inf,2:4,1:2")
    ap.add_argument("--resolution", type=int, default=240)
    ap.add_argument("--output", default="convention_table.csv")
    args = ap.parse_args()
    return run(["check-super-exact", "--order", str(args.order), "--pairs", args.pairs,
                "--resolution", str(args.resolution), "--format", "csv",
                "--output", args.output])


if __name__ == "__main__":
    sys.exit(main())
