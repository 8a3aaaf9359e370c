"""One-shot library script: sublevel-resolved magic-wavelength searches.

No CLI flag reaches ``find_magic``'s ``m1``/``m2``/``pol`` arguments, so the
benchmark runs this script in a fresh interpreter instead. For each ``--m2``
value it writes the roots to the matching ``--out`` file as
``{"points": [{lambda_nm, residual_au, bracket_nm}]}``.

    python bench/sublevel.py --species sr87 --state1 1S0 --state2 3P1 \
        --m2 1 -1 --pol circular --from 300nm --to 3000nm --out up.json down.json
"""

from __future__ import annotations

import argparse
import json
import sys

from magictrap import atomdata, fieldtrap, polarizability


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="sublevel.py")
    p.add_argument("--species", required=True)
    p.add_argument("--state1", required=True)
    p.add_argument("--state2", required=True)
    p.add_argument("--m2", type=int, nargs="+", required=True)
    p.add_argument("--pol", choices=("linear", "circular"), required=True)
    p.add_argument("--from", dest="lo", required=True)
    p.add_argument("--to", dest="hi", required=True)
    p.add_argument("--out", nargs="+", required=True)
    args = p.parse_args(argv)
    if len(args.out) != len(args.m2):
        p.error("give one --out file per --m2 value")

    species = atomdata.load_species(atomdata.bundled_species_path(args.species))
    pol = (fieldtrap.LinearPolarization() if args.pol == "linear"
           else fieldtrap.CircularPolarization(+1))
    lo = float(args.lo.removesuffix("nm")) * 1e-9
    hi = float(args.hi.removesuffix("nm")) * 1e-9
    for m2, out in zip(args.m2, args.out):
        found = polarizability.find_magic(species, args.state1, args.state2, (lo, hi),
                                          pol=pol, m1=0, m2=m2)
        points = [{"lambda_nm": p.wavelength_m * 1e9, "residual_au": p.residual_au,
                   "bracket_nm": [p.bracket_m[0] * 1e9, p.bracket_m[1] * 1e9]}
                  for p in found]
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"points": points}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
