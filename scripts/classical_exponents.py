#!/usr/bin/env python3
"""Local exponents of one-parameter period systems for the A_k series.

For f = u1^2 + u2^(k+1) the staircase basis has weights l_j, and the system
on the critical-value line has exponents (l_j - p0) / p0; classically these
are j/(k+1) - 1/2 for j = 1..k.  The table below is computed from scratch
and compared against that closed form; the script prints MISMATCH and exits 1
when they differ or the pencil determinant does not factor over the
predicted exponents.  The package is imported from the checkout's src:

    python scripts/classical_exponents.py
"""

import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lerayfront.brieskorn import gm_matrices  # noqa: E402
from lerayfront.errors import NotApplicableError  # noqa: E402
from lerayfront.gaussmanin import assemble_system, residue_exponents_K1  # noqa: E402
from lerayfront.phase import make_icis  # noqa: E402
from lerayfront.poly import MultiPoly  # noqa: E402


def a_k(k: int):
    ring = ("u1", "u2")
    u1 = MultiPoly.variable(ring, "u1")
    u2 = MultiPoly.variable(ring, "u2")
    g = gcd(k + 1, 2)
    return make_icis([u1**2 + u2 ** (k + 1)], ((k + 1) // g, 2 // g))


def main() -> int:
    print(f"{'k':>2} {'mu':>3}  computed exponents      closed form")
    mismatches = 0
    for k in range(1, 7):
        icis = a_k(k)
        gm = gm_matrices(icis)
        data = assemble_system(gm, icis)
        expected = sorted(Fraction(j, k + 1) - Fraction(1, 2) for j in range(1, k + 1))
        try:
            got = [str(e) for e in residue_exponents_K1(data)]
        except NotApplicableError as err:
            got = f"({err})"
        mark = "ok" if got == [str(e) for e in expected] else "MISMATCH"
        mismatches += mark != "ok"
        print(f"{k:>2} {data.mu:>3}  {got}  {mark}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
