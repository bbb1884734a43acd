#!/usr/bin/env python3
"""Monte Carlo verification of the stochastic splitting events.

Draws seeded trials from the designed model (exception term present with
probability 1/m) and checks the per-(m, n) event frequencies against their
1 - 1/m bounds, printing the estimated s(m) against the design value.

Usage: python scripts/stochastic_acs.py [trials] [seed]
"""

import sys

from gltlab.acs import designed_model, sacs_check


def main() -> int:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 10**4
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20260808
    m_list = [2, 4, 8]
    cert = sacs_check(designed_model(seed), m_list, [(16,), (24,)], trials)
    print(f"trials per (m, n): {trials}, seed {seed}, "
          f"Hoeffding radius {cert.metadata['hoeffding_radius']:.4f}")
    print(" m   s_est     design 1/m")
    for m in m_list:
        print(f"{m:2d}   {cert.facts['s_estimates'][str(m)]:<8.4f}  {1.0 / m:.4f}")
    print(f"verdict: {'PASS' if cert.passed else 'FAIL'}")
    return 0 if cert.passed else 1


if __name__ == "__main__":
    sys.exit(main())
