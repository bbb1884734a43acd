#!/usr/bin/env python3
"""Splitting certificate for coefficient truncations of a slowly decaying symbol.

The target sequence has coefficients 1/(1 + k^2); the approximating class
truncates them at degree m.  The norm part is bounded by the coefficient
tail sum, so the certificate passes with rank part zero.

Usage: python scripts/acs_truncation.py [m_list] [sizes]
       python scripts/acs_truncation.py 1,2,4,8 64,128,256
"""

import sys

import numpy as np

from gltlab.acs import acs_check
from gltlab.matgen import toeplitz
from gltlab.symbols import TrigPolynomial


def band_poly(nmax: int) -> TrigPolynomial:
    return TrigPolynomial(
        1, 1, {(k,): [[1.0 / (1.0 + k * k)]] for k in range(-(nmax - 1), nmax)}
    )


def main() -> int:
    m_list = [int(v) for v in (sys.argv[1] if len(sys.argv) > 1 else "1,2,4,8").split(",")]
    sizes = [(int(v),) for v in (sys.argv[2] if len(sys.argv) > 2 else "64,128,256").split(",")]
    target = lambda n: toeplitz(band_poly(n[0]), n)
    family = lambda m, n: toeplitz(band_poly(n[0]).truncated(m), n)
    cert = acs_check(family, target, m_list, sizes)
    ks = np.arange(1, 10**6, dtype=float)
    tail_all = float(np.sum(1.0 / (1.0 + ks**2)))
    print(f"strategy: {cert.metadata['strategy']}")
    print(" m   c(m)      omega(m)   tail bound")
    c, omega = cert.facts["c"], cert.facts["omega"]
    for m in m_list:
        tail = 2.0 * (tail_all - float(np.sum(1.0 / (1.0 + ks[:m] ** 2))))
        print(f"{m:2d}   {c[str(m)]:<8.5f}  {omega[str(m)]:<9.5f}  {tail:.5f}")
    print(f"verdict: {'PASS' if cert.passed else 'FAIL'}")
    return 0 if cert.passed else 1


if __name__ == "__main__":
    sys.exit(main())
