#!/usr/bin/env python3
"""Print rescaled trace spectra for the built-in groups, three ways.

Usage: python scripts/spectra_table.py [K] [samples] [seed]
"""

import math
import sys

from liesig import (
    lk_norm,
    parse_group,
    spectrum_closed_form,
    spectrum_monte_carlo,
    spectrum_quadrature,
)


def main():
    K = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    samples = int(sys.argv[2]) if len(sys.argv) > 2 else 10**6
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0

    for name in ("circle", "su2", "torus:2", "product:circle,su2"):
        model = parse_group(name)
        quad = spectrum_quadrature(model, K)
        mc = spectrum_monte_carlo(model, K, samples, seed)
        print(f"\n== {name} (dim {model.dim}) ==")
        header = f"{'k':>3} {'rtr (quadrature)':>22} {'rtr (MC)':>22} {'MC z':>8}"
        if name in ("circle", "torus:2"):
            cf = spectrum_closed_form(model, K)
            header += f" {'rtr (closed form)':>22}"
        print(header)
        for k in range(K + 1):
            z = 0.0 if mc.stderr[k] == 0 else (mc.values[k] - quad.values[k]) / mc.stderr[k]
            line = f"{2 * k:>3} {quad.values[k]:>22.12e} {mc.values[k]:>22.12e} {z:>8.2f}"
            if name in ("circle", "torus:2"):
                line += f" {cf.values[k]:>22.12e}"
            print(line)
        print(f"L^k norms of d(e,g)^2, k=1..4: "
              + ", ".join(f"{lk_norm(quad, k):.6f}" for k in range(1, 5)))
        if name == "circle":
            print(f"(r_2 = pi^2/3 = {math.pi ** 2 / 3:.12f})")


if __name__ == "__main__":
    main()
