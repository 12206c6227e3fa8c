"""A new group model needs one class: SO(3) through the radial-law protocol.

SO(3) = SU(2)/{+-1} with the metric of SU(2): the distance from the
identity is at most pi/2 and has density (4/pi) sin^2 r there, and the
direction of log g is uniform on S^2.  The class below defines only what
the deterministic layers and ``ProductGroup`` read; it is not a CLI group.
"""

import math

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from liesig.average import average_quadrature
from liesig.groups import CircleGroup, ProductGroup, sphere_moment_level
from liesig.recovery import diameter_estimate
from liesig.spectra import rtr_spectrum, spectrum_quadrature

PI = math.pi


class SO3:
    dim = 3
    radial_uniform_dim = 1

    def radial_moments(self, K, nodes=64):
        x, w = leggauss(nodes)
        r = 0.25 * PI * (x + 1.0)
        weights = 0.25 * PI * w * (4.0 / PI) * np.sin(r) ** 2
        return (r[None, :] ** (2 * np.arange(K + 1)[:, None])) @ weights

    def exact_radial_moments(self, K, dps):
        with mp.workdps(dps):
            return tuple(
                4 / mp.pi * mp.quad(lambda r: r ** (2 * k) * mp.sin(r) ** 2, [0, mp.pi / 2])
                for k in range(K + 1)
            )

    def direction_moment(self, k):
        return sphere_moment_level(k)


def test_so3_spectrum_quadrature():
    spec = spectrum_quadrature(SO3(), 6)
    r2, _ = quad(lambda r: r**2 * (4 / PI) * math.sin(r) ** 2, 0.0, PI / 2, epsabs=1e-14)
    assert abs(spec.values[1] - r2) < 1e-12
    for v, m in zip(spec.values, spec.mp_values):
        assert abs(v - float(m)) <= 1e-12 * float(m)


def test_so3_trace_of_quadrature_average():
    spec = rtr_spectrum(average_quadrature(SO3(), 6), 3)
    assert np.allclose(spec.values, spectrum_quadrature(SO3(), 3).values, rtol=1e-12, atol=0.0)


def test_so3_diameter():
    est = diameter_estimate(spectrum_quadrature(SO3(), 32))
    assert abs(est.value - PI / 2) < 0.01 * PI / 2


def test_so3_in_a_product():
    # squared distances add over factors, so r_2 does too
    spec = spectrum_quadrature(ProductGroup([SO3(), CircleGroup()]), 4)
    so3 = spectrum_quadrature(SO3(), 4).values
    circle = spectrum_quadrature(CircleGroup(), 4).values
    assert abs(spec.values[1] - (so3[1] + circle[1])) < 1e-13
    for v, m in zip(spec.values, spec.mp_values):
        assert abs(v - float(m)) <= 1e-12 * float(m)
