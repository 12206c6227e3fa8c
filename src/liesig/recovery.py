"""Geometric invariants recovered from the rescaled trace spectrum.

Everything here consumes the moment sequence r_{2k} = E[d(e,g)^{2k}] (plus,
for the small-ball asymptotics, sampled distances) and produces:

  * L^k norms of the squared distance: r_{2k}^(1/k),
  * the diameter, as the limit of r_{2k}^(1/(2k)); a log-linear fit
    log r_{2k} = 2k log D - c log(2k) + b over the top ``FIT_WINDOW`` (half)
    of the available levels absorbs the polynomial prefactor that makes the
    raw limit converge only like O(log k / k),
  * the ball-volume function F(R) by polynomial moment pairing: a mollified
    indicator of [0, R^2] is Chebyshev-projected on [0, B] and its monomial
    coefficients are paired with the moments.  The pairing is evaluated in
    mpmath with precision scaled to the degree, because monomial
    re-expansion amplifies relative moment error by ~10^(0.77 degree);
    spectra carrying mp_values (the deterministic constructors) are exact
    inputs, float64 spectra are only usable at small degree: a pairing
    whose amplification times the moments' storage rounding (2^-52 for
    float64) exceeds PAIRING_TOL raises FitFailure instead of returning a
    clamped guess.  The sums run in fixed point at wp = prec + 32 bits:
    node values, cosines and scaled moments become integers in units of
    2^-wp, and the Chebyshev sums, the monomial re-expansion and the
    pairing are exact integer sums.  erfc is 0 or 2 where it saturates;
    elsewhere it is an integer Taylor step from the nearest of a table of
    anchors, to absolute accuracy 2^-wp, and no mpmath erf or erfc is
    called.  The nodes, the integer cosine table and the integer rows of
    T_m(2u - 1) are cached per (degree, precision), the erfc anchors per
    precision,
  * dimension, volume, and scalar curvature from the small-ball expansion
    F(eps) = (w_n / V) eps^n (1 - S eps^2 / (6(n+2)) + O(eps^3)),
    fit on the radii ``EPS_GRID`` against an empirical radial CDF.

The empirical CDF supports plain seeded Monte Carlo ("iid", binomial
errors) and a chunked scrambled-Sobol scheme ("qmc"), both chunked and
threaded by ``groups.map_chunks``.  The qmc scheme stratifies each chunk of
2^21 draws, shrinking CDF error from N^(-1/2) towards N^(-1); the curvature
fit needs that: at 10^7 iid samples the binomial Fisher bound on the fitted
S is several times looser than the accuracy the qmc route delivers, so
``recover`` uses qmc.  Standard errors stay binomial (conservative for qmc).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np
import mpmath as mp

from .groups import haar_distances, map_chunks, stream
from .spectra import IID_CHUNK, TraceSpectrum, spectrum_monte_carlo

__all__ = [
    "AmbiguousDimension",
    "FitFailure",
    "DiameterEstimate",
    "SmallBallFit",
    "RecoveryReport",
    "lk_norm",
    "diameter_estimate",
    "unit_ball_volume",
    "ball_volume_from_moments",
    "RadialCdfEstimator",
    "small_ball_recovery",
    "recover",
]

QMC_CHUNK = 1 << 21
# largest error bound a moment pairing may carry (criterion 7's tolerance)
PAIRING_TOL = 0.02
# fixed settings of the diameter fit, the small-ball fit and the F(R) table
FIT_WINDOW = 0.5
DIAMETER_MIN_K = 4
EPS_GRID = tuple(np.geomspace(0.05, 0.3, 8))
ROUND_TOLERANCE = 0.35
TABLE_RADII = 12
# ``_erfc_fixed`` steps from anchors 2^-_ERFC_STEP apart and works
# _ERFC_GUARD bits below its 2^-wp unit.  Its error is at most 1/2 unit
# (final rounding) + 1/4 (series tail) + the integer roundings.  Those add
# under 2.5 units of 2^-(wp+20) per anchor-table step plus the longest term
# count, below 2^13 units (1/128 of 2^-wp) up to wp ~ 10^4; the table's
# worst error measured 219 units at wp 600 and 378 at wp 1500
_ERFC_STEP = 4
_ERFC_GUARD = 20


class AmbiguousDimension(RuntimeError):
    """log-log slope is too far from an integer to round safely."""


class FitFailure(RuntimeError):
    """The small-ball least-squares fit produced an unusable result."""


def lk_norm(spec: TraceSpectrum, k: int) -> float:
    """L^k norm of d(e,g)^2 under the normalised Haar measure: r_{2k}^(1/k)."""
    if not 1 <= k <= spec.K:
        raise ValueError(f"k must be in 1..{spec.K}")
    return float(spec.values[k]) ** (1.0 / k)


@dataclass(frozen=True)
class DiameterEstimate:
    value: float
    raw_sequence: np.ndarray  # r_{2k}^(1/(2k)), k = 1..K
    fit_ks: np.ndarray
    coefficients: tuple  # (log D, prefactor exponent c, intercept b)
    residual_rms: float

    def to_json_dict(self) -> dict:
        return {
            "diameter": self.value,
            "raw_sequence": self.raw_sequence.tolist(),
            "fit_window": [int(self.fit_ks[0]), int(self.fit_ks[-1])],
            "coefficients": list(self.coefficients),
            "residual_rms": self.residual_rms,
        }


def diameter_estimate(spec: TraceSpectrum) -> DiameterEstimate:
    """Diameter from the spectrum tail.

    Fits log r_{2k} = 2k log D - c log(2k) + b by least squares over the top
    ``FIT_WINDOW`` of available k and reports D, together with the raw
    sequence r_{2k}^(1/(2k)) (non-decreasing for exact spectra).
    """
    K = spec.K
    if K < DIAMETER_MIN_K:
        raise ValueError(f"diameter estimation needs K >= {DIAMETER_MIN_K}")
    ks = np.arange(1, K + 1)
    raw = spec.values[1:] ** (1.0 / (2.0 * ks))
    lo = max(2, math.ceil(K * FIT_WINDOW))
    sel = ks[ks >= lo]
    vals = spec.values[sel]
    if np.any(vals <= 0):
        raise FitFailure("non-positive spectrum values in the fit window")
    y = np.log(vals)
    X = np.column_stack([2.0 * sel, -np.log(2.0 * sel), np.ones(sel.size)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return DiameterEstimate(
        value=float(math.exp(coef[0])),
        raw_sequence=raw,
        fit_ks=sel,
        coefficients=tuple(float(c) for c in coef),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit n-ball, pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    from scipy.special import gammaln

    return math.exp(0.5 * n * math.log(math.pi) - gammaln(0.5 * n + 1.0))


# -- polynomial moment inversion -------------------------------------------


@functools.lru_cache(maxsize=None)
def _chebyshev_tables(degree: int, wp: int):
    """Nodes, cosine rows and monomial rows of the degree-``degree`` projection.

    With M = 2 degree + 33 nodes at angles pi (2j+1) / (2M), every
    cos(m angle_j) is cos(pi k / (2M)) for k = m (2j+1) mod 4M: one table of
    4M entries from M ``mp.cos`` calls and the symmetries of cos.  The
    entries are integers in units of 2^-wp, shared by the rows.  The nodes
    are (1 + table[2j+1]) / 2 as mpf at wp bits.  ``int_rows[m]`` holds the
    exact integer coefficients of T_m(2u - 1) in powers of u.
    """
    M = 2 * degree + 33
    with mp.workprec(wp):
        quarter = [mp.cos(mp.pi * k / (2 * M)) for k in range(M)] + [mp.mpf(0)]
        half = quarter + [-quarter[k] for k in range(M - 1, -1, -1)]  # k = 0..2M
        nodes = [(1 + half[2 * j + 1]) / 2 for j in range(M)]
    half = [mp.libmp.to_fixed(h._mpf_, wp) for h in half]
    table = half + half[2 * M - 1 : 0 : -1]  # k = 0..4M-1
    cos_rows = [[table[m * (2 * j + 1) % (4 * M)] for j in range(M)] for m in range(degree + 1)]
    int_rows = [[1], [-1, 2]]
    for _ in range(2, degree + 1):
        prev, cur = int_rows[-2], int_rows[-1]
        nxt = [0] + [4 * cj for cj in cur]
        for j, cj in enumerate(cur):
            nxt[j] -= 2 * cj
        for j, cj in enumerate(prev):
            nxt[j] -= cj
        int_rows.append(nxt)
    return nodes, cos_rows, int_rows


def _erfc_terms(j, hbits, bits):
    """Series terms that bring a step of up to 2^-hbits from x0 = j 2^-_ERFC_STEP
    within 2^-bits.

    Around x0, erfc(x0 + h) = erfc(x0) - D h sum_n q_n / (n + 1), with
    D = (2/sqrt(pi)) e^(-x0^2) and q_n = p_n h^n, p_n the Taylor coefficients
    of e^(-2 x0 t - t^2).  For |h| <= H = 2^-hbits, |q_n| <= r_n with r_0 = 1,
    r_1 = a, r_(n+1) = (a r_n + b r_(n-1)) / (n + 1), a = 2 x0 H, b = 2 H^2.
    For n >= N - 1, V_n = max(r_n, k r_(n-1)) shrinks by k = (a + sqrt(a^2 +
    4 b N)) / (2 N) per step, so the terms n >= N add at most
    V_(N-1) k / ((1 - k)(N + 1)).  Returns the least N whose bound, times
    D H, is at most 2^-bits; the budget's 2^-10 slack in log2 covers the
    rounding of the floats.
    """
    x0 = math.ldexp(j, -_ERFC_STEP)
    a, b = math.ldexp(x0, 1 - hbits), math.ldexp(1, 1 - 2 * hbits)
    budget = x0 * x0 * math.log2(math.e) - math.log2(2 / math.sqrt(math.pi)) + hbits - bits - 2**-10
    # r_(N-2) and r_(N-1) times 2^-scale, kept above about 2^-320, so a
    # limit too small for a normal float is never reached
    r_prev, r, scale = 0.0, 1.0, 0
    lim = 2.0**budget
    for N in itertools.count(1):
        k = (a + math.sqrt(a * a + 4 * b * N)) / (2 * N)
        if k < 1 and max(r, k * r_prev) * k <= lim * (1 - k) * (N + 1):
            return N
        r_prev, r = r, (a * r + b * r_prev) / N
        if r < 2.0**-300 and r_prev < 2.0**-300:
            r_prev, r, scale = r_prev * 2.0**300, r * 2.0**300, scale - 300
            lim = 2.0 ** (budget - scale)


def _erfc_offset(j, hf, terms, d, fp):
    """D h sum_(n < terms) q_n / (n + 1) (``_erfc_terms``) in units of 2^-fp,
    at x0 = j 2^-_ERFC_STEP, h = hf 2^-fp and D = d 2^-fp; every shift and
    division floors."""
    shift = fp + _ERFC_STEP - 1
    A = -j * hf  # -2 x0 h in units of 2^-shift
    C = -((hf * hf) >> (fp - _ERFC_STEP))  # -2 h^2 in the same units
    q_prev, q = 0, 1 << fp
    s = q
    for n in range(1, terms):
        q_prev, q = q, ((A * q + C * q_prev) >> shift) // n
        s += q // (n + 1)
    return (d * hf * s) >> (2 * fp)


@functools.lru_cache(maxsize=None)
def _erfc_anchors(wp):
    """erfc and D = (2/sqrt(pi)) e^(-x0^2) at the anchors x0 = j 2^-_ERFC_STEP.

    Both are in units of 2^-fp, fp = wp + _ERFC_GUARD.  D comes from one
    ``mp.exp`` per anchor.  erfc is stepped forward from erfc(0) = 1, one
    anchor at a time, with terms for 2^-(fp+2) per step; for h > 0 the sum
    is the mean of e^(-2 x0 t - t^2) over [0, h], at most 1, so an error in
    D adds at most 2^-_ERFC_STEP units per step.  The anchors reach one past
    the saturation point of ``_erfc_fixed`` at wp.  Also returns the term
    count of an evaluation, |h| <= 2^-(_ERFC_STEP+1), to 2^-(wp+2), per anchor.
    """
    fp = wp + _ERFC_GUARD
    step = 1 << (fp - _ERFC_STEP)
    top = int(math.ldexp(math.sqrt((wp + 8) / math.log2(math.e)), _ERFC_STEP) + 0.5) + 1
    with mp.workprec(fp + 16):
        scale = 2 / mp.sqrt(mp.pi)
        d = [scale * mp.exp(-mp.ldexp(j, -_ERFC_STEP) ** 2) for j in range(top + 1)]
    d = [mp.libmp.to_fixed(dj._mpf_, fp) for dj in d]
    e = [1 << fp]
    for j in range(top):
        e.append(e[j] - _erfc_offset(j, step, _erfc_terms(j, _ERFC_STEP, fp + 2), d[j], fp))
    return fp, e, d, [_erfc_terms(j, _ERFC_STEP + 1, wp + 2) for j in range(top + 1)]


def _erfc_fixed(x, wp):
    """erfc(x) in units of 2^-wp, to absolute accuracy 2^-wp.

    erfc(x) <= exp(-x^2) for x >= 0, so past x^2 log2(e) > wp + 8 it is 0.
    Below that, x is floored to units of 2^-fp and stepped from the nearest
    anchor (``_erfc_anchors``) by a Taylor series whose term count bounds
    its tail by a quarter unit (``_erfc_terms``).  The integer roundings stay
    far below a unit (``_ERFC_GUARD``), and the result is rounded to the
    nearest unit of 2^-wp.  Negative x reflects.
    """
    if x < 0:
        return (2 << wp) - _erfc_fixed(-x, wp)
    t = float(x) ** 2 * math.log2(math.e)
    if t > wp + 8:
        return 0
    fp, e, d, terms = _erfc_anchors(wp)
    xf = mp.libmp.to_fixed(x._mpf_, fp)
    j = (xf + (1 << (fp - _ERFC_STEP - 1))) >> (fp - _ERFC_STEP)
    hf = xf - (j << (fp - _ERFC_STEP))
    v = e[j] - _erfc_offset(j, hf, terms[j], d[j], fp)
    return (v + (1 << (_ERFC_GUARD - 1))) >> _ERFC_GUARD


def _mollified_indicator_monomials(c, sigma, degree):
    """Monomial coefficients (in u on [0,1]) of the Chebyshev projection of a
    reflected erf step: erfc((u-c)/..)/2 - erfc((u+c)/..)/2.

    The reflection kills the spurious half-weight that a plain mollified
    step would place on the point mass-free region u < 0, so F(0) comes out
    ~0 instead of ~sqrt(sigma).  Returns (a, wp): the coefficients are the
    integers a_j in units of 2^-wp, wp = mp.prec + 32, each exact sum of
    fixed-point node values and cosines.
    """
    wp = mp.mp.prec + 32
    nodes, cos_rows, int_rows = _chebyshev_tables(degree, wp)
    M = len(nodes)
    with mp.workprec(wp):
        rt2s = mp.sqrt(2) * sigma
        fv = [(_erfc_fixed((u - c) / rt2s, wp) - _erfc_fixed((u + c) / rt2s, wp)) >> 1 for u in nodes]
    b = [(sum(map(operator.mul, fv, row)) >> wp) * (2 if m else 1) // M for m, row in enumerate(cos_rows)]
    # sum_m b_m T_m(2u - 1) in powers of u
    a = [0] * (degree + 1)
    for bm, row in zip(b, int_rows):
        for j, cj in enumerate(row):
            a[j] += bm * cj
    return a, wp


def ball_volume_from_moments(
    spec: TraceSpectrum,
    R: float,
    degree: int,
    dmax: float | None = None,
    full_output: bool = False,
):
    """F(R) by pairing moments with a polynomial approximation of 1_[0, R^2].

    The indicator is mollified with width h = B / degree (B the working
    domain), projected onto Chebyshev polynomials of the requested degree,
    re-expanded in monomials, and paired with the moments r_{2j}.  The
    domain is B = (1.05 dmax)^2 -- the 5% head-room keeps the measure's
    support strictly inside the approximation interval, where the projection
    error is controlled.  Clamped to [0, 1].

    ``dmax`` must be finite and positive (``ValueError``).  A measure on
    [0, B] has scaled moments r_{2j} / B^j non-increasing in j, so
    ``FitFailure`` is raised when they increase: ``dmax`` then understates
    the support and the pairing would return a clamped guess.  The check is
    necessary, not sufficient: dmax = 2.95 on the circle (diameter pi)
    passes it.

    Each moment carries at least its storage rounding (10^-dps relative for
    exact mp_values, 2^-52 for float64), so the error bound is amplification
    times that rounding; ``FitFailure`` is raised unless it is at most
    ``PAIRING_TOL``.  ``full_output`` adds the bound to the info dict.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree > spec.K:
        raise ValueError(f"degree {degree} exceeds available moments (K={spec.K})")
    if dmax is None:
        dmax = diameter_estimate(spec).value
    if not (math.isfinite(dmax) and dmax > 0):
        raise ValueError(f"dmax must be finite and positive, got {dmax}")
    if not 0.0 <= R <= dmax * (1.0 + 1e-9):
        raise ValueError(f"R must lie in [0, {dmax}]")
    dps = 50 + 2 * degree
    with mp.workdps(dps):
        B = (mp.mpf("1.05") * mp.mpf(dmax)) ** 2
        if spec.mp_values is not None:
            mom = [spec.mp_values[j] / B**j for j in range(degree + 1)]
        else:
            mom = [mp.mpf(float(spec.values[j])) / B**j for j in range(degree + 1)]
        if any(b > a for a, b in zip(mom, mom[1:])):
            raise FitFailure(f"scaled moments r_2j/B^j rise with j: dmax {dmax:.6g} understates the support")
        c = mp.mpf(R) ** 2 / B
        sigma = mp.mpf(1) / (4 * degree)  # = (B/degree)/4 in u units
        a, wp = _mollified_indicator_monomials(c, sigma, degree)
        fixed = [mp.libmp.to_fixed(m._mpf_, wp) for m in mom]
        F = mp.ldexp(sum(map(operator.mul, a, fixed)), -2 * wp)
        amplification = mp.ldexp(sum(map(operator.mul, map(abs, a), fixed)), -2 * wp)
        rounding = mp.mpf(10) ** -dps if spec.mp_values is not None else mp.mpf(2) ** -52
        error_bound = float(amplification * rounding)
        out = min(1.0, max(0.0, float(F)))
    if not error_bound <= PAIRING_TOL:
        raise FitFailure(
            f"degree {degree} pairing amplifies moment rounding by {float(amplification):.3g}: "
            f"error bound {error_bound:.3g} exceeds {PAIRING_TOL}"
        )
    if full_output:
        info = {
            "domain": float(B),
            "sigma_u": float(sigma),
            "amplification": float(amplification),
            "exact_moments": spec.mp_values is not None,
            "dps": dps,
            "error_bound": error_bound,
        }
        return out, info
    return out


# -- empirical ball volumes --------------------------------------------------


def _radii(model, samples: int, seed: int, scheme: str, threads: int) -> np.ndarray:
    """Distances d(e, g) of ``samples`` Haar draws, from uniforms alone.

    iid chunk c is ``haar_distances`` on stream(seed, c), the distances of
    the Monte Carlo spectrum's chunk c; qmc chunk c maps Sobol points
    scrambled with a seed from SeedSequence((seed, c)) through
    ``model.distance_from_uniforms``.  Each chunk writes its own slice, so
    the radii do not depend on ``threads``.
    """
    if scheme == "qmc":
        # scipy's first load comes before the radii buffer, not on top of it in peak RSS
        from scipy.stats import qmc
    out = np.empty(samples)

    def iid(c, start, size):
        out[start : start + size] = haar_distances(model, stream(seed, c), size)

    def sobol(c, start, size):
        sob_seed = int(np.random.SeedSequence((seed, c)).generate_state(1)[0])
        u = qmc.Sobol(model.radial_uniform_dim, scramble=True, seed=sob_seed).random(size)
        out[start : start + size] = model.distance_from_uniforms(u)

    fn, chunk = (iid, IID_CHUNK) if scheme == "iid" else (sobol, QMC_CHUNK)
    # the filters are process-wide, so they also cover the pool's workers
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*balance properties of Sobol.*")
        list(map_chunks(fn, samples, chunk, threads))
    return out


class RadialCdfEstimator:
    """Empirical CDF of d(e, g) from one seeded sample stream.

    Calling it at radius R returns (fraction of distances <= R, binomial
    standard error).  ``threads`` changes only how fast the distances are
    drawn, never their values.
    """

    def __init__(self, model, samples: int, seed: int, scheme: str = "qmc", threads: int = 1):
        if scheme not in ("iid", "qmc"):
            raise ValueError("scheme must be 'iid' or 'qmc'")
        radii = _radii(model, samples, seed, scheme, threads)
        radii.sort()
        self.samples = samples
        self._radii = radii

    def __call__(self, R: float) -> tuple[float, float]:
        F = float(np.searchsorted(self._radii, R, side="right")) / self.samples
        se = math.sqrt(max(F * (1.0 - F), 1e-30) / self.samples)
        return F, se


# -- small-ball asymptotics ---------------------------------------------------


@dataclass(frozen=True)
class SmallBallFit:
    dimension: int
    dimension_raw: float
    volume: float
    scalar_curvature: float
    diagnostics: dict = field(default_factory=dict)


def small_ball_recovery(F) -> SmallBallFit:
    """Dimension, volume, and scalar curvature from small-ball volumes.

    F is a callable R -> (value, standard error), read at ``EPS_GRID``.  The
    dimension is the weighted log-log slope rounded to a positive integer,
    which must lie within ``ROUND_TOLERANCE``; volume and curvature come from
    a joint weighted fit of F(eps) = (w_n / V) eps^n (1 - S eps^2 / (6(n+2)))
    with n pinned to that integer.
    """
    eps = np.array(EPS_GRID)
    vals, ses = np.array([F(e) for e in eps]).T
    keep = vals > 0
    if keep.sum() < 4:
        raise FitFailure("fewer than 4 grid radii carry any sample mass")
    eps, vals, ses = eps[keep], vals[keep], ses[keep]

    # dimension: weighted slope of log F against log eps
    w = (vals / ses) ** 2
    w = w / w.sum()
    x, y = np.log(eps), np.log(vals)
    xb, yb = float(w @ x), float(w @ y)
    slope = float(w @ ((x - xb) * (y - yb))) / float(w @ ((x - xb) ** 2))
    n = round(slope)
    if n < 1 or abs(slope - n) > ROUND_TOLERANCE:
        raise AmbiguousDimension(
            f"log-log slope {slope:.3f} is not within {ROUND_TOLERANCE} of a positive integer"
        )

    # joint (V, S): F/(w_n eps^n) = alpha - beta eps^2 with alpha = 1/V
    wn = unit_ball_volume(n)
    yy = vals / (wn * eps**n)
    sy = ses / (wn * eps**n)
    A = np.column_stack([np.ones_like(eps), -(eps**2)])
    sw = 1.0 / sy
    beta_hat, *_ = np.linalg.lstsq(A * sw[:, None], yy * sw, rcond=None)
    alpha, beta = float(beta_hat[0]), float(beta_hat[1])
    if alpha <= 0:
        raise FitFailure("fitted volume is not positive")
    V = 1.0 / alpha
    S = 6.0 * (n + 2) * beta / alpha
    resid = (A @ beta_hat - yy) * sw
    return SmallBallFit(
        dimension=n,
        dimension_raw=slope,
        volume=V,
        scalar_curvature=S,
        diagnostics={
            "eps_grid": eps.tolist(),
            "F": vals.tolist(),
            "stderr": ses.tolist(),
            "slope": slope,
            "fit_residual_rms": float(np.sqrt(np.mean(resid**2))),
        },
    )


# -- full pipeline ------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    diameter: float
    dimension: int
    dimension_raw: float
    volume: float
    scalar_curvature: float
    ball_volume_table: list  # [(R, F), ...]
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "diameter": self.diameter,
            "dimension": {"raw": self.dimension_raw, "rounded": self.dimension},
            "volume": self.volume,
            "scalar_curvature": self.scalar_curvature,
            "F_table": [[r, f] for r, f in self.ball_volume_table],
            "diagnostics": self.diagnostics,
        }

    def csv_rows(self) -> list[list]:
        rows = [["kind", "index", "x", "value"]]
        for i, (r, f) in enumerate(self.ball_volume_table):
            rows.append(["F_table", i, r, f])
        raw = self.diagnostics.get("diameter", {}).get("raw_sequence", [])
        for i, v in enumerate(raw, start=1):
            rows.append(["diameter_raw", i, 2 * i, v])
        return rows


def recover(
    model,
    samples: int = 10**7,
    seed: int = 0,
    K: int = 8,
    threads: int = 1,
) -> RecoveryReport:
    """Spectrum -> diameter -> F -> small-ball pipeline.

    The Monte Carlo spectrum feeds the diameter estimate; the ball-volume
    table (``TABLE_RADII`` radii) and the small-ball fit (at ``EPS_GRID``)
    use the qmc radial CDF from the same seed.
    """
    if K < DIAMETER_MIN_K:  # diameter_estimate's refusal, before any draw
        raise ValueError(f"diameter estimation needs K >= {DIAMETER_MIN_K}")
    spec = spectrum_monte_carlo(model, K, samples, seed, threads=threads)
    diam = diameter_estimate(spec)
    radial = RadialCdfEstimator(model, samples, seed, threads=threads)
    fit = small_ball_recovery(radial)
    # reports promise a tighter slope-to-integer gap than ROUND_TOLERANCE
    if abs(fit.dimension_raw - fit.dimension) > 0.2:
        raise AmbiguousDimension(
            f"slope {fit.dimension_raw:.3f} too uncertain for a trustworthy report"
        )
    table = []
    for R in np.linspace(0.05 * diam.value, diam.value, TABLE_RADII):
        table.append((float(R), radial(float(R))[0]))
    diagnostics = {
        "diameter": diam.to_json_dict(),
        "small_ball": fit.diagnostics,
        "spectrum": spec.to_json_dict(),
        "scheme": "qmc",
        "samples": samples,
        "seed": seed,
    }
    return RecoveryReport(
        diameter=diam.value,
        dimension=fit.dimension,
        dimension_raw=fit.dimension_raw,
        volume=fit.volume,
        scalar_curvature=fit.scalar_curvature,
        ball_volume_table=table,
        diagnostics=diagnostics,
    )
