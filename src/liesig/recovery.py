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
    pairing are exact integer sums.  erfc is evaluated only where it is
    not saturated, at the relative precision that absolute accuracy 2^-wp
    needs.  The nodes, the integer cosine table and the integer rows of
    T_m(2u - 1) are cached per (degree, precision),
  * dimension, volume, and scalar curvature from the small-ball expansion
    F(eps) = (w_n / V) eps^n (1 - S eps^2 / (6(n+2)) + O(eps^3)),
    fit on the radii ``EPS_GRID`` against an empirical radial CDF.

The empirical CDF supports plain seeded Monte Carlo ("iid", binomial
errors) and a chunked scrambled-Sobol scheme ("qmc"), both chunked and
threaded by ``groups.map_chunks``.  The qmc scheme stratifies each chunk of
2^21 draws, shrinking CDF error from N^(-1/2) towards N^(-1); the curvature
fit needs that: at 10^7 iid samples the binomial Fisher bound on the fitted
S is several times looser than the accuracy the qmc route delivers.
Reported standard errors stay binomial, which is conservative for qmc.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np
import mpmath as mp
from scipy.special import gammaln
from scipy.stats import qmc

from .groups import map_chunks, stream
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
EPS_GRID = tuple(np.geomspace(0.05, 0.3, 8))
ROUND_TOLERANCE = 0.35
TABLE_RADII = 12


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
    if K < 4:
        raise ValueError("diameter estimation needs K >= 4")
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


def _erfc_fixed(x, wp):
    """erfc(x) in units of 2^-wp, to absolute accuracy 2^-wp.

    erfc(x) <= exp(-x^2) for x >= 0, so past x^2 log2(e) > wp + 8 it is 0,
    and below that wp + 1 - floor(x^2 log2(e)) bits of relative precision
    and rounding to the nearest unit are enough; mpmath would otherwise run
    its 1 - erf series at twice the bits.  Negative x reflects.
    """
    if x < 0:
        return (2 << wp) - _erfc_fixed(-x, wp)
    t = float(x) ** 2 * math.log2(math.e)
    if t > wp + 8:
        return 0
    with mp.workprec(wp + 1 - int(t)):
        v = mp.erfc(x)._mpf_
    return mp.libmp.to_int(mp.libmp.mpf_shift(v, wp), "n")


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
    """Distances d(e, g) of ``samples`` Haar draws.

    iid chunk c draws from stream(seed, c); qmc chunk c maps Sobol points
    scrambled with a seed from SeedSequence((seed, c)).  Each chunk writes
    its own slice, so the radii do not depend on ``threads``.
    """
    out = np.empty(samples)

    def iid(c, start, size):
        v = model.sample_log_batch(stream(seed, c), size)
        out[start : start + size] = np.sqrt(np.einsum("bi,bi->b", v, v))

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
    scheme: str = "qmc",
    spectrum: TraceSpectrum | None = None,
) -> RecoveryReport:
    """Spectrum -> diameter -> F -> small-ball pipeline.

    The spectrum route (Monte Carlo moments by default) feeds the diameter
    estimate; the ball-volume table (``TABLE_RADII`` radii) and the
    small-ball fit (at ``EPS_GRID``) use the empirical radial CDF from the
    same seed.
    """
    spec = spectrum if spectrum is not None else spectrum_monte_carlo(
        model, K, samples, seed, threads=threads
    )
    diam = diameter_estimate(spec)
    radial = RadialCdfEstimator(model, samples, seed, scheme=scheme, threads=threads)
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
        "scheme": scheme,
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
