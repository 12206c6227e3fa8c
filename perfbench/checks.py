"""Output checks and the exact references they compare against.

Tolerances are those of liesig's acceptance criteria.  References are
computed here, independently of the library: radial moments by mpmath
quadrature, torus levels from the closed-form angle moments, traces by a
direct contraction of the dense level.  Every check is a pure function of
job outputs, so a test can feed it corrupted values.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

PI = math.pi
SE_BOUND = 4.0  # criteria 3, 4, 5: Monte Carlo within 4 standard errors
RTR_RTOL = 1e-12  # criteria 1, 2, 5: exact rtr
CHORDAL_TOL = 1e-6  # criterion 9
BALL_TOL = 0.02  # criterion 7
DIAMETER_TOL = {"circle": 0.01, "su2": 0.02}  # criterion 6
SU2_RECOVER = dict(n=3, V=2 * PI**2, vtol=0.03, S=6.0, stol=0.9)  # criterion 8


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str
    # a defect the ROADMAP already names: counted in the pass fraction, not in ``correct``
    known_defect: str | None = None

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail,
                "known_defect": self.known_defect}


class CheckList:
    def __init__(self):
        self.items: list[Check] = []

    def add(self, name, fn, known_defect=None) -> None:
        """Run ``fn() -> (passed, detail)``; an exception is a failed check."""
        try:
            passed, detail = fn()
        except Exception as exc:  # a check that cannot run has failed
            passed, detail = False, f"raised {exc!r}"
        self.items.append(Check(name, bool(passed), str(detail), known_defect))

    def pass_frac(self) -> float:
        return sum(c.passed for c in self.items) / len(self.items)

    def correct(self) -> bool:
        return all(c.passed for c in self.items if c.known_defect is None)


# -- exact references ---------------------------------------------------------


def su2_radial_moments(max_k: int) -> list[float]:
    """E[r^k] under the SU(2) radial density (2/pi) sin^2 r on [0, pi]."""
    with mp.workdps(40):
        return [float(2 / mp.pi * mp.quad(lambda r: r**k * mp.sin(r) ** 2, [0, mp.pi]))
                for k in range(max_k + 1)]


def circle_moment(a: int) -> float:
    """E[theta^a] for theta uniform on (-pi, pi]."""
    return 0.0 if a % 2 else PI**a / (a + 1)


def torus_level(k: int, factors: int = 2) -> np.ndarray:
    """Exact level k of the torus average: E[v^{x k}] / k!, row-major words."""
    counts = np.zeros((factors**k, factors), dtype=np.int64)
    idx = np.arange(factors**k)
    for _ in range(k):
        counts[np.arange(idx.size), idx % factors] += 1
        idx //= factors
    out = np.ones(factors**k)
    for j in range(factors):
        out *= np.array([circle_moment(int(a)) for a in counts[:, j]])
    return out / math.factorial(k)


def rtr(level, n: int, k2: int) -> float:
    """(2k)! times the pairwise contraction (1,2)(3,4)... of a dense level."""
    arr = np.asarray(level, dtype=np.float64).reshape((n,) * k2)
    letters = "abcdefghijklmnopqrstuvwxyz"
    subs = "".join(letters[i // 2] for i in range(k2))
    return math.factorial(k2) * float(np.einsum(subs + "->", arr))


def hilbert_distance(a_levels, b_levels) -> float:
    return math.sqrt(sum(float(np.sum((np.asarray(a) - np.asarray(b)) ** 2))
                         for a, b in zip(a_levels, b_levels)))


def su2_ball_volume(R: float) -> float:
    return (R - math.sin(R) * math.cos(R)) / PI


def circle_ball_volume(R: float) -> float:
    return R / PI


# -- CLI payloads -------------------------------------------------------------------


def parsed(payload: bytes | None):
    """The ``result`` of a CLI JSON payload, parsed on first use; a missing
    or malformed payload raises inside each check that uses it."""
    @functools.cache
    def get():
        if payload is None:
            raise ValueError("the job produced no output")
        return json.loads(payload)["result"]

    return get


# -- recover-su2 ----------------------------------------------------------------


def check_recover(checks: CheckList, label: str, payload: bytes | None) -> None:
    """Criterion 8 on one ``liesig recover --group su2`` payload."""
    res = parsed(payload)
    c = SU2_RECOVER
    checks.add(f"{label}: dimension == {c['n']}",
               lambda: (res()["dimension"]["rounded"] == c["n"], res()["dimension"]))
    checks.add(f"{label}: volume within {c['vtol']:.0%}",
               lambda: (abs(res()["volume"] - c["V"]) / c["V"] <= c["vtol"], res()["volume"]))
    checks.add(f"{label}: |S - 6| <= {c['stol']}",
               lambda: (abs(res()["scalar_curvature"] - c["S"]) <= c["stol"],
                        res()["scalar_curvature"]))


def check_same_bytes(checks: CheckList, name: str, a: bytes | None, b: bytes | None) -> None:
    """Criterion 10: seeded payloads are byte-identical across thread counts."""
    checks.add(name, lambda: (a is not None and a == b,
                              f"{len(a or b'')} vs {len(b or b'')} bytes"))


# -- average-dense --------------------------------------------------------------


def check_exact_rtr(checks: CheckList, label: str, payload: bytes | None, exact: list[float]) -> None:
    """rtr(A_2k) against exact moments for k = 1..len(exact)-1, relative
    1e-12; odd levels exactly 0."""
    res = parsed(payload)

    def rtr_err():
        n, levels = res()["n"], res()["levels"]
        worst = max(abs(rtr(levels[2 * k], n, 2 * k) - exact[k]) / exact[k]
                    for k in range(1, len(exact)))
        return worst <= RTR_RTOL, f"worst rel err {worst:.2e}"

    checks.add(f"{label}: rtr within {RTR_RTOL:g} relative", rtr_err)
    checks.add(f"{label}: odd levels zero",
               lambda: (all(not any(lv) for lv in res()["levels"][1::2]), ""))


def check_mc_levels(checks: CheckList, label: str, payload: bytes | None, exact, depth: int) -> None:
    """Levels 1..depth of a Monte Carlo average within 4 standard errors of
    ``exact(k)`` (criterion 5; odd levels, where exact is 0, are criterion 4).
    The CLI reports the per-level norm of the coordinate standard errors, so
    the distance compared is the Euclidean norm of the level difference."""
    res = parsed(payload)
    for k in range(1, depth + 1):
        def one(k=k):
            diff = math.sqrt(float(np.sum((np.asarray(res()["levels"][k]) - exact(k)) ** 2)))
            bound = SE_BOUND * res()["stderr"][k]
            return diff <= bound, f"|diff| {diff:.3e} vs {bound:.3e}"

        checks.add(f"{label}: level {k} within {SE_BOUND:g} SE", one)


# -- moments-mp -------------------------------------------------------------------


def check_ball_volumes(checks: CheckList, label: str, pairs, exact_fn) -> float:
    """Criterion 7 at each (R, F); returns the largest |F - F_exact|."""
    worst = 0.0
    for R, F in pairs:
        err = abs(F - exact_fn(R))
        worst = max(worst, err)
        checks.add(f"{label}: F({R / PI:.4f} pi) within {BALL_TOL}",
                   lambda err=err, F=F: (err <= BALL_TOL, f"F {F:.6f}, err {err:.2e}"))
    return worst


def check_diameter(checks: CheckList, label: str, value: float, group: str) -> None:
    tol = DIAMETER_TOL[group]
    checks.add(f"{label}: diameter within {tol:.0%} of pi",
               lambda: (abs(value - PI) / PI <= tol, f"D {value:.6f}"))
