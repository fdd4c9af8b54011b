"""Exponential-sum approximation of the power-law kernel r**-alpha.

The kernel is written as a trapezoidal discretization of the integral
representation  r**-alpha = (1/Gamma(alpha)) * int exp(alpha*t - r*e^t) dt,
giving a finite series  sum_s w_s * exp(-rate_s * r)  with

    rate_s = exp(s*x),   w_s = (x / Gamma(alpha)) * exp(alpha*s*x),

node spacing  x = 2*pi / (ln 3 + alpha*ln(1/cos 1) + ln(1/eps))  and
truncation half-width  m = ceil((2/x) * ln(2*alpha/eps)).  The sup error
over r >= 1 is then about a small constant times eps.  ``fit_kernel``
certifies every series it returns on a grid {1, 1+step, ..., r_max}: the
dense default grid for the ``fit`` command and the ``kernel_certification``
check, the chain's distances for a build.  Its evaluator, ``_sup_error``,
per chunk of points skips the terms with rate * min(r) > 800: their
exp(-rate * r) underflows to exactly 0.0 (below about exp(-745)) on the
whole chunk.  ``fit_kernel`` also stops the scan early.  The weights and
rates are positive, so r**-alpha and the series are both positive and
decreasing in r, and every point from a chunk's first point r0 on deviates
by at most max(r0**-alpha, series(r0)).  Once twice that falls to the
running max, no later chunk can raise it, and the scan ends.  The stop is
exact: it drops only chunks that cannot reach the max.  The skip is not
bit-exact per point: the shorter dot product rounds in another order, so a
certificate can move in its last digits (``fit_kernel(3.0, 1e-2,
r_max=1.0)`` gives 6.986724372946007e-4, all terms 6.986724372948228e-4).

Replacing r**-alpha by the series (the kernel surrogate) turns a
power-law pairwise Hamiltonian into one whose MPO needs only one decay
channel per series term, which matters only to builds beyond the dense
cap; ``approximate_hamiltonian`` alone decides which specs can have it.  A
chain of n sites uses the kernel only at r = 1..n-1, so it fits on the
grid r_max = n-1, grid_step = 1, which certifies the series exactly on
those n-1 distances; its first target is 0.5, and it halves the target
and refits until the error meets the pair allowance.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import HamiltonianSpec, _pairwise_terms

_DEFAULT_R_MAX = float(2 ** 16)
_DEFAULT_GRID_STEP = 2.0 ** -4
_GRID_CHUNK = 1 << 12  # grid points per evaluation: a chunk stays in cache
_UNDERFLOW_EXPONENT = 800.0  # exp(-x) is exactly 0.0 in float64 for x > ~745.1
_ROUNDING_FACTOR = 2.0  # covers rounding in the chunk bound; see fit_kernel
_MAX_FIRST_TARGET = 0.5  # fit targets must lie below 1


def node_spacing(alpha: float, eps: float) -> float:
    """Quadrature node spacing x for target kernel error eps."""
    return 2.0 * math.pi / (math.log(3.0) + alpha * math.log(1.0 / math.cos(1.0))
                            + math.log(1.0 / eps))


def kernel_order(alpha: float, eps: float) -> int:
    """Truncation half-width m; the series has 2*m + 1 terms."""
    x = node_spacing(alpha, eps)
    half = (2.0 / x) * math.log(2.0 * alpha / eps)
    if not math.isfinite(half):  # 2 * alpha / eps beyond float64
        raise ValueError(f"alpha={alpha} gives no finite series half-width")
    return int(math.ceil(half))


@dataclass(frozen=True)
class ExpSumApprox:
    """Finite exponential series approximating r**-alpha for r >= 1."""

    alpha: float
    epsilon: float
    x: float                      # node spacing
    m: int                        # half-width; indices s in [-m, m]
    weights: np.ndarray
    rates: np.ndarray
    certified_sup_error: float    # max deviation on {1, 1+grid_step, ..., r_max}
    r_max: float = _DEFAULT_R_MAX
    grid_step: float = _DEFAULT_GRID_STEP

    @property
    def num_terms(self) -> int:
        return 2 * self.m + 1

    def kernel(self, r) -> np.ndarray:
        """Series value sum_s w_s * exp(-rate_s * r), vectorized over r."""
        return _series_value(self.weights, self.rates,
                             np.asarray(r, dtype=float))

    def to_dict(self) -> dict:
        return {
            "format": 1,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "x": self.x,
            "m": self.m,
            "weights": self.weights.tolist(),
            "rates": self.rates.tolist(),
            "certified_sup_error": self.certified_sup_error,
            "r_max": self.r_max,
            "grid_step": self.grid_step,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ExpSumApprox":
        data = dict(data)
        if data.pop("format", 1) != 1:
            raise ValueError("unsupported series format version")
        data["weights"] = np.asarray(data["weights"], dtype=float)
        data["rates"] = np.asarray(data["rates"], dtype=float)
        return cls(**data)


def fit_kernel(alpha: float, eps: float, *, r_max: float = _DEFAULT_R_MAX,
               grid_step: float = _DEFAULT_GRID_STEP) -> ExpSumApprox:
    """Fit the exponential series for r**-alpha with target error eps.

    Args:
        alpha: decay exponent, finite and >= 2, with a finite half-width
            (:func:`kernel_order`); values up to 2.5 trigger a boundary
            warning since the long-range machinery degrades near 2.
        eps: target kernel error in (0, 1).
        r_max, grid_step: certification grid r in {1, 1+step, ..., r_max};
            r_max >= 1 and grid_step > 0 must be finite.  A chain of n
            sites certifies its distances r = 1..n-1 with r_max = n-1 and
            grid_step = 1 (:func:`approximate_hamiltonian`).

    Returns:
        The series with certified sup error over the grid: the max over all
        grid points of the deviation.  Terms that underflow to 0.0 on a
        chunk of the grid are not evaluated there (``_sup_error``), which
        can move the certificate by the rounding of the shorter dot
        product; the scan stops at the first chunk that cannot raise the
        max, which leaves it unchanged.

    The stop is exact.  Weights and rates are positive, so r**-alpha and
    the series are positive and decreasing in r: at every grid point r
    from a chunk's first point r0 on, |r**-alpha - series(r)| is at most
    max(r**-alpha, series(r)) <= max(r0**-alpha, series(r0)).  In floating
    point the difference of two non-negative floats never exceeds the
    larger, a power is off by about an ulp, a term w * exp(-rate * r) by at
    most about 750 ulp (the rounded rate * r, below 745 wherever the term
    does not underflow, carries its relative error into the exponential),
    and a sum of n positive terms adds n ulp (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 3.1).  Every computed
    deviation from r0 on is thus below (1 + 2*(n + 752)*2**-53) times the
    computed bound at r0: below 1 + 1e-11 even for the 19,553 terms of the
    longest series float64 weights allow (alpha = 2).  The scan stops once
    ``_ROUNDING_FACTOR`` = 2 times that bound is at most the running max,
    which covers the rounding with room to spare.
    """
    if not (math.isfinite(alpha) and alpha >= 2.0):
        raise ValueError(f"kernel fit requires a finite alpha >= 2, got {alpha}")
    if alpha <= 2.5:
        warnings.warn(f"alpha={alpha} is near the alpha -> 2 boundary; "
                      "long-range error constants grow rapidly there")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"kernel error target must lie in (0, 1), got {eps}")
    if not (math.isfinite(r_max) and r_max >= 1.0
            and math.isfinite(grid_step) and grid_step > 0.0
            and math.isfinite((r_max - 1.0) / grid_step)):
        raise ValueError(f"certification grid needs finite r_max >= 1 and "
                         f"grid_step > 0 with finitely many points, got "
                         f"r_max={r_max}, grid_step={grid_step}")
    x = node_spacing(alpha, eps)
    m = kernel_order(alpha, eps)
    if alpha * m * x > 700.0:  # exp(alpha*m*x) would overflow float64
        raise ValueError(f"eps={eps} requires weights beyond float64 range")
    s = np.arange(-m, m + 1)
    weights = (x / math.gamma(alpha)) * np.exp(alpha * s * x)
    rates = np.exp(s * x)
    series = ExpSumApprox(alpha=alpha, epsilon=eps, x=x, m=m, weights=weights,
                          rates=rates, certified_sup_error=math.nan,
                          r_max=r_max, grid_step=grid_step)
    worst = 0.0
    npts = int(round((r_max - 1.0) / grid_step)) + 1
    for start in range(0, npts, _GRID_CHUNK):
        r = 1.0 + grid_step * np.arange(start, min(start + _GRID_CHUNK, npts))
        reach = max(r[0] ** -alpha, float(series.kernel(r[0])))
        if _ROUNDING_FACTOR * reach <= worst:
            break  # no point from r[0] on can raise the max
        worst = max(worst, _sup_error(series, r))
    return replace(series, certified_sup_error=worst)


def _sup_error(series: ExpSumApprox, r: np.ndarray) -> float:
    """Largest |r**-alpha - series.kernel(r)| over the points r.

    The rates ascend, so the terms with rate > 800 / min(r) form a tail
    whose exponentials are exactly 0.0 at every point; only the others are
    evaluated.
    """
    kept = int(np.searchsorted(series.rates,
                               _UNDERFLOW_EXPONENT / r.min(initial=np.inf),
                               side="right"))
    value = _series_value(series.weights[:kept], series.rates[:kept], r)
    return float(np.abs(r ** (-series.alpha) - value).max(initial=0.0))


def _series_value(weights: np.ndarray, rates: np.ndarray,
                  r: np.ndarray) -> np.ndarray:
    """sum_s weights_s * exp(-rates_s * r), vectorized over r."""
    e = np.multiply.outer(r, rates)
    np.negative(e, out=e)
    np.exp(e, out=e)
    return e @ weights


def approximate_hamiltonian(spec: HamiltonianSpec, eps_ham: float,
                            ) -> tuple[HamiltonianSpec, ExpSumApprox | None]:
    """Replace power-law pair couplings by an exponential-series kernel.

    This is the one place that decides whether a spec gets the kernel
    surrogate and certifies it.  Each of the < n**2 pair terms moves by at
    most J-bar times the kernel error at its distance, so a kernel error of
    at most eps_ham / (J-bar * n**2) on the chain's distances r = 1..n-1
    bounds the operator-norm change of the full Hamiltonian by eps_ham.
    The first fit targets 0.5, the loosest target a fit admits;
    :func:`fit_kernel` certifies each series on the grid r_max = n-1,
    grid_step = 1, which is exactly those distances, and the target is
    halved and the series refitted until the certificate holds.
    Non-pairwise terms (fields, explicit short-range terms) are kept
    verbatim.

    Returns the rewritten spec and the series, or ``(spec, None)`` when
    there is nothing to rewrite: no power-law pair channels (or a single
    site), channels already in exponential form, or zero pair weight
    J-bar.  Raises ``ValueError`` for a spec that declares power-law
    channels but cannot be rewritten: locality k > 2, an alpha without a
    float64 series (below 2, or so large that the weights overflow before
    a series meets the allowance), pair terms off the declared profile,
    or an eps_ham not finite and positive.
    """
    jbar = spec.pair_weight_sum()
    if (spec.alpha is None or spec.pair_channels is None or spec.n < 2
            or spec.exp_channels is not None or jbar == 0.0):
        return spec, None
    if spec.k > 2:
        raise ValueError(f"pairwise path requires locality k <= 2, got k={spec.k}")
    if not spec.alpha >= 2.0:
        raise ValueError(f"no kernel series for alpha={spec.alpha} < 2")
    if not eps_ham > 0.0 or not math.isfinite(eps_ham):
        raise ValueError(f"Hamiltonian error target must be finite and positive, "
                         f"got {eps_ham}")
    pair_tol = eps_ham / (jbar * spec.n ** 2)
    eps_kernel = _MAX_FIRST_TARGET
    while True:
        series = fit_kernel(spec.alpha, eps_kernel, r_max=float(spec.n - 1),
                            grid_step=1.0)
        if series.certified_sup_error <= pair_tol:
            break
        eps_kernel /= 2.0
    scale = 1.0 if spec.coupling is None else spec.coupling
    pair_terms = _pairwise_terms(
        spec.n, spec.pair_channels,
        lambda r: scale * float(series.kernel(float(r))),
        kernel_generated=True,
    )
    weight_of = {(op1, op2): w for op1, op2, w in spec.pair_channels}
    other = []
    for t in spec.terms:
        if len(t.sites) == 2 and t.ops in weight_of:
            # only terms that actually follow the declared profile may be
            # replaced; anything else would be silently corrupted
            r = t.sites[1] - t.sites[0]
            expected = scale * weight_of[t.ops] * r ** (-spec.alpha)
            if abs(t.coefficient - expected) > 1e-12 * max(1.0, abs(expected)):
                raise ValueError(
                    f"pair term on {t.sites} has coefficient {t.coefficient}, "
                    f"which does not match the declared power-law profile "
                    f"({expected}); cannot rewrite this model")
        else:
            other.append(t)
    new_spec = HamiltonianSpec(
        n=spec.n, d=spec.d, k=spec.k,
        terms=tuple(other) + tuple(pair_terms),
        alpha=spec.alpha, coupling=spec.coupling,
        pair_channels=spec.pair_channels,
        exp_channels=tuple((float(w), float(lam))
                           for w, lam in zip(series.weights, series.rates)),
    )
    return new_spec, series
