"""Exponential-sum kernel: closed forms, certification, Hamiltonian rewrite."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from gibbsmpo.expsum import (
    approximate_hamiltonian,
    fit_kernel,
    kernel_order,
    node_spacing,
    ExpSumApprox,
)
from gibbsmpo import expsum, gibbs, verify
from gibbsmpo.gibbs import build_gibbs_mpo, plan_budget
from gibbsmpo.model import HamiltonianSpec, LocalTerm, dense_matrix, \
    nearest_neighbor_ising, power_law_ising
from gibbsmpo.mpo import CompressionPolicy


def spacing_mp(alpha, eps):
    """Independent high-precision evaluation of the node-spacing formula."""
    with mpmath.workdps(40):
        return 2 * mpmath.pi / (mpmath.log(3) + alpha * mpmath.log(1 / mpmath.cos(1))
                                + mpmath.log(1 / mpmath.mpf(eps)))


def order_mp(alpha, eps):
    with mpmath.workdps(40):
        x = spacing_mp(alpha, eps)
        return int(mpmath.ceil((2 / x) * mpmath.log(2 * alpha / mpmath.mpf(eps))))


def fit(alpha, eps, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit_kernel(alpha, eps, **kw)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_node_spacing_against_mpmath():
    # frozen from the independent evaluation: x(3, 1e-3) = 0.63767662788652765
    assert node_spacing(3.0, 1e-3) == pytest.approx(0.63767662788652765, abs=1e-12)
    for alpha in (2.0, 2.5, 3.0, 4.0):
        for eps in (1e-2, 1e-3, 1e-4):
            assert node_spacing(alpha, eps) == pytest.approx(
                float(spacing_mp(alpha, eps)), rel=1e-12)


def test_kernel_order_against_mpmath():
    assert kernel_order(3.0, 1e-3) == 28
    for alpha in (2.5, 3.0, 4.0):
        for eps in (1e-2, 1e-3, 1e-4):
            assert kernel_order(alpha, eps) == order_mp(alpha, eps)


def test_kernel_order_monotone_in_eps():
    orders = [kernel_order(3.0, eps) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert orders == sorted(orders)
    assert kernel_order(3.0, 1e-2) < kernel_order(3.0, 1e-3)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_kernel(1.5, 1e-3)
    with pytest.raises(ValueError):
        fit(3.0, 1.0)
    with pytest.raises(ValueError):
        fit(3.0, 0.0)
    with pytest.warns(UserWarning):
        fit_kernel(2.5, 1e-2)
    # alpha = 1e308 is finite, but 2*alpha/eps and the half-width are not
    for alpha in (math.inf, math.nan, 1e308):
        with pytest.raises(ValueError, match="finite"):
            fit_kernel(alpha, 1e-2)
    with pytest.raises(ValueError, match="half-width"):
        kernel_order(1e308, 1e-2)


@pytest.mark.parametrize("grid", [
    {"r_max": 0.5}, {"r_max": math.inf}, {"r_max": math.nan},
    {"grid_step": -1.0}, {"grid_step": 0.0}, {"grid_step": math.inf},
    {"grid_step": math.nan}, {"r_max": 1e300, "grid_step": 1e-300},
])
def test_fit_rejects_grids_that_certify_nothing(grid):
    # an empty, unbounded or endless grid has no certificate to offer
    with pytest.raises(ValueError, match="certification grid"):
        fit(3.0, 1e-2, **grid)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_certified_error_below_frozen_constant(alpha, eps):
    series = fit(alpha, eps)
    assert series.m == kernel_order(alpha, eps)
    assert series.num_terms == 2 * series.m + 1
    assert series.certified_sup_error \
        <= verify.KERNEL_ERROR_CONSTANTS[alpha] * eps


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_grid_certification_matches_one_shot(alpha, eps):
    series = fit(alpha, eps, r_max=2.0 ** 10)
    npts = 16 * (2 ** 10 - 1) + 1  # default grid step 2**-4
    r = 1.0 + series.grid_step * np.arange(npts)
    kernel = np.exp(-np.multiply.outer(r, series.rates)) @ series.weights
    assert series.certified_sup_error == np.max(np.abs(r ** (-alpha) - kernel))


def all_terms_sup_error(series, r):
    """Literal certificate: every term at every point, no term skipped."""
    kernel = np.exp(-np.multiply.outer(r, series.rates)) @ series.weights
    return float(np.max(np.abs(r ** (-series.alpha) - kernel)))


def all_terms_grid_sup_error(series):
    npts = int(round((series.r_max - 1.0) / series.grid_step)) + 1
    return max(all_terms_sup_error(
        series, 1.0 + series.grid_step * np.arange(lo, min(lo + 2 ** 14, npts)))
        for lo in range(0, npts, 2 ** 14))


@pytest.mark.parametrize("alpha, eps, r_max", [
    *((a, e, 2.0 ** 8) for a in (2.5, 3.0, 4.0) for e in (1e-2, 1e-3, 1e-6)),
    (3.0, 1e-2, 2.0 ** 16),
])
def test_certificate_skipping_underflowed_terms_is_the_all_terms_max(
        alpha, eps, r_max):
    # the grid evaluator skips terms whose exponentials are exactly 0.0 on a
    # chunk; on these grids the certificate is the same float as the
    # all-terms evaluation (test_fit_on_the_one_point_grid shows a grid
    # where the shorter dot product rounds differently)
    series = fit(alpha, eps, r_max=r_max)
    assert series.rates[-1] > 800.0  # some terms are skipped at r = 1
    assert series.certified_sup_error == all_terms_grid_sup_error(series)


def counted_fit(monkeypatch, alpha, eps, **kw):
    """The fit and the grid chunks its certificate evaluated."""
    chunks = []
    real = expsum._sup_error
    monkeypatch.setattr(expsum, "_sup_error",
                        lambda series, r: chunks.append(r) or real(series, r))
    return fit(alpha, eps, **kw), chunks


def test_fit_on_the_one_point_grid(monkeypatch):
    # r_max = 1 certifies r = 1 alone; the evaluator's dot product runs over
    # the 25 terms that do not underflow there, and BLAS rounds that
    # shorter sum differently from all 33 terms, hence the tolerance
    series, chunks = counted_fit(monkeypatch, 3.0, 1e-2, r_max=1.0)
    assert [r.tolist() for r in chunks] == [[1.0]]
    assert series.certified_sup_error == pytest.approx(
        abs(1.0 - series.kernel(1.0)), rel=1e-12, abs=0.0)


def test_pruned_scan_stops_after_the_first_chunk(monkeypatch):
    # the max sits near r = 1; from the second chunk on (r >= 257) both
    # r**-3 and the series are below half of it
    series, chunks = counted_fit(monkeypatch, 3.0, 1e-2)
    assert len(chunks) == 1
    assert series.certified_sup_error == all_terms_sup_error(
        series, 1.0 + series.grid_step * np.arange(expsum._GRID_CHUNK))


@pytest.mark.parametrize("alpha, eps, grid", [
    (2.5, 1e-2, {"grid_step": 2.0 ** -10, "r_max": 2.0 ** 8}),
    (3.0, 1e-3, {"grid_step": 2.0 ** -10, "r_max": 2.0 ** 8}),
    (4.0, 1e-4, {"grid_step": 2.0 ** -10, "r_max": 2.0 ** 8}),
    (2.5, 1e-6, {}),
])
def test_pruned_scan_over_several_chunks_is_the_all_terms_max(
        monkeypatch, alpha, eps, grid):
    # the scan stops early but past the first chunk; the certificate is
    # still the same float as every term at every grid point
    series, chunks = counted_fit(monkeypatch, alpha, eps, **grid)
    npts = int(round((series.r_max - 1.0) / series.grid_step)) + 1
    assert 1 < len(chunks) < -(-npts // expsum._GRID_CHUNK)
    assert series.certified_sup_error == all_terms_grid_sup_error(series)


def test_fast_suite_certifies_the_full_suites_kernel_grid():
    (fast,) = verify.run_checks(["kernel_certification"], fast=True)
    (full,) = verify.run_checks(["kernel_certification"])
    assert fast == full
    assert {row["eps"] for row in fast["details"]["rows"]} == {1e-2, 1e-3, 1e-4}


def test_distance_certificate_is_the_all_terms_max():
    spec = power_law_ising(8, 3.0)
    r = np.arange(1, 8, dtype=float)
    for tol in (1e-1, 1e-2, 1e-3, 1e-5):
        _, series = approximate_hamiltonian(spec, tol)
        assert series.certified_sup_error == all_terms_sup_error(series, r)


def test_kernel_values_on_integer_separations():
    series = fit(3.0, 1e-3)
    r = np.arange(1, 50, dtype=float)
    dev = np.abs(r ** -3.0 - series.kernel(r))
    assert dev.max() <= verify.KERNEL_ERROR_CONSTANTS[3.0] * 1e-3


def test_series_roundtrip_json():
    series = fit(3.0, 1e-2)
    back = ExpSumApprox.from_dict(series.to_dict())
    assert back.m == series.m
    assert np.array_equal(back.weights, series.weights)
    assert np.array_equal(back.rates, series.rates)
    assert back.to_json() == series.to_json()


# ---------------------------------------------------------------------------
# Hamiltonian rewrite
# ---------------------------------------------------------------------------

def test_replacement_norm_bound_dense():
    spec = power_law_ising(6, 3.0)
    h = dense_matrix(spec)
    for tol in (1e-1, 1e-2, 1e-3):
        approx, series = approximate_hamiltonian(spec, tol)
        assert series is not None
        dev = np.linalg.norm(h - dense_matrix(approx), ord=2)
        assert dev <= tol


def test_plan_certifies_kernel_on_chain_distances():
    # the plan's series meets the pair allowance on r = 1..7
    spec = power_law_ising(8, 3.0)
    budget, _, series = plan_budget(spec, 4 * verify.base_step(spec),
                                    10 ** (-4 / 3), dense_cap=16)
    r = np.arange(1, 8, dtype=float)
    err = np.max(np.abs(r ** -3.0 - series.kernel(r)))
    assert err <= budget.ham_tol / (spec.pair_weight_sum() * 64)


def test_build_certifies_kernel_without_grid(monkeypatch):
    # every fit is certified on the chain's distances r = 1..n-1, not on
    # the default grid of about a million points; the chain exceeds the
    # dense cap, so the build runs the surrogate
    fits, returned = [], []
    fit_original = expsum.fit_kernel
    approx_original = gibbs.approximate_hamiltonian

    def recording_fit(*args, **kwargs):
        fits.append(kwargs)
        return fit_original(*args, **kwargs)

    def recording_approx(*args, **kwargs):
        out = approx_original(*args, **kwargs)
        returned.append(out[1])
        return out

    monkeypatch.setattr(expsum, "fit_kernel", recording_fit)
    monkeypatch.setattr(gibbs, "approximate_hamiltonian", recording_approx)
    n = 6
    spec = power_law_ising(n, 3.0)
    build_gibbs_mpo(spec, verify.base_step(spec), 1e-2,
                    CompressionPolicy.parse("tol=1e-10"), dense_cap=16)
    assert fits and all(kw == {"r_max": n - 1, "grid_step": 1.0}
                        for kw in fits)
    (series,) = returned
    assert series.r_max == n - 1 and series.grid_step == 1.0
    r = np.arange(1, n, dtype=float)
    assert series.certified_sup_error == np.max(np.abs(r ** -3.0 - series.kernel(r)))


def test_replacement_rejects_silly_tolerances():
    spec = power_law_ising(6, 3.0)
    for eps_ham in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError):
            approximate_hamiltonian(spec, eps_ham)


@pytest.mark.parametrize("spec, eps_ham", [
    (power_law_ising(6, 3.0), 1e6),
    (power_law_ising(4, 3.0, coupling=1e-9), 0.04),
], ids=["loose-allowance", "tiny-coupling"])
def test_replacement_clamps_a_loose_first_target(spec, eps_ham):
    # the first fit target is 0.5, however loose the allowance, and the
    # series is still certified within the pair allowance
    _, series = approximate_hamiltonian(spec, eps_ham)
    assert series.epsilon <= 0.5
    assert series.certified_sup_error \
        <= eps_ham / (spec.pair_weight_sum() * spec.n ** 2)


@pytest.mark.parametrize("spec", [
    *(power_law_ising(n, alpha)
      for n in (4, 8, 16) for alpha in (2.5, 3.0, 4.0)),
    power_law_ising(8, 3.0, coupling=1e-9),
], ids=lambda spec: f"n{spec.n}-a{spec.alpha}-J{spec.coupling}")
@pytest.mark.parametrize("eps_ham", [1e-2, 1e-5])
def test_replacement_halves_from_the_first_target(spec, eps_ham):
    # the target starts at 0.5 and is halved until the certificate on
    # r = 1..n-1 meets the pair allowance: the series returned is the
    # first that does, so twice its target (when a fit admits it) misses
    allowance = eps_ham / (spec.pair_weight_sum() * spec.n ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, series = approximate_hamiltonian(spec, eps_ham)
    halvings = round(math.log2(0.5 / series.epsilon))
    assert series.epsilon == 0.5 * 2.0 ** -halvings
    assert series.certified_sup_error <= allowance
    if 2.0 * series.epsilon <= 0.5:
        looser = fit(spec.alpha, 2.0 * series.epsilon,
                     r_max=float(spec.n - 1), grid_step=1.0)
        assert looser.certified_sup_error > allowance


def test_replacement_passthrough_without_long_range():
    # nothing to rewrite: no pair channels (a 3-local model included), a
    # single site, or pair channels of zero weight J-bar
    for spec in (nearest_neighbor_ising(5),
                 HamiltonianSpec(n=4, d=2, k=3, terms=(
                     LocalTerm((1, 2, 3), 1.0, ("Z", "Z", "Z")),)),
                 power_law_ising(1, 3.0),
                 power_law_ising(5, 3.0, coupling=0.0)):
        same, series = approximate_hamiltonian(spec, 1e-2)
        assert series is None
        assert same is spec


def test_replacement_rejects_beyond_pairwise():
    spec = HamiltonianSpec(
        n=4, d=2, k=3, terms=(LocalTerm((1, 2, 3), 1.0, ("Z", "Z", "Z")),),
        alpha=3.0, coupling=1.0, pair_channels=(("Z", "Z", 1.0),))
    with pytest.raises(ValueError, match="k <= 2"):
        approximate_hamiltonian(spec, 1e-2)


def test_replacement_refuses_off_profile_pair_terms():
    # a hand-added ZZ term that ignores the declared power law must not be
    # silently swallowed by the kernel rewrite
    from dataclasses import replace
    from gibbsmpo.model import LocalTerm
    spec = power_law_ising(5, 3.0)
    tampered = replace(spec, terms=spec.terms + (
        LocalTerm((1, 5), 2.0, ("Z", "Z")),))
    with pytest.raises(ValueError):
        approximate_hamiltonian(tampered, 1e-2)


@pytest.mark.parametrize("alpha, match", [
    (1.5, "alpha=1.5 < 2"), (100.0, "beyond float64 range"),
    (1e308, "half-width")])
def test_replacement_refuses_before_it_warns(alpha, match):
    # a refused alpha raises with warnings as errors: nothing warns before
    # the refusal; at alpha = 100 even the first target, 0.5, overflows
    spec = power_law_ising(4, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            approximate_hamiltonian(spec, 1e-3)


def test_steep_alpha_certifies_without_warning():
    # the first fit target is 0.5 whatever alpha is, so a steep alpha
    # certifies without a warning; an off-profile pair term is still
    # refused after the fit
    from dataclasses import replace
    spec = power_law_ising(4, 7.0)
    tampered = replace(spec, terms=spec.terms + (
        LocalTerm((1, 4), 2.0, ("Z", "Z")),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="declared power-law profile"):
            approximate_hamiltonian(tampered, 1e-3)
        approx, series = approximate_hamiltonian(spec, 1e-3)
    assert series.certified_sup_error <= 1e-3 / (spec.pair_weight_sum() * 16)
    assert approx.exp_channels is not None


def test_replacement_keeps_field_terms():
    spec = power_law_ising(5, 3.0, transverse_field=0.4)
    approx, _ = approximate_hamiltonian(spec, 1e-2)
    fields = [t for t in approx.terms if len(t.sites) == 1]
    assert len(fields) == 5
    assert all(t.coefficient == pytest.approx(0.4) for t in fields)


def test_kernel_order_scaling_slope():
    # series length should grow like ln^2(n/eps_H): log-log slope near 2
    n = 8
    xs, ys = [], []
    for eps_h in np.logspace(-8, -30, 12):
        eps_kernel = eps_h / (verify.KERNEL_ERROR_CONSTANTS[3.0] * n * n)
        m = kernel_order(3.0, eps_kernel)
        xs.append(math.log(math.log(n / eps_h)))
        ys.append(math.log(2 * m + 1))
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 2.0) <= 0.3
