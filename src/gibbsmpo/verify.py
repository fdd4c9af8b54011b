"""Bound-verification suite: every analytic guarantee, measured at desk scale.

Each check returns a dict with a ``name``, a ``passed`` flag and enough
detail to diagnose a violation.  The CLI ``verify`` command renders these
as a table; the acceptance tests assert on them directly.  All randomized
checks take explicit seeds so runs are reproducible.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from . import mpo as mpo_ops
from .expsum import approximate_hamiltonian, fit_kernel, kernel_order
from .gibbs import build_gibbs_mpo, build_real_time_mpo, plan_budget
from .merge import build_merge_mpo, certified_step, merge_spec_for, \
    merge_spectra, order_term_bound, order_term_norms, truncated_merge_dense, \
    truncation_bound, truncation_error
from .model import HamiltonianSpec, Interval, boundary_bound, dense_matrix, \
    extensivity_constant, power_law_ising
from .oracle import dense_exp, schatten_norm

_SLACK = 1.0 + 1e-9  # floating-point headroom on exact inequalities


def _result(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def default_chain(n: int = 8, alpha: float = 3.0) -> HamiltonianSpec:
    """The bundled power-law transverse-field Ising chain."""
    return power_law_ising(n, alpha)


def base_step(spec: HamiltonianSpec) -> float:
    """Largest certified high-temperature step 1/(24*g*k^2) of a spec."""
    return certified_step(extensivity_constant(spec), spec.k)


# ---------------------------------------------------------------------------
# merge-operator bounds
# ---------------------------------------------------------------------------

def half_cut_truncation(spec: HamiltonianSpec):
    """Evaluator order -> (measured, bound) of the merge truncation error
    ||Psi - Psi~|| across the half cut of ``spec`` at its base step, with
    bound c0 * 2^-m0 (the chain's boundary bound in c0).

    H_AB, H_A and H_B do not depend on the order: their eigensystems are
    computed at the first call and serve every later one.
    """
    beta0 = base_step(spec)
    gtilde = boundary_bound(spec)
    cut = spec.n // 2
    spectra = None

    def evaluate(order: int) -> tuple[float, float]:
        nonlocal spectra
        ms = merge_spec_for(spec, Interval(1, cut), Interval(cut + 1, spec.n),
                            beta0, order)
        if spectra is None:
            spectra = merge_spectra(ms)
        return truncation_error(ms, spectra), truncation_bound(ms, gtilde)

    return evaluate


def check_merge_truncation_sweep(spec: HamiltonianSpec | None = None,
                                 orders=range(2, 13)) -> dict:
    """Truncation error <= c0 * 2^-m0 across a sweep of orders (half cut;
    see :func:`half_cut_truncation`)."""
    spec = spec or default_chain(8)
    evaluate = half_cut_truncation(spec)
    rows = []
    ok = True
    for order in orders:
        measured, bound = evaluate(order)
        good = measured <= bound * _SLACK
        ok &= good
        rows.append({"order": order, "measured": measured, "bound": bound,
                     "ok": good})
    return _result("merge_truncation_sweep", ok, beta0=base_step(spec),
                   rows=rows)


def check_per_order_decay(ns=(4, 6), max_m: int = 10) -> dict:
    """Order-m terms of the merge expansion decay as 2^-m * exp(gt/C)."""
    rows = []
    ok = True
    for n in ns:
        spec = default_chain(n)
        beta0 = base_step(spec)
        gtilde = boundary_bound(spec)
        for cut in {n // 2, max(1, n // 3)}:
            ms = merge_spec_for(spec, Interval(1, cut),
                                Interval(cut + 1, n), beta0, 0)
            for m, norm in enumerate(order_term_norms(ms, max_m)):
                bound = order_term_bound(ms, gtilde, m)
                good = norm <= bound * _SLACK
                ok &= good
                rows.append({"n": n, "cut": cut, "m": m, "norm": norm,
                             "bound": bound, "ok": good})
    return _result("per_order_decay", ok, rows=rows)


def check_decoupled_identity(n: int = 6, order: int = 7) -> dict:
    """With no cut-crossing terms the merge operator is the identity.

    The binomial cancellation holds at every order; the Horner MPO
    assembly is exercised at a low order (its uncompressed bonds grow fast)
    and the dense evaluator at ``order``.
    """
    spec = HamiltonianSpec(
        n=n, d=2, k=2,
        terms=tuple(t for t in default_chain(n).terms
                    if not (t.sites[0] <= n // 2 < t.sites[-1])))
    beta0 = base_step(spec)
    half = Interval(1, n // 2), Interval(n // 2 + 1, n)
    ms = merge_spec_for(spec, *half, beta0, order)
    dense = truncated_merge_dense(ms)
    dev_dense = float(np.linalg.norm(dense - np.eye(dense.shape[0]), ord=2))
    ms_small = merge_spec_for(spec, *half, beta0, min(order, 3))
    built = build_merge_mpo(ms_small)[0].densify()
    dev_mpo = float(np.linalg.norm(built - np.eye(dense.shape[0]), ord=2))
    ok = dev_dense <= 1e-12 and dev_mpo <= 1e-12
    return _result("decoupled_identity", ok, dense_dev=dev_dense,
                   mpo_dev=dev_mpo)


# ---------------------------------------------------------------------------
# pipeline bounds
# ---------------------------------------------------------------------------

def check_layer_recursion(n: int = 8, epsilon: float = 1e-2,
                          beta_mult: float = 4.0) -> dict:
    """Measured layer errors obey e_q <= a2*d0 + a1*e_{q-1} and the solved form."""
    spec = default_chain(n)
    beta = beta_mult * base_step(spec)
    _, report = build_gibbs_mpo(spec, beta, epsilon)
    b = report.budget
    errs = report.per_layer_error
    ok = len(errs) == b.num_layers and errs[0] <= 1e-12
    rows = [{"layer": 1, "error": errs[0], "bound": 0.0, "ok": errs[0] <= 1e-12}]
    for q in range(1, len(errs)):
        bound = b.merge_offset * b.merge_tol + b.merge_gain * errs[q - 1]
        good = errs[q] <= bound * _SLACK
        ok &= good
        rows.append({"layer": q + 1, "error": errs[q], "bound": bound, "ok": good})
    final_bound = b.high_temp_error
    if b.num_layers >= 2:
        good = errs[-1] <= final_bound * _SLACK
        ok &= good
        rows.append({"layer": "final", "error": errs[-1],
                     "bound": final_bound, "ok": good})
    return _result("layer_recursion", ok, rows=rows,
                   merge_tol=b.merge_tol, order=b.order)


def check_forced_low_order(n: int = 6, epsilon: float = 1e-2,
                           order: int = 1) -> dict:
    """Certification with the order forced below its requirement.

    Passing means the truncation error still met the planned per-merge
    tolerance; with a deliberately tiny order it should not, so this check
    is normally listed under ``expect_fail``.
    """
    spec = default_chain(n)
    beta = 4.0 * base_step(spec)
    budget, run_spec, _ = plan_budget(spec, beta, epsilon)
    cut = n // 2
    ms = merge_spec_for(run_spec, Interval(1, cut), Interval(cut + 1, n),
                        budget.beta0, order)
    measured = truncation_error(ms)
    ok = measured <= budget.merge_tol
    return _result("forced_low_order", ok, forced_order=order,
                   required_order=budget.order, measured=measured,
                   planned_tolerance=budget.merge_tol)


def check_end_to_end(ns=(4, 6, 8), beta_mults=(1.0, 4.0, 16.0),
                     epsilon: float = 1e-2) -> dict:
    """Relative Schatten-p errors and the partition function meet the target."""
    rows = []
    ok = True
    for n in ns:
        spec = default_chain(n)
        for mult in beta_mults:
            beta = mult * base_step(spec)
            _, report = build_gibbs_mpo(spec, beta, epsilon)
            worst = max(report.measured[k] for k in ("p1", "p2", "pinf"))
            good = worst <= epsilon and report.measured["trace"] <= epsilon
            ok &= good
            rows.append({"n": n, "beta": beta, "steps": report.budget.steps,
                         "order": report.budget.order, **report.measured,
                         "ok": good})
    return _result("end_to_end", ok, epsilon=epsilon, rows=rows)


def check_real_time(n: int = 6, times=(0.25, 0.5, 1.0),
                    epsilon: float = 1e-2) -> dict:
    """Operator-norm error of the real-time propagator meets the target."""
    spec = default_chain(n)
    rows = []
    ok = True
    for t in times:
        _, report = build_real_time_mpo(spec, t, epsilon)
        good = report.measured["pinf"] <= epsilon
        ok &= good
        rows.append({"t": t, "steps": report.budget.steps,
                     "pinf": report.measured["pinf"], "ok": good})
    return _result("real_time", ok, epsilon=epsilon, rows=rows)


# ---------------------------------------------------------------------------
# kernel bounds
# ---------------------------------------------------------------------------

# Worst measured grid ratio sup_err/eps, doubled for safety, over
# eps in [1e-2, 1e-6] on the default grid (r in [1, 2^16], step 2^-4):
# measured 0.13 (alpha=2), 0.20 (2.5), 0.15 (3), 0.24 (4).  Outside that
# range the ratio can exceed the constant: at alpha=3 for targets in about
# [0.023, 0.029], [0.092, 0.21] and above 0.6, at alpha=2.5 in about
# [0.40, 0.73].  Builds do not read it: they certify each series on the
# chain's own distances.
KERNEL_ERROR_CONSTANTS = {2.0: 0.30, 2.5: 0.45, 3.0: 0.35, 4.0: 0.55}


def check_kernel_certification(alphas=(2.5, 3.0, 4.0),
                               epsilons=(1e-2, 1e-3, 1e-4)) -> dict:
    """Grid sup error of the fitted kernel stays below the frozen constant.

    Only at the listed ``epsilons`` and the tabulated ``alphas`` of
    ``KERNEL_ERROR_CONSTANTS``: at alpha=3 the constants fail for targets
    in about [0.023, 0.029] and [0.092, 0.21].
    """
    import warnings

    rows = []
    ok = True
    for alpha in alphas:
        zc = KERNEL_ERROR_CONSTANTS[alpha]
        for eps in epsilons:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                series = fit_kernel(alpha, eps)
            good = series.certified_sup_error <= zc * eps
            ok &= good
            rows.append({"alpha": alpha, "eps": eps, "terms": series.num_terms,
                         "sup_error": series.certified_sup_error,
                         "bound": zc * eps, "ok": good})
    return _result("kernel_certification", ok, rows=rows)


def check_hamiltonian_replacement(n: int = 8, alphas=(2.5, 3.0, 4.0),
                                  ham_tols=(1e-1, 1e-2, 1e-3)) -> dict:
    """Dense ||H - H~|| stays below the requested replacement tolerance."""
    import warnings

    rows = []
    ok = True
    for alpha in alphas:
        spec = default_chain(n, alpha=alpha)
        h = dense_matrix(spec)
        for tol in ham_tols:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                approx, series = approximate_hamiltonian(spec, tol)
            dev = float(np.linalg.norm(h - dense_matrix(approx), ord=2))
            good = dev <= tol
            ok &= good
            rows.append({"alpha": alpha, "ham_tol": tol, "deviation": dev,
                         "terms": series.num_terms, "ok": good})
    return _result("hamiltonian_replacement", ok, rows=rows)


def check_kernel_order_scaling(n: int = 8, exponents=(-8.0, -30.0),
                               points: int = 12) -> dict:
    """Series length grows like ln^2(n/eps_H): log-log slope within 2 +- 0.3."""
    lo, hi = exponents
    xs, ys = [], []
    for e in np.logspace(lo, hi, points):
        eps_kernel = e / (KERNEL_ERROR_CONSTANTS[3.0] * n * n)
        m = kernel_order(3.0, eps_kernel)
        xs.append(math.log(math.log(n / e)))
        ys.append(math.log(2 * m + 1))
    slope = _fit_line(np.array(xs), np.array(ys))[0]
    ok = abs(slope - 2.0) <= 0.3
    return _result("kernel_order_scaling", ok, slope=slope)


# ---------------------------------------------------------------------------
# norm lemmas (randomized)
# ---------------------------------------------------------------------------

def _random_hermitian(rng, dim: int, norm_scale: float = 1.0) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = (raw + raw.conj().T) / 2.0
    return herm * (norm_scale / max(np.linalg.norm(herm, ord=2), 1e-300))

def _random_operator(rng, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def check_disjoint_product_lemma(trials: int = 120, seed: int = 20240601) -> dict:
    """Factor errors eps on disjoint supports give product error <= 3*eps."""
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    ok = True
    for _ in range(trials):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d1, d2 = 2 ** n1, 2 ** n2
        p = float(rng.choice([1.0, 2.0, 3.5, np.inf]))
        eps = float(rng.uniform(1e-3, 0.95))
        o1, o2 = _random_operator(rng, d1), _random_operator(rng, d2)
        a1 = _random_operator(rng, d1)
        a2 = _random_operator(rng, d2)
        o1t = o1 + a1 * (eps * schatten_norm(o1, p) / schatten_norm(a1, p))
        o2t = o2 + a2 * (eps * schatten_norm(o2, p) / schatten_norm(a2, p))
        lhs = schatten_norm(np.kron(o1, o2) - np.kron(o1t, o2t), p)
        rhs = 3.0 * eps * schatten_norm(np.kron(o1, o2), p)
        worst_ratio = max(worst_ratio, lhs / rhs)
        ok &= lhs <= rhs * _SLACK
    return _result("disjoint_product_lemma", ok, trials=trials,
                   worst_ratio=worst_ratio)


def check_perturbation_lemma(trials: int = 120, seed: int = 20240602) -> dict:
    """||exp(A+B) - exp(A)||_p <= exp(||B||) * ||B|| * ||exp(A)||_p."""
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    ok = True
    for _ in range(trials):
        dim = 2 ** int(rng.integers(1, 7))
        p = float(rng.choice([1.0, 2.0, np.inf]))
        a = _random_hermitian(rng, dim, float(rng.uniform(0.1, 3.0)))
        b = _random_hermitian(rng, dim, float(rng.uniform(0.01, 2.0)))
        lhs = schatten_norm(_expm_h(a + b) - _expm_h(a), p)
        bn = np.linalg.norm(b, ord=2)
        rhs = math.exp(bn) * bn * schatten_norm(_expm_h(a), p)
        worst_ratio = max(worst_ratio, lhs / rhs)
        ok &= lhs <= rhs * _SLACK
    return _result("perturbation_lemma", ok, trials=trials,
                   worst_ratio=worst_ratio)


def check_powering_inequality(trials: int = 120, seed: int = 20240603) -> dict:
    """Relative error eps' in the (p1*p2)-norm powers to (3e/2)*p1*eps' in p2."""
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    ok = True
    for _ in range(trials):
        dim = 2 ** int(rng.integers(1, 7))
        p1 = int(rng.integers(2, 7))
        p2 = float(rng.choice([1.0, 2.0, np.inf]))
        p12 = np.inf if p2 == np.inf else p1 * p2
        ham = _random_hermitian(rng, dim, float(rng.uniform(0.5, 4.0)))
        base = _expm_h(-ham)
        eps = float(rng.uniform(1e-4, min(0.25, 0.5 / p1)))
        pert = _random_hermitian(rng, dim)
        approx = base + pert * (eps * schatten_norm(base, p12)
                                / schatten_norm(pert, p12))
        lhs = schatten_norm(_expm_h(-p1 * ham)
                            - np.linalg.matrix_power(approx, p1), p2)
        rhs = 1.5 * math.e * p1 * eps * schatten_norm(_expm_h(-p1 * ham), p2)
        worst_ratio = max(worst_ratio, lhs / rhs)
        ok &= lhs <= rhs * _SLACK
    return _result("powering_inequality", ok, trials=trials,
                   worst_ratio=worst_ratio)


def _expm_h(h: np.ndarray) -> np.ndarray:
    return dense_exp(h, 1.0)


# ---------------------------------------------------------------------------
# MPO algebra and scaling fits
# ---------------------------------------------------------------------------

def check_mpo_exactness(trials: int = 30, seed: int = 20240604) -> dict:
    """Randomized multiply/add/scale/power against the dense oracle (1e-10)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    roundtrip_ok = True
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        bond = int(rng.integers(1, 4))
        a = mpo_ops.random_mpo(n, 2, bond, rng=rng)
        b = mpo_ops.random_mpo(n, 2, bond, rng=rng)
        da, db = a.densify(), b.densify()
        c = complex(rng.standard_normal(), rng.standard_normal())
        worst = max(
            worst,
            _dev(mpo_ops.multiply(a, b).densify(), da @ db),
            _dev(mpo_ops.add(a, b).densify(), da + db),
            _dev(mpo_ops.scale(a, c).densify(), c * da),
            _dev(mpo_ops.power(a, 3)[0].densify(),
                 np.linalg.matrix_power(da, 3)),
        )
        blob = mpo_ops.mpo_to_bytes(a)
        back = mpo_ops.mpo_from_bytes(blob)
        roundtrip_ok &= mpo_ops.mpo_to_bytes(back) == blob
        roundtrip_ok &= all((x == y).all() for x, y in zip(a.cores, back.cores))
    ok = worst <= 1e-10 and roundtrip_ok
    return _result("mpo_exactness", ok, worst_deviation=worst,
                   roundtrip_bit_exact=roundtrip_ok, trials=trials)


def _dev(x: np.ndarray, y: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(y).max()))
    return float(np.abs(x - y).max()) / scale


def check_bond_scaling(n: int = 8, eps_lo: float = -1.0, eps_hi: float = -4.0,
                       points: int = 10, r2_min: float = 0.95) -> dict:
    """Ledger bond of the merged-chain MPO scales as exp(O(ln^2(n/eps)))."""
    spec = default_chain(n)
    beta = 4.0 * base_step(spec)
    xs, ys = [], []
    for eps in np.logspace(eps_lo, eps_hi, points):
        budget, _, _ = plan_budget(spec, beta, float(eps))
        xs.append(math.log(n / eps) ** 2)
        ys.append(budget.to_dict()["high_temp_bond_ledger_log10"])
    slope, r2 = _fit_line(np.array(xs), np.array(ys), with_r2=True)
    ok = r2 >= r2_min
    return _result("bond_scaling", ok, slope=slope, r_squared=r2)


def _fit_line(xs: np.ndarray, ys: np.ndarray, with_r2: bool = False):
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    if not with_r2:
        return coef
    resid = ys - design @ coef
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    return float(coef[0]), 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

ALL_CHECKS = {
    "merge_truncation_sweep": check_merge_truncation_sweep,
    "per_order_decay": check_per_order_decay,
    "decoupled_identity": check_decoupled_identity,
    "layer_recursion": check_layer_recursion,
    "forced_low_order": check_forced_low_order,
    "end_to_end": check_end_to_end,
    "real_time": check_real_time,
    "kernel_certification": check_kernel_certification,
    "hamiltonian_replacement": check_hamiltonian_replacement,
    "kernel_order_scaling": check_kernel_order_scaling,
    "disjoint_product_lemma": check_disjoint_product_lemma,
    "perturbation_lemma": check_perturbation_lemma,
    "powering_inequality": check_powering_inequality,
    "mpo_exactness": check_mpo_exactness,
    "bond_scaling": check_bond_scaling,
}

# checks that demonstrate a violated regime; they are supposed to fail
DEFAULT_EXPECT_FAIL = frozenset({"forced_low_order"})

_FAST_OVERRIDES = {
    "merge_truncation_sweep": {"orders": range(2, 9)},
    "per_order_decay": {"ns": (4,), "max_m": 8},
    "layer_recursion": {"n": 6},
    "end_to_end": {"ns": (4, 6), "beta_mults": (1.0, 4.0)},
    "real_time": {"times": (0.25,), "n": 4},
    "hamiltonian_replacement": {"n": 6, "alphas": (3.0,), "ham_tols": (1e-1, 1e-2)},
    "disjoint_product_lemma": {"trials": 25},
    "perturbation_lemma": {"trials": 25},
    "powering_inequality": {"trials": 25},
    "mpo_exactness": {"trials": 8},
    "bond_scaling": {"points": 6},
}


def run_checks(names=None, fast: bool = False, seed: int | None = None) -> list[dict]:
    """Run the selected checks (all by default) and collect their reports."""
    names = list(names) if names else list(ALL_CHECKS)
    unknown = [x for x in names if x not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    results = []
    for name in names:
        kwargs = dict(_FAST_OVERRIDES.get(name, {})) if fast else {}
        if seed is not None and "seed" in inspect.signature(ALL_CHECKS[name]).parameters:
            kwargs["seed"] = seed
        results.append(ALL_CHECKS[name](**kwargs))
    return results
