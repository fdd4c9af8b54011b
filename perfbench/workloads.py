"""The benchmark's workloads: inputs, one operation, correctness gate, fingerprint.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned.  Operations call the public API
through the ``gibbsmpo`` package attributes, so a traced run sees them
through the wrappers in ``spans.py``.

Why these three:

* ``thermal_n9`` -- the dense truncated merge does most of the work.  n=10
  takes about 90 s per build on one thread, too long for repeated runs;
  n=9 keeps the top merge dominant at about a seventh of that cost.
* ``mpo_route_n4`` -- a lossy policy with a dense cap of 4 states sends
  every merge through the MPO assembly, so MPO arithmetic does the work and
  the dense merge does none.  The default cap would route lossy merges to
  the dense evaluator, and larger power-law chains take minutes per build
  on this route.
* ``verify_fast`` -- the fast verification suite touches the same layers
  in other proportions; the kernel certification grid carries most of it.

``BENCHMARK.json`` gates ``thermal_n9`` and ``verify_fast`` only.  On a
small shared host every run's timings drift with the host's load for
minutes at a time, and two workloads leave room for runs long enough to
average over that.  ``verify_fast`` still reaches every layer, the MPO
assembly included (``check_decoupled_identity``); ``mpo_route_n4`` stays
runnable by hand for work on the MPO engine.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

ALPHA = 3.0
BETA_STEPS = 4          # beta = BETA_STEPS * certified high-temperature step
EPSILON = 1e-2
FIELD_CENTRE = 0.5
FIELD_HALF_WIDTH = 0.04  # order and steps stay fixed across this band
AGREE_TOL = 1e-12       # pipeline-measured vs benchmark-measured errors


def transverse_field(seed: int) -> float:
    """Field drawn from the seed; seed 0 is the model default 0.5."""
    if seed == 0:
        return FIELD_CENTRE
    u = np.random.default_rng(seed).uniform(-1.0, 1.0)
    return FIELD_CENTRE + FIELD_HALF_WIDTH * float(u)


def digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# independent dense reference (numpy/scipy only, no library code)
# ---------------------------------------------------------------------------

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.diag([1.0, -1.0])


def _site_op(op, site, n):
    """op on 0-based ``site`` of n qubits; site 0 is the leading factor."""
    return np.kron(np.kron(np.eye(2 ** site), op), np.eye(2 ** (n - site - 1)))


def ising_matrix(n: int, alpha: float, field: float) -> np.ndarray:
    """sum_{i<j} Z_i Z_j / |i-j|^alpha + field * sum_i X_i."""
    zs = [np.diag(_site_op(_Z, i, n)) for i in range(n)]
    diag = sum(zs[i] * zs[j] * (j - i) ** (-alpha)
               for i in range(n) for j in range(i + 1, n))
    h = np.diag(diag)
    for i in range(n):
        h = h + field * _site_op(_X, i, n)
    return h


def contract(cores) -> np.ndarray:
    """Dense operator of an MPO given its (left, row, col, right) cores."""
    acc = np.ones((1, 1, 1), dtype=complex)  # (rows, cols, bond)
    for core in cores:
        acc = np.einsum("ijr,rabs->iajbs", acc, core)
        acc = acc.reshape(acc.shape[0] * acc.shape[1],
                          acc.shape[2] * acc.shape[3], acc.shape[4])
    return acc[:, :, 0]


def schatten_errors(ref_sv: np.ndarray, ref: np.ndarray, approx: np.ndarray) -> dict:
    """Relative Schatten-1, -2 and -inf errors from one SVD of the difference."""
    sv = np.linalg.svd(ref - approx, compute_uv=False)
    return {"p1": float(sv.sum() / ref_sv.sum()),
            "p2": float(np.sqrt((sv ** 2).sum() / (ref_sv ** 2).sum())),
            "pinf": float(sv[0] / ref_sv[0])}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class BuildWorkload:
    """One op is one ``build_gibbs_mpo`` call on a power-law Ising chain."""

    def __init__(self, seed: int, n: int, compress: str, dense_cap: int | None):
        import gibbsmpo
        from gibbsmpo import verify

        self.n = n
        self.field = transverse_field(seed)
        self.spec = gibbsmpo.power_law_ising(n, ALPHA, transverse_field=self.field)
        self.beta = BETA_STEPS * verify.base_step(self.spec)
        self.policy = gibbsmpo.CompressionPolicy.parse(compress)
        self.kwargs = {} if dense_cap is None else {"dense_cap": dense_cap}

    def prepare(self) -> None:
        """Dense reference, computed once before timing begins."""
        import scipy.linalg

        self.reference = scipy.linalg.expm(
            -self.beta * ising_matrix(self.n, ALPHA, self.field))
        self.ref_sv = np.linalg.svd(self.reference, compute_uv=False)

    def op(self):
        import gibbsmpo

        return gibbsmpo.build_gibbs_mpo(self.spec, self.beta, EPSILON,
                                        self.policy, **self.kwargs)

    def check(self, result) -> list[str]:
        """Problems found in one op's output; empty when it is correct."""
        mpo, report = result
        approx = contract(mpo.cores)
        if approx.shape != self.reference.shape:
            return [f"output shape {approx.shape} != {self.reference.shape}"]
        errs = schatten_errors(self.ref_sv, self.reference, approx)
        problems = [f"{k} error {v:.3e} > epsilon {EPSILON}"
                    for k, v in errs.items() if not v <= EPSILON]
        for k, v in errs.items():
            if k in report.measured and not abs(report.measured[k] - v) <= AGREE_TOL:
                problems.append(f"report {k}={report.measured[k]:.17g} vs "
                                f"benchmark {v:.17g}")
        return problems

    def fingerprint(self, result) -> dict:
        import gibbsmpo

        mpo, report = result
        _, _, series = gibbsmpo.plan_budget(self.spec, self.beta, EPSILON,
                                            **self.kwargs)
        body = report.to_dict()
        body.pop("timings")
        return {
            "report_digest": digest(body),
            "transverse_field": self.field,
            "order": report.budget.order,
            "steps": report.budget.steps,
            "ham_bond": report.budget.ham_bond,
            "series_terms": 0 if series is None else series.num_terms,
            "bond_profile": list(mpo.bond_profile),
            "out_max_bond": mpo.max_bond,
            "engine": report.engine,
            "measured_by_pipeline": sorted(report.measured),
        }


class VerifyWorkload:
    """One op is ``run_checks(fast=True, seed=...)`` over every check."""

    def __init__(self, seed: int):
        from gibbsmpo import verify

        self.seed = seed
        self.expected = {name: name not in verify.DEFAULT_EXPECT_FAIL
                         for name in verify.ALL_CHECKS}

    def prepare(self) -> None:
        pass

    def op(self):
        from gibbsmpo import verify

        return verify.run_checks(fast=True, seed=self.seed)

    def check(self, results) -> list[str]:
        got = {r["name"]: r["passed"] for r in results}
        if list(got) != list(self.expected):
            return [f"checks run {list(got)} != {list(self.expected)}"]
        return [f"{name}: passed={got[name]}, expected {want}"
                for name, want in self.expected.items() if got[name] != want]

    def fingerprint(self, results) -> dict:
        return {
            "results_digest": digest(results),
            "seed": self.seed,
            "failed_checks": [r["name"] for r in results if not r["passed"]],
        }


WORKLOADS = {
    "thermal_n9": lambda seed: BuildWorkload(seed, 9, "none", None),
    "mpo_route_n4": lambda seed: BuildWorkload(seed, 4, "tol=1e-10", 4),
    "verify_fast": VerifyWorkload,
}
