"""Full pipeline: block tree, layered merging, powering, error budgets.

The thermal operator exp(-beta*H) is built in four stages.  (1) Exact
high-temperature operators exp(-b0*H_leaf) on two-site leaf blocks.
(2) log2(n) merge layers, each joining adjacent blocks with a truncated
merge operator.  The layer loop routes every merge: a joined block that
fits the dense cap has its merge operator evaluated densely in the
blocks' eigenbases, a lossless one with the blocks' dense operators as the
joined block itself; every other product, and every merge operator beyond
the cap, runs on MPOs.
Each block of a layer is one :class:`Block` record: its MPO, for a block
within the cap its Hamiltonian eigensystem, and for a leaf or a lossless
dense merge's result its dense operator, which the parent merge reuses.
(3) The result approximates exp(-b0*H) with a relative error eps0' that
obeys the per-layer recursion e_q = a2*d0 + a1*e_{q-1}.  (4) Raising it
to the integer power Q = beta/b0 by repeated squaring reaches the target
temperature with relative error at most 5*Q*eps0' in every Schatten norm.
Setting beta = i*t runs the same pipeline for real-time evolution.

Every dense eigensystem, exponential and measurement goes through the
oracle, which splits a spin-flip symmetric Hamiltonian (H = JHJ, J the
reversal of the basis index) into two half-size blocks.  A dense merge
runs by sectors when its three eigensystems split and, if lossless, both
blocks' operators are exactly even, as every leaf and lossless dense
merge of such a model is.  The dense power of stage (4) is the oracle's
too, by the same halves when the merged operator is exactly even, as a
lossless merge of such a model is.  No option selects any of this: the
matrices decide.

The per-merge tolerance d0 is chosen so the powered error meets the
requested target.  The dense cap picks the Hamiltonian that runs: the input
one within it; beyond it, for power-law pairwise models, the exponential-
kernel surrogate, with the budget split so the combined error still lands
below the target.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .expsum import ExpSumApprox, approximate_hamiltonian
from .model import HamiltonianSpec, Interval, boundary_bound, \
    extensivity_constant, restrict, spec_digest
from .oracle import DEFAULT_DENSE_CAP, Eigensystem, dense_power, \
    eigensystem, exp_of_eigensystem, exp_with_spectrum, relative_error, \
    schatten_errors
from . import mpo as mpo_ops
from .mpo import DEFAULT_MAX_BOND, MPO, CompressionPolicy, hamiltonian_mpo
from .merge import MAX_TAYLOR_ORDER, build_merge_mpo, certified_step, \
    merge_bond_ledger, merge_spec_for, tail_prefactor, \
    truncated_merge_dense, truncation_order_for


class BudgetError(ValueError):
    """The requested run parameters admit no certified budget."""


def recursion_constants(g: float, k: int, gtilde: float) -> tuple[float, float]:
    """Per-merge error recursion constants (gain a1, truncation offset a2)."""
    a1 = 12.0 * math.exp(gtilde / (4.0 * g * k * k))
    a2 = 2.0 * math.exp(gtilde / (24.0 * g * k * k))
    return a1, a2


@dataclass(frozen=True)
class ErrorBudget:
    """All constants and tolerances of one pipeline run."""

    epsilon: float            # requested total relative error
    beta: complex             # i*t for real-time runs
    beta_abs: float
    steps: int                # integer power Q = |beta| / |beta0|
    beta0: complex
    merge_tol: float          # per-merge operator-error target d0
    order: int                # Taylor truncation order of each merge
    num_layers: int           # q0, leaf layer included
    ham_tol: float            # Hamiltonian replacement error (0 = input H)
    mpo_target: float         # error budgeted to the MPO stage itself
    extensivity: float        # g of the run Hamiltonian
    boundary_norm: float      # uniform boundary bound of the run Hamiltonian
    locality: int
    tail_prefactor: float     # c0
    merge_gain: float         # a1
    merge_offset: float       # a2
    high_temp_error: float    # predicted relative error of the merged operator
    powered_error: float      # predicted relative error after Q-fold powering
    total_predicted: float    # powered error composed with the replacement error
    two_local_path: bool      # the kernel surrogate ran
    real_time: bool
    ham_bond: int             # bond of the run-Hamiltonian MPO
    merge_bond_ledger: int    # (m0+1)^2 * D_H^m0
    high_temp_bond_ledger: int
    final_bond_ledger: int

    def to_dict(self) -> dict:
        """Flat view; complex fields split, bond ledgers given as log10."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "complex":
                out[f"{f.name}_real"] = value.real
                out[f"{f.name}_imag"] = value.imag
            elif f.name.endswith("_ledger"):
                out[f"{f.name}_log10"] = _log10_int(value)
            else:
                out[f.name] = value
        return out


def _log10_int(value: int) -> float:
    if value <= 0:
        return float("-inf")
    shift = max(0, value.bit_length() - 64)
    return math.log10(value >> shift) + shift * math.log10(2.0)


def _require_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon <= 1.0:
        raise BudgetError(f"target error must lie in (0, 1], got {epsilon}")


def build_merge_plan(n: int) -> tuple[tuple[Interval, ...], ...]:
    """Layers of the halving tree over two-site leaves, leaves first (q0 of
    them); each tiles the chain, and odd trailing blocks carry up unmerged."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    leaves = tuple(Interval(lo, min(lo + 1, n)) for lo in range(1, n + 1, 2))
    layers = [leaves]
    while len(layers[-1]) > 1:
        prev = layers[-1]
        nxt = [Interval(prev[i].lo, prev[i + 1].hi)
               for i in range(0, len(prev) - 1, 2)]
        if len(prev) % 2 == 1:
            nxt.append(prev[-1])
        layers.append(tuple(nxt))
    return tuple(layers)


def plan_budget(spec: HamiltonianSpec, beta: float, epsilon: float, *,
                real_time: bool = False,
                dense_cap: int = DEFAULT_DENSE_CAP,
                force_steps: int | None = None,
                ) -> tuple[ErrorBudget, HamiltonianSpec, ExpSumApprox | None]:
    """Derive the full error budget for one run.

    Picks the largest admissible high-temperature step (fewest powering
    steps Q), then the per-merge tolerance

        d0 = |b0| * eps_mpo / (5 * |beta| * a2 * n^log2(2*a1))

    whose powered error lands at eps_mpo by construction.  Only a chain of
    more than ``dense_cap`` states, whose top merge is assembled on MPOs
    where the Hamiltonian's bond D_H costs, asks
    :func:`~gibbsmpo.expsum.approximate_hamiltonian` for the kernel
    surrogate (tolerance eps/(6*beta)); with a series the MPO stage gets
    eps/3 so the composed error stays below eps, and a power-law model
    without one raises ``BudgetError``.  Otherwise the input Hamiltonian
    runs with the whole eps.

    Returns (budget, run spec, kernel series or None).  The run spec is the
    Hamiltonian the pipeline actually exponentiates, and its boundary bound
    enters the budget; a replaced Hamiltonian's input spec is bounded too,
    which runs :func:`~gibbsmpo.model.boundary_bound`'s zeta consistency
    check.
    """
    _require_epsilon(epsilon)
    beta_abs = abs(beta)
    if not math.isfinite(beta_abs):
        raise BudgetError(f"evolution parameter must be finite, got {beta}")
    if beta_abs <= 0.0:
        raise BudgetError(f"evolution parameter must be nonzero, got {beta}")
    if beta_abs >= spec.n:
        raise BudgetError(f"budget requires |beta| < n, got |beta|={beta_abs} "
                          f"with n={spec.n}")

    beta_c = 1j * beta if real_time else float(beta)
    ham_tol, mpo_target = 0.0, epsilon
    run_spec, series = spec, None
    if spec.d ** spec.n > dense_cap:
        try:
            run_spec, series = approximate_hamiltonian(
                spec, epsilon / (6.0 * beta_abs))
        except ValueError as exc:
            raise BudgetError(f"no kernel series for this model: {exc}") from exc
        if series is not None:
            ham_tol, mpo_target = epsilon / (6.0 * beta_abs), epsilon / 3.0

    g = extensivity_constant(run_spec)
    gtilde = boundary_bound(run_spec)
    if run_spec is not spec:  # only the input carries the zeta check's metadata
        boundary_bound(spec)
    k = run_spec.k
    if g <= 0.0:
        # zero Hamiltonian: a single exact step suffices
        g = 1.0
    beta0_max = certified_step(g, k)
    steps = max(1, math.ceil(beta_abs / beta0_max - 1e-12))
    if force_steps is not None:
        if force_steps < steps:
            raise BudgetError(f"forcing {force_steps} steps would leave the "
                              f"certified window (minimum {steps})")
        steps = force_steps
    beta0 = beta_c / steps
    beta0_abs = beta_abs / steps

    a1, a2 = recursion_constants(g, k, gtilde)
    c0 = tail_prefactor(g, k, gtilde)
    q0 = len(build_merge_plan(spec.n))
    merge_tol = beta0_abs * mpo_target / (
        5.0 * beta_abs * a2 * spec.n ** math.log2(2.0 * a1))
    order = truncation_order_for(merge_tol, g, k, gtilde)
    high_temp_error = a2 * merge_tol * q0 * a1 ** (q0 - 2) if q0 >= 2 else 0.0
    powered_error = 5.0 * steps * high_temp_error
    ham_component = math.exp(beta_abs * ham_tol) * beta_abs * ham_tol
    total_predicted = ham_component + powered_error * (1.0 + ham_component)

    d_h = hamiltonian_mpo(run_spec).max_bond
    merge_ledger = merge_bond_ledger(order, d_h)
    high_temp_ledger = run_spec.d ** 2 * merge_ledger ** max(0, q0 - 1)
    budget = ErrorBudget(
        epsilon=epsilon, beta=beta_c, beta_abs=beta_abs, steps=steps,
        beta0=beta0, merge_tol=merge_tol, order=order, num_layers=q0,
        ham_tol=ham_tol, mpo_target=mpo_target, extensivity=g,
        boundary_norm=gtilde, locality=k, tail_prefactor=c0, merge_gain=a1,
        merge_offset=a2, high_temp_error=high_temp_error,
        powered_error=powered_error, total_predicted=total_predicted,
        two_local_path=series is not None, real_time=real_time, ham_bond=d_h,
        merge_bond_ledger=merge_ledger,
        high_temp_bond_ledger=high_temp_ledger,
        final_bond_ledger=high_temp_ledger ** steps,
    )
    return budget, run_spec, series


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Block:
    """One block of a merge layer, from the leaf or merge that made it.

    Every block holds its operator as an MPO, made once when the block is
    created; a dense operator is refactorized exactly (bonds equal to the
    true cut ranks).  A block within the dense cap also holds the
    eigensystem of its Hamiltonian, and a leaf or the result of a lossless
    dense merge its dense operator; the layer reference and the parent
    merge read them, and a parent merge within the cap drops them.  A
    block passing through a layer is the same object in the next one.
    """

    interval: Interval
    mpo: MPO
    dense: np.ndarray | None = None
    eig: Eigensystem | None = None


def leaf_block(run_spec: HamiltonianSpec, leaf: Interval,
               beta0: complex) -> Block:
    """The exact exp(-b0*H_leaf) of one leaf, from its eigensystem (taken
    whatever the dense cap)."""
    eig = eigensystem(restrict(run_spec, leaf), cap=run_spec.d ** len(leaf))
    op = exp_of_eigensystem(eig, -beta0)
    return Block(leaf, mpo_ops.from_dense(op, len(leaf), run_spec.d), op, eig)


@dataclass
class LayerDiagnostics:
    """Measured per-layer state of the merging cascade."""

    errors: list[float] = field(default_factory=list)       # max rel S2 error
    bond_profiles: list[list[int]] = field(default_factory=list)
    discarded_weight: float = 0.0
    top_eig: Eigensystem | None = None  # the top block's, within the cap


def _merges_densely(policy: CompressionPolicy, dim: int,
                    dense_cap: int) -> bool:
    """Lossless products and powers on at most ``dense_cap`` states run on
    dense matrices, everything else on MPOs; :func:`merge_layer` applies
    the same rule to each merge's product, and names the engine by it."""
    return policy.lossless and dim <= dense_cap


def merge_layer(layer: list[Block], run_spec: HamiltonianSpec,
                beta0: complex, order: int,
                policy: CompressionPolicy = CompressionPolicy(), *,
                dense_cap: int = DEFAULT_DENSE_CAP,
                max_bond: int = DEFAULT_MAX_BOND,
                ) -> tuple[list[Block], float]:
    """Join adjacent block pairs with truncated merge operators; the one
    place a merge is routed.

    Every step must lie in its merge's certified window (``ValueError``
    otherwise).  A joined block of at most ``dense_cap`` states has its
    merge operator evaluated densely, in the eigensystems of the halves
    (read from the blocks, which are within the cap too) and of the joined
    block (computed here, once per block).  Under a lossless policy the
    same call takes the halves' dense operators X_A and X_B (leaves or
    lossless dense merges themselves) and returns the joined block
    Psi~ (X_A (x) X_B); under a lossy one the merge operator is
    refactorized exactly, compressed by the policy and multiplied into the
    blocks' MPOs by :func:`~gibbsmpo.mpo.product`.  Either way the merge
    consumes its halves: it drops their dense operators and eigensystems,
    which no later step reads, before the joined block is refactorized.
    Beyond the cap the merge operator is the Horner assembly of
    :func:`~gibbsmpo.merge.build_merge_mpo`, multiplied by
    :func:`~gibbsmpo.mpo.product`.  Returns the next layer and the
    discarded compression weight, summed over every truncation of the
    layer: the merge operator's (the Horner assembly's products and sums,
    or the compression of the dense one) and the product's.  It is 0 on
    lossless dense merges and under "none", at roundoff level under tol=0.
    An odd trailing block passes through.
    """
    d = run_spec.d
    nxt = []
    discarded = 0.0
    for a, b in zip(layer[0::2], layer[1::2]):
        joined = Interval(a.interval.lo, b.interval.hi)
        n = len(joined)
        ms = merge_spec_for(run_spec, a.interval, b.interval, beta0, order)
        if d ** n > dense_cap:
            eig = None
            psi, w_psi = build_merge_mpo(ms, policy=policy, max_bond=max_bond)
        else:
            ms.require_window()
            eig = eigensystem(ms.spec_ab, cap=dense_cap)
            # lossless: the joined block itself, Psi~ (X_A (x) X_B)
            dense = truncated_merge_dense(
                ms, spectra=(eig, a.eig, b.eig),
                blocks=(a.dense, b.dense) if policy.lossless else None)
            a.dense = a.eig = b.dense = b.eig = None
            if policy.lossless:
                nxt.append(Block(joined, mpo_ops.from_dense(dense, n, d),
                                 dense, eig))
                continue
            psi, w_psi = mpo_ops.compress(mpo_ops.from_dense(dense, n, d),
                                          policy)
            del dense
        merged, w = mpo_ops.product(psi, mpo_ops.concat(a.mpo, b.mpo),
                                    policy, max_bond=max_bond)
        discarded += w_psi + w
        nxt.append(Block(joined, merged, eig=eig))
    if len(layer) % 2 == 1:
        nxt.append(layer[-1])
    return nxt, discarded


def build_high_temp_mpo(run_spec: HamiltonianSpec, budget: ErrorBudget,
                        policy: CompressionPolicy = CompressionPolicy(), *,
                        dense_cap: int = DEFAULT_DENSE_CAP,
                        max_bond: int = DEFAULT_MAX_BOND,
                        ) -> tuple[MPO, LayerDiagnostics]:
    """Run leaves plus all merge layers; returns the merged-chain MPO.

    The leaves are :func:`leaf_block` records, and :func:`merge_layer`
    runs from them until one block is left, so the layers are those of
    :func:`build_merge_plan`.  Each layer logs its blocks' bond maxima
    and, when the chain fits ``dense_cap``, its error: the largest
    relative S2 distance of a block from exp(-b0*H_block), built from the
    eigensystem the block holds (every block does when the chain fits the
    cap).  The leaves are exact, so the first error is 0.
    """
    diag = LayerDiagnostics()
    beta0 = budget.beta0
    measure = run_spec.d ** run_spec.n <= dense_cap
    blocks = [leaf_block(run_spec, leaf, beta0)
              for leaf in build_merge_plan(run_spec.n)[0]]
    if measure:
        diag.errors.append(0.0)
    diag.bond_profiles.append([max(b.mpo.bond_profile) for b in blocks])
    while len(blocks) > 1:
        blocks, w = merge_layer(blocks, run_spec, beta0, budget.order,
                                policy, dense_cap=dense_cap,
                                max_bond=max_bond)
        diag.discarded_weight += w
        if measure:
            errors = []
            for b in blocks:
                op = b.dense if b.dense is not None \
                    else b.mpo.densify(cap=dense_cap)
                errors.append(relative_error(
                    exp_of_eigensystem(b.eig, -beta0), op, 2))
            diag.errors.append(max(errors))
        diag.bond_profiles.append([max(b.mpo.bond_profile) for b in blocks])
    diag.top_eig = blocks[0].eig
    return blocks[0].mpo, diag


# ---------------------------------------------------------------------------
# top-level builds
# ---------------------------------------------------------------------------

@dataclass
class ErrorReport:
    """Predicted and measured errors plus bond accounting for one run."""

    budget: ErrorBudget
    engine: str
    policy: str
    measured: dict[str, float]
    per_layer_error: list[float]
    per_layer_max_bond: list[list[int]]
    bond_profile: list[int]
    discarded_weight: float
    certified: bool
    notes: list[str]
    timings: dict[str, float]
    model_digest: str = ""

    def to_dict(self) -> dict:
        return {
            "format": 1,
            "model_digest": self.model_digest,
            "budget": self.budget.to_dict(),
            "engine": self.engine,
            "policy": self.policy,
            "measured": dict(sorted(self.measured.items())),
            "per_layer_error": self.per_layer_error,
            "per_layer_max_bond": self.per_layer_max_bond,
            "bond_profile": self.bond_profile,
            "discarded_weight": self.discarded_weight,
            "certified": self.certified,
            "notes": list(self.notes),
            "timings": dict(sorted(self.timings.items())),
        }


def build_gibbs_mpo(spec: HamiltonianSpec, beta: float, epsilon: float,
                    policy: CompressionPolicy | None = None, *,
                    real_time: bool = False,
                    dense_cap: int = DEFAULT_DENSE_CAP,
                    max_bond: int = DEFAULT_MAX_BOND,
                    override_order: int | None = None,
                    override_steps: int | None = None,
                    ) -> tuple[MPO, ErrorReport]:
    """Build the MPO approximation of exp(-beta*H) with its error report.

    With a lossless policy the result carries only the certified truncation
    error of the budget; the relative Schatten-1, -2 and -inf errors against
    the dense oracle (:func:`~gibbsmpo.oracle.schatten_errors`), and on a
    thermal run the relative trace error, are measured whenever the chain
    fits the dense cap (beyond it the report keeps predictions only);
    such a chain runs the input Hamiltonian (:func:`plan_budget` gets the
    same cap), so the reference reuses the top block's eigensystem.
    Truncating policies merge and power on MPOs; their predictions are
    heuristic and flagged.  The report's ``engine`` is "dense" when the top
    merge ran densely (see :func:`merge_layer`), else "mpo".
    """
    t_start = time.perf_counter()
    policy = policy or CompressionPolicy()
    _require_epsilon(epsilon)
    if override_order is not None \
            and not 0 <= override_order <= MAX_TAYLOR_ORDER:
        raise ValueError(f"override order {override_order} out of range")
    if beta == 0.0:  # trivial evolution: exp(0) is the identity
        return _trivial_identity_run(spec, epsilon, real_time, policy)
    budget, run_spec, _series = plan_budget(
        spec, beta, epsilon, real_time=real_time, dense_cap=dense_cap,
        force_steps=override_steps)
    notes: list[str] = []
    certified = True
    if override_order is not None:
        if override_order < budget.order:
            certified = False
            notes.append(f"order forced to {override_order} below the "
                         f"certified requirement {budget.order}")
        budget = replace(budget, order=override_order)
    if real_time:
        certified = False
        notes.append("real-time run: thermal constants reused with |beta0|; "
                     "bounds are empirical here")
    if not policy.lossless:
        certified = False
        notes.append("truncating compression active: error predictions are "
                     "heuristic, not certified")

    t_merge = time.perf_counter()
    m_base, diag = build_high_temp_mpo(run_spec, budget, policy,
                                       dense_cap=dense_cap, max_bond=max_bond)
    top_eig, diag.top_eig = diag.top_eig, None
    t_power = time.perf_counter()
    m_final, extra_discard = _power_step(m_base, budget.steps, policy,
                                         dense_cap, max_bond)
    diag.discarded_weight += extra_discard
    t_measure = time.perf_counter()

    measured: dict[str, float] = {}
    if spec.d ** spec.n <= dense_cap:
        reference, ref_sv = exp_with_spectrum(top_eig, -budget.beta)
        del top_eig
        measured = schatten_errors(reference, ref_sv,
                                   m_final.densify(cap=dense_cap))
        if not real_time:  # tr exp(-iHt) can vanish; only thermal traces compared
            ref_trace = complex(np.trace(reference))
            measured["trace"] = abs(complex(m_final.trace()) - ref_trace) / abs(ref_trace)
    else:
        notes.append("oracle cap exceeded: measurements skipped, "
                     "predictions kept")

    report = ErrorReport(
        budget=budget,
        model_digest=spec_digest(spec),
        engine="dense" if _merges_densely(policy, spec.d ** spec.n,
                                          dense_cap) else "mpo",
        policy=policy.describe(),
        measured=measured,
        per_layer_error=list(diag.errors),
        per_layer_max_bond=list(diag.bond_profiles),
        bond_profile=list(m_final.bond_profile),
        discarded_weight=diag.discarded_weight,
        certified=certified,
        notes=notes,
        timings={
            "plan_s": t_merge - t_start,
            "merge_s": t_power - t_merge,
            "power_s": t_measure - t_power,
            "measure_s": time.perf_counter() - t_measure,
            "total_s": time.perf_counter() - t_start,
        },
    )
    return m_final, report


def _trivial_identity_run(spec, epsilon, real_time, policy):
    budget = ErrorBudget(
        epsilon=epsilon, beta=0j, beta_abs=0.0, steps=1, beta0=0j,
        merge_tol=0.0, order=0, num_layers=1, ham_tol=0.0,
        mpo_target=epsilon, extensivity=extensivity_constant(spec),
        boundary_norm=boundary_bound(spec), locality=spec.k,
        tail_prefactor=1.0, merge_gain=1.0, merge_offset=1.0,
        high_temp_error=0.0, powered_error=0.0, total_predicted=0.0,
        two_local_path=False, real_time=real_time, ham_bond=1,
        merge_bond_ledger=1, high_temp_bond_ledger=1, final_bond_ledger=1)
    ident = mpo_ops.identity_mpo(spec.n, spec.d)
    report = ErrorReport(
        budget=budget, model_digest=spec_digest(spec), engine="dense",
        policy=policy.describe(),
        measured={"p1": 0.0, "p2": 0.0, "pinf": 0.0, "trace": 0.0},
        per_layer_error=[0.0], per_layer_max_bond=[[1]],
        bond_profile=list(ident.bond_profile), discarded_weight=0.0,
        certified=True, notes=["zero evolution parameter: exact identity"],
        timings=dict.fromkeys(
            ("plan_s", "merge_s", "power_s", "measure_s", "total_s"), 0.0))
    return ident, report


def _power_step(m_base: MPO, steps: int, policy: CompressionPolicy,
                dense_cap, max_bond):
    """Q-th power of the merged-chain MPO and its discarded weight.

    The merge rule (:func:`_merges_densely`) applied to the whole chain
    picks the arithmetic: a dense matrix power
    (:func:`~gibbsmpo.oracle.dense_power`, by the halves of
    :func:`~gibbsmpo.oracle.split_halves` when the densified operator is
    exactly even) and one refactorization, else the square-and-multiply
    :func:`~gibbsmpo.mpo.power`.
    """
    if steps > 1 and _merges_densely(policy, m_base.d ** m_base.n, dense_cap):
        powered = dense_power(m_base.densify(cap=dense_cap), steps)
        return mpo_ops.from_dense(powered, m_base.n, m_base.d), 0.0
    return mpo_ops.power(m_base, steps, policy, max_bond=max_bond)


def build_real_time_mpo(spec: HamiltonianSpec, t: float, epsilon: float,
                        policy: CompressionPolicy | None = None,
                        **kwargs) -> tuple[MPO, ErrorReport]:
    """MPO approximation of the real-time propagator exp(-i*H*t).

    Identical pipeline with an imaginary step; the reported operator-norm
    error is absolute (the reference is unitary, so relative equals
    absolute for p = inf).
    """
    return build_gibbs_mpo(spec, t, epsilon, policy, real_time=True, **kwargs)
