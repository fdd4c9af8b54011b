"""Pipeline: budgets, block tree, layered merging, powering, error reports."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gibbsmpo.gibbs import (
    Block,
    BudgetError,
    build_gibbs_mpo,
    build_high_temp_mpo,
    build_merge_plan,
    build_real_time_mpo,
    leaf_block,
    merge_layer,
    plan_budget,
    recursion_constants,
)
from gibbsmpo.merge import certified_step, merge_spec_for, tail_prefactor, \
    truncated_merge_dense, truncation_order_for
from gibbsmpo.model import (
    HamiltonianSpec,
    Interval,
    LocalTerm,
    boundary_bound,
    dense_matrix,
    extensivity_constant,
    nearest_neighbor_ising,
    power_law_heisenberg,
    power_law_ising,
    power_law_pairwise,
    restrict,
    spec_from_config,
)
from gibbsmpo import mpo as mpo_module
from gibbsmpo.mpo import DEFAULT_MAX_BOND, BondCapError, CompressionPolicy
from gibbsmpo.oracle import DEFAULT_DENSE_CAP, dense_exp, eigensystem, \
    gibbs_dense, is_even, partition_function, relative_error
from gibbsmpo.verify import base_step


def chain(n, alpha=3.0):
    return power_law_ising(n, alpha)


def window(spec):
    return 1.0 / (24.0 * extensivity_constant(spec) * spec.k ** 2)


def leaf_ops(spec, beta0):
    """The chain's leaf blocks: exact dense Gibbs operators, their
    eigensystems and exact MPOs."""
    return [leaf_block(spec, leaf, beta0)
            for leaf in build_merge_plan(spec.n)[0]]


def leaf_mpos(spec, beta0):
    """The leaf blocks with their exact MPOs only, as an MPO merge leaves
    its blocks."""
    return [Block(b.interval, b.mpo) for b in leaf_ops(spec, beta0)]


# ---------------------------------------------------------------------------
# plan and budget
# ---------------------------------------------------------------------------

def test_plan_tiles_chain_and_doubles_blocks():
    for n in range(2, 13):
        plan = build_merge_plan(n)
        for layer in plan:
            sites = [s for iv in layer for s in iv.sites()]
            assert sites == list(range(1, n + 1))  # disjoint tiling, ordered
        assert plan[-1] == (Interval(1, n),)
        for lower, upper in zip(plan, plan[1:]):
            assert len(upper) == (len(lower) + 1) // 2


def test_budget_steps_at_window_boundary():
    spec = chain(6)
    beta0 = window(spec)
    budget, _, _ = plan_budget(spec, beta0, 1e-2)
    assert budget.steps == 1 and budget.beta0 == pytest.approx(beta0)
    budget10, _, _ = plan_budget(spec, 10 * beta0, 1e-2)
    assert budget10.steps == 10
    budget_frac, _, _ = plan_budget(spec, 10.3 * beta0, 1e-2)
    assert budget_frac.steps == 11


def test_budget_validations():
    spec = chain(4)
    with pytest.raises(BudgetError):
        plan_budget(spec, 5.0, 1e-2)  # beta >= n
    with pytest.raises(BudgetError):
        plan_budget(spec, 0.0, 1e-2)
    with pytest.raises(BudgetError):
        plan_budget(spec, 0.01, 2.0)
    with pytest.raises(BudgetError):
        plan_budget(spec, 0.01, 0.0)
    with pytest.raises(BudgetError):
        plan_budget(spec, 0.01, 1e-2, force_steps=1)  # below the minimum split
    for dense_cap in (4, DEFAULT_DENSE_CAP):  # surrogate and input paths
        for real_time in (False, True):
            with pytest.raises(BudgetError):
                plan_budget(spec, math.nan, 1e-2, dense_cap=dense_cap,
                            real_time=real_time)


def test_budget_constants_and_tolerance_formula():
    # a dense cap below the chain's 256 states runs the kernel surrogate
    spec = chain(8)
    beta = 4 * window(spec)
    budget, run_spec, series = plan_budget(spec, beta, 1e-2, dense_cap=16)
    g, gt, k = budget.extensivity, budget.boundary_norm, budget.locality
    assert g == pytest.approx(extensivity_constant(run_spec))
    assert gt == pytest.approx(boundary_bound(run_spec))
    a1, a2 = recursion_constants(g, k, gt)
    assert budget.merge_gain == pytest.approx(12 * math.exp(gt / (4 * g * k * k)))
    assert budget.merge_offset == pytest.approx(2 * math.exp(gt / (24 * g * k * k)))
    assert (budget.merge_gain, budget.merge_offset) == (a1, a2)
    assert budget.tail_prefactor == pytest.approx(
        tail_prefactor(g, k, gt))
    # per-merge tolerance: |b0| * eps_mpo / (5 * |beta| * a2 * n^log2(2*a1))
    expected_tol = (abs(budget.beta0) * budget.mpo_target
                    / (5 * budget.beta_abs * a2
                       * spec.n ** math.log2(2 * a1)))
    assert budget.merge_tol == pytest.approx(expected_tol, rel=1e-12)
    assert budget.order == truncation_order_for(budget.merge_tol, g, k, gt)
    assert abs(budget.beta0) <= 1.0 / (24 * g * k * k) * (1 + 1e-12)
    assert budget.beta0 * budget.steps == pytest.approx(budget.beta)
    # pairwise path split: replacement tolerance eps/(6*beta), stage eps/3
    assert budget.two_local_path and series is not None
    assert budget.ham_tol == pytest.approx(1e-2 / (6 * beta))
    assert budget.mpo_target == pytest.approx(1e-2 / 3)
    assert budget.total_predicted <= 1e-2


def test_budget_generic_path_opt_out():
    # within the dense cap a power-law chain runs its input Hamiltonian
    spec = chain(6)
    budget, run_spec, series = plan_budget(spec, window(spec), 1e-2)
    assert series is None and run_spec is spec
    assert budget.ham_tol == 0.0 and budget.mpo_target == 1e-2


@pytest.mark.parametrize("n", [4, 6, 8])
def test_dense_cap_picks_the_run_hamiltonian(n):
    # the surrogate runs exactly when the chain exceeds the cap, where the
    # top merge assembles the Hamiltonian's MPO
    spec = chain(n)
    beta = 4 * window(spec)
    for dense_cap in (DEFAULT_DENSE_CAP, 2 ** n):
        budget, run_spec, series = plan_budget(spec, beta, 1e-2,
                                               dense_cap=dense_cap)
        assert series is None and run_spec is spec
        assert not budget.two_local_path
    budget, run_spec, series = plan_budget(spec, beta, 1e-2,
                                           dense_cap=2 ** n - 1)
    assert series is not None and run_spec.exp_channels is not None
    assert budget.two_local_path and budget.mpo_target == 1e-2 / 3


def test_power_law_build_runs_the_zeta_check(monkeypatch):
    # the kernel-replaced run spec carries no power-law metadata, so the
    # plan bounds the input spec too: boundary_bound's zeta consistency
    # check runs on a default power-law build
    import gibbsmpo.model as model_mod
    calls = []
    _count_calls(monkeypatch, model_mod, "power_law_boundary_bound", calls)
    spec = power_law_ising(6, 3)
    _, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2,
                                CompressionPolicy.parse("tol=1e-10"),
                                dense_cap=16)
    assert report.budget.two_local_path
    assert len(calls) >= 1


def test_budget_layer_count_matches_plan():
    for n in (2, 3, 4, 5, 6, 8, 11):
        spec = chain(n)
        budget, _, _ = plan_budget(spec, window(spec), 1e-1)
        assert budget.num_layers == len(build_merge_plan(n))


# ---------------------------------------------------------------------------
# leaves
# ---------------------------------------------------------------------------

def test_leaf_gibbs_exact_against_dense():
    spec = chain(4)
    beta0 = window(spec)
    for block in leaf_ops(spec, beta0):
        local = restrict(spec, block.interval)
        ref = dense_exp(dense_matrix(local), -beta0)
        assert np.abs(block.dense - ref).max() < 1e-12
        assert np.abs(block.mpo.densify() - ref).max() < 1e-12
        assert max(block.mpo.bond_profile) <= spec.d ** 2


def test_leaf_gibbs_zero_beta_is_identity():
    spec = chain(4)
    for block in leaf_mpos(spec, 0.0):
        assert np.abs(block.mpo.densify() - np.eye(4)).max() < 1e-14


def test_leaf_gibbs_commuting_single_site_terms():
    # on-site fields only: the leaf operator is the product of single-site
    # exponentials
    terms = tuple(LocalTerm((i,), 0.3 * i, ("Z",)) for i in range(1, 5))
    spec = HamiltonianSpec(n=4, d=2, k=2, terms=terms)
    block, _ = leaf_mpos(spec, 0.7)
    single = [np.diag(np.exp([-0.7 * 0.3 * i, 0.7 * 0.3 * i]))
              for i in (1, 2)]
    assert np.abs(block.mpo.densify()
                  - np.kron(single[0], single[1])).max() < 1e-12


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

def test_merge_layer_decoupled_pair_is_plain_product():
    spec = HamiltonianSpec(
        n=4, d=2, k=2,
        terms=tuple(t for t in chain(4).terms
                    if not (t.sites[0] <= 2 < t.sites[-1])))
    beta0 = window(spec)
    blocks = leaf_ops(spec, beta0)
    ref = np.kron(blocks[0].dense, blocks[1].dense)
    merged, discarded = merge_layer(blocks, spec, beta0, 5)
    assert discarded == 0.0
    m, = merged
    assert m.interval == Interval(1, 4)
    assert np.abs(m.dense - ref).max() < 1e-12
    assert np.abs(m.mpo.densify() - ref).max() < 1e-12


def test_merge_layer_single_step_error_within_recursion_bound():
    spec = chain(4)
    budget, run_spec, _ = plan_budget(spec, window(spec), 1e-2)
    blocks = leaf_ops(run_spec, budget.beta0)
    merged, _ = merge_layer(blocks, run_spec, budget.beta0, budget.order)
    m, = merged
    ref = dense_exp(dense_matrix(run_spec), -budget.beta0)
    err = relative_error(ref, m.dense, 2)
    assert err <= budget.merge_offset * budget.merge_tol  # eps_1 = 0


def test_merge_layer_eigendecomposes_only_joined_blocks(monkeypatch):
    # a dense merge reads its halves' eigensystems from their blocks,
    # decomposes only the joined block and drops the halves' dense payload;
    # a block passing through is the same record in the next layer, payload
    # kept.  n=5: (1,2)(3,4)(5) -> (1..4)(5) -> (1..5).  The joined block
    # is spin-flip symmetric: its one decomposition is two half-size eigh
    spec = chain(5)
    beta0 = window(spec)
    layer = leaf_ops(spec, beta0)
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: eighs.append(len(h)) or eigh(h))
    for joined in (Interval(1, 4), Interval(1, 5)):
        eighs.clear()
        nxt, _ = merge_layer(layer, spec, beta0, 3)
        assert eighs == [2 ** len(joined) // 2] * 2
        assert nxt[0].interval == joined
        want = eigensystem(restrict(spec, joined))
        assert len(nxt[0].eig.sectors) == 2
        for got, ref in zip(nxt[0].eig.full(), want.full()):
            assert np.array_equal(got, ref)
        assert all(b.dense is None and b.eig is None for b in layer[:2])
        if len(layer) % 2 == 1:
            assert nxt[-1] is layer[-1] and nxt[-1].eig is not None
        layer = nxt


def test_lossy_in_cap_merge_is_the_refactorized_dense_merge():
    # within the dense cap every merge operator is the dense eigenbasis
    # evaluation; a lossy policy refactorizes and compresses it and
    # multiplies it into the blocks' MPOs, reading the eigensystems the
    # blocks hold: bit for bit the standalone evaluation, which computes
    # its own.  n=8 runs this on leaves and on merged blocks alike
    spec = chain(8)
    policy = CompressionPolicy.parse("tol=1e-10")
    beta0 = window(spec)
    layer = leaf_ops(spec, beta0)
    while len(layer) > 1:
        want = []
        for a, b in zip(layer[0::2], layer[1::2]):
            ms = merge_spec_for(spec, a.interval, b.interval, beta0, 3)
            psi = mpo_module.from_dense(truncated_merge_dense(ms), ms.spec_ab.n,
                                        spec.d)
            psi = mpo_module.compress(psi, policy)[0]
            want.append(mpo_module.product(
                psi, mpo_module.concat(a.mpo, b.mpo), policy)[0])
        layer, _ = merge_layer(layer, spec, beta0, 3, policy)
        for block, ref in zip(layer, want):
            assert block.eig is not None and block.dense is None
            assert len(block.mpo.cores) == len(ref.cores)
            for got, core in zip(block.mpo.cores, ref.cores):
                assert np.array_equal(got, core)


def test_lossy_report_counts_every_product_weight(monkeypatch):
    # beyond a 4-state cap every merge is the Horner assembly; the report
    # sums every truncation, so it is at least what the products alone
    # discard, the assembly's included
    weights = []
    real = mpo_module.product

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        weights.append(out[1])
        return out

    monkeypatch.setattr(mpo_module, "product", recording)
    spec = chain(8)
    _, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2,
                                CompressionPolicy.parse("tol=1e-10"),
                                dense_cap=4)
    assert sum(weights) > 0.0
    assert report.discarded_weight >= sum(weights)


def test_lossy_build_eigendecomposes_each_block_once(monkeypatch):
    # a lossy in-cap merge reads its halves' eigensystems from the blocks
    # and each layer's reference reads the blocks' own: one decomposition
    # per block (17 when each lossy merge computed all three and each
    # measured layer its MPO blocks' again), each spin-flip symmetric and
    # so two half-size eigh.  The chain fits the cap, so the input
    # Hamiltonian runs and the final reference reuses the top block's
    # eigensystem (one more full-size decomposition for the surrogate)
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    spec = chain(8)
    _, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2,
                                CompressionPolicy.parse("tol=1e-10"))
    assert report.engine == "mpo" and not report.budget.two_local_path
    assert len(report.per_layer_error) == 3  # every layer measured
    assert sizes == [2] * 8 + [8] * 4 + [128] * 2


@pytest.mark.parametrize("policy, dense_cap", [
    ("none", DEFAULT_DENSE_CAP), ("tol=1e-10", DEFAULT_DENSE_CAP),
    ("none", 4), ("tol=1e-10", 4),
], ids=["dense", "lossy-dense", "mpo", "lossy-mpo"])
def test_merge_layer_refuses_a_step_outside_the_window(policy, dense_cap):
    spec = chain(4)
    beta0 = 60 * window(spec)
    with pytest.raises(ValueError, match="certified window"):
        merge_layer(leaf_ops(spec, beta0), spec, beta0, 1,
                    CompressionPolicy.parse(policy), dense_cap=dense_cap)


def _planner_step(spec):
    """The planner's largest step 1/(24*g*k^2), g = 1 for a zero
    Hamiltonian."""
    return certified_step(extensivity_constant(spec) or 1.0, spec.k)


@pytest.mark.parametrize("spec", [
    *(power_law_ising(n, alpha) for alpha in (2.5, 3.0, 4.0)
      for n in range(4, 10)),
    power_law_heisenberg(6, 3.0), nearest_neighbor_ising(8),
    HamiltonianSpec(n=4, d=2, k=2, terms=()),
], ids=[*(f"ising-a{alpha}-n{n}" for alpha in (2.5, 3.0, 4.0)
          for n in range(4, 10)), "heisenberg-n6", "nn-n8", "zero-n4"])
def test_every_planned_merge_is_inside_its_window(spec):
    # a block's extensivity is at most the chain's, so the planned step is
    # inside every merge's window: builds need no way around the check
    step = _planner_step(spec)
    runs = [dict(beta=m * step) for m in (1, 4, 16)]
    runs += [dict(beta=t, real_time=True) for t in (0.25, 1.0)]
    minimum = plan_budget(spec, 4 * step, 1e-2)[0].steps
    runs += [dict(beta=4 * step, force_steps=minimum + 3)]
    for run in runs:
        budget, run_spec, _ = plan_budget(spec, epsilon=1e-2, **run)
        for layer in build_merge_plan(spec.n)[:-1]:
            for a, b in zip(layer[0::2], layer[1::2]):
                ms = merge_spec_for(run_spec, a, b, budget.beta0,
                                    budget.order)
                assert ms.certified_regime(), (run, a, b)


def test_engines_agree_at_forced_low_order():
    # the exact MPO assembly's bonds explode with the order, so the
    # cross-check runs one merge at a deliberately small order; a dense cap
    # below the joined block sends it to MPO arithmetic
    spec = chain(4)
    budget, run_spec, _ = plan_budget(spec, window(spec), 1e-2)
    small = replace(budget, order=2)
    m_dense, _ = build_high_temp_mpo(run_spec, small)
    m_mpo, _ = build_high_temp_mpo(run_spec, small, dense_cap=4)
    ref = m_dense.densify()
    assert np.abs(m_mpo.densify() - ref).max() < 1e-10 * np.abs(ref).max()


def test_merge_layer_dense_blocks_match_mpo_blocks():
    # dense and MPO arithmetic give the same merged operator.  A dense cap
    # below the joined block sends the pair to MPO arithmetic, which reads
    # only the blocks' MPOs; the exact assembly's bonds grow like D_H^m0,
    # so the pair is merged at a small order.
    spec = chain(4)
    budget, run_spec, _ = plan_budget(spec, window(spec), 1e-2)
    (ref,), _ = merge_layer(leaf_ops(run_spec, budget.beta0), run_spec,
                            budget.beta0, 2)
    assert ref.interval == Interval(1, 4)
    assert isinstance(ref.dense, np.ndarray)
    (got,), _ = merge_layer(leaf_mpos(run_spec, budget.beta0), run_spec,
                            budget.beta0, 2, dense_cap=4)
    assert got.interval == ref.interval
    assert got.dense is None and got.eig is None
    assert np.abs(got.mpo.densify() - ref.dense).max() \
        <= 1e-12 * np.abs(ref.dense).max()


def test_dense_engine_refactorizes_each_block_once(monkeypatch):
    # one from_dense per block of the plan plus one for the powered result;
    # the top block's MPO is not rebuilt.  n=8: 4 + 2 + 1 blocks.  n=9:
    # 5 leaves and 2 + 1 + 1 merged blocks, the odd trailing leaf passing
    # through two layers without a refactorization
    calls = []
    _count_calls(monkeypatch, mpo_module, "from_dense", calls)
    for n, expected in ((8, 8), (9, 10)):
        calls.clear()
        spec = chain(n)
        _, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2)
        assert report.engine == "dense" and report.budget.steps == 4
        assert len(calls) == expected


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_dense_build_eigendecomposes_each_hamiltonian_once(monkeypatch):
    # n=8 dense build: 4 leaves and 2 + 1 joined blocks.  The leaves are
    # exact (layer error 0), a joined block's eigensystem serves its merge
    # and its layer references, a merge reads its halves' eigensystems from
    # their blocks, and the chain fits the cap, so the input Hamiltonian
    # runs and the final reference is the top block's eigensystem, its
    # singular values from its eigenvalues (one more decomposition when the
    # kernel surrogate ran).  n=9 adds a trailing leaf that passes through
    # two layers, keeping its eigensystem: 5 leaves, 2 + 1 + 1 joined
    # blocks, and 3 + 2 + 1 layer references.  Every Hamiltonian is
    # spin-flip symmetric, so each decomposition is two half-size eigh.
    import gibbsmpo.gibbs as gibbs_mod
    import gibbsmpo.merge as merge_mod
    import gibbsmpo.oracle as oracle_mod

    eighs, decompositions, block_exps, dense_matrices = [], [], [], []
    _count_calls(monkeypatch, np.linalg, "eigh", eighs)
    _count_calls(monkeypatch, oracle_mod, "decompose", decompositions)
    _count_calls(monkeypatch, gibbs_mod, "exp_of_eigensystem", block_exps)
    # every Hamiltonian a build decomposes is built by oracle.eigensystem
    _count_calls(monkeypatch, oracle_mod, "dense_matrix", dense_matrices)
    _count_calls(monkeypatch, merge_mod, "dense_matrix", dense_matrices)
    # (n, decompositions, exp_of_eigensystem, dense_matrix); the merges
    # build no dense Hamiltonian (n=8 read 14 when each merge built its own
    # H_AB and H_A + H_B)
    for n, n_eig, n_exp, n_dense in ((8, 7, 7, 7), (9, 9, 11, 9)):
        for calls in (eighs, decompositions, block_exps, dense_matrices):
            calls.clear()
        spec = chain(n)
        _, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2)
        assert report.engine == "dense" and report.per_layer_error[0] == 0.0
        assert len(decompositions) == n_eig
        assert len(eighs) == 2 * n_eig
        assert len(block_exps) == n_exp
        assert len(dense_matrices) == n_dense


def test_generic_build_eigendecomposes_the_chain_once(monkeypatch):
    # without a surrogate Hamiltonian the final reference is built from the
    # top block's eigensystem, which the last merge already computed; each
    # spin-flip symmetric decomposition is two half-size eigh
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    spec = nearest_neighbor_ising(8)
    _, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2)
    assert not report.budget.two_local_path and report.engine == "dense"
    assert report.measured
    assert sizes == [2] * 8 + [8] * 4 + [128] * 2


def test_in_cap_power_law_build_fits_no_kernel(monkeypatch):
    # within the dense cap no merge reads the Hamiltonian's MPO bond, so a
    # power-law build runs its input Hamiltonian: no kernel fit, and the
    # full chain is decomposed once, by the top merge, whose eigensystem
    # also gives the final reference
    import gibbsmpo.expsum as expsum_mod

    fits, sizes = [], []
    _count_calls(monkeypatch, expsum_mod, "fit_kernel", fits)
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    spec = chain(8)
    _, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2)
    assert not report.budget.two_local_path and report.engine == "dense"
    assert fits == []
    assert sizes == [2] * 8 + [8] * 4 + [128] * 2


@pytest.mark.parametrize("name", ["thermal_heisenberg_a3", "thermal_lfi_a3",
                                  "thermal_tfi_a25", "thermal_tfi_a3",
                                  "thermal_tfi_a4"])
def test_surrogate_build_beyond_the_cap_meets_the_input_oracle(name):
    # beyond the cap the kernel surrogate runs and the build measures
    # nothing; densified, every bundled power-law config meets its target
    # against the input Hamiltonian's exact operator, replacement error
    # included
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    config = json.loads(path.read_text())
    spec = spec_from_config(config["model"])
    beta = config["run"]["beta_steps"] * base_step(spec)
    epsilon = config["run"]["epsilon"]
    m, report = build_gibbs_mpo(spec, beta, epsilon,
                                CompressionPolicy.parse("tol=1e-10"),
                                dense_cap=4)
    assert report.budget.two_local_path and report.measured == {}
    ref, approx = gibbs_dense(spec, beta), m.densify()
    for p in (1, 2, math.inf):
        assert relative_error(ref, approx, p) <= epsilon


@pytest.mark.parametrize("case", ["dense_n9", "lossy_tfi_a3"])
def test_layer_bond_maxima_are_pinned(case):
    # the integers a build reports per layer: the leaves' exact bonds, each
    # layer's refactorized blocks (an odd trailing leaf keeps its bond 1)
    if case == "dense_n9":
        spec, policy = chain(9), CompressionPolicy()
        layers = [[4, 4, 4, 4, 1], [11, 11, 1], [22, 1], [22]]
        profile, engine = [1, 4, 12, 20, 31, 36, 26, 13, 4, 1], "dense"
    else:
        path = Path(__file__).resolve().parents[1] / "configs" \
            / "thermal_tfi_a3.json"
        spec = spec_from_config(json.loads(path.read_text())["model"])
        policy = CompressionPolicy.parse("tol=1e-10")
        layers = [[4, 4, 4, 4], [3, 3], [3]]
        profile, engine = [1, 2, 3, 3, 3, 3, 3, 2, 1], "mpo"
    _, report = build_gibbs_mpo(spec, 4 * base_step(spec), 1e-2, policy)
    assert report.per_layer_max_bond == layers
    assert report.bond_profile == profile
    assert report.engine == engine
    if case == "dense_n9":
        assert report.budget.order == 27 and report.budget.steps == 4
        assert report.per_layer_error[0] == 0.0


@pytest.mark.parametrize("case", ["ising_n9", "heisenberg_n6",
                                  "real_time_n6", "lfi_a3"])
def test_lossless_builds_power_and_measure_exactly_even_operators(
        monkeypatch, case):
    # the oracle powers and measures by split_halves, so a spin-flip
    # symmetric lossless build runs by halves only while the densified
    # merged chain and the densified final MPO stay exactly even; a Z
    # field breaks the symmetry and both are powered and measured whole
    import gibbsmpo.gibbs as gibbs_mod
    beta, real_time, symmetric = None, False, True
    if case == "ising_n9":
        spec = chain(9)
    elif case == "heisenberg_n6":
        spec = power_law_heisenberg(6, 3.0)
    elif case == "real_time_n6":
        spec, beta, real_time = chain(6), 0.5, True
    else:
        path = Path(__file__).resolve().parents[1] / "configs" \
            / "thermal_lfi_a3.json"
        spec = spec_from_config(json.loads(path.read_text())["model"])
        symmetric = False
    evens = []

    def recording(name, arg):
        original = getattr(gibbs_mod, name)

        def wrapper(*args):
            evens.append((name, is_even(args[arg])))
            return original(*args)

        monkeypatch.setattr(gibbs_mod, name, wrapper)

    recording("dense_power", 0)
    recording("schatten_errors", 2)
    build_gibbs_mpo(spec, beta or 4 * base_step(spec), 1e-2,
                    real_time=real_time)
    assert evens == [("dense_power", symmetric),
                     ("schatten_errors", symmetric)]


def test_in_build_merges_match_standalone_merges(monkeypatch):
    # a build hands each dense merge the eigensystems it already holds;
    # called alone, the merge computes its own
    import gibbsmpo.gibbs as gibbs_mod
    merges = []
    original = gibbs_mod.truncated_merge_dense

    def recording(ms, spectra=None, blocks=None):
        out = original(ms, spectra=spectra, blocks=blocks)
        merges.append((ms, spectra, blocks, out))
        return out

    monkeypatch.setattr(gibbs_mod, "truncated_merge_dense", recording)
    spec = chain(9)
    build_gibbs_mpo(spec, 4 * window(spec), 1e-2)
    assert [ms.spec_ab.n for ms, _, _, _ in merges] == [4, 4, 8, 9]
    for ms, spectra, blocks, got in merges:
        assert spectra is not None and blocks is not None
        want = original(ms, blocks=blocks)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("symmetric", [True, False], ids=["ising", "lfi"])
def test_lossless_dense_merges_multiply_by_halves_when_even(monkeypatch,
                                                            symmetric):
    # every dense block of a spin-flip symmetric build (leaves and lossless
    # merges alike) is exactly even, so each lossless product runs by
    # reflection halves; with the thermal_lfi_a3 model (a Z field) none is.
    # Either way the joined block is within 1e-13 of
    # dense @ kron(a.dense, b.dense)
    import gibbsmpo.gibbs as gibbs_mod
    from gibbsmpo.oracle import split_halves

    def _is_even(x):
        return len(split_halves(x)) == 2

    spec = chain(9) if symmetric else power_law_pairwise(
        8, 3.0, [("Z", "Z", 1.0)], fields=[("X", 0.5), ("Z", 0.2)])
    merges = []
    original = gibbs_mod.truncated_merge_dense

    def recording(ms, spectra=None, blocks=None):
        assert blocks is not None
        merges.append(original(ms, spectra=spectra))
        return original(ms, spectra=spectra, blocks=blocks)

    monkeypatch.setattr(gibbs_mod, "truncated_merge_dense", recording)
    beta0 = window(spec)
    layer = leaf_ops(spec, beta0)
    assert all(_is_even(b.dense) == symmetric for b in layer)
    joined = 0
    while len(layer) > 1:
        pairs = [(a.dense, b.dense) for a, b in zip(layer[0::2], layer[1::2])]
        merges.clear()
        layer, _ = merge_layer(layer, spec, beta0, 10)
        for psi, (xa, xb), block in zip(merges, pairs, layer):
            want = psi @ np.kron(xa, xb)
            assert _is_even(block.dense) == symmetric
            assert np.abs(block.dense - want).max() \
                <= 1e-13 * np.abs(want).max()
        joined += len(merges)
    assert joined == (4 if symmetric else 3)


def test_measurement_reference_spectrum_matches_svd():
    # the reported errors are unchanged by reading the reference's singular
    # values from its eigenvalues, and a lossless thermal difference's from
    # the eigenvalues of its Hermitian part, instead of an SVD.  Weyl bounds
    # the eigvalsh path's ratios within 1e-12 absolute; they read within
    # 3e-15 relative, so the relative check alone holds on every case.
    for spec, beta, real_time, policy in (
            (chain(6), 0.4, False, "none"), (chain(5), 0.3, True, "none"),
            (chain(6), 0.4, False, "tol=1e-10")):
        mpo, report = build_gibbs_mpo(spec, beta, 1e-2,
                                      CompressionPolicy.parse(policy),
                                      real_time=real_time)
        reference = dense_exp(dense_matrix(spec),
                              -(1j * beta if real_time else beta))
        diff = np.linalg.svd(reference - mpo.densify(), compute_uv=False)
        ref = np.linalg.svd(reference, compute_uv=False)
        assert report.measured["p1"] == pytest.approx(
            diff.sum() / ref.sum(), rel=1e-10)
        assert report.measured["p2"] == pytest.approx(
            np.linalg.norm(diff) / np.linalg.norm(ref), rel=1e-10)
        assert report.measured["pinf"] == pytest.approx(
            diff[0] / ref[0], rel=1e-10)


@pytest.mark.parametrize("real_time, policy, full_svds", [
    (False, "none", 0), (True, "none", 1), (False, "tol=1e-10", 1)])
def test_only_non_hermitian_differences_take_the_svd(monkeypatch, real_time,
                                                     policy, full_svds):
    # a lossless thermal difference is Hermitian up to roundoff and is
    # measured by eigvalsh; a real-time one is not Hermitian and a lossy one
    # is asymmetric at the truncation level, so each takes values-only SVDs,
    # one per block of split_halves: the lossless difference is exactly
    # even and takes two half-size ones, the lossy one one full-size one
    spec = chain(6)
    dim = 2 ** spec.n
    calls = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    _, report = build_gibbs_mpo(spec, 0.4, 1e-2,
                                CompressionPolicy.parse(policy),
                                real_time=real_time)
    assert report.measured
    blocks = [(dim // 2, dim // 2)] * 2 if policy == "none" else [(dim, dim)]
    assert [shape for shape, uv in calls if not uv] == blocks * full_svds


def test_high_temp_diagnostics_layers():
    spec = chain(8)
    budget, run_spec, _ = plan_budget(spec, window(spec), 1e-2)
    _, diag = build_high_temp_mpo(run_spec, budget)
    assert len(diag.errors) == budget.num_layers
    assert diag.errors[0] <= 1e-12  # leaves are exact
    assert all(e <= budget.high_temp_error for e in diag.errors[1:])


# ---------------------------------------------------------------------------
# end-to-end builds
# ---------------------------------------------------------------------------

def test_build_single_step_equals_high_temp():
    spec = chain(4)
    budget, run_spec, _ = plan_budget(spec, window(spec), 1e-2)
    base, _ = build_high_temp_mpo(run_spec, budget)
    full, report = build_gibbs_mpo(spec, window(spec), 1e-2)
    assert report.budget.steps == budget.steps == 1
    assert np.abs(full.densify() - base.densify()).max() < 1e-12


def test_build_measured_errors_below_target():
    spec = chain(6)
    beta = 4 * window(spec)
    m, report = build_gibbs_mpo(spec, beta, 1e-2)
    for key in ("p1", "p2", "pinf"):
        assert report.measured[key] <= 1e-2
    assert report.certified and report.engine == "dense"
    assert report.discarded_weight == 0.0


def test_build_trace_matches_partition_function():
    spec = chain(6)
    beta = 2 * window(spec)
    m, report = build_gibbs_mpo(spec, beta, 1e-2)
    z_ref = partition_function(spec, beta)
    assert abs(complex(m.trace()).real - z_ref) / z_ref <= 1e-2
    assert report.measured["trace"] <= 1e-2


def test_per_layer_recursion_measured():
    spec = chain(8)
    _, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2)
    b = report.budget
    errs = report.per_layer_error
    for q in range(1, len(errs)):
        assert errs[q] <= b.merge_offset * b.merge_tol + b.merge_gain * errs[q - 1]
    assert errs[-1] <= b.high_temp_error


@pytest.mark.parametrize("label,spec", [
    ("heisenberg", "heisenberg"),
    ("odd_n5", "odd5"),
    ("odd_n7", "odd7"),
    ("qutrit", "qutrit"),
])
def test_build_model_variants(label, spec):
    # multi-channel kernels, unbalanced block trees and d=3 all stay
    # inside the planned budget
    import warnings
    from gibbsmpo.model import power_law_heisenberg, power_law_pairwise
    specs = {
        "heisenberg": power_law_heisenberg(6, 3.0),
        "odd5": chain(5),
        "odd7": chain(7),
        "qutrit": power_law_pairwise(
            4, 3.0, channels=[["S01", "S01", 1.0], ["D1", "D1", 0.5]],
            fields=[["D1", 0.3]], d=3),
    }
    model = specs[spec]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, report = build_gibbs_mpo(model, 4 * window(model), 1e-2)
    assert max(report.measured[k] for k in ("p1", "p2", "pinf")) <= 1e-2
    assert report.measured["trace"] <= 1e-2


def test_build_three_local_generic_path():
    # the generic path handles k = 3 term lists end to end
    terms = tuple(LocalTerm((i, i + 1, i + 2), 0.5, ("Z", "X", "Z"))
                  for i in range(1, 5))
    terms += tuple(LocalTerm((i,), 0.3, ("X",)) for i in range(1, 7))
    spec = HamiltonianSpec(n=6, d=2, k=3, terms=terms)
    _, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2)
    assert max(report.measured[k] for k in ("p1", "p2", "pinf")) <= 1e-2
    assert not report.budget.two_local_path


@pytest.mark.parametrize("epsilon", [1e-3, 1e-4])
def test_build_tighter_targets(epsilon):
    spec = chain(6)
    _, report = build_gibbs_mpo(spec, 4 * window(spec), epsilon)
    assert max(report.measured[k] for k in ("p1", "p2", "pinf")) <= epsilon
    assert report.measured["trace"] <= epsilon


def test_build_boundary_alpha():
    import warnings
    spec = chain(6, alpha=2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2)
    assert max(report.measured[k] for k in ("p1", "p2", "pinf")) <= 1e-2


def test_zero_evolution_returns_identity():
    spec = chain(4)
    for builder, arg in ((build_gibbs_mpo, 0.0), (build_real_time_mpo, 0.0)):
        m, report = builder(spec, arg, 1e-2)
        assert np.abs(m.densify() - np.eye(16)).max() == 0.0
        assert report.measured["pinf"] == 0.0
        assert set(report.timings) == {"plan_s", "merge_s", "power_s",
                                       "measure_s", "total_s"}


@pytest.mark.parametrize("kwargs, error", [
    ({"epsilon": 5.0}, BudgetError), ({"epsilon": -1.0}, BudgetError),
    ({"epsilon": math.nan}, BudgetError),
    ({"epsilon": 1e-2, "override_order": 999}, ValueError),
], ids=["eps-5", "eps-negative", "eps-nan", "order-999"])
def test_zero_evolution_validates_like_any_other(kwargs, error):
    spec = chain(4)
    for builder in (build_gibbs_mpo, build_real_time_mpo):
        with pytest.raises(error):
            builder(spec, 0.0, **kwargs)
        with pytest.raises(error):
            builder(spec, window(spec), **kwargs)


BUDGET_KEYS = {
    "epsilon", "beta_real", "beta_imag", "beta_abs", "steps", "beta0_real",
    "beta0_imag", "merge_tol", "order", "num_layers", "ham_tol", "mpo_target",
    "extensivity", "boundary_norm", "locality", "tail_prefactor",
    "merge_gain", "merge_offset", "high_temp_error", "powered_error",
    "total_predicted", "two_local_path", "real_time", "ham_bond",
    "merge_bond_ledger_log10", "high_temp_bond_ledger_log10",
    "final_bond_ledger_log10",
}


@pytest.mark.parametrize("beta_steps", [0, 1])
def test_budget_report_keys(beta_steps):
    spec = chain(4)
    _, report = build_gibbs_mpo(spec, beta_steps * window(spec), 1e-2)
    budget = report.to_dict()["budget"]
    assert len(BUDGET_KEYS) == 27
    assert set(budget) == BUDGET_KEYS
    assert budget["beta_real"] == report.budget.beta.real
    assert budget["beta0_imag"] == report.budget.beta0.imag
    assert isinstance(budget["steps"], int)


def test_zero_hamiltonian_identity_for_all_times():
    spec = HamiltonianSpec(n=4, d=2, k=2, terms=())
    for t in (0.25, 1.0, 3.0):
        m, report = build_real_time_mpo(spec, t, 1e-2)
        assert np.abs(m.densify() - np.eye(16)).max() < 1e-12
        assert report.measured["pinf"] < 1e-12


def test_real_time_error_and_flags():
    spec = chain(4)
    m, report = build_real_time_mpo(spec, 0.3, 1e-2)
    assert report.budget.real_time
    assert not report.certified  # empirical constants for imaginary steps
    assert report.measured["pinf"] <= 1e-2
    assert "trace" not in report.measured
    u = dense_exp(dense_matrix(spec), -0.3j)
    assert np.abs(m.densify() - u).max() <= 1e-2 + 1e-12


def test_override_order_flags_uncertified():
    spec = chain(4)
    m, report = build_gibbs_mpo(spec, window(spec), 1e-2, override_order=2)
    assert not report.certified
    assert report.budget.order == 2
    assert any("order forced" in note for note in report.notes)


def test_override_steps_splits_finer():
    spec = chain(4)
    beta = window(spec)
    m1, r1 = build_gibbs_mpo(spec, beta, 1e-2)
    m2, r2 = build_gibbs_mpo(spec, beta, 1e-2, override_steps=r1.budget.steps + 3)
    assert r2.budget.steps == r1.budget.steps + 3
    assert r2.measured["p2"] <= 1e-2


def test_compressed_run_is_flagged_and_measured(monkeypatch):
    calls = []
    _count_calls(monkeypatch, mpo_module, "from_dense", calls)
    spec = chain(6)
    policy = CompressionPolicy(mode="maxbond", max_bond=32)
    m, report = build_gibbs_mpo(spec, 2 * window(spec), 1e-2, policy=policy)
    assert report.engine == "mpo"
    # dense leaves are their own references; each is refactorized once
    # (3), plus one per dense-evaluated merge MPO (2)
    assert report.per_layer_error[0] == 0.0
    assert len(calls) == 5
    assert not report.certified
    assert any("heuristic" in note for note in report.notes)
    assert max(m.bond_profile) <= 32
    assert report.measured["p2"] <= 1e-2  # loose compression stays accurate


def test_lossy_powering_squares_within_target(monkeypatch):
    # Q=134 = 0b10000110: 7 squares and 2 multiplications instead of a
    # fold of 133 products, with every measured error inside the target
    calls = []
    original_power = mpo_module.power

    def counting_power(*args, **kwargs):
        _count_calls(monkeypatch, mpo_module, "product", calls)
        return original_power(*args, **kwargs)

    monkeypatch.setattr(mpo_module, "power", counting_power)
    _, report = build_gibbs_mpo(power_law_ising(6, 3), 0.5, 1e-2,
                                CompressionPolicy.parse("tol=1e-10"))
    assert report.budget.steps == 134 and report.engine == "mpo"
    assert len(calls) == 9
    assert set(report.measured) == {"p1", "p2", "pinf", "trace"}
    assert all(err <= 1e-2 for err in report.measured.values())


def test_mpo_engine_mode_none_fails_fast_beyond_caps():
    # beyond the dense cap a lossless merge is the literal assembly, which
    # at the planned order must refuse immediately, carrying the ledger
    spec = chain(6)
    with pytest.raises(BondCapError) as err:
        build_gibbs_mpo(spec, window(spec), 1e-2, max_bond=512, dense_cap=16)
    assert err.value.estimate is None or err.value.estimate > 512


def test_tol0_beyond_both_caps_fails_fast():
    # tol=0 rounds but bounds nothing, so a merge beyond the dense cap
    # still refuses an assembly beyond the bond cap instead of attempting it
    spec = chain(6)
    with pytest.raises(BondCapError) as err:
        build_gibbs_mpo(spec, 4 * window(spec), 1e-2,
                        CompressionPolicy.parse("tol=0"), dense_cap=4)
    assert err.value.estimate > DEFAULT_MAX_BOND


def test_tol0_mpo_engine_bonds_stay_within_cut_ranks():
    # tol=0 rounds every MPO product, so no interior cut of the result can
    # exceed the operator-space dimension d^(2*min(c, n-c)); the dense cap
    # of 4 states keeps the merge and the powering on MPOs
    spec = chain(4)
    m, report = build_gibbs_mpo(spec, 2 * window(spec), 1e-2,
                                CompressionPolicy.parse("tol=0"), dense_cap=4,
                                override_order=2)
    assert report.engine == "mpo"
    for c, bond in enumerate(m.bond_profile[1:-1], start=1):
        assert bond <= spec.d ** (2 * min(c, spec.n - c))


def test_chain_straddling_the_dense_cap_merges_on_mpos_from_there(
        monkeypatch):
    # tol=0 is lossless: at n=6 with a dense cap of 16 states the 4-site
    # merge runs densely and only the top merge (64 states) on MPOs.  The
    # top merge takes the MPOs its layer recorded: 3 leaves and the 4-site
    # block are refactorized once each, and nothing after them.  Beyond
    # the cap the kernel surrogate runs; the reference builds it densely
    import gibbsmpo.gibbs as gibbs_mod

    calls, refactorizations = [], []
    _count_calls(monkeypatch, gibbs_mod, "build_merge_mpo", calls)
    _count_calls(monkeypatch, mpo_module, "from_dense", refactorizations)
    spec = chain(6)
    beta = 2 * window(spec)
    m, report = build_gibbs_mpo(spec, beta, 1e-2,
                                CompressionPolicy.parse("tol=0"),
                                dense_cap=16, override_order=2)
    assert len(calls) == 1
    assert len(refactorizations) == 4
    assert report.engine == "mpo"
    assert tuple(m.bond_profile) == (1, 4, 13, 20, 13, 4, 1)
    run_spec = plan_budget(spec, beta, 1e-2, dense_cap=16)[1]
    ref = build_gibbs_mpo(run_spec, beta, 1e-2,
                          override_order=2)[0].densify()
    assert np.linalg.norm(m.densify() - ref) <= 1e-12 * np.linalg.norm(ref)


def test_predictions_only_beyond_oracle_cap():
    spec = chain(4)
    policy = CompressionPolicy(mode="maxbond", max_bond=8)
    m, report = build_gibbs_mpo(spec, window(spec), 1e-2, policy=policy,
                                dense_cap=8, override_order=3)
    assert report.measured == {}
    assert any("oracle cap" in note for note in report.notes)
    assert report.budget.powered_error > 0.0


@pytest.mark.parametrize("kwargs", [
    {}, {"policy": CompressionPolicy.parse("tol=1e-10"), "dense_cap": 4},
], ids=["dense", "lossy"])
def test_thermal_build_of_real_model_is_real(kwargs):
    spec = chain(6)
    m, report = build_gibbs_mpo(spec, 4 * window(spec), 1e-2, **kwargs)
    assert all(c.dtype == np.float64 for c in m.cores)
    assert isinstance(report.budget.beta, float)


def test_real_time_build_is_complex():
    m, _ = build_real_time_mpo(chain(4), 0.25, 1e-2)
    assert all(c.dtype == np.complex128 for c in m.cores)


@pytest.mark.parametrize("symmetric", [True, False])
def test_dense_power_step_by_halves_matches_matrix_power(monkeypatch,
                                                         symmetric):
    # a spin-flip even merged operator is powered as two half-size matrix
    # powers, any other whole; both agree with matrix_power to 1e-12
    from gibbsmpo.gibbs import _power_step
    fields = [("X", 0.5)] if symmetric else [("X", 0.5), ("Z", 0.2)]
    spec = power_law_pairwise(6, 3.0, [("Z", "Z", 1.0)], fields=fields)
    op = dense_exp(dense_matrix(spec), -0.05)
    m_base = mpo_module.from_dense(op, spec.n, spec.d)
    want = np.linalg.matrix_power(m_base.densify(), 5)
    sizes = []
    real = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda a, q: sizes.append(len(a)) or real(a, q))
    powered, discarded = _power_step(m_base, 5, CompressionPolicy(),
                                     DEFAULT_DENSE_CAP, DEFAULT_MAX_BOND)
    monkeypatch.undo()
    assert discarded == 0.0
    assert sizes == ([32, 32] if symmetric else [64])
    got = powered.densify()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
