"""Merge-operator truncation: bounds, cancellation identities, MPO assembly."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg

from gibbsmpo.merge import (
    MergeOperatorSpec,
    _expm1_taylor,
    _halves,
    assembly_bond_profile,
    bond_ledger,
    build_merge_mpo,
    merge_operator_dense,
    merge_order_term_dense,
    merge_spec_for,
    merge_spectra,
    order_term_bound,
    order_term_norms,
    tail_prefactor,
    truncated_merge_dense,
    truncation_bound,
    truncation_error,
    truncation_order_for,
)
from gibbsmpo.model import (
    HamiltonianSpec,
    Interval,
    LocalTerm,
    boundary_bound,
    dense_matrix,
    extensivity_constant,
    power_law_ising,
    power_law_pairwise,
)
from gibbsmpo.mpo import BondCapError, CompressionPolicy
from gibbsmpo.oracle import join_halves

RNG = np.random.default_rng(2718)


def chain(n, alpha=3.0, hx=0.5):
    return power_law_ising(n, alpha, transverse_field=hx)


def half_merge(spec, beta0, order):
    cut = spec.n // 2
    return merge_spec_for(spec, Interval(1, cut), Interval(cut + 1, spec.n),
                          beta0, order)


def window(spec):
    return 1.0 / (24.0 * extensivity_constant(spec) * spec.k ** 2)


def dense_sum(ms):
    """Dense H_A + H_B, from the two halves of the cut."""
    h_a, h_b = (dense_matrix(s) for s in _halves(ms))
    return np.kron(h_a, np.eye(len(h_b))) + np.kron(np.eye(len(h_a)), h_b)


# ---------------------------------------------------------------------------
# truncation order
# ---------------------------------------------------------------------------

def test_truncation_order_exact_powers():
    g, k, gt = 1.3, 2, 0.9
    c0 = tail_prefactor(g, k, gt)
    assert truncation_order_for(c0, g, k, gt) == 0
    assert truncation_order_for(c0 / 8.0, g, k, gt) == 3
    assert truncation_order_for(c0 / 7.9, g, k, gt) == 3
    assert truncation_order_for(c0 / 8.1, g, k, gt) == 4
    with pytest.raises(ValueError):
        truncation_order_for(0.0, g, k, gt)
    with pytest.raises(ValueError):
        truncation_order_for(-0.5, g, k, gt)


def test_truncation_order_against_independent_arithmetic():
    # closed forms evaluated with high-precision arithmetic on the n=4
    # chain's own constants
    spec = chain(4, hx=0.0)
    g = extensivity_constant(spec)
    gt = boundary_bound(spec)
    with mpmath.workdps(40):
        c0_mp = mpmath.exp(mpmath.mpf(gt) / (6 * mpmath.mpf(g) * 4))
        m0_mp = int(mpmath.ceil(mpmath.log(c0_mp / mpmath.mpf("1e-4"), 2)))
    assert tail_prefactor(g, 2, gt) == pytest.approx(float(c0_mp), rel=1e-12)
    assert truncation_order_for(1e-4, g, 2, gt) == m0_mp


# ---------------------------------------------------------------------------
# merge spec construction
# ---------------------------------------------------------------------------

def test_merge_spec_locality_and_cut():
    spec = chain(6)
    ms = half_merge(spec, window(spec), 4)
    assert ms.spec_ab.n == 6 and ms.cut == 3
    assert [h.n for h in _halves(ms)] == [3, 3]


def test_merge_spec_requires_adjacency():
    spec = chain(6)
    with pytest.raises(ValueError):
        merge_spec_for(spec, Interval(1, 2), Interval(4, 6), 0.01, 3)
    with pytest.raises(ValueError):
        MergeOperatorSpec(Interval(1, 3), Interval(4, 6), 0.01, 99,
                          spec_ab=chain(6))


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def decoupled(n):
    base = chain(n)
    return HamiltonianSpec(
        n=n, d=2, k=2,
        terms=tuple(t for t in base.terms
                    if not (t.sites[0] <= n // 2 < t.sites[-1])))


@pytest.mark.parametrize("order", [0, 1, 2, 5])
def test_binomial_cancellation_identity_dense(order):
    spec = decoupled(6)
    ms = half_merge(spec, window(spec), order)
    got = truncated_merge_dense(ms)
    assert np.abs(got - np.eye(64)).max() < 1e-13


def test_binomial_cancellation_identity_mpo_route():
    spec = decoupled(4)
    ms = half_merge(spec, window(spec), 3)
    got = build_merge_mpo(ms)[0].densify()
    assert np.abs(got - np.eye(16)).max() < 1e-13


def test_order_zero_is_identity():
    spec = chain(4)
    ms = half_merge(spec, window(spec), 0)
    assert np.abs(truncated_merge_dense(ms) - np.eye(16)).max() == 0.0
    assert np.abs(build_merge_mpo(ms)[0].densify()
                  - np.eye(16)).max() < 1e-14


def test_zero_beta0_exact_identity():
    spec = chain(4)
    ms = half_merge(spec, 0.0, 6)
    assert truncation_error(ms) < 1e-12
    assert np.abs(merge_operator_dense(ms) - np.eye(16)).max() < 1e-12


# ---------------------------------------------------------------------------
# eigenbasis evaluation against the literal double sum
# ---------------------------------------------------------------------------

def literal_merge(ms):
    """sum_{s1+s2<=m0} (-b0 H_AB)^s1/s1! (b0 (H_A+H_B))^s2/s2!, term by term."""
    h_ab, h_sum = dense_matrix(ms.spec_ab), dense_sum(ms)
    mp = np.linalg.matrix_power
    out = np.zeros_like(h_ab, dtype=complex)
    for s1 in range(ms.order + 1):
        for s2 in range(ms.order + 1 - s1):
            out += (mp(-ms.beta0 * h_ab, s1) @ mp(ms.beta0 * h_sum, s2)
                    / (math.factorial(s1) * math.factorial(s2)))
    return out


@pytest.mark.parametrize("order", [0, 1, 2, 5, 12])
@pytest.mark.parametrize("phase", [1.0, 1j])
def test_horner_matches_literal_double_sum(order, phase):
    spec = chain(6)
    ms = merge_spec_for(spec, Interval(1, 2), Interval(3, 6),
                        phase * window(spec), order)
    ref = literal_merge(ms)
    got = truncated_merge_dense(ms)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # the MPO assembly applies Horner's rule to the same sum; its exact
    # bonds grow like D_H^m0, so higher orders compress to roundoff on the
    # way
    if order <= 2:
        got, rel = build_merge_mpo(ms)[0].densify(), 1e-13
    else:
        policy = CompressionPolicy(mode="tolerance", tolerance=1e-24)
        got = build_merge_mpo(ms, policy=policy)[0].densify()
        rel = 1e-11
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


@pytest.mark.parametrize("phase", [1.0, 1j])
def test_horner_holds_constant_number_of_matrices(phase):
    # the literal sum held 2*(m0+1) power tables (~60 matrices at order 29);
    # the eigenbasis form holds a few matrices whatever the order, counted
    # in the result's own dtype (float64 on a real step, complex128 on an
    # imaginary one), Hamiltonians and eigensystems included
    spec = chain(8)
    ms = half_merge(spec, phase * window(spec), 29)
    tracemalloc.start()
    try:
        out = truncated_merge_dense(ms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.dtype == (float if phase == 1.0 else complex)
    assert peak <= 6 * out.nbytes, peak / out.nbytes


def xy_chain(n):
    """Pairwise chain with an X (x) Y channel: a complex Hamiltonian."""
    return power_law_pairwise(n, 3.0, [("X", "Y", 0.6), ("Z", "Z", 1.0)],
                              fields=[("X", 0.5)])


def mixed_chain(n):
    """``chain(n)`` plus a Z field on the last site, which breaks the spin
    flip of every block that holds it: at the half cut only H_A splits."""
    spec = chain(n)
    return dataclasses.replace(
        spec, terms=spec.terms + (LocalTerm((n,), 0.3, ("Z",)),))


@pytest.mark.parametrize("order", [1, 5, 12])
@pytest.mark.parametrize("phase", [1.0, 1j])
def test_complex_hamiltonian_merge_matches_literal_double_sum(order, phase):
    spec = xy_chain(5)
    assert dense_matrix(spec).dtype == complex
    ms = merge_spec_for(spec, Interval(1, 2), Interval(3, 5),
                        phase * window(spec), order)
    ref = literal_merge(ms)
    got = truncated_merge_dense(ms)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("spec", [chain(6), xy_chain(5), mixed_chain(6)],
                         ids=["real", "xy", "mixed"])
@pytest.mark.parametrize("phase", [1.0, 1j])
def test_exact_merge_matches_matrix_exponentials(spec, phase):
    ms = half_merge(spec, phase * window(spec), 0)
    h_ab, h_sum = dense_matrix(ms.spec_ab), dense_sum(ms)
    ref = scipy.linalg.expm(-ms.beta0 * h_ab) @ scipy.linalg.expm(
        ms.beta0 * h_sum)
    assert np.abs(merge_operator_dense(ms) - ref).max() <= 1e-13


@pytest.mark.parametrize("spec", [chain(6), xy_chain(5)], ids=["real", "xy"])
def test_kronecker_eigenvalues_are_those_of_the_halves_sum(spec):
    ms = merge_spec_for(spec, Interval(1, 2), Interval(3, spec.n),
                        window(spec), 3)
    _, (a, _), (b, _) = (eig.full() for eig in merge_spectra(ms))
    want = np.linalg.eigvalsh(dense_sum(ms))
    assert np.abs(np.sort(np.add.outer(a, b).ravel()) - want).max() <= 1e-13


# ---------------------------------------------------------------------------
# the eigenbasis kernel by spin-flip sectors
# ---------------------------------------------------------------------------

def full_kron_right(x, ua, ub):
    """x @ (ua (x) ub) for square factors, the full-size kernel's contraction."""
    rows, na, nb = x.shape[0], ua.shape[0], ub.shape[0]
    y = (x.reshape(rows * na, nb) @ ub).reshape(rows, na, nb)
    return np.matmul(ua.T, y).reshape(rows, na * nb)


def full_kernel(spectra, beta0):
    """M = U^H (U_A (x) U_B) and Z on the full eigensystems."""
    (d, u), (a, ua), (b, ub) = (eig.full() for eig in spectra)
    z = np.add.outer(-beta0 * d, beta0 * np.add.outer(a, b).ravel())
    return full_kron_right(u.conj().T, ua, ub), z


def full_merge(spectra, beta0, f):
    """1 + U (M o f(Z)) (U_A (x) U_B)^H with full-size matrices throughout."""
    (_, u), (_, ua), (_, ub) = (eig.full() for eig in spectra)
    m, z = full_kernel(spectra, beta0)
    out = u @ full_kron_right(m * f(z), ua.conj().T, ub.conj().T)
    out.flat[::out.shape[0] + 1] += 1
    return out


def full_error(spectra, beta0, order):
    """||M o (e^Z - (1 + phi_m0(Z)))|| with one full-size SVD."""
    m, z = full_kernel(spectra, beta0)
    gap = np.exp(z) - (1 + _expm1_taylor(z, order))
    return float(np.linalg.norm(m * gap, ord=2))


def lfi_chain(n):
    """The thermal_lfi_a3 model: a Z field breaks the spin flip."""
    return power_law_pairwise(n, 3.0, [("Z", "Z", 1.0)],
                              fields=[("X", 0.5), ("Z", 0.2)])


@pytest.mark.parametrize("n, cut, phase",
                         [(8, 4, 1.0), (6, 4, 1.0), (9, 8, 1.0), (8, 4, 1j)],
                         ids=["4+4", "4+2", "8+1", "4+4-real-time"])
def test_sector_kernel_matches_full_size_kernel(n, cut, phase):
    # all three Hamiltonians split, so M, Z and the products run by
    # sectors; the merges agree with the full-size formula to 1e-14 ||Psi||.
    # The measured error, at an order that keeps it far above its
    # floating-point floor, agrees to 4e-15 relative: at dim 512 the
    # full-size SVD alone moves by 1.0e-15 under a permutation of rows and
    # columns, and the 8+1 sectors read 1.3e-15
    spec = chain(n)
    ms = merge_spec_for(spec, Interval(1, cut), Interval(cut + 1, n),
                        phase * window(spec), 3)
    spectra = merge_spectra(ms)
    assert all(len(eig.sectors) == 2 for eig in spectra)
    for got, want in (
            (truncated_merge_dense(ms, spectra), full_merge(
                spectra, ms.beta0, lambda z: _expm1_taylor(z, ms.order))),
            (merge_operator_dense(ms),
             full_merge(spectra, ms.beta0, np.expm1))):
        assert np.abs(got - want).max() <= 1e-14 * np.linalg.norm(want, 2)
    want = full_error(spectra, ms.beta0, ms.order)
    assert abs(truncation_error(ms, spectra) - want) <= 4e-15 * want


@pytest.mark.parametrize("phase", [1.0, 1j])
def test_unsplit_kernel_is_the_full_size_kernel_bit_for_bit(phase):
    # no spin-flip symmetry: one sector of the full eigensystems, with
    # today's arithmetic unchanged
    spec = lfi_chain(8)
    ms = half_merge(spec, phase * window(spec), 6)
    spectra = merge_spectra(ms)
    assert all(len(eig.sectors) == 1 for eig in spectra)
    assert np.array_equal(truncated_merge_dense(ms, spectra), full_merge(
        spectra, ms.beta0, lambda z: _expm1_taylor(z, ms.order)))
    assert np.array_equal(merge_operator_dense(ms),
                          full_merge(spectra, ms.beta0, np.expm1))
    assert truncation_error(ms, spectra) == full_error(spectra, ms.beta0,
                                                        ms.order)


def random_operator(dim, even, phase):
    """A random real (phase 1) or complex operator, exactly even if asked."""
    def draw(size):
        x = RNG.standard_normal((size, size))
        return x if phase == 1.0 else x + 1j * RNG.standard_normal((size, size))
    return join_halves((draw(dim // 2), draw(dim // 2))) if even else draw(dim)


@pytest.mark.parametrize("spec, cut, phase, even", [
    (chain(8), 4, 1.0, (True, True)), (chain(6), 4, 1.0, (True, True)),
    (chain(9), 8, 1.0, (True, True)), (chain(8), 4, 1j, (True, True)),
    (lfi_chain(8), 4, 1.0, (False, False)),
    (mixed_chain(6), 3, 1.0, (True, True)),
    (chain(8), 4, 1.0, (True, False))],
    ids=["4+4", "4+2", "8+1", "4+4-real-time", "lfi", "mixed", "uneven-b"])
def test_merge_times_blocks_matches_product_with_kronecker(spec, cut, phase,
                                                           even):
    # Psi~ (X_A (x) X_B) with X_A and X_B in the right factors: by sectors
    # when the triple splits and both operators are exactly even, else as
    # one sector (an unsplit or mixed triple, or an X_B that is not exactly
    # even, whose even part alone would be wrong by its odd part)
    ms = merge_spec_for(spec, Interval(1, cut), Interval(cut + 1, spec.n),
                        phase * window(spec), 6)
    spectra = merge_spectra(ms)
    xa, xb = (random_operator(2 ** n, e, phase)
              for n, e in ((cut, even[0]), (spec.n - cut, even[1])))
    if not even[1]:
        xb[0, 1] += 1e-3
    got = truncated_merge_dense(ms, spectra, blocks=(xa, xb))
    want = truncated_merge_dense(ms) @ np.kron(xa, xb)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    split = all(even) and all(len(eig.sectors) == 2 for eig in spectra)
    assert np.array_equal(got, got[::-1, ::-1]) == split


# ---------------------------------------------------------------------------
# truncation bound and per-order decay
# ---------------------------------------------------------------------------

def within(measured, bound):
    """The comparison the verification checks make: 1e-9 relative slack."""
    return measured <= bound * (1 + 1e-9)


def test_truncation_bound_n4_order8():
    spec = chain(4, hx=0.0)
    ms = half_merge(spec, window(spec), 8)
    gt = boundary_bound(ms.spec_ab)
    assert ms.certified_regime()
    bound = truncation_bound(ms, gt)
    assert bound == pytest.approx(
        tail_prefactor(extensivity_constant(ms.spec_ab), 2, gt) * 2.0 ** -8)
    assert truncation_error(ms) <= bound


@pytest.mark.parametrize("n", [4, 6])
def test_truncation_bound_order_sweep(n):
    spec = chain(n)
    gt = boundary_bound(spec)
    for order in range(2, 9):
        ms = half_merge(spec, window(spec), order)
        measured, bound = truncation_error(ms), truncation_bound(ms, gt)
        assert within(measured, bound), (order, measured, bound)
        assert within(order_term_norms(ms, 0)[0], order_term_bound(ms, gt, 0))


@pytest.mark.parametrize("max_order_terms", [0, 10])
def test_certify_builds_hamiltonian_pair_once(monkeypatch, max_order_terms):
    # each measurement builds one H_AB, one H_A and one H_B: the error
    # through their eigensystems, the order terms directly (H_A+H_B is
    # their Kronecker sum); the identity term alone needs none
    import gibbsmpo.merge as merge_mod
    import gibbsmpo.oracle as oracle_mod
    calls = []
    real = merge_mod.dense_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(merge_mod, "dense_matrix", counting)
    monkeypatch.setattr(oracle_mod, "dense_matrix", counting)
    spec = chain(4)
    ms = half_merge(spec, window(spec), 4)
    truncation_error(ms)
    assert sorted(s.n for s, in calls) == [2, 2, 4]
    calls.clear()
    order_term_norms(ms, max_order_terms)
    assert sorted(s.n for s, in calls) == ([2, 2, 4] if max_order_terms else [])


@pytest.mark.parametrize("max_order_terms", [0, 3])
@pytest.mark.parametrize("phase", [1.0, 1j])
def test_certify_with_given_spectra_is_the_same_report(monkeypatch,
                                                       max_order_terms, phase):
    # passed eigensystems replace the ones the error would compute, and
    # then no Hamiltonian is built for it; the order terms past the
    # identity build their own
    import gibbsmpo.merge as merge_mod
    import gibbsmpo.oracle as oracle_mod
    spec = chain(6)
    ms = half_merge(spec, phase * window(spec), 5)
    spectra = merge_spectra(ms)
    own = truncation_error(ms)
    builds = []
    real = merge_mod.dense_matrix

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(merge_mod, "dense_matrix", counting)
    monkeypatch.setattr(oracle_mod, "dense_matrix", counting)
    assert truncation_error(ms, spectra) == own
    assert builds == []
    order_term_norms(ms, max_order_terms)
    assert len(builds) == (3 if max_order_terms else 0)


def test_order_sweep_shares_one_set_of_eigensystems(monkeypatch):
    # H_AB, H_A and H_B do not depend on the order: three decompositions
    # per sweep, each spin-flip symmetric and so two half-size eigh, and
    # every row is the one a standalone measurement gives
    from gibbsmpo import verify
    spec = chain(8)
    orders = range(2, 9)
    eighs = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: eighs.append(h.shape) or real(h))
    rows = verify.check_merge_truncation_sweep(spec, orders)["details"]["rows"]
    assert sorted(eighs) == [(8, 8)] * 4 + [(128, 128)] * 2
    monkeypatch.undo()
    for order, row in zip(orders, rows):
        ms = half_merge(spec, verify.base_step(spec), order)
        assert (row["measured"], row["bound"]) == \
            (truncation_error(ms), truncation_bound(ms, boundary_bound(spec)))


def test_per_order_decay_makes_no_eigendecomposition(monkeypatch):
    # the order-term norms come from the recurrence alone
    from gibbsmpo import verify
    eighs = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: eighs.append(h.shape) or real(h))
    (result,) = verify.run_checks(["per_order_decay"], fast=True)
    assert result["passed"] and eighs == []


@pytest.mark.parametrize("order,max_order_terms", [(4, 0), (4, 10), (12, 3)])
@pytest.mark.parametrize("phase", [1.0, 1j])
def test_certify_single_pass_matches_separate_evaluators(order, max_order_terms,
                                                         phase):
    # the eigenbasis error and the recurrence's norms agree with the dense
    # operators they measure
    spec = chain(6)
    ms = half_merge(spec, phase * window(spec), order)
    gap = merge_operator_dense(ms) - truncated_merge_dense(ms)
    assert abs(truncation_error(ms) - np.linalg.norm(gap, ord=2)) <= 1e-14
    norms = order_term_norms(ms, max_order_terms)
    assert len(norms) == max_order_terms + 1
    for m, got in enumerate(norms):
        norm = np.linalg.norm(merge_order_term_dense(ms, m), ord=2)
        assert abs(got - norm) <= 1e-14


def test_per_order_decay_at_window_boundary():
    spec = chain(6)
    ms = half_merge(spec, window(spec), 0)
    g, gt = extensivity_constant(ms.spec_ab), boundary_bound(ms.spec_ab)
    for m, norm in enumerate(order_term_norms(ms, 10)):
        bound = order_term_bound(ms, gt, m)
        assert within(norm, bound), (m, norm, bound)
        assert bound == pytest.approx(2.0 ** -m * math.exp(gt / (6 * g * 4)))


def test_per_order_decay_general_beta0():
    # the bound (2*C*|b0|)^m * exp(gt/C) holds anywhere inside the window
    spec = chain(4)
    rng = np.random.default_rng(11)
    g = extensivity_constant(spec)
    gt = boundary_bound(spec)
    comm = 6 * g * 4
    for _ in range(5):
        beta0 = float(rng.uniform(0.05, 1.0)) * window(spec)
        ms = half_merge(spec, beta0, 0)
        for m in range(0, 7):
            term = merge_order_term_dense(ms, m)
            bound = (2 * comm * beta0) ** m * math.exp(gt / comm)
            assert np.linalg.norm(term, ord=2) <= bound * (1 + 1e-9)


def mp_literal_order_terms(ms, up_to, dps=40):
    """Order terms b0^m sum_{s1+s2=m} (-H_AB)^s1 (H_A+H_B)^s2 / (s1! s2!)
    as the literal double sum, in mpmath at ``dps`` digits."""
    h_ab, h_sum = dense_matrix(ms.spec_ab), dense_sum(ms)
    assert not (h_ab.imag.any() or h_sum.imag.any())
    with mpmath.workdps(dps):
        h_ab = mpmath.matrix(h_ab.real.tolist())
        h_sum = mpmath.matrix(h_sum.real.tolist())
        pow_ab, pow_sum = [mpmath.eye(h_ab.rows)], [mpmath.eye(h_ab.rows)]
        for _ in range(up_to):
            pow_ab.append(pow_ab[-1] * h_ab)
            pow_sum.append(pow_sum[-1] * h_sum)
        terms = []
        for m in range(up_to + 1):
            acc = mpmath.zeros(h_ab.rows)
            for s1 in range(m + 1):
                acc += pow_ab[s1] * pow_sum[m - s1] * (
                    (-1) ** s1 / (mpmath.factorial(s1)
                                  * mpmath.factorial(m - s1)))
            acc *= mpmath.mpc(ms.beta0) ** m
            terms.append(np.array(acc.tolist(), dtype=complex))
    return terms


@pytest.mark.parametrize("cut,phase", [(2, 1.0), (1, 1j)])
def test_order_terms_match_high_precision_double_sum(cut, phase):
    # the order terms cancel strongly across s1; summed literally in double
    # precision they were off by up to 1.9e-14 relative here
    spec = power_law_ising(4, 3.0)
    ms = merge_spec_for(spec, Interval(1, cut), Interval(cut + 1, 4),
                        phase * window(spec), 0)
    for m, ref in enumerate(mp_literal_order_terms(ms, 12)):
        got = merge_order_term_dense(ms, m)
        err = np.linalg.norm(got - ref, ord=2) / np.linalg.norm(ref, ord=2)
        assert err <= 2e-15, (m, err)


def test_truncation_bound_random_pairwise_model():
    # random coupling-matrix chains inside the window also obey the bound
    from gibbsmpo.model import power_law_pairwise
    rng = np.random.default_rng(424242)
    for _ in range(3):
        channels = [["X", "X", float(rng.uniform(-1, 1))],
                    ["Z", "Z", float(rng.uniform(-1, 1))],
                    ["Y", "Y", float(rng.uniform(-1, 1))]]
        fields = [["Z", float(rng.uniform(-0.5, 0.5))]]
        spec = power_law_pairwise(6, 3.0, channels=channels, fields=fields)
        beta0 = float(rng.uniform(0.3, 1.0)) * window(spec)
        for order in (3, 6):
            ms = half_merge(spec, beta0, order)
            gt = boundary_bound(ms.spec_ab)
            assert ms.certified_regime()
            assert within(truncation_error(ms), truncation_bound(ms, gt))
            assert within(order_term_norms(ms, 0)[0],
                          order_term_bound(ms, gt, 0))


def test_certification_error_carries_values():
    spec = chain(4)
    # far outside the window the bound genuinely fails at low order
    ms = half_merge(spec, 60.0 * window(spec), 1)
    assert not ms.certified_regime()
    with pytest.raises(ValueError):
        build_merge_mpo(ms)  # refuses outside the window


def test_certification_raises_inside_regime_on_violation():
    # at extreme orders the analytic bound drops below the fp noise floor
    # of the dense evaluation, which must surface as a violation
    spec = chain(4)
    ms = half_merge(spec, window(spec), 55)
    assert ms.certified_regime()
    assert not within(truncation_error(ms),
                      truncation_bound(ms, boundary_bound(ms.spec_ab)))


# ---------------------------------------------------------------------------
# MPO assembly
# ---------------------------------------------------------------------------

def test_routes_agree_dense_vs_mpo():
    # the exact Horner assembly and the dense eigenbasis evaluation
    spec = chain(5)
    ms = half_merge(spec, window(spec), 3)
    ref = truncated_merge_dense(ms)
    assert np.abs(build_merge_mpo(ms)[0].densify() - ref).max() < 1e-10


def test_real_time_merge_routes_agree():
    spec = chain(4)
    ms = half_merge(spec, 1j * window(spec), 3)
    ref = truncated_merge_dense(ms)
    assert np.abs(build_merge_mpo(ms)[0].densify() - ref).max() < 1e-10
    assert ms.certified_regime()
    assert truncation_error(ms) <= truncation_bound(ms, boundary_bound(ms.spec_ab))


@pytest.mark.parametrize("order", [0, 1, 3])
def test_assembly_profile_matches_and_obeys_ledger(order):
    spec = chain(4, hx=0.0)
    ms = half_merge(spec, window(spec), order)
    built, discarded = build_merge_mpo(ms)
    assert discarded == 0.0
    predicted = assembly_bond_profile(ms)
    assert built.bond_profile == predicted
    ledger = bond_ledger(ms)
    assert all(b <= ledger for b in built.bond_profile)


def test_bond_cap_fails_fast_with_ledger():
    # the assembly has no dense fallback: inside the dense cap too it refuses
    spec = chain(6)
    ms = half_merge(spec, window(spec), 12)
    with pytest.raises(BondCapError) as err:
        build_merge_mpo(ms, max_bond=256)
    assert err.value.estimate == bond_ledger(ms)


def test_exact_auto_merge_builds_hamiltonian_mpos_once(monkeypatch):
    # the bond-cap check and the assembly share H_AB and H_A + H_B
    import gibbsmpo.merge as merge_mod
    calls = []
    real = merge_mod.hamiltonian_mpo

    def counting(spec):
        calls.append(spec.n)
        return real(spec)

    monkeypatch.setattr(merge_mod, "hamiltonian_mpo", counting)
    spec = chain(4)
    ms = half_merge(spec, window(spec), 3)
    built, _ = build_merge_mpo(ms)
    assert sorted(calls) == [2, 2, 4]  # H_A, H_B and H_AB, once each
    assert built.bond_profile == assembly_bond_profile(ms)


def test_compressed_assembly_stays_close():
    spec = chain(5)
    ms = half_merge(spec, window(spec), 3)
    ref = truncated_merge_dense(ms)
    policy = CompressionPolicy(mode="tolerance", tolerance=1e-24)
    built, _ = build_merge_mpo(ms, policy=policy)
    assert np.abs(built.densify() - ref).max() < 1e-8
    assert max(built.bond_profile) <= max(assembly_bond_profile(ms))


def test_lossy_assembly_makes_two_products_per_order(monkeypatch):
    # Horner: one H_A+H_B and one H_AB zip-up per order
    import gibbsmpo.mpo as mpo_mod
    calls = []
    real = mpo_mod.multiply_compressed

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mpo_mod, "multiply_compressed", counting)
    spec = chain(4)
    ms = half_merge(spec, window(spec), 8)
    policy = CompressionPolicy(mode="tolerance", tolerance=1e-10)
    built, _ = build_merge_mpo(ms, policy=policy)
    assert len(calls) == 2 * 8
    # dropped weight 1e-10 per cut: amplitude errors of order sqrt(1e-10)
    assert np.abs(built.densify() - truncated_merge_dense(ms)).max() < 1e-5
