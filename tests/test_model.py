"""Hamiltonian spec construction, subset/boundary algebra, dense assembly."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from gibbsmpo import model
from gibbsmpo.model import (
    ConfigError,
    HamiltonianSpec,
    Interval,
    LocalTerm,
    boundary_bound,
    boundary_interaction,
    dense_matrix,
    extensivity_constant,
    nearest_neighbor_ising,
    power_law_boundary_bound,
    power_law_heisenberg,
    power_law_ising,
    power_law_pairwise,
    restrict,
    riemann_zeta,
    site_basis,
    spec_from_config,
    subset_hamiltonian,
)
from gibbsmpo.oracle import DenseCapError, is_even


def zz_chain(n, alpha):
    # pure pairwise chain: no transverse field
    return power_law_ising(n, alpha, transverse_field=0.0)


def kron_embed(ops_by_site, n):
    """Independent Kronecker assembly used as the dense oracle."""
    out = np.array([[1.0 + 0j]])
    for j in range(1, n + 1):
        out = np.kron(out, ops_by_site.get(j, np.eye(2)))
    return out


def zeta_partial(s, terms=1_000_000):
    """Partial sum of sum 1/k**s; the dropped tail is below terms**(1-s)/(s-1)."""
    k = np.arange(1, terms + 1, dtype=float)
    return float(np.sum(k ** (-s)))


# ---------------------------------------------------------------------------
# types and bases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4])
def test_site_basis_unit_norm_and_count(d):
    basis = site_basis(d)
    assert len(basis) == d * d
    for name, op in basis.items():
        assert np.allclose(op, op.conj().T), name
        assert abs(np.linalg.norm(op, ord=2) - 1.0) < 1e-12, name


def test_interval_validation():
    assert len(Interval(2, 5)) == 4
    assert 3 in Interval(2, 5)
    with pytest.raises(ValueError):
        Interval(3, 2)
    with pytest.raises(ValueError):
        Interval(0, 2)


def test_local_term_validation():
    with pytest.raises(ValueError):
        LocalTerm((2, 1), 1.0, ("Z", "Z"))
    with pytest.raises(ValueError):
        LocalTerm((1, 1), 1.0, ("Z", "Z"))
    with pytest.raises(ValueError):
        LocalTerm((1, 2), 1.0, ("Z",))


def test_spec_rejects_bad_terms():
    with pytest.raises(ValueError):
        HamiltonianSpec(n=4, d=2, k=1, terms=(LocalTerm((1, 2), 1.0, ("Z", "Z")),))
    with pytest.raises(ValueError):
        HamiltonianSpec(n=4, d=2, k=2, terms=(LocalTerm((1, 5), 1.0, ("Z", "Z")),))
    with pytest.raises(ValueError):
        HamiltonianSpec(n=4, d=2, k=2, terms=(LocalTerm((1, 2), 1.0, ("Z", "Q")),))


# ---------------------------------------------------------------------------
# subset / boundary / extensivity
# ---------------------------------------------------------------------------

def test_subset_full_region_is_identity():
    spec = power_law_ising(6, 3.0)
    sub = subset_hamiltonian(spec, Interval(1, 6))
    assert sub.terms == spec.terms


def test_subset_single_site_on_pairwise_model_is_empty():
    spec = zz_chain(5, 3.0)
    assert subset_hamiltonian(spec, Interval(3, 3)).terms == ()


def test_subset_two_site_region_keeps_one_term():
    spec = zz_chain(4, 3.0)
    sub = subset_hamiltonian(spec, Interval(1, 2))
    assert len(sub.terms) == 1
    (term,) = sub.terms
    assert term.sites == (1, 2) and term.coefficient == pytest.approx(1.0)


def test_boundary_nearest_neighbor_single_crossing():
    spec = nearest_neighbor_ising(4, transverse_field=0.0)
    cross = boundary_interaction(spec, 2)
    assert len(cross.terms) == 1
    assert cross.terms[0].sites == (2, 3)


def test_boundary_partition_identity_term_by_term():
    spec = power_law_ising(7, 3.0)
    for cut in range(1, 7):
        left = subset_hamiltonian(spec, Interval(1, cut))
        right = subset_hamiltonian(spec, Interval(cut + 1, 7))
        cross = boundary_interaction(spec, cut)
        assert len(left.terms) + len(right.terms) + len(cross.terms) == len(spec.terms)
        got = dense_matrix(left) + dense_matrix(right) + dense_matrix(cross)
        assert np.abs(got - dense_matrix(spec)).max() < 1e-12


def test_boundary_invalid_cut_rejected():
    spec = nearest_neighbor_ising(4)
    for cut in (0, 4, 7):
        with pytest.raises(ValueError):
            boundary_interaction(spec, cut)


def test_boundary_bound_nearest_neighbor_is_unit():
    spec = nearest_neighbor_ising(5, coupling=1.0, transverse_field=0.3)
    assert boundary_bound(spec) == pytest.approx(1.0)


def test_boundary_decoupled_model_is_empty():
    spec = nearest_neighbor_ising(4, transverse_field=0.0)
    trimmed = HamiltonianSpec(
        n=4, d=2, k=2,
        terms=tuple(t for t in spec.terms if t.sites != (2, 3)))
    assert boundary_interaction(trimmed, 2).terms == ()


def test_boundary_bound_power_law_below_zeta():
    # oracle: partial sums of sum 1/s^2 to 1e-6
    zeta2 = zeta_partial(2.0)
    spec = zz_chain(6, 3.0)
    for cut in range(1, 6):
        crossing = sum(abs(t.coefficient)
                       for t in boundary_interaction(spec, cut).terms)
        assert crossing <= zeta2 + 1e-6
    assert boundary_bound(spec) <= zeta2 + 1e-6


def mp_zeta(s):
    """Independent oracle: mpmath's zeta at the exact float s, 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.zeta(mpmath.mpf(s)))


ZETA_GRID = sorted({1 + 1e-6, 1.5, 2.0, 3.0}
                   | {float(s) for s in np.linspace(1.01, 40.0, 160)}
                   | {1 + float(h) for h in np.logspace(-9, 0, 40)})


def test_riemann_zeta_against_mpmath():
    for s in ZETA_GRID:
        assert riemann_zeta(s) == pytest.approx(mp_zeta(s), rel=1e-15, abs=0), s


def test_riemann_zeta_large_and_infinite_argument():
    # from s = 54 on zeta(s) - 1 < 2**-53 rounds to 1.0; at s = inf the
    # Euler-Maclaurin corrections alone would form inf * 0 = nan
    for s in (50.0, 53.5, 54.0, 60.0, 1e3, 1e300):
        assert riemann_zeta(s) == mp_zeta(s), s
    assert riemann_zeta(math.inf) == 1.0
    assert power_law_boundary_bound(math.inf, 2.0) == 2.0


@pytest.mark.parametrize("s", [1.0, 0.5, -2.0, math.nan, -math.inf])
def test_riemann_zeta_rejects_s_at_most_one(s):
    with pytest.raises(ValueError):
        riemann_zeta(s)


def test_power_law_boundary_bound_values():
    assert power_law_boundary_bound(3.0, 1.0) == pytest.approx(
        mp_zeta(2.0), rel=1e-15, abs=0)
    assert power_law_boundary_bound(4.5, 2.5) == pytest.approx(
        2.5 * mp_zeta(3.5), rel=1e-15, abs=0)
    with pytest.raises(ValueError):
        power_law_boundary_bound(2.0, 1.0)


def test_boundary_bound_rejects_crossing_sum_above_zeta():
    # power-law metadata (J = 1, alpha = 3) on terms whose cut-1 crossing sum
    # exceeds J * zeta(2): the consistency check must fire, with its 1e-12
    # slack and no more
    spec = zz_chain(4, 3.0)
    zeta2 = mp_zeta(2.0)
    rest = sum(abs(t.coefficient) for t in boundary_interaction(spec, 1).terms
               if t.sites != (1, 2))

    def with_cut1_sum(total):
        return replace(spec, terms=tuple(
            replace(t, coefficient=total - rest) if t.sites == (1, 2) else t
            for t in spec.terms))

    for excess in (1.0, 1e-6, 1e-11):
        with pytest.raises(AssertionError, match="exceeds analytic bound"):
            boundary_bound(with_cut1_sum(zeta2 * (1 + excess)))
    # inside the slack the measured sum comes back unchanged
    inside = with_cut1_sum(zeta2 * (1 + 1e-13))
    assert boundary_bound(inside) == sum(
        abs(t.coefficient) for t in boundary_interaction(inside, 1).terms)


def test_boundary_bound_monotone_under_restriction():
    spec = power_law_ising(8, 3.0)
    full = boundary_bound(spec)
    for lo, hi in [(1, 4), (2, 7), (3, 8), (1, 8)]:
        assert boundary_bound(restrict(spec, Interval(lo, hi))) <= full + 1e-12


def test_extensivity_single_term():
    spec = HamiltonianSpec(n=3, d=2, k=2,
                           terms=(LocalTerm((1, 2), 0.7, ("Z", "Z")),))
    assert extensivity_constant(spec) == pytest.approx(0.7)


def test_extensivity_empty_spec():
    assert extensivity_constant(HamiltonianSpec(n=3, d=2, k=2, terms=())) == 0.0


def test_extensivity_power_law_chain_worst_site():
    # oracle: enumerate per-site sums.  For the all-pairs ZZ chain at n=4,
    # site 2 carries couplings 1 (to 1), 1 (to 3) and 1/8 (to 4).
    spec = zz_chain(4, 3.0)
    per_site = {i: sum(abs(t.coefficient) for t in spec.terms if i in t.sites)
                for i in range(1, 5)}
    assert per_site[1] == pytest.approx(1 + 1 / 8 + 1 / 27)
    assert per_site[2] == pytest.approx(2.125)
    assert extensivity_constant(spec) == pytest.approx(max(per_site.values()))
    assert extensivity_constant(spec) == pytest.approx(2.125)


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------

def test_dense_zero_spec():
    spec = HamiltonianSpec(n=3, d=2, k=2, terms=())
    assert np.abs(dense_matrix(spec)).max() == 0.0


def test_dense_single_z():
    spec = HamiltonianSpec(n=1, d=2, k=1, terms=(LocalTerm((1,), 1.0, ("Z",)),))
    assert np.allclose(dense_matrix(spec), np.diag([1.0, -1.0]))


def test_dense_matches_independent_kron():
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    spec = HamiltonianSpec(
        n=3, d=2, k=2,
        terms=(LocalTerm((1, 2), 1.0, ("Z", "Z")),
               LocalTerm((2, 3), 0.5, ("Z", "Z")),
               LocalTerm((2,), -0.3, ("X",))))
    expected = (kron_embed({1: z, 2: z}, 3)
                + 0.5 * kron_embed({2: z, 3: z}, 3)
                - 0.3 * kron_embed({2: x}, 3))
    assert np.abs(dense_matrix(spec) - expected).max() < 1e-14


def kron_chain(spec):
    """Literal assembly: one full-size Kronecker chain per term."""
    basis = site_basis(spec.d)
    out = np.zeros((spec.d ** spec.n,) * 2, dtype=complex)
    for t in spec.terms:
        by_site = dict(zip(t.sites, t.ops))
        acc = np.array([[t.coefficient]], dtype=complex)
        for j in range(1, spec.n + 1):
            acc = np.kron(acc, basis[by_site.get(j, "I")])
        out += acc
    return out


QUTRIT_CHANNELS = [("S01", "S12", 0.7), ("A02", "A02", -0.4),
                   ("D1", "D2", 1.3), ("A01", "S02", 0.2)]
# d = 4: S01 and A03 sit at shifts 1 and 3, S02 and A13 at shift 2
QUDIT_CHANNELS = [("S01", "A13", 0.7), ("A03", "S02", -0.4),
                  ("D3", "S23", 1.1), ("A12", "D1", 0.3)]
BUNDLED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def bundled_spec(path):
    return spec_from_config(json.loads(path.read_text())["model"])


@pytest.mark.parametrize("spec", [
    power_law_ising(6, 3.0),
    power_law_heisenberg(5, 2.5),
    nearest_neighbor_ising(7),
    power_law_pairwise(5, 3.0, [("X", "Y", 0.3), ("Y", "Z", -1.1)],
                       fields=[("Y", 0.4), ("Z", -0.2)]),
    power_law_pairwise(4, 3.0, QUTRIT_CHANNELS, d=3,
                       fields=[("D2", 0.3), ("S02", -0.2), ("A12", 0.5)]),
    HamiltonianSpec(n=4, d=2, k=1, terms=tuple(
        LocalTerm((i,), 0.1 * i, (op,)) for i, op in
        zip(range(1, 5), ("X", "Y", "Z", "X")))),
    HamiltonianSpec(n=3, d=2, k=2, terms=()),
    HamiltonianSpec(n=1, d=2, k=1, terms=(LocalTerm((1,), 0.5, ("Y",)),
                                          LocalTerm((1,), -2.0, ("Z",)))),
    HamiltonianSpec(n=1, d=3, k=1, terms=(LocalTerm((1,), 0.5, ("A01",)),)),
    power_law_pairwise(4, 3.0, [("Z", "Z", 1.0), ("X", "Y", 0.5),
                                ("X", "Y", -0.5)]),
    power_law_pairwise(3, 3.0, QUDIT_CHANNELS, d=4,
                       fields=[("D2", 0.3), ("S13", -0.2), ("A01", 0.5)]),
    *map(bundled_spec, BUNDLED),
], ids=["ising", "heisenberg", "nn", "xyz", "qutrit", "single-site",
        "empty", "n1", "n1-qutrit", "xy-cancelled", "ququart",
        *(p.stem for p in BUNDLED)])
def test_dense_matrix_equals_kron_chain(spec):
    got = dense_matrix(spec)
    want = kron_chain(spec)
    assert got.dtype == (complex if want.imag.any() else float)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_dense_matrix_is_exactly_even(path):
    # decompose splits by spin-flip sectors only when H is exactly even and
    # silently falls back to full size otherwise; the longitudinal field of
    # thermal_lfi_a3 breaks the symmetry
    assert is_even(dense_matrix(bundled_spec(path))) == (path.stem != "thermal_lfi_a3")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_site_shifts_rebuild_the_basis(d):
    rows = np.arange(d)
    for name, op in site_basis(d).items():
        for c in range(d):  # every shifted diagonal is real or imaginary
            v = op[rows, (rows + c) % d]
            assert not (v.real.any() and v.imag.any()), (name, c)
        shifts = model._site_shifts(d)[name]
        assert len({c for c, _, _ in shifts}) == len(shifts)
        rebuilt = np.zeros((d, d), dtype=complex)
        for c, p, w in shifts:
            assert p in (0, 1) and w.dtype == float and w.any()
            rebuilt[rows, (rows + c) % d] += 1j ** p * w
        assert np.array_equal(rebuilt, op), name


def test_site_shifts_refuse_a_mixed_diagonal(monkeypatch):
    mixed = np.array([[0, 1 + 1j], [1 - 1j, 0]])
    monkeypatch.setattr(model, "_site_basis_cached", lambda d: (("M", mixed),))
    with pytest.raises(AssertionError, match="not real or imaginary"):
        model._site_shifts.__wrapped__(2)


def test_real_dense_matrix_peaks_at_its_own_size():
    # a real Hamiltonian is assembled in float64; a complex assembly with a
    # final real copy peaked at three times the result
    spec = power_law_ising(10, 3.0)
    tracemalloc.start()
    try:
        h = dense_matrix(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.dtype == float
    assert peak <= 1.5 * h.nbytes, peak / h.nbytes


@pytest.mark.parametrize("coefficient", [1j, 0.5 + 0j, np.complex128(0.5),
                                         float("nan"), float("inf")])
def test_local_term_rejects_non_hermitian_or_nonfinite_coefficient(coefficient):
    with pytest.raises(ValueError):
        LocalTerm((1, 2), coefficient, ("Z", "Z"))


def test_local_term_stores_float_coefficient():
    for coefficient in (2, np.float64(0.25)):
        term = LocalTerm((1,), coefficient, ("X",))
        assert type(term.coefficient) is float
        assert term.coefficient == coefficient


def test_dense_hermitian_for_real_coefficients():
    spec = power_law_heisenberg(5, 3.0)
    h = dense_matrix(spec)
    assert np.array_equal(h, h.conj().T)


def test_dense_cap_enforced():
    with pytest.raises(DenseCapError):
        dense_matrix(power_law_ising(8, 3.0), cap=64)


def test_restrict_reindexes():
    spec = power_law_ising(6, 3.0)
    local = restrict(spec, Interval(3, 5))
    assert local.n == 3
    assert all(1 <= s <= 3 for t in local.terms for s in t.sites)
    # restricted dense equals the embedded subset on the corresponding block
    sub = subset_hamiltonian(spec, Interval(3, 5))
    embedded = dense_matrix(sub)
    local_dense = np.kron(np.kron(np.eye(4), dense_matrix(local)), np.eye(2))
    assert np.abs(embedded - local_dense).max() < 1e-12


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_builtin_roundtrip():
    spec = spec_from_config({"name": "power_law_ising", "n": 6, "alpha": 3.0,
                             "transverse_field": 0.25})
    assert spec.n == 6 and spec.alpha == 3.0


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        spec_from_config({"name": "power_law_ising", "n": 6, "alpha": 3.0,
                          "typo_field": 1})
    with pytest.raises(ConfigError):
        spec_from_config({"name": "does_not_exist", "n": 6})
    with pytest.raises(ConfigError):
        spec_from_config({"n": 6})


def test_config_pairwise_coupling_matrix():
    spec = spec_from_config({
        "name": "power_law_pairwise", "n": 5, "alpha": 3.0,
        "channels": [["X", "X", 0.5], ["Z", "Z", 1.0]],
        "fields": [["Z", -0.2]]})
    assert spec.pair_weight_sum() == pytest.approx(1.5)
    assert sum(1 for t in spec.terms if len(t.sites) == 1) == 5
    assert sum(1 for t in spec.terms if t.ops == ("X", "X")) == 10


def test_config_explicit_terms(tmp_path):
    cfg = {"name": "terms", "n": 2, "d": 2, "k": 2,
           "terms": [{"sites": [1, 2], "coefficient": 1.0, "ops": ["Z", "Z"]}]}
    spec = spec_from_config(cfg)
    assert len(spec.terms) == 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    from gibbsmpo.model import load_spec
    assert load_spec(path).terms == spec.terms
