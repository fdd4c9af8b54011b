"""Dense reference routines: exponentials, Schatten norms, partition function."""

import math

import numpy as np
import pytest

from gibbsmpo.model import (
    HamiltonianSpec,
    LocalTerm,
    dense_matrix,
    power_law_heisenberg,
    power_law_ising,
    power_law_pairwise,
)
from gibbsmpo.oracle import (
    Eigensystem,
    dense_exp,
    eigensystem,
    exp_of_eigensystem,
    exp_with_spectrum,
    gibbs_dense,
    is_even,
    join_halves,
    partition_function,
    relative_error,
    schatten_errors,
    schatten_norm,
    split_halves,
)

RNG = np.random.default_rng(90210)


def random_matrix(dim):
    return RNG.standard_normal((dim, dim)) + 1j * RNG.standard_normal((dim, dim))


def zz_pair():
    return HamiltonianSpec(n=2, d=2, k=2,
                           terms=(LocalTerm((1, 2), 1.0, ("Z", "Z")),))


def test_gibbs_dense_beta_zero_is_identity():
    assert np.allclose(gibbs_dense(power_law_ising(4, 3.0), 0.0), np.eye(16))


def test_gibbs_dense_diagonal_hamiltonian():
    spec = zz_pair()
    got = gibbs_dense(spec, 1.0)
    # Z (x) Z = diag(1, -1, -1, 1), so exp(-H) = diag(e^-1, e, e, e^-1)
    expected = np.diag([math.exp(-1), math.exp(1), math.exp(1), math.exp(-1)])
    assert np.abs(got - expected).max() < 1e-12


def test_gibbs_dense_hermitian_positive():
    spec = power_law_ising(5, 3.0)
    rho = gibbs_dense(spec, 0.7)
    assert np.abs(rho - rho.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(rho).min() > 0


def test_gibbs_semigroup_property():
    spec = power_law_ising(4, 3.0)
    lhs = gibbs_dense(spec, 0.3) @ gibbs_dense(spec, 0.5)
    assert np.abs(lhs - gibbs_dense(spec, 0.8)).max() < 1e-10


def test_schatten_identity_norms():
    eye = np.eye(4)
    assert schatten_norm(eye, 1) == pytest.approx(4.0)
    assert schatten_norm(eye, np.inf) == pytest.approx(1.0)


def test_schatten_two_matches_frobenius():
    a = random_matrix(8)
    frob = math.sqrt(float(np.sum(np.abs(a) ** 2)))
    assert schatten_norm(a, 2) == pytest.approx(frob, rel=1e-12)


def test_schatten_rejects_small_p():
    for p in (0.5, np.nan):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), p)


def test_schatten_norm_ordering():
    # ||A||_inf <= ||A||_p <= ||A||_1 for p in (1, inf)
    for _ in range(20):
        a = random_matrix(int(RNG.integers(2, 9)))
        values = [schatten_norm(a, p) for p in (np.inf, 7.0, 3.0, 1.5, 1.0)]
        assert all(x <= y * (1 + 1e-12) for x, y in zip(values, values[1:]))


def test_schatten_large_p_stable():
    a = np.diag([1e150, 1.0])
    assert schatten_norm(a, 200.0) == pytest.approx(1e150)
    assert schatten_norm(np.full((2, 2), 1e200), 2) == pytest.approx(2e200)


def test_relative_error_basics():
    a = random_matrix(6)
    assert relative_error(a, a, 2) == pytest.approx(0.0, abs=1e-14)
    assert relative_error(a, np.zeros_like(a), 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(a, np.zeros((3, 3)), 2)
    with pytest.raises(ZeroDivisionError):
        relative_error(np.zeros_like(a), a, 2)


def test_relative_error_against_recomputation():
    a, b = random_matrix(7), random_matrix(7)
    for p in (1.0, 2.0, 3.0, np.inf):
        sv_diff = np.linalg.svd(a - b, compute_uv=False)
        sv_a = np.linalg.svd(a, compute_uv=False)
        if p == np.inf:
            expected = sv_diff[0] / sv_a[0]
        else:
            expected = (np.sum(sv_diff ** p) ** (1 / p)
                        / np.sum(sv_a ** p) ** (1 / p))
        assert relative_error(a, b, p) == pytest.approx(expected, rel=1e-10)


def test_partition_function_values():
    spec_zero = HamiltonianSpec(n=3, d=2, k=2, terms=())
    assert partition_function(spec_zero, 0.0) == pytest.approx(8.0)
    assert partition_function(spec_zero, 2.5) == pytest.approx(8.0)
    # hand eigenvalues of Z (x) Z: {1, -1, -1, 1}
    expected = 2 * math.exp(-1.0) + 2 * math.exp(1.0)
    assert partition_function(zz_pair(), 1.0) == pytest.approx(expected)


def test_dense_exp_real_time_unitary():
    spec = power_law_ising(4, 3.0)
    from gibbsmpo.model import dense_matrix
    u = dense_exp(dense_matrix(spec), -0.7j)
    assert np.abs(u @ u.conj().T - np.eye(16)).max() < 1e-12


def complex_eigh_exp(ham, factor):
    """exp(factor * ham) from a complex eigendecomposition, whatever ham is."""
    w, v = np.linalg.eigh(ham.astype(complex))
    return (v * np.exp(factor * w)) @ v.conj().T


@pytest.mark.parametrize("spec", [power_law_ising(6, 3.0),
                                  power_law_heisenberg(5, 3.0)])
@pytest.mark.parametrize("factor", [-0.7, -0.7j, complex(-0.4)])
def test_dense_exp_real_path_matches_complex_path(spec, factor):
    ham = dense_matrix(spec)
    assert ham.dtype == np.float64
    got = dense_exp(ham, factor)
    want = complex_eigh_exp(ham, factor)
    assert np.linalg.norm(got - want, 2) <= 1e-13 * np.linalg.norm(want, 2)
    # real Hamiltonian and real factor: real result; a complex factor,
    # even one with zero imaginary part, promotes to complex
    assert np.isrealobj(got) == np.isrealobj(factor)


def test_dense_exp_complex_hamiltonian_keeps_complex_path():
    a = random_matrix(6)
    ham = a + a.conj().T
    got = dense_exp(ham, -0.3)
    assert np.iscomplexobj(got)
    assert np.abs(got - complex_eigh_exp(ham, -0.3)).max() < 1e-13


@pytest.mark.parametrize("factor", [-0.9, -0.9j])
def test_reference_spectrum_matches_svd(factor):
    # thermal: e^{-beta*w}, sorted; real time: ones.  The SVD resolves each
    # singular value to about eps times the largest, so compare on that scale.
    ham = dense_matrix(power_law_ising(6, 3.0))
    op, sv = exp_with_spectrum(Eigensystem((np.linalg.eigh(ham),)), factor)
    want = np.linalg.svd(op, compute_uv=False)
    assert np.all(np.diff(sv) <= 0.0)
    assert np.abs(sv - want).max() <= 1e-13 * want[0]
    if complex(factor).imag != 0.0:
        assert np.abs(sv - 1.0).max() <= 1e-13


def test_partition_function_real_path():
    spec = power_law_heisenberg(5, 3.0)
    w = np.linalg.eigvalsh(dense_matrix(spec))
    assert partition_function(spec, 0.6) == pytest.approx(
        float(np.sum(np.exp(-0.6 * w))), rel=1e-13)


def test_eigensystem_is_eigh_of_the_dense_hamiltonian(monkeypatch):
    # the spin-flip symmetric Heisenberg chain is decomposed as two
    # half-size eigh; the eigensystem is the full one's to 1e-12
    spec = power_law_heisenberg(5, 3.0)
    ham = dense_matrix(spec)
    eighs = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: eighs.append(len(h)) or real(h))
    w, v = eigensystem(spec).full()
    monkeypatch.undo()
    assert eighs == [16, 16]
    scale = np.abs(np.linalg.eigvalsh(ham)).max()
    assert np.abs(np.sort(w) - np.linalg.eigvalsh(ham)).max() <= 1e-12 * scale
    assert np.abs(ham @ v - v * w).max() <= 1e-12 * scale
    assert np.abs(v.conj().T @ v - np.eye(32)).max() <= 1e-12
    from gibbsmpo.model import DenseCapError
    with pytest.raises(DenseCapError):
        eigensystem(spec, cap=16)


@pytest.mark.parametrize("hermitian", [True, False])
def test_schatten_errors_match_relative_error(hermitian):
    # the eigvalsh path (a Hermitian difference) and the SVD path (any
    # other) both agree with relative_error's SVD at every reported order,
    # and the difference is written into the approximation's buffer
    w, v = np.linalg.eigh(dense_matrix(power_law_ising(5, 3.0)))
    reference, ref_sv = exp_with_spectrum(Eigensystem(((w, v),)), -0.8)
    pert = RNG.standard_normal(reference.shape)
    if hermitian:
        pert = pert + pert.T
    approx = reference + 1e-3 * pert
    kept = approx.copy()
    got = schatten_errors(reference, ref_sv, approx)
    assert set(got) == {"p1", "p2", "pinf"}
    for key, p in (("p1", 1), ("p2", 2), ("pinf", np.inf)):
        assert got[key] == pytest.approx(relative_error(reference, kept, p),
                                         rel=1e-10)
    if hermitian:  # the Hermitian path doubles the difference in place
        assert np.allclose(approx, 2 * (reference - kept), rtol=0, atol=1e-15)
    else:
        assert np.array_equal(approx, reference - kept)


def yz_chain(n):
    """A complex centrosymmetric Hamiltonian: Y Z on neighbours plus an X
    field, both even under the global spin flip."""
    terms = [LocalTerm((i, i + 1), 1.0, ("Y", "Z")) for i in range(1, n)]
    terms += [LocalTerm((i,), 0.7, ("X",)) for i in range(1, n + 1)]
    return HamiltonianSpec(n=n, d=2, k=2, terms=tuple(terms))


def record_sizes(monkeypatch, name):
    sizes = []
    real = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name,
                        lambda h: sizes.append(len(h)) or real(h))
    return sizes


@pytest.mark.parametrize("spec, is_complex",
                         [(power_law_ising(6, 3.0), False), (yz_chain(6), True)],
                         ids=["real", "complex"])
def test_split_eigensystem_matches_eigh(monkeypatch, spec, is_complex):
    # a spin-flip symmetric H is decomposed by halves: w ascending within
    # each sector and, sorted, equal to eigh's, V orthonormal,
    # H V = V diag(w), all to 1e-12; the eigensystem holds its two
    # sectors and no full-size matrix
    ham = dense_matrix(spec)
    assert np.iscomplexobj(ham) == is_complex
    sizes = record_sizes(monkeypatch, "eigh")
    eig = eigensystem(spec)
    monkeypatch.undo()
    assert sizes == [32, 32] and len(eig.sectors) == 2
    w, v = eig.full()
    assert sum(x.nbytes for sector in eig.sectors for x in sector) \
        <= v.nbytes // 2 + w.nbytes
    want = np.linalg.eigvalsh(ham)
    scale = np.abs(want).max()
    assert all(np.all(np.diff(ws) >= 0.0) for ws, _ in eig.sectors)
    assert np.abs(np.sort(w) - want).max() <= 1e-12 * scale
    assert np.abs(v.conj().T @ v - np.eye(64)).max() <= 1e-12
    assert np.abs(ham @ v - v * w).max() <= 1e-12 * scale
    # the exponential by halves is the full eigenbasis's
    full = Eigensystem((np.linalg.eigh(ham),))
    for factor in (-0.7, -0.7j):
        got = exp_of_eigensystem(eig, factor)
        ref = exp_of_eigensystem(full, factor)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_asymmetric_eigensystem_is_eigh_bit_for_bit(monkeypatch):
    # a Z field breaks the spin flip: one full-size eigh, unchanged
    spec = power_law_pairwise(6, 3.0, [("Z", "Z", 1.0)],
                              fields=[("X", 0.5), ("Z", 0.2)])
    ham = dense_matrix(spec)
    sizes = record_sizes(monkeypatch, "eigh")
    eig = eigensystem(spec)
    monkeypatch.undo()
    assert sizes == [64] and len(eig.sectors) == 1
    for got, want in zip(eig.full(), np.linalg.eigh(ham)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("even", [True, False])
def test_schatten_errors_by_halves_match_svd(monkeypatch, even):
    # a Hermitian difference with no reflection-odd part is measured by
    # two half-size eigvalsh, one with an odd part by the full-size one;
    # both within 1e-12 of the SVD's ratios
    reference, ref_sv = exp_with_spectrum(eigensystem(power_law_ising(6, 3.0)),
                                          -0.8)
    pert = RNG.standard_normal(reference.shape)
    pert = pert + pert.T
    if even:
        pert = pert + pert[::-1, ::-1]
    approx = reference + 1e-3 * pert
    kept = approx.copy()
    sizes = record_sizes(monkeypatch, "eigvalsh")
    got = schatten_errors(reference, ref_sv, approx)
    monkeypatch.undo()
    assert sizes == ([32, 32] if even else [64])
    for key, p in (("p1", 1), ("p2", 2), ("pinf", np.inf)):
        assert abs(got[key] - relative_error(reference, kept, p)) <= 1e-12


def test_schatten_errors_measure_a_roundoff_scale_odd_part(monkeypatch):
    # a Hermitian difference of about 1e-14 ||ref|| whose reflection-odd
    # part is as large as its even part is not exactly even: one full-size
    # eigvalsh measures all of it, and every ratio is the SVD's (the even
    # part's halves alone would read about 30% low)
    reference, ref_sv = exp_with_spectrum(eigensystem(power_law_ising(6, 3.0)),
                                          -0.8)
    reference = (reference + reference.T) / 2  # exactly symmetric and even
    pert = RNG.standard_normal(reference.shape)
    pert = pert + pert.T
    pert = sum(x * (1e-14 * ref_sv[0] / np.linalg.norm(x))
               for x in (pert + pert[::-1, ::-1], pert - pert[::-1, ::-1]))
    approx = reference + pert  # the difference is exactly symmetric
    kept = approx.copy()
    sizes = record_sizes(monkeypatch, "eigvalsh")
    got = schatten_errors(reference, ref_sv, approx)
    monkeypatch.undo()
    assert sizes == [64]
    for key, p in (("p1", 1), ("p2", 2), ("pinf", np.inf)):
        assert got[key] == pytest.approx(relative_error(reference, kept, p),
                                         rel=1e-6)


@pytest.mark.parametrize("symmetric", [True, False])
def test_partition_function_takes_eigenvalues_only(monkeypatch, symmetric):
    # no eigenvectors: eigvalsh of the two halves of a spin-flip symmetric
    # Hamiltonian, of the whole matrix otherwise, and never eigh
    fields = [("X", 0.5)] if symmetric else [("X", 0.5), ("Z", 0.2)]
    spec = power_law_pairwise(7, 3.0, [("Z", "Z", 1.0)], fields=fields)
    want = float(np.sum(np.exp(-0.6 * np.linalg.eigvalsh(dense_matrix(spec)))))

    def refuse(h):
        raise AssertionError("partition_function called eigh")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    sizes = record_sizes(monkeypatch, "eigvalsh")
    got = partition_function(spec, 0.6)
    assert sizes == ([64, 64] if symmetric else [128])
    assert abs(got - want) <= 1e-12 * want


def random_even(dim):
    """A random real matrix with x = JxJ exactly."""
    half = dim // 2
    return join_halves((RNG.standard_normal((half, half)),
                        RNG.standard_normal((half, half))))


def test_split_and_join_halves_are_inverses():
    # a square matrix splits only when exactly even, and its top rows give
    # the same halves; joining them gives the matrix back
    x = random_even(16)
    plus, minus = split_halves(x)
    assert all(np.array_equal(got, want) for got, want in
               zip(split_halves(x[:8]), (plus, minus)))
    assert np.abs(join_halves((plus, minus)) - x).max() \
        <= 1e-15 * np.abs(x).max()
    x[0, 1] += 1e-3
    assert len(split_halves(x)) == 1 and split_halves(x)[0] is x
    odd = random_matrix(5).real
    assert split_halves(odd)[0] is odd and join_halves((odd,)) is odd


@pytest.mark.parametrize("na, nb", [(256, 2), (16, 16), (4, 8), (2, 2)])
def test_kronecker_halves_identity(na, nb):
    # with J = J_a (x) J_b, the halves of a (x) b are a+ (x) bP+ + a- (x) bP-
    # and a+ (x) bP- + a- (x) bP+, where bP+- = (b +- bJ)/2
    a, b = random_even(na), random_even(nb)
    a_plus, a_minus = split_halves(a)
    b_plus, b_minus = (b + b[:, ::-1]) / 2, (b - b[:, ::-1]) / 2
    ab = np.kron(a, b)
    assert is_even(ab)
    plus, minus = split_halves(ab)
    scale = np.abs(a).max() * np.abs(b).max()
    for got, want in ((np.kron(a_plus, b_plus) + np.kron(a_minus, b_minus),
                       plus),
                      (np.kron(a_plus, b_minus) + np.kron(a_minus, b_plus),
                       minus)):
        assert np.abs(got - want).max() <= 1e-15 * scale
