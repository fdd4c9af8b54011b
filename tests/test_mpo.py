"""MPO arithmetic exactness, compression contract, serialization, builders."""

import struct

import numpy as np
import pytest

from gibbsmpo.model import (
    HamiltonianSpec,
    LocalTerm,
    dense_matrix,
    nearest_neighbor_ising,
    power_law_heisenberg,
    power_law_ising,
    power_law_pairwise,
)
from gibbsmpo import mpo as mpo_module
from gibbsmpo.mpo import (
    MPO,
    BondCapError,
    CompressionPolicy,
    add,
    compress,
    concat,
    from_dense,
    hamiltonian_mpo,
    identity_mpo,
    load_mpo,
    mpo_from_bytes,
    mpo_to_bytes,
    multiply,
    multiply_compressed,
    power,
    product,
    random_mpo,
    save_mpo,
    scale,
    zero_mpo,
)
from gibbsmpo.oracle import dense_exp, is_even

RNG = np.random.default_rng(777)


def dev(a, b):
    return float(np.abs(a - b).max())


# ---------------------------------------------------------------------------
# constructors and contracts
# ---------------------------------------------------------------------------

def test_identity_densify():
    assert dev(identity_mpo(1, 2).densify(), np.eye(2)) == 0.0
    assert dev(identity_mpo(3, 2).densify(), np.eye(8)) == 0.0
    assert identity_mpo(5, 2).bond_profile == (1,) * 6


def test_zero_mpo():
    assert np.abs(zero_mpo(3, 2).densify()).max() == 0.0


def test_core_shape_validation():
    with pytest.raises(ValueError):
        MPO([np.zeros((2, 2, 2, 1))])  # boundary bond must be 1
    with pytest.raises(ValueError):
        MPO([np.zeros((1, 2, 2, 3)), np.zeros((2, 2, 2, 1))])  # bond mismatch
    with pytest.raises(ValueError, match="physical dimension"):
        MPO([np.zeros((1, 0, 0, 1))])  # no local states


def test_bond_profile_reports_actual_shapes():
    a = random_mpo(4, 2, 3, seed=5)
    assert a.bond_profile == (1, 3, 3, 3, 1)
    prod = multiply(a, a)
    assert prod.bond_profile == (1, 9, 9, 9, 1)
    total = add(a, a)
    assert total.bond_profile == (1, 6, 6, 6, 1)


# ---------------------------------------------------------------------------
# exact arithmetic against the dense oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_multiply_matches_dense(n):
    a = random_mpo(n, 2, 3, rng=RNG)
    b = random_mpo(n, 2, 3, rng=RNG)
    assert dev(multiply(a, b).densify(), a.densify() @ b.densify()) < 1e-10


def test_multiply_identity_is_neutral():
    a = random_mpo(5, 2, 3, rng=RNG)
    assert dev(multiply(a, identity_mpo(5, 2)).densify(), a.densify()) < 1e-12
    assert dev(multiply(identity_mpo(5, 2), a).densify(), a.densify()) < 1e-12


def test_multiply_shape_mismatch():
    with pytest.raises(ValueError):
        multiply(random_mpo(3, 2, 2, rng=RNG), random_mpo(4, 2, 2, rng=RNG))


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_add_scale_match_dense(n):
    a = random_mpo(n, 2, 2, rng=RNG)
    b = random_mpo(n, 2, 2, rng=RNG)
    c = 0.3 - 1.7j
    assert dev(add(a, b).densify(), a.densify() + b.densify()) < 1e-10
    assert dev(scale(a, c).densify(), c * a.densify()) < 1e-12
    assert np.abs(scale(a, 0.0).densify()).max() == 0.0


def test_add_zero_is_neutral():
    a = random_mpo(4, 2, 3, rng=RNG)
    assert dev(add(a, zero_mpo(4, 2)).densify(), a.densify()) < 1e-12


def test_power_matches_dense_cube():
    a = random_mpo(4, 2, 2, rng=RNG)
    assert dev(power(a, 3)[0].densify(),
               np.linalg.matrix_power(a.densify(), 3)) < 1e-10
    assert power(a, 3)[0].bond_profile == (1, 8, 8, 8, 1)


def test_power_identity_and_unit_exponent():
    a = random_mpo(3, 2, 2, rng=RNG)
    assert power(a, 1)[0] is a
    assert dev(power(identity_mpo(4, 2), 5)[0].densify(), np.eye(16)) < 1e-12
    with pytest.raises(ValueError):
        power(a, 0)


def test_power_parenthesization_is_dense_equal():
    # square-and-multiply is the chosen order; other orders agree without
    # compression
    a = random_mpo(4, 2, 2, rng=RNG)
    left = power(a, 4)[0].densify()
    square = multiply(a, a)
    balanced = multiply(square, square).densify()
    right = multiply(a, multiply(a, multiply(a, a))).densify()
    assert dev(left, balanced) < 1e-10
    assert dev(left, right) < 1e-10


def test_power_bond_cap_fails_fast_with_estimate():
    a = random_mpo(6, 2, 4, rng=RNG)
    with pytest.raises(BondCapError) as err:
        power(a, 8, max_bond=1024)
    assert err.value.estimate == 4 ** 8


@pytest.mark.parametrize("q", range(1, 10))
def test_power_exact_matches_matrix_power(q):
    a = random_mpo(3, 2, 2, rng=RNG)
    out, discarded = power(a, q)
    assert discarded == 0.0
    assert dev(out.densify(), np.linalg.matrix_power(a.densify(), q)) < 1e-10
    assert out.bond_profile == tuple(x ** q for x in a.bond_profile)


@pytest.mark.parametrize("q,products", [(134, 9), (546, 11)])
def test_lossy_power_squares_and_multiplies(monkeypatch, q, products):
    # bit_length(q) - 1 squares plus popcount(q) - 1 multiplications
    calls = []
    original = mpo_module.product

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mpo_module, "product", counting)
    a = identity_mpo(3, 2)
    out, discarded = power(a, q, CompressionPolicy.parse("tol=1e-10"))
    assert len(calls) == products
    assert dev(out.densify(), np.eye(8)) < 1e-10 and discarded < 1e-10


def test_trace_matches_dense():
    a = random_mpo(5, 2, 3, rng=RNG)
    assert complex(a.trace()) == pytest.approx(complex(np.trace(a.densify())),
                                               rel=1e-12)


def test_concat_is_tensor_product():
    a = random_mpo(2, 2, 2, rng=RNG)
    b = random_mpo(3, 2, 2, rng=RNG)
    assert dev(concat(a, b).densify(), np.kron(a.densify(), b.densify())) < 1e-10


# ---------------------------------------------------------------------------
# from_dense
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_from_dense_roundtrip(n):
    op = RNG.standard_normal((2 ** n, 2 ** n)) \
        + 1j * RNG.standard_normal((2 ** n, 2 ** n))
    back = from_dense(op, n, 2).densify()
    assert dev(back, op) < 1e-10 * np.abs(op).max()


def test_densify_cap_enforced():
    from gibbsmpo.oracle import DenseCapError
    with pytest.raises(DenseCapError):
        random_mpo(6, 2, 2, rng=RNG).densify(cap=16)


def kron_reference(cores):
    """Dense operator as the sum over bond indices of Kronecker products."""
    d = cores[0].shape[1]
    total = np.zeros((d ** len(cores),) * 2, dtype=complex)
    for bonds in np.ndindex(*(c.shape[3] for c in cores[:-1])):
        left = (0, *bonds)
        right = (*bonds, 0)
        term = np.ones((1, 1))
        for core, lb, rb in zip(cores, left, right):
            term = np.kron(term, core[lb, :, :, rb])
        total += term
    return total


@pytest.mark.parametrize("d, profile", [
    (2, (1, 1)), (2, (1, 3, 1)), (2, (1, 2, 5, 1)), (2, (1, 4, 7, 3, 1)),
    (2, (1, 2, 6, 5, 3, 1)),
    (3, (1, 1)), (3, (1, 5, 1)), (3, (1, 10, 4, 1)), (3, (1, 3, 11, 2, 1)),
    (3, (1, 2, 10, 3, 4, 1)),
])
def test_densify_matches_kronecker_sum(d, profile):
    rng = np.random.default_rng(len(profile) * d)
    shapes = [(profile[j], d, d, profile[j + 1]) for j in range(len(profile) - 1)]
    cores = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    out = MPO(cores).densify()
    ref = kron_reference(cores)
    assert out.dtype == np.complex128
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)
    # real cores give a real operator
    real = [c.real.copy() for c in cores]
    out = MPO(real).densify()
    assert out.dtype == np.float64
    ref = kron_reference(real)
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)
    n = len(shapes)
    assert MPO(cores).densify(cap=d ** n).shape == (d ** n, d ** n)
    from gibbsmpo.oracle import DenseCapError
    with pytest.raises(DenseCapError):
        MPO(cores).densify(cap=d ** n - 1)


def test_from_dense_rank_reduction():
    a = random_mpo(6, 2, 2, rng=RNG)
    rebuilt = from_dense(a.densify(), 6, 2)
    assert max(rebuilt.bond_profile) <= 4  # true rank of a bond-2 operator


def unfolding(op, n, d, cut):
    """The dense operator as a matrix over sites 1..cut versus the rest."""
    perm = [ax for j in range(n) for ax in (j, n + j)]
    return op.reshape((d,) * (2 * n)).transpose(perm).reshape(d ** (2 * cut), -1)


@pytest.mark.parametrize("n, t", [(5, 0.7), (8, 1.0)])
def test_from_dense_roundtrips_real_time_propagator(n, t):
    op = dense_exp(dense_matrix(power_law_ising(n, 3.0)), -1j * t)
    out = from_dense(op, n, 2)
    assert all(np.iscomplexobj(c) for c in out.cores)
    assert np.linalg.norm(out.densify() - op) <= 1e-13 * np.linalg.norm(op)


def test_from_dense_bonds_are_unfolding_ranks():
    # bond 5 is below the full rank of every interior cut but the first and
    # the last (4): the profile must be the ranks, not the input's bonds
    n = 6
    op = random_mpo(n, 2, 5, seed=11).densify()
    ranks = [np.linalg.matrix_rank(unfolding(op, n, 2, c)) for c in range(1, n)]
    assert ranks == [4, 5, 5, 5, 4]
    assert from_dense(op, n, 2).bond_profile == (1, *ranks, 1)


def test_from_dense_factors_wide_and_tall_cuts(monkeypatch):
    # at n=9 a full-rank propagator's remainder is wide (more columns than
    # rows) on the first cuts and tall on the last ones; one path serves both
    n = 9
    op = dense_exp(dense_matrix(power_law_ising(n, 3.0)), -1j)
    shapes = []
    qr = np.linalg.qr

    def recording(a, *args, **kwargs):
        shapes.append(a.T.shape)  # a parity sector of the unfolding
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    out = from_dense(op, n, 2)
    assert any(r < c for r, c in shapes) and any(r > c for r, c in shapes)
    assert out.bond_profile == (1, 4, 16, 64, 256, 256, 64, 16, 4, 1)
    assert np.linalg.norm(out.densify() - op) <= 1e-13 * np.linalg.norm(op)


def test_from_dense_peak_memory_stays_near_the_input():
    # numpy arrays as tracemalloc traces them: the input's transposed copy
    # is the first remainder and is released at the first cut, and no vh
    # factor is formed.  LAPACK's QR works on its own malloc'd copy of each
    # unfolding, which tracemalloc does not see; peak RSS, which does, reads
    # about 3x the input above it at n=10 and n=11.
    import tracemalloc
    op = dense_exp(dense_matrix(power_law_ising(9, 3.0)), -0.1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        from_dense(op, 9, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 2.5 * op.nbytes


def one_sector_from_dense(op, n, d):
    """The sweep without parity sectors: QR and SVD of every unfolding."""
    perm = [ax for j in range(n) for ax in (j, n + j)]
    rest = op.reshape((d,) * (2 * n)).transpose(perm).reshape(d * d, -1)
    cores = []
    left = 1
    for j in range(n - 1):
        r = np.linalg.qr(rest.T, mode="r")
        u, s, _ = np.linalg.svd(r.T, full_matrices=False)
        keep = max(1, int(np.count_nonzero(
            s > s[0] * max(rest.shape) * np.finfo(float).eps)))
        cores.append(u[:, :keep].reshape(left, d, d, keep))
        rest = (u[:, :keep].conj().T @ rest).reshape(keep * d * d, -1)
        left = keep
    cores.append(rest.reshape(left, d, d, 1))
    return MPO(cores)


def count_qr(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


@pytest.mark.parametrize("factor", [-0.5, -1j], ids=["thermal", "real-time"])
@pytest.mark.parametrize("n", [2, 5, 8, 9])
def test_from_dense_factors_even_operators_by_sectors(monkeypatch, n, factor):
    # exp(-b H) of a spin-flip symmetric H is exactly even: two QRs a cut,
    # each on half the rows of the top half of the unfolding, with the
    # unsplit sweep's bonds, a round trip as close, and orthonormal cores
    op = dense_exp(dense_matrix(power_law_ising(n, 3.0)), factor)
    assert is_even(op)
    calls = count_qr(monkeypatch)
    out = from_dense(op, n, 2)
    monkeypatch.undo()
    assert len(calls) == 2 * (n - 1)
    assert all(c == 2 * out.bond_profile[j // 2]
               for j, (_, c) in enumerate(calls))
    ref = one_sector_from_dense(op, n, 2)
    assert out.bond_profile == ref.bond_profile
    assert np.iscomplexobj(out.cores[0]) == np.iscomplexobj(op)
    norm = np.linalg.norm(op)
    # the rank rule drops modes at its threshold in thermal operators at
    # n >= 8, on either sweep alike (about 1e-12 at n = 9)
    ref_err = np.linalg.norm(ref.densify() - op) / norm
    assert np.linalg.norm(out.densify() - op) / norm <= 1e-13 + ref_err
    for core in out.cores[:-1]:
        mat = core.reshape(-1, core.shape[3])
        gram = mat.conj().T @ mat
        assert np.abs(gram - np.eye(len(gram))).max() <= 1e-13


@pytest.mark.parametrize("n, d, make", [
    (6, 2, "random"), (6, 2, "lfi"), (5, 2, "odd-bit"), (3, 3, "random"),
    (4, 3, "random")])
def test_from_dense_keeps_the_unsplit_sweep_for_other_operators(
        monkeypatch, n, d, make):
    # not exactly even (or of odd dimension): the one-sector sweep, byte
    # for byte
    rng = np.random.default_rng(n * d)
    dim = d ** n
    if make == "random":
        op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    elif make == "lfi":  # a Z field breaks the spin flip
        op = dense_exp(dense_matrix(power_law_pairwise(
            n, 3.0, [("Z", "Z", 1.0)], fields=[("X", 0.5), ("Z", 0.2)])),
            -0.5)
    else:  # even but for one entry's last bit
        op = dense_exp(dense_matrix(power_law_ising(n, 3.0)), -0.5)
        op[0, 1] = np.nextafter(op[0, 1], 1.0)
    assert not is_even(op)
    calls = count_qr(monkeypatch)
    out = from_dense(op, n, d)
    monkeypatch.undo()
    assert len(calls) == n - 1
    ref = one_sector_from_dense(op, n, d)
    assert [c.tobytes() for c in out.cores] == [c.tobytes() for c in ref.cores]


@pytest.mark.parametrize("fields, even, bound", [
    ([("X", 0.5)], True, 1.25), ([("X", 0.5), ("Z", 0.2)], False, 2.5)],
    ids=["even", "not-even"])
def test_from_dense_peak_memory_by_sectors(fields, even, bound):
    # under tracemalloc an even sweep reads only op[:dim/2], so it peaks at
    # that transposed copy plus the first cut's two sector matrices (a
    # quarter of the input each); any other input keeps the unsplit
    # sweep's bound
    import tracemalloc
    op = dense_exp(dense_matrix(power_law_pairwise(
        9, 3.0, [("Z", "Z", 1.0)], fields=fields)), -0.1)
    assert is_even(op) == even
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        from_dense(op, 9, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= bound * op.nbytes


def test_from_dense_of_an_even_zero_or_identity():
    # a zero remainder keeps one bond; the identity has bond 1 everywhere
    for op in (np.zeros((16, 16)), np.eye(16)):
        out = from_dense(op, 4, 2)
        assert out.bond_profile == (1, 1, 1, 1, 1)
        assert np.abs(out.densify() - op).max() <= 1e-15


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def test_compress_mode_none_is_identity():
    a = random_mpo(5, 2, 4, rng=RNG)
    out, w = compress(a, CompressionPolicy())
    assert out is a and w == 0.0


def test_compress_zero_tolerance_keeps_operator():
    a = random_mpo(6, 2, 8, rng=RNG)
    out, w = compress(a, CompressionPolicy(mode="tolerance", tolerance=0.0))
    ref = a.densify()
    assert np.linalg.norm(out.densify() - ref) < 1e-10 * np.linalg.norm(ref)
    assert w < 1e-20
    # rank caps beat the stored profile near the boundary
    assert out.bond_profile[1] <= 4 < a.bond_profile[1]
    assert all(x <= y for x, y in zip(out.bond_profile, a.bond_profile))


def test_compress_redundant_product_shrinks():
    a = random_mpo(5, 2, 2, rng=RNG)
    prod = multiply(a, identity_mpo(5, 2))
    out, _ = compress(prod, CompressionPolicy(mode="tolerance", tolerance=0.0))
    assert max(out.bond_profile) <= max(a.bond_profile)


def test_compress_maxbond_caps_profile():
    a = random_mpo(6, 2, 8, rng=RNG)
    out, w = compress(a, CompressionPolicy(mode="maxbond", max_bond=3))
    assert max(out.bond_profile) <= 3
    assert w > 0.0


def test_compress_frobenius_error_bounded_by_discarded_weight():
    for bond, tol in [(8, 1e-4), (8, 1e-2), (6, 1e-1)]:
        a = random_mpo(6, 2, bond, rng=RNG)
        out, w = compress(a, CompressionPolicy(mode="tolerance", tolerance=tol))
        ref = a.densify()
        rel = np.linalg.norm(out.densify() - ref) / np.linalg.norm(ref)
        assert rel <= np.sqrt(w) * 1.01 + 1e-12


def test_policy_parse():
    assert CompressionPolicy.parse("none").is_none
    tol = CompressionPolicy.parse("tol=1e-8")
    assert tol.mode == "tolerance" and tol.tolerance == 1e-8
    mb = CompressionPolicy.parse("maxbond=64")
    assert mb.mode == "maxbond" and mb.max_bond == 64
    with pytest.raises(ValueError):
        CompressionPolicy.parse("squeeze=9")
    with pytest.raises(ValueError):
        CompressionPolicy(mode="maxbond")


def test_multiply_compressed_tracks_error():
    a = random_mpo(6, 2, 4, rng=RNG)
    b = random_mpo(6, 2, 4, rng=RNG)
    exact = a.densify() @ b.densify()
    out, w = multiply_compressed(a, b, CompressionPolicy(mode="tolerance",
                                                         tolerance=0.0))
    assert np.linalg.norm(out.densify() - exact) < 1e-9 * np.linalg.norm(exact)
    lossy, w2 = multiply_compressed(a, b, CompressionPolicy(mode="maxbond",
                                                            max_bond=4))
    assert max(lossy.bond_profile) <= 4
    with pytest.raises(ValueError):
        multiply_compressed(a, b, CompressionPolicy())
    # product: literal multiply under "none", a rounded zip-up under tol=0
    plain, w0 = product(a, b)
    assert w0 == 0.0
    assert all(np.array_equal(x, y)
               for x, y in zip(plain.cores, multiply(a, b).cores))
    rounded, _ = product(a, b, CompressionPolicy.parse("tol=0"))
    assert np.linalg.norm(rounded.densify() - exact) < 1e-9 * np.linalg.norm(exact)


# ---------------------------------------------------------------------------
# Hamiltonian builders
# ---------------------------------------------------------------------------

def test_hamiltonian_mpo_single_pair_term():
    spec = HamiltonianSpec(n=2, d=2, k=2,
                           terms=(LocalTerm((1, 2), 1.0, ("Z", "Z")),))
    h = hamiltonian_mpo(spec)
    assert h.bond_profile[1] <= 4
    assert dev(h.densify(), dense_matrix(spec)) < 1e-12


def test_hamiltonian_mpo_empty_spec_is_zero():
    spec = HamiltonianSpec(n=4, d=2, k=2, terms=())
    assert np.abs(hamiltonian_mpo(spec).densify()).max() == 0.0


@pytest.mark.parametrize("builder,kwargs", [
    (power_law_ising, {"alpha": 3.0}),
    (power_law_ising, {"alpha": 2.5, "transverse_field": 0.3}),
    (power_law_heisenberg, {"alpha": 3.0}),
    (nearest_neighbor_ising, {}),
])
def test_hamiltonian_mpo_matches_dense(builder, kwargs):
    spec = builder(6, **kwargs)
    h = hamiltonian_mpo(spec)
    assert dev(h.densify(), dense_matrix(spec)) < 1e-10
    assert h.max_bond <= spec.n ** spec.k * spec.d ** spec.k


def test_hamiltonian_mpo_gapped_three_site_term():
    # k = 3 with a non-contiguous support: identity bridges the gaps
    spec = HamiltonianSpec(n=5, d=2, k=3, terms=(
        LocalTerm((1, 3, 5), 0.7, ("Z", "X", "Z")),
        LocalTerm((2, 4), -0.4, ("X", "X")),
        LocalTerm((3,), 0.2, ("Y",))))
    h = hamiltonian_mpo(spec)
    assert dev(h.densify(), dense_matrix(spec)) < 1e-12
    assert h.max_bond <= 4


def test_hamiltonian_mpo_qutrit_model():
    from gibbsmpo.model import power_law_pairwise
    spec = power_law_pairwise(4, 3.0, channels=[["S01", "S01", 1.0]],
                              fields=[["D1", 0.3]], d=3)
    h = hamiltonian_mpo(spec)
    assert dev(h.densify(), dense_matrix(spec)) < 1e-10


def test_hamiltonian_mpo_generic_cap_documented():
    spec = power_law_ising(8, 3.0)
    h = hamiltonian_mpo(spec)
    # the automaton needs 2 + (pairs straddling the cut) states
    assert h.max_bond <= 2 + (spec.n // 2) ** 2
    assert h.max_bond <= spec.n ** 2 * spec.d ** 2


def test_exponential_channel_three_state_layout():
    # one decay channel: classic (source, decay, sink) automaton
    spec = HamiltonianSpec(
        n=6, d=2, k=2, terms=(), coupling=1.0,
        pair_channels=(("Z", "Z", 1.0),), exp_channels=((0.8, 0.5),))
    h = hamiltonian_mpo(spec)
    assert h.max_bond == 3
    assert h.max_bond <= spec.d ** 2 + 2
    z = np.diag([1.0, -1.0]).astype(complex)
    expected = np.zeros((64, 64), dtype=complex)
    for i in range(1, 7):
        for j in range(i + 1, 7):
            mats = {i: z, j: z}
            acc = np.array([[1.0 + 0j]])
            for s in range(1, 7):
                acc = np.kron(acc, mats.get(s, np.eye(2)))
            expected += 0.8 * np.exp(-0.5 * (j - i)) * acc
    assert dev(h.densify(), expected) < 1e-12


def test_exponential_channels_match_kernel_spec():
    import warnings
    from gibbsmpo.expsum import approximate_hamiltonian
    spec = power_law_ising(6, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        approx, series = approximate_hamiltonian(spec, 1e-2)
    h = hamiltonian_mpo(approx)
    assert dev(h.densify(), dense_matrix(approx)) < 1e-10
    # bond grows with the series length, not the interaction range
    assert h.max_bond <= series.num_terms + 2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialization_bit_exact_roundtrip(tmp_path):
    a = random_mpo(5, 2, 4, seed=31337)
    blob = mpo_to_bytes(a)
    back = mpo_from_bytes(blob)
    assert mpo_to_bytes(back) == blob
    for x, y in zip(a.cores, back.cores):
        assert np.array_equal(x, y)
    path = tmp_path / "op.mpo"
    save_mpo(a, path)
    assert mpo_to_bytes(load_mpo(path)) == blob


def test_real_mpo_is_stored_complex_and_reads_back_real(tmp_path):
    a = from_dense(dense_matrix(power_law_ising(4, 3.0)), 4, 2)
    assert a.cores[0].dtype == np.float64
    path = tmp_path / "real.mpo"
    save_mpo(a, path)
    blob = path.read_bytes()
    assert struct.unpack_from("<I", blob, 16)[0] == 1  # scalar kind complex128
    back = load_mpo(path)
    for x, y in zip(a.cores, back.cores):
        assert y.dtype == np.float64 and np.array_equal(x, y)
    assert mpo_to_bytes(back) == blob


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        mpo_from_bytes(b"NOPE" + b"\x00" * 64)
    blob = mpo_to_bytes(identity_mpo(2, 2))
    with pytest.raises(ValueError):
        mpo_from_bytes(blob + b"\x00")
    # truncated inside the header, the bond profile and the cores
    for cut in (0, 3, 19, 20, 27, 43, 44, 107, len(blob) - 1):
        with pytest.raises(ValueError, match="truncated|does not match"):
            mpo_from_bytes(blob[:cut])
    # a profile entry of 2**63 or a site count of 2**32 - 1 describes more
    # data than any container holds
    for fmt, offset, value in (("<Q", 28, 2 ** 63), ("<I", 8, 2 ** 32 - 1)):
        oversized = bytearray(blob)
        struct.pack_into(fmt, oversized, offset, value)
        with pytest.raises(ValueError):
            mpo_from_bytes(bytes(oversized))
    # one site of physical dimension 0: a consistent size, no operator
    empty = struct.pack("<4sIIII2Q", b"GMPO", 1, 1, 0, 1, 1, 1)
    with pytest.raises(ValueError, match="physical dimension"):
        mpo_from_bytes(empty)
