"""Exact dense reference: eigensystems, matrix exponentials and
Schatten-p norms.

Everything here works on explicit d**n x d**n matrices and is only meant
for system sizes below the dense cap.  Every eigendecomposition is
:func:`decompose` (of a spec's Hamiltonian, :func:`eigensystem`), and a
build's final error is measured by :func:`schatten_errors`.

Every bundled model commutes with the global spin flip, the product of X
on every site.  For qubits that is J, the reversal of the basis index
i -> dim - 1 - i, so its Hamiltonian is centrosymmetric, H = JHJ, and
splits exactly into two half-size Hermitian blocks: with
Q = [[1, 1], [J, -J]] / sqrt(2),

    H = [[A, B], [JBJ, JAJ]],    Q^H H Q = diag(A + BJ, A - BJ)

(Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976); the sector
method of Sandvik, AIP Conf. Proc. 1297, 135 (2010)).  The split is
detected on the matrix itself, never declared: :func:`split_halves` takes
it when the matrix :func:`is_even` (even dimension, H = JHJ exactly), and
gives any other matrix back as it is; :func:`join_halves` is its inverse.
It is the package's one split rule, and no tolerance enters it.  What
runs by halves:

* eigensystems (:func:`decompose`), held as their two sectors with no
  full-size V (:class:`Eigensystem`), and, with no eigenvectors, the
  eigenvalues of :func:`partition_function`;
* exponentials (:func:`exp_of_eigensystem`), one half-size product per
  sector;
* the dense merge, whose eigenbasis kernel runs by the sectors of three
  split eigensystems, and with it a lossless merge's product with the
  halves' operators when both are exactly even (:mod:`~gibbsmpo.merge`);
* measurement (:func:`schatten_errors`), the eigenvalues or singular
  values of an exactly even difference taken from its two halves, and
  powering (:func:`dense_power`), two half-size powers of an exactly even
  operator;
* the exact refactorization of an even operator into an MPO
  (:func:`~gibbsmpo.mpo.from_dense`), by the conjugation-parity sectors
  of each cut, from the operator's top rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_DENSE_CAP, DenseCapError, HamiltonianSpec, \
    dense_matrix  # DenseCapError is re-exported for callers of the oracle


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """H by its spin-flip sectors, each a pair (w, u) with H's block in
    that sector equal to u diag(w) u^H, as ``np.linalg.eigh`` gives it.

    An unsplit H is the one sector ``((w, u),)`` of H itself.  A split one
    (see the module docstring) is ``((w+, u+), (w-, u-))``, the unit
    eigenvectors u+- of A +- BJ in reflection coordinates; no full-size
    matrix is held.
    """

    sectors: tuple[tuple[np.ndarray, np.ndarray], ...]

    def full(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) with H = V diag(w) V^H: the one sector itself, or
        V = [[u+, u-], [Ju+, -Ju-]] / sqrt(2) with w = (w+, w-), each
        sector's columns in their own ascending order."""
        if len(self.sectors) == 1:
            return self.sectors[0]
        (w_plus, u_plus), (w_minus, u_minus) = self.sectors
        v = np.block([[u_plus, u_minus], [u_plus[::-1], -u_minus[::-1]]])
        v *= 2 ** -0.5
        return np.concatenate((w_plus, w_minus)), v


def is_even(x: np.ndarray) -> bool:
    """Whether x = JxJ holds exactly: x is square, of even dimension, and
    its bottom rows are its top rows reversed."""
    m = len(x) // 2
    return (len(x) == x.shape[1] and len(x) % 2 == 0
            and np.array_equal(x[:m], x[m:][::-1, ::-1]))


def split_halves(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The halves A + BJ and A - BJ of x = [[A, B], [JBJ, JAJ]], else
    ``(x,)``: the module's one split.

    A square ``x`` splits when it :func:`is_even`; a wide one (m x 2m) is
    read as the top rows [A, B] of an exactly even matrix.
    """
    m = x.shape[1] // 2
    if len(x) == x.shape[1]:
        if not is_even(x):
            return (x,)
        x = x[:m]
    a, bj = x[:, :m], x[:, m:][:, ::-1]
    return a + bj, a - bj


def join_halves(parts) -> np.ndarray:
    """The inverse of :func:`split_halves`: the one part itself, or
    Q diag(x_plus, x_minus) Q^H = [[S, DJ], [JD, JSJ]] with
    S = (x_plus + x_minus)/2 and D = (x_plus - x_minus)/2, formed in the
    result's own blocks."""
    if len(parts) == 1:
        return parts[0]
    x_plus, x_minus = parts
    m = len(x_plus)
    out = np.empty((2 * m, 2 * m), dtype=np.result_type(x_plus, x_minus))
    s, d = out[:m, :m], out[m:, :m][::-1]  # S, and JD seen row-reversed
    np.add(x_plus, x_minus, out=s)
    np.subtract(x_plus, x_minus, out=d)
    s /= 2
    d /= 2
    out[:m, m:] = d[:, ::-1]
    out[m:, m:] = s[::-1, ::-1]
    return out


def decompose(h: np.ndarray) -> Eigensystem:
    """Eigensystem of the Hermitian matrix ``h``; the package's one
    eigendecomposition.

    One ``np.linalg.eigh`` per block of :func:`split_halves`: the two
    half-size blocks A +- BJ when the dimension is even and h = JhJ holds
    exactly (a quarter of the flops), else ``h`` itself, unchanged.  A
    split ``h`` is released before its halves are decomposed when the
    caller holds no reference to it.
    """
    blocks = split_halves(h)
    del h
    return Eigensystem(tuple(np.linalg.eigh(x) for x in blocks))


def eigensystem(spec: HamiltonianSpec,
                cap: int = DEFAULT_DENSE_CAP) -> Eigensystem:
    """Eigensystem of the spec's dense Hamiltonian by :func:`decompose`;
    raises :class:`DenseCapError` beyond ``cap`` states."""
    return decompose(dense_matrix(spec, cap=cap))


def exp_of_eigensystem(eig: Eigensystem, factor: complex) -> np.ndarray:
    """exp(factor * H) from H's :class:`Eigensystem`.

    One product u e^{factor w} u^H per sector; a split eigensystem's two
    half-size results are joined (:func:`join_halves`) in place of one
    full-size product.  One eigenbasis serves both real and imaginary
    factors, so thermal and real-time propagators share this path.  A real
    H takes a real ``eigh``; its eigenvectors are real whatever the factor,
    and the result is real when the factor is.
    """
    return join_halves([(u * np.exp(factor * w)) @ u.conj().T
                        for w, u in eig.sectors])


def exp_with_spectrum(eig: Eigensystem,
                      factor: complex) -> tuple[np.ndarray, np.ndarray]:
    """exp(factor * H) from H's :class:`Eigensystem`, and its singular
    values.

    The singular values of V diag(e^{factor*w}) V^H are |e^{factor*w}|
    (e^{-beta*w} on a thermal step, ones on a real-time one), returned in
    descending order without an SVD.
    """
    w = np.concatenate([w for w, _ in eig.sectors])
    return (exp_of_eigensystem(eig, factor),
            np.sort(np.abs(np.exp(factor * w)))[::-1])


def dense_exp(ham: np.ndarray, factor: complex) -> np.ndarray:
    """exp(factor * ham) for Hermitian ham via :func:`decompose`; see
    :func:`exp_of_eigensystem`."""
    return exp_of_eigensystem(decompose(ham), factor)


def dense_power(m: np.ndarray, steps: int) -> np.ndarray:
    """m^steps, one ``matrix_power`` per block of :func:`split_halves`.

    An operator a spin-flip symmetric build powers is exactly even,
    m = JmJ, so its two halves are powered and joined in place
    of one full-size power; any other m is powered whole.
    """
    return join_halves([np.linalg.matrix_power(x, steps)
                        for x in split_halves(m)])


def gibbs_dense(spec: HamiltonianSpec, beta: complex,
                cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Unnormalized thermal operator exp(-beta * H); normalization is separate."""
    return exp_of_eigensystem(eigensystem(spec, cap), -beta)


def schatten_norm(op: np.ndarray, p: float) -> float:
    """[tr |op|^p]^(1/p); p = inf is the operator norm.

    p = 2 is the Frobenius norm and needs no SVD; it is rescaled by the
    largest entry so large operators do not overflow.
    """
    if p == 2:
        top = float(np.abs(op).max()) if op.size else 0.0
        if top == 0.0:
            return 0.0
        return top * float(np.linalg.norm(op / top))
    return schatten_from_spectrum(np.linalg.svd(op, compute_uv=False), p)


def schatten_from_spectrum(sv: np.ndarray, p: float) -> float:
    """Schatten-p norm from singular values sorted in descending order.

    The sum is rescaled by the largest singular value so large p (as needed
    for powered-norm arguments) does not overflow.  One spectrum serves
    every p.
    """
    if p != np.inf and not p >= 1:  # NaN fails too
        raise ValueError(f"Schatten order must be >= 1 or inf, got {p}")
    top = float(sv[0]) if sv.size else 0.0
    if p == np.inf or top == 0.0:
        return top
    return top * float(np.sum((sv / top) ** p)) ** (1.0 / p)


def relative_error(reference: np.ndarray, approx: np.ndarray, p: float) -> float:
    """||reference - approx||_p / ||reference||_p."""
    if reference.shape != approx.shape:
        raise ValueError(f"shape mismatch {reference.shape} vs {approx.shape}")
    denom = schatten_norm(reference, p)
    if denom == 0.0:
        raise ZeroDivisionError("reference operator has zero norm")
    return schatten_norm(reference - approx, p) / denom


def schatten_errors(reference: np.ndarray, ref_sv: np.ndarray,
                    approx: np.ndarray) -> dict[str, float]:
    """Relative Schatten-1, -2 and -inf distances of ``approx`` from
    ``reference``, keyed p1, p2 and pinf.

    ``ref_sv`` are the reference's singular values in descending order, as
    :func:`exp_with_spectrum` gives them.  The difference D is written into
    ``approx``, which is consumed.  Write D = S + A with S its Hermitian
    and A its anti-Hermitian part.  When r = ||A||_F obeys
    r <= 1e-12 ||ref||_inf and sqrt(dim) r <= 1e-12 ||ref||_1, D is
    measured by ``eigvalsh`` of S, and every ratio is then within 1e-12 of
    an SVD's (Weyl); any other difference takes a values-only SVD.  Either
    runs per block of :func:`split_halves`: the eigenvalues or singular
    values of an exactly even matrix are those of its two halves together,
    so an even difference takes two half-size calls and any other one
    full-size call.
    """
    # a real approx of a complex reference (the real MPO of a zero
    # Hamiltonian's real-time step) is promoted; otherwise no copy
    approx = approx.astype(np.result_type(reference, approx), copy=False)
    diff = np.subtract(reference, approx, out=approx)
    floor = 1e-12 * min(ref_sv[0], ref_sv.sum() / len(diff) ** 0.5)
    hermitian = np.linalg.norm(diff - diff.conj().T) / 2.0 <= floor
    if hermitian:
        diff += diff.conj().T  # twice the Hermitian part, in place
    diff_sv = np.sort(np.concatenate([
        np.abs(np.linalg.eigvalsh(x)) / 2.0 if hermitian
        else np.linalg.svd(x, compute_uv=False)
        for x in split_halves(diff)]))[::-1]
    return {key: schatten_from_spectrum(diff_sv, p)
            / schatten_from_spectrum(ref_sv, p)
            for key, p in (("p1", 1), ("p2", 2), ("pinf", np.inf))}


def partition_function(spec: HamiltonianSpec, beta: float,
                       cap: int = DEFAULT_DENSE_CAP) -> float:
    """tr exp(-beta * H) from the eigenvalues of the spec's Hamiltonian
    alone: ``eigvalsh`` of its two halves when it splits as in
    :func:`decompose`, else of the whole matrix."""
    w = np.concatenate([np.linalg.eigvalsh(x)
                        for x in split_halves(dense_matrix(spec, cap=cap))])
    return float(np.sum(np.exp(-beta * np.sort(w))))
