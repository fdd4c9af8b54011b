"""Exact dense reference: eigensystems, matrix exponentials and
Schatten-p norms.

Everything here works on explicit d**n x d**n matrices and is only meant
for system sizes below the dense cap.  Every eigendecomposition of a
spec's Hamiltonian is :func:`eigensystem`, and a build's final error is
measured by :func:`schatten_errors`.
"""

from __future__ import annotations

import numpy as np

from .model import DEFAULT_DENSE_CAP, DenseCapError, HamiltonianSpec, \
    dense_matrix  # DenseCapError is re-exported for callers of the oracle

Eigensystem = tuple[np.ndarray, np.ndarray]  # (w, v) as np.linalg.eigh gives


def eigensystem(spec: HamiltonianSpec,
                cap: int = DEFAULT_DENSE_CAP) -> Eigensystem:
    """Eigensystem of the spec's dense Hamiltonian; raises
    :class:`DenseCapError` beyond ``cap`` states."""
    return np.linalg.eigh(dense_matrix(spec, cap=cap))


def exp_of_eigensystem(w: np.ndarray, v: np.ndarray,
                       factor: complex) -> np.ndarray:
    """exp(factor * H) from H = v diag(w) v^H, as ``np.linalg.eigh`` gives.

    One eigenbasis serves both real and imaginary factors, so thermal and
    real-time propagators share this path.  A real H takes a real ``eigh``;
    its eigenvectors are real whatever the factor, and the result is real
    when the factor is.
    """
    return (v * np.exp(factor * w)) @ v.conj().T


def exp_with_spectrum(w: np.ndarray, v: np.ndarray,
                      factor: complex) -> tuple[np.ndarray, np.ndarray]:
    """exp(factor * H) for H = v diag(w) v^H and its singular values.

    The singular values of V diag(e^{factor*w}) V^H are |e^{factor*w}|
    (e^{-beta*w} on a thermal step, ones on a real-time one), returned in
    descending order without an SVD.
    """
    return (exp_of_eigensystem(w, v, factor),
            np.sort(np.abs(np.exp(factor * w)))[::-1])


def dense_exp(ham: np.ndarray, factor: complex) -> np.ndarray:
    """exp(factor * ham) for Hermitian ham via eigendecomposition; see
    :func:`exp_of_eigensystem`."""
    return exp_of_eigensystem(*np.linalg.eigh(ham), factor)


def gibbs_dense(spec: HamiltonianSpec, beta: complex,
                cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Unnormalized thermal operator exp(-beta * H); normalization is separate."""
    return exp_of_eigensystem(*eigensystem(spec, cap), -beta)


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
    ``approx``, which is consumed.  When its anti-Hermitian part A obeys
    ||A||_F <= 1e-12 ||ref||_inf and sqrt(dim) ||A||_F <= 1e-12 ||ref||_1,
    D is measured by ``eigvalsh`` of its Hermitian part, every ratio then
    within 1e-12 of an SVD's (Weyl); any other difference takes the SVD.
    """
    # a real approx of a complex reference (the real MPO of a zero
    # Hamiltonian's real-time step) is promoted; otherwise no copy
    approx = approx.astype(np.result_type(reference, approx), copy=False)
    diff = np.subtract(reference, approx, out=approx)
    asym = np.linalg.norm(diff - diff.conj().T) / 2.0
    if asym <= 1e-12 * min(ref_sv[0], ref_sv.sum() / len(diff) ** 0.5):
        diff += diff.conj().T  # twice the Hermitian part, in place
        diff_sv = np.sort(np.abs(np.linalg.eigvalsh(diff)))[::-1] / 2.0
    else:
        diff_sv = np.linalg.svd(diff, compute_uv=False)
    return {key: schatten_from_spectrum(diff_sv, p)
            / schatten_from_spectrum(ref_sv, p)
            for key, p in (("p1", 1), ("p2", 2), ("pinf", np.inf))}


def partition_function(spec: HamiltonianSpec, beta: float,
                       cap: int = DEFAULT_DENSE_CAP) -> float:
    """tr exp(-beta * H) from the eigenvalues."""
    w = np.linalg.eigvalsh(dense_matrix(spec, cap=cap))
    return float(np.sum(np.exp(-beta * w)))
