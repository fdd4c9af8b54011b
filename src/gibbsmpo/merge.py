"""Taylor-truncated merge operators joining adjacent block Gibbs operators.

For adjacent blocks A and B the merge operator

    Psi = exp(-b0 * H_AB) * exp(+b0 * (H_A + H_B))

turns the product of block thermal operators into the joined-block one:
exp(-b0*H_AB) = Psi * exp(-b0*H_A) * exp(-b0*H_B).  Expanding both factors
in powers of b0 and dropping every combined order above m0 gives the
polynomial surrogate

    Psi~ = sum_{m<=m0} b0^m sum_{s1+s2=m} (-1)^s1 H_AB^s1 (H_A+H_B)^s2 / (s1! s2!),

whose error obeys ||Psi - Psi~|| <= c0 * 2^-m0 whenever
|b0| <= 1/(24*g*k^2), with c0 = exp(gt / (6*g*k^2)) for any uniform bound
gt on the boundary-interaction norm, and the order-m terms of the
expansion obey ||T_m|| <= (2*C*|b0|)^m * exp(gt/C) with C = 6*g*k^2.
:func:`truncation_error` and :func:`order_term_norms` measure the error
and the term norms densely at oracle scale, :func:`truncation_bound` and
:func:`order_term_bound` evaluate their bounds, and callers compare the
two.

Densely, Psi~ is evaluated in the blocks' eigenbases.  With
H_AB = U diag(d) U^H, H_A = U_A diag(a) U_A^H and H_B = U_B diag(b) U_B^H,
the sum H_A + H_B has eigenvectors U_A (x) U_B and eigenvalues a_p + b_q;
with M = U^H (U_A (x) U_B) and Z_{i,(p,q)} = b0 (a_p + b_q - d_i),

    Psi~ = 1 + U (M o phi_m0(Z)) (U_A (x) U_B)^H,
    phi_m0(z) = z + z^2/2! + ... + z^m0/m0!,

the divided-difference form of a function of two matrices (Higham,
Functions of Matrices, SIAM 2008, ch. 3).  The exact Psi is the same with
expm1.  It costs three eigendecompositions (a build already holds them)
plus m0 elementwise Horner steps, whatever the order, and its products.
A lossless merge's joined block Psi~ (X_A (x) X_B) is the same evaluation:
X_A and X_B ride in the right factors (U_A^H X_A) (x) (U_B^H X_B), and the
1 becomes X_A (x) X_B.  When all three Hamiltonians are split by the spin
flip J (see :mod:`~gibbsmpo.oracle`) and both operators are exactly even,
J = J_A (x) J_B makes M block-diagonal by parity, so M, Z, the Horner
steps and the products run on two half-size sectors (:func:`_sectors`),
joined in the end; anything else is the one sector of the full
eigensystems.  The individual order terms come from a
two-product-per-order recurrence instead, which keeps each to full
relative precision.  The MPO assembly applies Horner's rule in
H_AB, which keeps its exact bonds far below those of the order-term
recurrence, and returns the weight its truncations discard.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import HamiltonianSpec, Interval, dense_matrix, \
    extensivity_constant, restrict
from .oracle import Eigensystem, eigensystem, is_even, join_halves, \
    split_halves
from . import mpo as mpo_ops
from .mpo import DEFAULT_MAX_BOND, MPO, BondCapError, CompressionPolicy, \
    hamiltonian_mpo

MAX_TAYLOR_ORDER = 60  # float factorials stay exact far below this; see notes


def certified_step(g: float, k: int) -> float:
    """Largest certified high-temperature step 1/(24*g*k^2)."""
    return 1.0 / (24.0 * g * k * k)


def merge_bond_ledger(order: int, bond: int) -> int:
    """Analytic bond bound (m0+1)^2 * D^m0 of an order-m0 merge MPO."""
    return (order + 1) ** 2 * max(bond, 1) ** order


def tail_prefactor(g: float, k: int, gtilde: float) -> float:
    """Taylor-tail constant c0 = exp(gt / (6*g*k^2))."""
    return float(math.exp(gtilde / (6.0 * g * k * k)))


def truncation_order_for(delta0: float, g: float, k: int, gtilde: float) -> int:
    """Smallest order m0 with c0 * 2^-m0 <= delta0.

    Tolerances at or above c0 need no expansion at all (m0 = 0); budgets in
    actual runs sit far below 1.
    """
    if not delta0 > 0.0:
        raise ValueError(f"merge tolerance must be positive, got {delta0}")
    c0 = tail_prefactor(g, k, gtilde)
    return max(0, math.ceil(math.log2(c0 / delta0) - 1e-12))


@dataclass(frozen=True)
class MergeOperatorSpec:
    """One merge of adjacent regions, with a block-local Hamiltonian spec.

    ``spec_ab`` is the joined-block Hamiltonian re-indexed to local sites;
    the halves H_A and H_B are its restrictions to either side of
    :attr:`cut`.  ``beta0`` may be imaginary for real-time evolution.
    """

    region_a: Interval
    region_b: Interval
    beta0: complex
    order: int
    spec_ab: HamiltonianSpec

    def __post_init__(self) -> None:
        if self.region_a.hi + 1 != self.region_b.lo:
            raise ValueError(f"regions {self.region_a} and {self.region_b} "
                             "are not adjacent")
        if not 0 <= self.order <= MAX_TAYLOR_ORDER:
            raise ValueError(f"order must lie in [0, {MAX_TAYLOR_ORDER}], "
                             f"got {self.order}")
        if self.spec_ab.n != len(self.region_a) + len(self.region_b):
            raise ValueError("spec_ab must be local to the joined block")

    @property
    def cut(self) -> int:
        """Local index of the last site of region A."""
        return len(self.region_a)

    def certified_regime(self) -> bool:
        """True when |beta0| is inside the proven high-temperature window."""
        g = extensivity_constant(self.spec_ab)
        if g == 0.0:  # zero block Hamiltonian: every step size is exact
            return True
        return abs(self.beta0) <= certified_step(g, self.spec_ab.k) * (1 + 1e-12)

    def require_window(self) -> None:
        """Refuse a step outside the certified window."""
        if not self.certified_regime():
            raise ValueError(
                f"|beta0|={abs(self.beta0):.3e} is outside the certified "
                "window 1/(24*g*k^2)")


def merge_spec_for(spec: HamiltonianSpec, region_a: Interval, region_b: Interval,
                   beta0: complex, order: int) -> MergeOperatorSpec:
    """Build the local merge description for two adjacent regions of a chain."""
    local = restrict(spec, Interval(region_a.lo, region_b.hi))
    return MergeOperatorSpec(region_a=region_a, region_b=region_b, beta0=beta0,
                             order=order, spec_ab=local)


# ---------------------------------------------------------------------------
# dense evaluation (oracle scale)
# ---------------------------------------------------------------------------

def _halves(ms: MergeOperatorSpec) -> tuple[HamiltonianSpec, HamiltonianSpec]:
    """Local specs of H_A and H_B, the two sides of the cut."""
    n, cut = ms.spec_ab.n, ms.cut
    return (restrict(ms.spec_ab, Interval(1, cut)),
            restrict(ms.spec_ab, Interval(cut + 1, n)))


def _dense_hamiltonians(ms: MergeOperatorSpec):
    """Dense H_AB, H_A and H_B, up to the default dense cap, for the order
    terms.  Real matrices and a real step keep the recurrence in real
    arithmetic, where a product costs a quarter of a complex one."""
    return tuple(dense_matrix(s) for s in (ms.spec_ab, *_halves(ms)))


def merge_spectra(ms: MergeOperatorSpec) -> tuple[Eigensystem, ...]:
    """Eigensystems of H_AB, H_A and H_B, the input of every dense merge."""
    return tuple(eigensystem(s) for s in (ms.spec_ab, *_halves(ms)))


def _kron_right(x: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """x @ (ua (x) ub) as two products with the factors, never forming the
    Kronecker product; the factors may be rectangular."""
    rows, na, nb = x.shape[0], ua.shape[0], ub.shape[0]
    y = (x.reshape(rows * na, nb) @ ub).reshape(rows, na, ub.shape[1])
    return np.matmul(ua.T, y).reshape(rows, ua.shape[1] * ub.shape[1])


def _sectors(spectra, blocks=None):
    """The spin-flip sectors of the merge kernel, as (d, u, columns) with
    columns a list of column blocks (a, ua, b, ub, xa, xb): xa and xb are
    the parts of ``blocks`` = (X_A, X_B) that the right factors ua^H xa
    and ub^H xb act on, None without operators.

    With J = J_A (x) J_B, M = U^H (U_A (x) U_B) is block-diagonal by
    parity when all three eigensystems are split (see
    :class:`~gibbsmpo.oracle.Eigensystem`): joined sector s meets only the
    columns (A sa) (x) (B sb) with sa xor sb = s.  In reflection
    coordinates (the top half of the rows) those columns are H_A's sector
    eigenvectors (x) H_B's full columns, so H_AB's and H_A's sectors are
    taken as they are, H_B's columns from its full V, X_A by its halves
    and X_B whole.  Any other triple, or operators that are not both
    exactly even, is the one sector of the full eigensystems.
    """
    joined, left, right = spectra
    xa, xb = blocks or (None, None)
    halves = (xa, xa) if xa is None else split_halves(xa)
    if (len(halves) == 1 or not (xb is None or is_even(xb))
            or any(len(e.sectors) == 1 for e in spectra)):
        (d, u), (a, ua), (b, ub) = (eig.full() for eig in spectra)
        return [(d, u, [(a, ua, b, ub, xa, xb)])]
    b, vb = right.full()
    m = len(b) // 2
    columns = ((b[:m], vb[:, :m]), (b[m:], vb[:, m:]))
    return [(d, u, [(a, ua, *columns[sa ^ s], x, xb) for sa, ((a, ua), x)
                    in enumerate(zip(left.sectors, halves))])
            for s, (d, u) in enumerate(joined.sectors)]


def _eigenbasis_kernel(sector, beta0: complex):
    """M = U^H (U_A (x) U_B) and Z_{i,(p,q)} = b0 (a_p + b_q - d_i) of one
    sector of :func:`_sectors`, its column blocks side by side.

    H_AB = U diag(d) U^H, and H_A + H_B has eigenvectors U_A (x) U_B with
    eigenvalues a_p + b_q.  In these bases the double sum over
    s1 + s2 <= m0 of (-b0 d_i)^s1/s1! (b0 (a_p + b_q))^s2/s2! is, by the
    binomial theorem, 1 + phi_m0(Z), and the exact product is e^Z.
    """
    d, u, blocks = sector
    m = [_kron_right(u.conj().T, ua, ub) for _, ua, _, ub, *_ in blocks]
    z = np.add.outer(-beta0 * d, beta0 * np.concatenate(
        [np.add.outer(a, b).ravel() for a, _, b, *_ in blocks]))
    return (m[0] if len(m) == 1 else np.concatenate(m, axis=1)), z


def _expm1_taylor(z: np.ndarray, order: int) -> np.ndarray:
    """phi_m0(z) = z + z^2/2! + ... + z^m0/m0!, expm1's Taylor polynomial,
    by Horner's rule."""
    phi = np.zeros_like(z)
    for k in range(order, 0, -1):
        phi += 1.0 / math.factorial(k)
        phi *= z
    return phi


def _merge_from_eigenbasis(spectra, beta0: complex, f,
                           blocks=None) -> np.ndarray:
    """X_A (x) X_B + U (M o f(Z)) ((U_A^H X_A) (x) (U_B^H X_B)) with
    ``blocks`` = (X_A, X_B), else identities, for f = phi_m0 (the truncated
    merge) or expm1 (the exact one); see :func:`_eigenbasis_kernel`.  Per
    sector one product with its eigenvectors and two with each column
    block's right factors; then X_A (x) X_B is added, on two sectors as the
    halves of X_A's top rows (x) X_B, and they are joined."""
    results = []
    for sector in _sectors(spectra, blocks):
        _, u, columns = sector
        m, z = _eigenbasis_kernel(sector, beta0)
        weights = m * f(z)
        del m, z  # free before the products
        parts, start = [], 0
        for _, ua, _, ub, xa, xb in columns:
            width = ua.shape[1] * ub.shape[1]
            ra, rb = (v.conj().T if x is None else v.conj().T @ x
                      for v, x in ((ua, xa), (ub, xb)))
            parts.append(_kron_right(weights[:, start:start + width], ra, rb))
            start += width
        del weights
        results.append(u @ functools.reduce(np.add, parts))
        del parts  # free before the identity term
    if blocks is None:
        for out in results:
            out.flat[::out.shape[0] + 1] += 1
    else:
        xa, xb = blocks
        ones = (split_halves(np.kron(xa[:len(xa) // 2], xb))
                if len(results) == 2 else (np.kron(xa, xb),))
        for out, one in zip(results, ones):
            out += one
    return join_halves(results)


def _order_terms(h_ab: np.ndarray, h_a: np.ndarray, h_b: np.ndarray,
                 beta0: complex, up_to: int):
    """Stream the order terms T_m = b0^m U_m, m = 0..up_to, of Psi.

    Psi(x) = exp(-x H_AB) exp(x H_sum) obeys Psi' = Psi H_sum - H_AB Psi
    (H_sum = H_A (x) 1 + 1 (x) H_B), so (m+1) U_{m+1} = U_m H_sum - H_AB U_m
    from U_0 = 1: two products per order and two live matrices.  Each term
    cancels strongly across s1; the stream keeps it to full relative
    precision where the eigenbasis form would not, so it serves the
    individual terms and the eigenbasis form their sums.
    """
    term = np.eye(h_ab.shape[0], dtype=np.result_type(h_ab, h_a, h_b, beta0))
    yield term
    if up_to == 0:
        return
    h_sum = np.kron(h_a, np.eye(len(h_b))) + np.kron(np.eye(len(h_a)), h_b)
    for m in range(1, up_to + 1):
        term = term @ h_sum - h_ab @ term
        term *= beta0 / m
        yield term


def merge_operator_dense(ms: MergeOperatorSpec) -> np.ndarray:
    """Exact merge operator 1 + U (M o expm1(Z)) (U_A (x) U_B)^H."""
    return _merge_from_eigenbasis(merge_spectra(ms), ms.beta0, np.expm1)


def truncated_merge_dense(ms: MergeOperatorSpec,
                          spectra: tuple[Eigensystem, ...] | None = None,
                          blocks: tuple[np.ndarray, np.ndarray] | None = None,
                          ) -> np.ndarray:
    """Dense order-m0 truncated merge operator
    Psi~ = 1 + U (M o phi_m0(Z)) (U_A (x) U_B)^H, or with ``blocks`` =
    (X_A, X_B), the halves' dense operators, the joined block
    Psi~ (X_A (x) X_B) (see :func:`_merge_from_eigenbasis`).

    ``spectra`` are the eigensystems of H_AB, H_A and H_B as
    :func:`merge_spectra` returns them; a build passes the ones it already
    holds, and without them they are computed here.
    """
    if spectra is None:
        spectra = merge_spectra(ms)
    return _merge_from_eigenbasis(spectra, ms.beta0,
                                  lambda z: _expm1_taylor(z, ms.order),
                                  blocks)


def merge_order_term_dense(ms: MergeOperatorSpec, m: int) -> np.ndarray:
    """Dense order-m term b0^m sum_{s1+s2=m} (-H_AB)^s1 (H_A+H_B)^s2/(s1! s2!),
    taken from the recurrence of :func:`_order_terms` (2*m products)."""
    for term in _order_terms(*_dense_hamiltonians(ms), ms.beta0, m):
        pass
    return term


def truncation_error(ms: MergeOperatorSpec,
                     spectra: tuple[Eigensystem, ...] | None = None) -> float:
    """Measured ||Psi - Psi~|| as ||M o (e^Z - (1 + phi_m0(Z)))||, the
    largest of its sectors' spectral norms (:func:`_sectors`).

    Unitarily equivalent to the operator difference, and a difference of
    two O(1) kernels, so its floating-point floor stays visible.
    ``spectra`` are the eigensystems of H_AB, H_A and H_B as
    :func:`merge_spectra` returns them (a sweep over orders passes the same
    ones to every order); without them they are computed here.
    """
    if spectra is None:
        spectra = merge_spectra(ms)
    norms = []
    for sector in _sectors(spectra):
        m_basis, z = _eigenbasis_kernel(sector, ms.beta0)
        gap = np.exp(z) - (1 + _expm1_taylor(z, ms.order))
        norms.append(float(np.linalg.norm(m_basis * gap, ord=2)))
    return max(norms)


def order_term_norms(ms: MergeOperatorSpec, up_to: int) -> list[float]:
    """Spectral norms of the order terms 0..``up_to`` of Psi, from
    :func:`_order_terms`; the order-0 term is the identity, norm 1.0, and
    no Hamiltonian is built for it alone."""
    norms = [1.0]
    if up_to:
        terms = _order_terms(*_dense_hamiltonians(ms), ms.beta0, up_to)
        next(terms)
        norms += [float(np.linalg.norm(term, ord=2)) for term in terms]
    return norms


def truncation_bound(ms: MergeOperatorSpec, gtilde: float) -> float:
    """Analytic bound c0 * 2^-m0 on ||Psi - Psi~||, with the joined block's
    g and k and the boundary bound ``gtilde`` in c0."""
    c0 = tail_prefactor(extensivity_constant(ms.spec_ab), ms.spec_ab.k, gtilde)
    return c0 * 2.0 ** (-ms.order)


def order_term_bound(ms: MergeOperatorSpec, gtilde: float, m: int) -> float:
    """Analytic bound (2*C*|b0|)^m * exp(gt/C), C = 6*g*k^2, on the norm of
    the order-m term, with the joined block's g and k."""
    k = ms.spec_ab.k
    comm_scale = 6.0 * extensivity_constant(ms.spec_ab) * k * k
    return (2.0 * comm_scale * abs(ms.beta0)) ** m * math.exp(gtilde / comm_scale)


# ---------------------------------------------------------------------------
# MPO assembly
# ---------------------------------------------------------------------------

def _hamiltonian_mpos(ms: MergeOperatorSpec) -> tuple[MPO, MPO]:
    """MPOs of H_AB and H_A (x) 1 + 1 (x) H_B (keeps decay channels)."""
    na, nb = len(ms.region_a), len(ms.region_b)
    left, right = _halves(ms)
    d = ms.spec_ab.d
    part_a = mpo_ops.concat(hamiltonian_mpo(left), mpo_ops.identity_mpo(nb, d))
    part_b = mpo_ops.concat(mpo_ops.identity_mpo(na, d), hamiltonian_mpo(right))
    return hamiltonian_mpo(ms.spec_ab), mpo_ops.add(part_a, part_b)


def _assembly_profile(h_ab: MPO, h_sum: MPO, m0: int) -> tuple[int, ...]:
    pa, ps = h_ab.bond_profile, h_sum.bond_profile
    inner = [sum(pa[c] ** j * ps[c] ** s
                 for j in range(m0 + 1) for s in range(m0 + 1 - j))
             for c in range(1, len(pa) - 1)]
    return (1, *inner, 1)


def assembly_bond_profile(ms: MergeOperatorSpec) -> tuple[int, ...]:
    """Exact bond profile of the uncompressed Horner assembly.

    sum_{j+s<=m0} pa[c]^j * ps[c]^s at each interior cut c, with pa and ps
    the bond profiles of H_AB and H_A + H_B.
    """
    return _assembly_profile(*_hamiltonian_mpos(ms), ms.order)


def bond_ledger(ms: MergeOperatorSpec) -> int:
    """Analytic bond bound (m0+1)^2 * D_H^m0 for the truncated merge MPO."""
    h_ab, h_sum = _hamiltonian_mpos(ms)
    return merge_bond_ledger(ms.order, max(h_ab.max_bond, h_sum.max_bond))


def build_merge_mpo(ms: MergeOperatorSpec, *,
                    policy: CompressionPolicy = CompressionPolicy(),
                    max_bond: int = DEFAULT_MAX_BOND) -> tuple[MPO, float]:
    """MPO of the truncated merge operator on the joined block and the
    discarded weight of building it.

    Horner's rule in H_AB on Hamiltonian MPOs: Psi~ = sum_{j<=m0}
    (-b0 H_AB)^j/j! P_{m0-j}, with the partial Taylor sums P_k of
    exp(b0 (H_A+H_B)) streamed alongside.  2*m0 products by
    :func:`~gibbsmpo.mpo.product`, H_AB on the left, each sum compressed by
    ``policy``; the discarded weight sums every product's and every
    compression's.  Exact under policy "none" (weight 0), with bond
    profile :func:`assembly_bond_profile` within :func:`bond_ledger`; any
    other policy (tol=0 included) rounds every product and sum.  Horner
    keeps the exact bonds there; the order-term recurrence of
    :func:`_order_terms` would grow them like (pa + ps)^m.  A lossless
    assembly over ``max_bond`` is refused before it starts with a
    :class:`~gibbsmpo.mpo.BondCapError` carrying the analytic ledger.
    Outside the certified |beta0| window it refuses (``ValueError``).
    """
    ms.require_window()
    h_ab, h_sum = _hamiltonian_mpos(ms)
    if policy.lossless and max(_assembly_profile(h_ab, h_sum, ms.order)) > max_bond:
        ledger = merge_bond_ledger(ms.order, max(h_ab.max_bond, h_sum.max_bond))
        raise BondCapError(f"uncompressed merge assembly needs bond ~{ledger} "
                           f"(> cap {max_bond})", estimate=ledger)
    discarded = 0.0

    def times(h: MPO, x: MPO, coef: complex) -> MPO:
        nonlocal discarded
        prod, w = mpo_ops.product(h, x, policy, max_bond=max_bond)
        discarded += w
        return mpo_ops.scale(prod, coef)

    def plus(x: MPO, y: MPO) -> MPO:
        nonlocal discarded
        total, w = mpo_ops.compress(mpo_ops.add(x, y, max_bond=max_bond), policy)
        discarded += w
        return total

    acc = term = partial = mpo_ops.identity_mpo(ms.spec_ab.n, ms.spec_ab.d)
    for k in range(1, ms.order + 1):
        # the H_AB product first frees the previous A before P_k grows
        acc = times(h_ab, acc, -ms.beta0 / (ms.order - k + 1))
        term = times(h_sum, term, ms.beta0 / k)
        partial = plus(partial, term)
        acc = plus(acc, partial)
    return acc, discarded
