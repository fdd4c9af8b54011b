"""Matrix product operator data structure and exact arithmetic.

An MPO stores one rank-4 tensor per site with index order
(left bond, row physical, column physical, right bond) and boundary bonds
of dimension 1.  multiply/add/scale are exact and never truncate; bond
profiles follow the product/sum rules of the inputs.  Truncation only
happens through a :class:`CompressionPolicy`, taken by :func:`compress`,
:func:`product` and the square-and-multiply :func:`power`.

Cores are float64 when no core has a nonzero imaginary part, else
complex128; numpy's type promotion decides everything downstream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_DENSE_CAP, DenseCapError, HamiltonianSpec, \
    site_basis
from .oracle import is_even

DEFAULT_MAX_BOND = 4096

_EPS = np.finfo(np.float64).eps


class BondCapError(RuntimeError):
    """An exact operation would exceed the configured bond-dimension cap."""

    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class CompressionPolicy:
    """How (and whether) to truncate bonds.

    mode "none" is literal uncompressed arithmetic.  Any other mode rounds
    every MPO product (:func:`product`).  mode "tolerance" drops, at each
    cut, the smallest singular values whose combined squared weight stays
    below ``tolerance`` relative to the total (tolerance 0 removes only
    numerically zero modes: exact up to roundoff).  mode "maxbond" keeps
    at most ``max_bond`` values per cut.
    """

    mode: str = "none"
    tolerance: float = 0.0
    max_bond: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("none", "tolerance", "maxbond"):
            raise ValueError(f"unknown compression mode {self.mode!r}")
        if not self.tolerance >= 0.0:  # NaN fails too
            raise ValueError("tolerance must be >= 0")
        if self.mode == "maxbond" and (self.max_bond is None or self.max_bond < 1):
            raise ValueError("maxbond mode requires max_bond >= 1")

    @property
    def is_none(self) -> bool:
        return self.mode == "none"

    @property
    def lossless(self) -> bool:
        """True when the policy keeps the operator exact (up to roundoff)."""
        return self.mode == "none" or (self.mode == "tolerance" and self.tolerance == 0.0)

    @classmethod
    def parse(cls, text: str) -> "CompressionPolicy":
        """Parse CLI syntax: 'none', 'tol=1e-8' or 'maxbond=64'."""
        if text == "none":
            return cls()
        if text.startswith("tol="):
            return cls(mode="tolerance", tolerance=float(text[4:]))
        if text.startswith("maxbond="):
            return cls(mode="maxbond", max_bond=int(text[8:]))
        raise ValueError(f"cannot parse compression policy {text!r}")

    def describe(self) -> str:
        if self.mode == "none":
            return "none"
        if self.mode == "tolerance":
            return f"tol={self.tolerance:g}"
        return f"maxbond={self.max_bond}"


class MPO:
    """Chain of (left, d, d, right) tensors with unit boundary bonds.

    Values are immutable after construction: cores are read-only, every
    operation returns a new MPO and MPOs share cores freely, so instances
    are safe to share between threads.
    """

    __slots__ = ("cores", "d")

    def __init__(self, cores):
        cores = [np.asarray(c) for c in cores]
        if not cores:
            raise ValueError("an MPO needs at least one site")
        if not any(np.iscomplexobj(c) and c.imag.any() for c in cores):
            cores = [c.real for c in cores]
        dtype = np.result_type(np.float64, *cores)  # float64 or complex128
        cores = tuple(np.ascontiguousarray(c, dtype=dtype) for c in cores)
        d = cores[0].shape[1]
        for j, c in enumerate(cores):
            if c.ndim != 4 or c.shape[1] != d or c.shape[2] != d:
                raise ValueError(f"core {j} has invalid shape {c.shape}")
        if d < 1:
            raise ValueError(f"physical dimension must be >= 1, got {d}")
        if cores[0].shape[0] != 1 or cores[-1].shape[3] != 1:
            raise ValueError("boundary bonds must have dimension 1")
        for j in range(len(cores) - 1):
            if cores[j].shape[3] != cores[j + 1].shape[0]:
                raise ValueError(f"bond mismatch between cores {j} and {j + 1}")
        for c in cores:
            c.flags.writeable = False
        self.cores = cores
        self.d = d

    @property
    def n(self) -> int:
        return len(self.cores)

    @property
    def bond_profile(self) -> tuple[int, ...]:
        return tuple([1] + [c.shape[3] for c in self.cores])

    @property
    def max_bond(self) -> int:
        return max(self.bond_profile)

    def densify(self, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
        """Exact dense matrix of the encoded operator.

        One BLAS matmul per core, then one transpose that gathers the row
        and the column indices.
        """
        n, d = self.n, self.d
        dim = d ** n
        if dim > cap:
            raise DenseCapError(f"dense dimension {dim} exceeds cap {cap}")
        acc = np.ones((1, 1))  # (x1 y1 ... xj yj, bond)
        for core in self.cores:
            acc = acc @ core.reshape(core.shape[0], -1)
            acc = acc.reshape(-1, core.shape[3])
        perm = [2 * j for j in range(n)] + [2 * j + 1 for j in range(n)]
        return acc.reshape((d,) * (2 * n)).transpose(perm).reshape(dim, dim)

    def trace(self) -> complex:
        acc = np.ones((1, 1))
        for core in self.cores:
            acc = acc @ np.einsum("lssr->lr", core)
        return acc.item()


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def identity_mpo(n: int, d: int) -> MPO:
    return MPO([np.eye(d).reshape(1, d, d, 1)] * n)


def zero_mpo(n: int, d: int) -> MPO:
    return MPO([np.zeros((1, d, d, 1)) for _ in range(n)])


def random_mpo(n: int, d: int, bond: int, seed: int | None = None,
               rng: np.random.Generator | None = None) -> MPO:
    """Random complex MPO with interior bond dimension ``bond``."""
    if rng is None:
        rng = np.random.default_rng(seed)
    profile = [1] + [bond] * (n - 1) + [1]
    cores = []
    for j in range(n):
        l, r = profile[j], profile[j + 1]
        c = rng.standard_normal((l, d, d, r)) + 1j * rng.standard_normal((l, d, d, r))
        cores.append(c / np.sqrt(l * d * r))
    return MPO(cores)


def from_dense(op: np.ndarray, n: int, d: int) -> MPO:
    """Exact tensor-train factorization of a dense operator.

    At each cut the unfolding M of the remainder is M = R^T Q^T, with R
    the R factor of a QR of M^T, so the SVD of the small R^T gives M's
    singular values and left singular vectors u at the cost of M's thin
    side; u^H M is the next remainder.  At each cut the singular values up
    to s_0 max(M.shape) eps are dropped, s_0 the largest, and every other
    one is kept.  That threshold grows with the unfolding (65536 eps, about
    1.5e-11 s_0, at n=9's first cut), so the result reproduces the
    operator to that level, not to machine precision: a thermal
    ``power_law_ising(9, 3)`` operator round-trips at about 1e-12
    relative Frobenius error, a full-rank real-time one at about 2e-15.

    An exactly even operator, X = JXJ with J the reversal of the basis
    index (:func:`~gibbsmpo.oracle.is_even`), is factored by its
    conjugation-parity sectors (Singh, Pfeifer & Vidal, PRB 83, 115125
    (2011)).  Conjugation by J reverses each site's interleaved operator
    index s -> d^2 - 1 - s, so with a parity p_b = +-1 on each bond the
    remainder obeys rest[b, s, c] = p_b rest[b, d^2-1-s, C-1-c], and every
    unfolding is block-diagonal: with T its rows (b, s < d^2/2), sector
    c = +-1 is M_c = T_1 + c T_2 J, T_1 the first half of T's columns and
    T_2 J the second half reversed.  Each sector takes the QR and SVD
    above on half the rows and half the columns.  Its left vectors u make
    bonds of parity c, with core entries u/sqrt2 at s and c p_b u/sqrt2 at
    d^2 - 1 - s, still left-orthonormal, and u^H M_c / sqrt2 is the next
    remainder's rows s < d^2/2, which are all the sweep holds: it reads
    only op[:dim/2].  The rank rule is the full unfolding's, with the
    largest singular value of either sector.  Any other operator is the
    one sector M itself.
    """
    dim = d ** n
    if op.shape != (dim, dim):
        raise ValueError(f"expected shape {(dim, dim)}, got {op.shape}")
    even = is_even(op)
    rows = d * d // 2 if even else d * d  # operator indices held per bond

    def put(core, cols, half, signs):
        """Write columns of a (left, d^2, right) core from its rows
        s < d^2/2, or from all of them when ``op`` is not even."""
        core[:, :rows, cols] = half
        if even:
            core[:, rows:, cols] = signs[:, None, None] * half[:, ::-1]

    perm = [ax for j in range(n) for ax in (j, n + j)]
    rest = op[:dim * rows // (d * d)].reshape((rows // d,) + (d,) * (2 * n - 1))
    rest = rest.transpose(perm).reshape(rows, -1)
    cores = []
    left, parity = 1, np.ones(1)
    for _ in range(n - 1):
        if even:
            width = rest.shape[1] // 2
            head, tail = rest[:, :width], rest[:, width:][:, ::-1]
            sectors = [(1, head + tail), (-1, head - tail)]
            del head, tail
        else:
            sectors = [(1, rest)]
        del rest
        spectra = [np.linalg.svd(np.linalg.qr(m.T, mode="r").T,
                                 full_matrices=False)[:2] for _, m in sectors]
        # the full unfolding's shape is len(sectors) times a sector's
        cutoff = (max(s[0] for _, s in spectra)
                  * (len(sectors) * max(sectors[0][1].shape)) * _EPS)
        keeps = [int(np.count_nonzero(s > cutoff)) for _, s in spectra]
        if not any(keeps):  # a zero remainder keeps one bond
            keeps[int(np.argmax([s[0] for _, s in spectra]))] = 1
        dtype = spectra[0][0].dtype
        core = np.empty((left, d * d, sum(keeps)), dtype=dtype)
        rest = np.empty((sum(keeps), sectors[0][1].shape[1]), dtype=dtype)
        signs = []
        for (c, m), (u, _), keep in zip(sectors, spectra, keeps):
            u = u[:, :keep] * 2 ** -0.5 if even else u[:, :keep]
            np.matmul(u.conj().T, m, out=rest[len(signs):len(signs) + keep])
            put(core, slice(len(signs), len(signs) + keep),
                u.reshape(left, rows, keep), c * parity)
            signs += [c] * keep
        del sectors, m
        cores.append(core.reshape(left, d, d, -1))
        left, parity = len(signs), np.array(signs)
        rest = rest.reshape(left * rows, -1)
    core = np.empty((left, d * d, 1), dtype=rest.dtype)
    put(core, slice(None), rest.reshape(left, rows, 1), parity)
    cores.append(core.reshape(left, d, d, 1))
    return MPO(cores)


def concat(a: MPO, b: MPO) -> MPO:
    """Tensor product of operators on adjacent blocks (chain join)."""
    if a.d != b.d:
        raise ValueError("local dimensions differ")
    return MPO([*a.cores, *b.cores])


# ---------------------------------------------------------------------------
# exact arithmetic
# ---------------------------------------------------------------------------

def _check_compatible(a: MPO, b: MPO) -> None:
    if a.n != b.n or a.d != b.d:
        raise ValueError(f"incompatible MPOs: ({a.n}, d={a.d}) vs ({b.n}, d={b.d})")


def multiply(a: MPO, b: MPO, max_bond: int = DEFAULT_MAX_BOND) -> MPO:
    """Exact operator product a @ b; bond profile multiplies elementwise.

    The contraction cost scales as n * (D_a * D_b)^2 * d^3.
    """
    _check_compatible(a, b)
    predicted = max(x * y for x, y in zip(a.bond_profile, b.bond_profile))
    if predicted > max_bond:
        raise BondCapError(
            f"product bond {predicted} exceeds cap {max_bond}", estimate=predicted)
    d = a.d
    cores = []
    for ca, cb in zip(a.cores, b.cores):
        c = np.einsum("asxb,cxte->acstbe", ca, cb)
        la, lc = ca.shape[0], cb.shape[0]
        ra, re = ca.shape[3], cb.shape[3]
        cores.append(c.reshape(la * lc, d, d, ra * re))
    return MPO(cores)


def add(a: MPO, b: MPO, max_bond: int = DEFAULT_MAX_BOND) -> MPO:
    """Exact operator sum; interior bond profile adds elementwise."""
    _check_compatible(a, b)
    if a.n == 1:
        return MPO([a.cores[0] + b.cores[0]])
    predicted = max(x + y for x, y in zip(a.bond_profile[1:-1], b.bond_profile[1:-1]))
    if predicted > max_bond:
        raise BondCapError(
            f"sum bond {predicted} exceeds cap {max_bond}", estimate=predicted)
    d, dtype = a.d, np.result_type(a.cores[0], b.cores[0])
    cores = [np.concatenate([a.cores[0], b.cores[0]], axis=3)]
    for j in range(1, a.n - 1):
        ca, cb = a.cores[j], b.cores[j]
        block = np.zeros((ca.shape[0] + cb.shape[0], d, d,
                          ca.shape[3] + cb.shape[3]), dtype=dtype)
        block[:ca.shape[0], :, :, :ca.shape[3]] = ca
        block[ca.shape[0]:, :, :, ca.shape[3]:] = cb
        cores.append(block)
    cores.append(np.concatenate([a.cores[-1], b.cores[-1]], axis=0))
    return MPO(cores)


def scale(a: MPO, c: complex) -> MPO:
    """Scalar multiple (complex scalars supported throughout)."""
    return MPO([a.cores[0] * c, *a.cores[1:]])


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------

def _split_rank(s: np.ndarray, policy: CompressionPolicy, dims: tuple[int, int]):
    """Rank to keep for one singular spectrum plus relative discarded weight."""
    if s.size == 0:
        return 1, 0.0
    total = float(np.sum(s ** 2))
    if total == 0.0:
        return 1, 0.0
    cutoff = s[0] * max(dims) * _EPS
    keep = max(1, int(np.count_nonzero(s > cutoff)))
    if policy.mode == "tolerance" and policy.tolerance > 0.0:
        tail = np.cumsum((s[::-1] ** 2))[::-1] / total  # tail[i] = weight of s[i:]
        while keep > 1 and tail[keep - 1] <= policy.tolerance:
            keep -= 1
    elif policy.mode == "maxbond":
        keep = min(keep, policy.max_bond)
    discarded = float(np.sum(s[keep:] ** 2)) / total
    return keep, discarded


def compress(a: MPO, policy: CompressionPolicy) -> tuple[MPO, float]:
    """Canonicalize and truncate per policy.

    Left-to-right QR orthogonalization followed by a right-to-left SVD
    sweep truncating each cut.  Returns the new MPO and the cumulative
    relative discarded squared singular-value weight (0 for mode "none",
    and 0 up to roundoff for tolerance 0).
    """
    if policy.is_none:
        return a, 0.0
    d = a.d
    cores = list(a.cores)
    for j in range(len(cores) - 1):
        l, _, _, r = cores[j].shape
        q, rr = np.linalg.qr(cores[j].reshape(l * d * d, r))
        cores[j] = q.reshape(l, d, d, q.shape[1])
        cores[j + 1] = np.einsum("ab,bxyr->axyr", rr, cores[j + 1])
    discarded = 0.0
    for j in range(len(cores) - 1, 0, -1):
        l, _, _, r = cores[j].shape
        mat = cores[j].reshape(l, d * d * r)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep, w = _split_rank(s, policy, mat.shape)
        discarded += w
        cores[j] = vh[:keep].reshape(keep, d, d, r)
        cores[j - 1] = np.einsum("axyb,bk->axyk", cores[j - 1], u[:, :keep] * s[:keep])
    return MPO(cores), discarded


def multiply_compressed(a: MPO, b: MPO, policy: CompressionPolicy) -> tuple[MPO, float]:
    """Operator product with on-the-fly truncation (zip-up sweep).

    Avoids materializing the full product bond profile, so it stays usable
    when the exact product would exceed memory.  Requires a policy other
    than "none"; the result is an approximation whose discarded weight is
    returned for error accounting.
    """
    _check_compatible(a, b)
    if policy.is_none:
        raise ValueError("zip-up multiply requires a truncating policy")
    d = a.d
    carry = np.ones((1, 1, 1))  # (kept bond, a bond, b bond)
    cores = []
    discarded = 0.0
    for j in range(a.n):
        ca, cb = a.cores[j], b.cores[j]
        theta = np.einsum("kab,axyc,bytd->kxtcd", carry, ca, cb,
                          optimize=["einsum_path", (0, 1), (0, 1)])
        k = theta.shape[0]
        ra, rb = ca.shape[3], cb.shape[3]
        mat = theta.reshape(k * d * d, ra * rb)
        if j == a.n - 1:
            cores.append(mat.reshape(k, d, d, 1))
            break
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep, w = _split_rank(s, policy, mat.shape)
        discarded += w
        cores.append(u[:, :keep].reshape(k, d, d, keep))
        carry = (s[:keep, None] * vh[:keep]).reshape(keep, ra, rb)
    out, extra = compress(MPO(cores), policy)
    return out, discarded + extra


def product(a: MPO, b: MPO, policy: CompressionPolicy = CompressionPolicy(), *,
            max_bond: int = DEFAULT_MAX_BOND) -> tuple[MPO, float]:
    """Operator product a @ b under ``policy`` and its discarded weight.

    The exact :func:`multiply` under "none", else (tol=0 included) the
    zip-up :func:`multiply_compressed` of Stoudenmire & White, NJP 12,
    055026 (2010).
    """
    if policy.is_none:
        return multiply(a, b, max_bond=max_bond), 0.0
    return multiply_compressed(a, b, policy)


def power(a: MPO, q: int, policy: CompressionPolicy = CompressionPolicy(), *,
          max_bond: int = DEFAULT_MAX_BOND) -> tuple[MPO, float]:
    """q-th operator power under ``policy`` and its discarded weight.

    Square-and-multiply over the bits of q from the least significant,
    one :func:`product` per step: bit_length(q) - 1 squares and
    popcount(q) - 1 multiplications.  This is ``np.linalg.matrix_power``'s
    order except at q = 3, which numpy forms as (a a) a and this as
    a (a a).  Under "none" the bond profile is the elementwise q-th power.
    """
    if q < 1:
        raise ValueError(f"exponent must be a positive integer, got {q}")
    result, discarded = None, 0.0
    while q:
        if q & 1:
            result, w = (a, 0.0) if result is None else \
                product(result, a, policy, max_bond=max_bond)
            discarded += w
        q >>= 1
        if q:
            a, w = product(a, a, policy, max_bond=max_bond)
            discarded += w
    return result, discarded


# ---------------------------------------------------------------------------
# Hamiltonian MPOs (finite-state automaton layout)
# ---------------------------------------------------------------------------

_SRC = ("src",)
_SNK = ("snk",)


def hamiltonian_mpo(spec: HamiltonianSpec) -> MPO:
    """MPO of a Hamiltonian spec via a finite-state automaton layout.

    Explicit terms contribute one chain of states spanning their support;
    exponential pair channels contribute one decaying state per series term
    and distinct left operator, so the bond stays O(d^2) per series term
    instead of growing with the interaction range.  The interior bond is
    2 + (number of in-progress states per cut), always below the generic
    n**k * d**k cap.
    """
    basis = site_basis(spec.d)
    n, d = spec.n, spec.d
    # states per cut (0..n); interior cuts carry source and sink
    states: list[dict] = [dict() for _ in range(n + 1)]
    states[0][_SRC] = 0
    states[n][_SNK] = 0
    for c in range(1, n):
        states[c][_SRC] = 0
        states[c][_SNK] = 1

    def state_index(cut: int, key) -> int:
        if key not in states[cut]:
            states[cut][key] = len(states[cut])
        return states[cut][key]

    # edges[j] holds (left key, right key, d x d matrix) for site j (1-based)
    edges: list[list] = [[] for _ in range(n + 1)]
    eye = basis["I"]
    for j in range(1, n):
        edges[j].append((_SRC, _SRC, eye))
        edges[j + 1].append((_SNK, _SNK, eye))

    for t_idx, term in enumerate(spec.terms):
        if term.kernel_generated and spec.exp_channels is not None:
            continue  # encoded through decay channels below
        first, last = term.sites[0], term.sites[-1]
        op_at = {s: basis[name] for s, name in zip(term.sites, term.ops)}
        if first == last:
            edges[first].append((_SRC, _SNK, term.coefficient * op_at[first]))
            continue
        key = ("term", t_idx)
        for cut in range(first, last):
            state_index(cut, key)
        for site in range(first, last + 1):
            mat = op_at.get(site, eye)
            lkey = _SRC if site == first else key
            rkey = _SNK if site == last else key
            if site == first:
                mat = term.coefficient * mat
            edges[site].append((lkey, rkey, mat))

    if spec.exp_channels is not None and spec.pair_channels is not None:
        scale_j = 1.0 if spec.coupling is None else spec.coupling
        by_left: dict[str, list[tuple[str, float]]] = {}
        for op1, op2, w in spec.pair_channels:
            by_left.setdefault(op1, []).append((op2, scale_j * w))
        for s_idx, (w_s, rate) in enumerate(spec.exp_channels):
            damp = float(np.exp(-rate))
            for op1, rights in by_left.items():
                key = ("dec", s_idx, op1)
                for cut in range(1, n):
                    state_index(cut, key)
                closing = sum(cw * basis[op2] for op2, cw in rights)
                for site in range(1, n + 1):
                    if site < n:
                        edges[site].append((_SRC, key, w_s * damp * basis[op1]))
                    if site > 1:
                        edges[site].append((key, _SNK, closing))
                    if 1 < site < n:
                        edges[site].append((key, key, damp * eye))

    cores = []
    for j in range(1, n + 1):
        left, right = states[j - 1], states[j]
        w = np.zeros((len(left), d, d, len(right)), dtype=eye.dtype)
        for lkey, rkey, mat in edges[j]:
            if lkey in left and rkey in right:
                w[left[lkey], :, :, right[rkey]] += mat
        cores.append(w)
    return MPO(cores)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
#
# Byte layout (little endian), version 1:
#   0   4s  magic  b"GMPO"
#   4   u32 version (1)
#   8   u32 n
#   12  u32 d
#   16  u32 scalar kind (1 = complex128 pairs of float64)
#   20  u64 * (n+1)  bond profile including unit boundaries
#   ..  cores, site 1..n, row-major (left, d, d, right) complex128
#
# A real MPO is written with zero imaginary parts and reads back real;
# bytes -> arrays -> bytes is the identity on every container written here.

_MAGIC = b"GMPO"
_HEADER = struct.Struct("<4sIIII")


def mpo_to_bytes(a: MPO) -> bytes:
    parts = [_HEADER.pack(_MAGIC, 1, a.n, a.d, 1)]
    profile = a.bond_profile
    parts.append(struct.pack(f"<{len(profile)}Q", *profile))
    for core in a.cores:
        parts.append(np.ascontiguousarray(core, dtype=np.complex128).tobytes())
    return b"".join(parts)


def mpo_from_bytes(data: bytes) -> MPO:
    """Inverse of :func:`mpo_to_bytes`; anything else, truncated or padded
    containers included, raises ``ValueError`` before it is read."""
    if len(data) < _HEADER.size:
        raise ValueError("truncated MPO container")
    magic, version, n, d, scalar = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError("not an MPO container")
    if version != 1 or scalar != 1:
        raise ValueError(f"unsupported container version {version}/scalar {scalar}")
    off = _HEADER.size + 8 * (n + 1)
    if len(data) < off:
        raise ValueError("truncated MPO container")
    profile = struct.unpack_from(f"<{n + 1}Q", data, _HEADER.size)
    counts = [profile[j] * d * d * profile[j + 1] for j in range(n)]
    if off + 16 * sum(counts) != len(data):
        raise ValueError("MPO container size does not match its bond profile")
    cores = []
    for j, count in enumerate(counts):
        core = np.frombuffer(data, dtype=np.complex128, count=count, offset=off)
        cores.append(core.reshape(profile[j], d, d, profile[j + 1]).copy())
        off += count * 16
    return MPO(cores)


def save_mpo(a: MPO, path) -> None:
    with open(path, "wb") as fh:
        fh.write(mpo_to_bytes(a))


def load_mpo(path) -> MPO:
    with open(path, "rb") as fh:
        return mpo_from_bytes(fh.read())
