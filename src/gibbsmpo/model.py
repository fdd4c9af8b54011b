"""Hamiltonian specifications for 1D long-range interacting spin chains.

A Hamiltonian is a list of local terms, each a real coefficient times a
tensor product of unit-norm single-site basis operators.  Because every
basis factor has operator norm exactly 1, the operator norm of a term
equals the magnitude of its coefficient, which makes the extensivity
constant and the boundary-interaction bound exact rather than estimated.
Sites are 1-indexed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


DEFAULT_DENSE_CAP = 4096  # 2**12 states, n = 12 qubits


class DenseCapError(RuntimeError):
    """Requested dense operation exceeds the configured state cap."""


# ---------------------------------------------------------------------------
# single-site operator bases
# ---------------------------------------------------------------------------

def site_basis(d: int) -> dict[str, np.ndarray]:
    """Unit-operator-norm basis of d x d Hermitian matrices (d^2 elements).

    For qubits this is {I, X, Y, Z}.  For d > 2 the off-diagonal elements
    are the symmetric/antisymmetric pair matrices (eigenvalues +-1) and the
    diagonal ones are the traceless diagonal family rescaled so the largest
    eigenvalue magnitude is 1.
    """
    return dict(_site_basis_cached(d))


@lru_cache(maxsize=None)
def _site_basis_cached(d: int) -> tuple[tuple[str, np.ndarray], ...]:
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    ops: list[tuple[str, np.ndarray]] = [("I", np.eye(d, dtype=complex))]
    if d == 2:
        ops += [
            ("X", np.array([[0, 1], [1, 0]], dtype=complex)),
            ("Y", np.array([[0, -1j], [1j, 0]], dtype=complex)),
            ("Z", np.array([[1, 0], [0, -1]], dtype=complex)),
        ]
    else:
        for j in range(d):
            for k in range(j + 1, d):
                sym = np.zeros((d, d), dtype=complex)
                sym[j, k] = sym[k, j] = 1.0
                ops.append((f"S{j}{k}", sym))
                asym = np.zeros((d, d), dtype=complex)
                asym[j, k] = -1j
                asym[k, j] = 1j
                ops.append((f"A{j}{k}", asym))
        for l in range(1, d):
            diag = np.zeros(d)
            diag[:l] = 1.0
            diag[l] = -float(l)
            ops.append((f"D{l}", np.diag(diag / l).astype(complex)))
    if d <= 4:
        # unit-norm invariant is cheap to check densely at these sizes
        for name, op in ops:
            nrm = np.linalg.norm(op, ord=2)
            if abs(nrm - 1.0) > 1e-12:
                raise AssertionError(f"basis element {name} has norm {nrm}")
    for _, op in ops:
        op.flags.writeable = False
    return tuple(ops)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Interval:
    """Inclusive range [lo, hi] of 1-indexed sites."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, site: int) -> bool:
        return self.lo <= site <= self.hi

    def sites(self) -> range:
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class LocalTerm:
    """coefficient * P_{sites[0]} x P_{sites[1]} x ... with unit-norm factors.

    ``kernel_generated`` marks pair terms materialized from an exponential
    kernel; the MPO builder encodes those through decay channels instead of
    per-term automaton chains.
    """

    sites: tuple[int, ...]
    coefficient: float
    ops: tuple[str, ...]
    kernel_generated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        object.__setattr__(self, "ops", tuple(self.ops))
        # a Hermitian term needs a real coefficient: the dense oracle's eigh
        # and the eigenbasis merge assume a Hermitian Hamiltonian
        if np.iscomplexobj(self.coefficient):
            raise ValueError(f"coefficient must be real, got {self.coefficient!r}")
        object.__setattr__(self, "coefficient", float(self.coefficient))
        if not math.isfinite(self.coefficient):
            raise ValueError(f"coefficient must be finite, got {self.coefficient}")
        if len(self.sites) != len(self.ops):
            raise ValueError("one operator name per site is required")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError(f"repeated sites in {self.sites}")
        if any(b < a for a, b in zip(self.sites, self.sites[1:])):
            raise ValueError(f"sites must be ascending, got {self.sites}")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Immutable description of a k-local chain Hamiltonian.

    ``pair_channels`` lists the 2-local coupling channels (op, op', weight)
    of a translation-invariant pairwise model; ``alpha`` is the power-law
    decay exponent and ``coupling`` its overall scale J, so the pair at
    distance r carries J * weight / r**alpha.  ``exp_channels`` holds the
    (weight, rate) pairs of an exponential-kernel replacement, in which case
    the pair coefficient at distance r is sum_c w_c * exp(-rate_c * r) per
    channel weight instead of the power law.
    """

    n: int
    d: int
    k: int
    terms: tuple[LocalTerm, ...]
    alpha: float | None = None
    coupling: float | None = None
    pair_channels: tuple[tuple[str, str, float], ...] | None = None
    exp_channels: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one site, got n={self.n}")
        if self.k < 1:
            raise ValueError(f"locality must be >= 1, got k={self.k}")
        basis = site_basis(self.d)
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if len(t.sites) > self.k:
                raise ValueError(f"term on {t.sites} exceeds locality k={self.k}")
            if t.sites[0] < 1 or t.sites[-1] > self.n:
                raise ValueError(f"term sites {t.sites} outside [1, {self.n}]")
            for name in t.ops:
                if name not in basis:
                    raise ValueError(f"unknown operator {name!r} for d={self.d}")

    def pair_weight_sum(self) -> float:
        """Sum of |J * weight| over the pairwise channels (J-bar)."""
        if self.pair_channels is None:
            return 0.0
        scale = 1.0 if self.coupling is None else abs(self.coupling)
        return scale * sum(abs(w) for _, _, w in self.pair_channels)


# ---------------------------------------------------------------------------
# operations on specs
# ---------------------------------------------------------------------------

def subset_hamiltonian(spec: HamiltonianSpec, region: Interval) -> HamiltonianSpec:
    """Spec containing exactly the terms supported inside ``region``.

    Site count and metadata are unchanged; an empty selection represents the
    zero Hamiltonian.
    """
    if region.hi > spec.n:
        raise ValueError(f"region {region} outside chain of n={spec.n}")
    kept = tuple(t for t in spec.terms if t.sites[0] >= region.lo and t.sites[-1] <= region.hi)
    return replace(spec, terms=kept)


def boundary_interaction(spec: HamiltonianSpec, cut: int) -> HamiltonianSpec:
    """Terms crossing the cut between sites ``cut`` and ``cut + 1``.

    Together with the two one-sided subset Hamiltonians this reproduces the
    input term-by-term: H = H_A + H_B + boundary.
    """
    if not 1 <= cut < spec.n:
        raise ValueError(f"cut must satisfy 1 <= cut < n={spec.n}, got {cut}")
    kept = tuple(t for t in spec.terms if t.sites[0] <= cut < t.sites[-1])
    return replace(spec, terms=kept)


def extensivity_constant(spec: HamiltonianSpec) -> float:
    """Largest summed coefficient magnitude over terms containing one site."""
    per_site = np.zeros(spec.n + 1)
    for t in spec.terms:
        for s in t.sites:
            per_site[s] += abs(t.coefficient)
    return float(per_site.max())


def boundary_bound(spec: HamiltonianSpec) -> float:
    """Exact bound on the boundary-interaction norm, maximized over cuts.

    Returns max_cut sum of |coefficient| over crossing terms, which upper
    bounds the operator norm of every boundary interaction of the chain.
    When power-law metadata is present the result is checked against the
    closed-form bound from :func:`power_law_boundary_bound`.
    """
    if spec.n == 1:
        return 0.0
    best = 0.0
    for cut in range(1, spec.n):
        tot = sum(abs(t.coefficient) for t in spec.terms if t.sites[0] <= cut < t.sites[-1])
        best = max(best, tot)
    if spec.alpha is not None and spec.alpha > 2 and spec.pair_channels is not None \
            and spec.exp_channels is None:
        analytic = power_law_boundary_bound(spec.alpha, spec.pair_weight_sum())
        if best > analytic * (1 + 1e-12):
            raise AssertionError(
                f"measured boundary bound {best} exceeds analytic bound {analytic}")
    return best


def power_law_boundary_bound(alpha: float, j_total: float) -> float:
    """Cut-independent boundary bound J * zeta(alpha - 1) for decay r**-alpha.

    Summing the pairwise bound J/r**alpha over all pairs that straddle a cut
    groups into r pairs at distance r, giving J * sum_r r**(1-alpha).  The
    series only converges for alpha > 2.  zeta is evaluated in-house by
    :func:`riemann_zeta`.  The bound is a consistency check on the measured
    max-cut sum of :func:`boundary_bound`, which is the value every budget
    uses.
    """
    if alpha <= 2:
        raise ValueError(
            f"no finite cut-independent boundary bound for alpha={alpha} <= 2")
    return float(j_total * riemann_zeta(alpha - 1.0))


# B_2j / (2j)! for j = 1..8: the Euler-Maclaurin corrections of riemann_zeta
_ZETA_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                   -691 / 1307674368000, 1 / 74724249600,
                   -3617 / 10670622842880000)
_ZETA_DIRECT = 12


def riemann_zeta(s: float) -> float:
    """Riemann zeta(s) for real s > 1, by Euler-Maclaurin summation.

    zeta(s) = sum_{k<N} k**-s + N**(1-s)/(s-1) + N**-s/2
              + sum_j B_2j/(2j)! * s(s+1)...(s+2j-2) * N**(1-s-2j)
    with N = 12 and 8 Bernoulli corrections; the omitted remainder is below
    1e-18 relative for every s > 1, and the terms are added by
    ``math.fsum``.  For s >= 54, zeta(s) - 1 < 2**-53 is under half an ulp
    of 1.0, so exactly 1.0 is returned (also for s = inf, where the
    corrections would form inf * 0).
    """
    s = float(s)
    if not s > 1.0:
        raise ValueError(f"zeta(s) needs real s > 1, got s={s}")
    if s >= 54.0:
        return 1.0
    n = _ZETA_DIRECT
    terms = [k ** -s for k in range(1, n)]
    terms += [n ** (1.0 - s) / (s - 1.0), 0.5 * n ** -s]
    rising, power = s, n ** (-s - 1.0)
    for j, coeff in enumerate(_ZETA_BERNOULLI, start=1):
        terms.append(coeff * rising * power)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= n * n
    return math.fsum(terms)


def dense_matrix(spec: HamiltonianSpec,
                 cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense d**n x d**n matrix of the spec (oracle support).

    Each site operator is a sum of shifted diagonals (:func:`_site_shifts`),
    so a term is a few pairs of a shift pattern c and a real or imaginary
    value per row: row r's entry sits in column r + sum_s ((r_s + c_s) mod
    d - r_s) d**(n-s), r_s its digit at site s, and is the coefficient
    times the site factors in site order.  Pairs with the same pattern
    fill the same entries: their real and imaginary parts are summed row
    by row in term order and scattered once per pattern, so the result
    equals the sum of the terms' Kronecker chains exactly.  It is float64
    when no entry has a nonzero imaginary part (Y (x) Y terms included),
    else complex128; a real Hamiltonian peaks at its own size.

    Raises :class:`DenseCapError` beyond ``cap`` states.
    """
    n, d = spec.n, spec.d
    dim = d ** n
    if dim > cap:
        raise DenseCapError(f"dense dimension {dim} exceeds cap {cap}")
    digits, offsets, diag = _chain_index(d, n)
    factors = {}  # (site, op) -> (pattern part, phase, value in each row)
    parts = {}    # shift pattern -> real and imaginary row sums
    for t in spec.terms:
        per_site = []
        for f in zip(t.sites, t.ops):
            if f not in factors:
                s, name = f
                factors[f] = [(((s, c),) if c else (), p, w[digits[s - 1]])
                              for c, p, w in _site_shifts(d)[name]]
            per_site.append(factors[f])
        for pairs in itertools.product(*per_site):
            key, phase, val = (), 0, t.coefficient
            for at, p, v in pairs:  # the pair's value is i**phase val
                key, phase, val = key + at, phase + p, val * v
            if key not in parts:
                parts[key] = (np.zeros(dim), np.zeros(dim))
            acc = parts[key][phase % 2]
            if phase % 4 < 2:
                acc += val
            else:
                acc -= val
    imag = any(im.any() for _, im in parts.values())
    out = np.zeros((dim, dim), dtype=complex if imag else float)
    for key, (re, im) in parts.items():
        index = diag + sum(offsets[c - 1, s - 1] for s, c in key)
        out.reshape(-1)[index] = re + 1j * im if imag else re
    return out


@lru_cache(maxsize=16)
def _chain_index(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``digits[s - 1, r]`` = r_s, ``offsets[c - 1, s - 1, r]`` = ((r_s +
    c) mod d - r_s) d**(n-s) and ``diag[r]``, the flat index of (r, r)."""
    digits = np.indices((d,) * n).reshape(n, d ** n)
    shift = np.arange(1, d)[:, None, None]
    offsets = (shift - d * (digits >= d - shift)) * d ** np.arange(n)[::-1, None]
    diag = np.arange(d ** n) * (d ** n + 1)
    for arr in (digits, offsets, diag):
        arr.flags.writeable = False
    return digits, offsets, diag


@lru_cache(maxsize=None)
def _site_shifts(d: int) -> dict[str, list[tuple[int, int, np.ndarray]]]:
    """Each basis operator's nonzero shifted diagonals (c, p, w), w real:
    op[r, (r + c) mod d] = i**p w[r].  For qubits these are X's flip and
    Z's phase.  Each is purely real or purely imaginary (checked here),
    which :func:`dense_matrix`'s real/imaginary split rests on."""
    rows = np.arange(d)
    out = {}
    for name, op in _site_basis_cached(d):
        out[name] = []
        for c in range(d):
            v = op[rows, (rows + c) % d]
            p = int(v.imag.any())
            if p and v.real.any():
                raise AssertionError(f"shift {c} of {name} is not real or imaginary")
            w = (v.imag if p else v.real).copy()
            w.flags.writeable = False
            if w.any():
                out[name].append((c, p, w))
    return out


def spec_digest(spec: HamiltonianSpec) -> str:
    """Short stable fingerprint of a spec's full term content."""
    payload = repr((spec.n, spec.d, spec.k, spec.terms, spec.alpha,
                    spec.coupling, spec.pair_channels, spec.exp_channels))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def restrict(spec: HamiltonianSpec, region: Interval) -> HamiltonianSpec:
    """Subset Hamiltonian re-indexed to live on ``len(region)`` local sites."""
    sub = subset_hamiltonian(spec, region)
    shift = region.lo - 1
    terms = tuple(
        replace(t, sites=tuple(s - shift for s in t.sites)) for t in sub.terms
    )
    return replace(sub, n=len(region), terms=terms)


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

def _pairwise_terms(n: int, channels, coeff_of_r, kernel_generated=False):
    terms = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            base = coeff_of_r(j - i)
            for op1, op2, w in channels:
                c = base * w
                if c != 0.0:
                    terms.append(LocalTerm((i, j), c, (op1, op2),
                                           kernel_generated=kernel_generated))
    return terms


def power_law_ising(n: int, alpha: float, coupling: float = 1.0,
                    transverse_field: float = 0.5) -> HamiltonianSpec:
    """ZZ chain with couplings J/r**alpha plus a transverse X field."""
    fields = [("X", transverse_field)] if transverse_field != 0.0 else []
    return power_law_pairwise(n, alpha, [("Z", "Z", 1.0)], coupling, fields)


def power_law_heisenberg(n: int, alpha: float, coupling: float = 1.0) -> HamiltonianSpec:
    """Isotropic XX+YY+ZZ chain with couplings J/r**alpha."""
    return power_law_pairwise(
        n, alpha, [("X", "X", 1.0), ("Y", "Y", 1.0), ("Z", "Z", 1.0)],
        coupling)


def nearest_neighbor_ising(n: int, coupling: float = 1.0,
                           transverse_field: float = 0.5) -> HamiltonianSpec:
    """Short-range baseline: ZZ on adjacent sites plus a transverse field."""
    terms = [LocalTerm((i, i + 1), coupling, ("Z", "Z")) for i in range(1, n)]
    terms += [LocalTerm((i,), transverse_field, ("X",)) for i in range(1, n + 1)
              if transverse_field != 0.0]
    return HamiltonianSpec(n=n, d=2, k=2, terms=tuple(terms))


def power_law_pairwise(n: int, alpha: float, channels, coupling: float = 1.0,
                       fields=(), d: int = 2) -> HamiltonianSpec:
    """General pairwise power-law model with an explicit coupling matrix.

    ``channels`` lists (op, op', weight) entries of the pairwise coupling
    matrix; ``fields`` lists optional (op, coefficient) on-site terms
    applied to every site.  ``alpha`` must be finite (``ValueError``).
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    chan = tuple((str(a), str(b), float(w)) for a, b, w in channels)
    terms = _pairwise_terms(n, chan, lambda r: coupling * r ** (-alpha))
    for op, coeff in fields:
        terms += [LocalTerm((i,), float(coeff), (str(op),))
                  for i in range(1, n + 1)]
    return HamiltonianSpec(n=n, d=d, k=2, terms=tuple(terms), alpha=alpha,
                           coupling=coupling, pair_channels=chan)


_MODEL_BUILDERS = {
    "power_law_ising": (power_law_ising, {"n", "alpha", "coupling", "transverse_field"}),
    "power_law_heisenberg": (power_law_heisenberg, {"n", "alpha", "coupling"}),
    "power_law_pairwise": (power_law_pairwise,
                           {"n", "alpha", "channels", "coupling", "fields", "d"}),
    "nearest_neighbor_ising": (nearest_neighbor_ising, {"n", "coupling", "transverse_field"}),
}


# ---------------------------------------------------------------------------
# configuration ingestion
# ---------------------------------------------------------------------------

def spec_from_config(cfg: dict) -> HamiltonianSpec:
    """Build a spec from a configuration mapping.

    Either ``{"name": <builtin>, ...params}`` or an explicit term list
    ``{"name": "terms", "n": ..., "d": ..., "k": ..., "terms": [...]}``.
    Unknown keys are rejected.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"model config must be a mapping, got {type(cfg).__name__}")
    cfg = dict(cfg)
    name = cfg.pop("name", None)
    if name is None:
        raise ConfigError("model config requires a 'name' key")
    if name == "terms":
        allowed = {"n", "d", "k", "terms"}
        unknown = set(cfg) - allowed
        if unknown:
            raise ConfigError(f"unknown model keys: {sorted(unknown)}")
        try:
            raw_terms = cfg.pop("terms")
            terms = tuple(
                LocalTerm(tuple(t["sites"]), float(t["coefficient"]), tuple(t["ops"]))
                for t in raw_terms
            )
            return HamiltonianSpec(n=int(cfg["n"]), d=int(cfg.get("d", 2)),
                                   k=int(cfg.get("k", max((len(t.sites) for t in terms), default=1))),
                                   terms=terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid explicit term model: {exc}") from exc
    if name not in _MODEL_BUILDERS:
        raise ConfigError(f"unknown model name {name!r}")
    builder, allowed = _MODEL_BUILDERS[name]
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys for model {name!r}: {sorted(unknown)}")
    try:
        return builder(**cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters for model {name!r}: {exc}") from exc


def load_spec(path) -> HamiltonianSpec:
    """Load a spec from a JSON file holding a model mapping."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return spec_from_config(cfg)
