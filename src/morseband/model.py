"""Physical parameters, quantum numbers, spectrum, and degeneracy analysis.

The model lives on a band that is infinite in x and periodic in y, in a
magnetic field that decays exponentially with x. Bound levels carry two
integers (l, n) with 0 <= l <= n - 1; their energies are set by the odd
integer product (2n - 2l - 1)(2n + 2l + 1) alone, which makes exact
integer arithmetic the right tool for every degeneracy question: two
levels collide exactly when their products collide, and no floating
point tolerance enters.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, CrossCheckError, DomainError, RangeError

__all__ = [
    "PhysParams",
    "QuantumNumbers",
    "DegeneracyReport",
    "DegeneracyTable",
    "energy",
    "spectrum_product",
    "degeneracy_scan",
    "landau_energy",
    "landau_a0",
    "landau_limit_error",
]


@dataclass(frozen=True)
class PhysParams:
    """Immutable parameter record, CGS-Gaussian units.

    Attributes
    ----------
    B0 : field strength scale at x = 0 (gauss), > 0.
    a0 : band width and decay length of the field (cm), > 0.
    mu : effective mass (g), > 0.
    hbar : erg s.
    c : cm/s.
    e : carrier charge (esu), < 0 for an electron.
    """

    B0: float
    a0: float
    mu: float
    hbar: float
    c: float
    e: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"PhysParams.{f.name} must be finite, got {value!r}")
        for name in ("B0", "a0", "mu", "hbar", "c"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"PhysParams.{name} must be positive, got {getattr(self, name)!r}")
        if not self.e < 0.0:
            raise DomainError(f"PhysParams.e must be negative (electron), got {self.e!r}")
        # so must every derived scale (a0 = 1e300 overflows a0**2, mu = 1e-320 makes
        # every energy inf); a finite beta holds a0 below 1.4e154, so x_weight_mode is finite
        scales = {
            "beta": lambda: self.beta,
            "kappa": lambda: self.kappa,
            "energy_scale": lambda: self.energy_scale,
            "hbar |e| B0 / (mu c)": lambda: self.hbar * abs(self.e) * self.B0 / (self.mu * self.c),
            "cyclotron radius": lambda: math.sqrt(self.hbar * self.c / (abs(self.e) * self.B0)),
        }
        for name, scale in scales.items():
            try:
                value = scale()
            except (OverflowError, ZeroDivisionError):
                value = math.inf
            if not 0.0 < value < math.inf:
                raise DomainError(f"PhysParams: {name} must be a finite positive double, got {value!r}")

    @property
    def beta(self) -> float:
        """Dimensionless field strength, -e B0 a0^2 / (2 pi^2 hbar c) > 0."""
        return -self.e * self.B0 * self.a0**2 / (2.0 * math.pi**2 * self.hbar * self.c)

    @property
    def kappa(self) -> float:
        """Inverse length 2 pi / a0 that sets every exponential in the model."""
        return 2.0 * math.pi / self.a0

    @property
    def energy_scale(self) -> float:
        """Energy per unit of spectrum product, pi^2 hbar^2 / (2 mu a0^2)."""
        return math.pi**2 * self.hbar**2 / (2.0 * self.mu * self.a0**2)

    @property
    def x_weight_mode(self) -> float:
        """x where the measure weight e^(kappa x - beta e^(-kappa x)) peaks slope-free."""
        return math.log(self.beta) / self.kappa

    @classmethod
    def natural(cls, B0: float = 1.0) -> "PhysParams":
        """Unit system hbar = c = mu = 1, e = -1, a0 = 2 pi, so beta = 2 B0."""
        return cls(B0=B0, a0=2.0 * math.pi, mu=1.0, hbar=1.0, c=1.0, e=-1.0)

    @classmethod
    def from_mapping(cls, data: dict) -> "PhysParams":
        """Build from a config mapping; unspecified fields take natural-unit values."""
        base = cls.natural()
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown parameter names: {sorted(unknown)}")
        try:
            updates = {k: float(v) for k, v in data.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"parameter values must be numbers: {exc}") from exc
        return replace(base, **updates)


@dataclass(frozen=True, order=True)
class QuantumNumbers:
    """Level labels: l >= 0 and n >= l + 1. N = n - l - 1 counts the level
    within the oblique family that shares its Landau-limit index."""

    l: int
    n: int

    def __post_init__(self) -> None:
        if self.l != int(self.l) or self.n != int(self.n):
            raise DomainError(f"quantum numbers must be integers, got l={self.l!r}, n={self.n!r}")
        if self.l < 0 or self.n < self.l + 1:
            raise DomainError(
                f"square integrability needs 0 <= l <= n-1, got l={self.l}, n={self.n}"
            )

    @property
    def N(self) -> int:
        return self.n - self.l - 1


@dataclass(frozen=True)
class DegeneracyReport:
    """All levels sharing one odd spectrum product."""

    product: int
    states: tuple[QuantumNumbers, ...]
    multiplicity: int = field(init=False)

    def __post_init__(self) -> None:
        if self.product % 2 == 0 or self.product < 3:
            raise DomainError(f"spectrum products are odd integers >= 3, got {self.product!r}")
        if not self.states:
            raise DomainError("a degeneracy report needs at least one state")
        for q in self.states:
            if spectrum_product(q) != self.product:
                raise DomainError(f"state {q} does not produce {self.product}")
        object.__setattr__(self, "multiplicity", len(self.states))


def spectrum_product(q: QuantumNumbers) -> int:
    """The odd integer (2n - 2l - 1)(2n + 2l + 1) that fixes the energy."""
    return (2 * q.n - 2 * q.l - 1) * (2 * q.n + 2 * q.l + 1)


def energy(q: QuantumNumbers, p: PhysParams) -> float:
    """Bound-level energy, strictly positive and independent of B0.

    Computed as the exact integer spectrum product times the single scale
    ``p.energy_scale``; degenerate levels therefore come out bit-identical,
    and B0 never enters.
    """
    return _representable(spectrum_product(q) * p.energy_scale)


def _representable(energies):
    """The energies (a float or an array), refused with RangeError if one overflowed."""
    if not np.all(np.isfinite(energies)):
        raise RangeError("level energies overflow for these parameters")
    return energies


# Largest n_max whose largest product 4 n_max^2 - 1 is below 1e7.
_SCAN_N_MAX = 1581


@dataclass(frozen=True, eq=False)
class DegeneracyTable:
    """Every level with n <= n_max, grouped by its spectrum product.

    ``products`` and ``multiplicities`` hold one entry per class, by
    increasing product. ``l`` and ``n`` hold every level, class after
    class, each class by increasing l. All four are read-only int32
    arrays. Iterating yields one validated DegeneracyReport per class.
    """

    products: np.ndarray
    multiplicities: np.ndarray
    l: np.ndarray
    n: np.ndarray

    def __len__(self) -> int:
        return self.products.size

    def __iter__(self) -> Iterator[DegeneracyReport]:
        levels = list(map(QuantumNumbers, self.l.tolist(), self.n.tolist()))
        end = 0
        for product, count in zip(self.products.tolist(), self.multiplicities.tolist()):
            end += count
            yield DegeneracyReport(product=product, states=tuple(levels[end - count : end]))


def _level_arrays(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """l, n and the spectrum product of every level with n <= n_max, in
    (n, l) order, as int32: the largest product 4 n_max^2 - 1 is below 1e7."""
    n = np.repeat(np.arange(1, n_max + 1, dtype=np.int32), np.arange(1, n_max + 1))
    l = np.arange(n.size, dtype=np.int32) - n * (n - 1) // 2
    return l, n, (2 * n - 2 * l - 1) * (2 * n + 2 * l + 1)


def _divisor_census(n_max: int) -> np.ndarray:
    """Entry i counts the factor pairs a * b = 4i + 3 with odd a < b and
    a + b = 4n for some n <= n_max, up to m = 4 n_max^2 - 1.

    Every such pair is one level, (l, n) = ((b - a - 2)/4, (a + b)/4), and
    every product of two odd numbers whose sum is divisible by 4 is
    3 (mod 4), so only those m get an entry. For each odd a the partners
    are b = a + 2, a + 6, ... up to 4 n_max - a, whose products step by 4a:
    one strided slice of the census each. The level formula never enters.
    """
    top = 4 * n_max * n_max - 1
    census = np.zeros((top - 3) // 4 + 1, np.int32)
    for a in range(1, math.isqrt(top) + 1, 2):
        start = (a * (a + 2) - 3) // 4
        census[start : start + a * (n_max - (a - 1) // 2) : a] += 1
    return census


def degeneracy_scan(n_max: int) -> DegeneracyTable:
    """Group every level with n <= n_max by its exact spectrum product.

    The levels are sorted by (product, l) in one array pass, and the
    multiplicities are cross-checked against an independent census of
    divisor pairs (``_divisor_census``) over every odd m up to
    4 n_max^2 - 1, not only at the products found, so a level missing
    from the scan or counted twice, or a bug in either route, raises
    CrossCheckError. n_max is capped at 1581, the largest n whose largest
    product 4n^2 - 1 stays below 1e7: that keeps every product an int32
    and bounds the census to 2.5e6 entries (about 10 MB).
    """
    if not 1 <= n_max <= _SCAN_N_MAX:
        raise DomainError(f"degeneracy_scan requires 1 <= n_max <= {_SCAN_N_MAX}, got {n_max!r}")
    # each temporary is freed before the next is allocated, which keeps
    # the peak at the cap near 44 MiB
    l, n, product = _level_arrays(n_max)
    order = np.lexsort((l, product))
    l, n, product = l[order], n[order], product[order]
    del order
    products, counts = np.unique(product, return_counts=True)
    del product
    census = _divisor_census(n_max)
    # the census has no entry for m = 1 (mod 4) or outside [3, top]: a
    # scanned product there disagrees with the census's zero
    outside = (products % 4 != 3) | (products < 3) | (products > 4 * census.size - 1)
    if outside.any():
        raise CrossCheckError(
            f"degeneracy cross-check failed at product {products[outside][0]}: scan found "
            f"{counts[outside][0]} states, divisor pairs predict 0"
        )
    scanned = np.zeros_like(census)
    scanned[(products - 3) // 4] = counts
    wrong = np.flatnonzero(scanned != census)
    if wrong.size:
        i = wrong[0]
        raise CrossCheckError(
            f"degeneracy cross-check failed at product {4 * i + 3}: scan found "
            f"{scanned[i]} states, divisor pairs predict {census[i]}"
        )
    arrays = (products, counts.astype(np.int32), l, n)
    for a in arrays:
        a.flags.writeable = False
    return DegeneracyTable(*arrays)


def landau_energy(N: int, p: PhysParams) -> float:
    """Landau level energy hbar |e| B0 / (mu c) * (N + 1/2)."""
    if N < 0:
        raise DomainError(f"landau_energy requires N >= 0, got {N!r}")
    return _representable(p.hbar * abs(p.e) * p.B0 / (p.mu * p.c) * (N + 0.5))


def landau_a0(l: int, p: PhysParams) -> float:
    """Band width 2 pi sqrt(hbar c l / |e| B0) that tunes level l onto the
    Landau scale; growing l at this width flattens the field across the
    occupied region."""
    if l < 1:
        raise DomainError(f"landau_a0 requires l >= 1, got {l!r}")
    return 2.0 * math.pi * math.sqrt(p.hbar * p.c * l / (abs(p.e) * p.B0))


def landau_limit_error(N: int, l: int, p_base: PhysParams) -> float:
    """Relative gap between level (l, l+N+1) at the tuned width and the
    N-th Landau level. Algebraically equal to (2N + 3) / (4 l)."""
    if l < 1:
        raise DomainError(f"landau_limit_error requires l >= 1, got {l!r}")
    if N < 0:
        raise DomainError(f"landau_limit_error requires N >= 0, got {N!r}")
    p = replace(p_base, a0=landau_a0(l, p_base))
    target = landau_energy(N, p)
    return abs(energy(QuantumNumbers(l, l + N + 1), p) - target) / target

