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
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError, DomainError

__all__ = [
    "PhysParams",
    "QuantumNumbers",
    "DegeneracyReport",
    "energy",
    "spectrum_product",
    "degeneracy_scan",
    "is_prime",
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

    @property
    def beta(self) -> float:
        """Dimensionless field strength, -e B0 a0^2 / (2 pi^2 hbar c) > 0."""
        return -self.e * self.B0 * self.a0**2 / (2.0 * math.pi**2 * self.hbar * self.c)

    @property
    def kappa(self) -> float:
        """Inverse length 2 pi / a0 that sets every exponential in the model."""
        return 2.0 * math.pi / self.a0

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
    pi^2 hbar^2 / (2 mu a0^2); degenerate levels therefore come out
    bit-identical, and B0 never enters.
    """
    scale = math.pi**2 * p.hbar**2 / (2.0 * p.mu * p.a0**2)
    return spectrum_product(q) * scale


def is_prime(m: int) -> bool:
    """Trial-division primality, ample for the scan range (products < 1e7)."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def _factor_pair_count(product: int, n_max: int) -> int:
    """Count factorizations product = a*b (odd, b > a or b = a, a + b divisible
    by 4) whose level (l, n) = ((b-a-2)/4, (a+b)/4) fits the scan window."""
    count = 0
    a = 1
    while a * a <= product:
        if product % a == 0:
            b = product // a
            if (a + b) % 4 == 0:
                n = (a + b) // 4
                l = (b - a - 2) // 4
                if 1 <= n <= n_max and 0 <= l <= n - 1:
                    count += 1
        a += 2
    return count


# Largest n_max whose largest product 4 n_max^2 - 1 is below 1e7.
_SCAN_N_MAX = 1581


def degeneracy_scan(n_max: int) -> list[DegeneracyReport]:
    """Group every level with n <= n_max by its exact spectrum product.

    Returns reports sorted by product. Each grouping is cross-checked
    against an independent divisor-pair count of the product, so a bug in
    either route cannot pass silently. n_max is capped at 1581, the largest
    n whose largest product 4n^2 - 1 stays below 1e7; the scan's cost grows
    about as n^2.7, so a larger request is refused before any work is done.
    """
    if not 1 <= n_max <= _SCAN_N_MAX:
        raise DomainError(f"degeneracy_scan requires 1 <= n_max <= {_SCAN_N_MAX}, got {n_max!r}")
    groups: dict[int, list[QuantumNumbers]] = {}
    for n in range(1, n_max + 1):
        for l in range(n):
            q = QuantumNumbers(l, n)
            groups.setdefault(spectrum_product(q), []).append(q)
    reports = []
    for product in sorted(groups):
        states = tuple(sorted(groups[product]))
        expected = _factor_pair_count(product, n_max)
        if expected != len(states):
            raise AssertionError(
                f"degeneracy cross-check failed at product {product}: scan found "
                f"{len(states)} states, divisor pairs predict {expected}"
            )
        reports.append(DegeneracyReport(product=product, states=states))
    return reports


def landau_energy(N: int, p: PhysParams) -> float:
    """Landau level energy hbar |e| B0 / (mu c) * (N + 1/2)."""
    if N < 0:
        raise DomainError(f"landau_energy requires N >= 0, got {N!r}")
    return p.hbar * abs(p.e) * p.B0 / (p.mu * p.c) * (N + 0.5)


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

