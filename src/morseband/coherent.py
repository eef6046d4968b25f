"""Lowering-operator coherent states, their measure, and identity resolution.

For each angular family l there is a coherent state |Z> expanded over the
levels (l, l+N+1) with coefficients fixed by the lowering-operator
eigenvalue property. Two independent evaluations are provided:

* the defining series over eigenstates, and
* a closed form in J_{2l+1}(2s)/s^(2l+1) with s^2 = t = beta Z e^(-kappa(x+iy)).

For the integer order a = 2l+1 that ratio is even in s (J_a(-z) =
(-1)^a J_a(z)): it is an entire function of t, so the closed form carries
no branch cut, and the series over eigenstates stays the defining object.
The closed form sums that function as its power series in t where
|t| <= 1, and takes it from scipy's exponentially scaled J beyond.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .errors import DomainError
from .model import PhysParams, QuantumNumbers
from .quadrature import GridSpec, IntegrationResult, integrate_semi_infinite_u
from .specfun import bessel_i, bessel_k
from .states import SampledState, _Field, _frame, _grid_axes, wavefunction

__all__ = [
    "CoherentSpec",
    "AgreementReport",
    "default_truncation",
    "default_coherent_grid",
    "bg_coefficients",
    "bg_state_series",
    "bg_state_closed",
    "bg_measure_density",
    "radial_identity_integral",
    "identity_resolution_check",
    "series_closed_agreement",
]

_OMITTED_COEFF_LIMIT = 1e-14
# Terms of the closed form's Bessel series kept where |t| <= 1: at l = 0 the
# first omitted one, 1/(12! 13!), is below 2^-60, and smaller at larger l.
_SERIES_TERMS = 12
# Largest supported |Z|: at 2|Z| <= 700 the normalization's I_{2l+1}(2|Z|)
# is still a finite double even unscaled (I_1 overflows near 713).
_Z_MAX = 350.0


def default_truncation(l: int, Z: complex) -> int:
    """Series order beyond which coefficients are dead for this (l, Z)."""
    return max(30, math.ceil(6.0 * abs(Z)) + 2 * l)


def _ln_coeff_magnitude(l: int, r: float, N: int) -> float:
    """ln of the unnormalized coefficient magnitude r^N / sqrt(G(N+1) G(2l+N+2))."""
    if r == 0.0:
        return 0.0 if N == 0 else -math.inf
    return N * math.log(r) - 0.5 * (math.lgamma(N + 1.0) + math.lgamma(2 * l + N + 2.0))


@dataclass(frozen=True)
class CoherentSpec:
    """Labels of one coherent state: family l, eigenvalue Z, series order.

    ``truncation=None`` resolves to :func:`default_truncation`. The
    constructor refuses |Z| > 350 and any nonzero |Z| so small that the
    normalization's I_{2l+1}(2|Z|) underflows. It verifies that the first
    omitted series coefficient is at most 1e-14 of the largest retained
    one, so a spec that validates cannot silently drop weight.
    """

    l: int
    Z: complex
    truncation: int | None = None

    def __post_init__(self) -> None:
        if self.l < 0 or self.l != int(self.l):
            raise DomainError(f"l must be a non-negative integer, got {self.l!r}")
        z = complex(self.Z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError(f"Z must be finite, got {self.Z!r}")
        r = abs(z)
        if r > _Z_MAX:
            raise DomainError(f"|Z| must be <= {_Z_MAX}, got {r!r}")
        if r > 0.0 and bessel_i(2.0 * self.l + 1.0, 2.0 * r, scaled=True) < np.finfo(float).tiny:
            raise DomainError(
                f"|Z| = {r!r} is too small for l = {self.l}: I_{2 * self.l + 1}(2|Z|) underflows"
            )
        object.__setattr__(self, "Z", z)
        if self.truncation is None:
            object.__setattr__(self, "truncation", default_truncation(self.l, z))
        if self.truncation < 1:
            raise DomainError(f"truncation must be >= 1, got {self.truncation!r}")
        lns = [_ln_coeff_magnitude(self.l, r, N) for N in range(self.truncation + 1)]
        ln_omitted = _ln_coeff_magnitude(self.l, r, self.truncation + 1)
        if ln_omitted - max(lns) > math.log(_OMITTED_COEFF_LIMIT):
            raise DomainError(
                f"truncation {self.truncation} leaves a first omitted coefficient above "
                f"{_OMITTED_COEFF_LIMIT:.0e} of the largest retained one for |Z| = {r}"
            )


def default_coherent_grid(p: PhysParams) -> GridSpec:
    """Window for coherent-state sampling.

    The left edge sits where the Laguerre argument reaches about 50,
    beyond which high-order polynomial factors outgrow double range
    while the measure is already dead; the periodic direction carries
    128 samples because the series populates harmonics up to the
    truncation order.
    """
    x_c = p.x_weight_mode
    return GridSpec(x_c - 0.62 * p.a0, x_c + 5.0 * p.a0, 4096, 128)


def _ln_bessel_norm(l: int, r: float) -> float:
    """ln I_{2l+1}(2r), recovered from the scaled value e^(-2r) I_{2l+1}(2r)
    so that it stays finite for every supported |Z| = r."""
    return math.log(bessel_i(2.0 * l + 1.0, 2.0 * r, scaled=True)) + 2.0 * r


def bg_coefficients(spec: CoherentSpec) -> list[complex]:
    """Expansion coefficients c_N of |Z> over the levels (l, l+N+1).

    c_N = (|Z|^(l+1/2) / sqrt(I_{2l+1}(2|Z|))) Z^N / sqrt(G(N+1) G(2l+N+2)),
    assembled in log space with the exponentially scaled Bessel factor,
    so large |Z| cannot overflow. The list has truncation + 1 entries and
    satisfies sum |c_N|^2 = 1 up to the omitted tail.
    """
    l, z = spec.l, spec.Z
    r = abs(z)
    if r == 0.0:
        return [1.0 + 0.0j] + [0.0j] * spec.truncation
    ln_front = (l + 0.5) * math.log(r) - 0.5 * _ln_bessel_norm(l, r)
    phase = z / r
    out: list[complex] = []
    for N in range(spec.truncation + 1):
        magnitude = math.exp(ln_front + _ln_coeff_magnitude(l, r, N))
        out.append(magnitude * phase**N)
    return out


def bg_state_series(spec: CoherentSpec, p: PhysParams, grid: GridSpec) -> SampledState:
    """The coherent state as its defining sum over eigenstates. The level
    (l, l+N+1) is the one mode column -(l+N+1) mod ny, so the sum is its
    coefficient-times-profile columns; levels whose indices alias onto one
    column add up there, in the order of N."""
    coeffs = bg_coefficients(spec)
    k = np.unique([-(spec.l + N + 1) % grid.ny for N in range(len(coeffs))])
    modes = np.zeros((grid.nx, k.size), dtype=complex)
    for N, c in enumerate(coeffs):
        level = wavefunction(QuantumNumbers(spec.l, spec.l + N + 1), p, grid)
        modes[:, np.searchsorted(k, level.k[0])] += c * level.modes[:, 0]
    return replace(level, modes=modes, k=k, labels=None)


def bg_state_closed(spec: CoherentSpec, p: PhysParams, grid: GridSpec) -> SampledState:
    """Closed-form evaluation of the coherent state.

    With a = 2l+1 and s = sqrt(beta Z) e^(-kappa(x+iy)/2), the state is
    C e^(Z e^(-i kappa y) - (l+1) kappa (x+iy)) (beta |Z|)^(a/2) J_a(2s) / s^a,
    C = sqrt(2 pi a / I_a(2|Z|)) / a0. J_a(2s)/s^a is summed as its power
    series in t = s^2 where |t| <= 1 and taken from scipy's ``jve``
    beyond (:func:`_closed_rows`). The samples are transformed a block of
    rows at a time to the state's ny mode columns, and the state's
    ``values`` are those samples evaluated again. At Z = 0 the state
    reduces to the bottom level (l, l+1) exactly. A window reaching so far
    to the growing side that the state overflows raises RangeError.
    """
    field = _closed_field(spec, p, grid)
    return field.state() if isinstance(field, _Field) else field


def _closed_field(spec: CoherentSpec, p: PhysParams, grid: GridSpec) -> _Field | SampledState:
    """The closed form before its transform: the bottom level (l, l+1)
    itself at Z = 0, else the samples of :func:`_closed_rows`."""
    if spec.Z == 0:
        return replace(wavefunction(QuantumNumbers(spec.l, spec.l + 1), p, grid), labels=None)
    return _Field(grid, _closed_rows(spec, p, grid), _frame(grid, p).weight, p.a0)


def _closed_rows(spec: CoherentSpec, p: PhysParams, grid: GridSpec):
    """The closed form's samples on the grid, as a function of (a, b)
    giving rows a..b-1, for Z != 0.

    With t = s^2 = beta Z e^(-kappa(x+iy)), J_a(2s)/s^a is the entire
    function F(t) = sum_k (-t)^k / (k! (a+k)!) (DLMF 10.2.2): no branch
    decision survives into the numerics. |t| = beta |Z| e^(-kappa x)
    falls along x, and the rows split once, at one row index:

    * where |t| <= 1, F(t) = G(t)/a! with G(t) = sum_k (-t)^k / (k! (a+1)_k)
      summed by Horner over its first ``_SERIES_TERMS`` terms, and every
      other factor, -ln a! included, summed as one exponent
      ln C + (l+1/2) ln(beta |Z|) - ln a! - (l+1) kappa (x+iy) + Z e^(-i kappa y)
      before a single exp. J_a(2s) has no zero there, and the terms
      cancel by at most e^2;
    * where |t| > 1, on scipy's exponentially scaled value
      jve(a, 2s) = J_a(2s) e^(-|Im 2s|), with s^-a (s the root that
      enters J, so either root gives the exact value), e^|Im 2s| and every
      other factor summed as one exponent before a single exp.

    Each sample depends on its row's side of the split alone, so a row
    reads the same whichever block asks for it. A sample that overflows
    comes out non-finite; call under ``np.errstate(over="ignore",
    invalid="ignore")`` to hear no warning."""
    l, z = spec.l, spec.Z
    order = 2 * l + 1
    x, y = _grid_axes(grid, p.a0)
    kappa = p.kappa
    root = cmath.sqrt(p.beta * z)  # s at x = y = 0
    ln_c = 0.5 * math.log(2.0 * math.pi * order) - math.log(p.a0) - 0.5 * _ln_bessel_norm(l, abs(z))
    ln_beta_z = math.log(p.beta) + math.log(abs(z))
    # rows split..nx-1 have kappa x >= ln(beta |Z|), that is |t| <= 1
    split = int(np.count_nonzero(kappa * x < ln_beta_z))
    y_wave = np.exp(-1j * kappa * y)

    # (l + 1/2) ln(beta |Z|) - a ln(root): the moduli cancel
    ln_front = ln_c - 1j * order * cmath.phase(root)
    y_phase = np.exp(-0.5j * kappa * y)
    y_exponent = z * y_wave - 0.5j * kappa * y

    def bessel_rows(a: int, b: int) -> np.ndarray:
        xs = x[a:b]
        two_s = np.multiply.outer(2.0 * root * np.exp(-0.5 * kappa * xs), y_phase)
        values = np.add.outer(ln_front - 0.5 * kappa * xs, y_exponent)
        values += np.abs(two_s.imag)
        np.exp(values, out=values)
        values *= special.jve(order, two_s, out=two_s)
        return values

    ln_series = ln_c + (l + 0.5) * ln_beta_z - math.lgamma(order + 1.0)
    y_series = z * y_wave - 1j * (l + 1) * kappa * y
    # G's coefficients 1/(k! (a+1)_k) of (-t)^k
    coeffs = [1.0]
    for k in range(1, _SERIES_TERMS):
        coeffs.append(coeffs[-1] / (k * (order + k)))

    def series_rows(a: int, b: int) -> np.ndarray:
        xs = x[a:b]
        minus_t = np.multiply.outer(-p.beta * z * np.exp(-kappa * xs), y_wave)
        g = minus_t * coeffs[-1]
        g += coeffs[-2]
        for c in coeffs[-3::-1]:
            g *= minus_t
            g += c
        values = np.add.outer(ln_series - (l + 1) * kappa * xs, y_series)
        np.exp(values, out=values)
        values *= g
        return values

    def rows(a: int, b: int) -> np.ndarray:
        if b <= split:
            return bessel_rows(a, b)
        if a >= split:
            return series_rows(a, b)
        return np.concatenate((bessel_rows(a, split), series_rows(split, b)))

    return rows


def bg_measure_density(l: int, r: float) -> float:
    """Radial density of the identity-resolving measure, (2/pi)
    I_{2l+1}(2r) K_{2l+1}(2r) r; the angular part is flat.

    Computed from exponentially scaled Bessel factors, whose e^(+-2r)
    prefactors cancel exactly, so the product never overflows. Tends to
    1/(2 pi) as r grows. Supported for 0 < r <= 350, the range of |Z|
    that :class:`CoherentSpec` accepts; any other r raises DomainError.
    """
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l!r}")
    if not 0.0 < r <= _Z_MAX:
        raise DomainError(f"bg_measure_density requires 0 < r <= {_Z_MAX}, got {r!r}")
    nu = 2.0 * l + 1.0
    product = bessel_i(nu, 2.0 * r, scaled=True) * bessel_k(nu, 2.0 * r, scaled=True)
    return (2.0 / math.pi) * product * r


def radial_identity_integral(l: int, N: int) -> IntegrationResult:
    """int_0^inf r^p K_nu(2r) dr with p = 2l+2N+2 and nu = 2l+1, which the
    closed spectrum of moments fixes at G(N+1) G(2l+N+2) / 4.

    With u = 2r the integral is 2^-(p+1) int_0^inf u^(2N+1) e^-u
    [u^nu e^u K_nu(u)] du, a Gamma-weighted integral of a bracket that is
    smooth and finite on (0, inf), so :func:`integrate_semi_infinite_u`
    computes it; the value and error estimate are scaled by 2^-(p+1).

    Measured on l <= 60, N <= 8 against mpmath: every returned value is
    within 4e-15 relative, and every l <= 15 returns. The refusals are

    * RangeError where K_nu overflows at the engine's left cut
      u = e^(-38/(2N+2)): from l = 16 at N = 0, l = 27 at N = 1, 34 at
      N = 2, 40 at N = 3, and 44, 47, 50, 52, 54 at N = 4 .. 8.
    * ConvergenceError at l >= 42 for N >= 4, below those cells: u^nu
      overflows at the right cut u = e^8.5, and the engine refuses the
      non-finite sum.
    """
    if l < 0 or N < 0:
        raise DomainError(f"need l >= 0 and N >= 0, got l={l!r}, N={N!r}")
    nu = 2.0 * l + 1.0
    res = integrate_semi_infinite_u(lambda u: u**nu * bessel_k(nu, u, scaled=True), 2 * N + 1)
    scale = 2.0 ** -(2 * l + 2 * N + 3)
    return replace(res, value=res.value * scale, error_estimate=res.error_estimate * scale)


def identity_resolution_check(l: int, n_max: int) -> np.ndarray:
    """Deviation matrix M - 1 of the resolution of identity on the first
    n_max + 1 levels of family l.

    The angular integral is carried out exactly (it vanishes unless
    N = N', killing every off-diagonal entry), so the returned deviation
    is diagonal: M_NN = 4 R / (G(N+1) G(2l+N+2)) - 1 with R the radial
    integral; the normalizing Bessel factor of the coefficients cancels
    against the measure density identically. Supported for 0 <= l <= 15,
    where every radial integral with N <= 8 returns, and 0 <= n_max <= 8;
    anything else raises DomainError.
    """
    if l < 0 or l > 15:
        raise DomainError(f"identity_resolution_check supports 0 <= l <= 15, got {l!r}")
    if n_max < 0 or n_max > 8:
        raise DomainError(f"identity_resolution_check supports 0 <= n_max <= 8, got {n_max!r}")
    deviation = np.zeros((n_max + 1, n_max + 1))
    for N in range(n_max + 1):
        radial = radial_identity_integral(l, N).value.real
        target = 0.25 * math.exp(math.lgamma(N + 1.0) + math.lgamma(2 * l + N + 2.0))
        deviation[N, N] = radial / target - 1.0
    return deviation


@dataclass(frozen=True)
class AgreementReport:
    """Distance between the two coherent-state evaluations.

    weighted_l2: relative weighted-L2 difference over the full grid.
    pointwise_max: max relative pointwise difference over cells carrying
    at least 1e-12 of the peak weighted density.
    """

    weighted_l2: float
    pointwise_max: float


def series_closed_agreement(spec: CoherentSpec, p: PhysParams, grid: GridSpec) -> AgreementReport:
    """Compare the series and closed evaluations of one coherent state, on
    the series' synthesised samples and the closed form's own samples."""
    series = bg_state_series(spec, p, grid)
    values = series.values
    dens = series.weight[:, None] * np.abs(values) ** 2
    diff = _closed_field(spec, p, grid).values - values
    num = math.sqrt(float(np.sum(series.weight[:, None] * np.abs(diff) ** 2)))
    den = math.sqrt(float(np.sum(dens)))
    trusted = dens >= 1e-12 * np.max(dens)
    pointwise = float(np.max(np.abs(diff[trusted]) / np.abs(values[trusted])))
    return AgreementReport(weighted_l2=num / den, pointwise_max=pointwise)
