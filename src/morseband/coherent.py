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
|t| <= 1, takes J_{2l+1} from Miller's backward recurrence where |t| > 1
and the recurrence's start index is at most 64, and from scipy's
exponentially scaled J beyond.
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
# Largest start index of Miller's recurrence for J_a(w) on a row; rows whose
# start exceeds it take scipy's jve. N <= 64 holds for a <= 52 and
# |w| + 8|w|^(1/3) + 10 <= 64, that is |w| <= 29.3. The cut is conservative,
# not a measured crossover: at 128 cells a row the recurrence costs about
# 100 + 3N ns a cell, and jve 250-300 ns in its own power series
# (|w|^2/4 <= a + 1) and 450-2000 ns beyond, so outside jve's series region
# the recurrence would stay cheaper well past N = 64, up to the N = 270 that
# the overflow bound below allows.
_MILLER_START_MAX = 64
# f_N of the recurrence, with f_(N+1) = 0. On a row |w| > 2, so
# |f_(n-1)| <= (2n/|w|) |f_n| + |f_(n+1)| bounds every |f_n| by
# f_N (N+1)! <= 1e-250 65! < 1e-159, and the normaliser's modulus
# e^|Im w| f_N / |J_N(w)| is at least f_N (|J_N(w)| <= e^|Im w|): nothing
# overflows or underflows, and N could grow to 270 before a sum overflowed.
_MILLER_SEED = 1e-250
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
    C = sqrt(2 pi a / I_a(2|Z|)) / a0. Each row takes J_a(2s)/s^a by one
    of three rules (:func:`_closed_rows`): its power series in t = s^2
    where |t| <= 1; Miller's backward recurrence for J_a, normalised by
    the Jacobi-Anger sum, where |t| > 1 and the recurrence starts at an
    index of at most 64, a cut in |2s| that counts the order a; and
    scipy's ``jve`` beyond. The samples are transformed a block of
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
    falls along x, and each row takes one of three rules from its |t|:

    * where |t| <= 1, F(t) = G(t)/a! with G(t) = sum_k (-t)^k / (k! (a+1)_k)
      summed by Horner over its terms up to the row's first one below
      2^-53 (at most ``_SERIES_TERMS``), and every other factor, -ln a!
      included, summed as one exponent
      ln C + (l+1/2) ln(beta |Z|) - ln a! - (l+1) kappa (x+iy) + Z e^(-i kappa y)
      before a single exp. J_a(2s) has no zero there, and the terms
      cancel by at most e^2;
    * where |t| > 1 and the row's start index (:func:`_miller_starts`) is
      at most ``_MILLER_START_MAX``, on J_a(w) = (f_a / S) e^(-+i w),
      w = 2s, from :func:`_bessel_miller`; the cut counts the order a as
      well as |w|;
    * beyond that cut, on scipy's exponentially scaled value
      jve(a, w) = J_a(w) e^(-|Im w|).

    In the last two, s^-a (s the root that enters J, so either root gives
    the exact value), e^(-+i w) or e^|Im w| and every other factor are
    summed as one exponent before a single exp.

    Each sample depends on its row's |t| alone, so a row reads the same
    whichever block asks for it. A sample that overflows comes out
    non-finite; call under ``np.errstate(over="ignore", invalid="ignore")``
    to hear no warning."""
    l, z = spec.l, spec.Z
    order = 2 * l + 1
    x, y = _grid_axes(grid, p.a0)
    kappa = p.kappa
    root = cmath.sqrt(p.beta * z)  # s at x = y = 0
    ln_c = 0.5 * math.log(2.0 * math.pi * order) - math.log(p.a0) - 0.5 * _ln_bessel_norm(l, abs(z))
    ln_beta_z = math.log(p.beta) + math.log(abs(z))
    y_wave = np.exp(-1j * kappa * y)
    plan = _row_plan(order, ln_beta_z - kappa * x)
    coeffs = _series_coeffs(order)

    # (l + 1/2) ln(beta |Z|) - a ln(root): the moduli cancel
    ln_front = ln_c - 1j * order * cmath.phase(root)
    y_phase = np.exp(-0.5j * kappa * y)
    y_exponent = z * y_wave - 0.5j * kappa * y

    def bessel_rows(a: int, b: int, start: int) -> np.ndarray:
        xs = x[a:b]
        w = np.multiply.outer(2.0 * root * np.exp(-0.5 * kappa * xs), y_phase)
        values = np.add.outer(ln_front - 0.5 * kappa * xs, y_exponent)
        if start:
            ratio, turn = _bessel_miller(order, w, start)
            values += turn * w
        else:
            values += np.abs(w.imag)
            ratio = special.jve(order, w, out=w)
        np.exp(values, out=values)
        values *= ratio
        return values

    ln_series = ln_c + (l + 0.5) * ln_beta_z - math.lgamma(order + 1.0)
    y_series = z * y_wave - 1j * (l + 1) * kappa * y

    def series_rows(a: int, b: int, terms: int) -> np.ndarray:
        xs = x[a:b]
        minus_t = np.multiply.outer(-p.beta * z * np.exp(-kappa * xs), y_wave)
        g = np.full_like(minus_t, coeffs[terms - 1])
        for c in coeffs[terms - 2 :: -1]:
            g *= minus_t
            g += c
        values = np.add.outer(ln_series - (l + 1) * kappa * xs, y_series)
        np.exp(values, out=values)
        values *= g
        return values

    def run_rows(a: int, b: int) -> np.ndarray:
        key = int(plan[a])
        return series_rows(a, b, key) if key > 0 else bessel_rows(a, b, -key)

    def rows(a: int, b: int) -> np.ndarray:
        # one evaluation per run of rows that share a rule
        edges = [a, *(a + 1 + np.flatnonzero(plan[a + 1 : b] != plan[a : b - 1])).tolist(), b]
        runs = [run_rows(lo, hi) for lo, hi in zip(edges, edges[1:])]
        return runs[0] if len(runs) == 1 else np.concatenate(runs)

    return rows


def _series_coeffs(order: int) -> list[float]:
    """The coefficients 1/(k! (a+1)_k) of (-t)^k in G(t), k < ``_SERIES_TERMS``."""
    coeffs = [1.0]
    for k in range(1, _SERIES_TERMS):
        coeffs.append(coeffs[-1] / (k * (order + k)))
    return coeffs


def _row_plan(order: int, ln_t: np.ndarray) -> np.ndarray:
    """Each row's rule in :func:`_closed_rows` from its ln|t| alone: K > 0,
    the series terms it sums, where |t| <= 1; -N, the recurrence's start
    index, where |t| > 1 and N <= ``_MILLER_START_MAX``; 0 for jve."""
    series = ln_t <= 0.0
    # |term k| falls with k where |t| <= 1: a series row sums its terms up
    # to its first one below 2^-53
    ln_series_t = np.minimum(ln_t, 0.0)
    magnitudes = np.array(_series_coeffs(order)) * np.exp(np.multiply.outer(ln_series_t, np.arange(_SERIES_TERMS)))
    terms = np.minimum(np.count_nonzero(magnitudes >= 2.0**-53, axis=1) + 1, _SERIES_TERMS)
    # |w| = 2 |t|^(1/2), clipped where no start could reach the cut
    starts = _miller_starts(order, 2.0 * np.exp(0.5 * np.clip(ln_t, 0.0, 64.0)))
    return np.where(series, terms, np.where(starts <= _MILLER_START_MAX, -starts, 0))


def _miller_starts(order: int, w_abs: np.ndarray) -> np.ndarray:
    """Start index N of Miller's recurrence for J_order at each |w|:
    max(order + 12, |w| + 8 |w|^(1/3) + 10), rounded up to a multiple of
    16 so that rows share few distinct starts. Unrounded, it moves J by at
    most 5e-16 times J's condition 1 + |w J'/J| from a start 40 higher
    (measured at |w| in [2, 96] and order <= 81, over arg w)."""
    need = np.maximum(order + 12.0, w_abs + 8.0 * np.cbrt(w_abs) + 10.0)
    return 16 * np.ceil(need / 16.0).astype(int)


def _bessel_miller(order: int, w: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """J_order(w) for |w| > 2 as (f_a / S, turn) with J_order(w) =
    (f_a / S) e^(turn w), turn = -i where Im w >= 0 and +i elsewhere.

    Miller's algorithm: f_(n-1) = (2n/w) f_n - f_(n+1) (DLMF 10.6.1), run
    from f_start = ``_MILLER_SEED`` and f_(start+1) = 0 down to f_0, gives
    J_n(w) up to one common factor, which the Jacobi-Anger sum
    e^(turn w) = J_0 + 2 sum_(n>=1) turn^n J_n (DLMF 10.12.1) fixes:
    S = f_0 + 2 sum turn^n f_n. The sign of turn makes |e^(turn w)| =
    e^|Im w|, the larger of the two sums, so S does not cancel. The
    division comes first: f_a / S is at most 1 in modulus, while f_a alone
    may be as small as the seed."""
    turn = np.where(w.imag >= 0.0, -1j, 1j)
    inv = 1.0 / w
    f_next = np.zeros_like(w)
    f = np.full_like(w, _MILLER_SEED)
    tmp = np.empty_like(w)
    # sums of (-1)^(n/2) f_n over even n >= 2 and of (-1)^((n-1)/2) f_n over odd n
    even = np.zeros_like(w)
    odd = np.zeros_like(w)
    f_order = None
    for n in range(start, 0, -1):
        quarter = n % 4
        if quarter == 0:
            even += f
        elif quarter == 1:
            odd += f
        elif quarter == 2:
            even -= f
        else:
            odd -= f
        np.multiply(f, inv, out=tmp)
        tmp *= 2.0 * n
        tmp -= f_next
        f_next, f, tmp = f, tmp, f_next
        if n - 1 == order:
            f_order = f.copy()
    even *= 2.0
    even += f
    odd *= 2.0 * turn
    even += odd
    f_order /= even
    return f_order, turn


def bg_measure_density(l: int, r):
    """Radial density of the identity-resolving measure, (2/pi)
    I_{2l+1}(2r) K_{2l+1}(2r) r; the angular part is flat. ``r`` may be a
    float or a numpy array; the result is elementwise, each element the
    bits of its scalar call.

    Computed from exponentially scaled Bessel factors, whose e^(+-2r)
    prefactors cancel exactly. The scaled K_{2l+1}(2r) still grows like
    (2l)!/2 r^(-2l-1) as r falls, and overflows where the product does
    not: from l = 58 at r = 0.1, which raises RangeError. Tends to
    1/(2 pi) as r grows. Supported for 0 < r <= 350, the range of |Z|
    that :class:`CoherentSpec` accepts; any other r raises DomainError.
    """
    if l < 0:
        raise DomainError(f"l must be >= 0, got {l!r}")
    r_array = np.asarray(r, dtype=float)
    if not np.all((r_array > 0.0) & (r_array <= _Z_MAX)):
        raise DomainError(f"bg_measure_density requires 0 < r <= {_Z_MAX}, got {r!r}")
    nu = 2.0 * l + 1.0
    x = 2.0 * r_array
    product = bessel_i(nu, x, scaled=True) * bessel_k(nu, x, scaled=True)
    density = (2.0 / math.pi) * product * r_array
    return density if density.ndim else float(density)


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
