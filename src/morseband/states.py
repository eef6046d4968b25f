"""Position-space eigenstates, the integration measure, and Landau states.

Every bound state factorizes into a plane wave along the periodic
direction and a radial-like profile in the variable xi = e^(kappa x),
built from a Laguerre polynomial in u = beta/xi. The profile grows
toward x -> -inf while the measure weight dies double-exponentially
there, so only weighted combinations are physical; the quadrature layer
is written to form those combinations without overflowing.

A sampled state is stored as its y-Fourier modes: one x-column per DFT
index along y. The plane wave e^(-i n kappa y) of the level (l, n) is the
single index -n mod ny, so an eigenstate is one column, and a coherent
state's series is its coefficient-times-profile columns. A field known
only on the grid (the closed coherent form, both Landau gauges) is
evaluated a block of rows at a time and transformed into one
preallocated array of all ny columns. Dense samples are synthesised by
one inverse FFT where they are read, except for a field known only on
the grid, whose dense samples are its own evaluation again. The
symmetric-gauge Landau level also has an exact separated form, 2n+l+1
products of Hermite-Gauss factors in x and in y, from which the
flat-field moments are taken.

A grid's axes, and the frame of a grid and parameters (the measure
weight, the profile's argument u = beta/xi and ln xi, and whether the
window admits the profile at all), are built once per key and frozen,
like ``quadrature._row_weights``: every state, field and moment pass on
that grid reads the same arrays, and a level's profile is computed from
them with no per-level check. The caches are bounded and hold only these
pure functions of their keys, never a state.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RangeError
from .model import PhysParams, QuantumNumbers, energy
from .quadrature import GridSpec, _row_blocks
from .specfun import hermite, laguerre, laguerre_deriv

__all__ = [
    "SampledState",
    "LandauParams",
    "default_grid",
    "assoc_bessel",
    "assoc_bessel_rodrigues",
    "wavefunction",
    "measure_weight",
    "ode_residual",
    "landau_state_asym",
    "landau_state_sym",
]


@dataclass(frozen=True, eq=False)
class SampledState:
    """A complex field on a strip grid, stored as its y-Fourier modes,
    with its measure weight.

    The samples are psi(x[i], y[j]) = sum_c modes[i, c] e^(2 pi i k[c] j / ny):
    column c of ``modes`` holds the coefficient of the DFT index k[c] along
    y, and ``k`` lists distinct indices in [0, ny) in ascending order. A
    plane wave e^(-i n kappa y) is the index -n mod ny, whatever n is, so
    aliasing follows the DFT index. Only the columns a state needs are
    kept: one for an eigenstate, all ny for a field transformed from
    samples (:meth:`from_samples`) or known only on the grid. ``values``
    synthesises the dense samples by one inverse FFT, or evaluates such a
    field again.

    ``x`` and ``y`` are the grid's axes, with y[0] = -y_period/2.
    ``weight[i]`` samples the measure along x (mathematically positive
    everywhere, but allowed to underflow to zero in the dead tail).
    ``labels`` is set only by :func:`wavefunction`. Arrays are frozen
    after construction; derive modified states through
    ``dataclasses.replace``.
    """

    grid: GridSpec
    modes: np.ndarray
    k: np.ndarray
    weight: np.ndarray
    y_period: float
    labels: QuantumNumbers | None = None
    x: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)
    # the field known only on the grid that this state was transformed
    # from; a state derived through ``replace`` has none
    _source: "_Field | None" = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.y_period > 0.0:
            raise DomainError(f"y_period must be positive, got {self.y_period!r}")
        x, y = _grid_axes(self.grid, self.y_period)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "modes", np.asarray(self.modes, dtype=complex))
        object.__setattr__(self, "k", np.asarray(self.k))
        k, ny = self.k, self.grid.ny
        if not (
            k.ndim == 1
            and 1 <= k.size <= ny
            and k.dtype.kind in "iu"
            and 0 <= k[0]
            and k[-1] < ny
            and np.all(np.diff(k) > 0)
        ):
            raise DomainError(f"mode indices must ascend strictly within [0, {ny}), got {k!r}")
        if self.modes.shape != (self.grid.nx, k.size):
            raise DomainError(
                f"modes shape {self.modes.shape} does not match {self.grid.nx} rows "
                f"of {k.size} mode columns"
            )
        if self.weight.shape != (self.grid.nx,):
            raise DomainError("weight must be sampled along x only")
        if not (_CHECKED_WEIGHTS.get(id(self.weight)) is self.weight or _weight_ok(self.weight)):
            raise DomainError("weight samples must be finite and non-negative")
        if not np.all(np.isfinite(self.modes)):
            raise _amplitude_overflow()
        for arr in (self.x, self.y, self.modes, self.k, self.weight):
            arr.setflags(write=False)

    @classmethod
    def from_samples(cls, grid: GridSpec, values, weight: np.ndarray, y_period: float) -> "SampledState":
        """The state whose dense samples on the grid are ``values`` (nx by
        ny), transformed to all ny mode columns. Non-finite samples raise
        RangeError."""
        values = np.asarray(values)
        if values.shape != (grid.nx, grid.ny):
            raise DomainError(f"values shape {values.shape} does not match grid {(grid.nx, grid.ny)}")
        return _transformed(grid, lambda a, b: values[a:b], weight, y_period)

    @property
    def values(self) -> np.ndarray:
        """The dense samples ``values[i, j]`` at ``(x[i], y[j])``, read-only.
        A state transformed from a field known only on the grid (the closed
        coherent form, both Landau gauges) evaluates that field again, so
        each sample is the field's own. Any other state's are synthesised
        by one inverse FFT along y, each exact to rounding of the largest
        sample of its row; one that overflows is not finite. Each read
        computes them anew."""
        if self._source is not None:
            out = self._source.values
            out.setflags(write=False)
            return out
        full = np.zeros((self.grid.nx, self.grid.ny), dtype=complex)
        full[:, self.k] = self.modes
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.fft.ifft(full, axis=1, norm="forward")
        out.setflags(write=False)
        return out


def _weight_ok(weight: np.ndarray) -> bool:
    return not np.any(weight < 0.0) and bool(np.all(np.isfinite(weight)))


# The frames' weights that were _weight_ok when their frame was built, by
# identity: a state on one of them is not scanned again.
_CHECKED_WEIGHTS: "weakref.WeakValueDictionary[int, np.ndarray]" = weakref.WeakValueDictionary()


def _amplitude_overflow() -> RangeError:
    return RangeError("state amplitudes overflow on this grid; shrink the window on the growing side")


def _transformed(grid: GridSpec, rows, weight: np.ndarray, y_period: float) -> SampledState:
    """The state whose samples rows(a, b) gives a block of rows at a time.
    Each block's y-FFT fills its rows of one preallocated array of all ny
    mode columns, so no second state-sized array exists. A sample that is
    not finite, or a mode that overflows, raises RangeError."""
    modes = np.empty((grid.nx, grid.ny), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in _row_blocks(grid.nx, 2 * grid.ny):
            modes[a:b] = np.fft.fft(rows(a, b), axis=1, norm="forward")
    return SampledState(grid=grid, modes=modes, k=np.arange(grid.ny), weight=weight, y_period=y_period)


@dataclass(frozen=True, eq=False)
class _Field:
    """A complex field known only through its samples on a grid, rows(a, b)
    giving rows a..b-1, with its measure weight: the closed coherent form
    and both Landau gauges before their transform. It reads like a
    SampledState where samples are printed or compared (``grid``, ``x``,
    ``y``, ``weight``, ``values``) without paying the transform, and
    ``state`` transforms it."""

    grid: GridSpec
    rows: Callable[[int, int], np.ndarray]
    weight: np.ndarray
    y_period: float

    @property
    def x(self) -> np.ndarray:
        return _grid_axes(self.grid, self.y_period)[0]

    @property
    def y(self) -> np.ndarray:
        return _grid_axes(self.grid, self.y_period)[1]

    @property
    def values(self) -> np.ndarray:
        """Every sample, evaluated a block of rows at a time into one array;
        a sample that is not finite raises RangeError, and no warning is
        raised."""
        values = np.empty((self.grid.nx, self.grid.ny), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in _row_blocks(self.grid.nx, 2 * self.grid.ny):
                values[a:b] = self.rows(a, b)
        if not np.all(np.isfinite(values)):
            raise _amplitude_overflow()
        return values

    def state(self) -> SampledState:
        """The field transformed to its ny mode columns; the state's
        ``values`` are this field's own samples."""
        s = _transformed(self.grid, self.rows, self.weight, self.y_period)
        object.__setattr__(s, "_source", self)
        return s


def default_grid(p: PhysParams) -> GridSpec:
    """Window centred on the weight mode, wide enough that both tails of
    every weighted integrand handled here are below 1e-14."""
    x_c = p.x_weight_mode
    return GridSpec(x_c - 8.0 * p.a0, x_c + 8.0 * p.a0, 1024, 64)


def _grid_axes(grid: GridSpec, y_period: float) -> tuple[np.ndarray, np.ndarray]:
    """The x and y axes of a grid whose periodic length is y_period, frozen,
    built once per grid and period."""
    # -0.0 == 0.0 as a key, yet linspace keeps a zero edge's sign, which
    # the printed x column shows: the edges' signs are part of the key
    return _signed_axes(grid, y_period, math.copysign(1.0, grid.x_min), math.copysign(1.0, grid.x_max))


@lru_cache(maxsize=16)
def _signed_axes(grid: GridSpec, y_period: float, *edge_signs: float) -> tuple[np.ndarray, np.ndarray]:
    x = np.linspace(grid.x_min, grid.x_max, grid.nx)
    y = -0.5 * y_period + np.arange(grid.ny) * (y_period / grid.ny)
    x.setflags(write=False)
    y.setflags(write=False)
    return x, y


_ARGUMENT_OVERFLOW = "profile argument beta/xi overflows on this grid; shrink the window on the growing side"


class _Frame(NamedTuple):
    """What a grid and parameters fix of every state on them, frozen: the
    measure weight on the grid's x axis, and the profile's argument
    u = beta/xi and ln xi, xi = e^(kappa x). Where xi or u is not a finite
    positive double on the window, u and ln_xi are None and ``refusal``
    is the message :func:`wavefunction` raises RangeError with."""

    weight: np.ndarray
    u: np.ndarray | None
    ln_xi: np.ndarray | None
    refusal: str | None


@lru_cache(maxsize=16)
def _frame(grid: GridSpec, p: PhysParams) -> _Frame:
    """The frame of a grid and parameters, built once per key. Nothing in
    it depends on the sign of a zero x, so the key needs no edge signs.
    ``SampledState``'s weight check runs on the weight here, once; a
    weight that fails it is left for every state on it to refuse."""
    x = _grid_axes(grid, p.a0)[0]
    weight = measure_weight(x, p)
    weight.setflags(write=False)
    if _weight_ok(weight):
        _CHECKED_WEIGHTS[id(weight)] = weight
    with np.errstate(over="ignore"):
        xi = np.exp(p.kappa * x)
    if not np.all(xi > 0.0):
        # xi underflows to 0 one step past where beta/xi overflows: the same
        # growing-side window, not a domain error of the profile
        return _Frame(weight, None, None, _ARGUMENT_OVERFLOW)
    if not np.all(np.isfinite(xi)):
        return _Frame(
            weight, None, None, "xi = e^(kappa x) overflows on this grid; shrink the window on the decaying side"
        )
    with np.errstate(over="ignore"):
        u = p.beta / xi
    if not np.all(np.isfinite(u)):
        return _Frame(weight, None, None, _ARGUMENT_OVERFLOW)
    ln_xi = np.log(xi)
    u.setflags(write=False)
    ln_xi.setflags(write=False)
    return _Frame(weight, u, ln_xi, None)


def measure_weight(x, p: PhysParams):
    """Measure density w(x) = e^(kappa x) e^(-beta e^(-kappa x)).

    This is the unique weight of its exponential family under which the
    states produced by :func:`wavefunction` come out orthonormal; the
    normalization and first-moment oracles in the test suite pin it.
    Accepts a scalar or an array.
    """
    kx = p.kappa * np.asarray(x, dtype=float)
    # far on the growing side exp(-kx) overflows to inf and the weight is 0
    with np.errstate(over="ignore"):
        out = np.exp(kx - p.beta * np.exp(-kx))
    return float(out) if np.isscalar(x) else out


def assoc_bessel(l: int, n: int, beta: float, xi):
    """Radial-like profile in xi = e^(kappa x) for level (l, n).

    beta^l sqrt(Gamma(n-l)/Gamma(n+l+1)) xi^(-l-1) L_{n-l-1}^{(2l+1)}(beta/xi),
    evaluated with the prefactor assembled in log space so that large l
    does not underflow intermediate powers. ``xi`` may be a scalar or an
    array of positive reals.
    """
    QuantumNumbers(l, n)
    if not beta > 0.0:
        raise DomainError(f"assoc_bessel requires beta > 0, got {beta!r}")
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr <= 0.0):
        raise DomainError("assoc_bessel requires xi > 0")
    with np.errstate(over="ignore"):
        u = beta / xi_arr
    if not np.all(np.isfinite(u)):
        raise RangeError(_ARGUMENT_OVERFLOW)
    value = _profile(l, n, beta, u, np.log(xi_arr))
    return float(value) if np.isscalar(xi) else value


def _profile(l: int, n: int, beta: float, u, ln_xi):
    """The profile of :func:`assoc_bessel` from u = beta/xi and ln xi, one
    formula for it and for :func:`wavefunction`, which reads both from
    the frame. Far on the growing side the profile overflows to inf (or
    inf * 0 = nan); wavefunction refuses such a state with RangeError."""
    ln_pref = (
        l * math.log(beta)
        + 0.5 * (math.lgamma(n - l) - math.lgamma(n + l + 1))
        - (l + 1.0) * ln_xi
    )
    poly = laguerre(n - l - 1, 2.0 * l + 1.0, u)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(ln_pref) * poly


def assoc_bessel_rodrigues(l: int, n: int, beta: float, xi: float) -> float:
    """Same profile through the derivative form: beta^(-l-1) (-1)^(n-l-1)
    / sqrt(Gamma(n+l+1) Gamma(n-l)) xi^n e^(beta/xi) (d/dxi)^(n+l)
    [xi^(2l) e^(-beta/xi)].

    The repeated derivative is carried out in exact rational arithmetic
    on terms c xi^p beta^q e^(-beta/xi), so this is an independent route
    against which the Laguerre form can be checked, slow and intended
    for small (l, n) only.
    """
    QuantumNumbers(l, n)
    if not (beta > 0.0 and xi > 0.0):
        raise DomainError("assoc_bessel_rodrigues requires beta > 0 and xi > 0")
    # terms[(p, q)] = coefficient of xi^p beta^q e^(-beta/xi)
    terms: dict[tuple[int, int], Fraction] = {(2 * l, 0): Fraction(1)}
    for _ in range(n + l):
        updated: dict[tuple[int, int], Fraction] = {}
        for (p, q), coeff in terms.items():
            if p != 0:
                key = (p - 1, q)
                updated[key] = updated.get(key, Fraction(0)) + coeff * p
            key = (p - 2, q + 1)
            updated[key] = updated.get(key, Fraction(0)) + coeff
        terms = updated
    xi_f = Fraction(xi)
    beta_f = Fraction(beta)
    poly = Fraction(0)
    for (p, q), coeff in terms.items():
        poly += coeff * xi_f ** (p + n) * beta_f**q
    sign = -1.0 if (n - l - 1) % 2 else 1.0
    pref = sign * math.exp(
        -(l + 1.0) * math.log(beta) - 0.5 * (math.lgamma(n + l + 1) + math.lgamma(n - l))
    )
    return pref * float(poly)


def wavefunction(q: QuantumNumbers, p: PhysParams, grid: GridSpec) -> SampledState:
    """Sample the normalized bound state (l, n) on the grid.

    The amplitude is sqrt((-e B0 / pi hbar c)(2l+1)) e^(-i n kappa y)
    times the xi profile; the state's weight array carries the measure,
    and inner products under it are orthonormal. The plane wave is the
    one mode column -n mod ny, whose coefficient carries the phase
    e^(-i n kappa y[0]) = (-1)^n of y[0] = -a0/2.
    """
    fr = _frame(grid, p)
    if fr.refusal is not None:
        raise RangeError(fr.refusal)
    profile = _profile(q.l, q.n, p.beta, fr.u, fr.ln_xi)
    amp = math.sqrt(-p.e * p.B0 / (math.pi * p.hbar * p.c) * (2 * q.l + 1))
    # an overflowing profile gives inf (or inf * 0 = nan) cells, which
    # SampledState refuses with RangeError
    with np.errstate(over="ignore", invalid="ignore"):
        column = (amp * profile) * (-1.0 if q.n % 2 else 1.0)
    return SampledState(
        grid=grid,
        modes=column[:, None],
        k=np.array([-q.n % grid.ny]),
        weight=fr.weight,
        y_period=p.a0,
        labels=q,
    )


def ode_residual(q: QuantumNumbers, p: PhysParams, xi_samples, energy_value: float | None = None) -> float:
    """Max relative residual of the radial equation at the given xi points.

    The profile solves xi^2 f'' + (2 xi + beta) f' - (n^2 - 1/4 - eps) f
    + (beta n / xi) f = 0 with eps = mu a0^2 E / (2 pi^2 hbar^2) at the
    level energy. Derivatives are analytic (Laguerre ladder), so the
    residual isolates formula errors rather than discretization error.
    ``energy_value`` overrides the level energy, for non-solution
    controls.
    """
    xi_arr = np.asarray(xi_samples, dtype=float)
    if np.any(xi_arr <= 0.0):
        raise DomainError("ode_residual requires xi > 0 samples")
    beta = p.beta
    u = beta / xi_arr
    l, n = q.l, q.n
    m = n - l - 1
    alpha = 2.0 * l + 1.0
    E = energy(q, p) if energy_value is None else float(energy_value)
    eps = p.mu * p.a0**2 * E / (2.0 * math.pi**2 * p.hbar**2)

    L0 = laguerre(m, alpha, u)
    L1 = laguerre_deriv(m, alpha, u, order=1)
    L2 = laguerre_deriv(m, alpha, u, order=2)
    pow_m1 = xi_arr ** (-l - 1.0)
    f = pow_m1 * L0
    fp = pow_m1 / xi_arr * (-(l + 1.0) * L0 - u * L1)
    fpp = (
        pow_m1
        / xi_arr**2
        * ((l + 1.0) * (l + 2.0) * L0 + 2.0 * (l + 2.0) * u * L1 + u * u * L2)
    )
    terms = (
        xi_arr**2 * fpp,
        (2.0 * xi_arr + beta) * fp,
        -(n * n - 0.25 - eps) * f,
        (beta * n / xi_arr) * f,
    )
    residual = terms[0] + terms[1] + terms[2] + terms[3]
    scale = max(float(np.max(np.abs(t))) for t in terms)
    return float(np.max(np.abs(residual))) / scale


@dataclass(frozen=True)
class LandauParams:
    """Labels for a flat-field comparison state in one of two gauges.

    gauge "asymmetric": level N with wavenumber k_y along the strip; the
    guiding centre sits at x0 = r_c^2 k_y (no transverse drift field).
    gauge "symmetric": radial and angular labels (n, l) around the
    origin.
    """

    gauge: str
    N: int | None = None
    n: int | None = None
    l: int | None = None
    k_y: float = 0.0

    def __post_init__(self) -> None:
        if self.gauge == "asymmetric":
            if self.N is None or self.N < 0:
                raise DomainError(f"asymmetric gauge needs N >= 0, got {self.N!r}")
            if self.n is not None or self.l is not None:
                raise DomainError("asymmetric gauge takes N only")
        elif self.gauge == "symmetric":
            if self.n is None or self.l is None or self.n < 0 or self.l < 0:
                raise DomainError(
                    f"symmetric gauge needs n >= 0 and l >= 0, got n={self.n!r}, l={self.l!r}"
                )
            if self.N is not None:
                raise DomainError("symmetric gauge takes (n, l), not N")
        else:
            raise DomainError(f'gauge must be "asymmetric" or "symmetric", got {self.gauge!r}')

    @staticmethod
    def cyclotron_radius(p: PhysParams) -> float:
        """r_c = sqrt(hbar c / |e| B0)."""
        return math.sqrt(p.hbar * p.c / (abs(p.e) * p.B0))

    def guiding_centre(self, p: PhysParams) -> float:
        """x0 = r_c^2 k_y, asymmetric gauge only."""
        if self.gauge != "asymmetric":
            raise DomainError("guiding centre is defined in the asymmetric gauge")
        return self.cyclotron_radius(p) ** 2 * self.k_y


def landau_state_asym(lp: LandauParams, p: PhysParams, grid: GridSpec) -> SampledState:
    """Flat-field level in the asymmetric gauge: plane wave along y,
    Hermite-Gaussian along x centred on the guiding centre. The weight
    array is identically 1 (flat measure); the x integral of the density
    is 1/(4 pi^2) by the stated prefactor. k_y need not be a multiple of
    2 pi / a0, so the samples are transformed to all ny mode columns."""
    return _landau_asym_field(lp, p, grid).state()


def _landau_asym_field(lp: LandauParams, p: PhysParams, grid: GridSpec) -> _Field:
    """The samples of :func:`landau_state_asym`, before the transform."""
    if lp.gauge != "asymmetric":
        raise DomainError("landau_state_asym needs asymmetric-gauge labels")
    x, y = _grid_axes(grid, p.a0)
    r_c = lp.cyclotron_radius(p)
    x0 = lp.guiding_centre(p)
    t = (x - x0) / r_c
    norm = 1.0 / (
        2.0 * math.pi * math.sqrt(math.sqrt(math.pi) * r_c * 2.0**lp.N * math.factorial(lp.N))
    )
    profile = norm * np.exp(-0.5 * t * t) * hermite(lp.N, t)
    phase = np.exp(-1j * lp.k_y * y)
    return _Field(grid, lambda a, b: profile[a:b, None] * phase[None, :], np.ones(grid.nx), p.a0)


def landau_box(lp: LandauParams, p: PhysParams, nx: int, ny: int) -> tuple[PhysParams, GridSpec]:
    """The box a flat-field comparison state is sampled in: parameters
    with a0 = 24 r_c, so the periodic length is 24 cyclotron radii, and
    an nx by ny window of +-12 r_c along x, centred on the guiding
    centre in the asymmetric gauge and on the origin in the symmetric
    one. The Gaussian envelope is below 1e-15 at its edges."""
    r_c = lp.cyclotron_radius(p)
    centre = lp.guiding_centre(p) if lp.gauge == "asymmetric" else 0.0
    grid = GridSpec(centre - 12.0 * r_c, centre + 12.0 * r_c, nx, ny)
    return replace(p, a0=24.0 * r_c), grid


def landau_state_sym(n: int, l: int, p: PhysParams, grid: GridSpec) -> SampledState:
    """Flat-field level in the symmetric gauge: (x + i y)^l vortex factor,
    Gaussian envelope, Laguerre radial polynomial; unit norm under the
    flat plane measure. The weight array is identically 1. The samples
    are evaluated and transformed a block of rows at a time."""
    return _landau_sym_field(n, l, p, grid).state()


def _landau_sym_norm(n: int, l: int) -> float:
    """sqrt(n! / (pi (n + l)!)), the unit-norm prefactor of the (n, l) level
    in the variables x/s, y/s, s = sqrt(2) r_c."""
    return math.exp(0.5 * (math.lgamma(n + 1.0) - math.lgamma(n + l + 1.0)) - 0.5 * math.log(math.pi))


def _landau_sym_factors(n: int, l: int, p: PhysParams, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The samples of :func:`landau_state_sym` in separated form: they are
    a @ b.T for the nx by Q+1 complex x-factors a and the ny by Q+1 real
    y-factors b returned, Q = 2n + l.

    In X = x/s and Y = y/s the level is a 2D oscillator state of Q quanta,
    so it is exactly a sum of the Q+1 Hermite-Gauss products
    c_j H_j(X) e^(-X^2/2) H_(Q-j)(Y) e^(-Y^2/2). Both sides are fixed by
    their top-degree part, (-1)^n/n! (X + iY)^l (X^2 + Y^2)^n on the
    state's side and 2^Q X^j Y^(Q-j) times c_j on the other, which gives
    c_j = (-1)^n / (n! 2^Q) sum over l - k + 2m = j of C(l, k) i^k C(n, m)
    (the Laguerre-Gauss to Hermite-Gauss decomposition; Beijersbergen et
    al., Opt. Commun. 96 (1993) 123). Column j of a holds c_j H_j(X)
    e^(-X^2/2) times the state's prefactor, norm/s; column j of b holds
    H_(Q-j)(Y) e^(-Y^2/2)."""
    lp = LandauParams(gauge="symmetric", n=n, l=l)
    x, y = _grid_axes(grid, p.a0)
    s = math.sqrt(2.0) * lp.cyclotron_radius(p)
    q = 2 * n + l
    c = np.zeros(q + 1, dtype=complex)
    for k in range(l + 1):
        for m in range(n + 1):
            c[l - k + 2 * m] += math.comb(l, k) * (1, 1j, -1, -1j)[k % 4] * math.comb(n, m)
    c *= (-1) ** n / (math.factorial(n) * 2.0**q) * _landau_sym_norm(n, l) / s

    def hermite_gauss(t: np.ndarray, degrees) -> np.ndarray:
        return np.stack([hermite(j, t) for j in degrees], axis=1) * np.exp(-0.5 * t * t)[:, None]

    return hermite_gauss(x / s, range(q + 1)) * c, hermite_gauss(y / s, range(q, -1, -1))


def _landau_sym_field(n: int, l: int, p: PhysParams, grid: GridSpec) -> _Field:
    """The samples of :func:`landau_state_sym`, before the transform."""
    lp = LandauParams(gauge="symmetric", n=n, l=l)
    x, y = _grid_axes(grid, p.a0)
    r_c = lp.cyclotron_radius(p)
    s = math.sqrt(2.0) * r_c
    x2, y2, iy = x * x, y * y, 1j * y
    norm = _landau_sym_norm(n, l)

    def rows(a: int, b: int) -> np.ndarray:
        rho2 = x2[a:b, None] + y2
        return (
            norm / s * ((x[a:b, None] + iy) / s) ** l * np.exp(-rho2 / (4.0 * r_c * r_c))
            * laguerre(n, float(l), rho2 / (2.0 * r_c * r_c))
        )

    return _Field(grid, rows, np.ones(grid.nx), p.a0)
