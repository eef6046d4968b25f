"""Integration engines and grid primitives.

One half-line engine serves the model, beside the strip grid: the
trapezoid rule on ``u = e^t`` (``integrate_semi_infinite_u``) for
``int_0^inf u^a e^-u f(u) du``, where ``f`` may carry logarithm powers
or, in the coherent states' radial identity integrals, a factor
u^nu e^u K_nu(u). Gauss-Laguerre rules stall on the logarithmic factors
(measured: 2.5e-3 relative error at order 256 on ``f = ln u``); the
substituted integrand is analytic and decays double-exponentially, so
the trapezoid rule converges spectrally.

The strip grid takes inner products of states: composite Simpson along
the unbounded direction, plain summation along the periodic one (the
trapezoid rule is spectrally accurate for periodic smooth integrands,
and every integrand here dies out in x well inside the window). States
are held as y-Fourier mode columns (see ``states.SampledState``), so the
y sum is taken by Parseval: dy times the sum over a row's ny samples is
y_period times the sum over its mode columns, and columns of different
DFT indices are orthogonal. The row weights are built once per grid and
period and frozen, as ``states`` builds a grid's axes and measure weight
once per grid and parameters.

Grid derivatives live here too, acting on mode columns: spectral
differentiation along the periodic axis is a multiplication of each
column by its index's frequency, and fourth-order centred stencils with
one-sided closures act along the open axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, GridMismatchError, RangeError

__all__ = [
    "IntegrationResult",
    "GridSpec",
    "FD_MARGIN",
    "integrate_semi_infinite_u",
    "grid_inner_product",
    "weighted_norm",
    "fd_derivative",
]

# Rows next to the open-axis boundaries where the one-sided derivative
# closures are the least accurate; norm comparisons that involve grid
# derivatives should exclude this many rows on each side.
FD_MARGIN = 4

_TINY = 1e-300


@dataclass(frozen=True)
class IntegrationResult:
    """Value of a quadrature together with its error estimate and cost."""

    value: complex
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if not self.error_estimate >= 0.0:
            raise DomainError(f"error_estimate must be >= 0, got {self.error_estimate!r}")
        if not self.evaluations > 0:
            raise DomainError(f"evaluations must be positive, got {self.evaluations!r}")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling window: open direction x, periodic direction y."""

    x_min: float
    x_max: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise DomainError(f"need x_min < x_max, got [{self.x_min!r}, {self.x_max!r}]")
        if self.nx < 8 or self.ny < 8:
            raise DomainError(f"grid needs nx >= 8 and ny >= 8, got {self.nx}x{self.ny}")
        # the second-derivative stencil divides by 12 h^2, whose reciprocal must be finite
        h = (self.x_max - self.x_min) / (self.nx - 1)
        if not 12.0 * h * h > 1.0 / np.finfo(float).max:
            raise DomainError(f"the x step {h!r} of [{self.x_min!r}, {self.x_max!r}] is too small")


def integrate_semi_infinite_u(f: Callable, weight_exponent: float) -> IntegrationResult:
    """Compute ``int_0^inf u^weight_exponent e^-u f(u) du``.

    Substituting ``u = e^t`` turns the integral into one of an analytic
    integrand ``e^((a+1) t - e^t) f(e^t)`` over the line, which decays
    double-exponentially on the right and exponentially on the left, so
    the trapezoid rule converges spectrally even when ``f`` carries
    ``(ln u)^j`` factors. ``f`` is evaluated once, on the 1921 nodes of
    the finest grid; three nested trapezoid sums are taken over every
    fourth, every second and every node, and the error estimate is the
    difference of the last two.

    ``f`` is called on numpy arrays and may return complex values.
    ``weight_exponent`` must exceed -1.
    """
    a = float(weight_exponent)
    if not a > -1.0:
        raise DomainError(f"weight exponent must exceed -1, got {weight_exponent!r}")
    # left endpoint where e^((a+1) t) alone is below 1e-16 of the bulk;
    # right endpoint where e^(-e^t) has annihilated any polynomial factor
    t_lo = -38.0 / (a + 1.0)
    t_hi = 8.5
    evaluations = 1921
    t = np.linspace(t_lo, t_hi, evaluations)
    u = np.exp(t)
    with np.errstate(over="ignore", invalid="ignore"):
        g_all = np.asarray(f(u)) * np.exp((a + 1.0) * t - u)
    values = []
    for stride in (4, 2, 1):
        g = g_all[::stride]
        h = (t_hi - t_lo) / (len(g) - 1)
        total = complex(h * (np.sum(g) - 0.5 * (g[0] + g[-1])))
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise ConvergenceError(
                "integrand is not finite somewhere on (0, {:.3g}]; the engine "
                "cannot integrate it".format(math.exp(t_hi))
            )
        values.append(total)
    scale = max(abs(values[2]), _TINY)
    error = abs(values[2] - values[1])
    if error > 1e-8 * scale:
        raise ConvergenceError(
            f"substitution trapezoid stalled: refinement moved the value by "
            f"{error:.2e} against magnitude {scale:.2e}"
        )
    value = values[2]
    if value.imag == 0.0:
        value = complex(value.real, 0.0)
    return IntegrationResult(value=value, error_estimate=error, evaluations=evaluations)


def _simpson_weights(nx: int, h: float) -> np.ndarray:
    """Composite Simpson weights on a uniform grid, 3/8 patch for odd interval counts."""
    w = np.zeros(nx)
    intervals = nx - 1
    if intervals % 2 == 1:
        cut = intervals - 3
    else:
        cut = intervals
    if cut > 0:
        w[0] += 1.0
        w[cut] += 1.0
        w[1:cut:2] += 4.0
        w[2:cut:2] += 2.0
        w[: cut + 1] *= h / 3.0
    if cut < intervals:
        patch = np.array([3.0, 9.0, 9.0, 3.0]) * (h / 8.0)
        w[cut : cut + 4] += patch
    return w


def _x_step(grid: GridSpec) -> float:
    return (grid.x_max - grid.x_min) / (grid.nx - 1)


@lru_cache(maxsize=16)
def _row_weights(grid: GridSpec, y_period: float) -> np.ndarray:
    """Weight of each grid row in an integral over the strip: the Simpson
    weights along x times the y period, by which (Parseval) a sum over the
    row's mode columns stands for dy times the sum over its samples. Every
    grid quadrature takes its rule from here. Built once per grid and
    period; the array is frozen."""
    weights = _simpson_weights(grid.nx, _x_step(grid)) * y_period
    weights.setflags(write=False)
    return weights


def grid_inner_product(a, b) -> complex:
    """Weighted inner product <a|b> of two states on the same grid.

    The measure weight stored on the states multiplies the integrand.
    Each factor is scaled by sqrt(weight) before the product is formed:
    states may grow large exactly where the weight underflows to zero,
    and this ordering keeps the integrand finite instead of forming
    0 * inf. Only the mode columns both states hold meet in the product
    (columns of distinct DFT indices are orthogonal over the period), and
    each row's sum over them is weighted by ``_row_weights``, in a fixed
    order, so repeated calls are bit-identical. States built on one grid
    and parameters hold the one frozen weight array of ``states._frame``,
    which needs no comparison element by element.
    """
    if a.grid != b.grid:
        raise GridMismatchError(f"states sampled on different grids: {a.grid} vs {b.grid}")
    if a.y_period != b.y_period:
        raise GridMismatchError("states carry different periodic lengths")
    if a.weight is not b.weight and not np.array_equal(a.weight, b.weight):
        raise GridMismatchError("states carry different measure weights")
    ia = ib = slice(None)
    if not np.array_equal(a.k, b.k):
        _, ia, ib = np.intersect1d(a.k, b.k, assume_unique=True, return_indices=True)
    root_w = np.sqrt(a.weight)[:, None]
    products = np.conj(a.modes[:, ia] * root_w) * (b.modes[:, ib] * root_w)
    return complex(np.sum(_row_weights(a.grid, a.y_period) * np.sum(products, axis=1)))


def _check_shape(values: np.ndarray, s) -> None:
    if values.shape != s.modes.shape:
        raise GridMismatchError(
            f"values shape {values.shape} does not match the mode columns {s.modes.shape} of the state"
        )


def weighted_norm(values: np.ndarray, s, exclude_margin: int = 0) -> float:
    """Weighted L2 norm of mode columns laid out as those of the state s
    (``s.modes.shape``, a column per index of ``s.k``), optionally
    ignoring boundary rows.

    The grid, the measure weight and the periodic length come from s;
    ``values`` of another shape raise GridMismatchError. Pass
    ``s.modes`` for the norm of the state itself. Non-finite values
    (an image that overflowed on this grid), or a norm that overflows,
    raise RangeError. With ``exclude_margin = m`` the first and last m
    rows along the open axis are dropped before integrating, which
    removes the rows where one-sided derivative closures are least
    accurate. The rows are reduced a cache-sized block at a time
    (``_streamed_norm``), so no temporary of the array's size is built.
    """
    _check_shape(values, s)
    return _streamed_norm(s, exclude_margin, lambda a, b: values[a:b])


def _streamed_norm(s, exclude_margin: int, rows) -> float:
    """The weighted norm on the grid of s of the array whose rows a..b-1
    rows(a, b) returns, formed and reduced one cache-sized block of rows
    at a time: each row's density sum(|sqrt(w) d|^2) is reduced on its
    own, so a row's value does not depend on the block it sits in; the
    first and last exclude_margin rows are zeroed, and the rest summed
    with the rule of ``_row_weights``. A non-finite cell (checked before
    anything is multiplied) or total raises RangeError, not a warning."""
    root_w = np.sqrt(s.weight)
    density = np.empty(s.grid.nx)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in _row_blocks(s.grid.nx, 2 * s.modes.shape[1]):
            block = rows(a, b)
            if not np.all(np.isfinite(block)):
                raise RangeError("values overflow on this grid; shrink the window on the growing side")
            amp = block * root_w[a:b, None]
            density[a:b] = np.sum(amp.real**2 + amp.imag**2, axis=1)
        if exclude_margin < 0 or 2 * exclude_margin >= s.grid.nx:
            raise DomainError(f"exclude_margin {exclude_margin!r} incompatible with nx = {s.grid.nx}")
        density[:exclude_margin] = density[s.grid.nx - exclude_margin :] = 0.0
        total = float(np.sum(_row_weights(s.grid, s.y_period) * density))
    if not math.isfinite(total):
        raise RangeError("the weighted norm overflows on this grid; shrink the window on the growing side")
    return math.sqrt(max(total, 0.0))


# one-sided O(h^3)/O(h^4) closures for the first and second derivative
_EDGE1_ROW0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1_ROW1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
_EDGE2_ROW0 = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0
_EDGE2_ROW1 = np.array([11.0, -20.0, 6.0, 4.0, -1.0]) / 12.0

# fourth-order centred stencils on rows i-2..i+2, before division by 12 h^order
_CENTRED_TAPS = {
    1: ((0, 1.0), (1, -8.0), (3, 8.0), (4, -1.0)),
    2: ((0, -1.0), (1, 16.0), (2, -30.0), (3, 16.0), (4, -1.0)),
}

# float64 values per block of rows the centred stencil accumulates at a
# time: 256 KiB, so the scratch term stays in cache
_BLOCK_FLOATS = 32768


def _row_blocks(nx: int, width: int) -> list[tuple[int, int]]:
    """Row ranges [a, b) covering nx rows of width float64 values each,
    about ``_BLOCK_FLOATS`` values per range. No range is a lone row:
    einsum, which the moments reduce blocks with, sums a lone row of more
    than 8192 values in another order than a 2-D block."""
    block = max(2, _BLOCK_FLOATS // width)
    starts = list(range(0, nx, block))
    if nx - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [nx]))


def _x_stencil_blocks(values: np.ndarray, h: float, orders: tuple[int, ...]):
    """Grid derivatives along axis 0 of a complex array, streamed in blocks
    of rows: yield (a, b, derivs), derivs[k] holding rows a..b-1 of the
    derivative of order orders[k] (centred taps inside, one-sided closures
    on the two rows at each edge). A block reads the zero-copy view of rows
    a-3..b+2, clipped to the grid, which holds all its centred taps and
    5-row edge closures. The block buffers are reused from block to block.

    The real taps run on float64 views of the complex rows and accumulate
    in place in a cache-sized block with one scratch term. Terms are added
    left to right and scaled by the reciprocal of the divisor, as numpy
    divides complex by real, so every value is bit-identical to the
    stencil evaluated on the real and imaginary parts of the whole array,
    and equal to it in complex arithmetic (whose products by c + 0j may
    turn a sum of zeros from -0 to +0). A tap of 1 adds the rows themselves
    and a negative tap -c subtracts c times them, both exact in IEEE
    arithmetic (1 v = v, x + (-c) v = x - c v), which takes the first
    derivative in 6 passes over a block and the second in 9.
    """
    values = np.ascontiguousarray(values, dtype=complex)
    nx, ny = values.shape
    blocks = _row_blocks(nx, 2 * ny)
    rows = max(b - a for a, b in blocks)
    term = np.empty((rows, 2 * ny))
    stencils = {
        1: (12.0 * h, (_EDGE1_ROW0, _EDGE1_ROW1), -1.0, h),
        2: (12.0 * h * h, (_EDGE2_ROW0, _EDGE2_ROW1), 1.0, h * h),
    }
    outs = {order: np.empty((rows, ny), dtype=complex) for order in orders}
    for a, b in blocks:
        start = max(a - 3, 0)
        window = values[start : min(b + 3, nx)]
        v = window.view(np.float64)
        lo = max(a, 2)
        hi = max(lo, min(b, nx - 2))
        taps = [v[lo - 2 + k - start : hi - 2 + k - start] for k in range(5)]
        for order, out in outs.items():
            divisor, head, flip, scale = stencils[order]
            body, t = out.view(np.float64)[lo - a : hi - a], term[: hi - lo]
            (k0, c0), *rest = _CENTRED_TAPS[order]
            acc = taps[k0] if c0 == 1.0 else np.multiply(taps[k0], c0, out=body)
            for k, c in rest:
                scaled = taps[k] if abs(c) == 1.0 else np.multiply(taps[k], abs(c), out=t)
                (np.add if c > 0.0 else np.subtract)(acc, scaled, out=body)
                acc = body
            body *= 1.0 / divisor
            for i, row in enumerate(head):
                if a <= i < b:
                    out[i - a] = row @ window[:5] / scale
                if a <= nx - 1 - i < b:
                    out[nx - 1 - i - a] = flip * (row[::-1] @ window[-5:]) / scale
        yield a, b, [outs[order][: b - a] for order in orders]


def _y_multiplier(k: np.ndarray, ny: int, y_period: float, order: int) -> np.ndarray:
    """Spectral y-derivative of mode columns of DFT indices k: each column
    is multiplied by (i q)^order, q = 2 pi fftfreq(ny, y_period/ny) at its
    index, the signed frequency the index aliases to. An even ny's Nyquist
    index has no first-derivative sign, and its first derivative is 0."""
    q = 2.0 * np.pi * np.fft.fftfreq(ny, d=y_period / ny)[k]
    if order == 1:
        return np.where(2 * k == ny, 0.0, 1j * q)
    return -(q**2)


def fd_derivative(values: np.ndarray, s, axis: str, order: int = 1) -> np.ndarray:
    """Differentiate mode columns laid out as those of the state s along
    one grid axis.

    axis "y" (periodic) multiplies each column by the spectral derivative
    of its DFT index over the period of s, exact for every mode the grid
    resolves. axis "x" (open) uses fourth-order centred stencils with
    one-sided five-point closures at the boundary rows; compare
    derivatives with ``exclude_margin = FD_MARGIN`` since the closure rows
    carry larger error. ``order`` is 1 or 2, and ``values`` must have the
    shape of ``s.modes`` (GridMismatchError otherwise).

    Returns a new complex array; the input is not modified.
    """
    _check_shape(values, s)
    if order not in (1, 2):
        raise DomainError(f"derivative order must be 1 or 2, got {order!r}")
    if axis == "x":
        out = np.empty(values.shape, dtype=complex)
        for a, b, (block,) in _x_stencil_blocks(values, _x_step(s.grid), (order,)):
            out[a:b] = block
        return out
    if axis == "y":
        return values * _y_multiplier(s.k, s.grid.ny, s.y_period, order)
    raise DomainError(f'axis must be "x" or "y", got {axis!r}')
