"""Expectation values and the Schrodinger-Robertson uncertainty.

Closed forms exist for the first three levels of every vertical family
(N = n - l - 1 in {0, 1, 2}); they are reproduced verbatim here, with
the logarithmic Gamma integrals they rest on exposed as an oracle. The
same moments are also computed by grid quadrature with finite-difference
momenta, which is the route that validates the closed forms entrywise.

A deliberate structural point: expectation values of the momentum under
the model's weighted measure come out purely imaginary, meaning the
momentum is not self-adjoint in that inner product. The moment fields
are therefore complex throughout, and only the final uncertainty
combination is asserted to be real.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyLossError, DomainError, RangeError
from .model import PhysParams, QuantumNumbers
from .quadrature import (
    GridSpec,
    _row_weights,
    _x_step,
    _x_stencil_blocks,
    integrate_semi_infinite_u,
)
from .specfun import digamma, ln_gamma, trigamma
from .states import (
    LandauParams,
    SampledState,
    _grid_axes,
    _landau_asym_field,
    _landau_sym_factors,
    landau_box,
    wavefunction,
)

__all__ = [
    "MomentSet",
    "default_moments_grid",
    "moments_closed",
    "moments_quadrature",
    "log_weighted_gamma_integral",
    "landau_delta",
]

_TINY = 1e-300


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of (x, p_x) on one state, with the
    symmetrized covariances sigma_ab = <ab + ba>/2 - <a><b> and the
    uncertainty combination delta = Re(sigma_xx sigma_pp - sigma_xp^2)."""

    mean_x: float
    mean_x2: float
    mean_p: complex
    mean_p2: complex
    mean_xp: complex
    sigma_xx: float
    sigma_pp: complex
    sigma_xp: complex
    delta: float

    @classmethod
    def from_means(
        cls,
        mean_x: float,
        mean_x2: float,
        mean_p: complex,
        mean_p2: complex,
        mean_xp: complex,
        hbar: float,
    ) -> "MomentSet":
        """Assemble covariances from raw moments.

        mean_xp is the unsymmetrized <x p_x>; the reversed ordering is
        recovered through the commutator, which puts the symmetrized
        covariance at mean_xp - i hbar/2 - mean_x mean_p. The uncertainty
        combination must come out real to 1e-10 relative, otherwise the
        inputs are inconsistent, and a covariance that is not finite raises
        RangeError.
        """
        sigma_xx = mean_x2 - mean_x * mean_x
        sigma_pp = mean_p2 - mean_p * mean_p
        sigma_xp = mean_xp - 0.5j * hbar - mean_x * mean_p
        combo = sigma_xx * sigma_pp - sigma_xp * sigma_xp
        if not all(map(cmath.isfinite, (sigma_xx, sigma_pp, sigma_xp, combo))):
            raise RangeError("moments overflow for these parameters; no uncertainty is defined")
        if abs(combo.imag) > 1e-10 * max(abs(combo.real), _TINY):
            raise AccuracyLossError(
                f"uncertainty combination is not real: {combo!r}; moment inputs inconsistent"
            )
        return cls(
            mean_x=float(mean_x),
            mean_x2=float(mean_x2),
            mean_p=complex(mean_p),
            mean_p2=complex(mean_p2),
            mean_xp=complex(mean_xp),
            sigma_xx=float(sigma_xx),
            sigma_pp=complex(sigma_pp),
            sigma_xp=complex(sigma_xp),
            delta=float(combo.real),
        )


def default_moments_grid(p: PhysParams) -> GridSpec:
    """Moment integrands carry extra powers of x, so the right tail is
    taken wider than the plain state window; the periodic direction
    integrates exactly with few samples since densities are y-flat."""
    x_c = p.x_weight_mode
    return GridSpec(x_c - p.a0, x_c + 6.0 * p.a0, 16384, 16)


def moments_closed(q: QuantumNumbers, p: PhysParams) -> MomentSet:
    """Closed-form moments for the first three levels of a vertical family.

    Available for N in {0, 1, 2}; each entry is a combination of
    digamma/trigamma values at 2l+1..2l+5, ln(beta), and the geometry
    scale a0/2pi. The momentum moments are purely imaginary and shared
    by all three levels.
    """
    l, N = q.l, q.N
    if N not in (0, 1, 2):
        raise DomainError(f"closed-form moments exist for N in {{0,1,2}}, got N={N}")
    A = p.a0 / (2.0 * math.pi)
    lnb = math.log(p.beta)
    psi1 = digamma(2.0 * l + 1.0)
    z = {k: trigamma(2.0 * l + k) for k in (1, 2, 3, 4, 5)}
    mean_p = 1j * p.hbar * (2.0 * math.pi / p.a0) * (l + 1.0)
    if N == 0:
        mean_x = -A * (psi1 - lnb)
        variance_x = A * A * z[1]
        mean_xp = -1j * p.hbar * (l + 1.0) * (psi1 - lnb)
    elif N == 1:
        mean_x = -A * (psi1 - 1.0 / (2.0 * (l + 1.0)) - lnb)
        variance_x = A * A * (
            l * (4.0 * l + 3.0) / (2.0 * (2.0 * l + 1.0) * (l + 1.0) ** 2)
            + 2.0 * (l + 1.0) * z[1]
            - 2.0 * (2.0 * l + 1.0) * z[2]
            + (2.0 * l + 1.0) * z[3]
        )
        mean_xp = -1j * p.hbar * (l + 1.0) * (psi1 + l / (2.0 * (l + 1.0) ** 2) - lnb)
    else:
        mean_x = -A * (
            psi1 - (4.0 * l + 5.0) / (2.0 * (l + 1.0) * (2.0 * l + 3.0)) - lnb
        )
        poly = (
            64.0 * l**5 + 344.0 * l**4 + 656.0 * l**3 + 516.0 * l**2 + 125.0 * l - 13.0
        ) / (4.0 * (2.0 * l + 1.0) * (l + 2.0) * (l + 1.0) ** 2 * (2.0 * l + 3.0) ** 2)
        variance_x = A * A * (
            poly
            + (l + 1.0) * (2.0 * l + 3.0) * z[1]
            - 2.0 * (2.0 * l + 1.0) * (2.0 * l + 3.0) * z[2]
            + 2.0 * (2.0 * l + 1.0) * (3.0 * l + 4.0) * z[3]
            - 2.0 * (2.0 * l + 1.0) * (2.0 * l + 3.0) * z[4]
            + (2.0 * l + 1.0) * (l + 2.0) * z[5]
        )
        mean_xp = -1j * p.hbar * (l + 1.0) * (
            psi1 + l * (4.0 * l + 5.0) / (2.0 * (l + 1.0) ** 2 * (2.0 * l + 3.0)) - lnb
        )
    return MomentSet.from_means(
        mean_x=mean_x,
        mean_x2=mean_x * mean_x + variance_x,
        mean_p=mean_p,
        mean_p2=mean_p * mean_p,
        mean_xp=mean_xp,
        hbar=p.hbar,
    )


def _grid_moments(
    s: SampledState | np.ndarray,
    hbar: float,
    grid: GridSpec | None = None,
    y_period: float | None = None,
) -> MomentSet:
    """Raw moments of a sampled state, or of plain rows, by quadrature; the
    state is normalized by its own computed norm, so small grid-norm drift
    does not leak into the moments.

    One weighted pass over the rows, block by block: the row sums of
    bra = conj(sqrt(w) psi) against sqrt(w) psi and against the sqrt(w)
    scaled x-stencils of order 1 and 2 (``fd_derivative``'s kernel) fill
    three arrays, and no state-sized temporary is built. A state's rows
    are its mode columns, always scaled by sqrt(w), which keeps every
    product finite where the weight underflows, as in
    ``grid_inner_product``. Plain rows are an nx by m complex array on
    ``grid`` under the flat measure (w = 1, never scaled), with the
    periodic length ``y_period``: a field's samples, or the columns of its
    separated form (see ``landau_delta``). By Parseval a row's sum over
    the samples is ny times its sum over the mode columns, a constant
    every normalised moment cancels. Each moment is one array dotted with
    ``quadrature._row_weights`` times 1, x or x^2, by ``einsum``: a BLAS
    dot splits a long sum across its threads, so its bits would follow
    the thread count. A non-finite sample or derivative, or a norm that
    underflows to 0 (a window where the state is dead), raises RangeError.
    """
    scaled = isinstance(s, SampledState)
    if scaled:
        source, grid, y_period = s.modes, s.grid, s.y_period
        root_w = np.sqrt(s.weight)[:, None]
    else:
        source = np.ascontiguousarray(s, dtype=complex)
    x = _grid_axes(grid, y_period)[0]
    nx = grid.nx
    density, d1, d2 = np.empty(nx), np.empty(nx, complex), np.empty(nx, complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, kets in _x_stencil_blocks(source, _x_step(grid), (1, 2)):
            amp = np.multiply(source[a:b], root_w[a:b], order="C") if scaled else source[a:b]
            parts = amp.view(np.float64)
            np.einsum("ij,ij->i", parts, parts, out=density[a:b])
            bra = np.conjugate(amp, out=amp if scaled else None)
            for ket, row in zip(kets, (d1, d2)):
                if scaled:
                    ket *= root_w[a:b]
                np.einsum("ij,ij->i", bra, ket, out=row[a:b])
    wx = _row_weights(grid, y_period)

    def dot(u: np.ndarray, v: np.ndarray):
        return np.einsum("i,i->", u, v)

    # a moment that overflows is refused by MomentSet, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        xwx = x * wx
        norm = dot(wx, density)
        if not (0.0 < norm < math.inf and np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
            raise RangeError(
                "the state's weighted norm underflows, or its momentum integrands "
                "overflow, on this grid; move the window toward the weight mode"
            )
        return MomentSet.from_means(
            mean_x=dot(xwx, density) / norm,
            mean_x2=dot(x * xwx, density) / norm,
            mean_p=-1j * hbar * dot(wx, d1) / norm,
            mean_p2=-(hbar**2) * dot(wx, d2) / norm,
            mean_xp=-1j * hbar * dot(xwx, d1) / norm,
            hbar=hbar,
        )


def moments_quadrature(
    q: QuantumNumbers, p: PhysParams, grid: GridSpec | None = None
) -> MomentSet:
    """Moments of an eigenstate by weighted grid quadrature.

    Momentum acts as -i hbar d/dx through the grid stencils, and the
    mixed moment applies x after the momentum. For N <= 2 the result
    must match :func:`moments_closed` entrywise; for larger N this is
    the only evaluation.
    """
    if grid is None:
        grid = default_moments_grid(p)
    return _grid_moments(wavefunction(q, p, grid), p.hbar)


def log_weighted_gamma_integral(nu: float, mu: float, j: int) -> tuple[float, float]:
    """Both routes to int_0^inf s^(nu-1) e^(-mu s) (ln s)^j ds, j in {1, 2}.

    Returns (quadrature, closed). The closed form is
    Gamma(nu)/mu^nu [(psi(nu) - ln mu)^(1+[j=2]) + trigamma(nu) [j=2]];
    the quadrature route rescales s = u/mu and integrates the Gamma
    weight directly. These are the integrals behind every first and
    second x-moment above.
    """
    if not (nu > 0.0 and mu > 0.0):
        raise DomainError(f"need nu > 0 and mu > 0, got nu={nu!r}, mu={mu!r}")
    if j not in (1, 2):
        raise DomainError(f"j must be 1 or 2, got {j!r}")
    lnmu = math.log(mu)

    def f(u: np.ndarray) -> np.ndarray:
        return (np.log(u) - lnmu) ** j

    quad = integrate_semi_infinite_u(f, nu - 1.0).value.real / mu**nu
    base = digamma(nu) - lnmu
    closed = math.exp(ln_gamma(nu)) / mu**nu * (base**2 + trigamma(nu) if j == 2 else base)
    return quad, closed


def landau_delta(lp: LandauParams, p: PhysParams) -> float:
    """Uncertainty of a flat-field comparison state by quadrature.

    The state is sampled in the box of :func:`states.landau_box` (24
    cyclotron radii around its centre; the Gaussian envelope is below
    1e-15 at the edge), and the moments are taken under the flat measure
    the Landau states are normalized in, with the grid's x-stencils and
    Simpson rule, on plain rows (``_grid_moments``); no state is built.
    An asymmetric-gauge state's rows are its 4096 by 8 samples (512 KiB).
    A symmetric-gauge state's 4096 by 512 samples are never built: it is
    taken in its separated form a @ b.T (``states._landau_sym_factors``),
    and with the thin QR b = Q R, Q's columns orthonormal,
    psi = (a R^T) Q^T; as the stencils act along x only, each row's sum
    over its 512 samples of conj(psi) times a stencil of psi is, in exact
    arithmetic, the sum over the 2n+l+1 columns of a R^T, which are the
    rows reduced.
    """
    if lp.gauge == "asymmetric":
        p_box, grid = landau_box(lp, p, 4096, 8)
        rows = _landau_asym_field(lp, p_box, grid).values
    else:
        p_box, grid = landau_box(lp, p, 4096, 512)
        x_factors, y_factors = _landau_sym_factors(lp.n, lp.l, p_box, grid)
        rows = x_factors @ np.linalg.qr(y_factors, mode="r").T
    return _grid_moments(rows, p.hbar, grid, p_box.a0).delta
