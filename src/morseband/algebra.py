"""Ladder operators on sampled states and the identities they satisfy.

The model's level structure is generated by a raising/lowering pair and
a number operator forming an su(1,1) algebra; the Hamiltonian is a
quadratic expression in them. Here the three generators act on sampled
states through grid derivatives, which turns every algebraic statement
(commutators, Casimir eigenvalues, the factorized Hamiltonian, ladder
matrix elements) into a measurable residual.

Grid requirements: composed operators stack finite-difference error, so
these checks want a fine open-axis resolution concentrated where the
states live; :func:`algebra_grid` provides a window that meets every
stated tolerance. Residual norms always exclude the boundary rows
contaminated by one-sided stencil closures.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError
from .model import PhysParams, QuantumNumbers, energy
from .quadrature import FD_MARGIN, GridSpec, fd_derivative, weighted_norm
from .states import SampledState, wavefunction

__all__ = [
    "algebra_grid",
    "apply_Lplus",
    "apply_Lminus",
    "apply_L3",
    "apply_casimir",
    "apply_hamiltonian",
    "commutator_residual",
]


def algebra_grid(p: PhysParams) -> GridSpec:
    """Window tuned for operator composition: tight around the support
    (the weighted densities live within about one band width of the
    weight mode) with the open axis resolved finely enough that two
    stacked fourth-order derivatives stay below 1e-7 relative."""
    x_c = p.x_weight_mode
    return GridSpec(x_c - p.a0, x_c + 4.0 * p.a0, 8192, 64)


# The generators and their quadratic combinations act on value arrays
# sampled on the grid of s, which supplies the axes, the weight and the
# period; composing them builds no intermediate state.


def _plus(v: np.ndarray, s: SampledState, p: PhysParams) -> np.ndarray:
    dx = fd_derivative(v, s, "x")
    dy = fd_derivative(v, s, "y")
    field_term = (p.e * p.B0 * p.a0 / (math.pi * p.hbar * p.c)) * np.exp(-p.kappa * s.x)
    phase = np.exp(-1j * p.kappa * s.y)[None, :]
    return (p.a0 / (2.0 * math.pi)) * phase * (-dx + 1j * dy + field_term[:, None] * v)


def _minus(v: np.ndarray, s: SampledState, p: PhysParams) -> np.ndarray:
    dx = fd_derivative(v, s, "x")
    dy = fd_derivative(v, s, "y")
    phase = np.exp(1j * p.kappa * s.y)[None, :]
    return (p.a0 / (2.0 * math.pi)) * phase * (dx + 1j * dy)


def _three(v: np.ndarray, s: SampledState, p: PhysParams) -> np.ndarray:
    dy = fd_derivative(v, s, "y")
    return 1j * (p.a0 / (2.0 * math.pi)) * dy


def _quadratic_images(v: np.ndarray, s: SampledState, p: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """(L+ L- v, L3 v): the two images both quadratic operators are built from."""
    return _plus(_minus(v, s, p), s, p), _three(v, s, p)


def _hamiltonian(v: np.ndarray, s: SampledState, p: PhysParams, images=None) -> np.ndarray:
    """H v from the images of :func:`_quadratic_images`, computed here
    unless the caller already holds them."""
    lpm, l3 = _quadratic_images(v, s, p) if images is None else images
    scale = 2.0 * math.pi**2 * p.hbar**2 / (p.mu * p.a0**2)
    return scale * (lpm + l3 - 0.25 * v)


def _casimir(v: np.ndarray, s: SampledState, p: PhysParams, images=None) -> np.ndarray:
    """C v = (L+ L- - L3^2 + L3) v, from the images as in :func:`_hamiltonian`."""
    lpm, l3 = _quadratic_images(v, s, p) if images is None else images
    return lpm - _three(l3, s, p) + l3


def apply_Lplus(s: SampledState, p: PhysParams) -> SampledState:
    """Raising operator: (a0/2pi) e^(-i kappa y)
    (-d/dx + i d/dy + (e B0 a0 / pi hbar c) e^(-kappa x)).

    The charge is negative, so the multiplicative term equals
    -kappa beta e^(-kappa x). On the level (l, n-1) this produces
    sqrt((n+l)(n-l-1)) times the level (l, n). Returns the image as an
    unlabeled state on the grid of s.
    """
    return dataclasses.replace(s, values=_plus(s.values, s, p), labels=None)


def apply_Lminus(s: SampledState, p: PhysParams) -> SampledState:
    """Lowering operator: (a0/2pi) e^(+i kappa y) (d/dx + i d/dy).

    Annihilates the bottom level (l, l+1) of each vertical family.
    Returns the image as an unlabeled state on the grid of s.
    """
    return dataclasses.replace(s, values=_minus(s.values, s, p), labels=None)


def apply_L3(s: SampledState, p: PhysParams) -> SampledState:
    """Number operator i (a0/2pi) d/dy; eigenvalue n on the level (l, n).

    Purely spectral along the periodic axis, so it adds no open-axis
    boundary contamination. Returns the image as an unlabeled state on
    the grid of s.
    """
    return dataclasses.replace(s, values=_three(s.values, s, p), labels=None)


def _relative_defect(
    image: np.ndarray, reference: np.ndarray, s: SampledState, coeff, scale: float, margin: int,
    reference_norm: float | None = None,
) -> float:
    """||image - coeff reference||_w / (scale ||reference||_w), both weighted
    norms on the grid of s over the rows margin cells in from the open-axis
    edges: how far an operator image is from coeff times the reference.
    A caller already holding ||reference||_w passes it as reference_norm."""
    if reference_norm is None:
        reference_norm = weighted_norm(reference, s, exclude_margin=margin)
    return weighted_norm(image - coeff * reference, s, exclude_margin=margin) / (
        scale * reference_norm
    )


# stacked x-derivative applications widen the contaminated boundary band
_COMPOSED_MARGIN = 2 * FD_MARGIN


def _eigen_defect(
    applied: np.ndarray, s: SampledState, eigenvalue: float, norm: float | None = None
) -> float:
    """Relative eigen-residual of an operator image of s: the defect against
    eigenvalue times s over max(|eigenvalue|, 1) ||s||_w, on interior rows."""
    scale = max(abs(eigenvalue), 1.0)
    return _relative_defect(applied, s.values, s, eigenvalue, scale, _COMPOSED_MARGIN, norm)


def apply_casimir(
    s: SampledState, p: PhysParams, reference_eigenvalue: float | None = None
) -> float:
    """Relative eigen-residual of L+ L- - L3^2 + L3, applied by
    composition, against -l(l+1) times the input.

    The residual is the weighted norm of the defect over interior cells
    only, over max(|eigenvalue|, 1) ||s||. Unlabeled states must supply
    ``reference_eigenvalue`` explicitly (useful as a non-eigenstate
    control).
    """
    if reference_eigenvalue is None:
        if s.labels is None:
            raise DomainError("apply_casimir needs a labeled eigenstate or an explicit eigenvalue")
        l = s.labels.l
        reference_eigenvalue = -float(l * (l + 1))
    return _eigen_defect(_casimir(s.values, s, p), s, reference_eigenvalue)


def apply_hamiltonian(
    s: SampledState, p: PhysParams, reference_energy: float | None = None
) -> float:
    """Relative eigen-residual of (2 pi^2 hbar^2 / mu a0^2)(L+ L- + L3 - 1/4),
    applied by composition, against the level energy times the input.

    The residual is measured as in :func:`apply_casimir`. Unlabeled
    states must supply ``reference_energy`` (non-eigenstate controls
    compare against a chosen level's energy).
    """
    if reference_energy is None:
        if s.labels is None:
            raise DomainError("apply_hamiltonian needs a labeled eigenstate or an explicit energy")
        reference_energy = energy(s.labels, p)
    return _eigen_defect(_hamiltonian(s.values, s, p), s, reference_energy)


def _ladder_table(p: PhysParams, grid: GridSpec, n_max: int) -> list[tuple]:
    """Rows (l, n, raise defect, lower defect, Casimir residual, Hamiltonian
    residual) of ``ladder-check`` for every n <= n_max, in (n, l) order.

    Each family l is walked upwards, so each state is built and normed
    once and L-, L+ L-, L3 and L+ act on it once; C and H share the images.
    A raise defect is measured once the state above is built; only the
    current state, the one below and L+ of the one below are held."""
    m = _COMPOSED_MARGIN
    rows = {}
    for l in range(n_max):
        below = raised = None
        for n in range(l + 1, n_max + 2):
            s = wavefunction(QuantumNumbers(l, n), p, grid)
            v, norm = s.values, weighted_norm(s.values, s, exclude_margin=m)
            coeff = math.sqrt((n + l) * (n - l - 1))
            if raised is not None:
                rows[n - 1, l][2] = _relative_defect(raised, v, s, coeff, coeff, m, norm)
                raised = None
            if n > n_max:
                break
            lowered = _minus(v, s, p)
            if below is None:
                lower = _relative_defect(lowered, v, s, 0.0, 1.0, m, norm)
            else:
                lower = _relative_defect(lowered, below[0], s, coeff, coeff, m, below[1])
            below = None
            images = _plus(lowered, s, p), _three(v, s, p)
            del lowered
            casimir = _eigen_defect(_casimir(v, s, p, images), s, -float(l * (l + 1)), norm)
            hamiltonian = _eigen_defect(_hamiltonian(v, s, p, images), s, energy(s.labels, p), norm)
            del images
            rows[n, l] = [l, n, None, lower, casimir, hamiltonian]
            raised, below = _plus(v, s, p), (v, norm)
    return [tuple(rows[key]) for key in sorted(rows)]


def commutator_residual(s: SampledState, p: PhysParams, pair: str) -> float:
    """Measured size of one commutation identity on the state s.

    pair selects the identity; the return value is the margin-excluded
    weighted norm of the defect over the stated scale:

    - "ladder": [L+, L-] + 2 L3, over ||s||
    - "three_plus": [L3, L+] - L+, over ||s||
    - "three_minus": [L3, L-] + L-, over ||s||
    - "h_three": [H, L3], over ||H s||
    - "h_casimir": [H, C] on a labeled state, over E max(l(l+1), 1) ||s||
    - "h_plus": [H, L+], over ||H s|| (the model has no dynamical
      symmetry, so this one is genuinely nonzero)

    The operators are composed on value arrays; no intermediate state
    is built.
    """
    v = s.values
    if pair == "ladder":
        defect = _plus(_minus(v, s, p), s, p) - _minus(_plus(v, s, p), s, p) + 2.0 * _three(v, s, p)
        margin = _COMPOSED_MARGIN
        scale = weighted_norm(v, s, exclude_margin=margin)
    elif pair in ("three_plus", "three_minus"):
        ladder = _plus if pair == "three_plus" else _minus
        sign = -1.0 if pair == "three_plus" else 1.0
        stepped = ladder(v, s, p)
        defect = _three(stepped, s, p) - ladder(_three(v, s, p), s, p) + sign * stepped
        margin = _COMPOSED_MARGIN
        scale = weighted_norm(v, s, exclude_margin=margin)
    elif pair == "h_three":
        hv = _hamiltonian(v, s, p)
        defect = _hamiltonian(_three(v, s, p), s, p) - _three(hv, s, p)
        margin = _COMPOSED_MARGIN
        scale = weighted_norm(hv, s, exclude_margin=margin)
    elif pair == "h_casimir":
        if s.labels is None:
            raise DomainError("the h_casimir identity check needs a labeled eigenstate")
        defect = _hamiltonian(_casimir(v, s, p), s, p) - _casimir(_hamiltonian(v, s, p), s, p)
        margin = 4 * FD_MARGIN
        l = s.labels.l
        scale = (
            energy(s.labels, p)
            * max(float(l * (l + 1)), 1.0)
            * weighted_norm(v, s, exclude_margin=margin)
        )
    elif pair == "h_plus":
        hv = _hamiltonian(v, s, p)
        defect = _hamiltonian(_plus(v, s, p), s, p) - _plus(hv, s, p)
        margin = 3 * FD_MARGIN
        scale = weighted_norm(hv, s, exclude_margin=margin)
    else:
        raise DomainError(f"unknown commutator pair {pair!r}")
    return weighted_norm(defect, s, exclude_margin=margin) / scale
