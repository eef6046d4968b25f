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
from .model import PhysParams, energy
from .quadrature import FD_MARGIN, GridSpec, fd_derivative, weighted_norm
from .states import SampledState

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


def _hamiltonian(v: np.ndarray, s: SampledState, p: PhysParams) -> np.ndarray:
    scale = 2.0 * math.pi**2 * p.hbar**2 / (p.mu * p.a0**2)
    return scale * (_plus(_minus(v, s, p), s, p) + _three(v, s, p) - 0.25 * v)


def _casimir(v: np.ndarray, s: SampledState, p: PhysParams) -> np.ndarray:
    l3 = _three(v, s, p)
    return _plus(_minus(v, s, p), s, p) - _three(l3, s, p) + l3


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
    image: np.ndarray, reference: np.ndarray, s: SampledState, coeff, scale: float, margin: int
) -> float:
    """||image - coeff reference||_w / (scale ||reference||_w), both weighted
    norms on the grid of s over the rows margin cells in from the open-axis
    edges: how far an operator image is from coeff times the reference."""
    return weighted_norm(image - coeff * reference, s, exclude_margin=margin) / (
        scale * weighted_norm(reference, s, exclude_margin=margin)
    )


# stacked x-derivative applications widen the contaminated boundary band
_COMPOSED_MARGIN = 2 * FD_MARGIN


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
    applied, scale = _casimir(s.values, s, p), max(abs(reference_eigenvalue), 1.0)
    return _relative_defect(applied, s.values, s, reference_eigenvalue, scale, _COMPOSED_MARGIN)


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
    applied, scale = _hamiltonian(s.values, s, p), max(abs(reference_energy), 1.0)
    return _relative_defect(applied, s.values, s, reference_energy, scale, _COMPOSED_MARGIN)


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
