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
contaminated by one-sided stencil closures, and a reference whose norm
underflows to 0 on the window is refused with RangeError.

Streaming: the generators act on one cache-sized block of rows at a
time, from the block's x-derivative (the stencil kernel of
``quadrature``), its y-derivative (an FFT of those rows alone) and its
value rows, so an image built block by block is bit-identical to one
built on the whole array. Every residual is ``_relative_defect``, which
forms image - coeff reference a block of rows at a time; ``ladder-check``
takes its raise and lower defects from it and its Casimir and Hamiltonian
residuals from :func:`_quadratic_defects`, one streamed pass over the
blocks of L- v, and holds at most four state-sized arrays (a 34.8 MiB
traced peak for ``--n-max 2`` on the 8192x64 :func:`algebra_grid`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, RangeError
from .model import PhysParams, QuantumNumbers, energy
from .quadrature import (
    FD_MARGIN,
    GridSpec,
    _density_norm,
    _row_density,
    _streamed_norm,
    _x_step,
    _x_stencil_blocks,
    _y_derivative,
    weighted_norm,
)
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


class _Frame(NamedTuple):
    """What the generators take from the grid and the parameters: the x
    step and y period of the derivatives, the multiplicative term of L+ as
    a column, the two phase rows times a0/2pi, and the scales of L3 and H."""

    h: float
    period: float
    field: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    three: complex
    energy: float


def _frame(s: SampledState, p: PhysParams) -> _Frame:
    scale = p.a0 / (2.0 * math.pi)
    return _Frame(
        h=_x_step(s.grid),
        period=s.y_period,
        field=((p.e * p.B0 * p.a0 / (math.pi * p.hbar * p.c)) * np.exp(-p.kappa * s.x))[:, None],
        lower=scale * np.exp(1j * p.kappa * s.y)[None, :],
        upper=scale * np.exp(-1j * p.kappa * s.y)[None, :],
        three=1j * scale,
        energy=2.0 * math.pi**2 * p.hbar**2 / (p.mu * p.a0**2),
    )


# The generator kernels act on one block of rows: the block's x- and
# y-derivatives, and for L+ its value rows and the rows of the field term
# (L- is fr.lower (dx + i dy), written out in _images).
# _images runs the same kernels over every block of a whole array.


def _dy(v: np.ndarray, fr: _Frame) -> np.ndarray:
    return _y_derivative(v, fr.period, 1)


def _plus(dx: np.ndarray, dy: np.ndarray, v: np.ndarray, field: np.ndarray, fr: _Frame) -> np.ndarray:
    return fr.upper * (-dx + 1j * dy + field * v)


def _three(dy: np.ndarray, fr: _Frame) -> np.ndarray:
    return fr.three * dy


def _images(v: np.ndarray, fr: _Frame, names: str) -> list[np.ndarray]:
    """Whole-grid images of v under the generators named by the characters
    of names ("-" for L-, "+" for L+, "3" for L3), in that order. One
    streamed pass over the row blocks takes dx v and dy v once per block
    and shares them among the images."""
    outs = [np.empty(v.shape, dtype=complex) for _ in names]
    for a, b, (dx,) in _x_stencil_blocks(v, fr.h, (1,)):
        dy = _dy(v[a:b], fr)
        for name, out in zip(names, outs):
            if name == "-":
                out[a:b] = fr.lower * (dx + 1j * dy)
            elif name == "+":
                out[a:b] = _plus(dx, dy, v[a:b], fr.field[a:b], fr)
            else:
                out[a:b] = _three(dy, fr)
    return outs


def _quadratic_images(v: np.ndarray, fr: _Frame) -> tuple[np.ndarray, np.ndarray]:
    """(L+ L- v, L3 v): the two images both quadratic operators are built from."""
    lowered, l3 = _images(v, fr, "-3")
    return _images(lowered, fr, "+")[0], l3


def _hamiltonian(v: np.ndarray, fr: _Frame, images=None) -> np.ndarray:
    """H v from the images of :func:`_quadratic_images`, computed here
    unless the caller already holds them. Elementwise in the images, so
    it acts on any range of rows whose images are given."""
    lpm, l3 = _quadratic_images(v, fr) if images is None else images
    return fr.energy * (lpm + l3 - 0.25 * v)


def _casimir(v: np.ndarray, fr: _Frame, images=None) -> np.ndarray:
    """C v = (L+ L- - L3^2 + L3) v, from the images as in :func:`_hamiltonian`;
    L3 acts row by row, so this too acts on any range of rows."""
    lpm, l3 = _quadratic_images(v, fr) if images is None else images
    return lpm - _three(_dy(l3, fr), fr) + l3


def apply_Lplus(s: SampledState, p: PhysParams) -> SampledState:
    """Raising operator: (a0/2pi) e^(-i kappa y)
    (-d/dx + i d/dy + (e B0 a0 / pi hbar c) e^(-kappa x)).

    The charge is negative, so the multiplicative term equals
    -kappa beta e^(-kappa x). On the level (l, n-1) this produces
    sqrt((n+l)(n-l-1)) times the level (l, n). Returns the image as an
    unlabeled state on the grid of s.
    """
    return dataclasses.replace(s, values=_images(s.values, _frame(s, p), "+")[0], labels=None)


def apply_Lminus(s: SampledState, p: PhysParams) -> SampledState:
    """Lowering operator: (a0/2pi) e^(+i kappa y) (d/dx + i d/dy).

    Annihilates the bottom level (l, l+1) of each vertical family.
    Returns the image as an unlabeled state on the grid of s.
    """
    return dataclasses.replace(s, values=_images(s.values, _frame(s, p), "-")[0], labels=None)


def apply_L3(s: SampledState, p: PhysParams) -> SampledState:
    """Number operator i (a0/2pi) d/dy; eigenvalue n on the level (l, n).

    Purely spectral along the periodic axis, so it adds no open-axis
    boundary contamination. Returns the image as an unlabeled state on
    the grid of s.
    """
    fr = _frame(s, p)
    return dataclasses.replace(s, values=_three(_dy(s.values, fr), fr), labels=None)


def _relative_defect(
    image: np.ndarray, reference: np.ndarray, s: SampledState, coeff, scale: float, margin: int,
    reference_norm: float | None = None,
) -> float:
    """||image - coeff reference||_w / (scale ||reference||_w), both weighted
    norms on the grid of s over the rows margin cells in from the open-axis
    edges: how far an operator image is from coeff times the reference.
    The difference is formed one block of rows at a time. A caller already
    holding ||reference||_w passes it as reference_norm; a reference norm
    of 0 (a state dead on the window) raises RangeError."""
    if reference_norm is None:
        reference_norm = weighted_norm(reference, s, exclude_margin=margin)
    defect = _streamed_norm(s, margin, lambda a, b: image[a:b] - coeff * reference[a:b])
    return _relative(defect, scale, reference_norm)


def _relative(defect: float, scale: float, norm: float) -> float:
    """defect / (scale norm), refused with RangeError unless finite: a state
    whose weighted norm underflows on the window has no relative residual."""
    ratio = defect / (scale * norm) if scale * norm > 0.0 else math.inf
    if not math.isfinite(ratio):
        raise RangeError(
            "the state's weighted norm underflows on this grid; move the window toward the weight mode"
        )
    return ratio


# stacked x-derivative applications widen the contaminated boundary band
_COMPOSED_MARGIN = 2 * FD_MARGIN


def _eigen_defect(applied: np.ndarray, s: SampledState, eigenvalue: float) -> float:
    """Relative eigen-residual of an operator image of s: the defect against
    eigenvalue times s over max(|eigenvalue|, 1) ||s||_w, on interior rows."""
    return _relative_defect(applied, s.values, s, eigenvalue, max(abs(eigenvalue), 1.0), _COMPOSED_MARGIN)


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
    return _eigen_defect(_casimir(s.values, _frame(s, p)), s, reference_eigenvalue)


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
    return _eigen_defect(_hamiltonian(s.values, _frame(s, p)), s, reference_energy)


def _quadratic_defects(
    s: SampledState, fr: _Frame, lowered: np.ndarray, eigenvalues, norm: float
) -> list[float]:
    """The Casimir and Hamiltonian residuals of s against eigenvalues, bit
    for bit as :func:`apply_casimir` and :func:`apply_hamiltonian` measure
    them, from lowered = L- v and norm = ||v||_w. One streamed pass over
    the x-stencil blocks of L- v forms L+ L- v, L3 v and L3 L3 v block by
    block and reduces both defects' row densities."""
    v, root_w = s.values, np.sqrt(s.weight)
    density = np.empty((2, s.grid.nx))
    for a, b, (dx,) in _x_stencil_blocks(lowered, fr.h, (1,)):
        rows = v[a:b]
        images = (
            _plus(dx, _dy(lowered[a:b], fr), lowered[a:b], fr.field[a:b], fr),
            _three(_dy(rows, fr), fr),
        )
        for k, image in enumerate((_casimir(rows, fr, images), _hamiltonian(rows, fr, images))):
            density[k, a:b] = _row_density(image - eigenvalues[k] * rows, root_w[a:b])
    scales = [max(abs(e), 1.0) for e in eigenvalues]
    return [_relative(_density_norm(d, s, _COMPOSED_MARGIN), c, norm) for d, c in zip(density, scales)]


def _ladder_table(p: PhysParams, grid: GridSpec, n_max: int) -> list[tuple]:
    """Rows (l, n, raise defect, lower defect, Casimir residual, Hamiltonian
    residual) of ``ladder-check`` for every n <= n_max, in (n, l) order.

    Each family l is walked upwards. A state's raise defect is measured
    once the state above is built, and L+ of the state is released before
    the images of the one above are built, so only four state-sized arrays
    are held: v, the state below, L- v and L+ v (8 MiB each at 8192x64).
    Every value is bit-identical to the operators applied on their own.
    """
    m = _COMPOSED_MARGIN
    rows = {}
    # an overflowing image is refused by the norms' finiteness tests, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(n_max):
            below = raised = None
            for n in range(l + 1, n_max + 2):
                s = wavefunction(QuantumNumbers(l, n), p, grid)
                v, fr = s.values, _frame(s, p)
                coeff = math.sqrt((n + l) * (n - l - 1))
                norm = weighted_norm(v, s, exclude_margin=m)
                if raised is not None:
                    rows[n - 1, l][2] = _relative_defect(raised, v, s, coeff, coeff, m, norm)
                raised = None
                if n > n_max:
                    break
                lowered, raised = _images(v, fr, "-+")
                # the bottom state's L- v (coeff 0) is measured against 0 v over ||v||
                reference, reference_norm = below or (v, norm)
                lower = _relative_defect(lowered, reference, s, coeff, max(coeff, 1.0), m, reference_norm)
                eigenvalues = (-float(l * (l + 1)), energy(s.labels, p))
                rows[n, l] = [l, n, None, lower, *_quadratic_defects(s, fr, lowered, eigenvalues, norm)]
                below = v, norm
                del lowered  # only v and L+ v are held while the state above is built
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
    is built, and each array is differentiated once: the images of one
    array share its derivative blocks.
    """
    v, fr = s.values, _frame(s, p)
    reference, scale, margin = v, 1.0, _COMPOSED_MARGIN
    if pair == "ladder":
        lowered, raised, l3 = _images(v, fr, "-+3")
        defect = _images(lowered, fr, "+")[0] - _images(raised, fr, "-")[0] + 2.0 * l3
    elif pair in ("three_plus", "three_minus"):
        name = "+" if pair == "three_plus" else "-"
        sign = -1.0 if pair == "three_plus" else 1.0
        stepped, l3 = _images(v, fr, name + "3")
        defect = _three(_dy(stepped, fr), fr) - _images(l3, fr, name)[0] + sign * stepped
    elif pair == "h_three":
        images = _quadratic_images(v, fr)
        reference = _hamiltonian(v, fr, images)
        defect = _hamiltonian(images[1], fr) - _three(_dy(reference, fr), fr)
    elif pair == "h_casimir":
        if s.labels is None:
            raise DomainError("the h_casimir identity check needs a labeled eigenstate")
        images = _quadratic_images(v, fr)
        defect = _hamiltonian(_casimir(v, fr, images), fr) - _casimir(_hamiltonian(v, fr, images), fr)
        margin = 4 * FD_MARGIN
        l = s.labels.l
        scale = energy(s.labels, p) * max(float(l * (l + 1)), 1.0)
    elif pair == "h_plus":
        lowered, l3, raised = _images(v, fr, "-3+")
        reference = _hamiltonian(v, fr, (_images(lowered, fr, "+")[0], l3))
        defect = _hamiltonian(raised, fr) - _images(reference, fr, "+")[0]
        margin = 3 * FD_MARGIN
    else:
        raise DomainError(f"unknown commutator pair {pair!r}")
    return _relative_defect(defect, reference, s, 0.0, scale, margin)
