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

Mode space: a state is held as its y-Fourier mode columns (see
``states.SampledState``). The y-derivative multiplies each column by its
index's frequency, and e^(-+i kappa y) moves every column one DFT index
down or up, times the constant phase e^(-+i kappa y[0]) = -1 of
y[0] = -a0/2. So L3 keeps a state's indices, L+ lowers each by one and
L- raises it by one (an eigenstate's one column stays one column), the
x-stencils of ``quadrature`` act on the columns, and no FFT is taken.
L+ and L- each build one image per x-stencil pass, one cache-sized
block of rows at a time, so an image built block by block is
bit-identical to one built on the whole array; L3 needs no stencil.
Every residual is ``_relative_defect``, which forms
image - coeff reference a block of rows at a time; ``ladder-check``
measures its raise and lower defects and its Casimir and Hamiltonian
residuals through it, as the operators applied on their own do.
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
    _streamed_norm,
    _x_step,
    _x_stencil_blocks,
    _y_multiplier,
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


class _Modes(NamedTuple):
    """Mode columns and their ascending DFT indices, laid out as a
    SampledState holds them; a state serves wherever one is taken."""

    modes: np.ndarray
    k: np.ndarray


class _Frame(NamedTuple):
    """What the generators take from the grid and the parameters: the x
    step, ny, the first y-derivative multiplier of every DFT index, the
    multiplicative term of L+ as a column, the factor (a0/2pi) e^(-+i kappa
    y[0]) of L+ and L-, and the scales of L3 and H."""

    h: float
    ny: int
    dy: np.ndarray
    field: np.ndarray
    step: float
    three: complex
    energy: float


def _frame(s: SampledState, p: PhysParams) -> _Frame:
    if s.y_period != p.a0:
        raise DomainError(
            f"the state's period {s.y_period!r} is not a0 = {p.a0!r}: e^(i kappa y) is not one mode step"
        )
    scale = p.a0 / (2.0 * math.pi)
    ny = s.grid.ny
    return _Frame(
        h=_x_step(s.grid),
        ny=ny,
        dy=_y_multiplier(np.arange(ny), ny, s.y_period, 1),
        field=((p.e * p.B0 * p.a0 / (math.pi * p.hbar * p.c)) * np.exp(-p.kappa * s.x))[:, None],
        step=-scale,
        three=1j * scale,
        energy=2.0 * math.pi**2 * p.hbar**2 / (p.mu * p.a0**2),
    )


def _l3(v, fr: _Frame) -> _Modes:
    """L3 v of whole mode columns: each column times its frequency."""
    return _Modes(fr.three * (v.modes * fr.dy[v.k]), v.k)


# DFT index step of each ladder generator's image: e^(+i kappa y) in L- raises it
_STEPS = {"-": 1, "+": -1}


def _shifted(k: np.ndarray, step: int, ny: int) -> tuple[np.ndarray, np.ndarray | slice]:
    """The indices k moved by step (mod ny) in ascending order, and the
    source column of each: a slice when no index wraps around."""
    moved = (k + step) % ny
    order = np.argsort(moved)
    return moved[order], slice(None) if np.array_equal(order, np.arange(k.size)) else order


def _image(v, fr: _Frame, name: str) -> _Modes:
    """The image of the mode columns v under L- (name "-") or L+ (name
    "+"), on their indices moved by the generator's step. One streamed
    pass over the row blocks takes dx v and dy v once per block."""
    k, order = _shifted(v.k, _STEPS[name], fr.ny)
    dy_k = fr.dy[v.k]
    out = np.empty(v.modes.shape, dtype=complex)
    for a, b, (dx,) in _x_stencil_blocks(v.modes, fr.h, (1,)):
        rows = v.modes[a:b]
        if name == "-":
            image = fr.step * (dx + 1j * (rows * dy_k))
        else:
            image = fr.step * (-dx + 1j * (rows * dy_k) + fr.field[a:b] * rows)
        out[a:b] = image[:, order]
    return _Modes(out, k)


def _quadratic_images(v, fr: _Frame) -> tuple[_Modes, _Modes]:
    """(L+ L- v, L3 v): the two images both quadratic operators are
    built from, each on the indices of v."""
    return _image(_image(v, fr, "-"), fr, "+"), _l3(v, fr)


def _hamiltonian(v, fr: _Frame, images=None) -> _Modes:
    """H v from the images of :func:`_quadratic_images`, computed here
    unless the caller already holds them. Where only the energy scale's
    factor overflows a finite image, RangeError names the scale rather
    than the window."""
    lpm, l3 = _quadratic_images(v, fr) if images is None else images
    inner = lpm.modes + l3.modes - 0.25 * v.modes
    out = fr.energy * inner
    if not np.all(np.isfinite(out)) and np.all(np.isfinite(inner)):
        raise RangeError(
            f"H v overflows at the energy scale 2 pi^2 hbar^2 / (mu a0^2) = {fr.energy:.3e} of these "
            "parameters, not for the window; lower hbar, or raise mu or a0"
        )
    return _Modes(out, v.k)


def _casimir(v, fr: _Frame, images=None) -> _Modes:
    """C v = (L+ L- - L3^2 + L3) v, from the images as in :func:`_hamiltonian`."""
    lpm, l3 = _quadratic_images(v, fr) if images is None else images
    return _Modes(lpm.modes - fr.three * (l3.modes * fr.dy[v.k]) + l3.modes, v.k)


def apply_Lplus(s: SampledState, p: PhysParams) -> SampledState:
    """Raising operator: (a0/2pi) e^(-i kappa y)
    (-d/dx + i d/dy + (e B0 a0 / pi hbar c) e^(-kappa x)).

    The charge is negative, so the multiplicative term equals
    -kappa beta e^(-kappa x). On the level (l, n-1) this produces
    sqrt((n+l)(n-l-1)) times the level (l, n). Returns the image as an
    unlabeled state on the grid of s, each mode index one lower.
    """
    image = _image(s, _frame(s, p), "+")
    return dataclasses.replace(s, modes=image.modes, k=image.k, labels=None)


def apply_Lminus(s: SampledState, p: PhysParams) -> SampledState:
    """Lowering operator: (a0/2pi) e^(+i kappa y) (d/dx + i d/dy).

    Annihilates the bottom level (l, l+1) of each vertical family.
    Returns the image as an unlabeled state on the grid of s, each mode
    index one higher.
    """
    image = _image(s, _frame(s, p), "-")
    return dataclasses.replace(s, modes=image.modes, k=image.k, labels=None)


def apply_L3(s: SampledState, p: PhysParams) -> SampledState:
    """Number operator i (a0/2pi) d/dy; eigenvalue n on the level (l, n).

    Diagonal in the mode columns, so it adds no open-axis boundary
    contamination. Returns the image as an unlabeled state on the grid
    of s.
    """
    return dataclasses.replace(s, modes=_l3(s, _frame(s, p)).modes, labels=None)


def _aligned(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The mode columns of a and of b on one layout: their own when their
    indices agree, else each padded with zero columns to the union of
    their indices."""
    if np.array_equal(a.k, b.k):
        return a.modes, b.modes
    k = np.union1d(a.k, b.k)
    padded = []
    for m in (a, b):
        out = np.zeros((m.modes.shape[0], k.size), dtype=complex)
        out[:, np.searchsorted(k, m.k)] = m.modes
        padded.append(out)
    return tuple(padded)


def _relative_defect(
    image, reference, s: SampledState, coeff, scale: float, margin: int,
    reference_norm: float | None = None,
) -> float:
    """||image - coeff reference||_w / (scale ||reference||_w), both weighted
    norms on the grid of s over the rows margin cells in from the open-axis
    edges: how far an operator image is from coeff times the reference.
    image and reference are mode columns with their indices (a state or
    the images of one); the difference is formed one block of rows at a
    time, on the union of their indices. A caller already holding
    ||reference||_w passes it as reference_norm; a reference norm of 0 (a
    state dead on the window) raises RangeError."""
    if reference_norm is None:
        reference_norm = _streamed_norm(s, margin, lambda a, b: reference.modes[a:b])
    img, ref = _aligned(image, reference)
    defect = _streamed_norm(s, margin, lambda a, b: img[a:b] - coeff * ref[a:b])
    ratio = defect / (scale * reference_norm) if scale * reference_norm > 0.0 else math.inf
    if not math.isfinite(ratio):
        raise RangeError(
            "the state's weighted norm underflows on this grid; move the window toward the weight mode"
        )
    return ratio


# stacked x-derivative applications widen the contaminated boundary band
_COMPOSED_MARGIN = 2 * FD_MARGIN


def _eigen_defect(applied, s: SampledState, eigenvalue: float, norm: float | None = None) -> float:
    """Relative eigen-residual of an operator image of s: the defect against
    eigenvalue times s over max(|eigenvalue|, 1) ||s||_w, on interior rows;
    a caller already holding ||s||_w there passes it as norm."""
    return _relative_defect(applied, s, s, eigenvalue, max(abs(eigenvalue), 1.0), _COMPOSED_MARGIN, norm)


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
    return _eigen_defect(_casimir(s, _frame(s, p)), s, reference_eigenvalue)


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
    return _eigen_defect(_hamiltonian(s, _frame(s, p)), s, reference_energy)


def _ladder_table(p: PhysParams, grid: GridSpec, n_max: int) -> list[tuple]:
    """Rows (l, n, raise defect, lower defect, Casimir residual, Hamiltonian
    residual) of ``ladder-check`` for every n <= n_max, in (n, l) order.

    Each family l is walked upwards. A state's raise defect is measured
    once the state above is built, so each state, its images and the
    state below are held: one mode column each. Every value is measured
    as the operators applied on their own measure it.
    """
    m = _COMPOSED_MARGIN
    rows = {}
    # an overflowing image is refused by the norms' finiteness tests, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(n_max):
            below = raised = None
            for n in range(l + 1, n_max + 2):
                s = wavefunction(QuantumNumbers(l, n), p, grid)
                fr = _frame(s, p)
                coeff = math.sqrt((n + l) * (n - l - 1))
                norm = weighted_norm(s.modes, s, exclude_margin=m)
                if raised is not None:
                    rows[n - 1, l][2] = _relative_defect(raised, s, s, coeff, coeff, m, norm)
                if n > n_max:
                    break
                lowered, raised = _image(s, fr, "-"), _image(s, fr, "+")
                # the bottom state's L- v (coeff 0) is measured against 0 v over ||v||
                reference, reference_norm = below or (s, norm)
                lower = _relative_defect(lowered, reference, s, coeff, max(coeff, 1.0), m, reference_norm)
                images = _image(lowered, fr, "+"), _l3(s, fr)
                casimir = _eigen_defect(_casimir(s, fr, images), s, -float(l * (l + 1)), norm)
                hamiltonian = _eigen_defect(_hamiltonian(s, fr, images), s, energy(s.labels, p), norm)
                rows[n, l] = [l, n, None, lower, casimir, hamiltonian]
                below = s, norm
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

    The operators are composed on mode columns; no intermediate state
    is built.
    """
    fr = _frame(s, p)
    # the defect's mode indices are those of s unless it ends one index down
    reference, scale, margin, k = s, 1.0, _COMPOSED_MARGIN, s.k
    if pair == "ladder":
        lpm, l3 = _quadratic_images(s, fr)
        defect = lpm.modes - _image(_image(s, fr, "+"), fr, "-").modes + 2.0 * l3.modes
    elif pair in ("three_plus", "three_minus"):
        name = "+" if pair == "three_plus" else "-"
        sign = -1.0 if pair == "three_plus" else 1.0
        stepped = _image(s, fr, name)
        defect = _l3(stepped, fr).modes - _image(_l3(s, fr), fr, name).modes + sign * stepped.modes
        k = stepped.k
    elif pair == "h_three":
        images = _quadratic_images(s, fr)
        reference = _hamiltonian(s, fr, images)
        defect = _hamiltonian(images[1], fr).modes - _l3(reference, fr).modes
    elif pair == "h_casimir":
        if s.labels is None:
            raise DomainError("the h_casimir identity check needs a labeled eigenstate")
        images = _quadratic_images(s, fr)
        defect = _hamiltonian(_casimir(s, fr, images), fr).modes - _casimir(_hamiltonian(s, fr, images), fr).modes
        margin = 4 * FD_MARGIN
        l = s.labels.l
        scale = energy(s.labels, p) * max(float(l * (l + 1)), 1.0)
    elif pair == "h_plus":
        raised = _image(s, fr, "+")
        reference = _hamiltonian(s, fr)
        defect = _hamiltonian(raised, fr).modes - _image(reference, fr, "+").modes
        margin = 3 * FD_MARGIN
        k = raised.k
    else:
        raise DomainError(f"unknown commutator pair {pair!r}")
    return _relative_defect(_Modes(defect, k), reference, s, 0.0, scale, margin)
