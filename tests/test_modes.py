"""Mode-space kernels against the dense-array kernels they replaced.

A state is held as y-Fourier mode columns; every grid route acts on the
columns (a y-derivative multiplies each by its frequency, e^(-+i kappa y)
moves it one DFT index, and y sums are taken by Parseval). The referee
below is the dense route the package took before, kept verbatim: an FFT
y-derivative, the L+/L-/L3 images built from it and the x-stencils, and
the inner products, Gram matrix and moment formula summed over the ny
samples of every row. Random sparse mode sets, with the DFT index
wrapping across 0 and ny - 1, the Nyquist index of an even ny, and
eigenstates whose n aliases (n >= ny/2), must give the referee's values
on the synthesised samples to 1e-13 relative.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morseband import (
    GridSpec,
    MomentSet,
    PhysParams,
    QuantumNumbers,
    SampledState,
    apply_L3,
    apply_Lminus,
    apply_Lplus,
    fd_derivative,
    grid_inner_product,
    wavefunction,
    weighted_norm,
)
from morseband.moments import _grid_moments
from morseband.quadrature import _simpson_weights, _x_step, _x_stencil_blocks

TOL = 1e-13
P = PhysParams.natural()


# ------------------------------------------------------------- the referee
# The dense-array kernels as the package had them, on nx by ny samples.


def _y_derivative(values: np.ndarray, y_period: float, order: int) -> np.ndarray:
    ny = values.shape[1]
    k = 2.0 * np.pi * np.fft.fftfreq(ny, d=y_period / ny)
    spectrum = np.fft.fft(values, axis=1)
    if order == 1:
        mult = 1j * k
        if ny % 2 == 0:
            # the Nyquist mode has no well-defined first derivative sign
            mult[ny // 2] = 0.0
    else:
        mult = -(k**2)
    return np.fft.ifft(spectrum * mult, axis=1)


def _dense_frame(s, p):
    scale = p.a0 / (2.0 * math.pi)
    return {
        "h": _x_step(s.grid),
        "period": s.y_period,
        "field": ((p.e * p.B0 * p.a0 / (math.pi * p.hbar * p.c)) * np.exp(-p.kappa * s.x))[:, None],
        "lower": scale * np.exp(1j * p.kappa * s.y)[None, :],
        "upper": scale * np.exp(-1j * p.kappa * s.y)[None, :],
        "three": 1j * scale,
    }


def _dense_images(v: np.ndarray, fr: dict, names: str) -> list[np.ndarray]:
    outs = [np.empty(v.shape, dtype=complex) for _ in names]
    for a, b, (dx,) in _x_stencil_blocks(v, fr["h"], (1,)):
        dy = _y_derivative(v[a:b], fr["period"], 1)
        for name, out in zip(names, outs):
            if name == "-":
                out[a:b] = fr["lower"] * (dx + 1j * dy)
            elif name == "+":
                out[a:b] = fr["upper"] * (-dx + 1j * dy + fr["field"][a:b] * v[a:b])
            else:
                out[a:b] = fr["three"] * dy
    return outs


def _dense_row_weights(s) -> np.ndarray:
    return _simpson_weights(s.grid.nx, _x_step(s.grid)) * (s.y_period / s.grid.ny)


def _dense_braket(bra, ket, s) -> complex:
    return complex(np.sum(_dense_row_weights(s) * np.sum(bra * ket, axis=1)))


def _dense_inner_product(a, b) -> complex:
    root_w = np.sqrt(a.weight)[:, None]
    return _dense_braket(np.conj(a.values * root_w), b.values * root_w, a)


def _dense_stencil(values: np.ndarray, h: float, order: int) -> np.ndarray:
    out = np.empty(values.shape, dtype=complex)
    for a, b, (block,) in _x_stencil_blocks(values, h, (order,)):
        out[a:b] = block
    return out


def _dense_means(s, hbar: float) -> tuple[dict, dict]:
    """The raw means of the moment formula, and the same sums of absolute
    values (the scale each mean is held to)."""
    root_w = np.sqrt(s.weight)[:, None]
    values = s.values
    amp = values * root_w
    bra = np.conj(amp)
    density = np.sum(np.abs(amp) ** 2, axis=1)
    kets = [_dense_stencil(values, _x_step(s.grid), order) * root_w for order in (1, 2)]
    d1, d2 = (np.sum(bra * ket, axis=1) for ket in kets)
    a1, a2 = (np.sum(np.abs(bra * ket), axis=1) for ket in kets)
    wx = _dense_row_weights(s)
    xwx = s.x * wx
    norm = wx @ density
    means = {
        "mean_x": xwx @ density / norm,
        "mean_x2": (s.x * xwx) @ density / norm,
        "mean_p": -1j * hbar * (wx @ d1) / norm,
        "mean_p2": -(hbar**2) * (wx @ d2) / norm,
        "mean_xp": -1j * hbar * (xwx @ d1) / norm,
    }
    scales = {
        "mean_x": np.abs(xwx) @ density / norm,
        "mean_x2": (s.x * xwx) @ density / norm,
        "mean_p": hbar * (wx @ a1) / norm,
        "mean_p2": hbar**2 * (wx @ a2) / norm,
        "mean_xp": hbar * (np.abs(xwx) @ a1) / norm,
    }
    return means, scales


# ------------------------------------------------------------ the draws


def _close(got: np.ndarray, want: np.ndarray, s) -> None:
    """got within TOL of want, relative to want's largest value or to the
    state's largest value times the grid's largest y frequency pi ny /
    y_period, whichever is larger: the referee's FFT rounds every index
    and its derivative scales each by its frequency, and an image of the
    index 0 alone is zero."""
    q_max = math.pi * s.grid.ny / s.y_period
    scale = max(float(np.max(np.abs(want))), float(np.max(np.abs(s.values))) * q_max)
    assert float(np.max(np.abs(got - want))) <= TOL * scale


@st.composite
def _mode_states(draw, count: int = 1):
    """count states on one grid of ny in 8..64, each a sparse set of random
    mode columns; index sets lean on 0, ny - 1 and ny // 2."""
    ny = draw(st.integers(8, 64))
    nx = draw(st.integers(16, 40))
    x_c = P.x_weight_mode
    grid = GridSpec(x_c - 0.3 * P.a0, x_c + 0.7 * P.a0, nx, ny)
    x = np.linspace(grid.x_min, grid.x_max, nx)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = np.exp(-((x - x_c) ** 2)) * rng.uniform(0.5, 1.5, nx)
    states = []
    for _ in range(count):
        base = draw(st.sets(st.integers(0, ny - 1), min_size=1, max_size=ny))
        edges = draw(st.sampled_from([set(), {0}, {ny - 1}, {ny // 2}, {0, ny // 2, ny - 1}]))
        k = np.array(sorted(base | edges))
        modes = rng.standard_normal((nx, k.size)) + 1j * rng.standard_normal((nx, k.size))
        states.append(SampledState(grid=grid, modes=modes, k=k, weight=weight, y_period=P.a0))
    return states


class TestAgainstDenseReferee:
    @given(states=_mode_states())
    @settings(max_examples=150, deadline=None)
    def test_y_derivative(self, states):
        (s,) = states
        for order in (1, 2):
            got = SampledState(
                grid=s.grid, modes=fd_derivative(s.modes, s, "y", order), k=s.k, weight=s.weight, y_period=s.y_period
            ).values
            _close(got, _y_derivative(s.values, s.y_period, order), s)

    @given(states=_mode_states())
    @settings(max_examples=150, deadline=None)
    def test_ladder_images(self, states):
        (s,) = states
        fr = _dense_frame(s, P)
        lowered, raised, l3 = _dense_images(s.values, fr, "-+3")
        _close(apply_Lminus(s, P).values, lowered, s)
        _close(apply_Lplus(s, P).values, raised, s)
        _close(apply_L3(s, P).values, l3, s)

    @given(states=_mode_states(count=3))
    @settings(max_examples=150, deadline=None)
    def test_inner_products_and_gram(self, states):
        norms = [weighted_norm(s.modes, s) for s in states]
        for s, norm in zip(states, norms):
            want = math.sqrt(_dense_inner_product(s, s).real)
            assert abs(norm - want) <= TOL * want
        for i, a in enumerate(states):
            for j in range(i, len(states)):
                want = _dense_inner_product(a, states[j])
                assert abs(grid_inner_product(a, states[j]) - want) <= TOL * norms[i] * norms[j]

    @given(states=_mode_states())
    @settings(max_examples=150, deadline=None)
    def test_moment_formula(self, states):
        (s,) = states
        original = MomentSet.from_means
        try:
            MomentSet.from_means = classmethod(lambda cls, **means: means)
            got = _grid_moments(s, 0.7)
        finally:
            MomentSet.from_means = original
        want, scale = _dense_means(s, 0.7)
        for name in want:
            assert abs(got[name] - want[name]) <= TOL * scale[name], name

    @given(
        ny=st.integers(8, 64),
        l=st.integers(0, 2),
        excess=st.integers(0, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_aliased_eigenstates(self, ny, l, excess):
        # n >= ny/2: the plane wave e^(-i n kappa y) lands on the DFT index
        # -n mod ny, whose frequency is not -n; the dense route aliases the same way
        n = max(ny // 2, l + 1) + excess
        x_c = P.x_weight_mode
        s = wavefunction(QuantumNumbers(l, n), P, GridSpec(x_c, x_c + 2.0 * P.a0, 48, ny))
        assert s.k.tolist() == [-n % ny]
        fr = _dense_frame(s, P)
        lowered, raised, l3 = _dense_images(s.values, fr, "-+3")
        _close(apply_Lminus(s, P).values, lowered, s)
        _close(apply_Lplus(s, P).values, raised, s)
        _close(apply_L3(s, P).values, l3, s)
        if 2 * s.k[0] == ny:
            assert np.all(apply_L3(s, P).modes == 0.0)
