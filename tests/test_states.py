"""Bound states: normalization, dual construction routes, and the ODE.

The Gram matrix under the measure weight is the primary oracle: it pins
the normalization constant, the weight function, and the grid all at
once. The exact-arithmetic derivative route (Rodrigues style) checks
the Laguerre construction from outside, and the radial ODE residual is
evaluated with analytic derivatives so a formula error cannot hide
behind discretization error.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from morseband import (
    DomainError,
    GridSpec,
    LandauParams,
    PhysParams,
    QuantumNumbers,
    RangeError,
    assoc_bessel,
    assoc_bessel_rodrigues,
    default_grid,
    energy,
    grid_inner_product,
    landau_state_asym,
    landau_state_sym,
    measure_weight,
    ode_residual,
    wavefunction,
)
from morseband import coherent, states
from morseband.coherent import CoherentSpec
from morseband.states import landau_box


def _sym_expression(n, l, p_box, grid):
    """The symmetric-gauge Landau samples written as one complex product."""
    r_c = LandauParams.cyclotron_radius(p_box)
    xx = np.linspace(grid.x_min, grid.x_max, grid.nx)[:, None]
    yy = (-0.5 * p_box.a0 + np.arange(grid.ny) * (p_box.a0 / grid.ny))[None, :]
    s = math.sqrt(2.0) * r_c
    rho2 = xx * xx + yy * yy
    norm = math.exp(0.5 * (math.lgamma(n + 1.0) - math.lgamma(n + l + 1.0)) - 0.5 * math.log(math.pi))
    vortex = ((xx + 1j * yy) / s) ** l
    return (
        norm / s * vortex * np.exp(-rho2 / (4.0 * r_c * r_c))
        * special.eval_genlaguerre(n, float(l), rho2 / (2.0 * r_c * r_c))
    )


class TestMeasureWeight:
    def test_closed_form_samples(self, p):
        for x in (-3.0, 0.0, 1.5, 5.0):
            want = math.exp(x) * math.exp(-2.0 * math.exp(-x))
            assert abs(measure_weight(x, p) - want) <= 1e-15 * want

    def test_reference_point_and_value(self, p):
        # x_weight_mode marks beta e^(-kappa x) = 1; the weight itself
        # grows monotonically and only weighted densities have a peak
        x_c = p.x_weight_mode
        assert abs(measure_weight(x_c, p) - 2.0 / math.e) <= 1e-14
        assert abs(p.beta * math.exp(-p.kappa * x_c) - 1.0) <= 1e-15
        assert measure_weight(x_c + 1.0, p) > measure_weight(x_c, p)

    def test_array_input(self, p):
        x = np.array([-1.0, 0.5, 2.0])
        got = measure_weight(x, p)
        assert got.shape == (3,)
        assert np.all(got > 0)

    def test_dead_growing_side_is_zero_without_warnings(self, p):
        # exp(-kappa x) overflows to inf below about x = -709/kappa
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert measure_weight(-2000.0, p) == 0.0
            got = measure_weight(np.array([-2000.0, -800.0, 1.0]), p)
        assert got[0] == 0.0 and got[1] == 0.0 and got[2] > 0.0


class TestOrthonormality:
    def test_gram_matrix_up_to_n4(self, p):
        grid = default_grid(p)
        states = [
            wavefunction(QuantumNumbers(l, n), p, grid)
            for n in range(1, 5)
            for l in range(n)
        ]
        worst = 0.0
        for i, a in enumerate(states):
            for b in states[i:]:
                want = 1.0 if a.labels == b.labels else 0.0
                worst = max(worst, abs(grid_inner_product(a, b) - want))
        assert worst <= 1e-8

    def test_lowest_states_normalize_to_one(self, p):
        # n = l + 1 states pin the normalization constant against the
        # weight family for every l independently
        grid = default_grid(p)
        for l in range(9):
            s = wavefunction(QuantumNumbers(l, l + 1), p, grid)
            assert abs(grid_inner_product(s, s).real - 1.0) <= 1e-10

    def test_labels_and_frozen_arrays(self, p):
        s = wavefunction(QuantumNumbers(1, 3), p, default_grid(p))
        assert s.labels == QuantumNumbers(1, 3)
        for arr in (s.values, s.modes, s.k, s.x, s.y, s.weight):
            with pytest.raises((ValueError, RuntimeError)):
                arr[0] = 0.0

    def test_overflowing_window_is_refused(self, p):
        x_c = p.x_weight_mode
        grid = GridSpec(x_c - 30.0 * p.a0, x_c + p.a0, 64, 8)
        with pytest.raises(RangeError):
            wavefunction(QuantumNumbers(3, 6), p, grid)

    def test_window_past_the_profile_argument_range_is_refused(self, p):
        # xi = e^(kappa x) = e^-712 is subnormal at the left edge, so beta/xi
        # overflows: the same growing-side overflow, not a domain error of
        # the Laguerre factor
        grid = GridSpec(-712.0 / p.kappa, p.x_weight_mode, 64, 8)
        with pytest.raises(RangeError):
            wavefunction(QuantumNumbers(3, 6), p, grid)

    @pytest.mark.parametrize("edge", [-712.0, -760.0])
    def test_both_growing_side_edges_give_one_error(self, p, edge):
        # at -712/kappa xi is subnormal and beta/xi overflows; at -760/kappa
        # xi itself underflows to 0: the same window defect either way
        grid = GridSpec(edge / p.kappa, 1.0, 64, 8)
        with pytest.raises(RangeError, match="shrink the window on the growing side"):
            wavefunction(QuantumNumbers(3, 6), p, grid)


class TestProfileRoutes:
    def test_laguerre_route_matches_exact_derivative_route(self):
        for l, n in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4)):
            for xi in (0.45, 0.9, 1.7, 3.3, 7.1):
                a = assoc_bessel(l, n, 2.0, xi)
                b = assoc_bessel_rodrigues(l, n, 2.0, xi)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_off_natural_beta(self):
        for xi in (0.6, 2.2):
            a = assoc_bessel(1, 3, 0.7, xi)
            b = assoc_bessel_rodrigues(1, 3, 0.7, xi)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_dead_prefactor_underflows_to_zero(self):
        assert assoc_bessel(120, 121, 2.0, 20.0) == 0.0
        values = assoc_bessel(120, 121, 2.0, np.array([1.0, 20.0]))
        assert values[0] > 0.0
        assert values[1] == 0.0

    def test_guards(self):
        with pytest.raises(DomainError):
            assoc_bessel(0, 1, -2.0, 1.0)
        with pytest.raises(DomainError):
            assoc_bessel(0, 1, 2.0, 0.0)
        with pytest.raises(DomainError):
            assoc_bessel_rodrigues(2, 2, 2.0, 1.0)


class TestRadialEquation:
    def test_residual_vanishes_at_level_energy(self, p):
        xi = np.geomspace(0.2, 20.0, 25)
        worst = 0.0
        for n in range(1, 6):
            for l in range(n):
                worst = max(worst, ode_residual(QuantumNumbers(l, n), p, xi))
        assert worst <= 1e-10

    def test_wrong_energy_is_loud(self, p):
        xi = np.geomspace(0.2, 20.0, 25)
        q = QuantumNumbers(1, 3)
        right = ode_residual(q, p, xi)
        wrong = ode_residual(q, p, xi, energy_value=1.01 * energy(q, p))
        assert wrong > 1e-3
        assert wrong > 1000.0 * max(right, 1e-13)


class TestLandauStates:
    @pytest.mark.parametrize("k_y", [0.0, 0.7, -1.9])
    def test_box_is_24_cyclotron_radii(self, p, k_y):
        # the box export and landau_delta sample in, written out as before
        r_c = LandauParams.cyclotron_radius(p)
        asym = LandauParams(gauge="asymmetric", N=1, k_y=k_y)
        centre = asym.guiding_centre(p)
        p_box, grid = landau_box(asym, p, 1024, 8)
        assert p_box == replace(p, a0=24.0 * r_c)
        assert grid == GridSpec(centre - 12.0 * r_c, centre + 12.0 * r_c, 1024, 8)
        p_box, grid = landau_box(LandauParams(gauge="symmetric", n=1, l=2), p, 4096, 512)
        assert p_box == replace(p, a0=24.0 * r_c)
        assert grid == GridSpec(-12.0 * r_c, 12.0 * r_c, 4096, 512)

    def test_values_are_the_fields_own_samples(self, p):
        # k_y off the grid's frequencies spreads the plane wave over every
        # column; values evaluates the field again, while a state derived
        # through replace has no field and synthesises its modes
        lp = LandauParams(gauge="asymmetric", N=1, k_y=0.7)
        p_box, grid = landau_box(lp, p, 64, 8)
        s = landau_state_asym(lp, p_box, grid)
        x, y = s.x[:, None], s.y[None, :]
        r_c = lp.cyclotron_radius(p)
        t = (x - lp.guiding_centre(p)) / r_c
        norm = 1.0 / (2.0 * math.pi * math.sqrt(math.sqrt(math.pi) * r_c * 2.0))
        want = norm * np.exp(-0.5 * t * t) * (2.0 * t) * np.exp(-0.7j * y)
        assert np.max(np.abs(s.values - want) / np.abs(want)) <= 1e-14
        assert np.array_equal(s.values, s.values)
        with pytest.raises(ValueError):
            s.values[0, 0] = 0.0
        doubled = replace(s, modes=2.0 * s.modes).values
        assert np.max(np.abs(doubled - 2.0 * want)) <= 1e-14 * np.max(np.abs(want))

    def test_asym_x_density_integral(self, p):
        lp = LandauParams(gauge="asymmetric", N=2, k_y=0.7)
        r_c = LandauParams.cyclotron_radius(p)
        x0 = lp.guiding_centre(p)
        assert abs(x0 - 0.7 * r_c**2) <= 1e-15
        grid = GridSpec(x0 - 12.0 * r_c, x0 + 12.0 * r_c, 2048, 8)
        s = landau_state_asym(lp, p, grid)
        dx = (grid.x_max - grid.x_min) / (grid.nx - 1)
        got = float(np.sum(np.abs(s.values[:, 0]) ** 2) * dx)
        want = 1.0 / (4.0 * math.pi**2)
        assert abs(got - want) <= 1e-10 * want

    def test_sym_plane_norm_and_angular_orthogonality(self, p):
        box = 20.0
        p_box = replace(p, a0=box)
        grid = GridSpec(-0.5 * box, 0.5 * box, 1024, 256)
        s00 = landau_state_sym(0, 0, p_box, grid)
        s02 = landau_state_sym(0, 2, p_box, grid)
        dx = box / (grid.nx - 1)
        dy = box / grid.ny
        norm = float(np.sum(np.abs(s00.values) ** 2) * dx * dy)
        assert abs(norm - 1.0) <= 1e-8
        overlap = complex(np.sum(np.conj(s00.values) * s02.values) * dx * dy)
        assert abs(overlap) <= 1e-10

    def test_sym_norm_with_radial_nodes(self, p):
        box = 24.0
        p_box = replace(p, a0=box)
        grid = GridSpec(-0.5 * box, 0.5 * box, 1536, 384)
        s = landau_state_sym(2, 1, p_box, grid)
        dx = box / (grid.nx - 1)
        dy = box / grid.ny
        norm = float(np.sum(np.abs(s.values) ** 2) * dx * dy)
        assert abs(norm - 1.0) <= 1e-8

    @pytest.mark.parametrize("n, l", [(0, 0), (1, 0), (1, 1), (1, 2), (3, 3)])
    def test_sym_state_is_built_in_place(self, p, n, l):
        # landau_delta's grid; the reference is the state's expression written
        # as one product, which holds about seven full temporaries (112 MiB),
        # and transformed whole; evaluated and transformed a block of rows
        # at a time, only the 32 MiB of mode columns is full-size
        r_c = LandauParams.cyclotron_radius(p)
        p_box = replace(p, a0=24.0 * r_c)
        grid = GridSpec(-12.0 * r_c, 12.0 * r_c, 4096, 512)
        tracemalloc.start()
        try:
            state = landau_state_sym(n, l, p_box, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20
        want = _sym_expression(n, l, p_box, grid)
        assert np.array_equal(state.k, np.arange(grid.ny))
        modes = np.fft.fft(want, axis=1, norm="forward")
        assert np.array_equal(state.modes.view(np.uint64), modes.view(np.uint64))
        # the samples are the field's own, evaluated again
        assert np.array_equal(state.values.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n, l", [(n, l) for n in range(4) for l in range(4)])
    @pytest.mark.parametrize(
        "x_min, x_max, nx", [(-12.0, 12.0, 33), (-400.0, 400.0, 65)], ids=["odd-nx", "underflowing"]
    )
    def test_sym_samples_keep_signed_zeros(self, p, n, l, x_min, x_max, nx):
        # an odd nx puts x = 0.0 on the grid, so one sample has the base
        # x + iy = 0; out at |x| = 400 r_c the Gaussian underflows, and
        # every factor's zero signs are those of the complex expression
        r_c = LandauParams.cyclotron_radius(p)
        p_box = replace(p, a0=24.0 * r_c)
        grid = GridSpec(x_min * r_c, x_max * r_c, nx, 16)
        x = np.linspace(grid.x_min, grid.x_max, grid.nx)
        assert 0.0 in x
        want = _sym_expression(n, l, p_box, grid)
        got = landau_state_sym(n, l, p_box, grid).values
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_label_validation(self):
        with pytest.raises(DomainError):
            LandauParams(gauge="asymmetric")
        with pytest.raises(DomainError):
            LandauParams(gauge="asymmetric", N=1, n=0)
        with pytest.raises(DomainError):
            LandauParams(gauge="symmetric", n=0)
        with pytest.raises(DomainError):
            LandauParams(gauge="landau")
        lp = LandauParams(gauge="symmetric", n=0, l=0)
        with pytest.raises(DomainError):
            lp.guiding_centre(PhysParams.natural())

    @pytest.mark.parametrize("k_y", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_ky_is_refused(self, k_y):
        for labels in ({"gauge": "asymmetric", "N": 0}, {"gauge": "symmetric", "n": 0, "l": 0}):
            with pytest.raises(DomainError, match="k_y"):
                LandauParams(**labels, k_y=k_y)

    def test_a_guiding_centre_with_no_distinct_samples_is_refused(self, p):
        # r_c = 1 here: at x0 = 1e15 the doubles are 0.125 apart, wider than
        # the step 0.023 of 1024 samples over 24; at 1e13 they are 0.002 apart
        for k_y in (1e200, -1e200, 1e15):
            with pytest.raises(DomainError, match="k_y"):
                landau_box(LandauParams(gauge="asymmetric", N=0, k_y=k_y), p, 1024, 8)
        _, grid = landau_box(LandauParams(gauge="asymmetric", N=0, k_y=1e13), p, 1024, 8)
        assert np.all(np.diff(np.linspace(grid.x_min, grid.x_max, grid.nx)) > 0.0)

    def test_gauge_mismatch_raises(self, p):
        grid = GridSpec(-1.0, 1.0, 16, 8)
        with pytest.raises(DomainError):
            landau_state_asym(LandauParams(gauge="symmetric", n=0, l=0), p, grid)


class TestFrame:
    # a grid's axes, and xi and the measure weight of a grid and parameters,
    # are built once per key and frozen; every build reads the same arrays

    def test_arrays_are_frozen_and_shared(self, p):
        grid = default_grid(p)
        fr = states._frame(grid, p)
        for arr in (*states._grid_axes(grid, p.a0), fr.weight, fr.u, fr.ln_xi):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        a = wavefunction(QuantumNumbers(0, 1), p, grid)
        b = wavefunction(QuantumNumbers(1, 3), p, grid)
        assert a.weight is b.weight
        assert a.x is b.x and a.y is b.y

    def test_a_zero_edge_keeps_its_sign(self, p):
        # -0.0 == 0.0 as a key, but linspace keeps the edge's sign
        for edge in (0.0, -0.0, 0.0):
            x = states._grid_axes(GridSpec(-12.0, edge, 16, 8), p.a0)[0]
            assert math.copysign(1.0, x[-1]) == math.copysign(1.0, edge)

    def test_the_weight_is_checked_once_per_frame(self, p, monkeypatch):
        calls = []
        weight_ok = states._weight_ok
        monkeypatch.setattr(states, "_weight_ok", lambda w: calls.append(w.size) or weight_ok(w))
        # a key no other test builds, so its frame is built here
        grid = GridSpec(p.x_weight_mode - 2.0, p.x_weight_mode + 7.0, 131, 8)
        for n in (1, 2, 3):
            wavefunction(QuantumNumbers(0, n), p, grid)
        assert calls == [131]
        # a weight that is no frame's is checked on every state, and refused
        with pytest.raises(DomainError, match="finite and non-negative"):
            states.SampledState(grid, np.ones((131, 1)), np.array([0]), -np.ones(131), p.a0)
        assert calls == [131, 131]

    def test_the_profile_is_assoc_bessels(self, p):
        # wavefunction reads u and ln xi from the frame; assoc_bessel
        # computes them from xi; the profile is the same bits
        grid = default_grid(p)
        xi = np.exp(p.kappa * states._grid_axes(grid, p.a0)[0])
        for q in (QuantumNumbers(0, 1), QuantumNumbers(2, 5), QuantumNumbers(7, 9)):
            amp = math.sqrt(-p.e * p.B0 / (math.pi * p.hbar * p.c) * (2 * q.l + 1))
            want = (amp * assoc_bessel(q.l, q.n, p.beta, xi)) * (-1.0 if q.n % 2 else 1.0)
            got = wavefunction(q, p, grid).modes[:, 0]
            assert np.array_equal(got.real.view(np.uint64), want.view(np.uint64)) and not np.any(got.imag)

    def test_builds_are_those_of_directly_computed_arrays(self, p, monkeypatch):
        # each build twice through the caches, and once from axes and a
        # weight computed directly, bit for bit
        grid = GridSpec(p.x_weight_mode - 3.0, p.x_weight_mode + 9.0, 97, 16)
        lp = LandauParams(gauge="asymmetric", N=2, k_y=0.7)
        p_box, box = landau_box(lp, p, 96, 16)
        builds = {
            "eigen": lambda: wavefunction(QuantumNumbers(1, 3), p, grid),
            "coherent": lambda: coherent._closed_field(CoherentSpec(1, 1.2 - 0.4j), p, grid),
            "landau-asym": lambda: states._landau_asym_field(lp, p_box, box),
            "landau-sym": lambda: states._landau_sym_field(2, 1, p_box, box),
        }

        def bits(s):
            return [a.view(np.uint64).tobytes() for a in (s.values, s.x, s.y, s.weight)]

        cached = {name: [bits(build()), bits(build())] for name, build in builds.items()}

        def axes(grid, y_period):
            x = np.linspace(grid.x_min, grid.x_max, grid.nx)
            return x, -0.5 * y_period + np.arange(grid.ny) * (y_period / grid.ny)

        def frame(grid, p):
            x = np.linspace(grid.x_min, grid.x_max, grid.nx)
            xi = np.exp(p.kappa * x)
            return states._Frame(measure_weight(x, p), p.beta / xi, np.log(xi), None)

        for module in (states, coherent):
            monkeypatch.setattr(module, "_grid_axes", axes)
            monkeypatch.setattr(module, "_frame", frame)
        for name, build in builds.items():
            assert cached[name] == [bits(build())] * 2, name
