"""Quadrature and derivative engine against closed-form moment oracles.

The half-line engine is checked against polygamma and Gamma closed forms
and against the trapezoid sums it is defined by. Synthetic
SampledState instances (plain polynomials, unit weight) expose the
strip-grid inner product and the finite-difference stencils directly.
"""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from morseband import (
    ConvergenceError,
    DomainError,
    GridMismatchError,
    GridSpec,
    IntegrationResult,
    RangeError,
    SampledState,
    fd_derivative,
    grid_inner_product,
    integrate_semi_infinite_u,
    weighted_norm,
)
from morseband.quadrature import (
    _EDGE1_ROW0,
    _EDGE1_ROW1,
    _EDGE2_ROW0,
    _EDGE2_ROW1,
    _row_weights,
)

mpmath.mp.dps = 30


class TestSemiInfinite:
    def test_log_moments_against_polygamma_closed_forms(self):
        # int u^(nu-1) e^-u ln u du = Gamma(nu) psi(nu); the squared-log
        # version adds Gamma(nu) psi'(nu)
        for nu in (0.1, 1.0, 2.5, 41.0):
            res = integrate_semi_infinite_u(np.log, nu - 1.0)
            want = float(mpmath.gamma(nu) * mpmath.digamma(nu))
            assert abs(res.value - want) <= 1e-12 * max(1.0, abs(want))

            res2 = integrate_semi_infinite_u(lambda u: np.log(u) ** 2, nu - 1.0)
            want2 = float(
                mpmath.gamma(nu) * (mpmath.digamma(nu) ** 2 + mpmath.polygamma(1, nu))
            )
            assert abs(res2.value - want2) <= 1e-12 * max(1.0, abs(want2))

    def test_singular_weight_endpoint(self):
        res = integrate_semi_infinite_u(lambda u: np.ones_like(u), -0.9)
        want = math.gamma(0.1)
        assert abs(res.value - want) <= 1e-11 * want

    def test_high_degree_monomial(self):
        res = integrate_semi_infinite_u(lambda u: u**20, 60.0)
        want = math.exp(math.lgamma(81.0))
        assert abs(res.value - want) <= 1e-11 * want

    def test_one_evaluation_feeds_three_nested_sums(self):
        # f is called once, on the finest grid's 1921 nodes; the value is
        # that grid's trapezoid sum, bit for bit, and the error estimate its
        # distance from the sum over every second node
        a = 1.5
        shapes = []

        def f(u):
            shapes.append(u.shape)
            return np.log(u)

        res = integrate_semi_infinite_u(f, a)
        assert shapes == [(1921,)]
        assert res.evaluations == 1921
        t_lo, t_hi = -38.0 / (a + 1.0), 8.5
        t = np.linspace(t_lo, t_hi, 1921)
        u = np.exp(t)
        g = np.log(u) * np.exp((a + 1.0) * t - u)

        def trapezoid(g):
            h = (t_hi - t_lo) / (len(g) - 1)
            return complex(h * (np.sum(g) - 0.5 * (g[0] + g[-1])))

        fine = trapezoid(g)
        assert res.value == fine
        assert res.error_estimate == abs(fine - trapezoid(g[::2]))

    def test_error_estimate_is_honest(self):
        res = integrate_semi_infinite_u(np.log, 1.5)
        want = float(mpmath.gamma(2.5) * mpmath.digamma(2.5))
        assert abs(res.value - want) <= max(res.error_estimate, 1e-13 * abs(want))

    def test_oscillatory_integrand_refuses(self):
        with pytest.raises(ConvergenceError):
            integrate_semi_infinite_u(lambda u: np.cos(50.0 * u), 0.0)

    def test_guard(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite_u(np.log, -1.0)

    def test_integrand_must_accept_arrays(self):
        # an integrand written for scalars is an error, not a slow path
        for f in (lambda u: u if u > 0 else 0.0, lambda u: 1.0 if u < 5.0 else 0.0):
            with pytest.raises(ValueError):
                integrate_semi_infinite_u(f, 0.0)


def _flat_state(nx: int, ny: int, fx, x_min=0.0, x_max=1.0, y_period=1.0) -> SampledState:
    grid = GridSpec(x_min, x_max, nx, ny)
    x = np.linspace(x_min, x_max, nx)
    values = np.repeat(fx(x)[:, None], ny, axis=1).astype(complex)
    return SampledState.from_samples(grid, values, np.ones(nx), y_period)


def _harmonic_state(nx: int, ny: int, m: int, y_period=1.0) -> SampledState:
    grid = GridSpec(0.0, 1.0, nx, ny)
    y = -0.5 * y_period + np.arange(ny) * (y_period / ny)
    values = np.repeat(
        np.exp(2j * math.pi * m * y / y_period)[None, :], nx, axis=0
    )
    return SampledState.from_samples(grid, values, np.ones(nx), y_period)


class TestGridInnerProduct:
    @pytest.mark.parametrize("nx", [8, 9, 1024, 1025])
    def test_simpson_exact_on_cubics(self, nx):
        # <1|x^3> over [0,1] with unit weight integrates the cubic exactly
        ones = _flat_state(nx, 8, lambda x: np.ones_like(x))
        cubic = _flat_state(nx, 8, lambda x: x**3 - 2.0 * x**2 + 0.5 * x - 1.0)
        got = grid_inner_product(ones, cubic)
        want = 0.25 - 2.0 / 3.0 + 0.5 / 2.0 - 1.0
        assert abs(got - want) <= 1e-14

    def test_periodic_sum_kills_harmonics_exactly(self):
        ones = _harmonic_state(16, 32, 0)
        for m in (1, 2, 7, 31):
            h = _harmonic_state(16, 32, m)
            assert abs(grid_inner_product(ones, h)) <= 1e-13

    def test_conjugation_side(self):
        a = _harmonic_state(16, 32, 1)
        b = _harmonic_state(16, 32, 1)
        # <a|a> positive: first slot is conjugated
        assert grid_inner_product(a, b).real > 0.99
        assert abs(grid_inner_product(a, b).imag) <= 1e-14

    def test_weighted_norm_margin_guard(self):
        s = _flat_state(16, 8, lambda x: np.ones_like(x))
        assert abs(weighted_norm(s.modes, s) - 1.0) <= 1e-14
        with pytest.raises(DomainError):
            weighted_norm(s.modes, s, exclude_margin=8)

    def test_weighted_norm_shape_guard(self):
        # an array travels apart from the state whose grid it is sampled on;
        # a transposed or wider array must not broadcast against the weight
        s = _flat_state(16, 8, lambda x: x)
        for shape in ((8, 16), (16, 9), (16,), (16, 8, 1)):
            with pytest.raises(GridMismatchError):
                weighted_norm(np.ones(shape, dtype=complex), s)

    def test_weighted_norm_refuses_non_finite_values(self):
        # 1001 rows of 64 cells are reduced 256 rows at a time; a non-finite
        # cell in the first, a middle or the last block is refused before it
        # is multiplied, so no numpy warning is raised on the way
        s = _flat_state(1001, 64, lambda x: x)
        for row in (0, 300, 1000):
            for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
                values = np.ones((1001, 64), dtype=complex)
                values[row, 3] = bad
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(RangeError):
                        weighted_norm(values, s, exclude_margin=2)

    def test_weighted_norm_refuses_an_overflowing_density(self):
        # every value is finite, but |v|^2 of the 1e200 cells is not: the
        # norm is refused, not returned as inf, and no warning is raised
        s = _flat_state(1001, 64, lambda x: x)
        for big in (1e200, 1e200j, -1e155 - 1e155j):
            values = np.ones((1001, 64), dtype=complex)
            values[500, 7] = big
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RangeError):
                    weighted_norm(values, s)

    @pytest.mark.parametrize("nx, ny", [(16, 8), (1001, 64), (4099, 12), (17, 16400)])
    def test_weighted_norm_is_the_whole_array_formula(self, nx, ny):
        # the norm is reduced a block of rows at a time (ragged last blocks
        # here, and two-row blocks at ny = 16400); it must give the bits of
        # the formula on the whole array, the weight underflowing to 0 on
        # the first rows
        rng = np.random.default_rng(nx + ny)
        x = np.linspace(-1.0, 1.0, nx)
        weight = np.exp(-4.0 * x**2)
        weight[:3] = 0.0
        s = SampledState.from_samples(
            GridSpec(-1.0, 1.0, nx, ny),
            rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny)),
            weight,
            1.0,
        )
        root_w = np.sqrt(s.weight)
        for values in (s.modes, s.modes.real.copy()):
            amp = values * root_w[:, None]
            whole = np.sum(amp.real**2 + amp.imag**2, axis=1)
            for margin in (0, 1, 4, (nx - 1) // 2):
                density = whole.copy()
                if margin:
                    density[:margin] = 0.0
                    density[-margin:] = 0.0
                want = math.sqrt(max(float(np.sum(_row_weights(s.grid, s.y_period) * density)), 0.0))
                assert weighted_norm(values, s, exclude_margin=margin) == want

    def test_grid_mismatch_raises(self):
        a = _flat_state(16, 8, lambda x: x)
        reweighted = dataclasses.replace(a, weight=np.where(np.arange(16) == 3, 2.0, 1.0))
        for other in (
            _flat_state(32, 8, lambda x: x),
            _flat_state(16, 8, lambda x: x, y_period=2.0),
            reweighted,
        ):
            with pytest.raises(GridMismatchError):
                grid_inner_product(a, other)

    def test_equal_weights_in_distinct_objects_are_one_measure(self):
        a = _flat_state(16, 8, lambda x: x)
        b = dataclasses.replace(a, weight=a.weight.copy())
        assert b.weight is not a.weight
        assert grid_inner_product(a, b) == grid_inner_product(a, a)


class TestDerivatives:
    def test_x_derivative_converges_at_fourth_order(self):
        errs = []
        for nx in (64, 128):
            s = _flat_state(nx, 8, lambda x: np.exp(np.sin(3.0 * x)))
            d = fd_derivative(s.modes, s, "x", 1)
            exact = 3.0 * np.cos(3.0 * s.x) * np.exp(np.sin(3.0 * s.x))
            errs.append(np.max(np.abs(d[:, 0].real - exact)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.7

    def test_x_second_derivative_converges(self):
        # interior rows are fourth order; the one-sided edge rows drop to
        # third, which is why the operator layer excludes a margin
        errs_interior = []
        errs_edge = []
        for nx in (64, 128):
            s = _flat_state(nx, 8, lambda x: np.exp(np.sin(3.0 * x)))
            d = fd_derivative(s.modes, s, "x", 2)
            f = np.exp(np.sin(3.0 * s.x))
            exact = (3.0 * np.cos(3.0 * s.x)) ** 2 * f - 9.0 * np.sin(3.0 * s.x) * f
            err = np.abs(d[:, 0].real - exact)
            errs_interior.append(np.max(err[2:-2]))
            errs_edge.append(np.max(err))
        assert math.log2(errs_interior[0] / errs_interior[1]) >= 3.7
        assert math.log2(errs_edge[0] / errs_edge[1]) >= 2.7

    @pytest.mark.parametrize("layout", ["C", "F", "real"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_x_stencils_exact_on_complex_quartics(self, order, layout):
        # the centred stencils and the one-sided closures are exact on
        # polynomials of degree <= 4; per-column complex coefficients expose
        # any mixing of the real and imaginary parts, on every row
        nx, ny, x_min, x_max = 24, 8, -0.7, 1.3
        grid = GridSpec(x_min, x_max, nx, ny)
        x = np.linspace(x_min, x_max, nx)
        rng = np.random.default_rng(10 * order + len(layout))
        for k in range(5):
            coeff = rng.standard_normal(ny) + 1j * rng.standard_normal(ny)
            if layout == "real":
                coeff = coeff.real
            values = x[:, None] ** k * coeff[None, :]
            if layout == "F":
                values = np.asfortranarray(values)
            kept = values.copy()
            # any array of the shape of the state's mode columns is differentiated
            s = SampledState.from_samples(grid, values, np.ones(nx), 1.0)
            d = fd_derivative(values, s, "x", order)
            monomial = np.zeros(k + 1)
            monomial[k] = 1.0
            exact = P.polyval(x, P.polyder(monomial, order))[:, None] * coeff[None, :]
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(d - exact)) <= 1e-9 * scale
            assert np.array_equal(values, kept)

    @pytest.mark.parametrize("ny", [8, 16400])
    def test_x_stencils_are_the_complex_arithmetic_bits(self, ny):
        # the blocked float64 accumulation must give, on every interior row,
        # whether a block holds all rows (ny = 8) or two of them (ny = 16400),
        # the centred stencils written term by term on the real and imaginary
        # parts bit for bit, signed zeros, subnormals and values near 1e300
        # among them, and the stencils in complex arithmetic value for value:
        # complex arithmetic multiplies by c + 0j, whose +0 products can turn
        # a sum of zeros from -0 to +0
        nx = 21
        rng = np.random.default_rng(ny)
        s = _flat_state(nx, ny, lambda x: x, x_min=-0.3, x_max=2.9)
        parts = rng.standard_normal((nx, 2 * ny))
        pick = rng.random(parts.shape)
        for lo, hi, fill in (
            (0.0, 0.05, 0.0),
            (0.05, 0.1, -0.0),
            (0.1, 0.15, 5e-324 * rng.integers(-2**20, 2**20, parts.shape)),
            (0.15, 0.2, 1e300 * rng.standard_normal(parts.shape)),
        ):
            cells = (lo <= pick) & (pick < hi)
            parts[cells] = np.broadcast_to(fill, parts.shape)[cells]
        v = parts.view(complex)
        h = (s.grid.x_max - s.grid.x_min) / (nx - 1)
        full = {order: fd_derivative(v, s, "x", order) for order in (1, 2)}
        for u, bits in ((parts, True), (v, False)):
            d1 = (1.0 * u[:-4] + -8.0 * u[1:-3] + 8.0 * u[3:-1] + -1.0 * u[4:]) * (1.0 / (12.0 * h))
            d2 = (
                -1.0 * u[:-4] + 16.0 * u[1:-3] + -30.0 * u[2:-2] + 16.0 * u[3:-1] + -1.0 * u[4:]
            ) * (1.0 / (12.0 * h * h))
            for order, want in ((1, d1), (2, d2)):
                got = full[order][2:-2].view(u.dtype)
                if bits:
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                else:
                    assert np.array_equal(got, want)
        # rows 0, 1, nx-2 and nx-1 (in a two-row first block and a three-row
        # last one at ny = 16400) take the one-sided closures on the first
        # and last 5 rows of the whole array, bit for bit; the far edge runs
        # each closure backwards, with the sign of the derivative's order
        for order, closures, scale in ((1, (_EDGE1_ROW0, _EDGE1_ROW1), h), (2, (_EDGE2_ROW0, _EDGE2_ROW1), h * h)):
            flip = (-1.0) ** order
            for i, row in enumerate(closures):
                head = np.tensordot(row, v[:5], axes=(0, 0)) / scale
                tail = flip * np.tensordot(row[::-1], v[-5:], axes=(0, 0)) / scale
                for got, want in ((full[order][i], head), (full[order][nx - 1 - i], tail)):
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_y_derivative_is_spectrally_exact_on_harmonics(self):
        for m in (1, 5, 15):
            h = _harmonic_state(8, 64, m)
            d = dataclasses.replace(h, modes=fd_derivative(h.modes, h, "y", 1)).values
            exact = 2j * math.pi * m * h.values
            assert np.max(np.abs(d - exact)) <= 5e-13 * max(1.0, 2 * math.pi * m)
            d2 = dataclasses.replace(h, modes=fd_derivative(h.modes, h, "y", 2)).values
            exact2 = -((2 * math.pi * m) ** 2) * h.values
            assert np.max(np.abs(d2 - exact2)) <= 5e-11 * (2 * math.pi * m) ** 2

    def test_guards(self):
        s = _flat_state(16, 8, lambda x: x)
        with pytest.raises(DomainError):
            fd_derivative(s.modes, s, "x", 3)
        with pytest.raises(DomainError):
            fd_derivative(s.modes, s, "z", 1)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_shape_guard(self, axis):
        # (8, 16) would run through both stencils without complaint
        s = _flat_state(16, 8, lambda x: x)
        for shape in ((8, 16), (16, 9), (15, 8), (16,)):
            with pytest.raises(GridMismatchError):
                fd_derivative(np.ones(shape, dtype=complex), s, axis, 1)


class TestContainers:
    def test_integration_result_guards(self):
        with pytest.raises(DomainError):
            IntegrationResult(value=1.0, error_estimate=-1.0, evaluations=4)
        with pytest.raises(DomainError):
            IntegrationResult(value=1.0, error_estimate=0.0, evaluations=0)

    def test_grid_spec_guards(self):
        with pytest.raises(DomainError):
            GridSpec(1.0, 0.0, 16, 16)
        with pytest.raises(DomainError):
            GridSpec(0.0, 1.0, 4, 16)

    def test_sampled_state_shape_guards(self):
        grid = GridSpec(0.0, 1.0, 16, 8)
        modes = np.zeros((16, 8), dtype=complex)
        with pytest.raises(DomainError):
            SampledState(grid=grid, modes=modes, k=np.arange(8), weight=-np.ones(16), y_period=1.0)
        with pytest.raises(DomainError):
            SampledState(grid=grid, modes=modes.T, k=np.arange(8), weight=np.ones(16), y_period=1.0)
        with pytest.raises(DomainError):
            SampledState.from_samples(grid, modes.T, np.ones(16), 1.0)
        # mode indices: distinct, ascending, in [0, ny), one per column
        for k in ([0, 0], [1, 0], [-1, 2], [7, 8], [0.0, 1.0], [0, 1, 2]):
            with pytest.raises(DomainError):
                SampledState(grid=grid, modes=modes[:, :2], k=np.array(k), weight=np.ones(16), y_period=1.0)
