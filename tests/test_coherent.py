"""Coherent states: series vs closed form, the closed form against an
mpmath referee, the printed-branch sign flips, the lowering eigenvalue,
and the resolution of identity.

The projection oracle is the strongest check here: grid inner products
of the closed-form state against eigenstates must reproduce the series
coefficients, tying the closed evaluation, the eigenstates, and the
measure together. The literal-branch test evaluates the closed form
exactly as printed (principal powers, two separate factors) and shows
it differs from the continued evaluation by pure sign flips on part of
the domain; this is a property of the printed expression, not of the
grid.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseband import (
    AgreementReport,
    CoherentSpec,
    DomainError,
    GridSpec,
    MorsebandError,
    QuantumNumbers,
    RangeError,
    apply_Lminus,
    bessel_i,
    bessel_j,
    bg_coefficients,
    bg_measure_density,
    bg_state_closed,
    bg_state_series,
    default_coherent_grid,
    default_truncation,
    grid_inner_product,
    identity_resolution_check,
    radial_identity_integral,
    wavefunction,
    weighted_norm,
)
from morseband import states
from morseband.coherent import _MILLER_START_MAX, _closed_rows, _row_plan
from morseband.quadrature import _row_weights

import mpmath

mpmath.mp.dps = 30

SAMPLE_Z = (0.7 + 0.0j, 1.8 * cmath.exp(0.25j * math.pi), 2.8 * cmath.exp(2.0j))


def _norm_of_difference(image, coeff, s, margin=8) -> float:
    """Margin-excluded weighted norm of an operator image minus coeff times
    the state s, whose mode indices the image holds."""
    assert np.array_equal(image.k, s.k)
    return weighted_norm(image.modes - coeff * s.modes, s, exclude_margin=margin)


class TestCoefficients:
    def test_weights_sum_to_one(self):
        for l in (0, 1, 2):
            for Z in SAMPLE_Z:
                c = bg_coefficients(CoherentSpec(l, Z))
                assert abs(sum(abs(v) ** 2 for v in c) - 1.0) <= 1e-12

    def test_zero_eigenvalue_collapses_to_bottom(self):
        c = bg_coefficients(CoherentSpec(1, 0.0))
        assert c[0] == 1.0
        assert all(v == 0.0 for v in c[1:])

    def test_ratio_recursion(self):
        # c_{N+1}/c_N = Z / sqrt((N+1)(2l+N+2)) follows from the closed
        # coefficient; checked independently of the normalization
        l, Z = 1, 1.8 * cmath.exp(0.25j * math.pi)
        c = bg_coefficients(CoherentSpec(l, Z))
        for N in range(6):
            want = Z / math.sqrt((N + 1) * (2 * l + N + 2))
            assert abs(c[N + 1] / c[N] - want) <= 1e-12 * abs(want)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            CoherentSpec(-1, 1.0)
        with pytest.raises(DomainError):
            CoherentSpec(0, complex("inf"))
        with pytest.raises(DomainError):
            CoherentSpec(0, 3.0, truncation=5)
        for z in (351.0, 1e308):
            with pytest.raises(DomainError):
                CoherentSpec(0, z)
        # a nonzero |Z| whose I_{2l+1}(2|Z|) underflows has no normalization
        for l, z in ((3, 1e-50), (3, 1e-50j), (0, 1e-310)):
            with pytest.raises(DomainError, match="underflows"):
                CoherentSpec(l, z)
        assert CoherentSpec(0, 1e-300).Z == 1e-300
        assert CoherentSpec(3, 0.0).Z == 0.0
        assert CoherentSpec(0, 3.0).truncation == default_truncation(0, 3.0)


class TestStateConstruction:
    def test_projection_recovers_coefficients(self, p):
        grid = default_coherent_grid(p)
        spec = CoherentSpec(1, 1.8 * cmath.exp(0.25j * math.pi))
        state = bg_state_closed(spec, p, grid)
        coeffs = bg_coefficients(spec)
        for N in (0, 1, 3):
            eigen = wavefunction(QuantumNumbers(1, 2 + N), p, grid)
            got = grid_inner_product(eigen, state)
            assert abs(got - coeffs[N]) <= 1e-10

    def test_normalization(self, p):
        grid = default_coherent_grid(p)
        for l, Z in ((0, SAMPLE_Z[0]), (1, SAMPLE_Z[1]), (2, SAMPLE_Z[2])):
            s = bg_state_closed(CoherentSpec(l, Z), p, grid)
            assert abs(weighted_norm(s.modes, s) - 1.0) <= 1e-7

    def test_series_and_closed_agree(self, p):
        grid = default_coherent_grid(p)
        for l, Z in ((0, SAMPLE_Z[1]), (2, SAMPLE_Z[2])):
            report = series_agreement(l, Z, p, grid)
            assert report.weighted_l2 <= 1e-7
            assert report.pointwise_max <= 1e-7

    @pytest.mark.parametrize("l, Z", [(0, SAMPLE_Z[0]), (1, SAMPLE_Z[1]), (2, SAMPLE_Z[2])])
    def test_closed_modes_are_the_series_columns(self, p, l, Z):
        # the y-FFT of the closed form occupies exactly the series' indices
        # -(l+1) .. -(l+T+1) mod ny, and there holds c_N times the level's
        # profile: each column's weighted norm, outside the band and of the
        # difference inside it, against the largest column (both measure
        # about 1e-15)
        grid = default_coherent_grid(p)
        spec = CoherentSpec(l, Z)
        closed, series = bg_state_closed(spec, p, grid), bg_state_series(spec, p, grid)
        band = [-(l + N + 1) % grid.ny for N in range(spec.truncation + 1)]
        assert sorted(band) == series.k.tolist() and len(set(band)) == len(band)
        assert closed.k.tolist() == list(range(grid.ny))
        w = (_row_weights(closed.grid, closed.y_period) * closed.weight)[:, None]

        def column_norms(modes):
            return np.sqrt(np.sum(w * np.abs(modes) ** 2, axis=0))

        largest = column_norms(closed.modes).max()
        outside = np.delete(closed.modes, series.k, axis=1)
        assert column_norms(outside).max() <= 1e-13 * largest
        assert column_norms(closed.modes[:, series.k] - series.modes).max() <= 1e-13 * largest

    def test_zero_eigenvalue_is_the_bottom_eigenstate(self, p):
        grid = default_coherent_grid(p)
        for l in (0, 2):
            coh = bg_state_closed(CoherentSpec(l, 0.0), p, grid)
            eig = wavefunction(QuantumNumbers(l, l + 1), p, grid)
            assert np.array_equal(coh.k, eig.k) and np.array_equal(coh.modes, eig.modes)
            assert np.array_equal(coh.values, eig.values)

    def test_lowering_eigenvalue(self, p):
        grid = default_coherent_grid(p)
        for l, Z in ((0, SAMPLE_Z[0]), (1, SAMPLE_Z[1]), (2, SAMPLE_Z[2])):
            s = bg_state_closed(CoherentSpec(l, Z), p, grid)
            lowered = apply_Lminus(s, p)
            assert _norm_of_difference(lowered, Z, s) <= 1e-5 * max(1.0, abs(Z))


def series_agreement(l, Z, p, grid) -> AgreementReport:
    from morseband import series_closed_agreement

    return series_closed_agreement(CoherentSpec(l, Z), p, grid)


class TestLiteralBranch:
    @staticmethod
    def _literal_signs(p, Z) -> list[int]:
        # evaluate the closed form literally: principal fractional powers
        # in both factors, no continuation across the cut
        grid = default_coherent_grid(p)
        l = 1
        state = bg_state_closed(CoherentSpec(l, Z), p, grid)
        denom = math.sqrt(bessel_i(2 * l + 1, 2.0 * abs(Z)))
        front = math.sqrt(2.0 * math.pi * (2 * l + 1)) / p.a0
        phase = (abs(Z) / Z) ** (l + 0.5)
        i_row = int(np.searchsorted(state.x, p.x_weight_mode + 0.3 * p.a0))
        x, values = state.x[i_row], state.values
        signs = []
        for j, y in enumerate(state.y):
            zxy = x + 1j * y
            w = p.beta * Z * cmath.exp(-p.kappa * zxy)
            literal = (
                front
                * cmath.exp(-0.5 * p.kappa * zxy + Z * cmath.exp(-1j * p.kappa * y))
                * phase
                * bessel_j(2 * l + 1, 2.0 * cmath.sqrt(w))
                / denom
            )
            ratio = literal / values[i_row, j]
            assert abs(abs(ratio) - 1.0) <= 1e-10
            assert abs(ratio.imag) <= 1e-10
            signs.append(1 if ratio.real > 0 else -1)
        return signs

    def test_printed_form_flips_sign_on_part_of_the_domain(self, p):
        signs = self._literal_signs(p, 0.5 * cmath.exp(1j * math.pi / 3.0))
        assert -1 in signs and 1 in signs
        # a positive real eigenvalue never flips
        assert set(self._literal_signs(p, 0.7 + 0.0j)) == {1}


def _referee(p, l, Z, x, y) -> tuple[complex, float]:
    """The closed form at one cell in mpmath, and |2s J_a'(2s) / J_a(2s)|,
    the factor by which a relative rounding of the Bessel argument grows
    in the value. The principal sqrt of w is enough, because J_a(2s)/s^a
    is even in s for the odd integer a."""
    a = 2 * l + 1
    Z = mpmath.mpc(Z)
    kappa, beta = mpmath.mpf(p.kappa), mpmath.mpf(p.beta)
    xy = mpmath.mpf(x) + 1j * mpmath.mpf(y)
    s = mpmath.sqrt(beta * Z * mpmath.exp(-kappa * xy))
    r = abs(Z)
    front = mpmath.sqrt(2 * mpmath.pi * a / mpmath.besseli(a, 2 * r)) / mpmath.mpf(p.a0)
    bessel = mpmath.besselj(a, 2 * s)
    value = (
        front
        * (beta * r) ** (mpmath.mpf(a) / 2)
        * mpmath.exp(Z * mpmath.exp(-1j * kappa * mpmath.mpf(y)) - (l + 1) * kappa * xy)
        * bessel
        / s**a
    )
    return complex(value), float(abs(2 * s * mpmath.besselj(a, 2 * s, derivative=1) / bessel))


def _trusted_cells(state) -> np.ndarray:
    dens = state.weight[:, None] * np.abs(state.values) ** 2
    return np.argwhere(dens >= 1e-12 * np.max(dens))


def _referee_errors(p, l, Z, state, cells) -> list[tuple[float, float]]:
    """(relative error, Bessel argument condition) of each cell."""
    out, values = [], state.values
    for i, j in cells:
        want, cond = _referee(p, l, Z, state.x[i], state.y[j])
        out.append((abs(values[i, j] - want) / abs(want), cond))
    return out


class TestClosedFormReferee:
    def test_verify_worst_cell(self, p):
        # the verify sample's worst series/closed cell; a hand-summed
        # Bessel series was off by 6.4e-10 on this row
        l, Z = 2, SAMPLE_Z[2]
        state = bg_state_closed(CoherentSpec(l, Z), p, default_coherent_grid(p))
        i = int(np.argmin(np.abs(state.x + 2.668)))
        cells = [(i, j) for i2, j in _trusted_cells(state) if i2 == i]
        assert len(cells) == state.grid.ny
        assert max(err for err, _ in _referee_errors(p, l, Z, state, cells)) <= 1e-13

    def test_large_eigenvalue(self, p):
        # |Z| = 10 lies in the CLI sweep's range; a hand-summed Bessel
        # series cancels like e^(2 sqrt|w|) and lost every digit on the
        # left trusted rows here
        state = bg_state_closed(CoherentSpec(0, 10.0), p, default_coherent_grid(p))
        rows = np.unique(_trusted_cells(state)[:, 0])
        cells = [(i, j) for i in rows[:: max(1, rows.size // 24)] for j in (0, 37, 64, 101)]
        assert max(err for err, _ in _referee_errors(p, 0, 10.0, state, cells)) <= 1e-13

    @given(
        l=st.integers(0, 6),
        log_r=st.floats(-3.0, math.log10(350.0) - 1e-12),
        angle=st.floats(-math.pi, math.pi),
        pick=st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_trusted_cells(self, p, l, log_r, angle, pick):
        # Rounding the inputs alone costs a few ulp of the exponent, whose
        # size is |Z|, and of the Bessel argument, amplified by its
        # condition; near a zero of J_a that condition runs into the
        # thousands at |Z| = 350, so the bound carries both terms. The
        # default window is sampled on a coarser mesh to keep each example
        # cheap.
        Z = 10.0**log_r * cmath.exp(1j * angle)
        window = default_coherent_grid(p)
        grid = GridSpec(window.x_min, window.x_max, 513, 16)
        state = bg_state_closed(CoherentSpec(l, Z), p, grid)
        cells = _trusted_cells(state)
        picked = [cells[(pick + k * 7919) % len(cells)] for k in range(3)]
        eps = np.finfo(float).eps
        for err, cond in _referee_errors(p, l, Z, state, picked):
            assert err <= 1e-13 + 4.0 * eps * (abs(Z) + cond)

    @pytest.mark.parametrize("r", [40.0, 100.0, 350.0])
    def test_norm_at_large_eigenvalue(self, p, r):
        # what is left comes from the fixed window, not from the closed form
        s = bg_state_closed(CoherentSpec(0, r * cmath.exp(0.3j)), p, default_coherent_grid(p))
        assert np.all(np.isfinite(s.modes))
        assert abs(grid_inner_product(s, s).real - 1.0) <= 1e-2

    @pytest.mark.parametrize("x_min", [-30.0, -700.0])
    def test_growing_side_window_is_refused_without_warnings(self, p, x_min):
        grid = GridSpec(x_min, 10.0, 256, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match="shrink the window on the growing side"):
                bg_state_closed(CoherentSpec(1, 1.8 * cmath.exp(0.25j * math.pi)), p, grid)


_SERIES_L = (0, 1, 3, 20, 60)
_SERIES_Z = (1e-6, 0.7 + 0.3j, 9.5j, -8.41 + 0.18j, 40.0, 350.0)


def _series_rows(p, grid, Z) -> np.ndarray:
    """The rows where |t| = beta |Z| e^(-kappa x) <= 1, whose Bessel factor
    the closed form sums as its power series in t."""
    x = np.linspace(grid.x_min, grid.x_max, grid.nx)
    return np.flatnonzero(p.beta * abs(Z) * np.exp(-p.kappa * x) <= 1.0)


class TestSeriesRows:
    @pytest.mark.parametrize(
        "l, Z",
        # at l = 60, |Z| = 1e-6 is refused: I_121(2|Z|) underflows
        [(l, Z) for l in _SERIES_L for Z in _SERIES_Z if (l, Z) != (60, 1e-6)],
    )
    def test_cells_against_mpmath(self, p, l, Z):
        # Eight rows from the split, where |t| is about 1, to the last row
        # with a sample that is a normal double, and four such samples in
        # each. Measured at most 1.9e-13 over these cases, at (60, 350),
        # where the exponent's terms reach hundreds; the bound is fixed at
        # 5e-13.
        grid = default_coherent_grid(p)
        series = _series_rows(p, grid, Z)
        assert series[-1] == grid.nx - 1 and (series[0] > 0 or abs(Z) < 1e-3)
        values = _closed_rows(CoherentSpec(l, Z), p, grid)(series[0], grid.nx)
        normal = np.abs(values) >= np.finfo(float).tiny
        rows = np.flatnonzero(np.any(normal, axis=1))
        assert rows[0] == 0 and rows.size >= 64
        x, y = states._grid_axes(grid, p.a0)
        with mpmath.workdps(40):
            for r in rows[np.linspace(0, rows.size - 1, 8).astype(int)]:
                columns = np.flatnonzero(normal[r])
                for j in columns[np.linspace(0, columns.size - 1, 4).astype(int)]:
                    want, _ = _referee(p, l, Z, x[series[0] + r], y[j])
                    assert abs(values[r, j] - want) <= 5e-13 * abs(want), (r, j)

    @pytest.mark.parametrize("ny", [128, 8])
    @pytest.mark.parametrize("l, Z", [(0, 0.7 + 0.3j), (1, -8.414789 + 0.184726j), (3, 40.0)])
    def test_rows_do_not_depend_on_the_block(self, p, ny, l, Z):
        # the default coherent grid, and the coherent command's ny = 8;
        # blocks straddle each change of rule: jve to the recurrence, the
        # recurrence to the series, and each change of start index or of
        # series term count
        grid = dataclasses.replace(default_coherent_grid(p), ny=ny)
        rows = _closed_rows(CoherentSpec(l, Z), p, grid)
        whole = rows(0, grid.nx)
        split = _series_rows(p, grid, Z)[0]
        assert 0 < split < grid.nx - 300
        plan = _plan(p, grid, l, Z)
        edges = 1 + np.flatnonzero(plan[1:] != plan[:-1])
        assert split in edges and (plan[0] == 0) == (abs(Z) > 5.0)
        blocks = [(0, split + 2), (split - 2, grid.nx)]
        for e in edges.tolist():
            blocks += [(e - 1, e + 1), (max(0, e - 5), e + 300)]
        for a, b in blocks:
            assert np.array_equal(rows(a, b).view(np.uint64), whole[a:b].view(np.uint64)), (a, b)


def _plan(p, grid, l, Z) -> np.ndarray:
    """Each row's rule in the closed form: K > 0 series terms, -N for the
    recurrence started at N, 0 for jve."""
    x = np.linspace(grid.x_min, grid.x_max, grid.nx)
    return _row_plan(2 * l + 1, math.log(p.beta * abs(Z)) - p.kappa * x)


class TestRecurrenceRows:
    @pytest.mark.parametrize("l, Z", [(l, Z) for l in _SERIES_L[:4] for Z in _SERIES_Z[1:]])
    def test_cells_against_mpmath(self, p, l, Z):
        # Eight rows across the band of rows with 1 < |t| that take J_a from
        # Miller's recurrence, and six samples that are normal doubles in
        # each, spread over y, so over arg w, where the normaliser's sign
        # matters. Measured at most 1.3e-13 over these cases, at
        # |Z| = 350, as scipy's jve gives on the same cells; the bound is
        # 5e-13 times 1 + |2s J_a'/J_a|, the Bessel argument's condition,
        # which grows near the zeros of J_a.
        grid = default_coherent_grid(p)
        band = np.flatnonzero(_plan(p, grid, l, Z) < 0)
        assert band.size >= 400 and np.all(np.diff(band) == 1)
        values = _closed_rows(CoherentSpec(l, Z), p, grid)(band[0], band[-1] + 1)
        normal = np.abs(values) >= np.finfo(float).tiny
        rows = np.flatnonzero(np.any(normal, axis=1))
        assert rows.size == band.size
        x, y = states._grid_axes(grid, p.a0)
        with mpmath.workdps(40):
            for r in rows[np.linspace(0, rows.size - 1, 8).astype(int)]:
                columns = np.flatnonzero(normal[r])
                for j in columns[np.linspace(0, columns.size - 1, 6).astype(int)]:
                    want, cond = _referee(p, l, Z, x[band[0] + r], y[j])
                    assert abs(values[r, j] - want) <= 5e-13 * (1.0 + cond) * abs(want), (r, j)

    def test_the_cut_counts_the_order(self, p):
        # the start index is at least a + 12, rounded up to a multiple of 16:
        # up to a = 51 (l = 25) rows with 1 < |t| reach the recurrence, from
        # a = 53 none; at |Z| = 1e-6 every row has |t| <= 1
        grid = default_coherent_grid(p)
        for l, Z, band in ((25, 0.7 + 0.3j, True), (26, 0.7 + 0.3j, False), (60, 350.0, False), (0, 1e-6, False)):
            plan = _plan(p, grid, l, Z)
            assert np.any(plan < 0) == band, (l, Z)
            assert np.all(-plan[plan < 0] <= _MILLER_START_MAX)


class TestMeasure:
    def test_density_against_mpmath(self):
        # up to l = 60; measured at most 1.2e-13, at (58, 0.5). Each element
        # of an array call is its scalar call. The scaled K_nu(0.2) from
        # scipy is not a finite double from l = 58, where the product is:
        # those cells raise RangeError, and so does an array holding one
        radii = np.array([0.1, 0.5, 3.0, 20.0, 300.0])
        for l in (0, 1, 2, 5, 20, 57, 58, 60):
            nu = 2 * l + 1
            refused = radii == 0.1 if l >= 58 else np.zeros(radii.shape, dtype=bool)
            if refused.any():
                with pytest.raises(RangeError):
                    bg_measure_density(l, radii)
            got = bg_measure_density(l, radii[~refused])
            for r, value in zip(radii[~refused].tolist(), got.tolist()):
                want = float(
                    2.0 / mpmath.pi * mpmath.besseli(nu, 2 * r) * mpmath.besselk(nu, 2 * r) * r
                )
                assert abs(value - want) <= 1e-12 * want, (l, r)
                assert bg_measure_density(l, r) == value
            for r in radii[refused].tolist():
                with pytest.raises(RangeError):
                    bg_measure_density(l, r)

    def test_large_radius_plateau(self):
        for l in (0, 1, 2):
            got = 2.0 * math.pi * bg_measure_density(l, 300.0)
            assert abs(got - 1.0) <= 1e-4

    def test_kernel_domain_edge(self):
        with pytest.raises(DomainError):
            bg_measure_density(0, 600.0)
        with pytest.raises(DomainError):
            bg_measure_density(0, 0.0)
        with pytest.raises(DomainError):
            bg_measure_density(-1, 1.0)
        with pytest.raises(DomainError):
            bg_measure_density(0, np.array([1.0, 351.0]))


class TestIdentityResolution:
    def test_radial_integrals_match_gamma_values(self):
        assert abs(radial_identity_integral(0, 0).value - 0.25) <= 1e-8
        assert abs(radial_identity_integral(1, 1).value - 6.0) <= 1e-8 * 6.0
        for l in range(3):
            for N in range(5):
                want = 0.25 * math.exp(math.lgamma(N + 1.0) + math.lgamma(2 * l + N + 2.0))
                got = radial_identity_integral(l, N).value
                assert abs(got - want) <= 1e-8 * want

    @given(l=st.integers(0, 60), N=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_random_cells_return_the_gamma_value_or_refuse(self, l, N):
        # a cell returns within 1e-12 of the mpmath value or is refused
        # (K_nu or u^nu overflowing at a cut), never with a warning; every
        # l <= 8 returns
        want = mpmath.gamma(N + 1) * mpmath.gamma(2 * l + N + 2) / 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = radial_identity_integral(l, N)
            except MorsebandError:
                assert l > 8
                return
        assert got.value.imag == 0.0
        assert abs((mpmath.mpf(got.value.real) - want) / want) <= 1e-12
        assert got.error_estimate <= 1e-8 * float(want)

    def test_deviation_matrix(self):
        for l in (0, 1, 2):
            dev = identity_resolution_check(l, 4)
            assert np.max(np.abs(np.diag(dev))) <= 1e-6
            off = dev - np.diag(np.diag(dev))
            assert np.all(off == 0.0)

    def test_family_is_checked_at_entry(self):
        # every radial integral up to N = 8 returns at l = 15; from l = 16
        # the check refuses at entry instead of deep inside a radial integral
        dev = identity_resolution_check(15, 8)
        assert np.max(np.abs(dev)) <= 1e-13
        for l in (16, -1):
            with pytest.raises(DomainError, match="0 <= l <= 15"):
                identity_resolution_check(l, 0)

    def test_guards(self):
        with pytest.raises(DomainError):
            identity_resolution_check(0, 9)
        with pytest.raises(DomainError):
            radial_identity_integral(-1, 0)

    def test_overflowing_kernel_is_a_range_error_without_warnings(self):
        # K_101(2r) overflows near r = 0; the integrand must refuse it, not
        # hand the quadrature 0 * inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError):
                radial_identity_integral(50, 0)
