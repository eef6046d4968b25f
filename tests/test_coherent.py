"""Coherent states: series vs closed form, the printed-branch diagnosis,
the lowering eigenvalue, and the resolution of identity.

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
import math

import numpy as np
import pytest

from morseband import (
    AgreementReport,
    CoherentSpec,
    DomainError,
    QuantumNumbers,
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
    literal_branch_diagnostic,
    radial_identity_integral,
    wavefunction,
    weighted_norm,
)

import mpmath

mpmath.mp.dps = 30

SAMPLE_Z = (0.7 + 0.0j, 1.8 * cmath.exp(0.25j * math.pi), 2.8 * cmath.exp(2.0j))


def _norm_of_difference(a, b, margin=8) -> float:
    diff = type(a)(
        grid=a.grid,
        x=a.x,
        y=a.y,
        values=a.values - b.values,
        weight=a.weight,
        y_period=a.y_period,
    )
    return weighted_norm(diff, exclude_margin=margin)


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
            assert abs(weighted_norm(s) - 1.0) <= 1e-7

    def test_series_and_closed_agree(self, p):
        grid = default_coherent_grid(p)
        for l, Z in ((0, SAMPLE_Z[1]), (2, SAMPLE_Z[2])):
            report = series_agreement(l, Z, p, grid)
            assert report.weighted_l2 <= 1e-7
            assert report.pointwise_max <= 1e-7

    def test_zero_eigenvalue_is_the_bottom_eigenstate(self, p):
        grid = default_coherent_grid(p)
        for l in (0, 2):
            coh = bg_state_closed(CoherentSpec(l, 0.0), p, grid)
            eig = wavefunction(QuantumNumbers(l, l + 1), p, grid)
            assert np.array_equal(coh.values, eig.values)

    def test_lowering_eigenvalue(self, p):
        grid = default_coherent_grid(p)
        for l, Z in ((0, SAMPLE_Z[0]), (1, SAMPLE_Z[1]), (2, SAMPLE_Z[2])):
            s = bg_state_closed(CoherentSpec(l, Z), p, grid)
            lowered = apply_Lminus(s, p)
            target = type(s)(
                grid=s.grid,
                x=s.x,
                y=s.y,
                values=Z * s.values,
                weight=s.weight,
                y_period=s.y_period,
            )
            assert _norm_of_difference(lowered, target) <= 1e-5 * max(1.0, abs(Z))


def series_agreement(l, Z, p, grid) -> AgreementReport:
    from morseband import series_closed_agreement

    return series_closed_agreement(CoherentSpec(l, Z), p, grid)


class TestLiteralBranch:
    def test_printed_form_flips_sign_on_part_of_the_domain(self, p):
        # evaluate the closed form literally: principal fractional powers
        # in both factors, no continuation across the cut
        grid = default_coherent_grid(p)
        l = 1
        Z = 0.5 * cmath.exp(1j * math.pi / 3.0)
        spec = CoherentSpec(l, Z)
        state = bg_state_closed(spec, p, grid)
        denom = math.sqrt(bessel_i(2 * l + 1, 2.0 * abs(Z)))
        front = math.sqrt(2.0 * math.pi * (2 * l + 1)) / p.a0
        phase = (abs(Z) / Z) ** (l + 0.5)
        i_row = int(np.searchsorted(state.x, p.x_weight_mode + 0.3 * p.a0))
        x = state.x[i_row]
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
            ratio = literal / state.values[i_row, j]
            assert abs(abs(ratio) - 1.0) <= 1e-10
            assert abs(ratio.imag) <= 1e-10
            signs.append(1 if ratio.real > 0 else -1)
        assert -1 in signs and 1 in signs

    def test_diagnostic_fraction_and_exactness(self, p):
        grid = default_coherent_grid(p)
        diag = literal_branch_diagnostic(
            CoherentSpec(1, 0.5 * cmath.exp(1j * math.pi / 3.0)), p, grid
        )
        assert diag.flipped_fraction == 0.171875
        assert diag.max_other_deviation <= 1e-12

    def test_positive_real_eigenvalue_never_flips(self, p):
        grid = default_coherent_grid(p)
        diag = literal_branch_diagnostic(CoherentSpec(1, 0.7 + 0.0j), p, grid)
        assert diag.flipped_fraction == 0.0
        assert diag.max_other_deviation <= 1e-12


class TestMeasure:
    def test_density_against_mpmath(self):
        for l in (0, 1, 2):
            nu = 2 * l + 1
            for r in (0.5, 3.0, 20.0):
                want = float(
                    2.0 / mpmath.pi * mpmath.besseli(nu, 2 * r) * mpmath.besselk(nu, 2 * r) * r
                )
                got = bg_measure_density(l, r)
                assert abs(got - want) <= 1e-12 * want

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


class TestIdentityResolution:
    def test_radial_integrals_match_gamma_values(self):
        assert abs(radial_identity_integral(0, 0).value - 0.25) <= 1e-8
        assert abs(radial_identity_integral(1, 1).value - 6.0) <= 1e-8 * 6.0
        for l in range(3):
            for N in range(5):
                want = 0.25 * math.exp(math.lgamma(N + 1.0) + math.lgamma(2 * l + N + 2.0))
                got = radial_identity_integral(l, N).value
                assert abs(got - want) <= 1e-8 * want

    def test_deviation_matrix(self):
        for l in (0, 1, 2):
            dev = identity_resolution_check(l, 4)
            assert np.max(np.abs(np.diag(dev))) <= 1e-6
            off = dev - np.diag(np.diag(dev))
            assert np.all(off == 0.0)

    def test_guards(self):
        with pytest.raises(DomainError):
            identity_resolution_check(0, 9)
        with pytest.raises(DomainError):
            radial_identity_integral(-1, 0)
