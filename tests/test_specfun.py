"""Special-function layer against mpmath at 30 digits.

The evaluators wrap scipy.special, so every one is compared
point-by-point to mpmath, which shares no code with it. Error-contract
tests pin the raise conditions that the rest of the package relies on
when it walks up to a domain edge.
"""

import math

import mpmath
import numpy as np
import pytest

from morseband import (
    DomainError,
    RangeError,
    bessel_i,
    bessel_j,
    bessel_k,
    digamma,
    hermite,
    laguerre,
    laguerre_deriv,
    ln_gamma,
    trigamma,
)

mpmath.mp.dps = 30


def mpf(x) -> float:
    return float(x)


class TestGammaFamily:
    def test_ln_gamma_against_mpmath(self):
        for x in (0.02, 0.1, 0.5, 1.0, 1.5, 2.0, 7.25, 42.5, 171.0, 300.5):
            want = mpf(mpmath.loggamma(x))
            assert abs(ln_gamma(x) - want) <= 1e-13 * max(1.0, abs(want))

    def test_digamma_against_mpmath(self):
        for x in (0.02, 0.5, 1.0, 3.7, 11.9, 12.1, 100.0, 1e4):
            want = mpf(mpmath.digamma(x))
            assert abs(digamma(x) - want) <= 1e-12 * max(1.0, abs(want))

    def test_trigamma_against_mpmath(self):
        for x in (0.02, 0.5, 1.0, 3.7, 11.9, 12.1, 100.0, 1e4):
            want = mpf(mpmath.polygamma(1, x))
            assert abs(trigamma(x) - want) <= 1e-12 * max(1.0, abs(want))

    def test_trigamma_overflow_raises(self):
        # trigamma(x) ~ 1/x^2 passes the double range near zero
        with pytest.raises(RangeError):
            trigamma(1e-200)

    @pytest.mark.parametrize("fn", [ln_gamma, digamma, trigamma])
    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan])
    def test_domain_guard(self, fn, x):
        with pytest.raises(DomainError):
            fn(x)


class TestLaguerre:
    def test_grid_against_mpmath(self):
        for m in (0, 1, 2, 5, 17, 40):
            for alpha in (0.5, 1.0, 3.0, 7.25):
                for u in (0.0, 0.1, 1.0, 4.2, 30.0):
                    want = mpf(mpmath.laguerre(m, alpha, u))
                    got = laguerre(m, alpha, u)
                    assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_values_against_mpmath(self):
        for m, alpha, u in ((3, 1.0, 2.5), (8, 3.0, 11.0), (20, 5.0, 0.7)):
            want = mpf(mpmath.laguerre(m, alpha, u))
            assert abs(laguerre(m, alpha, u) - want) <= 1e-12 * max(1.0, abs(want))

    def test_array_matches_scalar_map(self):
        u = np.linspace(0.0, 12.0, 23)
        got = laguerre(6, 3.0, u)
        want = np.array([laguerre(6, 3.0, float(v)) for v in u])
        assert np.array_equal(got, want)

    def test_derivative_against_mpmath_diff(self):
        for m, alpha, u in ((1, 1.0, 0.9), (5, 3.0, 2.2), (9, 2.5, 7.0)):
            want = mpf(mpmath.diff(lambda t: mpmath.laguerre(m, alpha, t), u))
            got = laguerre_deriv(m, alpha, u)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_second_derivative_against_mpmath_diff(self):
        m, alpha, u = 6, 3.0, 1.7
        want = mpf(mpmath.diff(lambda t: mpmath.laguerre(m, alpha, t), u, 2))
        got = laguerre_deriv(m, alpha, u, order=2)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_guards(self):
        with pytest.raises(DomainError):
            laguerre(-1, 1.0, 0.5)
        with pytest.raises(DomainError):
            laguerre(2, -1.0, 0.5)
        with pytest.raises(DomainError):
            laguerre_deriv(2, 1.0, 0.5, order=0)


class TestHermite:
    def test_values_against_mpmath(self):
        t = np.linspace(-4.0, 4.0, 17)
        for N in range(13):
            want = np.array([mpf(mpmath.hermite(N, float(v))) for v in t])
            got = hermite(N, t)
            assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))

    def test_guard(self):
        with pytest.raises(DomainError):
            hermite(-2, 0.0)


class TestBesselJ:
    def test_real_arguments_against_mpmath(self):
        for nu in (0.0, 1.0, 3.0, 3.5, 7.0):
            for x in (0.1, 0.5, 1.0, 3.0, 10.0):
                want = mpf(mpmath.besselj(nu, x))
                got = bessel_j(nu, x)
                assert abs(got.imag) <= 1e-14
                assert abs(got.real - want) <= 1e-10 * max(1e-3, abs(want))

    def test_complex_arguments_against_mpmath(self):
        for nu in (0.0, 1.0, 3.0):
            for z in (0.5 + 0.5j, 2.0 + 2.0j, 1.0 + 5.0j, -1.5 + 0.25j):
                want = complex(mpmath.besselj(nu, mpmath.mpc(z)))
                got = bessel_j(nu, z)
                assert abs(got - want) <= 1e-10 * max(1e-3, abs(want))

    def test_large_real_arguments_against_mpmath(self):
        for x in (40.0, 400.0):
            want = mpf(mpmath.besselj(0, x))
            got = bessel_j(0.0, x)
            assert abs(got.imag) <= 1e-14
            assert abs(got.real - want) <= 1e-10 * max(1e-3, abs(want))

    def test_overflow_raises(self):
        # J_0(1000i) = I_0(1000) passes the double range inside the window
        with pytest.raises(RangeError):
            bessel_j(0.0, 1000j)

    def test_window_guard(self):
        with pytest.raises(DomainError):
            bessel_j(0.0, 2e3)
        with pytest.raises(DomainError):
            bessel_j(-1.0, 1.0)


class TestBesselI:
    def test_values_against_mpmath(self):
        for nu in (0.0, 0.5, 2.0, 15.0):
            for x in (0.0, 0.1, 1.0, 10.0, 100.0):
                want = mpf(mpmath.besseli(nu, x))
                got = bessel_i(nu, x)
                assert abs(got - want) <= 1e-12 * max(1e-12, abs(want))

    def test_scaled_values_against_mpmath(self):
        for nu in (0.0, 1.0, 5.0):
            for x in (1.0, 50.0, 600.0, 700.0):
                want = mpf(mpmath.besseli(nu, x) * mpmath.e**-x)
                got = bessel_i(nu, x, scaled=True)
                assert abs(got - want) <= 1e-12 * max(1e-12, abs(want))

    def test_overflow_raises_and_scaled_variant_survives(self):
        with pytest.raises(RangeError):
            bessel_i(0.0, 720.0)
        want = mpf(mpmath.besseli(0.0, 720.0) * mpmath.e ** mpmath.mpf(-720))
        assert abs(bessel_i(0.0, 720.0, scaled=True) - want) <= 1e-12 * want

    def test_scaled_large_argument_against_mpmath(self):
        want = mpf(mpmath.besseli(0, 2000) * mpmath.e ** mpmath.mpf(-2000))
        assert abs(bessel_i(0.0, 2000.0, scaled=True) - want) <= 1e-12 * want

    def test_array_argument_matches_scalar_calls(self):
        x = np.array([0.0, 0.1, 2.0, 50.0, 700.0])
        for scaled in (False, True):
            got = bessel_i(5.0, x, scaled=scaled)
            want = np.array([bessel_i(5.0, float(v), scaled=scaled) for v in x])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_guards(self):
        with pytest.raises(DomainError):
            bessel_i(-1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_i(0.0, -0.5)
        with pytest.raises(DomainError):
            bessel_i(0.0, np.array([1.0, -0.5]))
        with pytest.raises(RangeError):
            bessel_i(0.0, np.array([1.0, 720.0]))


class TestBesselK:
    def test_values_against_mpmath(self):
        for nu in (0.0, 1.0, 7.0, 15.0):
            for x in (0.05, 0.5, 1.99, 2.0, 5.0, 50.0):
                want = mpf(mpmath.besselk(nu, x))
                got = bessel_k(nu, x)
                assert abs(got - want) <= 5e-13 * max(1e-300, abs(want))

    def test_scaled_values_against_mpmath(self):
        for nu in (0.0, 1.0, 5.0):
            for x in (0.5, 2.0, 300.0, 700.0):
                want = mpf(mpmath.besselk(nu, x) * mpmath.e ** mpmath.mpf(x))
                got = bessel_k(nu, x, scaled=True)
                assert abs(got - want) <= 1e-12 * max(1e-12, abs(want))

    def test_negative_order_symmetry(self):
        assert bessel_k(-3.0, 1.5) == bessel_k(3.0, 1.5)
        assert bessel_k(-3.0, 4.5) == bessel_k(3.0, 4.5)

    def test_non_integer_order_is_refused(self):
        for nu in (1.0 / 3.0, 0.5, 3.5, 7.0 + 1e-7, 7.0 + 1e-12):
            for x in (0.5, 5.0):
                with pytest.raises(DomainError):
                    bessel_k(nu, x)

    def test_overflow_guard(self):
        with pytest.raises(RangeError):
            bessel_k(15.0, 1e-25)
        with pytest.raises(RangeError):
            bessel_k(15.0, np.array([1.0, 1e-25]), scaled=True)

    def test_array_argument_matches_scalar_calls(self):
        x = np.array([0.05, 0.5, 2.0, 50.0])
        for scaled in (False, True):
            got = bessel_k(7, x, scaled=scaled)
            assert got.tolist() == [bessel_k(7, float(v), scaled=scaled) for v in x]

    def test_guards(self):
        with pytest.raises(DomainError):
            bessel_k(1.0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(1.0, np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            bessel_k(math.inf, 1.0)


class TestCrossIdentities:
    def test_wronskian_pairing(self):
        # I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x ties I and K together
        for nu in (0.0, 1.0, 4.0, 11.0):
            for x in (0.2, 1.0, 3.0, 20.0):
                lhs = bessel_i(nu, x) * bessel_k(nu + 1.0, x) + bessel_i(
                    nu + 1.0, x
                ) * bessel_k(nu, x)
                assert abs(lhs - 1.0 / x) <= 1e-10 / x

    def test_generating_identity_ties_j_to_laguerre(self):
        # sum_N v^N L_N^(a)(u) / Gamma(N+a+1) = e^v (uv)^(-a/2) J_a(2 sqrt(uv))
        alpha, u, v = 3.0, 2.0, 1.5
        total = sum(
            v**N * laguerre(N, alpha, u) / math.gamma(N + alpha + 1.0)
            for N in range(40)
        )
        uv = u * v
        rhs = math.exp(v) * uv ** (-alpha / 2.0) * bessel_j(alpha, 2.0 * math.sqrt(uv))
        assert abs(total - rhs.real) <= 1e-9 * abs(rhs.real)


class TestNonFiniteArguments:
    # inf and nan are outside every contract domain; an overflow of a
    # finite argument is a RangeError, never a bare OverflowError
    @pytest.mark.parametrize(
        "fn, args, kwargs, error",
        [
            (ln_gamma, (math.inf,), {}, DomainError),
            (ln_gamma, (1e308,), {}, RangeError),
            (digamma, (math.inf,), {}, DomainError),
            (trigamma, (math.inf,), {}, DomainError),
            (laguerre, (3, 1.0, math.inf), {}, DomainError),
            (laguerre, (3, 1.0, np.array([0.5, 2.0, math.nan])), {}, DomainError),
            (laguerre, (3, math.inf, 1.0), {}, DomainError),
            (laguerre, (math.inf, 1.0, 1.0), {}, DomainError),
            (laguerre_deriv, (1, 1.0, np.array([1.0, math.inf])), {"order": 2}, DomainError),
            (hermite, (3, math.inf), {}, DomainError),
            (hermite, (3, np.array([0.0, -math.inf])), {}, DomainError),
            (hermite, (math.nan, 1.0), {}, DomainError),
            (bessel_j, (0.0, complex(1.0, math.nan)), {}, DomainError),
            (bessel_i, (0.0, math.inf), {"scaled": True}, DomainError),
            (bessel_i, (0.0, math.nan), {}, DomainError),
            (bessel_k, (0, math.inf), {}, DomainError),
            (bessel_k, (0, math.inf), {"scaled": True}, DomainError),
            (bessel_k, (0, np.array([1.0, math.nan])), {}, DomainError),
            (bessel_i, (0.0, np.array([1.0, math.inf])), {"scaled": True}, DomainError),
            (bessel_i, (0.0, np.array([math.nan, 1.0])), {}, DomainError),
        ],
    )
    def test_refused(self, fn, args, kwargs, error):
        with pytest.raises(error):
            fn(*args, **kwargs)
