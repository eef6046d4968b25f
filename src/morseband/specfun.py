"""Special-function kernel.

Every function the model's closed forms require, with documented accuracy
contracts. All routines are pure functions of their arguments and hold no
mutable state, so they are safe to call from any number of threads. The
K route takes its Gauss-Laguerre tables from the frozen, cached
``quadrature.gauss_laguerre_nodes``.

Accuracy contracts (relative error unless stated otherwise):

============  =========================================  ==========
function      domain                                     bound
============  =========================================  ==========
ln_gamma      x in [1e-3, 1e6]                           1e-13
digamma       x in [1e-3, 1e6]                           1e-12
trigamma      x > 0                                      1e-12
laguerre      m <= 200, 0 <= u <= 1e4                    1e-11
bessel_j      |z| <= 1e3, cancellation guarded           1e-9 (est)
bessel_i      0 <= x <= 700                              1e-11
bessel_k      integer nu, x in [1e-6, 700]               1e-10
============  =========================================  ==========
"""

from __future__ import annotations

import cmath
import math

from .errors import AccuracyLossError, ConvergenceError, DomainError, RangeError
from .quadrature import gauss_laguerre_nodes

__all__ = [
    "ln_gamma",
    "digamma",
    "trigamma",
    "laguerre",
    "laguerre_deriv",
    "hermite",
    "bessel_j",
    "bessel_i",
    "bessel_k",
]

_EPS = 2.220446049250313e-16
# Series truncation policy: stop once the next term falls below _SERIES_EPS
# of the largest partial sum seen, give up at _SERIES_CAP terms.
_SERIES_EPS = 1e-15
_SERIES_CAP = 500
_LN_MAX_FLOAT = 709.782712893384
_CANCEL_LIMIT = 1e-9
_J_Z_MAX = 1e3


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for positive real arguments.

    Thin wrapper over the C library routine, which is accurate to a few
    ulp on the contract domain; this function only adds the domain check.
    """
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


# Asymptotic tail coefficients B_{2k}/(2k) of psi(x); the series is applied
# only for x >= 12 where the first omitted term is below 1e-15 relative.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_ASYM_SHIFT = 12.0


def digamma(x: float) -> float:
    """Logarithmic derivative of the Gamma function, psi(x) = d ln Gamma/dx.

    Upward recurrence psi(x) = psi(x+1) - 1/x into the asymptotic region,
    then the Bernoulli tail.
    """
    if not x > 0.0:
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < _ASYM_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail


# B_{2k} coefficients of the psi'(x) tail, x^{-(2k+1)} powers.
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def trigamma(x: float) -> float:
    """First derivative of digamma; equals the Hurwitz zeta value zeta(2, x)."""
    if not x > 0.0:
        raise DomainError(f"trigamma requires x > 0, got {x!r}")
    acc = 0.0
    while x < _ASYM_SHIFT:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    power = inv * inv2
    for c in _TRIGAMMA_TAIL:
        tail += c * power
        power *= inv2
    return acc + inv + 0.5 * inv2 + tail


def laguerre(m: int, alpha: float, u):
    """Generalized Laguerre polynomial L_m^(alpha)(u).

    Uses the three-term recurrence in the degree, which is stable for the
    contract domain m <= 200, 0 <= u <= 1e4. ``u`` may be a float or a
    numpy array; the recurrence broadcasts elementwise.
    """
    if m < 0 or m != int(m):
        raise DomainError(f"laguerre degree must be a non-negative integer, got {m!r}")
    if not alpha > -1.0:
        raise DomainError(f"laguerre requires alpha > -1, got {alpha!r}")
    one = u * 0.0 + 1.0
    if m == 0:
        return one
    prev = one
    cur = (1.0 + alpha) - u
    for k in range(1, m):
        prev, cur = cur, (((2.0 * k + 1.0 + alpha) - u) * cur - (k + alpha) * prev) / (k + 1.0)
    return cur


def laguerre_deriv(m: int, alpha: float, u, order: int = 1):
    """Derivative of L_m^(alpha) with respect to u.

    Applies d/du L_m^(alpha) = -L_{m-1}^(alpha+1) repeatedly, so the result
    is evaluated by the same recurrence as the polynomial itself.
    """
    if order < 1:
        raise DomainError(f"derivative order must be >= 1, got {order!r}")
    if m < order:
        return u * 0.0
    sign = -1.0 if order % 2 else 1.0
    return sign * laguerre(m - order, alpha + order, u)


def hermite(N: int, t):
    """Physicists' Hermite polynomial H_N(t) by the standard recurrence."""
    if N < 0 or N != int(N):
        raise DomainError(f"hermite degree must be a non-negative integer, got {N!r}")
    one = t * 0.0 + 1.0
    if N == 0:
        return one
    prev = one
    cur = 2.0 * t
    for k in range(1, N):
        prev, cur = cur, 2.0 * t * cur - 2.0 * k * prev
    return cur


def _bessel_j_series(nu: float, z: complex) -> tuple[complex, float]:
    """Ascending J series with a cancellation estimate.

    Returns (value, estimated relative error). The estimate is the largest
    intermediate magnitude times machine epsilon over the final magnitude,
    which is the standard bound for alternating-series cancellation.
    """
    z = complex(z)
    if z == 0:
        return (complex(1.0) if nu == 0 else complex(0.0)), 0.0
    term = cmath.exp(nu * cmath.log(z / 2.0) - math.lgamma(nu + 1.0))
    total = term
    ratio_base = -(z * z) / 4.0
    largest = max(abs(total), abs(term))
    converged = False
    for k in range(1, _SERIES_CAP + 1):
        term *= ratio_base / (k * (nu + k))
        total += term
        mag = abs(total)
        if mag > largest:
            largest = mag
        tmag = abs(term)
        if tmag > largest:
            largest = tmag
        if tmag <= _SERIES_EPS * largest:
            converged = True
            break
    final = abs(total)
    estimate = largest * _EPS / final if final > 0.0 else math.inf
    if not converged:
        if estimate > _CANCEL_LIMIT:
            raise AccuracyLossError(
                f"J series cancellation estimate {estimate:.2e} exceeds {_CANCEL_LIMIT:.0e}"
            )
        raise ConvergenceError(f"J series did not converge in {_SERIES_CAP} terms")
    return total, estimate


def bessel_j(nu: float, z: complex) -> complex:
    """Bessel function of the first kind, complex argument supported.

    Evaluates the ascending power series with the module truncation policy.
    Raises AccuracyLossError when the estimated relative cancellation error
    exceeds 1e-9, which for real arguments happens near ``|z| ~ 15``, and
    DomainError beyond ``|z| = 1e3``.
    """
    if not (nu >= 0.0 and math.isfinite(nu)):
        raise DomainError(f"bessel_j requires finite nu >= 0, got {nu!r}")
    if abs(z) > _J_Z_MAX:
        raise DomainError(f"bessel_j requires |z| <= {_J_Z_MAX!r}, got |z| = {abs(z)!r}")
    value, estimate = _bessel_j_series(nu, z)
    if estimate > _CANCEL_LIMIT:
        raise AccuracyLossError(
            f"J series cancellation estimate {estimate:.2e} exceeds {_CANCEL_LIMIT:.0e}"
        )
    return value


_RENORM = 2.0**512
_RENORM_LOG = 512.0 * math.log(2.0)


def _bessel_i_ln(nu: float, x: float) -> tuple[float, bool]:
    """(ln I_nu(x), converged) for nu >= 0, x > 0 by the renormalized series.

    All terms are positive, so there is no cancellation; partial sums are
    rescaled by 2^-512 whenever they grow past 2^512, which keeps the
    accumulation in range up to x = 700 and beyond. When the term cap is
    hit the partial-sum log is still returned: it is a rigorous lower
    bound on the true value, which lets the caller distinguish overflow
    from slow convergence.
    """
    ln_pref = nu * math.log(x / 2.0) - math.lgamma(nu + 1.0)
    q = x * x / 4.0
    term = 1.0
    total = 1.0
    shifts = 0
    converged = False
    for k in range(1, _SERIES_CAP + 1):
        term *= q / (k * (nu + k))
        total += term
        if total > _RENORM:
            total /= _RENORM
            term /= _RENORM
            shifts += 1
        if term <= _SERIES_EPS * total:
            converged = True
            break
    return ln_pref + math.log(total) + shifts * _RENORM_LOG, converged


def bessel_i(nu: float, x: float, scaled: bool = False) -> float:
    """Modified Bessel function of the first kind, I_nu(x).

    Parameters
    ----------
    nu : real order, >= 0.
    x : real argument, >= 0.
    scaled : when True, returns exp(-x) I_nu(x) instead, which stays
        representable for every x in the contract domain.

    Raises RangeError if the unscaled result overflows a double.
    """
    if not (nu >= 0.0 and math.isfinite(nu)):
        raise DomainError(f"bessel_i requires finite nu >= 0, got {nu!r}")
    if not x >= 0.0:
        raise DomainError(f"bessel_i requires x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    ln_value, converged = _bessel_i_ln(nu, x)
    if not scaled and ln_value > _LN_MAX_FLOAT:
        # a partial sum of positive terms already overflows, so the full
        # value certainly does, converged or not
        raise RangeError(f"I_{nu}({x}) overflows; request the scaled variant")
    if not converged:
        raise ConvergenceError(f"I series did not converge in {_SERIES_CAP} terms")
    return math.exp(ln_value - x) if scaled else math.exp(ln_value)


def _bessel_k_small_int(n: int, x: float) -> float:
    """Integer-order K for x < 2 by the standard logarithmic series."""
    xh = x / 2.0
    q = xh * xh
    # finite part: (1/2)(x/2)^{-n} sum_{k<n} (n-k-1)!/k! (-q)^k
    finite = 0.0
    if n > 0:
        term = 0.5 * math.exp(math.lgamma(n) - n * math.log(xh))
        for k in range(n):
            finite += term
            if k < n - 1:
                term *= -q / ((k + 1.0) * (n - k - 1.0))
    # log part
    log_part = (-1.0) ** (n + 1) * math.log(xh) * bessel_i(float(n), x)
    # psi series
    sign = (-1.0) ** n
    term = 0.5 * sign * math.exp(n * math.log(xh) - math.lgamma(n + 1.0))
    psi_sum = 0.0
    k = 0
    while True:
        psi_sum += term * (digamma(k + 1.0) + digamma(n + k + 1.0))
        k += 1
        if k > _SERIES_CAP:
            raise ConvergenceError("K integer series did not converge")
        term *= q / (k * (n + k))
        if abs(term) * (digamma(k + 1.0) + digamma(n + k + 1.0)) <= _SERIES_EPS * max(
            abs(psi_sum), 1e-300
        ):
            psi_sum += term * (digamma(k + 1.0) + digamma(n + k + 1.0))
            break
    return finite + log_part + psi_sum


def _bessel_k_integral_ln(nu: float, x: float) -> float:
    """ln [e^x K_nu(x)] for x >= 2 via the exponential integral representation.

    K_nu(x) = sqrt(pi/(2x)) e^-x / Gamma(nu+1/2) * int_0^inf e^-s s^(nu-1/2)
    (1 + s/(2x))^(nu-1/2) ds, evaluated by a generalized Gauss-Laguerre rule
    with the s^(nu-1/2) e^-s factor folded into the weights.
    """
    nodes, weights = gauss_laguerre_nodes(64, nu - 0.5)
    power = nu - 0.5
    acc = 0.0
    for s, w in zip(nodes.tolist(), weights.tolist()):
        acc += w * (2.0 + s / x) ** power
    ln_pref = 0.5 * math.log(math.pi) - math.lgamma(nu + 0.5) - nu * math.log(2.0) - 0.5 * math.log(x)
    return ln_pref + math.log(acc)


_K_SERIES_SPLIT = 2.0


def bessel_k(nu: float, x: float, scaled: bool = False) -> float:
    """Modified Bessel function of the second kind, K_nu(x), integer nu.

    The symmetry K_{-nu} = K_nu is applied structurally. Small arguments
    (x < 2) use the logarithmic series; larger arguments use a
    Gauss-Laguerre evaluation of the exponential integral representation.
    ``scaled=True`` returns e^x K_nu(x).

    Raises DomainError for a non-integer order and RangeError when the
    unscaled value overflows (x near zero with large order).
    """
    if not x > 0.0:
        raise DomainError(f"bessel_k requires x > 0, got {x!r}")
    if not (math.isfinite(nu) and nu == int(nu)):
        raise DomainError(f"bessel_k requires an integer order, got {nu!r}")
    nu = abs(nu)
    if x >= _K_SERIES_SPLIT:
        ln_scaled = _bessel_k_integral_ln(nu, x)
        if scaled:
            return math.exp(ln_scaled)
        return math.exp(ln_scaled - x)
    # small-x branch: guard the x -> 0 overflow for large order first;
    # the e^x scaling cannot rescue it here since e^x < e^2
    if nu > 0.0:
        ln_lead = math.lgamma(nu) + (nu * math.log(2.0 / x) - math.log(2.0))
        if ln_lead > _LN_MAX_FLOAT:
            raise RangeError(f"K_{nu}({x}) overflows even when scaled by e^x")
    value = _bessel_k_small_int(int(nu), x)
    return value * math.exp(x) if scaled else value
