"""Special-function kernel.

Every function the model's closed forms require, with documented accuracy
contracts. Each one is a thin wrapper over ``scipy.special`` (``ln_gamma``
over ``math.lgamma``) that adds the domain checks and turns an
overflowing value (in any element of an array) into ``RangeError``. A
non-finite argument (inf or nan, in any element of an array argument)
is refused with ``DomainError``. All routines are pure functions of
their arguments, so they are safe to call from any number of threads.

Accuracy contracts, as asserted against mpmath at 30 digits by the test
suite. The bound is on |got - want| / max(floor, |want|):

============  ===============================================  =====  =====
function      points checked                                   floor  bound
============  ===============================================  =====  =====
ln_gamma      x in [0.02, 300.5]                               1      1e-13
digamma       x in [0.02, 1e4]                                 1      1e-12
trigamma      x in [0.02, 1e4]                                 1      1e-12
laguerre      m <= 40, alpha in [0.5, 7.25], u in [0, 30]      1      1e-11
hermite       N <= 12, t in [-4, 4]                            1      1e-11
bessel_j      nu <= 7 with x <= 10 or |z| <= 5.1; J_0 to 400   1e-3   1e-10
bessel_i      nu <= 15, x <= 100; scaled: x <= 2000            1e-12  1e-12
bessel_k      integer nu <= 15, x in [0.05, 50]                0      5e-13
bessel_k      scaled: integer nu <= 5, x in [0.5, 700]         1e-12  1e-12
============  ===============================================  =====  =====
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError, RangeError

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

_J_Z_MAX = 1e3


def _finite(value, what: str):
    """Return a scalar special-function value, refusing an overflow."""
    if not math.isfinite(abs(value)):
        raise RangeError(f"{what} is not a finite double")
    return value


def _positive(x: float, what: str) -> None:
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"{what} requires finite x > 0, got {x!r}")


def _degree(m, what: str) -> int:
    if not (m >= 0 and math.isfinite(m) and m == int(m)):
        raise DomainError(f"{what} degree must be a non-negative integer, got {m!r}")
    return int(m)


def _finite_points(u, what: str) -> None:
    if not np.all(np.isfinite(u)):
        raise DomainError(f"{what} requires finite arguments")


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for positive real arguments.

    Thin wrapper over the C library routine, which is accurate to a few
    ulp on the contract domain; this function adds the domain check and
    turns an overflow (x near 1e308) into RangeError.
    """
    _positive(x, "ln_gamma")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise RangeError(f"ln_gamma({x!r}) is not a finite double") from None


def digamma(x: float) -> float:
    """Logarithmic derivative of the Gamma function, psi(x) = d ln Gamma/dx."""
    _positive(x, "digamma")
    return _finite(float(special.psi(x)), f"digamma({x})")


def trigamma(x: float) -> float:
    """First derivative of digamma; equals the Hurwitz zeta value zeta(2, x)."""
    _positive(x, "trigamma")
    return _finite(float(special.zeta(2.0, x)), f"trigamma({x})")


def laguerre(m: int, alpha: float, u):
    """Generalized Laguerre polynomial L_m^(alpha)(u).

    ``u`` may be a float or a numpy array; the result broadcasts
    elementwise.
    """
    m = _degree(m, "laguerre")
    if not (alpha > -1.0 and math.isfinite(alpha)):
        raise DomainError(f"laguerre requires finite alpha > -1, got {alpha!r}")
    _finite_points(u, "laguerre")
    return special.eval_genlaguerre(m, alpha, u)


def laguerre_deriv(m: int, alpha: float, u, order: int = 1):
    """Derivative of L_m^(alpha) with respect to u.

    Applies d/du L_m^(alpha) = -L_{m-1}^(alpha+1) repeatedly, so the result
    is itself a Laguerre polynomial.
    """
    if order < 1:
        raise DomainError(f"derivative order must be >= 1, got {order!r}")
    if m < order:
        _finite_points(u, "laguerre_deriv")
        return u * 0.0
    sign = -1.0 if order % 2 else 1.0
    return sign * laguerre(m - order, alpha + order, u)


def hermite(N: int, t):
    """Physicists' Hermite polynomial H_N(t)."""
    N = _degree(N, "hermite")
    _finite_points(t, "hermite")
    return special.eval_hermite(N, t)


def bessel_j(nu: float, z: complex) -> complex:
    """Bessel function of the first kind on the principal branch, complex
    argument supported. Raises DomainError beyond ``|z| = 1e3``."""
    if not (nu >= 0.0 and math.isfinite(nu)):
        raise DomainError(f"bessel_j requires finite nu >= 0, got {nu!r}")
    if not abs(z) <= _J_Z_MAX:
        raise DomainError(f"bessel_j requires |z| <= {_J_Z_MAX!r}, got |z| = {abs(z)!r}")
    return _finite(complex(special.jv(nu, complex(z))), f"J_{nu}({z})")


def bessel_i(nu: float, x, scaled: bool = False):
    """Modified Bessel function of the first kind, I_nu(x), real nu >= 0
    and x >= 0.

    ``x`` may be a float or a numpy array; the result broadcasts
    elementwise. ``scaled=True`` returns e^-x I_nu(x), which stays
    representable where I_nu(x) itself overflows. Raises DomainError for
    any x that is not finite and non-negative, and RangeError when any
    value overflows.
    """
    if not (nu >= 0.0 and math.isfinite(nu)):
        raise DomainError(f"bessel_i requires finite nu >= 0, got {nu!r}")
    if not np.all((np.asarray(x) >= 0.0) & np.isfinite(x)):
        raise DomainError(f"bessel_i requires finite x >= 0, got {x!r}")
    value = special.ive(nu, x) if scaled else special.iv(nu, x)
    if not np.all(np.isfinite(value)):
        # I_nu increases in x, so an overflow shows first at the largest x
        at = x if np.ndim(x) == 0 else float(np.max(x))
        what = f"e^-x I_{nu}(x) at x = {at}" if scaled else f"I_{nu}({at}) (request the scaled variant)"
        raise RangeError(f"{what} is not a finite double")
    return value if np.ndim(value) else float(value)


def bessel_k(nu: float, x, scaled: bool = False):
    """Modified Bessel function of the second kind, K_nu(x), integer nu.

    ``x`` may be a float or a numpy array; the result broadcasts
    elementwise. ``scaled=True`` returns e^x K_nu(x). Raises DomainError
    for a non-integer order or any x that is not finite and positive, and
    RangeError when any value overflows (x near zero with large order,
    where the e^x scaling cannot rescue it).
    """
    if not np.all((np.asarray(x) > 0.0) & np.isfinite(x)):
        raise DomainError(f"bessel_k requires finite x > 0, got {x!r}")
    if not (math.isfinite(nu) and nu == int(nu)):
        raise DomainError(f"bessel_k requires an integer order, got {nu!r}")
    nu = abs(nu)
    value = special.kve(nu, x) if scaled else special.kv(nu, x)
    if not np.all(np.isfinite(value)):
        # K_nu decreases in x, so an overflow shows first at the smallest x
        raise RangeError(f"K_{nu}(x) at x = {float(np.min(x))!r} is not a finite double")
    return value if np.ndim(value) else float(value)
