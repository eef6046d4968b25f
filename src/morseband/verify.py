"""Named invariant suites behind the ``verify`` command.

Each suite re-measures the mathematical identities its module is built
on: special-function recurrences and Wronskians, eigenstate
orthonormality, the ladder-operator commutation table, coherent-state
defining properties, and the closed-form/quadrature moment agreement.
Every check returns its measured value next to the tolerance it was
held to, so a report is meaningful whether it passes or fails.

One table, ``_TABLE``, declares every check once: its suite, default
tolerance, report text and bound direction. A check itself only yields
(residual, where) cases; one runner reduces them to a ``CheckResult``.

Checks are pure and independent; a suite may run them on a thread pool
(capped by MORSEBAND_THREADS) and still produce identical reports, as
results are merged in declaration order.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .algebra import (
    _COMPOSED_MARGIN,
    _relative_defect,
    algebra_grid,
    apply_Lminus,
    apply_Lplus,
    commutator_residual,
)
from .coherent import (
    CoherentSpec,
    bg_state_closed,
    default_coherent_grid,
    identity_resolution_check,
    series_closed_agreement,
)
from .errors import ConfigError
from .model import PhysParams, QuantumNumbers
from .moments import landau_delta, moments_closed, moments_quadrature
from .quadrature import FD_MARGIN, fd_derivative, grid_inner_product
from .specfun import (
    bessel_i,
    bessel_j,
    bessel_k,
    digamma,
    laguerre,
    ln_gamma,
    trigamma,
)
from .states import (
    LandauParams,
    SampledState,
    assoc_bessel,
    assoc_bessel_rodrigues,
    default_grid,
    wavefunction,
)

__all__ = [
    "CheckResult",
    "DEFAULT_TOLERANCES",
    "SUITE_NAMES",
    "resolve_tolerances",
    "thread_budget",
    "run_suite",
]


@dataclass(frozen=True)
class CheckResult:
    """One measured invariant.

    bound says which direction passes: "upper" checks hold when
    measured <= tolerance, "lower" when measured >= tolerance (used for
    quantities asserted to be genuinely nonzero).
    """

    name: str
    passed: bool
    measured: float
    tolerance: float
    bound: str = "upper"
    detail: str = ""


_ALGEBRA_BASIS = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4))
_COHERENT_SAMPLE = tuple(
    (l, z)
    for l in (0, 1, 2)
    for z in (0.7 + 0.0j, 1.8 * cmath.exp(0.25j * math.pi), 2.8 * cmath.exp(2.0j))
)
_POLYGAMMA_STEP = 1e-4


# Every check below is a generator of (residual, where) cases: it takes no
# tolerance and builds no result. _run_check reduces the cases.

# ---------------------------------------------------------------- specfun


def _orders(f, count: int, points: tuple[float, ...]) -> list[list[float]]:
    """f(m, x) for the orders or degrees m = 0 .. count-1, one call per m
    on the whole point tuple: row m holds the values at the points."""
    table = np.empty((count, len(points)))
    for m in range(count):
        table[m] = f(float(m), np.array(points))
    return table.tolist()


def _bessel_recurrence():
    xs = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0)
    i = _orders(bessel_i, 17, xs)
    for nu in range(1, 16):
        for j, x in enumerate(xs):
            lower_order = i[nu - 1][j]
            resid = abs(lower_order - i[nu + 1][j] - (2.0 * nu / x) * i[nu][j]) / abs(lower_order)
            yield resid, f"nu={nu}, x={x:g}"


def _bessel_wronskian():
    xs = (0.1, 0.3, 1.0, 1.9, 2.0, 3.7, 10.0, 25.0, 50.0)
    i, k = _orders(bessel_i, 17, xs), _orders(bessel_k, 17, xs)
    for nu in range(16):
        for j, x in enumerate(xs):
            lhs = i[nu][j] * k[nu + 1][j] + i[nu + 1][j] * k[nu][j]
            yield x * abs(lhs - 1.0 / x), f"nu={nu}, x={x:g}"


def _generating_identity():
    """Truncated sum_N v^N L_N^(a)(u) / Gamma(N+a+1) against
    e^v (uv)^(-a/2) J_a(2 sqrt(uv)), the identity the coherent closed
    form rests on."""
    points = (0.5, 1.5, 3.0, 5.0)
    for alpha in (1, 3, 5):
        table = _orders(lambda N, u: laguerre(N, float(alpha), u), 40, points)
        ln_norms = [ln_gamma(N + alpha + 1.0) for N in range(40)]
        for j, u in enumerate(points):
            for v in points:
                total = 0.0
                for N in range(40):
                    coeff = math.exp(N * math.log(v) - ln_norms[N])
                    total += coeff * table[N][j]
                target = (
                    math.exp(v)
                    * (u * v) ** (-0.5 * alpha)
                    * bessel_j(float(alpha), complex(2.0 * math.sqrt(u * v))).real
                )
                yield abs(total - target) / abs(target), f"alpha={alpha}, u={u:g}, v={v:g}"


def _polygamma_consistency():
    h = _POLYGAMMA_STEP
    for x in (0.5, 1.0, 2.0, 10.0, 100.0):
        fd_digamma = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h)
        fd_trigamma = (digamma(x + h) - digamma(x - h)) / (2.0 * h)
        yield abs(fd_digamma - digamma(x)), f"digamma at x={x:g}"
        yield abs(fd_trigamma - trigamma(x)), f"trigamma at x={x:g}"


def _laguerre_orthogonality():
    # exact to degree 47 for the weight e^-u, above the 27 of u^7 L_10 L_10
    nodes, weights = np.polynomial.laguerre.laggauss(24)
    for alpha in (1.0, 3.0, 7.0):
        table = np.stack([laguerre(m, alpha, nodes) for m in range(11)])
        gram = (table * (weights * nodes**alpha)) @ table.T
        norms = np.array(
            [math.exp(ln_gamma(m + alpha + 1.0) - ln_gamma(m + 1.0)) for m in range(11)]
        )
        deviation = np.abs(gram - np.diag(norms)) / np.sqrt(np.outer(norms, norms))
        idx = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
        yield float(deviation[idx]), f"alpha={alpha:g}, m={idx[0]}, m'={idx[1]}"


# ----------------------------------------------------------------- states


def _orthonormality():
    p = PhysParams.natural()
    grid = default_grid(p)
    basis = [
        wavefunction(QuantumNumbers(l, n), p, grid)
        for n in range(1, 7)
        for l in range(n)
    ]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis[i:], i):
            target = 1.0 if i == j else 0.0
            resid = abs(grid_inner_product(a, b) - target)
            yield resid, f"({a.labels.l},{a.labels.n})|({b.labels.l},{b.labels.n})"


def _rodrigues_agreement():
    beta = PhysParams.natural().beta
    for l, n in ((0, 1), (0, 2), (1, 2), (1, 3)):
        for xi in (0.45, 0.9, 1.7, 3.3, 7.1):
            series_val = float(assoc_bessel(l, n, beta, xi))
            exact_val = assoc_bessel_rodrigues(l, n, beta, xi)
            resid = abs(series_val - exact_val) / max(abs(series_val), abs(exact_val))
            yield resid, f"(l,n)=({l},{n}), xi={xi:g}"


def _y_translation():
    p = PhysParams.natural()
    grid = default_grid(p)
    for l, n in ((0, 1), (1, 3), (2, 4)):
        values = wavefunction(QuantumNumbers(l, n), p, grid).values
        scale = float(np.max(np.abs(values)))
        for m in (1, 7, grid.ny // 2):
            phase = cmath.exp(-2j * math.pi * n * m / grid.ny)
            resid = float(
                np.max(np.abs(np.roll(values, -m, axis=1) - values * phase))
            ) / scale
            yield resid, f"(l,n)=({l},{n}), shift={m}"


def _density_y_flat():
    p = PhysParams.natural()
    grid = default_grid(p)
    for l, n in ((1, 2), (2, 4)):
        s = wavefunction(QuantumNumbers(l, n), p, grid)
        density = np.abs(s.values) ** 2
        field = SampledState.from_samples(grid, density, s.weight, s.y_period)
        slope_modes = fd_derivative(field.modes, field, "y", 1)
        slope = np.max(np.abs(dataclasses.replace(field, modes=slope_modes).values))
        yield float(slope / np.max(density)), f"(l,n)=({l},{n})"


# ---------------------------------------------------------------- algebra


def _commutators(pairs: tuple[str, ...]):
    p = PhysParams.natural()
    grid = algebra_grid(p)
    for l, n in _ALGEBRA_BASIS:
        s = wavefunction(QuantumNumbers(l, n), p, grid)
        for pair in pairs:
            yield commutator_residual(s, p, pair), f"{pair} on ({l},{n})"


def _lower_raise_roundtrip():
    """Lowering then raising must scale an eigenstate by (n+l)(n-l-1)."""
    p = PhysParams.natural()
    grid = algebra_grid(p)
    for l, n in ((0, 2), (0, 3), (1, 3), (2, 4)):
        s = wavefunction(QuantumNumbers(l, n), p, grid)
        target = float((n + l) * (n - l - 1))
        roundtrip = apply_Lplus(apply_Lminus(s, p), p)
        resid = _relative_defect(roundtrip, s, s, target, target, _COMPOSED_MARGIN)
        yield resid, f"(l,n)=({l},{n})"


def _h_ladder_noncommutation():
    """The Hamiltonian does not commute with the raising operator; the
    measured commutator on the ground state must stay above threshold."""
    p = PhysParams.natural()
    s = wavefunction(QuantumNumbers(0, 1), p, algebra_grid(p))
    yield commutator_residual(s, p, "h_plus"), "(0,1)"


# --------------------------------------------------------------- coherent


def _coherent_normalization():
    p = PhysParams.natural()
    grid = default_coherent_grid(p)
    for l, z in _COHERENT_SAMPLE:
        s = bg_state_closed(CoherentSpec(l, z), p, grid)
        yield abs(grid_inner_product(s, s).real - 1.0), f"l={l}, Z={z:.3f}"


def _lowering_eigenvalue():
    p = PhysParams.natural()
    grid = default_coherent_grid(p)
    for l, z in _COHERENT_SAMPLE:
        s = bg_state_closed(CoherentSpec(l, z), p, grid)
        yield _relative_defect(apply_Lminus(s, p), s, s, z, 1.0, FD_MARGIN), f"l={l}, Z={z:.3f}"


def _resolution_identity():
    for l in (0, 1, 2):
        yield float(np.max(np.abs(identity_resolution_check(l, 4)))), f"l={l}"


def _series_closed_agreement():
    p = PhysParams.natural()
    grid = default_coherent_grid(p)
    for l, z in _COHERENT_SAMPLE:
        report = series_closed_agreement(CoherentSpec(l, z), p, grid)
        yield report.pointwise_max, f"l={l}, Z={z:.3f}"


# ---------------------------------------------------------------- moments


def _moment_deviations(a, b) -> list[float]:
    """Relative gap of each moment entry between two moment sets."""
    closed_p2 = max(abs(a.mean_p2), 1.0)
    entries = (
        (a.mean_x, b.mean_x, None),
        (a.mean_x2, b.mean_x2, None),
        (a.mean_p, b.mean_p, None),
        (a.mean_p2, b.mean_p2, None),
        (a.mean_xp, b.mean_xp, None),
        (a.sigma_xx, b.sigma_xx, None),
        (a.sigma_pp, b.sigma_pp, closed_p2),
        (a.sigma_xp, b.sigma_xp, None),
        (a.delta, b.delta, None),
    )
    return [
        abs(u - v) / (scale if scale is not None else max(abs(u), abs(v)))
        for u, v, scale in entries
    ]


def _moments_closed_quadrature():
    p = PhysParams.natural()
    for l in range(5):
        for N in range(3):
            q = QuantumNumbers(l, l + 1 + N)
            deviations = _moment_deviations(moments_closed(q, p), moments_quadrature(q, p))
            yield from ((resid, f"(l,N)=({l},{N})") for resid in deviations)


def _lowest_delta():
    p = PhysParams.natural()
    for l in range(7):
        yield abs(moments_closed(QuantumNumbers(l, l + 1), p).delta - 0.25 * p.hbar**2), f"l={l}"


def _uncertainty_limit_order():
    """Deltas along the N = 1 and N = 2 families must increase with l
    toward their flat-field limits, with the gap shrinking as 1/l. A
    family whose deltas do not increase measures inf, which fails."""
    p = PhysParams.natural()
    for N, limit in ((1, 2.25), (2, 6.25)):
        deltas = [
            moments_closed(QuantumNumbers(l, l + 1 + N), p).delta
            for l in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
        ]
        if all(b > a for a, b in zip(deltas, deltas[1:])):
            order = math.log2((limit - deltas[-2]) / (limit - deltas[-1]))
            yield abs(order - 1.0), f"N={N}; monotone=True"
        else:
            yield math.inf, f"N={N}; monotone=False"


def _landau_uncertainty_table():
    """The tabulated flat-field uncertainties, instantiated at the label
    values where the table and the direct computation coincide."""
    p = PhysParams.natural()
    hbar2 = p.hbar**2
    entries = (
        (LandauParams(gauge="symmetric", n=0, l=0), 0.25),
        (LandauParams(gauge="symmetric", n=1, l=0), 2.25),
        (LandauParams(gauge="symmetric", n=1, l=1), 4.0),
        (LandauParams(gauge="asymmetric", N=0, k_y=0.0), 0.25),
        (LandauParams(gauge="asymmetric", N=1, k_y=0.0), 2.25),
        (LandauParams(gauge="asymmetric", N=2, k_y=0.0), 6.25),
    )
    for lp, target in entries:
        yield abs(landau_delta(lp, p) / hbar2 - target) / target, f"{lp.gauge} target {target:g}"


# ------------------------------------------------------------ suite runner


class _Check(NamedTuple):
    """One table row: the default tolerance, the case generator, the
    report text (formatted with the worst case's where) and the bound."""

    tolerance: float
    cases: Callable[[], Iterable[tuple[float, str]]]
    detail: str = "worst at {}"
    bound: str = "upper"


# suite -> check name -> row; the report lists suites and checks in this order
_TABLE: dict[str, dict[str, _Check]] = {
    "specfun": {
        "bessel_recurrence": _Check(1e-11, _bessel_recurrence),
        "bessel_wronskian": _Check(1e-10, _bessel_wronskian, "x-scaled defect, worst at {}"),
        "generating_identity": _Check(
            1e-9, _generating_identity, "40-term truncation, worst at {}"
        ),
        "polygamma_consistency": _Check(
            1e-6, _polygamma_consistency, f"centered h={_POLYGAMMA_STEP:g}, worst for {{}}"
        ),
        "laguerre_orthogonality": _Check(1e-9, _laguerre_orthogonality),
    },
    "states": {
        "orthonormality": _Check(1e-8, _orthonormality, "n, n' <= 6, worst at {}"),
        "rodrigues_agreement": _Check(1e-10, _rodrigues_agreement),
        "y_translation": _Check(1e-12, _y_translation),
        "density_y_flat": _Check(1e-10, _density_y_flat),
    },
    "algebra": {
        "ladder_commutator": _Check(1e-5, partial(_commutators, ("ladder",))),
        "l3_ladder_commutators": _Check(1e-5, partial(_commutators, ("three_plus", "three_minus"))),
        "lower_raise_roundtrip": _Check(1e-5, _lower_raise_roundtrip),
        "h_ladder_noncommutation": _Check(
            1e-2, _h_ladder_noncommutation, "[H, L+] on {} over ||H s||", "lower"
        ),
        "h_l3_commutation": _Check(1e-5, partial(_commutators, ("h_three",))),
        "h_casimir_commutation": _Check(1e-5, partial(_commutators, ("h_casimir",))),
    },
    "coherent": {
        "coherent_normalization": _Check(1e-7, _coherent_normalization),
        "lowering_eigenvalue": _Check(1e-5, _lowering_eigenvalue),
        "resolution_identity": _Check(1e-6, _resolution_identity, "N, N' <= 4, worst at {}"),
        "series_closed_agreement": _Check(
            1e-7, _series_closed_agreement, "pointwise, worst at {}"
        ),
    },
    "moments": {
        "moments_closed_quadrature": _Check(
            1e-7, _moments_closed_quadrature, "entrywise, worst at {}"
        ),
        "lowest_delta": _Check(1e-12, _lowest_delta, "against hbar^2/4, worst at {}"),
        "uncertainty_limit_order": _Check(
            0.05, _uncertainty_limit_order, "convergence-order defect at l=1024, worst at {}"
        ),
        "landau_uncertainty_table": _Check(1e-7, _landau_uncertainty_table),
    },
}


def _worst_case(cases: list[tuple[float, str]], bound: str = "upper") -> tuple[float, str]:
    """The (residual, where) case furthest on the failing side of the bound:
    the first maximum for an upper bound, the first minimum for a lower.

    A later case replaces the current one only when strictly worse, so a
    tie reports the first. A NaN residual counts as the worst of all.
    """
    sign = 1.0 if bound == "upper" else -1.0
    worst, where = cases[0]
    for resid, at in cases[1:]:
        if sign * resid > sign * worst or (math.isnan(resid) and not math.isnan(worst)):
            worst, where = resid, at
    return worst, where


def _run_check(name: str, check: _Check, tolerance: float) -> CheckResult:
    """Run one table row's cases and hold the worst to tolerance; a NaN fails."""
    worst, where = _worst_case(list(check.cases()), check.bound)
    passed = worst <= tolerance if check.bound == "upper" else worst >= tolerance
    return CheckResult(
        name, bool(passed), float(worst), tolerance, check.bound, check.detail.format(where)
    )


DEFAULT_TOLERANCES: dict[str, float] = {
    name: check.tolerance for checks in _TABLE.values() for name, check in checks.items()
}
# name -> callable(tolerance) -> CheckResult; _run_named looks entries up at call time
_CHECKS: dict[str, Callable[[float], CheckResult]] = {
    name: partial(_run_check, name, check)
    for checks in _TABLE.values()
    for name, check in checks.items()
}
SUITES: dict[str, tuple[str, ...]] = {suite: tuple(checks) for suite, checks in _TABLE.items()}
SUITE_NAMES: tuple[str, ...] = tuple(SUITES)


def thread_budget() -> int:
    """Worker cap from MORSEBAND_THREADS, defaulting to the CPU count."""
    raw = os.environ.get("MORSEBAND_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"MORSEBAND_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"MORSEBAND_THREADS must be >= 1, got {value}")
    return value


def resolve_tolerances(overrides: Mapping[str, float] | None = None) -> dict[str, float]:
    """Defaults merged with overrides; unknown names and values that are
    not positive and finite are configuration errors."""
    resolved = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if name not in resolved:
            known = ", ".join(sorted(resolved))
            raise ConfigError(f"unknown tolerance name {name!r}; known names: {known}")
        value = float(value)
        if not (value > 0.0 and math.isfinite(value)):
            raise ConfigError(f"tolerance {name} must be positive and finite, got {value!r}")
        resolved[name] = value
    return resolved


def _run_named(
    names: tuple[str, ...], tolerances: dict[str, float], max_workers: int
) -> list[CheckResult]:
    funcs = [_CHECKS[name] for name in names]
    tols = [tolerances[name] for name in names]
    if max_workers <= 1 or len(names) <= 1:
        return [func(tol) for func, tol in zip(funcs, tols)]
    with ThreadPoolExecutor(max_workers=min(max_workers, len(names))) as pool:
        return list(pool.map(lambda pair: pair[0](pair[1]), zip(funcs, tols)))


def _suite_report(suite: str, tolerances: dict[str, float], max_workers: int) -> dict:
    checks = _run_named(SUITES[suite], tolerances, max_workers)
    return {
        "suite": suite,
        "passed": all(c.passed for c in checks),
        "checks": [dataclasses.asdict(c) for c in checks],
    }


def run_suite(name: str, tolerances: Mapping[str, float] | None = None) -> dict:
    """Run one named suite (or "all") and return a JSON-ready report.

    Checks run on up to :func:`thread_budget` threads. The report lists
    them in declaration order whatever the worker count, so identical
    inputs give identical reports.
    """
    resolved = resolve_tolerances(tolerances)
    workers = thread_budget()
    if name == "all":
        reports = [_suite_report(suite, resolved, workers) for suite in SUITE_NAMES]
        return {
            "suite": "all",
            "passed": all(r["passed"] for r in reports),
            "suites": reports,
        }
    if name not in SUITES:
        known = ", ".join(SUITE_NAMES + ("all",))
        raise ConfigError(f"unknown suite {name!r}; known suites: {known}")
    return _suite_report(name, resolved, workers)
