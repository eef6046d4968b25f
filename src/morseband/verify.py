"""Named invariant suites behind the ``verify`` command.

Each suite re-measures the mathematical identities its module is built
on: special-function recurrences and Wronskians, eigenstate
orthonormality, the ladder-operator commutation table, coherent-state
defining properties, and the closed-form/quadrature moment agreement.
Every check returns its measured value next to the tolerance it was
held to, so a report is meaningful whether it passes or fails.

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
from typing import Callable, Mapping

import numpy as np

from .algebra import algebra_grid, apply_Lminus, apply_Lplus, commutator_residual
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
from .quadrature import (
    FD_MARGIN,
    gauss_laguerre_nodes,
    fd_derivative,
    grid_inner_product,
    weighted_norm,
)
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


def _worst(
    name: str, tol: float, cases: list[tuple[float, str]], detail: str = "worst at {}"
) -> CheckResult:
    """Upper-bound result for the largest of the (residual, where) cases.

    The first case stands until a later residual is strictly larger, so
    a tie reports the first maximum. A NaN residual counts as the worst:
    it is reported and fails the check. detail is formatted with the
    winning case's where.
    """
    worst, where = cases[0]
    for resid, at in cases[1:]:
        if resid > worst or (math.isnan(resid) and not math.isnan(worst)):
            worst, where = resid, at
    return CheckResult(name, bool(worst <= tol), float(worst), tol, "upper", detail.format(where))


def _lower(name: str, measured: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(measured >= tol), float(measured), tol, "lower", detail)


DEFAULT_TOLERANCES: dict[str, float] = {
    "bessel_recurrence": 1e-11,
    "bessel_wronskian": 1e-10,
    "generating_identity": 1e-9,
    "polygamma_consistency": 1e-6,
    "laguerre_orthogonality": 1e-9,
    "orthonormality": 1e-8,
    "rodrigues_agreement": 1e-10,
    "y_translation": 1e-12,
    "density_y_flat": 1e-10,
    "ladder_commutator": 1e-5,
    "l3_ladder_commutators": 1e-5,
    "lower_raise_roundtrip": 1e-5,
    "h_ladder_noncommutation": 1e-2,
    "h_l3_commutation": 1e-5,
    "h_casimir_commutation": 1e-5,
    "coherent_normalization": 1e-7,
    "lowering_eigenvalue": 1e-5,
    "resolution_identity": 1e-6,
    "series_closed_agreement": 1e-7,
    "moments_closed_quadrature": 1e-7,
    "lowest_delta": 1e-12,
    "uncertainty_limit_order": 0.05,
    "landau_uncertainty_table": 1e-7,
}

_ALGEBRA_BASIS = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4))
_COHERENT_SAMPLE = tuple(
    (l, z)
    for l in (0, 1, 2)
    for z in (0.7 + 0.0j, 1.8 * cmath.exp(0.25j * math.pi), 2.8 * cmath.exp(2.0j))
)


# ---------------------------------------------------------------- specfun


def _check_bessel_recurrence(tol: float) -> CheckResult:
    cases = []
    for nu in range(1, 16):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0):
            lower_order = bessel_i(nu - 1.0, x)
            resid = abs(
                lower_order - bessel_i(nu + 1.0, x) - (2.0 * nu / x) * bessel_i(float(nu), x)
            ) / abs(lower_order)
            cases.append((resid, f"nu={nu}, x={x:g}"))
    return _worst("bessel_recurrence", tol, cases)


def _check_bessel_wronskian(tol: float) -> CheckResult:
    cases = []
    for nu in range(16):
        for x in (0.1, 0.3, 1.0, 1.9, 2.0, 3.7, 10.0, 25.0, 50.0):
            lhs = bessel_i(float(nu), x) * bessel_k(nu + 1.0, x) + bessel_i(
                nu + 1.0, x
            ) * bessel_k(float(nu), x)
            resid = x * abs(lhs - 1.0 / x)
            cases.append((resid, f"nu={nu}, x={x:g}"))
    return _worst("bessel_wronskian", tol, cases, "x-scaled defect, worst at {}")


def _check_generating_identity(tol: float) -> CheckResult:
    """Truncated sum_N v^N L_N^(a)(u) / Gamma(N+a+1) against
    e^v (uv)^(-a/2) J_a(2 sqrt(uv)), the identity the coherent closed
    form rests on."""
    cases = []
    points = (0.5, 1.5, 3.0, 5.0)
    for alpha in (1, 3, 5):
        for u in points:
            for v in points:
                total = 0.0
                for N in range(40):
                    coeff = math.exp(N * math.log(v) - ln_gamma(N + alpha + 1.0))
                    total += coeff * float(laguerre(N, float(alpha), u))
                target = (
                    math.exp(v)
                    * (u * v) ** (-0.5 * alpha)
                    * bessel_j(float(alpha), complex(2.0 * math.sqrt(u * v))).real
                )
                resid = abs(total - target) / abs(target)
                cases.append((resid, f"alpha={alpha}, u={u:g}, v={v:g}"))
    return _worst("generating_identity", tol, cases, "40-term truncation, worst at {}")


def _check_polygamma_consistency(tol: float) -> CheckResult:
    h = 1e-4
    cases = []
    for x in (0.5, 1.0, 2.0, 10.0, 100.0):
        fd_digamma = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h)
        fd_trigamma = (digamma(x + h) - digamma(x - h)) / (2.0 * h)
        for tag, resid in (
            ("digamma", abs(fd_digamma - digamma(x))),
            ("trigamma", abs(fd_trigamma - trigamma(x))),
        ):
            cases.append((resid, f"{tag} at x={x:g}"))
    return _worst("polygamma_consistency", tol, cases, f"centered h={h:g}, worst for {{}}")


def _check_laguerre_orthogonality(tol: float) -> CheckResult:
    cases = []
    for alpha in (1.0, 3.0, 7.0):
        nodes, weights = gauss_laguerre_nodes(24, alpha)
        table = np.stack([laguerre(m, alpha, nodes) for m in range(11)])
        gram = (table * weights) @ table.T
        norms = np.array(
            [math.exp(ln_gamma(m + alpha + 1.0) - ln_gamma(m + 1.0)) for m in range(11)]
        )
        deviation = np.abs(gram - np.diag(norms)) / np.sqrt(np.outer(norms, norms))
        idx = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
        cases.append((float(deviation[idx]), f"alpha={alpha:g}, m={idx[0]}, m'={idx[1]}"))
    return _worst("laguerre_orthogonality", tol, cases)


# ----------------------------------------------------------------- states


def _check_orthonormality(tol: float) -> CheckResult:
    p = PhysParams.natural()
    grid = default_grid(p)
    basis = [
        wavefunction(QuantumNumbers(l, n), p, grid)
        for n in range(1, 7)
        for l in range(n)
    ]
    cases = []
    for i, a in enumerate(basis):
        for b in basis[i:]:
            target = 1.0 if a.labels == b.labels else 0.0
            resid = abs(grid_inner_product(a, b) - target)
            cases.append((resid, f"({a.labels.l},{a.labels.n})|({b.labels.l},{b.labels.n})"))
    return _worst("orthonormality", tol, cases, "n, n' <= 6, worst at {}")


def _check_rodrigues_agreement(tol: float) -> CheckResult:
    beta = PhysParams.natural().beta
    cases = []
    for l, n in ((0, 1), (0, 2), (1, 2), (1, 3)):
        for xi in (0.45, 0.9, 1.7, 3.3, 7.1):
            series_val = float(assoc_bessel(l, n, beta, xi))
            exact_val = assoc_bessel_rodrigues(l, n, beta, xi)
            resid = abs(series_val - exact_val) / max(abs(series_val), abs(exact_val))
            cases.append((resid, f"(l,n)=({l},{n}), xi={xi:g}"))
    return _worst("rodrigues_agreement", tol, cases)


def _check_y_translation(tol: float) -> CheckResult:
    p = PhysParams.natural()
    grid = default_grid(p)
    cases = []
    for l, n in ((0, 1), (1, 3), (2, 4)):
        s = wavefunction(QuantumNumbers(l, n), p, grid)
        scale = float(np.max(np.abs(s.values)))
        for m in (1, 7, grid.ny // 2):
            phase = cmath.exp(-2j * math.pi * n * m / grid.ny)
            resid = float(
                np.max(np.abs(np.roll(s.values, -m, axis=1) - s.values * phase))
            ) / scale
            cases.append((resid, f"(l,n)=({l},{n}), shift={m}"))
    return _worst("y_translation", tol, cases)


def _check_density_y_flat(tol: float) -> CheckResult:
    p = PhysParams.natural()
    grid = default_grid(p)
    cases = []
    for l, n in ((1, 2), (2, 4)):
        s = wavefunction(QuantumNumbers(l, n), p, grid)
        density = np.abs(s.values) ** 2
        slope = np.max(np.abs(fd_derivative(density, s, "y", 1)))
        resid = float(slope / np.max(density))
        cases.append((resid, f"(l,n)=({l},{n})"))
    return _worst("density_y_flat", tol, cases)


# ---------------------------------------------------------------- algebra


def _algebra_states(p: PhysParams):
    grid = algebra_grid(p)
    return [wavefunction(QuantumNumbers(l, n), p, grid) for l, n in _ALGEBRA_BASIS]


def _commutator_scan(name: str, pairs: tuple[str, ...], tol: float) -> CheckResult:
    p = PhysParams.natural()
    cases = []
    for s in _algebra_states(p):
        for pair in pairs:
            resid = commutator_residual(s, p, pair)
            cases.append((resid, f"{pair} on ({s.labels.l},{s.labels.n})"))
    return _worst(name, tol, cases)


def _check_lower_raise_roundtrip(tol: float) -> CheckResult:
    """Lowering then raising must scale an eigenstate by (n+l)(n-l-1)."""
    p = PhysParams.natural()
    grid = algebra_grid(p)
    margin = 2 * FD_MARGIN
    cases = []
    for l, n in ((0, 2), (0, 3), (1, 3), (2, 4)):
        s = wavefunction(QuantumNumbers(l, n), p, grid)
        target = float((n + l) * (n - l - 1))
        roundtrip = apply_Lplus(apply_Lminus(s, p), p)
        resid = weighted_norm(roundtrip.values - target * s.values, s, exclude_margin=margin) / (
            target * weighted_norm(s.values, s, exclude_margin=margin)
        )
        cases.append((resid, f"(l,n)=({l},{n})"))
    return _worst("lower_raise_roundtrip", tol, cases)


def _check_h_ladder_noncommutation(tol: float) -> CheckResult:
    """The Hamiltonian does not commute with the raising operator; the
    measured commutator on the ground state must stay above threshold."""
    p = PhysParams.natural()
    s = wavefunction(QuantumNumbers(0, 1), p, algebra_grid(p))
    measured = commutator_residual(s, p, "h_plus")
    return _lower("h_ladder_noncommutation", measured, tol, "[H, L+] on (0,1) over ||H s||")


# --------------------------------------------------------------- coherent


def _check_coherent_normalization(tol: float) -> CheckResult:
    p = PhysParams.natural()
    grid = default_coherent_grid(p)
    cases = []
    for l, z in _COHERENT_SAMPLE:
        s = bg_state_closed(CoherentSpec(l, z), p, grid)
        resid = abs(grid_inner_product(s, s).real - 1.0)
        cases.append((resid, f"l={l}, Z={z:.3f}"))
    return _worst("coherent_normalization", tol, cases)


def _check_lowering_eigenvalue(tol: float) -> CheckResult:
    p = PhysParams.natural()
    grid = default_coherent_grid(p)
    cases = []
    for l, z in _COHERENT_SAMPLE:
        s = bg_state_closed(CoherentSpec(l, z), p, grid)
        lowered = apply_Lminus(s, p)
        resid = weighted_norm(lowered.values - z * s.values, s, exclude_margin=FD_MARGIN) / (
            weighted_norm(s.values, s, exclude_margin=FD_MARGIN)
        )
        cases.append((resid, f"l={l}, Z={z:.3f}"))
    return _worst("lowering_eigenvalue", tol, cases)


def _check_resolution_identity(tol: float) -> CheckResult:
    cases = []
    for l in (0, 1, 2):
        deviation = float(np.max(np.abs(identity_resolution_check(l, 4))))
        cases.append((deviation, f"l={l}"))
    return _worst("resolution_identity", tol, cases, "N, N' <= 4, worst at {}")


def _check_series_closed_agreement(tol: float) -> CheckResult:
    p = PhysParams.natural()
    grid = default_coherent_grid(p)
    cases = []
    for l, z in _COHERENT_SAMPLE:
        report = series_closed_agreement(CoherentSpec(l, z), p, grid)
        cases.append((report.pointwise_max, f"l={l}, Z={z:.3f}"))
    return _worst("series_closed_agreement", tol, cases, "pointwise, worst at {}")


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


def _check_moments_closed_quadrature(tol: float) -> CheckResult:
    p = PhysParams.natural()
    cases = []
    for l in range(5):
        for N in range(3):
            q = QuantumNumbers(l, l + 1 + N)
            deviations = _moment_deviations(moments_closed(q, p), moments_quadrature(q, p))
            cases.extend((resid, f"(l,N)=({l},{N})") for resid in deviations)
    return _worst("moments_closed_quadrature", tol, cases, "entrywise, worst at {}")


def _check_lowest_delta(tol: float) -> CheckResult:
    p = PhysParams.natural()
    cases = [
        (abs(moments_closed(QuantumNumbers(l, l + 1), p).delta - 0.25 * p.hbar**2), f"l={l}")
        for l in range(7)
    ]
    return _worst("lowest_delta", tol, cases, "against hbar^2/4, worst at {}")


def _check_uncertainty_limit_order(tol: float) -> CheckResult:
    """Deltas along the N = 1 and N = 2 families must increase with l
    toward their flat-field limits, with the gap shrinking as 1/l."""
    p = PhysParams.natural()
    cases = []
    monotone = True
    for N, limit in ((1, 2.25), (2, 6.25)):
        deltas = [
            moments_closed(QuantumNumbers(l, l + 1 + N), p).delta
            for l in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
        ]
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            monotone = False
        order = math.log2((limit - deltas[-2]) / (limit - deltas[-1]))
        cases.append((abs(order - 1.0), f"N={N}"))
    result = _worst(
        "uncertainty_limit_order",
        tol,
        cases,
        f"convergence-order defect at l=1024, worst at {{}}; monotone={monotone}",
    )
    if not monotone:
        result = dataclasses.replace(result, passed=False)
    return result


def _check_landau_uncertainty_table(tol: float) -> CheckResult:
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
    cases = []
    for lp, target in entries:
        resid = abs(landau_delta(lp, p) / hbar2 - target) / target
        cases.append((resid, f"{lp.gauge} target {target:g}"))
    return _worst("landau_uncertainty_table", tol, cases)


# ------------------------------------------------------------ suite runner

_CHECKS: dict[str, Callable[[float], CheckResult]] = {
    "bessel_recurrence": _check_bessel_recurrence,
    "bessel_wronskian": _check_bessel_wronskian,
    "generating_identity": _check_generating_identity,
    "polygamma_consistency": _check_polygamma_consistency,
    "laguerre_orthogonality": _check_laguerre_orthogonality,
    "orthonormality": _check_orthonormality,
    "rodrigues_agreement": _check_rodrigues_agreement,
    "y_translation": _check_y_translation,
    "density_y_flat": _check_density_y_flat,
    "ladder_commutator": partial(_commutator_scan, "ladder_commutator", ("ladder",)),
    "l3_ladder_commutators": partial(
        _commutator_scan, "l3_ladder_commutators", ("three_plus", "three_minus")
    ),
    "lower_raise_roundtrip": _check_lower_raise_roundtrip,
    "h_ladder_noncommutation": _check_h_ladder_noncommutation,
    "h_l3_commutation": partial(_commutator_scan, "h_l3_commutation", ("h_three",)),
    "h_casimir_commutation": partial(_commutator_scan, "h_casimir_commutation", ("h_casimir",)),
    "coherent_normalization": _check_coherent_normalization,
    "lowering_eigenvalue": _check_lowering_eigenvalue,
    "resolution_identity": _check_resolution_identity,
    "series_closed_agreement": _check_series_closed_agreement,
    "moments_closed_quadrature": _check_moments_closed_quadrature,
    "lowest_delta": _check_lowest_delta,
    "uncertainty_limit_order": _check_uncertainty_limit_order,
    "landau_uncertainty_table": _check_landau_uncertainty_table,
}

SUITES: dict[str, tuple[str, ...]] = {
    "specfun": (
        "bessel_recurrence",
        "bessel_wronskian",
        "generating_identity",
        "polygamma_consistency",
        "laguerre_orthogonality",
    ),
    "states": (
        "orthonormality",
        "rodrigues_agreement",
        "y_translation",
        "density_y_flat",
    ),
    "algebra": (
        "ladder_commutator",
        "l3_ladder_commutators",
        "lower_raise_roundtrip",
        "h_ladder_noncommutation",
        "h_l3_commutation",
        "h_casimir_commutation",
    ),
    "coherent": (
        "coherent_normalization",
        "lowering_eigenvalue",
        "resolution_identity",
        "series_closed_agreement",
    ),
    "moments": (
        "moments_closed_quadrature",
        "lowest_delta",
        "uncertainty_limit_order",
        "landau_uncertainty_table",
    ),
}

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
