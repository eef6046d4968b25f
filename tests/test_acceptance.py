"""Acceptance gate: nine criteria, one test and one pass/fail line each.

Each test prints the measured numbers next to the tolerance it is held
to, so a failing line carries its evidence. Tolerances are fixed here
on purpose; loosening them is a contract change, not a fix.
"""

import json
import math

import numpy as np

from morseband import (
    LandauParams,
    QuantumNumbers,
    algebra_grid,
    apply_casimir,
    apply_hamiltonian,
    apply_Lminus,
    apply_Lplus,
    bg_state_closed,
    bg_coefficients,
    CoherentSpec,
    default_coherent_grid,
    default_grid,
    degeneracy_scan,
    energy,
    grid_inner_product,
    identity_resolution_check,
    landau_delta,
    landau_limit_error,
    log_weighted_gamma_integral,
    moments_closed,
    moments_quadrature,
    ode_residual,
    radial_identity_integral,
    run_suite,
    series_closed_agreement,
    wavefunction,
    weighted_norm,
)
from morseband.cli import main
from primality import is_prime

import cmath

MARGIN = 8


def _residual_norm(image, coeff, s) -> float:
    """Margin-excluded weighted norm of an operator image minus coeff times
    the state s, whose mode indices the image holds."""
    assert np.array_equal(image.k, s.k)
    return weighted_norm(image.modes - coeff * s.modes, s, exclude_margin=MARGIN)


def test_criterion_1_orthonormality(p):
    grid = default_grid(p)
    states = [
        wavefunction(QuantumNumbers(l, n), p, grid)
        for n in range(1, 7)
        for l in range(n)
    ]
    worst = 0.0
    for i, a in enumerate(states):
        for b in states[i:]:
            want = 1.0 if a.labels == b.labels else 0.0
            worst = max(worst, abs(grid_inner_product(a, b) - want))
    print(f"criterion 1: gram deviation {worst:.3e} over {len(states)} states (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_2_eigen_equations(p):
    xi = np.geomspace(0.2, 20.0, 25)
    worst_ode = 0.0
    for n in range(1, 6):
        for l in range(n):
            worst_ode = max(worst_ode, ode_residual(QuantumNumbers(l, n), p, xi))
    grid = algebra_grid(p)
    worst_h = 0.0
    for n in range(1, 6):
        for l in range(n):
            s = wavefunction(QuantumNumbers(l, n), p, grid)
            worst_h = max(worst_h, apply_hamiltonian(s, p))
    ground = energy(QuantumNumbers(0, 1), p)
    exact = 3.0 * math.pi**2 * p.hbar**2 / (2.0 * p.mu * p.a0**2)
    print(
        f"criterion 2: ode residual {worst_ode:.3e} (tol 1e-10), "
        f"hamiltonian residual {worst_h:.3e} (tol 1e-6), "
        f"ground energy {ground!r} == {exact!r}"
    )
    assert worst_ode <= 1e-10
    assert worst_h <= 1e-6
    assert ground == exact


def test_criterion_3_ladder_structure(p):
    grid = algebra_grid(p)
    worst_raise = 0.0
    worst_lower = 0.0
    worst_kill = 0.0
    worst_casimir = 0.0
    for n in range(1, 6):
        for l in range(n):
            s = wavefunction(QuantumNumbers(l, n), p, grid)
            up_coeff = math.sqrt((n + 1 + l) * (n - l))
            up = wavefunction(QuantumNumbers(l, n + 1), p, grid)
            defect = _residual_norm(apply_Lplus(s, p), up_coeff, up)
            worst_raise = max(worst_raise, defect / up_coeff)
            if n == l + 1:
                killed = apply_Lminus(s, p)
                worst_kill = max(
                    worst_kill, weighted_norm(killed.modes, killed, exclude_margin=MARGIN)
                )
            else:
                down_coeff = math.sqrt((n + l) * (n - l - 1))
                down = wavefunction(QuantumNumbers(l, n - 1), p, grid)
                defect = _residual_norm(apply_Lminus(s, p), down_coeff, down)
                worst_lower = max(worst_lower, defect / down_coeff)
            worst_casimir = max(worst_casimir, apply_casimir(s, p))
    print(
        f"criterion 3: raise defect {worst_raise:.3e}, lower defect {worst_lower:.3e} "
        f"(rel, tol 1e-6), annihilation {worst_kill:.3e} (tol 1e-6), "
        f"casimir residual {worst_casimir:.3e} (tol 1e-6)"
    )
    assert worst_raise <= 1e-6
    assert worst_lower <= 1e-6
    assert worst_kill <= 1e-6
    assert worst_casimir <= 1e-6


def test_criterion_4_landau_limit(p):
    worst = 0.0
    worst_ratio = 0.0
    for N in range(4):
        errors = []
        for l in (10, 100, 1000, 10000):
            got = landau_limit_error(N, l, p)
            errors.append(got)
            worst = max(worst, abs(got - (2 * N + 3) / (4 * l)))
        for a, b in zip(errors, errors[1:]):
            worst_ratio = max(worst_ratio, abs(a / b - 10.0))
    print(
        f"criterion 4: error-formula deviation {worst:.3e} (tol 1e-12), "
        f"decade ratio deviation {worst_ratio:.3e} (tol 1e-9)"
    )
    assert worst <= 1e-12
    assert worst_ratio <= 1e-9


def test_criterion_5_uncertainty_moments(p):
    hbar2 = p.hbar**2
    worst_bottom = max(
        abs(moments_closed(QuantumNumbers(l, l + 1), p).delta - 0.25 * hbar2)
        for l in range(7)
    )
    worst_pair = 0.0
    for l in range(5):
        for N in range(3):
            q = QuantumNumbers(l, l + N + 1)
            closed = moments_closed(q, p)
            quad = moments_quadrature(q, p)
            worst_pair = max(
                worst_pair,
                abs(closed.delta - quad.delta) / max(1.0, abs(closed.delta)),
            )
    l_big = 1000
    rel1 = abs(
        moments_closed(QuantumNumbers(l_big, l_big + 2), p).delta / (2.25 * hbar2) - 1.0
    )
    rel2 = abs(
        moments_closed(QuantumNumbers(l_big, l_big + 3), p).delta / (6.25 * hbar2) - 1.0
    )
    bound = 3.0 / l_big
    table = {
        ("asym", 0): (LandauParams(gauge="asymmetric", N=0), 0.25),
        ("asym", 1): (LandauParams(gauge="asymmetric", N=1), 2.25),
        ("asym", 2): (LandauParams(gauge="asymmetric", N=2), 6.25),
        ("sym", (0, 0)): (LandauParams(gauge="symmetric", n=0, l=0), 0.25),
        ("sym", (1, 0)): (LandauParams(gauge="symmetric", n=1, l=0), 2.25),
        ("sym", (1, 1)): (LandauParams(gauge="symmetric", n=1, l=1), 4.0),
    }
    worst_table = 0.0
    for (kind, key), (lp, want) in table.items():
        got = landau_delta(lp, p) / hbar2
        worst_table = max(worst_table, abs(got - want) / want)
    note = landau_delta(LandauParams(gauge="symmetric", n=0, l=1), p) / hbar2
    print(
        f"criterion 5: bottom-row delta deviation {worst_bottom:.3e} (tol 1e-10), "
        f"closed-vs-quadrature {worst_pair:.3e} (tol 1e-7), "
        f"limit offsets {rel1:.3e}/{rel2:.3e} (bound {bound:.1e}), "
        f"flat-field table deviation {worst_table:.3e} (tol 1e-7)"
    )
    print(
        f"criterion 5 note: symmetric-gauge (n=0, l=1) evaluates to "
        f"{note:.6f} hbar^2 = (l+1)^2/4, not 1/4; only the l = 0 member "
        f"of that row coincides with the quoted constant"
    )
    assert worst_bottom <= 1e-10
    assert worst_pair <= 1e-7
    assert rel1 <= bound
    assert rel2 <= bound
    assert worst_table <= 1e-7


def test_criterion_6_coherent_states(p):
    grid = default_coherent_grid(p)
    sample = [
        (l, Z)
        for l in (0, 1, 2)
        for Z in (0.7 + 0.0j, 1.8 * cmath.exp(0.25j * math.pi), 2.8 * cmath.exp(2.0j))
    ]
    worst_agree = 0.0
    worst_lower = 0.0
    for l, Z in sample:
        spec = CoherentSpec(l, Z)
        report = series_closed_agreement(spec, p, grid)
        worst_agree = max(worst_agree, report.weighted_l2, report.pointwise_max)
        s = bg_state_closed(spec, p, grid)
        worst_lower = max(
            worst_lower,
            _residual_norm(apply_Lminus(s, p), Z, s) / max(1.0, abs(Z)),
        )
    worst_radial = 0.0
    for l in range(3):
        for N in range(5):
            want = 0.25 * math.exp(math.lgamma(N + 1.0) + math.lgamma(2 * l + N + 2.0))
            got = radial_identity_integral(l, N).value
            worst_radial = max(worst_radial, abs(got - want) / want)
    worst_identity = max(
        float(np.max(np.abs(identity_resolution_check(l, 4)))) for l in range(3)
    )
    print(
        f"criterion 6: series/closed {worst_agree:.3e} (tol 1e-7), "
        f"lowering eigenvalue {worst_lower:.3e} (tol 1e-5), "
        f"radial integrals {worst_radial:.3e} (tol 1e-8), "
        f"identity resolution {worst_identity:.3e} (tol 1e-6)"
    )
    assert worst_agree <= 1e-7
    assert worst_lower <= 1e-5
    assert worst_radial <= 1e-8
    assert worst_identity <= 1e-6


def test_criterion_7_degeneracy_census():
    reports = degeneracy_scan(200)
    histogram: dict[int, int] = {}
    for r in reports:
        histogram[r.multiplicity] = histogram.get(r.multiplicity, 0) + 1
    prime_violations = [
        r.product for r in reports if is_prime(r.product) and r.multiplicity != 1
    ]
    triples = [r for r in reports if r.multiplicity >= 3]
    triple_243 = next(r for r in reports if r.product == 243)
    print(f"criterion 7: histogram (n <= 200) {dict(sorted(histogram.items()))}")
    print(
        f"criterion 7: prime products with multiplicity != 1: {prime_violations!r}; "
        f"classes with multiplicity >= 3: {len(triples)}"
    )
    print(
        f"criterion 7 note: product 243 carries states "
        f"{[(q.l, q.n) for q in triple_243.states]}; multiplicities above 2 are "
        f"real (bounded by the divisor count of the product, not by 2)"
    )
    assert not prime_violations
    assert histogram
    assert triple_243.multiplicity == 3
    assert triples


def test_criterion_8_special_function_oracles():
    report = run_suite("specfun")
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("bessel_recurrence", "bessel_wronskian", "generating_identity"):
        assert by_name[name]["passed"], name
    worst_gamma = 0.0
    for nu in (0.5, 1.0, 2.5, 4.0, 8.0):
        for mu in (0.5, 1.0, 2.0):
            for j in (1, 2):
                quad, closed = log_weighted_gamma_integral(nu, mu, j)
                worst_gamma = max(
                    worst_gamma, abs(quad - closed) / max(1.0, abs(closed))
                )
    print(
        f"criterion 8: recurrence {by_name['bessel_recurrence']['measured']:.3e} "
        f"(tol {by_name['bessel_recurrence']['tolerance']:.0e}), "
        f"wronskian {by_name['bessel_wronskian']['measured']:.3e} "
        f"(tol {by_name['bessel_wronskian']['tolerance']:.0e}), "
        f"generating identity {by_name['generating_identity']['measured']:.3e} "
        f"(tol {by_name['generating_identity']['tolerance']:.0e}), "
        f"gamma-log pair {worst_gamma:.3e} (tol 1e-10)"
    )
    assert worst_gamma <= 1e-10


def test_criterion_9_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_a = main(["--out", str(first), "verify", "--suite", "all"])
    code_b = main(["--out", str(second), "verify", "--suite", "all"])
    bytes_a = first.read_bytes()
    bytes_b = second.read_bytes()
    report = json.loads(bytes_a)
    print(
        f"criterion 9: exit codes {code_a}/{code_b}, "
        f"{len(bytes_a)} bytes, byte-identical: {bytes_a == bytes_b}, "
        f"overall passed: {report['passed']}"
    )
    assert code_a == 0 and code_b == 0
    assert bytes_a == bytes_b
    assert report["passed"] is True
