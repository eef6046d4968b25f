"""Output checks for every command the workloads issue, written
independently of the package: nothing here imports ``morseband``. Each
checker takes the request's argv and its stdout and returns a list of
residuals, each a ``(name, measured, tolerance)`` that passes when
measured <= tolerance, or raises ``Invalid`` naming the broken invariant.

The workloads use the default parameters (natural units: hbar = mu = c = 1,
e = -1, B0 = 1, a0 = 2 pi, so beta = 2 and kappa = 1) and default grids.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter

import numpy as np
from scipy.special import ive, kve

from tracing import SUITES

A0 = 2.0 * math.pi
BETA = 2.0
KAPPA = 1.0
X_MODE = math.log(BETA) / KAPPA

# Tolerances: normalization and moment agreement reuse the package's own
# verify tolerances for the same identities; the exact integer/rational
# relations are held to a few ulps.
TOL_EIGEN_NORM = 1e-8  # verify: orthonormality
TOL_COHERENT_NORM = 1e-7  # verify: coherent_normalization
TOL_LADDER = 1e-5  # verify: ladder_commutator, lower_raise_roundtrip, h_casimir_commutation
TOL_MOMENTS = 1e-7  # verify: moments_closed_quadrature
TOL_EXACT = 1e-13
TOL_SAMPLE = 1e-12  # recomputed weights and |psi|^2 against the printed columns

LIMIT_TARGETS = (0.25, 2.25, 6.25)


class Invalid(Exception):
    """An output broke one of its invariants."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Invalid(message)


def parse_args(argv: list[str]) -> tuple[str, str, dict[str, str]]:
    """(command, format, options) from a sweep argv: global flags, then
    the command, then ``--key value`` pairs."""
    fmt = "csv"
    i = 0
    while argv[i].startswith("--"):
        if argv[i] == "--format":
            fmt = argv[i + 1]
        i += 2
    command = argv[i]
    rest = argv[i + 1 :]
    opts = {rest[k].lstrip("-").replace("-", "_"): rest[k + 1] for k in range(0, len(rest), 2)}
    return command, fmt, opts


# ----------------------------------------------------------------- parsing


def _float(text: str) -> float:
    value = float(text)
    _require(math.isfinite(value), f"non-finite number printed: {text}")
    return value


def _csv_blocks(text: str) -> list[tuple[list[str], list[list[str]]]]:
    _require(text.endswith("\n"), "output does not end with a newline")
    blocks = []
    for chunk in text.rstrip("\n").split("\n\n"):
        lines = chunk.split("\n")
        blocks.append((lines[0].split(","), [line.split(",") for line in lines[1:]]))
    return blocks


def _json(text: str):
    try:
        return json.loads(text, parse_constant=lambda c: _require(False, f"non-finite number printed: {c}"))
    except json.JSONDecodeError as exc:
        raise Invalid(f"output is not valid JSON: {exc}") from exc


def _table(text: str, fmt: str, header: tuple[str, ...]) -> list[dict]:
    """Rows of a single-table command as dicts of strings or numbers."""
    if fmt == "json":
        payload = _json(text)
        rows = payload["rows"]
        for row in rows:
            _require(tuple(sorted(row)) == tuple(sorted(header)), f"row keys {sorted(row)}")
        return rows
    blocks = _csv_blocks(text)
    _require(len(blocks) == 1, f"expected one CSV block, got {len(blocks)}")
    head, rows = blocks[0]
    _require(tuple(head) == header, f"header {head}")
    return [dict(zip(header, row)) for row in rows]


def _num(row: dict, key: str) -> float:
    value = row[key]
    return _float(value) if isinstance(value, str) else float(value)


def _int(row: dict, key: str) -> int:
    return int(row[key])


def _weight(x: np.ndarray) -> np.ndarray:
    return np.exp(KAPPA * x - BETA * np.exp(-KAPPA * x))


# Below this magnitude samples are compared absolutely: squares of tiny
# amplitudes land in the subnormal range, where relative precision is lost.
_FLOOR = 1e-280


def _close(measured: np.ndarray, expected: np.ndarray, what: str) -> None:
    """Sample by sample, relative to the expected value."""
    err = float(np.max(np.abs(measured - expected) / np.maximum(np.abs(expected), _FLOOR)))
    _require(err <= TOL_SAMPLE, f"{what} differs from its recomputation by {err:.3e} relative")


def _uniform_axis(x: np.ndarray, lo: float, hi: float, n: int) -> None:
    _require(x.shape == (n,), f"axis has {x.shape[0]} samples, expected {n}")
    err = float(np.max(np.abs(x - np.linspace(lo, hi, n)))) / (abs(lo) + abs(hi))
    _require(err <= TOL_SAMPLE, f"x axis differs from its recomputation by {err:.3e}")


# ---------------------------------------------------------------- commands


def levels(n_max: int) -> list[tuple[int, int]]:
    return [(l, n) for n in range(1, n_max + 1) for l in range(n)]


def product(l: int, n: int) -> int:
    return (2 * n - 2 * l - 1) * (2 * n + 2 * l + 1)


def check_spectrum(opts: dict, fmt: str, text: str) -> list:
    n_max = int(opts["n_max"])
    l_max = int(opts.get("l_max", n_max - 1))
    rows = _table(text, fmt, ("l", "n", "N", "product", "energy", "multiplicity"))
    multiplicity = Counter(product(l, n) for l, n in levels(n_max))
    expected = [(l, n) for l, n in levels(n_max) if l <= l_max]
    got = [(_int(r, "l"), _int(r, "n")) for r in rows]
    _require(got == expected, f"levels listed {len(got)}, expected {len(expected)} in (n, l) order")
    worst = 0.0
    for r, (l, n) in zip(rows, expected):
        p = product(l, n)
        _require(_int(r, "N") == n - l - 1, f"N at ({l},{n})")
        _require(_int(r, "product") == p, f"product at ({l},{n})")
        _require(_int(r, "multiplicity") == multiplicity[p], f"multiplicity at ({l},{n})")
        worst = max(worst, abs(_num(r, "energy") - p / 8.0) / (p / 8.0))
    return [("energy_vs_product_over_8", worst, TOL_EXACT)]


def check_degeneracy(opts: dict, fmt: str, text: str) -> list:
    n_max = int(opts["n_max"])
    if fmt == "json":
        payload = _json(text)
        histogram = {int(k): int(v) for k, v in payload["histogram"].items()}
        classes = [
            (int(c["product"]), int(c["multiplicity"]), [tuple(s) for s in c["states"]])
            for c in payload["classes"]
        ]
    else:
        blocks = _csv_blocks(text)
        _require(len(blocks) == 2, f"expected two CSV blocks, got {len(blocks)}")
        (h1, hist_rows), (h2, class_rows) = blocks
        _require(h1 == ["multiplicity", "count"] and h2 == ["product", "multiplicity", "states"], "headers")
        histogram = {int(m): int(c) for m, c in hist_rows}
        classes = [
            (int(p), int(m), [tuple(int(v) for v in s.split(":")) for s in states.split(";")])
            for p, m, states in class_rows
        ]
    seen = []
    for p, m, states in classes:
        _require(m == len(states), f"class {p} lists {len(states)} states, multiplicity {m}")
        for l, n in states:
            _require(product(l, n) == p, f"state ({l},{n}) is not in class {p}")
        seen.extend(states)
    products = [p for p, _, _ in classes]
    _require(products == sorted(set(products)), "classes are not sorted by distinct product")
    total = n_max * (n_max + 1) // 2
    _require(sum(m for _, m, _ in classes) == total, f"multiplicities do not sum to n(n+1)/2 = {total}")
    _require(sorted(seen) == sorted(levels(n_max)), "classes do not cover every level exactly once")
    _require(histogram == dict(Counter(m for _, m, _ in classes)), "histogram disagrees with the classes")
    return []


def check_wavefunction(opts: dict, fmt: str, text: str) -> list:
    rows = _table(text, fmt, ("x", "radial", "density", "weight"))
    cols = np.array([[_num(r, k) for k in ("x", "radial", "density", "weight")] for r in rows])
    x, radial, density, weight = cols.T
    _uniform_axis(x, X_MODE - 8.0 * A0, X_MODE + 8.0 * A0, 1024)
    _require(bool(np.all(density >= 0.0)), "negative density")
    _close(weight, _weight(x), "weight")
    _close(density, radial**2, "density against radial^2")
    norm = A0 * float(np.trapezoid(density * weight, x))
    return [("norm", abs(norm - 1.0), TOL_EIGEN_NORM)]


def _measure_density(l: int, r: np.ndarray) -> np.ndarray:
    nu = 2.0 * l + 1.0
    return (2.0 / math.pi) * ive(nu, 2.0 * r) * kve(nu, 2.0 * r) * r


def check_coherent(opts: dict, fmt: str, text: str) -> list:
    l = int(opts["l"])
    if fmt == "json":
        payload = _json(text)
        state = [(_num(r, "x"), _num(r, "density"), _num(r, "weight")) for r in payload["state"]]
        measure = [(_num(r, "r"), _num(r, "measure_density")) for r in payload["measure"]]
    else:
        blocks = _csv_blocks(text)
        _require(len(blocks) == 2, f"expected two CSV blocks, got {len(blocks)}")
        (h1, s_rows), (h2, m_rows) = blocks
        _require(h1 == ["x", "density", "weight"] and h2 == ["r", "measure_density"], "headers")
        state = [tuple(_float(v) for v in row) for row in s_rows]
        measure = [tuple(_float(v) for v in row) for row in m_rows]
    x, density, weight = np.array(state).T
    _uniform_axis(x, X_MODE - 0.62 * A0, X_MODE + 5.0 * A0, 4096)
    _require(bool(np.all(density >= 0.0)), "negative density")
    _close(weight, _weight(x), "weight")
    r, md = np.array(measure).T
    _close(r, np.arange(1, 101) / 10.0, "measure radii")
    expected = _measure_density(l, r)
    err = float(np.max(np.abs(md - expected) / expected))
    return [("measure_density", err, 1e-10)]


def check_ladder(opts: dict, fmt: str, text: str) -> list:
    n_max = int(opts["n_max"])
    cols = ("raise_defect", "lower_defect", "casimir_residual", "hamiltonian_residual")
    rows = _table(text, fmt, ("l", "n") + cols)
    got = [(_int(r, "l"), _int(r, "n")) for r in rows]
    _require(got == levels(n_max), f"levels listed {got}")
    return [(col, max(abs(_num(r, col)) for r in rows), TOL_LADDER) for col in cols]


def check_uncertainty(opts: dict, fmt: str, text: str) -> list:
    l_max = int(opts["l_max"])
    rows = _table(text, fmt, ("l", "N", "delta_closed", "delta_quadrature", "delta_limit_target"))
    got = [(_int(r, "l"), _int(r, "N")) for r in rows]
    _require(got == [(l, N) for l in range(l_max + 1) for N in range(3)], f"rows {got}")
    worst = 0.0
    for r in rows:
        N = _int(r, "N")
        closed, quad, target = (_num(r, k) for k in ("delta_closed", "delta_quadrature", "delta_limit_target"))
        _require(target == LIMIT_TARGETS[N], f"limit target {target} for N={N}")
        _require(0.25 * (1 - TOL_EXACT) <= closed <= target * (1 + TOL_EXACT), f"delta {closed} outside [1/4, {target}]")
        worst = max(worst, abs(closed - quad) / closed)
    return [("delta_closed_vs_quadrature", worst, TOL_MOMENTS)]


def check_landau_limit(opts: dict, fmt: str, text: str) -> list:
    N = int(opts["N"])
    schedule = [int(v) for v in opts["l_schedule"].split(",")]
    rows = _table(text, fmt, ("l", "a0", "energy_model", "energy_landau", "rel_error", "predicted"))
    _require([_int(r, "l") for r in rows] == schedule, "rows do not follow the schedule")
    worst = gap = 0.0
    for r, l in zip(rows, schedule):
        predicted = (2 * N + 3) / (4 * l)
        for key, want in (
            ("a0", 2.0 * math.pi * math.sqrt(l)),
            ("energy_model", product(l, l + 1 + N) / (8.0 * l)),
            ("energy_landau", N + 0.5),
            ("predicted", predicted),
        ):
            worst = max(worst, abs(_num(r, key) - want) / abs(want))
        # rel_error is a difference of two O(1) energies over one of them,
        # so it is accurate to a few ulps absolute, not relative
        gap = max(gap, abs(_num(r, "rel_error") - predicted))
    return [("landau_limit_relations", worst, TOL_EXACT), ("rel_error_vs_predicted", gap, TOL_EXACT)]


def _export_table(text: str) -> tuple[list[str], np.ndarray]:
    head_end = 0
    comments = []
    for _ in range(4):
        nl = text.index("\n", head_end)
        comments.append(text[head_end:nl])
        head_end = nl + 1
    nl = text.index("\n", head_end)
    _require(text[head_end:nl] == "x,y,re_psi,im_psi,density,weight", "export header")
    _require(all(c.startswith("# ") for c in comments), "export comment lines")
    try:
        data = np.loadtxt(io.StringIO(text[nl + 1 :]), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise Invalid(f"export rows do not parse: {exc}") from exc
    _require(bool(np.all(np.isfinite(data))), "non-finite number printed")
    return comments, data


def check_export(opts: dict, fmt: str, text: str) -> list:
    kind = opts.get("kind", "eigen")
    comments, data = _export_table(text)
    grid = dict(item.split("=") for item in comments[3][len("# grid ") :].split())
    nx, ny = int(grid["nx"]), int(grid["ny"])
    _require(data.shape == (nx * ny, 6), f"export has {data.shape[0]} rows, grid is {nx}x{ny}")
    x, y, re, im, density, weight = (data[:, k].reshape(nx, ny) for k in range(6))
    _close(density, re**2 + im**2, "density against |psi|^2")
    x_axis, y_axis = x[:, 0], y[0, :]
    dy = float(y_axis[1] - y_axis[0])
    if kind in ("eigen", "coherent"):
        _close(weight, np.broadcast_to(_weight(x_axis)[:, None], weight.shape), "weight")
        norm = float(np.trapezoid(density.sum(axis=1) * dy * weight[:, 0], x_axis))
        tol = TOL_EIGEN_NORM if kind == "eigen" else TOL_COHERENT_NORM
        return [("norm", abs(norm - 1.0), tol)]
    _require(bool(np.all(weight == 1.0)), "flat-field weight is not 1")
    if kind == "landau-sym":
        norm = float(np.trapezoid(density.sum(axis=1) * dy, x_axis))
        return [("norm", abs(norm - 1.0), TOL_EIGEN_NORM)]
    per_y = np.trapezoid(density, x_axis, axis=0)
    target = 1.0 / (4.0 * math.pi**2)
    return [("x_integral", float(np.max(np.abs(per_y - target))) / target, TOL_EIGEN_NORM)]


def check_verify(opts: dict, fmt: str, text: str) -> list:
    suite = opts["suite"]
    payload = _json(text)
    _require(payload.get("suite") == suite, f"report is for suite {payload.get('suite')!r}")
    checks = payload["checks"]
    names = tuple(c["name"] for c in checks)
    _require(names == SUITES[suite], f"report lists checks {names}")
    out = []
    for c in checks:
        measured, tol = abs(float(c["measured"])), float(c["tolerance"])
        # A lower-bound check passes when measured >= tolerance. It is
        # returned as (name, tolerance, measured), so that every residual
        # passes when its middle value is at most its last.
        residual = (c["name"], tol, measured) if c["bound"] == "lower" else (c["name"], measured, tol)
        _require(c["passed"] == (residual[1] <= residual[2]), f"{c['name']} reports passed={c['passed']}")
        out.append(residual)
    _require(payload["passed"] == all(c["passed"] for c in checks), "the suite's pass flag disagrees with its checks")
    return out


CHECKERS = {
    "spectrum": check_spectrum,
    "degeneracy": check_degeneracy,
    "wavefunction": check_wavefunction,
    "coherent": check_coherent,
    "ladder-check": check_ladder,
    "uncertainty": check_uncertainty,
    "landau-limit": check_landau_limit,
    "export": check_export,
    "verify": check_verify,
}

# Commands whose residuals the program itself reports; min_margin_dec is
# taken over these only. The other residuals are benchmark-side checks of
# printed samples and count as pass or fail.
REPORTED_RESIDUALS = ("ladder-check", "uncertainty", "verify")


def check(argv: list[str], text: str) -> list:
    """Residuals of one request's output; raises Invalid on a broken invariant."""
    command, fmt, opts = parse_args(argv)
    return CHECKERS[command](opts, fmt, text)
