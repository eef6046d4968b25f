"""Tests of the benchmark's own code: the seeded request lists, the time
normalization, span self time, the percentile helper, the output
invariants and BENCHMARK.json.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import invariants  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

SEEDS = range(40)


# ------------------------------------------------------------- workloads


@pytest.mark.parametrize("make", [workloads.sweep_requests, workloads.check_requests])
def test_request_lists_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert any(make(7) != make(seed) for seed in range(8, 12))


def test_check_commands_keep_their_sizes_and_vary_only_the_format():
    for seed in SEEDS:
        requests = workloads.check_requests(seed)
        assert [invariants.parse_args(argv)[::2] for argv in requests] == [
            invariants.parse_args(argv)[::2] for argv, _ in workloads.CHECK_COMMANDS
        ]
        assert len({tuple(r) for r in requests}) == len(requests)
    suites = [argv[-1] for argv, _ in workloads.CHECK_COMMANDS if argv[0] == "verify"]
    assert tuple(suites) == tuple(tracing.SUITES)


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_never_repeats_and_stays_in_range(seed):
    requests = workloads.sweep_requests(seed)
    assert len({tuple(r) for r in requests}) == len(requests)
    assert len(requests) == 35
    commands = set()
    coherent_states = []
    for argv in requests:
        command, fmt, opts = invariants.parse_args(argv)
        commands.add(command)
        assert fmt in ("csv", "json")
        if command in ("degeneracy", "spectrum"):
            n_max = int(opts["n_max"])
            assert 1 <= n_max <= 252
            if "l_max" in opts:
                assert 0 <= int(opts["l_max"]) < n_max
        if "n" in opts and (command == "wavefunction" or opts.get("kind") == "eigen"):
            n, l = int(opts["n"]), int(opts["l"])
            assert 1 <= n <= workloads.EIGEN_N_MAX and 0 <= l < n
        if command == "coherent" or opts.get("kind") == "coherent":
            z = complex(float(opts["z_re"]), float(opts["z_im"]))
            assert 0.0 < abs(z) <= workloads.COHERENT_Z_MAX
            coherent_states.append((opts["l"], z))
        if command == "landau-limit":
            assert all(1 <= int(v) for v in opts["l_schedule"].split(","))
    assert commands == set(invariants.CHECKERS) - {"verify"}
    assert len(set(coherent_states)) == len(coherent_states)


def test_sweep_reaches_the_ends_of_its_ranges():
    eigen_n, coherent_z, n_max = set(), [], []
    for seed in SEEDS:
        for argv in workloads.sweep_requests(seed):
            command, _, opts = invariants.parse_args(argv)
            if command == "wavefunction":
                eigen_n.add(int(opts["n"]))
            if "z_re" in opts:
                coherent_z.append(abs(complex(float(opts["z_re"]), float(opts["z_im"]))))
            if command == "degeneracy":
                n_max.append(int(opts["n_max"]))
    assert eigen_n == set(range(1, workloads.EIGEN_N_MAX + 1))
    assert max(coherent_z) > 9.5 and min(coherent_z) < 0.5
    assert max(n_max) >= 250


# ---------------------------------------------------------- normalization


def test_normalized_time_divides_by_the_mean_slowdown():
    assert run.normalized(2.0, [1.0, 1.0]) == pytest.approx(2.0)
    assert run.normalized(2.0, [2.0, 2.0, 2.0, 2.0]) == pytest.approx(1.0)
    assert run.normalized(3.0, [1.0, 2.0]) == pytest.approx(2.0)


def test_each_request_uses_the_slowdowns_around_it():
    rnd = {"requests": [{"wall_s": 1.0}] * 4, "slowdowns": [1.0, 1.0, 1.0, 4.0, 4.0]}
    norm, raw = run.round_times(rnd)
    assert raw == 4.0
    # request i uses slowdowns i-1 .. i+2, clipped to the round
    assert norm == pytest.approx([1 / 1.0, 1 / (7 / 4), 1 / (10 / 4), 1 / 3.0])


def test_reference_slowdown_is_positive_and_its_data_fixed():
    a, b = reference.Reference(), reference.Reference()
    assert a.slowdown() > 0.0
    assert a._gather() == b._gather() and a._stream() == b._stream()
    assert a.nbytes == 4_000_000 * 8 + 200_000 * 8 + 200_000 * 8


def _round(walls, slowdowns, rss=100.0):
    requests = [{"wall_s": w} for w in walls]
    return {"requests": requests, "slowdowns": slowdowns, "peak_rss_mb": rss}


def test_wall_s_sums_each_requests_median_over_rounds():
    n = 1.0
    rounds = [
        _round([1.0, 2.0], [n, n, n]),
        _round([3.0, 2.2], [n, n, n]),
        _round([1.2, 9.0], [n, n, n]),
        # a round on a host running at half speed: every time doubles
        _round([2.2, 4.2], [2 * n, 2 * n, 2 * n], rss=90.0),
    ]
    checked = {"attempted": 8, "failed": 2, "margins": [3.0, 0.5]}
    lines = []
    m = run.end_to_end(rounds, checked, [0.4, 0.5, 0.6], lines)
    assert m["wall_s"]["value"] == pytest.approx(0.5 * (1.1 + 1.2) + 0.5 * (2.1 + 2.2))
    assert m["setup_s"]["value"] == 0.5
    assert m["peak_rss_mb"]["value"] == 100.0
    assert m["ok_frac"]["value"] == pytest.approx(6 / 8)
    assert m["min_margin_dec"]["value"] == 0.5
    assert [name for name, _, _ in run.END_TO_END] == list(m)


# ------------------------------------------------------------- self time


def _span(i, parent, start, end, thread=1, name="x.f"):
    return Span(i, parent, i if parent is None else parent, thread, name, start, end)


def test_self_time_subtracts_children_once():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0, thread=1),
        _span(3, 1, 3.0, 6.0, thread=2),  # overlaps span 2 on another thread
        _span(4, 2, 2.0, 3.0, thread=1),
        _span(5, 1, 8.0, 9.0, thread=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.0)


class FakeClock:
    def __init__(self):
        self.t = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            self.t += 1.0
            return self.t


def test_tracer_nests_per_thread_and_adopts_pool_roots():
    tracer = tracing.Tracer(clock=FakeClock())
    suite = tracer.begin("verify.suite")
    tracer.adopter = suite
    barrier = threading.Barrier(2)

    def check(name):
        span = tracer.begin(f"verify.check.{name}", opens_group=True)
        barrier.wait(timeout=10)
        inner = tracer.begin("specfun.bessel_i")
        tracer.end(inner)
        barrier.wait(timeout=10)
        tracer.end(span)

    threads = [threading.Thread(target=check, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.adopter = None
    tracer.end(suite)

    by_id = {s.id: s for s in tracer.spans}
    checks = [s for s in tracer.spans if s.name.startswith("verify.check.")]
    inners = [s for s in tracer.spans if s.name == "specfun.bessel_i"]
    assert len(checks) == 2 and len(inners) == 2
    assert all(c.parent == suite.id for c in checks)
    assert {c.group for c in checks} == {c.id for c in checks}
    for inner in inners:
        parent = by_id[inner.parent]
        assert parent in checks and parent.thread == inner.thread and inner.group == parent.id
    selfs = tracing.self_times(tracer.spans)
    covered = tracing._union_length([(c.start, c.end) for c in checks])
    assert selfs[suite.id] == pytest.approx(suite.end - suite.start - covered)
    assert sum(selfs.values()) > 0


def test_layer_metrics_from_a_synthetic_trace():
    spans = [
        Span(1, None, 1, 1, "verify.suite", 0.0, 10.0, {"suite": "states"}),
        Span(2, 1, 2, 1, "verify.check.orthonormality", 1.0, 9.0),
        Span(3, 2, 2, 1, "states.wavefunction", 2.0, 3.0, {"key": "a", "cells": 10, "bytes": 160}),
        Span(4, 2, 2, 1, "states.wavefunction", 3.0, 5.0, {"key": "a", "cells": 10, "bytes": 160}),
        Span(5, 2, 2, 1, "states.wavefunction", 5.0, 6.0, {"key": "b", "cells": 20, "bytes": 320}),
        Span(6, 4, 2, 1, "quadrature.fd_derivative", 3.5, 4.0, {"y": True, "bytes": 64}),
        Span(7, 2, 2, 1, "model.degeneracy_scan", 6.0, 8.0, {"levels": 55}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["verify.suite_s.states"] == 10.0 and m["verify.suite_s.moments"] == 0.0
    assert m["verify.check_s.orthonormality"] == 8.0
    assert m["verify.self_s"] == pytest.approx(2.0 + 2.0)
    assert m["states.wavefunction.calls"] == 3.0
    assert m["states.wavefunction.distinct"] == 2.0
    assert m["states.wavefunction.distinct_ratio"] == pytest.approx(2 / 3)
    assert m["states.wavefunction.self_s"] == pytest.approx(1.0 + 1.5 + 1.0)
    assert (m["states.wavefunction.cells"], m["states.wavefunction.bytes"]) == (40.0, 640.0)
    assert (m["quadrature.fd_derivative.calls_y"], m["quadrature.fd_derivative.bytes"]) == (1.0, 64.0)
    assert m["model.degeneracy_scan.levels_per_s"] == pytest.approx(55 / 2.0)
    assert m["coherent.bg_state_closed.distinct_ratio"] == 0.0
    assert not any(name.startswith(tracing.CALLER_METRICS) for name in m)
    assert len(m) + len(tracing.CHECKS) + 6 == len(tracing.per_layer_catalogue())


def test_instrumentation_counts_calls_made_through_imported_names():
    import morseband.coherent
    import morseband.moments
    import morseband.specfun

    original = morseband.specfun.bessel_i
    tracer = tracing.Tracer()
    instr = tracing.Instrumentation(tracer)
    instr.install()
    try:
        assert morseband.coherent.bessel_i is not original
        morseband.coherent.bg_measure_density(0, 1.0)
    finally:
        instr.restore()
    assert morseband.coherent.bessel_i is original
    assert morseband.specfun.bessel_i is original
    names = [s.name for s in tracer.spans]
    assert names.count("coherent.bg_measure_density") == 1
    assert names.count("specfun.bessel_i") >= 1 and names.count("specfun.bessel_k") >= 1


# ------------------------------------------------------------ percentile


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50), (40, 75), (100, 90), (110, 90), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    samples = list(range(n, 0, -1))
    got = tracing.tail_percentile(samples)
    if pct is None:
        assert got is None
        return
    assert got[0] == pct
    assert got[1] == sorted(samples)[math.ceil(pct * n / 100) - 1]
    assert sum(1 for s in samples if s > got[1]) >= 10


def test_check_margin_caps_exact_zero_and_handles_lower_bounds():
    assert tracing.check_margin(0.0, 1e-12) == tracing.MARGIN_CAP_DEC
    assert tracing.check_margin(1e-8, 1e-7) == pytest.approx(1.0)
    assert tracing.check_margin(1.0, 1e-2, "lower") == pytest.approx(2.0)
    assert tracing.check_margin(1e-6, 1e-7) == pytest.approx(-1.0)


# ------------------------------------------------------------- invariants


def _cli_output(argv):
    from morseband.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def _rejects(argv, text):
    try:
        residuals = invariants.check(argv, text)
    except invariants.Invalid:
        return True
    return any(not measured <= tol for _, measured, tol in residuals)


def _set_csv_field(text, line, col, value):
    lines = text.split("\n")
    fields = lines[line].split(",")
    fields[col] = value
    lines[line] = ",".join(fields)
    return "\n".join(lines)


def _scale_csv_field(text, line, col, factor):
    value = float(text.split("\n")[line].split(",")[col])
    return _set_csv_field(text, line, col, format(value * factor, ".16e"))


CASES = [
    # argv, corruptions as (line, column, new value or scale factor)
    (["spectrum", "--n-max", "7", "--l-max", "3"], [(3, 5, "9"), (2, 3, "23"), (4, 4, 1.0 + 1e-12)]),
    (["degeneracy", "--n-max", "12"], [(1, 1, "99")]),
    (["wavefunction", "--l", "1", "--n", "3"], [(500, 2, 1.001), (600, 3, 1.01), (10, 1, "inf")]),
    (["coherent", "--l", "1", "--z-re", "0.4", "--z-im", "0.3"], [(4100, 1, 1.0 + 1e-6), (300, 2, 0.5)]),
    (["ladder-check", "--n-max", "1"], [(1, 2, "2.0e-05"), (1, 5, "nan")]),
    (["uncertainty", "--l-max", "0"], [(2, 3, 1.0 + 1e-6), (1, 4, "2.5")]),
    (["landau-limit", "--N", "1", "--l-schedule", "3,40"], [(1, 4, 1.0 + 1e-9), (2, 1, 1.0 + 1e-9)]),
    (["export", "--kind", "eigen", "--l", "0", "--n", "2"], [(30000, 4, 1.5), (40000, 5, 2.0), (9, 2, "nan")]),
    (["export", "--kind", "landau-asym", "--n", "1", "--ky", "0.5"], [(4000, 4, 1.1), (40, 5, "0.5")]),
]


@pytest.mark.parametrize("argv, corruptions", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_checker_accepts_real_output_and_rejects_corrupted(argv, corruptions):
    text = _cli_output(argv)
    assert not _rejects(argv, text), invariants.check(argv, text)
    for line, col, change in corruptions:
        if isinstance(change, str):
            bad = _set_csv_field(text, line, col, change)
        else:
            bad = _scale_csv_field(text, line, col, change)
        assert bad != text
        assert _rejects(argv, bad), (line, col, change)


def test_degeneracy_checker_rejects_a_moved_state():
    argv = ["degeneracy", "--n-max", "12"]
    text = _cli_output(argv)
    head, _, classes = text.partition("\n\n")
    rows = classes.split("\n")
    moved = rows[1].replace("0:1", "0:2")
    bad = head + "\n\n" + "\n".join([rows[0], moved] + rows[2:])
    assert _rejects(argv, bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "json", "spectrum", "--n-max", "5"],
        ["--format", "json", "degeneracy", "--n-max", "9"],
        ["--format", "json", "uncertainty", "--l-max", "0"],
    ],
)
def test_json_checkers_reject_a_changed_number(argv):
    text = _cli_output(argv)
    assert not _rejects(argv, text)
    payload = json.loads(text)
    if "rows" in payload:
        row = payload["rows"][-1]
        key = "multiplicity" if "multiplicity" in row else "delta_quadrature"
        row[key] = row[key] + 1 if isinstance(row[key], int) else row[key] * (1 + 1e-6)
    else:
        payload["classes"][0]["multiplicity"] += 1
    assert _rejects(argv, json.dumps(payload))
    assert _rejects(argv, text[: len(text) // 2])


@pytest.mark.parametrize("suite", list(tracing.SUITES))
def test_verify_checker_accepts_the_report_and_rejects_a_changed_one(suite):
    argv = ["verify", "--suite", suite]
    text = _cli_output(argv)
    residuals = invariants.check(argv, text)
    assert [name for name, _, _ in residuals] == list(tracing.SUITES[suite])
    assert not _rejects(argv, text)
    payload = json.loads(text)
    first = payload["checks"][0]
    first["passed"] = not first["passed"]
    assert _rejects(argv, json.dumps(payload))
    payload = json.loads(text)
    del payload["checks"][-1]
    assert _rejects(argv, json.dumps(payload))
    payload = json.loads(text)
    payload["suite"] = "algebra"
    assert _rejects(argv, json.dumps(payload))


def test_coherent_export_checker_uses_the_coherent_tolerance():
    # a state normalized to 1 + 5e-8 passes the coherent tolerance (1e-7)
    # and would fail the eigen one (1e-8)
    x = [invariants.X_MODE - 3.0 + 0.01 * i for i in range(600)]
    ny = 8
    dy = invariants.A0 / ny
    weights = [float(w) for w in invariants._weight(np.array(x))]
    norm = sum(weights[i] * 0.01 for i in range(1, 599)) + 0.005 * (weights[0] + weights[-1])
    amp = ((1.0 + 5e-8) / (norm * ny * dy)) ** 0.5
    lines = ["# morseband-0", "# kind=coherent", "# params", f"# grid x_min=0 x_max=1 nx={len(x)} ny={ny}",
             "x,y,re_psi,im_psi,density,weight"]
    for xi, wi in zip(x, weights):
        for j in range(ny):
            lines.append(f"{xi!r},{j * dy!r},{amp!r},0.0,{amp * amp!r},{wi!r}")
    text = "\n".join(lines) + "\n"
    (name, measured, tol), = invariants.check(["export", "--kind", "coherent"], text)
    assert tol == invariants.TOL_COHERENT_NORM and measured == pytest.approx(5e-8, rel=1e-3)
    (name, measured, tol), = invariants.check(["export", "--kind", "eigen"], text)
    assert tol == invariants.TOL_EIGEN_NORM and measured > tol


# -------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_catalogue()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25

