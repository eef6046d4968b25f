"""Command-line surface: exit codes, byte determinism, and numeric text.

Global flags (--config/--format/--out/--tol) belong to the top-level
parser and come before the subcommand, as in the usage string. Every
command is driven through main(argv) with --out files so the bytes on
disk are exactly what a shell user would capture. The exit code
contract (0 ok, 1 failed verification, 2 bad input, 3 I/O) is pinned
with one concrete trigger per code.
"""

import argparse
import cmath
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import morseband
from morseband import (
    CoherentSpec,
    GridSpec,
    PhysParams,
    QuantumNumbers,
    __version__,
    algebra,
    bg_measure_density,
    bg_state_closed,
    cli,
    default_coherent_grid,
    default_grid,
    degeneracy_scan,
    energy,
    landau_a0,
    landau_energy,
    landau_limit_error,
    model,
    moments_closed,
    moments_quadrature,
    spectrum_product,
    wavefunction,
)
from morseband.cli import main


# The referee: the per-cell text writers the table commands used before they
# were written from column arrays, kept here verbatim. Every table byte the
# commands write is checked against them.


def _fmt_float(v: float) -> str:
    return format(float(v), ".16e")


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _csv_block(header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    JSON has no literal for a non-finite number, so inf, -inf and nan are
    written as the strings "inf", "-inf" and "nan".
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, float):
        text = _fmt_float(obj)
        return text if math.isfinite(obj) else json.dumps(text)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def run(tmp_path, *argv, name="out.txt"):
    out = tmp_path / name
    code = main(["--out", str(out), *argv])
    return code, (out.read_bytes() if out.exists() else b"")


def data_lines(blob: bytes) -> list[str]:
    return [
        line
        for line in blob.decode().splitlines()
        if line and not line.startswith("#")
    ]


def per_cell_rows(values, x_axis, y_axis, weight) -> str:
    """The data lines of ``export`` as the per-cell loop before the row
    writer wrote them: the reference the row writer must match byte for byte."""
    lines = []
    nx, ny = values.shape
    with np.errstate(over="ignore"):
        for i in range(nx):
            w = format(float(weight[i]), ".16e")
            x = format(float(x_axis[i]), ".16e")
            for j in range(ny):
                v = values[i, j]
                lines.append(
                    f"{x},{format(float(y_axis[j]), '.16e')},{format(float(v.real), '.16e')},"
                    f"{format(float(v.imag), '.16e')},{format(float(abs(v) ** 2), '.16e')},{w}\n"
                )
    return "".join(lines)


class TestNegativeValues:
    @pytest.mark.parametrize(
        "command, option, value",
        [
            (["coherent"], "--z-im", "-1e-3"),
            (["coherent"], "--z-re", "-1.5E+0"),
            (["export", "--kind", "landau-asym"], "--ky", "-1e-3"),
        ],
    )
    def test_exponent_notation_is_a_value(self, tmp_path, command, option, value):
        # argparse alone takes "-1e-3" for an option and exits 2 with
        # "expected one argument"; it is the value, as in the "=" form
        code, blob = run(tmp_path, *command, option, value)
        assert code == 0
        assert blob == run(tmp_path, *command, f"{option}={value}", name="joined.txt")[1]

    def test_a_dash_word_is_still_not_a_value(self, tmp_path):
        assert run(tmp_path, "coherent", "--z-im", "-x")[0] == 2


class TestExitCodes:
    def test_ok(self, tmp_path):
        code, _ = run(tmp_path, "spectrum", "--n-max", "3")
        assert code == 0

    def test_failed_verification_is_one(self, tmp_path):
        code, blob = run(
            tmp_path, "--tol", "orthonormality=1e-30", "verify", "--suite", "states"
        )
        assert code == 1
        report = json.loads(blob)
        assert report["passed"] is False

    def test_unknown_tolerance_is_two(self, tmp_path):
        code, _ = run(tmp_path, "--tol", "orthodoxy=1e-8", "verify", "--suite", "states")
        assert code == 2

    def test_nonpositive_tolerance_is_two(self, tmp_path):
        code, _ = run(tmp_path, "--tol", "orthonormality=-1", "verify", "--suite", "states")
        assert code == 2

    def test_infinite_tolerance_is_two(self, tmp_path):
        # an infinite tolerance would make the check impossible to fail
        code, blob = run(tmp_path, "--tol", "orthonormality=inf", "verify", "--suite", "states")
        assert code == 2 and blob == b""

    def test_negative_l_max_is_two(self, tmp_path):
        code, blob = run(tmp_path, "spectrum", "--l-max", "-1")
        assert code == 2 and blob == b""

    def test_coherent_eigenvalue_beyond_supported_range_is_two(self, tmp_path):
        for argv in (["coherent"], ["export", "--kind", "coherent"]):
            code, blob = run(tmp_path, *argv, "--z-re", "1e308")
            assert code == 2 and blob == b""

    def test_coherent_eigenvalue_too_small_to_normalize_is_two(self, tmp_path):
        # I_7(2|Z|) underflows at |Z| = 1e-50, so the state has no normalization
        for argv in (["coherent"], ["export", "--kind", "coherent"]):
            code, blob = run(tmp_path, *argv, "--l", "3", "--z-re", "1e-50")
            assert code == 2 and blob == b""

    @pytest.mark.parametrize("ky", ["nan", "inf", "1e200", "-1e15"])
    def test_a_ky_with_no_box_is_two_and_named(self, tmp_path, capsys, ky):
        # the message names k_y, not the window its guiding centre would give
        argv = ["export", "--kind", "landau-asym", "--ky", ky]
        code, blob = run(tmp_path, *argv)
        assert code == 2 and blob == b""
        assert not (tmp_path / "out.txt").exists()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k_y" in captured.err and "x_min" not in captured.err

    def test_n_max_beyond_scan_range_is_two(self, tmp_path):
        # at n = 1582 the largest product 4n^2 - 1 passes 1e7; the scan
        # is refused before it starts, so this returns at once
        for command in ("degeneracy", "spectrum"):
            code, blob = run(tmp_path, command, "--n-max", "1582")
            assert code == 2 and blob == b""

    @pytest.mark.parametrize("command", ["degeneracy", "spectrum"])
    def test_failed_cross_check_is_one(self, tmp_path, capsys, monkeypatch, command):
        level_arrays = model._level_arrays
        monkeypatch.setattr(
            model, "_level_arrays", lambda n_max: tuple(a[1:] for a in level_arrays(n_max))
        )
        assert main([command, "--n-max", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: verification failed: degeneracy cross-check")
        assert "Traceback" not in captured.err
        code, blob = run(tmp_path, command, "--n-max", "10")
        assert code == 1 and blob == b""
        assert not (tmp_path / "out.txt").exists()

    def test_bad_config_is_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("width = 3\n")
        code, _ = run(tmp_path, "--config", str(cfg), "spectrum")
        assert code == 2

    def test_invalid_labels_are_two(self, tmp_path):
        code, _ = run(tmp_path, "wavefunction", "--l", "3", "--n", "2")
        assert code == 2

    def test_overflowing_export_density_is_two(self, tmp_path, capsys):
        # |psi|^2 overflows at (l, n) = (2, 10) on the default grid
        argv = ["export", "--kind", "eigen", "--l", "2", "--n", "10"]
        code, _ = run(tmp_path, *argv)
        assert code == 2
        assert not (tmp_path / "out.txt").exists()
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["wavefunction", "--l", "0", "--n", "15"],
            ["export", "--kind", "eigen", "--l", "5", "--n", "25"],
        ],
    )
    def test_overflowing_amplitudes_are_two_without_a_warning(self, tmp_path, capsys, argv):
        # the profile itself overflows here, before any density is formed;
        # numpy must not warn on the way to the refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, *argv)
            assert main(argv) == 2
        assert code == 2
        assert not (tmp_path / "out.txt").exists()
        assert capsys.readouterr().out == ""

    def test_overflowing_moments_grid_is_two_without_a_warning(self, tmp_path, capsys):
        # (0,1) is finite on this window, but its x-derivative overflows at
        # the left edge, where the weight is 0; the streamed moments must
        # refuse it without a numpy warning
        config = tmp_path / "grid.cfg"
        config.write_text("x_min=-708.5\nx_max=10.0\nnx=4096\nny=8\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(config), "uncertainty", "--l-max", "0"]) == 2
        assert capsys.readouterr().out == ""

    def test_overflowing_ladder_grid_is_two_without_a_warning(self, tmp_path, capsys):
        # on the same window the x-stencils and y-FFTs of ladder-check's
        # images overflow at the left edge; the streamed images must be
        # refused without a numpy warning
        config = tmp_path / "grid.cfg"
        config.write_text("x_min=-708.5\nx_max=10.0\nnx=4096\nny=8\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(config), "ladder-check", "--n-max", "1"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("hbar", ["1e153", "4e153"])
    def test_overflowing_energy_scale_is_named(self, tmp_path, capsys, hbar):
        # the window is fine; H v overflows because 2 pi^2 hbar^2 / (mu a0^2)
        # is 5e305 (or inf at 4e153), and the refusal says so
        config = tmp_path / "params.cfg"
        config.write_text(f"hbar={hbar}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(config), "ladder-check", "--n-max", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "energy scale 2 pi^2 hbar^2 / (mu a0^2)" in captured.err
        assert "shrink the window" not in captured.err

    def test_unwritable_out_is_three(self):
        code = main(["--out", "/nonexistent-dir/x.csv", "spectrum"])
        assert code == 3

    def test_misplaced_global_flag_is_two(self, tmp_path):
        # global flags come before the subcommand; trailing ones are
        # rejected by the parser rather than silently ignored
        code = main(["spectrum", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_version_flag(self, capsys):
        code = main(["--version"])
        assert code == 0
        assert __version__ in capsys.readouterr().out


class TestDeterminism:
    def test_verify_bytes_are_stable(self, tmp_path):
        _, first = run(tmp_path, "verify", "--suite", "states", name="a.json")
        _, second = run(tmp_path, "verify", "--suite", "states", name="b.json")
        assert first == second and first

    def test_spectrum_bytes_are_stable(self, tmp_path):
        _, first = run(tmp_path, "--format", "json", "spectrum", name="a.json")
        _, second = run(tmp_path, "--format", "json", "spectrum", name="b.json")
        assert first == second

    def test_thread_cap_does_not_change_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MORSEBAND_THREADS", "1")
        _, serial = run(tmp_path, "verify", "--suite", "states", name="a.json")
        monkeypatch.setenv("MORSEBAND_THREADS", "4")
        _, parallel = run(tmp_path, "verify", "--suite", "states", name="b.json")
        assert serial == parallel

    def test_invalid_thread_cap_is_two(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MORSEBAND_THREADS", "0")
        code, _ = run(tmp_path, "verify", "--suite", "states")
        assert code == 2

    def test_requests_in_one_process_are_fresh_runs(self, monkeypatch, tmp_path):
        # main builds its parser once per process: each request after the
        # first must still print and exit as a fresh process does, with no
        # option value, appended --tol list or default left over; nor may a
        # grid's cached axes or frame leak into a request on another window,
        # other parameters, or a window edge of -0.0 where one had 0.0
        window = "x_min=-4.0\nx_max=40.0\nnx=4096\nny=16\n"
        configs = {
            "window": window,
            "window_b0": "B0=1.5\n" + window,
            "zero_edge": "x_min=-12.0\nx_max=0.0\nnx=16\nny=16\n",
            "negative_zero_edge": "x_min=-12.0\nx_max=-0.0\nnx=16\nny=16\n",
        }
        for name, text in configs.items():
            (tmp_path / f"{name}.cfg").write_text(text)
        cfg = {name: str(tmp_path / f"{name}.cfg") for name in configs}
        argvs = [
            ["--tol", "bessel_recurrence=1e-30", "--tol", "polygamma_consistency=1e-3",
             "verify", "--suite", "specfun"],
            ["verify", "--suite", "specfun"],
            ["spectrum", "--n-max", "4", "--l-max", "1"],
            ["spectrum", "--bogus"],
            ["--format", "json", "spectrum"],
            ["--version"],
            ["coherent", "--z-re", "0.5", "--z-im", "-1e-3"],
            ["--tol", "orthodoxy=1e-8", "verify", "--suite", "specfun"],
            ["--format", "json", "landau-limit", "--N", "1", "--l-schedule", "10,100"],
            ["landau-limit"],
            ["uncertainty", "--l-max", "1"],
            ["--config", cfg["window"], "uncertainty", "--l-max", "1"],
            ["--config", cfg["window_b0"], "uncertainty", "--l-max", "1"],
            ["verify", "--suite", "states"],
        ]
        for kind in (["eigen"], ["landau-sym", "--n", "0", "--l", "1"]):
            argvs += [["--config", cfg[edge], "export", "--kind", *kind] for edge in ("zero_edge", "negative_zero_edge")]
        # argparse wraps its usage text to the terminal's width
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(morseband.__file__))}
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "morseband", *argv], env=env, capture_output=True, text=True, timeout=300
            )
            assert (code, out.getvalue(), err.getvalue()) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert cli._build_parser.cache_info().currsize == 1


class TestJsonText:
    def test_non_finite_numbers_are_strings(self, tmp_path):
        # the density overflows at n = 9 on the default grid: the state is
        # refused before anything is written, so no "inf" is ever printed
        code, _ = run(tmp_path, "--format", "json", "wavefunction", "--l", "0", "--n", "9")
        assert code == 2
        assert not (tmp_path / "out.txt").exists()

    def test_every_non_finite_float_has_its_own_string(self):
        text = cli._json_text({"values": [math.inf, -math.inf, math.nan, 0.5]})
        assert json.loads(text)["values"] == ["inf", "-inf", "nan", 0.5]


class TestSpectrum:
    def test_small_table_rows(self, tmp_path):
        code, blob = run(tmp_path, "spectrum", "--n-max", "2")
        assert code == 0
        rows = data_lines(blob)
        assert rows[0].split(",") == ["l", "n", "N", "product", "energy", "multiplicity"]
        labels = [tuple(r.split(",")[:2]) for r in rows[1:]]
        assert labels == [("0", "1"), ("0", "2"), ("1", "2")]

    def test_ground_energy_text_is_exact(self, tmp_path):
        _, blob = run(tmp_path, "spectrum", "--n-max", "1")
        row = data_lines(blob)[1].split(",")
        assert row[4] == "3.7500000000000000e-01"

    def test_product_fifteen_multiplicity(self, tmp_path):
        _, blob = run(tmp_path, "--format", "json", "spectrum", "--n-max", "4")
        rows = json.loads(blob)["rows"]
        fifteen = [r for r in rows if r["product"] == 15]
        assert len(fifteen) == 2
        assert all(r["multiplicity"] == 2 for r in fifteen)

    def test_l_max_filter(self, tmp_path):
        _, blob = run(tmp_path, "--format", "json", "spectrum", "--n-max", "5", "--l-max", "0")
        rows = json.loads(blob)["rows"]
        assert rows and all(r["l"] == 0 for r in rows)


class TestDegeneracy:
    def test_histogram_and_triple_class(self, tmp_path):
        code, blob = run(tmp_path, "--format", "json", "degeneracy", "--n-max", "100")
        assert code == 0
        report = json.loads(blob)
        assert report["histogram"]["3"] == 216
        triple = [c for c in report["classes"] if c["product"] == 243]
        assert triple and triple[0]["states"] == [[4, 9], [19, 21], [60, 61]]

    def test_csv_has_two_blocks(self, tmp_path):
        _, blob = run(tmp_path, "degeneracy", "--n-max", "10")
        text = blob.decode()
        assert "multiplicity,count" in text
        assert "product,multiplicity,states" in text


def _loop_spectrum(n_max: int, l_max: int | None, p: PhysParams) -> list[tuple]:
    """The spectrum rows as the per-level loop writes them: the reference
    the table-driven command must match byte for byte."""
    counts: dict[int, int] = {}
    for n in range(1, n_max + 1):
        for l in range(n):
            product = spectrum_product(QuantumNumbers(l, n))
            counts[product] = counts.get(product, 0) + 1
    l_max = n_max - 1 if l_max is None else l_max
    rows = []
    for n in range(1, n_max + 1):
        for l in range(min(l_max, n - 1) + 1):
            q = QuantumNumbers(l, n)
            product = spectrum_product(q)
            rows.append((l, n, q.N, product, energy(q, p), counts[product]))
    return rows


def _loop_degeneracy(n_max: int, fmt: str) -> str:
    """The degeneracy text as the per-report loop writes it."""
    reports = list(degeneracy_scan(n_max))
    histogram: dict[int, int] = {}
    for report in reports:
        histogram[report.multiplicity] = histogram.get(report.multiplicity, 0) + 1
    if fmt == "json":
        payload = {
            "command": "degeneracy",
            "histogram": {str(k): histogram[k] for k in sorted(histogram)},
            "classes": [
                {
                    "product": r.product,
                    "multiplicity": r.multiplicity,
                    "states": [[q.l, q.n] for q in r.states],
                }
                for r in reports
            ],
        }
        return _json_text(payload) + "\n"
    classes = [
        (r.product, r.multiplicity, ";".join(f"{q.l}:{q.n}" for q in r.states)) for r in reports
    ]
    text = _csv_block(("multiplicity", "count"), [(k, histogram[k]) for k in sorted(histogram)])
    return text + "\n" + _csv_block(("product", "multiplicity", "states"), classes)


def _command_text(handler, fmt: str, p: PhysParams, **argv) -> str:
    cfg = cli.RunConfig(params=p, grid=None, tolerances={}, output_format=fmt, output_path=None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert handler(argparse.Namespace(**argv), cfg) == 0
    return out.getvalue()


class TestScanTables:
    """``spectrum`` and ``degeneracy`` write their tables from the scan's
    arrays; the per-level loops are the reference for every byte."""

    # sha256 of stdout as the per-level loops wrote it
    PINNED = {
        ("degeneracy", "--n-max", "250"):
            "e94ca43c4a442f8f1a7fe02ebdf671fad898680aa47645856060b56a964730ad",
        ("--format", "json", "degeneracy", "--n-max", "122"):
            "894968192847c32f1552b16e2bb2731e43be7401eef4b0ccbbcedacf52ae13c3",
        ("spectrum", "--n-max", "145"):
            "e195eb90e2295c5ea97607eef25fee266703fad57a0287846892405e5b4748cd",
        ("--format", "json", "spectrum", "--n-max", "145"):
            "0fd7b1baa29f288478060a9039abd65f6640385e5f934fd983c8d0d0751c10a2",
        ("spectrum", "--n-max", "51", "--l-max", "26"):
            "f986549ece4a1d5111de130b4d8583e10b5532af824ccb5cb8059a8d57ccedab",
    }

    @pytest.mark.parametrize("argv", sorted(PINNED))
    def test_pinned_bytes(self, capsys, argv):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.PINNED[argv]

    @given(
        n_max=st.integers(1, 40),
        l_max=st.none() | st.integers(0, 45),
        fmt=st.sampled_from(("csv", "json")),
        B0=st.floats(0.01, 100.0),
        a0=st.floats(0.01, 100.0),
        mu=st.floats(0.01, 100.0),
        hbar=st.floats(0.01, 100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_spectrum_is_the_loop(self, n_max, l_max, fmt, B0, a0, mu, hbar):
        p = PhysParams(B0=B0, a0=a0, mu=mu, hbar=hbar, c=1.0, e=-1.0)
        rows = _loop_spectrum(n_max, l_max, p)
        header = ("l", "n", "N", "product", "energy", "multiplicity")
        if fmt == "json":
            want = _json_text({"command": "spectrum", "rows": [dict(zip(header, r)) for r in rows]}) + "\n"
        else:
            want = _csv_block(header, rows)
        got = _command_text(cli._cmd_spectrum, fmt, p, n_max=n_max, l_max=l_max)
        assert got == want

    @given(n_max=st.integers(1, 60), fmt=st.sampled_from(("csv", "json")))
    @settings(max_examples=30, deadline=None)
    def test_degeneracy_is_the_loop(self, n_max, fmt):
        p = PhysParams.natural()
        got = _command_text(cli._cmd_degeneracy, fmt, p, n_max=n_max)
        assert got == _loop_degeneracy(n_max, fmt)

    def test_spectrum_csv_peak_memory(self, tmp_path):
        # the 1.25M rows at the cap make a 54 MiB file; formatted in row
        # blocks the command peaks at 59.0 MiB traced (the scan's arrays and
        # the columns), against 240.8 MiB as one byte matrix of the table
        tracemalloc.start()
        try:
            assert main(["--out", str(tmp_path / "spectrum.csv"), "spectrum", "--n-max", "1581"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 65 * 2**20


# a window whose nx rows fill one block of the table writer and part of a second
RAGGED_GRID = GridSpec(-2.0, 12.0, cli._BLOCK_LINES + 453, 12)
TABLE_COMMANDS = (
    "spectrum", "degeneracy", "wavefunction", "ladder-check", "coherent", "uncertainty", "landau-limit"
)


def _referee_tables(command: str, p: PhysParams, grid: GridSpec | None) -> list[tuple]:
    """The tables of a command at its defaults as (name, header, rows), each
    row computed by the library one level or one grid row at a time, as the
    commands computed them before they were written from column arrays."""
    if command == "spectrum":
        return [("rows", ("l", "n", "N", "product", "energy", "multiplicity"), _loop_spectrum(6, None, p))]
    if command == "wavefunction":
        s = wavefunction(QuantumNumbers(0, 1), p, grid or default_grid(p))
        radial = s.values[:, 0] * cmath.exp(1j * p.kappa * s.y[0])
        rows = [
            (float(s.x[i]), float(radial[i].real), float(abs(s.values[i, 0]) ** 2), float(s.weight[i]))
            for i in range(s.grid.nx)
        ]
        return [("rows", ("x", "radial", "density", "weight"), rows)]
    if command == "ladder-check":
        rows = algebra._ladder_table(p, grid or algebra.algebra_grid(p), 4)
        header = ("l", "n", "raise_defect", "lower_defect", "casimir_residual", "hamiltonian_residual")
        return [("rows", header, rows)]
    if command == "coherent":
        s = bg_state_closed(CoherentSpec(0, complex(1.0, 0.0)), p, grid or default_coherent_grid(p))
        column = s.values[:, 0]
        state = [(float(s.x[i]), float(abs(column[i]) ** 2), float(s.weight[i])) for i in range(s.grid.nx)]
        measure = [(r, bg_measure_density(0, r)) for r in (i / 10.0 for i in range(1, 101))]
        return [("state", ("x", "density", "weight"), state), ("measure", ("r", "measure_density"), measure)]
    if command == "uncertainty":
        rows = []
        for l in range(5):
            for N in range(3):
                q = QuantumNumbers(l, l + 1 + N)
                closed = moments_closed(q, p).delta / p.hbar**2
                quadrature = moments_quadrature(q, p, grid).delta / p.hbar**2
                rows.append((l, N, closed, quadrature, (0.25, 2.25, 6.25)[N]))
        return [("rows", ("l", "N", "delta_closed", "delta_quadrature", "delta_limit_target"), rows)]
    assert command == "landau-limit"
    rows = []
    for l in (10, 100, 1000, 10000):
        a0 = landau_a0(l, p)
        e_model = energy(QuantumNumbers(l, l + 1), dataclasses.replace(p, a0=a0))
        rows.append((l, a0, e_model, landau_energy(0, p), landau_limit_error(0, l, p), 3.0 / (4.0 * l)))
    return [("rows", ("l", "a0", "energy_model", "energy_landau", "rel_error", "predicted"), rows)]


def _referee_text(command: str, fmt: str, tables: list[tuple]) -> str:
    if command == "degeneracy":
        return _loop_degeneracy(100, fmt)
    if fmt == "json":
        payload = {name: [dict(zip(header, r)) for r in rows] for name, header, rows in tables}
        return _json_text({"command": command, **payload}) + "\n"
    return "\n".join(_csv_block(header, rows) for _, header, rows in tables)


_SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308, -1e-300,
    1e300, 1e-14, 1e100, math.inf, -math.inf, math.nan, 1 + 2**-17, -1 - 3 * 2**-17,
)


class TestTableWriter:
    """Every table command writes CSV and JSON from column arrays through
    one field writer; the referee above defines every byte."""

    @pytest.mark.parametrize("ragged", [False, True], ids=["defaults", "ragged"])
    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_every_table_is_the_referee(self, tmp_path, command, ragged):
        config, grid = [], None
        if ragged:
            grid = RAGGED_GRID
            assert grid.nx > cli._BLOCK_LINES and grid.nx % cli._BLOCK_LINES
            (tmp_path / "grid.cfg").write_text(
                f"x_min={grid.x_min!r}\nx_max={grid.x_max!r}\nnx={grid.nx}\nny={grid.ny}\n"
            )
            config = ["--config", str(tmp_path / "grid.cfg")]
        tables = None if command == "degeneracy" else _referee_tables(command, PhysParams.natural(), grid)
        for fmt in ("csv", "json"):
            code, blob = run(tmp_path, *config, "--format", fmt, command)
            assert code == 0
            assert blob.decode() == _referee_text(command, fmt, tables)
            if fmt == "json":
                json.loads(blob)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_are_the_referee(self, data):
        # float and non-negative int columns under unsorted names, in blocks
        # of 1 to 8 rows so that tables end in ragged blocks
        keys = st.sampled_from(("N", "a0", "energy", "l", "n", "weight", "x"))
        names = data.draw(st.lists(keys, min_size=1, max_size=5, unique=True))
        n = data.draw(st.integers(0, 20))
        floats = st.floats(allow_subnormal=True) | st.sampled_from(_SPECIAL_FLOATS)
        kinds = st.sampled_from(((floats, float), (st.integers(0, 2**63 - 1), np.int64)))
        columns = {}
        for name in names:
            values, dtype = data.draw(kinds)
            columns[name] = np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
        rows = list(zip(*(columns[name].tolist() for name in names)))
        with mock.patch.object(cli, "_BLOCK_LINES", data.draw(st.integers(1, 8))):
            members = {"command": [json.dumps("t")], "rows": cli._json_rows(columns)}
            text = "".join(cli._json_document(members))
            csv = "".join(cli._csv_table(columns))
        assert text == _json_text({"command": "t", "rows": [dict(zip(names, r)) for r in rows]}) + "\n"
        assert csv == _csv_block(tuple(names), rows)
        back = json.loads(text)["rows"]
        assert len(back) == n
        for row, parsed in zip(rows, back):
            for name, v in zip(names, row):
                want = v if not isinstance(v, float) or math.isfinite(v) else format(v, ".16e")
                assert repr(parsed[name]) == repr(want)

    @settings(max_examples=30, deadline=None)
    @given(n_max=st.integers(1, 30), block=st.integers(1, 8), fmt=st.sampled_from(("csv", "json")))
    def test_classes_across_blocks_are_the_referee(self, n_max, block, fmt):
        # blocks of a few levels split classes, open and close them mid-block
        with mock.patch.object(cli, "_BLOCK_LINES", block):
            got = _command_text(cli._cmd_degeneracy, fmt, PhysParams.natural(), n_max=n_max)
        assert got == _loop_degeneracy(n_max, fmt)

    def test_json_table_peak_memory(self, tmp_path):
        # the 320k rows at --n-max 800 make a 46 MiB file; written in row
        # blocks the command peaks at 16.3 MiB traced (15.8 in csv), against
        # 318.9 MiB as one list of row dicts and one string
        tracemalloc.start()
        try:
            argv = ["--format", "json", "--out", str(tmp_path / "spectrum.json"), "spectrum", "--n-max", "800"]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20


class TestLandauLimit:
    def test_error_column_matches_prediction(self, tmp_path):
        code, blob = run(tmp_path, "landau-limit", "--N", "1")
        assert code == 0
        rows = data_lines(blob)
        header = rows[0].split(",")
        i_rel = header.index("rel_error")
        i_pred = header.index("predicted")
        i_l = header.index("l")
        for row in rows[1:]:
            cells = row.split(",")
            rel_error = float(cells[i_rel])
            predicted = float(cells[i_pred])
            l = int(cells[i_l])
            assert abs(rel_error - predicted) <= 1e-12
            assert abs(predicted - 5.0 / (4.0 * l)) <= 1e-15

    def test_decade_schedule(self, tmp_path):
        _, blob = run(tmp_path, "--format", "json", "landau-limit", "--N", "0")
        rows = json.loads(blob)["rows"]
        errors = [r["rel_error"] for r in rows]
        assert len(errors) == 4
        for a, b in zip(errors, errors[1:]):
            assert abs(a / b - 10.0) <= 1e-9


class TestReportCommands:
    def test_ground_state_density_profile(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("x_min = 0\nx_max = 6\nnx = 128\nny = 8\n")
        _, blob = run(tmp_path, "--config", str(cfg), "--format", "json", "wavefunction")
        rows = json.loads(blob)["rows"]
        worst = 0.0
        for row in rows:
            want = math.exp(-2.0 * row["x"]) / math.pi
            worst = max(worst, abs(row["density"] - want) / want)
        assert worst <= 1e-12

    def test_coherent_emits_state_and_measure(self, tmp_path):
        _, blob = run(
            tmp_path, "--format", "json", "coherent", "--l", "0", "--z-re", "0.7"
        )
        report = json.loads(blob)
        measure = report["measure"]
        assert len(measure) == 100
        assert abs(measure[0]["r"] - 0.1) <= 1e-12
        assert abs(measure[-1]["r"] - 10.0) <= 1e-12
        # the radial measure density approaches 1/(2 pi) already at r = 10
        assert abs(2.0 * math.pi * measure[-1]["measure_density"] - 1.0) <= 0.05
        assert report["state"]

    def test_uncertainty_table_values(self, tmp_path):
        _, blob = run(tmp_path, "--format", "json", "uncertainty", "--l-max", "1")
        rows = json.loads(blob)["rows"]
        by_label = {(r["l"], r["N"]): r for r in rows}
        assert abs(by_label[(0, 0)]["delta_closed"] - 0.25) <= 1e-12
        assert abs(by_label[(1, 1)]["delta_closed"] - 1.5625) <= 1e-12
        assert abs(by_label[(1, 1)]["delta_limit_target"] - 2.25) <= 1e-15
        for r in rows:
            assert abs(r["delta_closed"] - r["delta_quadrature"]) <= 1e-7

    @pytest.mark.parametrize("grid_cfg", [None, "x_min = 1\nx_max = 9\nnx = 40\nny = 24\n"])
    def test_column_printers_match_the_full_grid(self, tmp_path, grid_cfg):
        # wavefunction and coherent print column 0 only and build 8 columns;
        # the text must be what the whole grid's column 0 gives
        config = []
        if grid_cfg is not None:
            (tmp_path / "grid.cfg").write_text(grid_cfg)
            config = ["--config", str(tmp_path / "grid.cfg")]
        p = PhysParams.natural()

        q = QuantumNumbers(1, 3)
        grid = cli._load_run_config(cli._build_parser().parse_args([*config, "spectrum"])).grid
        s = wavefunction(q, p, grid or default_grid(p))
        assert s.grid.ny > 8
        phase = complex(np.exp(1j * q.n * p.kappa * s.y[0]))
        radial = s.values[:, 0] * phase
        density = cli._density(s.values[:, 0])
        want = _csv_block(
            ("x", "radial", "density", "weight"),
            [(float(s.x[i]), float(radial[i].real), float(density[i]), float(s.weight[i])) for i in range(s.grid.nx)],
        )
        _, blob = run(tmp_path, *config, "wavefunction", "--l", "1", "--n", "3", name="w.csv")
        assert blob.decode() == want

        s = bg_state_closed(CoherentSpec(2, complex(0.9, 0.5)), p, grid or default_coherent_grid(p))
        assert s.grid.ny > 8
        density = cli._density(s.values[:, 0])
        want = _csv_block(
            ("x", "density", "weight"),
            [(float(s.x[i]), float(density[i]), float(s.weight[i])) for i in range(s.grid.nx)],
        )
        _, blob = run(
            tmp_path, *config, "coherent", "--l", "2", "--z-re", "0.9", "--z-im", "0.5", name="c.csv"
        )
        assert blob.decode().partition("\n\n")[0] + "\n" == want

    def test_ladder_check_residuals(self, tmp_path):
        _, blob = run(tmp_path, "--format", "json", "ladder-check", "--n-max", "2")
        rows = json.loads(blob)["rows"]
        assert rows
        for r in rows:
            assert r["raise_defect"] <= 1e-6
            assert r["lower_defect"] <= 1e-6
            assert r["casimir_residual"] <= 1e-6
            assert r["hamiltonian_residual"] <= 1e-6


class TestConfig:
    def test_flat_and_json_configs_agree(self, tmp_path):
        flat = tmp_path / "params.cfg"
        flat.write_text("# natural except B0\nB0 = 2.0\na0 = 6.0\n")
        as_json = tmp_path / "params.json"
        as_json.write_text(json.dumps({"B0": 2.0, "a0": 6.0}))
        _, first = run(tmp_path, "--config", str(flat), "spectrum", name="a.csv")
        _, second = run(tmp_path, "--config", str(as_json), "spectrum", name="b.csv")
        assert first == second

    def test_field_strength_invariance_through_cli(self, tmp_path):
        strong = tmp_path / "strong.cfg"
        strong.write_text("B0 = 250.0\n")
        _, first = run(tmp_path, "spectrum", name="a.csv")
        _, second = run(tmp_path, "--config", str(strong), "spectrum", name="b.csv")
        assert first == second

    def test_missing_config_file_is_two(self, tmp_path):
        code, _ = run(tmp_path, "--config", str(tmp_path / "absent.cfg"), "spectrum")
        assert code == 2

    def test_partial_grid_is_two(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("x_min = 0\nx_max = 6\n")
        code, _ = run(tmp_path, "--config", str(cfg), "wavefunction")
        assert code == 2

    def test_infinite_parameter_is_two(self, tmp_path):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("a0 = inf\n")
        code, blob = run(tmp_path, "--config", str(cfg), "spectrum", "--n-max", "2")
        assert code == 2
        assert blob == b""

    @staticmethod
    def _refused(tmp_path, capsys, mapping):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(mapping))
        argv = ["--config", str(cfg), "ladder-check", "--n-max", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert run(tmp_path, *argv) == (2, b"")
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("nx, ny", [(1000.7, 16.9), (1000, 16.9), (1e400, 16)])
    def test_non_integral_json_grid_size_is_two(self, tmp_path, capsys, nx, ny):
        # truncated in silence to a 1000x16 grid before; 1e400 reads as inf
        self._refused(tmp_path, capsys, {"x_min": -2.0, "x_max": 12.0, "nx": nx, "ny": ny})

    @pytest.mark.parametrize("mapping", [
        {"x_min": True, "x_max": 12.0, "nx": 1000, "ny": 16}, {"B0": True},
    ])
    def test_json_boolean_is_two(self, tmp_path, capsys, mapping):
        # read as 1.0 before
        self._refused(tmp_path, capsys, mapping)


class TestExport:
    def test_zero_eigenvalue_coherent_equals_eigenstate(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("x_min = 2\nx_max = 9\nnx = 256\nny = 32\n")
        _, eigen = run(
            tmp_path, "--config", str(cfg), "export", "--kind", "eigen",
            "--l", "0", "--n", "1", name="eigen.csv",
        )
        _, coherent = run(
            tmp_path, "--config", str(cfg), "export", "--kind", "coherent",
            "--l", "0", "--z-re", "0", "--z-im", "0", name="coh.csv",
        )
        assert data_lines(eigen) == data_lines(coherent)

    def test_header_records_version_and_parameters(self, tmp_path):
        _, blob = run(tmp_path, "export", "--kind", "eigen", name="e.csv")
        head = blob.decode().splitlines()[:4]
        assert head[0] == f"# morseband-{__version__}"
        assert any("B0=" in line for line in head)
        assert any("kind=eigen" in line for line in head)

    def test_landau_kinds_run(self, tmp_path):
        code, blob = run(
            tmp_path, "export", "--kind", "landau-asym", "--n", "1", "--ky", "0.5",
            name="la.csv",
        )
        assert code == 0
        rows = data_lines(blob)
        assert rows[0] == "x,y,re_psi,im_psi,density,weight"
        code, _ = run(
            tmp_path, "export", "--kind", "landau-sym", "--n", "0", "--l", "1",
            name="ls.csv",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "grid_cfg, argv",
        [
            ("x_min = -2\nx_max = 9\nnx = 40\nny = 8\n", ["--kind", "eigen", "--l", "1", "--n", "3"]),
            (
                "x_min = 2\nx_max = 9\nnx = 48\nny = 8\n",
                ["--kind", "coherent", "--l", "1", "--z-re", "1.5", "--z-im", "-0.75"],
            ),
            ("x_min = -6\nx_max = 6\nnx = 24\nny = 16\n", ["--kind", "landau-sym", "--n", "1", "--l", "2"]),
            # nx = 600 rows of ny = 8 fill two whole blocks and part of a third
            ("x_min = -2\nx_max = 9\nnx = 600\nny = 8\n", ["--kind", "eigen", "--l", "0", "--n", "2"]),
            (None, ["--kind", "eigen", "--l", "2", "--n", "7"]),
            # the density reaches 1e15 near the left edge, where exact ties occur
            (None, ["--kind", "coherent", "--l", "1", "--z-re", "8", "--z-im", "0.7"]),
            (None, ["--kind", "landau-sym", "--n", "2", "--l", "1"]),
            (None, ["--kind", "landau-asym", "--n", "2", "--ky", "0.5"]),
        ],
        ids=[
            "eigen", "coherent", "landau-sym", "eigen-partial-block",
            "eigen-default", "coherent-default", "landau-sym-default", "landau-asym",
        ],
    )
    def test_rows_match_the_per_cell_loop(self, tmp_path, capsys, grid_cfg, argv):
        config = []
        if grid_cfg is not None:
            (tmp_path / "grid.cfg").write_text(grid_cfg)
            config = ["--config", str(tmp_path / "grid.cfg")]
        code, blob = run(tmp_path, *config, "export", *argv)
        assert code == 0
        args = cli._build_parser().parse_args([*config, "export", *argv])
        s, _, _ = cli._export_state(args, cli._load_run_config(args))
        if s.grid.nx == 600:
            per_block = cli._BLOCK_LINES // s.grid.ny
            assert s.grid.nx > per_block and s.grid.nx % per_block
        header, _, rows = blob.decode().partition("x,y,re_psi,im_psi,density,weight\n")
        assert header.count("\n") == 4
        assert rows == per_cell_rows(s.values, s.x, s.y, s.weight)
        del rows  # the coherent text is 73 MB; free it before the stdout run
        assert main([*config, "export", *argv]) == 0
        assert capsys.readouterr().out.encode() == blob

    def test_row_writer_is_exact_on_edge_cells(self):
        rng = np.random.default_rng(7)
        shape = (8, 8)
        values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(
            -40.0, 40.0, shape
        )
        values[0, :6] = [
            complex(1.2532713955973815e-30, -3.6470973560424327e-31),  # np.abs is one bit off
            complex(5.787103522958906e-26, 1.1252395612950644e-26),  # a plain square is one bit off
            complex(-0.0, 0.5),
            complex(0.25, -0.0),
            complex(5e-324, -2.5e-310),  # subnormal
            complex(1e200, 1.0),  # the density overflows
        ]
        x = np.linspace(-1.0, 1.0, 8)
        y = np.linspace(-0.5, 0.5, 8, endpoint=False)
        for v in (values, values.real.copy()):
            written = "".join(cli._export_rows(v, cli._density(v), x, y, np.exp(x)))
            assert written == per_cell_rows(v, x, y, np.exp(x))

    def test_row_count_matches_grid(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("x_min = 0\nx_max = 5\nnx = 16\nny = 8\n")
        _, blob = run(
            tmp_path, "--config", str(cfg), "export", "--kind", "eigen", name="e.csv"
        )
        rows = data_lines(blob)
        assert len(rows) == 1 + 16 * 8

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_are_the_per_cell_loop_in_any_block(self, data):
        # blocks of 1 to 8 lines: one x row to a block once ny exceeds
        # them, ragged last blocks, and field widths that change from one
        # block to the next in the buffer the blocks share
        nx, ny = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        floats = st.floats(allow_subnormal=True) | st.sampled_from(_SPECIAL_FLOATS)

        def column(*shape):
            size = math.prod(shape)
            return np.array(data.draw(st.lists(floats, min_size=size, max_size=size))).reshape(shape)

        values = np.empty((nx, ny), complex)
        values.real, values.imag = column(nx, ny), column(nx, ny)
        x, y, weight = column(nx), column(ny), column(nx)
        with mock.patch.object(cli, "_BLOCK_LINES", data.draw(st.integers(1, 8))):
            written = "".join(cli._export_rows(values, cli._density(values), x, y, weight))
        assert written == per_cell_rows(values, x, y, weight)

    @pytest.mark.parametrize(
        "crossing, tall",
        [("inside", False), ("edge", False), ("edge", True), ("none", False), ("none", True)],
        ids=["inside", "edge", "edge-ny-above-block", "none", "none-ny-above-block"],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_block_fields_are_the_referee(self, crossing, tall, data):
        # each block takes x and weight fields less the sign and third
        # exponent digit columns that none of its rows needs: x windows that
        # cross 0 inside a block, on a block edge or not at all, -0.0 among
        # them, weights with three-digit exponents in some blocks only, and
        # ny below the block's lines or above them (one x row to a block)
        block = data.draw(st.integers(2, 12))
        ny = data.draw(st.integers(block + 1, 2 * block) if tall else st.integers(1, block // 2))
        rows = max(1, block // ny)
        blocks = data.draw(st.integers(2, 4))
        nx = data.draw(st.integers(rows * (blocks - 1) + 1, rows * blocks))
        if crossing == "none":
            zero = data.draw(st.sampled_from((0, nx)))
        elif crossing == "edge":
            zero = rows * data.draw(st.integers(0, (nx - 1) // rows))
        else:
            zero = data.draw(st.integers(1, nx - 1).filter(lambda i: i % rows))
        step = data.draw(st.floats(1e-3, 1e3))
        x = (np.arange(nx) - zero) * step
        if zero < nx and data.draw(st.booleans()):
            x[zero] = -0.0
        wide = data.draw(st.lists(st.booleans(), min_size=blocks, max_size=blocks))
        powers = [data.draw(st.integers(-307, 307) if wide[i // rows] else st.integers(-99, 99)) for i in range(nx)]
        weight = np.array(data.draw(st.lists(st.floats(1.0, 9.5), min_size=nx, max_size=nx))) * 10.0 ** np.array(powers)
        y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=ny, max_size=ny)))
        parts = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * nx * ny, max_size=2 * nx * ny))
        values = np.array(parts).view(complex).reshape(nx, ny)
        with mock.patch.object(cli, "_BLOCK_LINES", block):
            written = "".join(cli._export_rows(values, cli._density(values), x, y, weight))
        assert written == per_cell_rows(values, x, y, weight)

    def test_export_peak_memory(self, tmp_path):
        # 4096 x 128 cells make a 73 MB file. The state's 8 MiB of
        # amplitudes peak at 16.1 MiB traced while they are built; the
        # writer then holds them, their 4 MiB density and one block of
        # 2048 lines (14.5 MiB). Holding the text, or one byte matrix of
        # the state, would take more than 70 MiB.
        (tmp_path / "grid.cfg").write_text("x_min=-2.0\nx_max=12.0\nnx=4096\nny=128\n")
        config, out = str(tmp_path / "grid.cfg"), str(tmp_path / "e.csv")
        argv = ["--config", config, "--out", out, "export", "--kind", "eigen"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "e.csv").stat().st_size > 70 * 10**6
        assert peak <= 20 * 2**20


def _texts(v, quote: bool = False) -> list[str]:
    fields = cli._E17(v, quote).write()
    return [bytes(f[f != 0]).decode("ascii") for f in fields.reshape(-1, fields.shape[-1])]


def _format_all(v) -> list[str]:
    return [format(float(x), ".16e") for x in np.asarray(v, dtype=float).ravel()]


class TestE17Fields:
    """``cli._E17(v).write()`` against ``format(v, ".16e")``, which defines the text."""

    def test_every_binary_exponent(self):
        # the smallest, the largest and a random mantissa of every binary
        # exponent 1..2046 and the smallest and largest subnormal of every
        # binade, both signs: every decimal exponent, so every row of the
        # power-of-ten table
        rng = np.random.default_rng(20)
        exponents = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
        mantissas = (np.uint64(0), np.uint64(2**52 - 1), rng.integers(0, 2**52, exponents.size, dtype=np.uint64))
        binades = np.uint64(1) << np.arange(52, dtype=np.uint64)
        bits = np.concatenate([exponents | m for m in mantissas] + [binades, 2 * binades - np.uint64(1)])
        v = np.concatenate([bits.view(np.float64), -bits.view(np.float64)])
        texts = _texts(v)
        assert texts == _format_all(v)
        assert {int(t.partition("e")[2]) for t in texts} == set(range(cli._E_MIN, cli._E_MAX + 1))

    @pytest.mark.parametrize("quote", [False, True])
    def test_writes_into_a_strided_view(self, quote):
        # fields written in place, in the narrowest width, are the
        # standalone call's bytes, and no byte outside them is touched
        v = np.array([
            [0.0, -0.0, 5e-324, 1e-14], [1 + 2**-17, 1e300, -1e-300, -2.5], [math.inf, -math.inf, math.nan, 1.0]
        ])
        for sign in (1.0, -1.0):
            texts = cli._E17(sign * v, quote)
            width = texts.width
            block = np.full((3, 4, 2, width + 3), 0xFF, np.uint8)
            texts.write(block[:, :, 1, 2 : 2 + width])
            assert np.array_equal(block[:, :, 1, 2 : 2 + width], texts.write())
            quoted = ['"%s"' % t if quote and "." not in t else t for t in _format_all(sign * v)]
            assert _texts(sign * v, quote) == quoted
            block[:, :, 1, 2 : 2 + width] = 0xFF
            assert (block == 0xFF).all()

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=7),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        )
    )
    def test_every_double(self, v):
        texts = cli._E17(v)
        assert texts.write().shape == v.shape + (texts.width,)
        assert _texts(v) == _format_all(v)

    def test_random_bit_patterns(self):
        # every class of double at its share of the 64-bit patterns, in the
        # narrowest field: a sign byte as some are negative, a third exponent
        # digit as some need one
        v = np.random.default_rng(30).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
        texts = cli._E17(v)
        fields = texts.write()
        assert texts.width == 24 == fields.shape[1]
        lines = np.concatenate([fields, np.full((v.size, 1), ord("\n"), np.uint8)], axis=1)
        assert cli._text(lines) == "".join(f"{t}\n" for t in _format_all(v))

    def test_power_of_ten_table_is_exact(self):
        # hi is 10^(16-E) 2^-exp rounded to a double in [1, 2), top + bot its
        # split into halves of at most 26 bits each, and lo the remainder rounded
        table, exps = cli._pow10_table()
        for E, (hi, top, bot, lo), exp in zip(range(cli._E_MIN, cli._E_MAX + 1), table.tolist(), exps.tolist()):
            exact = Fraction(10) ** (16 - E) / Fraction(2) ** exp
            assert 1.0 <= hi < 2.0 and hi == float(exact)
            assert lo == float(exact - Fraction(hi))
            assert top + bot == hi and (Fraction(top) * 2**25).denominator == 1 and abs(bot) <= 2.0**-26

    def test_edge_cells(self):
        v = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                      -1.7976931348623157e308, 9.9999999999999999e22, 1.0, -1.0])
        assert _texts(v) == _format_all(v)
        assert _texts(v)[:3] == [
            "0.0000000000000000e+00", "-0.0000000000000000e+00", "4.9406564584124654e-324"
        ]

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        for v in (powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)):
            assert _texts(v) == _format_all(v)
            assert _texts(-v) == _format_all(-v)

    def test_round_up_carries_into_the_next_decade(self):
        # the double nearest 1e-14 lies below it, and its 17 digits round up
        # to 10^17: the text is 1.0...e-14, one decade above floor(log10 v)
        assert Fraction(1e-14) < Fraction(1, 10**14)
        assert _texts(np.array([1e-14])) == ["1.0000000000000000e-14"]

    def test_exact_ties_round_half_to_even(self):
        # 1 + 2^-17 = 1.00000762939453125 and 1 + 3*2^-17 = 1.00002288818359375:
        # 18 digits ending in 5, so the 17-digit rounding is an exact tie
        v = np.array([1 + 2**-17, 1 + 3 * 2**-17])
        for x in v:
            assert (Fraction(float(x)) * 10**16).denominator == 2
        assert _texts(v) == ["1.0000076293945312e+00", "1.0000228881835938e+00"]

    def test_format_writes_only_ties_and_non_finite_cells(self, monkeypatch):
        calls = []

        def spy(x, spec):
            calls.append(x)
            return format(x, spec)

        monkeypatch.setattr(cli, "format", spy, raising=False)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        bits = np.random.default_rng(5).integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False)
        v = np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
            bits.view(np.float64), [1 + 2**-17, -1 - 3 * 2**-17, 2.0**52 + 0.5, np.inf, -np.inf, np.nan],
        ])

        def is_tie(x):
            # exact floor(log10 |x|): the printed exponent, or one less after a carry
            exact = Fraction(abs(x))
            E = int(format(x, ".16e").partition("e")[2])
            E -= exact < Fraction(10) ** E
            return (exact * Fraction(10) ** (16 - E)).denominator == 2

        want = [x for x in v.tolist() if not math.isfinite(x) or is_tie(x)]
        assert _texts(v) == _format_all(v)
        assert len(want) >= 7
        assert [repr(x) for x in calls] == [repr(x) for x in want]

    def test_no_table_is_built_at_import(self):
        # neither the writer's tables, the parser, nor a grid's axes or
        # frame: importing the module stays cheap
        src = os.path.dirname(os.path.dirname(morseband.__file__))
        cached = ("c._pow10_table", "c._digit_texts", "c._build_parser", "s._signed_axes", "s._frame")
        built = " + ".join(f"{name}.cache_info().currsize" for name in cached)
        code = f"import morseband.cli as c, morseband.states as s, sys; sys.exit({built})"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
