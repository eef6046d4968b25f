"""The CLI contract on arbitrary requests: every run ends in exit 0 with
finite, parseable output, or in exit 2 with nothing written, and never in
a traceback or a numpy warning.

The property test draws a command, a format, an output target and an
optional --config whose parameters span 1e-200..1e200 and whose window
lies anywhere in x in [-720/kappa, 400/kappa]; the explicit tests pin
the requests that once ended in a traceback or printed inf or nan.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseband.cli import main

# a decade anywhere in the domain, or near 1, where most derived scales stay finite
_MAGNITUDE = (st.floats(-200.0, 200.0) | st.floats(-2.0, 2.0)).map(lambda k: 10.0**k)


@st.composite
def _configs(draw):
    """key=value or JSON config text: any subset of the parameters, and a
    window in units of 1/kappa of those parameters, or none."""
    params = {
        name: draw(_MAGNITUDE)
        for name in ("B0", "a0", "mu", "hbar", "c", "e")
        if draw(st.booleans())
    }
    if "e" in params:
        params["e"] = -params["e"]
    entries = dict(params)
    if draw(st.integers(0, 3)):
        kappa = 2.0 * math.pi / params.get("a0", 2.0 * math.pi)
        lo, hi = sorted(draw(st.lists(st.floats(-720.0, 400.0), min_size=2, max_size=2, unique=True)))
        entries.update(
            x_min=lo / kappa,
            x_max=hi / kappa,
            nx=draw(st.integers(8, 1024)),
            ny=draw(st.sampled_from((8, 12, 16, 64))),
        )
    if draw(st.booleans()):
        return "config.json", json.dumps(entries)
    return "config.cfg", "".join(f"{k}={v!r}\n" for k, v in entries.items())


_COMMANDS = st.one_of(
    st.tuples(st.just("ladder-check"), st.just("--n-max"), st.sampled_from(("1", "2"))),
    st.tuples(st.just("uncertainty"), st.just("--l-max"), st.sampled_from(("0", "1", "2"))),
    st.builds(
        lambda l, n: ("wavefunction", "--l", str(l), "--n", str(n)), st.integers(0, 3), st.integers(1, 6)
    ),
    st.builds(lambda n: ("spectrum", "--n-max", str(n)), st.integers(1, 8)),
    st.builds(
        lambda l, re, im: ("coherent", "--l", str(l), "--z-re", repr(re), "--z-im", repr(im)),
        st.integers(0, 3),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
    ),
    st.builds(
        lambda N, ls: ("landau-limit", "--N", str(N), "--l-schedule", ",".join(map(str, ls))),
        st.integers(0, 3),
        st.lists(st.integers(1, 10000), min_size=1, max_size=4),
    ),
)


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run, any warning raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _numbers(text: str, fmt: str) -> list[float]:
    """Every number written in a CSV or JSON table, parsed; a non-finite
    value is written as the text inf, -inf or nan in either format."""
    if fmt == "json":
        found = []

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            elif isinstance(node, (int, float)):
                found.append(float(node))
            elif node in ("inf", "-inf", "nan"):
                found.append(float(node))

        walk(json.loads(text))
        return found
    found = []
    for line in text.splitlines():
        for cell in line.split(","):
            try:
                found.append(float(cell))
            except ValueError:
                pass
    return found


def _check_contract(argv: list[str], config: tuple[str, str] | None, fmt: str, to_file: bool) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "table.out"
        head = ["--format", fmt]
        if config is not None:
            name, text = config
            (Path(tmp) / name).write_text(text)
            head += ["--config", str(Path(tmp) / name)]
        if to_file:
            head += ["--out", str(target)]
        code, out, err = _run(head + argv)
        assert code in (0, 2), err
        if code == 2:
            assert out == "" and not target.exists()
            return code
        text = target.read_text() if to_file else out
        numbers = _numbers(text, fmt)
        assert numbers and all(map(math.isfinite, numbers))
        return code


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    command=_COMMANDS,
    config=st.none() | _configs(),
    fmt=st.sampled_from(("csv", "json")),
    to_file=st.booleans(),
)
def test_every_request_exits_0_with_finite_output_or_2_with_none(command, config, fmt, to_file):
    _check_contract(list(command), config, fmt, to_file)


# requests that ended in a traceback, a warning or a non-finite number
_REFUSED = {
    # windows where every state of the family underflows: left of the
    # weight's double-exponential cliff, and right where the l = 1
    # density underflows though the weight is positive
    "ladder-dead-left": ("x_min=-260.8\nx_max=-250.9\nnx=17\nny=8\n", ["ladder-check", "--n-max", "1"]),
    "ladder-dead-right": ("x_min=300\nx_max=400\nnx=64\nny=8\n", ["ladder-check", "--n-max", "2"]),
    "uncertainty-dead-left": ("x_min=-155.8\nx_max=-98.4\nnx=1001\nny=64\n", ["uncertainty", "--l-max", "0"]),
    "uncertainty-dead-right": ("x_min=300\nx_max=400\nnx=1001\nny=16\n", ["uncertainty", "--l-max", "1"]),
    # parameters whose derived scales are not finite positive doubles
    "a0-squared-overflows": ("a0=1e300\n", ["spectrum"]),
    "energies-overflow": ("mu=1e-320\n", ["spectrum", "--n-max", "2"]),
    "energy-scale-underflows": ("hbar=1e-200\n", ["uncertainty", "--l-max", "0"]),
    "beta-overflows": ("c=1e-320\n", ["spectrum"]),
    "beta-underflows": ("c=5.1e135\na0=7.9e-156\n", ["wavefunction"]),
    # xi = e^(kappa x) overflows on the whole window
    "xi-overflows": (
        "a0=1.11e-05\nx_min=28.95\nx_max=30.02\nnx=1024\nny=16\n",
        ["wavefunction", "--l", "1", "--n", "2"],
    ),
}


@pytest.mark.parametrize("name", sorted(_REFUSED))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_refused_with_exit_2_and_nothing_written(name, fmt):
    config, argv = _REFUSED[name]
    assert _check_contract(argv, ("config.cfg", config), fmt, to_file=True) == 2
    assert _check_contract(argv, ("config.cfg", config), fmt, to_file=False) == 2


def test_derived_scale_is_named_in_the_refusal():
    # c = 1e-320 overflows beta; the refusal names beta, not the window
    # that the infinite weight mode would give
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cfg"
        path.write_text("c=1e-320\n")
        for argv in (["spectrum"], ["wavefunction"]):
            code, out, err = _run(["--config", str(path)] + argv)
            assert code == 2 and out == ""
            assert "beta" in err
