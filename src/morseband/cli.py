"""Command-line front end.

Every command is a thin, deterministic wrapper over the library:
identical invocations produce byte-identical output (fixed float
formatting, fixed row and key order, no timestamps). Exit codes are
0 success, 1 verification failure (a failed ``verify`` suite, or a
degeneracy scan that disagrees with its divisor-pair census), 2
configuration error, 3 I/O error.

Tables honor --format csv|json; ``verify`` always emits JSON and
``export`` always emits CSV, since those are their defined shapes. Every
table is written from named column arrays, in either format, by one
vectorised field writer: each block of rows is laid out as a byte matrix
from a fixed line template and the columns' fields (``_table_output``).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import itertools
import json
import math
import operator
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import _ladder_table, algebra_grid
from .coherent import CoherentSpec, _closed_field, bg_measure_density, default_coherent_grid
from .errors import ConfigError, CrossCheckError, MorsebandError, RangeError
from .model import (
    DegeneracyTable,
    PhysParams,
    QuantumNumbers,
    _representable,
    degeneracy_scan,
    energy,
    landau_a0,
    landau_energy,
    landau_limit_error,
)
from .moments import moments_closed, moments_quadrature
from .quadrature import GridSpec
from .states import (
    LandauParams,
    _landau_asym_field,
    _landau_sym_field,
    default_grid,
    landau_box,
    wavefunction,
)
from .verify import SUITE_NAMES, resolve_tolerances, run_suite

__all__ = ["RunConfig", "main"]

_PARAM_KEYS = ("B0", "a0", "mu", "hbar", "c", "e")
_GRID_KEYS = ("x_min", "x_max", "nx", "ny")
_LIMIT_TARGETS = (0.25, 2.25, 6.25)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run inputs shared by all commands."""

    params: PhysParams
    grid: GridSpec | None
    tolerances: dict[str, float]
    output_format: str
    output_path: str | None


# ------------------------------------------------------------ formatting


def _fmt_float(v: float) -> str:
    return format(float(v), ".16e")


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


def _emit(cfg: RunConfig, blocks: Iterable[str]) -> None:
    """Write the text blocks in order to stdout, or to the --out file."""
    if cfg.output_path is None:
        for block in blocks:
            sys.stdout.write(block)
    else:
        with Path(cfg.output_path).open("w") as fh:
            fh.writelines(blocks)


def _density(values: np.ndarray) -> np.ndarray:
    """|v|^2 of every cell, bit for bit as ``abs(v) ** 2`` on one numpy scalar.

    On a whole array, ``np.abs`` of a complex value and ``** 2`` (a plain
    square) each differ from that scalar route in the last bit on some
    cells. ``np.hypot`` is the scalar modulus, and ``np.float_power``
    calls libm ``pow`` per element as the scalar power does. An
    overflowing cell comes out as inf.
    """
    with np.errstate(over="ignore"):
        return np.float_power(np.hypot(values.real, values.imag), 2)


def _printed_density(values: np.ndarray) -> np.ndarray:
    """The density a state-printing command prints, refused with RangeError
    before anything is written when any cell is not finite. A finite density
    bounds |v|, so the amplitudes printed beside it are finite too."""
    density = _density(values)
    if not np.all(np.isfinite(density)):
        raise RangeError(
            "|psi|^2 overflows on this grid and cannot be printed; shrink the "
            "window on the growing side"
        )
    return density


def _table_output(cfg: RunConfig, command: str, **tables: dict[str, np.ndarray]) -> None:
    """Write named tables of equal-length columns (an integer column is
    non-negative). CSV writes each table's header line and rows, a blank
    line between tables. JSON writes one object of the command name and
    each table as a list of row objects, keys sorted (see ``_json_rows``)."""
    if cfg.output_format == "json":
        members = {name: _json_rows(columns) for name, columns in tables.items()}
        _emit(cfg, _json_document({"command": [json.dumps(command)], **members}))
    else:
        texts = [_csv_table(columns) for columns in tables.values()]
        _emit(cfg, itertools.chain(texts[0], *(itertools.chain(["\n"], t) for t in texts[1:])))


# ---------------------------------------------------------------- config


def _parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object")
        booleans = sorted(key for key, value in data.items() if isinstance(value, bool))
        if booleans:
            raise ConfigError(f"config file {path!r}: {booleans} must be numbers, not booleans")
        return data
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        data[key.strip()] = value.strip()
    return data


def _grid_count(value) -> int:
    """nx or ny from a config: an int, its text, or a float of integral value."""
    count = int(value)
    if isinstance(value, float) and count != value:
        raise ValueError(f"grid sizes must be integers, got {value!r}")
    return count


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    mapping = _parse_config_file(args.config) if args.config else {}
    unknown = set(mapping) - set(_PARAM_KEYS) - set(_GRID_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    params = PhysParams.from_mapping({k: mapping[k] for k in _PARAM_KEYS if k in mapping})
    grid = None
    grid_map = {k: mapping[k] for k in _GRID_KEYS if k in mapping}
    if grid_map:
        if set(grid_map) != set(_GRID_KEYS):
            raise ConfigError(f"a grid needs all of {_GRID_KEYS}, got {sorted(grid_map)}")
        try:
            grid = GridSpec(
                x_min=float(grid_map["x_min"]),
                x_max=float(grid_map["x_max"]),
                nx=_grid_count(grid_map["nx"]),
                ny=_grid_count(grid_map["ny"]),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad grid values: {exc}") from exc
    overrides = {}
    for item in args.tol or ():
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            overrides[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tol {name.strip()}: not a number: {value!r}") from exc
    return RunConfig(
        params=params,
        grid=grid,
        tolerances=resolve_tolerances(overrides),
        output_format=args.format,
        output_path=args.out,
    )


# -------------------------------------------------------------- commands


def _cmd_spectrum(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {args.n_max}")
    if args.l_max is not None and args.l_max < 0:
        raise ConfigError(f"--l-max must be >= 0, got {args.l_max}")
    l_max = args.n_max - 1 if args.l_max is None else args.l_max
    table = degeneracy_scan(args.n_max)
    # each level's product and multiplicity in class order, then the
    # levels in (n, l) order up to l_max
    product = np.repeat(table.products, table.multiplicities)
    multiplicity = np.repeat(table.multiplicities, table.multiplicities)
    order = np.lexsort((table.l, table.n))
    order = order[table.l[order] <= l_max]
    l, n, product, multiplicity = (a[order] for a in (table.l, table.n, product, multiplicity))
    with np.errstate(over="ignore"):
        energies = _representable(product * cfg.params.energy_scale)
    _table_output(
        cfg,
        "spectrum",
        rows={
            "l": l,
            "n": n,
            "N": n - l - 1,
            "product": product,
            "energy": energies,
            "multiplicity": multiplicity,
        },
    )
    return 0


def _cmd_degeneracy(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {args.n_max}")
    table = degeneracy_scan(args.n_max)
    multiplicity, count = np.unique(table.multiplicities, return_counts=True)
    if cfg.output_format == "json":
        histogram = dict(zip(map(str, multiplicity.tolist()), count.tolist()))
        members = {
            "classes": _json_list(_class_blocks(table, "json")),
            "command": [json.dumps("degeneracy")],
            "histogram": [_json_text(histogram, 1)],
        }
        _emit(cfg, _json_document(members))
    else:
        histogram = _csv_table({"multiplicity": multiplicity, "count": count})
        head = ["\nproduct,multiplicity,states\n"]
        _emit(cfg, itertools.chain(histogram, head, _class_blocks(table, "csv")))
    return 0


def _cmd_wavefunction(args: argparse.Namespace, cfg: RunConfig) -> int:
    q = QuantumNumbers(args.l, args.n)
    grid = cfg.grid or default_grid(cfg.params)
    # only column 0 (y = -a0/2 on every grid) is printed: build the fewest columns
    s = wavefunction(q, cfg.params, dataclasses.replace(grid, ny=8))
    phase = cmath.exp(1j * args.n * cfg.params.kappa * s.y[0])
    column = s.values[:, 0]
    density = _printed_density(column)
    radial = (column * phase).real
    _table_output(
        cfg, "wavefunction", rows={"x": s.x, "radial": radial, "density": density, "weight": s.weight}
    )
    return 0


def _cmd_ladder_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.n_max < 1:
        raise ConfigError(f"--n-max must be >= 1, got {args.n_max}")
    p = cfg.params
    grid = cfg.grid or algebra_grid(p)
    if 2 * args.n_max >= grid.ny:
        # a level n >= ny/2 aliases: L3 and the y-derivatives of L+- read a lower frequency
        raise ConfigError(f"--n-max {args.n_max} needs ny > {2 * args.n_max}, got ny = {grid.ny}")
    rows = _ladder_table(p, grid, args.n_max)
    names = ("l", "n", "raise_defect", "lower_defect", "casimir_residual", "hamiltonian_residual")
    _table_output(cfg, "ladder-check", rows=dict(zip(names, map(np.array, zip(*rows)))))
    return 0


def _cmd_coherent(args: argparse.Namespace, cfg: RunConfig) -> int:
    z = complex(args.z_re, args.z_im)
    spec = CoherentSpec(args.l, z)
    grid = cfg.grid or default_coherent_grid(cfg.params)
    # only column 0 (y = -a0/2 on every grid) is printed: evaluate the fewest columns
    s = _closed_field(spec, cfg.params, dataclasses.replace(grid, ny=8))
    density = _printed_density(s.values[:, 0])
    r = np.arange(1, 101) / 10.0
    measure = bg_measure_density(args.l, r)
    _table_output(
        cfg,
        "coherent",
        state={"x": s.x, "density": density, "weight": s.weight},
        measure={"r": r, "measure_density": measure},
    )
    return 0


def _cmd_uncertainty(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.l_max < 0:
        raise ConfigError(f"--l-max must be >= 0, got {args.l_max}")
    p = cfg.params
    levels = [QuantumNumbers(l, l + 1 + N) for l in range(args.l_max + 1) for N in range(3)]
    closed, quadrature = np.array(
        [(moments_closed(q, p).delta, moments_quadrature(q, p, cfg.grid).delta) for q in levels]
    ).T / p.hbar**2
    N = np.array([q.N for q in levels])
    _table_output(
        cfg,
        "uncertainty",
        rows={
            "l": np.array([q.l for q in levels]),
            "N": N,
            "delta_closed": closed,
            "delta_quadrature": quadrature,
            "delta_limit_target": np.array(_LIMIT_TARGETS)[N],
        },
    )
    return 0


def _cmd_landau_limit(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        schedule = [int(part) for part in args.l_schedule.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--l-schedule must be comma-separated integers: {exc}") from exc
    if not schedule:
        raise ConfigError("--l-schedule must name at least one l")
    if args.N < 0:
        raise ConfigError(f"--N must be >= 0, got {args.N}")
    p = cfg.params
    a0 = [landau_a0(l, p) for l in schedule]
    e_model = [
        energy(QuantumNumbers(l, l + 1 + args.N), dataclasses.replace(p, a0=a))
        for l, a in zip(schedule, a0)
    ]
    _table_output(
        cfg,
        "landau-limit",
        rows={
            "l": np.array(schedule),
            "a0": np.array(a0),
            "energy_model": np.array(e_model),
            "energy_landau": np.full(len(schedule), landau_energy(args.N, p)),
            "rel_error": np.array([landau_limit_error(args.N, l, p) for l in schedule]),
            "predicted": (2.0 * args.N + 3.0) / (4.0 * np.array(schedule, dtype=float)),
        },
    )
    return 0


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    report = run_suite(args.suite, tolerances=cfg.tolerances)
    _emit(cfg, [_json_text(report) + "\n"])
    return 0 if report["passed"] else 1


def _export_state(args: argparse.Namespace, cfg: RunConfig):
    """The state ``export`` prints, its grid and its label line. The kinds
    known only on the grid come before their transform, whose cost the
    printed samples, the field's own, do not need."""
    p = cfg.params
    if args.kind == "eigen":
        grid = cfg.grid or default_grid(p)
        s = wavefunction(QuantumNumbers(args.l, args.n), p, grid)
        label = f"kind=eigen l={args.l} n={args.n}"
    elif args.kind == "coherent":
        grid = cfg.grid or default_coherent_grid(p)
        s = _closed_field(CoherentSpec(args.l, complex(args.z_re, args.z_im)), p, grid)
        label = f"kind=coherent l={args.l} z_re={args.z_re!r} z_im={args.z_im!r}"
    elif args.kind == "landau-sym":
        p_box, box = landau_box(LandauParams(gauge="symmetric", n=args.n, l=args.l), p, 1024, 256)
        grid = cfg.grid or box
        s = _landau_sym_field(args.n, args.l, p_box, grid)
        label = f"kind=landau-sym n={args.n} l={args.l}"
    else:
        lp = LandauParams(gauge="asymmetric", N=args.n, k_y=args.ky)
        p_box, box = landau_box(lp, p, 1024, 8)
        grid = cfg.grid or box
        s = _landau_asym_field(lp, p_box, grid)
        label = f"kind=landau-asym N={args.n} ky={args.ky!r}"
    return s, grid, label


# Decimal exponents E of the finite nonzero doubles run from -324 to 308.
_E_MIN, _E_MAX = -324, 308
_FIELD = 24  # the widest finite text of format(v, ".16e"): "-d.dddddddddddddddde-ddd"
_TIE_MARGIN = 2.0**-32
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit doubles
_BLOCK_LINES = 4096


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """10^(16-E) = (hi + lo) 2^exp for E in [_E_MIN, _E_MAX], hi in [1, 2):
    one row per E of hi, its Veltkamp halves (26 bits each) for the exact
    product in ``_scaled_digits``, and lo; and each exp, as int32.

    10^(16-E) is 5^k 2^k for k = 16 - E, and Python's int-to-float
    conversion and int true division are correctly rounded. For k >= 0, hi
    is 5^k rounded to a double and lo the remainder rounded to a double.
    For k < 0, 5^k = 1/q, and with s such that 2^s / q lies in (2^52, 2^53)
    hi is 2^s / q rounded to a double, an integer, and lo is (2^s - hi q) / q
    rounded to a double. Both are then scaled by one power of two.
    """
    fives = list(itertools.accumulate(itertools.repeat(5, 16 - _E_MIN), operator.mul, initial=1))
    whole = fives[::-1]  # 5^k for k = 16 - _E_MIN ... 0
    hi = list(map(float, whole))
    lo = list(map(float, map(operator.sub, whole, map(int, hi))))
    qs = fives[1 : _E_MAX - 15]  # q = 1 / 5^k for k = -1 ... 16 - _E_MAX
    s = [q.bit_length() + 52 for q in qs]
    tops = [1 << t for t in s]
    near = list(map(operator.truediv, tops, qs))
    hi += near
    lo += map(operator.truediv, map(operator.sub, tops, map(operator.mul, map(int, near), qs)), qs)
    _, shift = np.frexp(hi)
    shift -= 1
    hi, lo = np.ldexp(hi, -shift), np.ldexp(lo, -shift)
    big = hi * _SPLIT
    top = big - (big - hi)
    shift[len(whole) :] -= s
    exp = 16 - np.arange(_E_MIN, _E_MAX + 1, dtype=np.int32) + shift
    return np.stack((hi, top, hi - top, lo), axis=1), exp


@functools.cache
def _digit_texts() -> tuple[np.ndarray, ...]:
    """The pieces of a text as machine words, so that one store writes
    each, built from bytes so that they hold on either byte order: the
    lead digit and point, with no sign byte, a blank one and "-", as
    uint32 (the digits overwrite what follows the point); every 4-digit
    group "0000" to "9999" as uint32, and in the first and in the second
    half of a uint64; and "e-324" to "e+308", one per exponent, as the
    uint32 of a two-digit exponent and as the last five bytes of a uint64
    (zero-padded) whose first three bytes the digits overwrite."""
    heads = (b"%s%d." % (sign, d) for sign in (b"", b"\0", b"-") for d in range(10))
    heads = np.frombuffer(b"".join(h.ljust(4, b"\0") for h in heads), np.uint32)
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.broadcast_arrays(*np.ix_(ten, ten, ten, ten)), axis=-1).view(np.uint32).ravel()
    halves = np.zeros((2, 10**4, 2), np.uint32)
    halves[0, :, 0] = halves[1, :, 1] = quads
    firsts, seconds = halves.view(np.uint64)[..., 0]
    for words in (quads, firsts, seconds):
        words.setflags(write=False)
    tails = [b"e%+03d" % E for E in range(_E_MIN, _E_MAX + 1)]
    short = np.frombuffer(b"".join(t[:4] for t in tails), np.uint32)
    long = np.frombuffer(b"".join(b"\0\0\0" + t.ljust(5, b"\0") for t in tails), np.uint64)
    return heads, quads, firsts, seconds, short, long


def _scaled_digits(m: np.ndarray, e: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(D) and D - floor(D) for D = m 2^e 10^(16-E), m in [1/2, 1),
    from the rows of ``_pow10_table`` for E (int32, clipped to the table)."""
    table, exps = _pow10_table()
    at = E - _E_MIN
    hi, top, bot, lo = np.take(table, at, axis=0, mode="clip").T
    prod = m * hi
    big = m * _SPLIT
    m_top = big - (big - m)
    m_bot = m - m_top
    # Dekker's two-product: prod + tail == m * hi exactly
    tail = m_top * top
    tail -= prod
    tail += m_top * bot
    tail += m_bot * top
    tail += m_bot * bot
    tail += m * lo
    # times 2^(e+exp), a normal double as D < 2^57: exact
    scale = np.ldexp(1.0, e + np.take(exps, at, mode="clip"))
    prod *= scale
    tail *= scale
    whole = np.floor(prod)
    tail += prod - whole
    step = np.floor(tail)
    tail -= step
    whole = whole.astype(np.int64)
    whole += step.astype(np.int64)
    return whole, tail


class _E17:
    """The texts ``format(v, ".16e")`` writes for a block of floats, held
    as machine words until ``write`` stores them in a byte matrix.

    With |v| = m 2^e, m in [1/2, 1), and E = floor(log10 |v|), D = |v|
    10^(16-E) is m (hi + lo) 2^(e+exp) from the table. Dekker's
    two-product gives m hi exactly, and what is left out is at most
    2^-105 2^(e+exp): m times lo's own rounding error (2^-107), the
    rounding of m lo (2^-107) and of the tail sum (2^-106). As m hi
    2^(e+exp) = D < 2^57 with m hi >= 1/2, the computed D is within 2^-47
    of the exact one, and its floor and fraction are taken without further
    rounding. The rounding of D is proven wherever its fraction is more
    than ``_TIE_MARGIN`` = 2^-32 from 1/2, 2^15 times the error. The text
    is then right when floor(D) >= 10^16 and round(D) <= 10^17, a
    round(D) of 10^17 carrying into the exponent: floor(D) >= 10^16 rules
    out an E one too high, and with E one too low round(D) = 10^17 is the
    carry the true E would give. Where either bound fails, E is moved by
    one and D taken again. The other cells, exact ties such as 1 + 2^-17
    among them, non-finite cells, and any cell whose moved E still fails,
    are written by ``format(v, ".16e")`` itself, which defines the text;
    with quote, a non-finite cell's text is written as a JSON string.

    ``width`` is the narrowest field that holds every text: 22 bytes, one
    more for a sign byte if some cell is negative, and one more if some
    text has a three-digit exponent.
    """

    def __init__(self, v, quote: bool = False) -> None:
        v = np.asarray(v, dtype=float)
        flat = v.ravel()
        a = np.abs(flat)
        finite = np.isfinite(a)
        nonzero = finite & (a > 0.0)
        a[~nonzero] = 1.0
        m, e = np.frexp(a)
        E = np.floor(np.log10(a)).astype(np.int32)
        whole, frac = _scaled_digits(m, e, E)
        digits = whole + (frac > 0.5)
        unproven = (whole < 10**16) | (digits > 10**17)
        off = np.flatnonzero(unproven)
        if off.size:
            E[off] += np.where(whole[off] < 10**16, -1, 1)
            whole[off], frac[off] = _scaled_digits(m[off], e[off], E[off])
            digits[off] = whole[off] + (frac[off] > 0.5)
            unproven[off] = (whole[off] < 10**16) | (digits[off] > 10**17)
        frac -= 0.5
        unproven |= np.abs(frac) <= _TIE_MARGIN
        carry = digits == 10**17
        digits[carry] = 10**16
        E += carry
        digits[~nonzero] = 0
        E[~nonzero] = 0

        self.shape = v.shape
        self.special = np.flatnonzero(~finite | unproven)
        self.texts = []
        for i in self.special:
            text = format(float(flat[i]), ".16e").encode()
            if quote and not finite[i]:
                text = b'"' + text + b'"'
            self.texts.append(text)
        negative = np.signbit(flat)
        self.signed = bool(negative.any())
        wide = E.size and (E.min() <= -100 or E.max() >= 100)
        self.wide = bool(wide or any(len(t) - t.startswith(b"-") > 22 for t in self.texts))
        self.width = 22 + self.signed + self.wide
        self.exponent = E - _E_MIN
        # the lead digit, then the 16 digits after it as two 8-digit and
        # four 4-digit groups in int32
        upper = digits // 10**8
        groups = np.empty((flat.size, 2), np.int32)
        groups[:, 1] = digits - upper * 10**8
        upper = upper.astype(np.int32)
        lead = upper // 10**8
        groups[:, 0] = upper - lead * 10**8
        # heads[head] is the lead digit and point, heads[head + 10] the same after a sign byte
        self.head = lead + 10 * negative
        top = groups // 10**4
        groups -= top * 10**4
        _, _, firsts, seconds, _, _ = _digit_texts()
        self.words = np.take(firsts, top)
        self.words |= np.take(seconds, groups)

    def write(self, out: np.ndarray | None = None) -> np.ndarray:
        """Store every text in its field of ``width`` bytes, the last axis
        of ``out`` (by default, a new matrix of such fields), and return
        ``out``. A text is left-aligned after the sign byte, if the field
        has one, which a negative text starts on; the bytes a text leaves
        are zero."""
        if out is None:
            out = np.empty(self.shape + (self.width,), np.uint8)
        heads, _, _, _, short, long = _digit_texts()
        shape, s = self.shape, int(self.signed)

        def store(at: int, words: np.ndarray) -> None:
            """One machine word per cell, at byte ``at`` of its field."""
            out[..., at : at + words.itemsize].view(words.dtype)[..., 0] = words.reshape(shape)

        store(0, np.take(heads, self.head + 10 * s, mode="clip"))
        if self.wide:  # before the digits, which overwrite its first three bytes
            store(s + 15, np.take(long, self.exponent, mode="clip"))
        else:
            store(s + 18, np.take(short, self.exponent, mode="clip"))
        store(s + 2, self.words.view("V16")[:, 0])
        for i, text in zip(self.special, self.texts):
            field = out[np.unravel_index(i, shape)]
            field[:] = 0
            at = s - text.startswith(b"-")
            field[at : at + len(text)] = np.frombuffer(text, np.uint8)
        return out


def _int_fields(v: np.ndarray) -> np.ndarray:
    """The decimal text of every non-negative integer of a 1-d array, one
    uint8 row each, right-aligned in the width of the largest; the leading
    zero digits are zero bytes."""
    width = len(str(int(v.max(initial=0))))
    groups = np.empty((v.size, -(-width // 4)), v.dtype)  # 4-digit groups, the last one lowest
    rest = v
    for j in range(groups.shape[1] - 1, 0, -1):
        rest, groups[:, j] = np.divmod(rest, 10**4)
    groups[:, 0] = rest
    digits = np.take(_digit_texts()[1], groups).view(np.uint8)[:, 4 * groups.shape[1] - width :]
    powers = 10 ** np.arange(width - 1, 0, -1, dtype=v.dtype)
    digits[:, :-1][v[:, None] < powers] = 0
    return digits


def _text(slots: np.ndarray) -> str:
    """The bytes of a zero-padded byte matrix with the pad bytes deleted.

    ``bytes.replace`` costs about 20 ns per pad byte and ``bytes.translate``
    about 1.2 ns per byte, so the first is taken where at most one byte in
    16 of the matrix's first 4 KiB is a pad (the narrow fields of ``_E17``
    leave few: 2.5 in a line of about 140 bytes on the default coherent
    export, each the sign byte of a cell or y that is not negative), the
    second where pads are denser (the blank class heads of
    ``_class_blocks``).
    """
    sample = slots.reshape(-1)[:4096]
    data = slots.tobytes()
    if 16 * (sample.size - np.count_nonzero(sample)) <= sample.size:
        return data.replace(b"\0", b"").decode("ascii")
    return data.translate(None, b"\0").decode("ascii")


def _filled(template: list, columns: dict[str, np.ndarray], quote: bool = False) -> np.ndarray:
    """One zero-padded line of bytes per row: the template's literals
    (bytes, the same on every line) and the fields of its named columns
    (str) side by side, a float column's in the narrowest field that holds
    them (``_E17``; with quote, a non-finite value as a JSON string), an
    integer column's (non-negative) as ``_int_fields`` writes them."""
    parts = [
        np.frombuffer(part, np.uint8) if isinstance(part, bytes)
        else _E17(columns[part], quote) if columns[part].dtype.kind == "f"
        else _int_fields(columns[part])
        for part in template
    ]
    widths = [part.width if isinstance(part, _E17) else part.shape[-1] for part in parts]
    out = np.empty((len(next(iter(columns.values()))), sum(widths)), np.uint8)
    for part, end, width in zip(parts, itertools.accumulate(widths), widths):
        if isinstance(part, _E17):
            part.write(out[:, end - width : end])
        else:
            out[:, end - width : end] = part
    return out


def _table_blocks(template: list, columns: dict[str, np.ndarray], quote: bool = False) -> Iterator[str]:
    """The text of every row of equal-length columns laid out by a
    template (see ``_filled``), ``_BLOCK_LINES`` rows to a block, so the
    byte matrices stay small beside the text already written."""
    n = len(next(iter(columns.values())))
    for i in range(0, n, _BLOCK_LINES):
        block = {name: c[i : i + _BLOCK_LINES] for name, c in columns.items()}
        yield _text(_filled(template, block, quote))


def _csv_table(columns: dict[str, np.ndarray]) -> Iterator[str]:
    """A CSV table: the header line of the column names, then one line per row."""
    template = []
    for name in columns:
        template += [name, b","]
    template[-1] = b"\n"
    yield ",".join(columns) + "\n"
    yield from _table_blocks(template, columns)


def _json_list(items: Iterator[str]) -> Iterator[str]:
    """A list at depth 1 of a JSON document, from the text blocks of its
    items, each item followed by a comma; the last item's is dropped."""
    held = next(items, None)
    if held is None:
        yield "[]"
        return
    yield "["
    for block in items:
        yield held
        held = block
    yield held[:-1] + "\n  ]"


def _json_rows(columns: dict[str, np.ndarray]) -> Iterator[str]:
    """The rows of equal-length columns as a list of JSON objects at depth 1,
    laid out as ``_json_text`` lays it out: keys sorted, two-space indent,
    and a non-finite float as the string "inf", "-inf" or "nan"."""
    template = [b"\n    {"]
    for key in sorted(columns):
        template += [f"\n      {json.dumps(key)}: ".encode(), key, b","]
    template[-1] = b"\n    },"
    return _json_list(_table_blocks(template, columns, quote=True))


def _json_document(members: dict[str, Iterable[str]]) -> Iterator[str]:
    """A JSON object laid out as ``_json_text`` lays it out, keys sorted,
    each member's value given as its text blocks, and a final newline."""
    lead = "{"
    for key in sorted(members):
        yield f"{lead}\n  {json.dumps(key)}: "
        yield from members[key]
        lead = ","
    yield "\n}\n"


# A degeneracy class is written one level per line of bytes: the class's
# head on its first level, the level, and one of two endings, the second
# on its last level. Templates as in ``_filled``.
_CLASS_LAYOUTS = {
    "csv": (["product", b",", "multiplicity", b","], ["l", b":", "n"], (b";", b"\n")),
    "json": (
        [
            b'\n    {\n      "multiplicity": ', "multiplicity",
            b',\n      "product": ', "product", b',\n      "states": [',
        ],
        [b"\n        [\n          ", "l", b",\n          ", "n", b"\n        ]"],
        (b",", b"\n      ]\n    },"),
    ),
}


def _class_blocks(table: DegeneracyTable, form: str) -> Iterator[str]:
    """Every degeneracy class, ``_BLOCK_LINES`` levels to a text block: in
    CSV one line ``product,multiplicity,l:n;l:n;...`` per class, in JSON
    the items of the ``classes`` list (for ``_json_list``), each an object
    of product, multiplicity and the [l, n] pairs of its states."""
    head, level, endings = _CLASS_LAYOUTS[form]
    width = max(map(len, endings))
    endings = np.frombuffer(b"".join(e.ljust(width, b"\0") for e in endings), np.uint8)
    endings = endings.reshape(2, width)
    ends = np.cumsum(table.multiplicities)
    starts = ends - table.multiplicities
    is_last = np.zeros(len(table.l), np.intp)
    is_last[ends - 1] = 1
    for a in range(0, len(table.l), _BLOCK_LINES):
        b = min(a + _BLOCK_LINES, len(table.l))
        opened = slice(*np.searchsorted(starts, (a, b)))
        classes = {"product": table.products[opened], "multiplicity": table.multiplicities[opened]}
        heads = _filled(head, classes)
        leads = np.zeros((b - a, heads.shape[1]), np.uint8)
        leads[starts[opened] - a] = heads
        levels = _filled(level, {"l": table.l[a:b], "n": table.n[a:b]})
        yield _text(np.hstack((leads, levels, endings[is_last[a:b]])))


def _trimmed(fields: np.ndarray) -> np.ndarray:
    """Rows of ``_E17`` fields less their first and their last column
    where that column is pad on every row: the sign column where no value
    is negative, the third exponent digit where no exponent needs one."""
    return fields[:, (not fields[:, 0].any()) : fields.shape[1] - (not fields[:, -1].any())]


def _export_rows(
    values: np.ndarray, density: np.ndarray, x: np.ndarray, y: np.ndarray, weight: np.ndarray
) -> Iterator[str]:
    """The CSV data lines of a sampled field and its density (``_density``
    of every cell), one text block per run of x rows.

    Every number reads as ``format(v, ".16e")`` would write it, byte for
    byte (see ``_E17``). A block is a byte matrix with one line per (x, y)
    cell. The x, y and weight fields are formatted once per export, and a
    block takes its own rows' x and weight fields less the columns that are
    pad on all of them (``_trimmed``). The cells' amplitudes and density
    are written in place, in the narrowest fields that hold the block's
    texts, so that few pad bytes are left for ``_text`` to delete. A block
    holds about ``_BLOCK_LINES`` lines, so its temporaries stay small
    beside the text already written. One buffer serves every block, and
    its separators and y fields are written again only when the x, cell or
    weight field width changes.
    """
    nx, ny = values.shape
    rows = max(1, min(_BLOCK_LINES // ny, nx))
    x, y, weight = (_E17(a).write() for a in (x, y, weight))
    buffer = np.empty(rows * ny * 6 * (_FIELD + 1), np.uint8)
    laid = None
    for i in range(0, nx, rows):
        n = min(rows, nx - i)
        cells = values[i : i + n]
        cells = _E17(np.stack((cells.real, cells.imag, density[i : i + n]), axis=-1))
        xs, ws = _trimmed(x[i : i + n]), _trimmed(weight[i : i + n])
        # x "," y, then "," and a cell's field three times, then "," weight "\n"
        at = xs.shape[1] + 1 + y.shape[1]
        end = at + 3 * (cells.width + 1)
        lines = buffer[: rows * ny * (end + ws.shape[1] + 2)].reshape(rows, ny, -1)
        widths = (xs.shape[1], cells.width, ws.shape[1])
        if widths != laid:
            lines[:, :, xs.shape[1]] = ord(",")
            lines[:, :, xs.shape[1] + 1 : at] = y
            lines[:, :, at : end + 1 : cells.width + 1] = ord(",")
            lines[:, :, -1] = ord("\n")
            laid = widths
        block = lines[:n]
        block[:, :, : xs.shape[1]] = xs[:, None]
        cells.write(block[:, :, at:end].reshape(n, ny, 3, cells.width + 1)[..., 1:])
        block[:, :, end + 1 : -1] = ws[:, None]
        yield _text(block)


def _cmd_export(args: argparse.Namespace, cfg: RunConfig) -> int:
    s, grid, label = _export_state(args, cfg)
    values = s.values
    density = _printed_density(values)  # refuses an overflowing state before anything is written
    p = cfg.params
    header = [
        f"# morseband-{__version__}",
        f"# {label}",
        "# " + " ".join(f"{k}={_fmt_float(getattr(p, k))}" for k in _PARAM_KEYS),
        f"# grid x_min={_fmt_float(grid.x_min)} x_max={_fmt_float(grid.x_max)}"
        f" nx={grid.nx} ny={grid.ny}",
        "x,y,re_psi,im_psi,density,weight",
    ]
    _emit(cfg, itertools.chain(["\n".join(header) + "\n"], _export_rows(values, density, s.x, s.y, s.weight)))
    return 0


# ----------------------------------------------------------------- parser


# a negative number, exponent notation included: argparse's own pattern
# (-d and -d.d only) takes "--z-im -1e-3" for an option with no value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, taking every negative number as a value; its
    subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: a process
    that calls ``main`` many times builds it once, and importing the
    module builds nothing."""
    parser = _Parser(
        prog="morseband",
        description="Closed-form and numerical checks for an electron band "
        "in an exponentially decaying magnetic field.",
    )
    parser.add_argument("--version", action="version", version=f"morseband {__version__}")
    parser.add_argument("--config", metavar="PATH", help="key=value or JSON parameter file")
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="table output format (verify is always JSON, export always CSV)",
    )
    parser.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    parser.add_argument(
        "--tol",
        metavar="NAME=VALUE",
        action="append",
        help="override a named verification tolerance (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("spectrum", help="levels, integer products, and degeneracies")
    cmd.add_argument("--l-max", type=int, default=None)
    cmd.add_argument("--n-max", type=int, default=6)

    cmd = sub.add_parser("degeneracy", help="multiplicity histogram and classes")
    cmd.add_argument("--n-max", type=int, default=100)

    cmd = sub.add_parser("wavefunction", help="x-profile of one eigenstate")
    cmd.add_argument("--l", type=int, default=0)
    cmd.add_argument("--n", type=int, default=1)

    cmd = sub.add_parser("ladder-check", help="ladder and commutator residual table")
    cmd.add_argument("--n-max", type=int, default=4)

    cmd = sub.add_parser("coherent", help="coherent-state density and measure profile")
    cmd.add_argument("--l", type=int, default=0)
    cmd.add_argument("--z-re", type=float, default=1.0)
    cmd.add_argument("--z-im", type=float, default=0.0)

    cmd = sub.add_parser("uncertainty", help="closed vs quadrature uncertainty table")
    cmd.add_argument("--l-max", type=int, default=4)

    cmd = sub.add_parser("landau-limit", help="flat-field limit of the level energies")
    cmd.add_argument("--N", type=int, default=0)
    cmd.add_argument("--l-schedule", default="10,100,1000,10000")

    cmd = sub.add_parser("verify", help="run a named invariant suite")
    cmd.add_argument(
        "--suite",
        choices=SUITE_NAMES + ("all",),
        default="all",
    )

    cmd = sub.add_parser("export", help="full sampled state as CSV")
    cmd.add_argument(
        "--kind",
        choices=("eigen", "coherent", "landau-sym", "landau-asym"),
        default="eigen",
    )
    cmd.add_argument("--l", type=int, default=0)
    cmd.add_argument("--n", type=int, default=1, help="n for eigen/landau-sym, N for landau-asym")
    cmd.add_argument("--z-re", type=float, default=0.0)
    cmd.add_argument("--z-im", type=float, default=0.0)
    cmd.add_argument("--ky", type=float, default=0.0)
    return parser


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "degeneracy": _cmd_degeneracy,
    "wavefunction": _cmd_wavefunction,
    "ladder-check": _cmd_ladder_check,
    "coherent": _cmd_coherent,
    "uncertainty": _cmd_uncertainty,
    "landau-limit": _cmd_landau_limit,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_run_config(args)
        return _HANDLERS[args.command](args, cfg)
    except CrossCheckError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1
    except MorsebandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
