"""The morseband benchmark: one command, one workload per invocation.

    python3 bench/run.py --workload check-commands --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed). This process measures set-up time in
fresh interpreters, starts ``worker.py`` for the timed rounds, checks
every output with the benchmark's own code, compares output digests
across rounds and with earlier runs of the same source, and prints every
metric by name with its unit and better direction. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.

Every request's time is divided by the host's slowdown at that moment,
measured by the reference kernels timed next to it (see ``reference.py``);
the raw seconds are printed beside them. With
``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1`` an
untraced round and a traced round run, and the metrics are the per-layer
ones. See README.md for every metric.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child, so
# the program runs on one thread and leaves the host's other vCPU idle.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "MORSEBAND_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import invariants  # noqa: E402
import tracing  # noqa: E402
from tracing import median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("min_margin_dec", "decades", "higher"),
)

SETUP_PROBE = "import time; t = time.perf_counter(); import morseband.cli; print(time.perf_counter() - t)"


class BenchError(Exception):
    """The benchmark itself could not run (not a failure of the package)."""


# A request's slowdown is the mean of the NEIGHBOURS measurements taken
# just before it and the NEIGHBOURS just after (fewer at a round's ends):
# one measurement is a point sample of a speed that jitters, while the
# drift it corrects lasts seconds.
NEIGHBOURS = 2


def normalized(seconds: float, slowdowns: list[float]) -> float:
    """``seconds`` at the reference speed, given the host's slowdowns
    measured around them."""
    return seconds * len(slowdowns) / sum(slowdowns)


# ------------------------------------------------------------------ facts


def source_files() -> list[Path]:
    return sorted((SRC / "morseband").glob("*.py"))


def source_id() -> str:
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def machine_facts(env: dict) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = [line for path in source_files() for line in path.read_text().splitlines()]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_id": source_id(),
        "thread_pins": {k: env[k] for k in THREAD_PINS},
        "source_lines": len(lines),
        "source_lines_nonblank": sum(1 for line in lines if line.strip()),
    }


# -------------------------------------------------------------- the store


class Store:
    """Output digests of earlier runs in this checkout, keyed by source id,
    so determinism is checked across runs of one commit and never across
    commits."""

    def __init__(self, path: Path, source: str):
        self.path = path
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}
        self.mine = self.data.setdefault(source, {})
        self.mismatches = 0

    def same_digest(self, key: str, digest: str) -> bool:
        """Record a digest; False when an earlier run recorded another one."""
        known = self.mine.setdefault(key, digest)
        self.mismatches += known != digest
        return known == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        tmp.replace(self.path)


# ---------------------------------------------------------------- running


def _remaining(start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        raise BenchError(f"out of time: the run exceeded {DEADLINE_S:.0f} s")
    return left


def run_child(label: str, cmd: list[str], env: dict, start: float) -> str:
    """Run a child in its own process group and return its stdout. On any
    way out (error, timeout, interrupt) the whole group is killed and
    reaped before this returns or raises."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=_remaining(start))
    except BaseException as exc:
        _kill_group(proc)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"out of time: the run exceeded {DEADLINE_S:.0f} s") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"{label} exited with {proc.returncode}:\n{err[-4000:]}")
    return out


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    # the worker's forked round, if any, was in the same group; give it a
    # moment to be gone
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def measure_setup(env: dict, start: float) -> list[float]:
    """Import times of ``morseband.cli`` in fresh interpreters, one per probe."""
    return [
        float(run_child("the set-up probe", [sys.executable, "-c", SETUP_PROBE], env, start))
        for _ in range(SETUP_PROBES)
    ]


def run_rounds(workload: str, seed: int, seconds: int, trace: bool, env: dict, start: float) -> tuple[list[dict], Path]:
    out_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--out", str(out_dir),
    ]
    run_child("the worker", cmd, env, start)
    rounds = []
    while (out_dir / f"round-{len(rounds)}.json").is_file():
        rounds.append(json.loads((out_dir / f"round-{len(rounds)}.json").read_text()))
    if not rounds:
        raise BenchError("the worker wrote no round")
    return rounds, out_dir


# --------------------------------------------------------------- checking


def check_outputs(workload: str, rounds: list[dict], out_dir: Path, store: Store) -> dict:
    """Checks round 0's outputs with the benchmark's invariants and every
    round's digests against round 0 and earlier runs of this source.
    Every request of every round is one attempted operation."""
    first = rounds[0]["requests"]
    standing = []  # per request: problems that hold in every round
    residuals = []
    verify_margins = {}
    for req in first:
        argv = req["argv"]
        problems = []
        if not store.same_digest(f"{workload}:{json.dumps(argv)}", req["sha256"]):
            problems.append("output differs from an earlier run of this source")
        path = out_dir / req["file"]
        if req["error"] is None and req["rc"] == 0:
            try:
                found = invariants.check(argv, path.read_text())
            except (invariants.Invalid, ValueError, KeyError, IndexError) as exc:
                problems.append(f"invalid output: {type(exc).__name__}: {exc}")
            else:
                for name, measured, tol in found:
                    if not measured <= tol:
                        problems.append(f"{name} = {measured:.3e} exceeds {tol:.0e}")
                command, _, opts = invariants.parse_args(argv)
                if command in invariants.REPORTED_RESIDUALS:
                    residuals.extend(found)
                if command == "verify":
                    verify_margins.update({name: tracing.check_margin(m, t) for name, m, t in found})
        path.unlink()
        standing.append(problems)
    failed, notes, unstable = 0, [], 0
    for r, rnd in enumerate(rounds):
        for i, req in enumerate(rnd["requests"]):
            problems = list(standing[i])
            if req["error"]:
                problems.append(f"raised {req['error'].strip().splitlines()[-1]}")
            elif req["rc"] != 0:
                problems.append(f"exit code {req['rc']}: {req['stderr'].strip()[-200:]}")
            if req["sha256"] != first[i]["sha256"]:
                problems.append("output differs from round 0 of this run")
                unstable += 1
            if problems:
                failed += 1
                if r == 0 or problems != standing[i]:
                    notes.append(f"round {r}: {' '.join(req['argv'])}: {'; '.join(problems)}")
    return {
        "attempted": sum(len(rnd["requests"]) for rnd in rounds),
        "failed": failed,
        "notes": notes,
        "unstable": unstable,
        "margins": [tracing.check_margin(measured, tol) for _, measured, tol in residuals],
        "verify_margins": verify_margins,
    }


# ---------------------------------------------------------------- metrics


def round_times(rnd: dict) -> tuple[list[float], float]:
    """(normalized time of each request, raw wall time of the round)."""
    slow = rnd["slowdowns"]  # slow[i] and slow[i + 1] bracket request i
    walls = [req["wall_s"] for req in rnd["requests"]]
    norm = [
        normalized(w, slow[max(0, i + 1 - NEIGHBOURS) : i + 1 + NEIGHBOURS]) for i, w in enumerate(walls)
    ]
    return norm, sum(walls)


def end_to_end(rounds: list[dict], checked: dict, setup: list[float], lines: list[str]) -> dict:
    per_round = [round_times(rnd) for rnd in rounds]
    by_request = list(zip(*(norm for norm, _ in per_round)))
    attempted, failed = checked["attempted"], checked["failed"]
    values = {
        "setup_s": median(setup),
        "wall_s": sum(median(times) for times in by_request),
        "peak_rss_mb": median([rnd["peak_rss_mb"] for rnd in rounds]),
        "ok_frac": (attempted - failed) / attempted,
        "min_margin_dec": min(checked["margins"], default=-tracing.MARGIN_CAP_DEC),
    }
    for name, unit, better in END_TO_END:
        lines.append(f"{name:<16} {values[name]:>14.6g} {unit:<8} ({better} is better)")
    slow = [s for rnd in rounds for s in rnd["slowdowns"]]
    lines += [
        f"  setup_s: median of {len(setup)} imports",
        f"  wall_s: sum over {len(by_request)} requests of each one's median normalized time over "
        f"{len(rounds)} rounds (raw round wall: median {median([raw for _, raw in per_round]):.4f} s)",
        f"  host slowdown: median {median(slow):.4f}, from {min(slow):.4f} to {max(slow):.4f} "
        f"over {len(slow)} measurements",
        f"  peak_rss_mb: median over rounds; ok_frac: {attempted - failed} of {attempted} requests "
        f"({len(by_request)} per round)",
    ]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(rounds: list[dict], checked: dict, out_dir: Path, lines: list[str]) -> dict:
    untraced, traced = rounds
    layer = dict(traced["layer"])
    for name in tracing.CHECKS:
        layer[f"verify.margin_dec.{name}"] = checked["verify_margins"].get(name, 0.0)
    ms = [1000.0 * r["wall_s"] for r in traced["requests"]]
    tail = tracing.tail_percentile(ms)
    layer["cli.bytes_out"] = float(sum(r["bytes"] for r in traced["requests"]))
    layer["cli.request_p50_ms"] = median(ms)
    layer["cli.request_tail_ms"] = tail[1] if tail else 0.0
    (norm_untraced, raw_untraced), (norm_traced, _) = round_times(untraced), round_times(traced)
    layer["trace.overhead_s"] = sum(norm_traced) - sum(norm_untraced)
    layer["host.slowdown"] = median(untraced["slowdowns"])
    layer["host.wall_raw_s"] = raw_untraced
    catalogue = tracing.per_layer_catalogue()
    for name, unit, better in catalogue:
        lines.append(f"{name:<52} {layer[name]:>14.6g} {unit:<8} ({better} is better)")
    lines.append(
        f"  cli requests: {len(ms)} samples (traced round); tail is "
        + (f"p{tail[0]}" if tail else "not reported (fewer than 10 samples beyond the median)")
        + "; trace.overhead_s is the traced round's normalized time minus the untraced round's"
    )
    lines.append(f"  spans written to {(out_dir / 'spans.jsonl').relative_to(ROOT)}")
    return {name: {"value": float(layer[name]), "unit": unit} for name, unit, _ in catalogue}


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    start = time.monotonic()
    if not (SRC / "morseband" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'morseband'}; run from the root of a source checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    OUT.mkdir(exist_ok=True)
    store = Store(OUT / "store.json", source_id())
    lines = [
        f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}",
        "facts " + json.dumps(machine_facts(env), sort_keys=True),
    ]
    setup = measure_setup(env, start)
    rounds, out_dir = run_rounds(workload, seed, seconds, trace, env, start)
    checked = check_outputs(workload, rounds, out_dir, store)
    if trace:
        metrics = per_layer(rounds, checked, out_dir, lines)
    else:
        metrics = end_to_end(rounds, checked, setup, lines)
        shutil.rmtree(out_dir, ignore_errors=True)
    store.save()
    failed, attempted = checked["failed"], checked["attempted"]
    lines.append(f"failed {failed} of {attempted}")
    lines += [f"  FAILED {note}" for note in checked["notes"]]
    # The sweep's invariant failures are the package's measured defects and
    # count in failed; the run is incorrect when a check-commands request
    # fails or an output does not reproduce.
    correct = store.mismatches == 0 and checked["unstable"] == 0 and (workload == "cli-sweep" or failed == 0)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="morseband benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
