"""The timed rounds of one workload run.

Started by ``run.py``, never by hand. It imports ``morseband.cli`` once,
then runs the workload's request list once per round, each round in a
process forked from this one: every round starts from the same freshly
imported state, as a new CLI invocation would, and nothing a round
caches reaches the next. Each request runs through ``cli.main`` with its
output captured in memory; the reference kernels (``reference.py``) are
timed before the first request and after each one. Round 0 also writes every output to a
file for ``run.py`` to check; later rounds report only each output's
sha256. Untraced rounds repeat while the next one fits in ``--seconds``.
With ``--trace 1`` there are two rounds: one untraced, then one traced.

Writes ``round-<i>.json`` per round into ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from reference import Reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WRITE_CHUNK = 1 << 22


class Capture:
    """Stand-in for stdout/stderr that keeps the written strings as they are."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _call(func, argv):
    """Run one request with stdout and stderr captured; returns
    (exit code or None, error text or None, stdout parts, stderr, wall, cpu)."""
    out, err = Capture(), Capture()
    rc = error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = func(argv)
        except Exception:  # a raising request is a counted failure, not a crash
            error = traceback.format_exc()[-2000:]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return rc, error, out.parts, "".join(err.parts), wall, cpu


def _digest(parts: list[str], path: Path | None) -> tuple[str, int]:
    """sha256 and byte count of an output, written to ``path`` if given."""
    digest, size = hashlib.sha256(), 0
    with open(path, "wb") if path is not None else contextlib.nullcontext() as fh:
        for part in parts:
            for i in range(0, len(part), WRITE_CHUNK):
                chunk = part[i : i + WRITE_CHUNK].encode()
                digest.update(chunk)
                size += len(chunk)
                if fh is not None:
                    fh.write(chunk)
    return digest.hexdigest(), size


def one_round(cli, ref: Reference, requests: list[list[str]], out_dir: Path, index: int, trace: bool) -> dict:
    tracer = instr = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        instr = tracing.Instrumentation(tracer)
        instr.install()
    records = []
    slowdowns = [ref.slowdown()]
    for i, argv in enumerate(requests):
        rc, error, parts, stderr, wall, cpu = _call(cli.main, argv)
        slowdowns.append(ref.slowdown())
        name = f"req-{i}.out"
        digest, size = _digest(parts, out_dir / name if index == 0 else None)
        del parts
        records.append(
            {"argv": argv, "rc": rc, "error": error, "stderr": stderr[-2000:], "wall_s": wall, "cpu_s": cpu,
             "sha256": digest, "bytes": size, "file": name if index == 0 else None}
        )
    result = {
        "requests": records,
        "slowdowns": slowdowns,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - ref.nbytes) / 2**20,
        "traced": trace,
    }
    if tracer is not None:
        instr.restore()
        result["layer"] = tracing.layer_metrics(tracer.spans)
        with open(out_dir / "spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(tracing.span_record(span)) + "\n")
    return result


def forked_round(cli, ref: Reference, requests: list[list[str]], out_dir: Path, index: int, trace: bool) -> dict:
    """One round in a forked child; waits for it and returns its result.
    Forking is safe here: the worker starts no thread (the BLAS pools are
    pinned to one thread, and MORSEBAND_THREADS to 1)."""
    path = out_dir / f"round-{index}.json"
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            result = one_round(cli, ref, requests, out_dir, index, trace)
            with open(path, "w") as fh:
                json.dump(result, fh)
            code = 0
        except BaseException:  # the child reports and exits; it never returns into the loop
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"round {index} exited with {code}")
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out_dir = Path(args.out)

    import morseband.cli as cli

    requests = WORKLOADS[args.workload](args.seed)
    ref = Reference()
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        forked_round(cli, ref, requests, out_dir, index, trace=bool(args.trace) and index == 1)
        took = time.perf_counter() - t0
        index += 1
        if args.trace:
            if index == 2:
                break
        elif time.perf_counter() - start + took > args.seconds:
            break
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
