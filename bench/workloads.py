"""Seeded request lists for the two workloads.

Each workload is a list of distinct argv lists for ``morseband.cli.main``.
A run issues the whole list once per round, every round in a freshly
forked process, and the same list in every round, so a request's rounds
time the same work. The seed picks the inputs; the same seed gives the
same list.

``check-commands`` holds the commands that compute each quantity twice
and compare: ``verify`` on its three short suites, ``ladder-check`` and
``uncertainty``. Their sizes are fixed (verify's sample sets are fixed
inputs of the program), and the seed picks only the output format.

``cli-sweep`` holds the commands that produce states and tables. Each
command gets fixed slots, and each slot draws its parameters from a fixed
stratum. The seed moves parameters inside the strata only, so two seeds
cost about the same, and the number of requests that land in each
parameter range is the same on every seed. Ranges reach the regions where
the package is known to misbehave (eigen n from 8 to 12, coherent |Z| up
to 10); those requests count as failures until the package is fixed.
"""

from __future__ import annotations

import cmath
import math
import random

# Eigenstates exist for every n >= 1; the sweep samples n up to this.
EIGEN_N_MAX = 12
# Coherent states are sampled up to this |Z|.
COHERENT_Z_MAX = 10.0

# check-commands: (argv, whether the command takes --format)
CHECK_COMMANDS = (
    (["verify", "--suite", "specfun"], False),
    (["verify", "--suite", "states"], False),
    (["verify", "--suite", "moments"], False),
    (["ladder-check", "--n-max", "1"], True),
    (["ladder-check", "--n-max", "2"], True),
    (["uncertainty", "--l-max", "1"], True),
    (["uncertainty", "--l-max", "3"], True),
)

# cli-sweep: (command, stratum) slots. The costliest requests get narrow
# strata, so the seed moves a round's cost by little: degeneracy costs
# about n_max^2.7.
DEGENERACY_STRATA = ((248, 252, "csv"), (120, 130, "json"), (40, 80, None), (2, 30, None))
SPECTRUM_STRATA = ((140, 150), (50, 80), (10, 40), (1, 9))
# Eigen n strata for wavefunction (low n pass today, n >= 8 prints inf).
WAVEFUNCTION_N_STRATA = ((1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 7), (8, 9), (9, 10), (10, 11), (11, 12))
COHERENT_Z_STRATA = ((0.2, 1.5), (8.0, 10.0))
EXPORT_EIGEN_N_STRATA = ((1, 7), (8, 12))
# The coherent export is the costliest request (about 5 s), so its |Z|
# stratum is narrow; it lies where exports miss the norm tolerance today.
EXPORT_COHERENT_Z_STRATA = ((7.5, 8.5),)
LANDAU_LIMIT_REQUESTS = 6
LANDAU_ASYM_REQUESTS = 3


def _num(value: float) -> str:
    return repr(round(value, 6))


def check_requests(seed: int) -> list[list[str]]:
    """The check-commands list for one seed: fixed sizes, seeded formats."""
    rng = random.Random(seed)
    out = []
    for argv, takes_format in CHECK_COMMANDS:
        form = rng.choice(("csv", "json")) if takes_format else "csv"
        out.append((["--format", form] if form != "csv" else []) + argv)
    return out


def sweep_requests(seed: int) -> list[list[str]]:
    """The cli-sweep list for one seed: deterministic, no repeats."""
    rng = random.Random(seed)
    out: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()

    def fmt() -> str:
        return rng.choice(("csv", "json"))

    def add(argv: list[str], form: str | None = "csv") -> bool:
        full = (["--format", form] if form and form != "csv" else []) + argv
        key = tuple(full)
        if key in seen:
            return False
        seen.add(key)
        out.append(full)
        return True

    def add_unique(draw) -> None:
        # redraw until the request is new; strata are wide enough to end fast
        while not add(*draw()):
            pass

    for lo, hi, form in DEGENERACY_STRATA:
        add_unique(lambda: (["degeneracy", "--n-max", str(rng.randint(lo, hi))], form or fmt()))

    def spectrum(lo, hi):
        n_max = rng.randint(lo, hi)
        argv = ["spectrum", "--n-max", str(n_max)]
        if rng.random() < 0.5:
            argv += ["--l-max", str(rng.randint(0, n_max - 1))]
        return argv, fmt()

    for lo, hi in SPECTRUM_STRATA:
        add_unique(lambda: spectrum(lo, hi))

    def eigen(command, lo, hi, extra=()):
        n = rng.randint(lo, hi)
        return [command, *extra, "--l", str(rng.randint(0, n - 1)), "--n", str(n)]

    for lo, hi in WAVEFUNCTION_N_STRATA:
        add_unique(lambda: (eigen("wavefunction", lo, hi), fmt()))

    coherent_states: set[tuple[int, str, str]] = set()

    def coherent_args(lo, hi):
        while True:
            z = rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            state = (rng.randint(0, 3), _num(z.real), _num(z.imag))
            if state not in coherent_states:
                coherent_states.add(state)
                return ["--l", str(state[0]), "--z-re", state[1], "--z-im", state[2]]

    for lo, hi in COHERENT_Z_STRATA:
        add(["coherent", *coherent_args(lo, hi)], fmt())

    # One small ladder-check and one small uncertainty table: their printed
    # residuals give the sweep its min_margin_dec. The larger sizes belong
    # to check-commands.
    add(["ladder-check", "--n-max", "1"], fmt())
    add(["uncertainty", "--l-max", "1"], fmt())

    for N in rng.sample(range(6), LANDAU_LIMIT_REQUESTS):
        count = rng.randint(1, 6)
        schedule = sorted({int(10 ** rng.uniform(0.0, 5.0)) for _ in range(count)})
        add(["landau-limit", "--N", str(N), "--l-schedule", ",".join(map(str, schedule))], fmt())

    for lo, hi in EXPORT_EIGEN_N_STRATA:
        add_unique(lambda: (eigen("export", lo, hi, ("--kind", "eigen")),))
    for lo, hi in EXPORT_COHERENT_Z_STRATA:
        add(["export", "--kind", "coherent", *coherent_args(lo, hi)])
    add(["export", "--kind", "landau-sym", "--n", str(rng.randint(0, 3)), "--l", str(rng.randint(0, 3))])
    for N in rng.sample(range(5), LANDAU_ASYM_REQUESTS):
        add(["export", "--kind", "landau-asym", "--n", str(N), "--ky", _num(rng.uniform(-2.0, 2.0))])
    return out


WORKLOADS = {
    "check-commands": check_requests,
    "cli-sweep": sweep_requests,
}
