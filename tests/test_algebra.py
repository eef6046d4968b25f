"""Ladder operators as differential stencils against integer arithmetic.

The matrix elements sqrt((n+l)(n-l-1)) come out of grid derivatives
here, so agreement with the integer formula is a genuine cross-check of
the operator realization, not bookkeeping. Adjointness is checked as an
inner-product identity, and a deliberately mixed state confirms that
eigen-residuals actually detect non-eigenstates.
"""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from morseband import (
    DomainError,
    GridSpec,
    QuantumNumbers,
    RangeError,
    SampledState,
    algebra_grid,
    apply_casimir,
    apply_hamiltonian,
    apply_L3,
    apply_Lminus,
    apply_Lplus,
    commutator_residual,
    energy,
    grid_inner_product,
    wavefunction,
    weighted_norm,
)
from morseband.algebra import _COMPOSED_MARGIN, _relative_defect
from morseband.cli import main

BASIS = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4))
MARGIN = 8


def _state(l: int, n: int, p):
    return wavefunction(QuantumNumbers(l, n), p, algebra_grid(p))


def _diff_norm(image, coeff, s) -> float:
    """Margin-excluded weighted norm of an operator image minus coeff times
    the state s, whose mode indices the image holds."""
    assert np.array_equal(image.k, s.k)
    return weighted_norm(image.modes - coeff * s.modes, s, exclude_margin=MARGIN)


class TestLadderAction:
    def test_raising_matrix_elements(self, p):
        for l, n in BASIS:
            lower = _state(l, n, p)
            upper = _state(l, n + 1, p)
            coeff = math.sqrt((n + 1 + l) * (n - l))
            raised = apply_Lplus(lower, p)
            assert _diff_norm(raised, coeff, upper) <= 1e-6 * max(coeff, 1.0)

    def test_lowering_matrix_elements(self, p):
        for l, n in BASIS:
            if n == l + 1:
                continue
            upper = _state(l, n, p)
            lower = _state(l, n - 1, p)
            coeff = math.sqrt((n + l) * (n - l - 1))
            dropped = apply_Lminus(upper, p)
            assert _diff_norm(dropped, coeff, lower) <= 1e-6 * max(coeff, 1.0)

    def test_bottom_states_are_annihilated(self, p):
        for l in range(5):
            s = _state(l, l + 1, p)
            killed = apply_Lminus(s, p)
            assert weighted_norm(killed.modes, killed, exclude_margin=MARGIN) <= 1e-6

    def test_l3_eigenvalue_is_n(self, p):
        # spectral derivative along y: the weighted residual is near
        # machine level, far tighter than the stencil-based checks
        for l, n in ((0, 1), (1, 3), (2, 4)):
            s = _state(l, n, p)
            rotated = apply_L3(s, p)
            assert _diff_norm(rotated, n, s) <= 1e-10 * n

    def test_adjoint_pairing(self, p):
        # <L+ a | b> = <a | L- b> ties the two stencils together through
        # the measure; this fails if either drops its weight factor
        a = _state(1, 2, p)
        b = _state(1, 3, p)
        lhs = grid_inner_product(apply_Lplus(a, p), b)
        rhs = grid_inner_product(a, apply_Lminus(b, p))
        assert abs(lhs - rhs) <= 1e-6


class TestQuadraticOperators:
    def test_casimir_eigenvalue(self, p):
        for l, n in BASIS:
            assert apply_casimir(_state(l, n, p), p) <= 1e-6

    def test_casimir_explicit_eigenvalue_override(self, p):
        s = _state(1, 2, p)
        assert apply_casimir(s, p, reference_eigenvalue=-2.0) <= 1e-6
        assert apply_casimir(s, p, reference_eigenvalue=-2.5) > 0.1

    def test_hamiltonian_energies(self, p):
        for l, n in BASIS:
            assert apply_hamiltonian(_state(l, n, p), p) <= 1e-6

    def test_superposition_is_not_an_eigenstate(self, p):
        a = _state(0, 1, p)
        b = _state(0, 2, p)
        mixed = SampledState.from_samples(a.grid, (a.values + b.values) / math.sqrt(2.0), a.weight, a.y_period)
        res = apply_hamiltonian(mixed, p, reference_energy=energy(QuantumNumbers(0, 1), p))
        assert res > 0.1

    def test_unlabeled_state_needs_reference(self, p):
        s = _state(0, 1, p)
        bare = dataclasses.replace(s, labels=None)
        with pytest.raises(DomainError):
            apply_hamiltonian(bare, p)
        with pytest.raises(DomainError):
            apply_casimir(bare, p)


class TestArrayComposition:
    def test_residuals_build_no_state(self, p, monkeypatch):
        # the operators compose on mode arrays; a SampledState per image
        # would be built and re-validated 41 times for one h_casimir residual
        s = _state(1, 2, p)
        built = []
        original = SampledState.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(SampledState, "__post_init__", counting)
        commutator_residual(s, p, "h_casimir")
        apply_casimir(s, p)
        apply_hamiltonian(s, p)
        assert len(built) == 0

    def test_overflowing_image_is_refused(self, p):
        # values of (0,1) reach 3e307 at x = -708.5: the state is finite, its
        # derivatives are not, and no residual may be computed from them
        s = wavefunction(QuantumNumbers(0, 1), p, GridSpec(-708.5, 10.0, 4096, 8))
        with np.errstate(over="ignore", invalid="ignore"):
            for measure in (
                lambda: apply_casimir(s, p),
                lambda: apply_hamiltonian(s, p),
                lambda: commutator_residual(s, p, "h_casimir"),
            ):
                with pytest.raises(RangeError):
                    measure()


class TestCommutators:
    @pytest.mark.parametrize(
        "pair", ["ladder", "three_plus", "three_minus", "h_three", "h_casimir"]
    )
    def test_identities_hold_on_eigenstates(self, p, pair):
        worst = max(
            commutator_residual(_state(l, n, p), p, pair) for l, n in BASIS
        )
        assert worst <= 1e-5

    def test_hamiltonian_does_not_commute_with_raising(self, p):
        # the spectrum is not linear in n, so [H, L+] must stay far from
        # zero; this guards against a "commutator" that is trivially 0
        value = commutator_residual(_state(1, 2, p), p, "h_plus")
        assert value > 1e-2

    def test_unknown_pair(self, p):
        with pytest.raises(DomainError):
            commutator_residual(_state(0, 1, p), p, "h_minus")


def _single_operator_rows(p, grid, n_max):
    """The ladder-check rows as the operators applied on their own measure
    them, each state built afresh and every image a whole mode array."""
    want = []
    for n in range(1, n_max + 1):
        for l in range(n):
            s = wavefunction(QuantumNumbers(l, n), p, grid)
            c = math.sqrt((n + l + 1) * (n - l))
            up = wavefunction(QuantumNumbers(l, n + 1), p, grid)
            raised = _relative_defect(apply_Lplus(s, p), up, s, c, c, _COMPOSED_MARGIN)
            lowered = apply_Lminus(s, p)
            if n == l + 1:
                lower = _relative_defect(lowered, s, s, 0.0, 1.0, _COMPOSED_MARGIN)
            else:
                c = math.sqrt((n + l) * (n - l - 1))
                down = wavefunction(QuantumNumbers(l, n - 1), p, grid)
                lower = _relative_defect(lowered, down, s, c, c, _COMPOSED_MARGIN)
            want.append(
                {
                    "l": l,
                    "n": n,
                    "raise_defect": raised,
                    "lower_defect": lower,
                    "casimir_residual": apply_casimir(s, p),
                    "hamiltonian_residual": apply_hamiltonian(s, p),
                }
            )
    return want


# --config grids whose row blocks end raggedly: 256 rows a block at ny = 64
# (1001 = 3*256 + 233, 4099 = 16*256 + 3), 1365 at ny = 12 and 2048 at
# ny = 8; nx = 8 and 9 are too short for the residual margin and refused
_CONFIG_GRIDS = [(nx, ny) for nx in (8, 9, 1001, 4099) for ny in (8, 12, 64)]


class TestLadderCheck:
    # sha256 of ladder-check output as the whole-array mode-space operators wrote it
    PINNED = {
        ("ladder-check", "--n-max", "4"):
            "3bf7c6ac0d8e19ee2c1c6a9c474be0a9fbeb4a1abd4e3baeaabce3a905af7316",
        ("--format", "json", "ladder-check", "--n-max", "2"):
            "50375c2267f997496a2f8ddebda07c6e18f577f40bf387562b5ed8ae72dac390",
    }

    def test_rows_are_the_single_operators_bits(self, p, tmp_path):
        # ladder-check shares each state's images and norm among its four
        # residuals; every printed value must still be the one measured by
        # the operators applied on their own
        out = tmp_path / "ladder.json"
        assert main(["--format", "json", "--out", str(out), "ladder-check", "--n-max", "3"]) == 0
        assert json.loads(out.read_text())["rows"] == _single_operator_rows(p, algebra_grid(p), 3)

    @pytest.mark.parametrize("nx, ny", _CONFIG_GRIDS, ids=[f"{nx}x{ny}" for nx, ny in _CONFIG_GRIDS])
    def test_config_grid_rows_are_the_single_operators_bits(self, p, tmp_path, nx, ny):
        grid = GridSpec(-2.0, 12.0, nx, ny)
        config = tmp_path / "grid.cfg"
        config.write_text(f"x_min=-2.0\nx_max=12.0\nnx={nx}\nny={ny}\n")
        out = tmp_path / "ladder.json"
        argv = ["--format", "json", "--config", str(config), "--out", str(out), "ladder-check", "--n-max", "2"]
        if 2 * _COMPOSED_MARGIN >= nx:
            with pytest.raises(DomainError):
                _single_operator_rows(p, grid, 2)
            assert main(argv) == 2
            return
        assert main(argv) == 0
        assert json.loads(out.read_text())["rows"] == _single_operator_rows(p, grid, 2)

    # sha256 of the csv table at the largest n_max with 2 n_max < ny, as
    # written before larger n_max were refused
    BELOW_ALIASING = {
        8: (3, "49c98b0a7cd90bd8707bdfee2ad3ecc48be8ace830ceb8da1e66405392587220"),
        10: (4, "99c520ba6bcf80416d9d7149cfb05b32d99d4fe6873b843ced535df703ebd51b"),
    }

    @pytest.mark.parametrize("ny", sorted(BELOW_ALIASING))
    def test_aliasing_bound(self, capsys, tmp_path, ny):
        # a level n >= ny/2 sits on or past the Nyquist index, where L3 and
        # the y-derivatives read an aliased frequency: refused, not printed
        n_max, digest = self.BELOW_ALIASING[ny]
        config = tmp_path / "grid.cfg"
        config.write_text(f"x_min=-2.0\nx_max=12.0\nnx=1001\nny={ny}\n")
        assert main(["--config", str(config), "ladder-check", "--n-max", str(n_max)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        out = tmp_path / "ladder.csv"
        argv = ["--config", str(config), "--out", str(out), "ladder-check", "--n-max", str(n_max + 1)]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", sorted(PINNED))
    def test_pinned_bytes(self, capsys, argv):
        assert main(list(argv)) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.PINNED[argv]

    def test_peak_memory(self, tmp_path):
        # an eigenstate on the 8192x64 grid is one 128 KiB mode column;
        # --n-max 2 peaks at 2.3 MiB traced, and one dense 8192x64 array
        # (8 MiB) fails
        tracemalloc.start()
        try:
            assert main(["--out", str(tmp_path / "ladder.csv"), "ladder-check", "--n-max", "2"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
