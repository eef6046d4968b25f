"""Uncertainty moments: closed polygamma forms against grid quadrature.

The closed route never touches a grid and the quadrature route never
touches a polygamma function, so their agreement checks both. The
flat-field table and the large-l approach to it are pinned exactly,
including the one entry family where the general symmetric-gauge value
is (l+1)^2 hbar^2/4 rather than the quoted hbar^2/4; that regression
documents what this implementation computes.
"""

import dataclasses
import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from morseband import (
    AccuracyLossError,
    DomainError,
    GridSpec,
    LandauParams,
    MomentSet,
    QuantumNumbers,
    RangeError,
    SampledState,
    default_moments_grid,
    fd_derivative,
    grid_inner_product,
    landau_delta,
    landau_state_asym,
    landau_state_sym,
    log_weighted_gamma_integral,
    moments_closed,
    moments_quadrature,
    wavefunction,
)
from morseband import moments, states, verify
from morseband.cli import main
from morseband.moments import _grid_moments
from morseband.quadrature import _row_weights
from morseband.states import _Field, _landau_sym_factors, _landau_sym_field, landau_box

mpmath.mp.dps = 30

FIELDS = ("mean_x", "mean_x2", "mean_p", "mean_p2", "mean_xp", "sigma_xx", "sigma_pp", "sigma_xp", "delta")


class TestClosedAgainstQuadrature:
    def test_all_fields_agree(self, p):
        worst = 0.0
        for l in range(5):
            for N in range(3):
                q = QuantumNumbers(l, l + N + 1)
                closed = moments_closed(q, p)
                grid = moments_quadrature(q, p)
                for name in FIELDS:
                    a = getattr(closed, name)
                    b = getattr(grid, name)
                    scale = max(abs(a), abs(b), 1.0)
                    worst = max(worst, abs(a - b) / scale)
        assert worst <= 1e-7

    def test_level_guard(self, p):
        with pytest.raises(DomainError):
            moments_closed(QuantumNumbers(0, 4), p)


def _braket_moments(s, hbar: float) -> MomentSet:
    """Reference route: every moment is its own inner product of the state
    against x psi, x^2 psi, p psi, p^2 psi or x p psi, with p = -i hbar d/dx."""
    norm = grid_inner_product(s, s).real

    def braket(values):
        return grid_inner_product(s, dataclasses.replace(s, modes=values, labels=None)) / norm

    x = s.x[:, None]
    p_values = -1j * hbar * fd_derivative(s.modes, s, "x", 1)
    p2_values = -(hbar**2) * fd_derivative(s.modes, s, "x", 2)
    return MomentSet.from_means(
        mean_x=braket(x * s.modes).real,
        mean_x2=braket(x**2 * s.modes).real,
        mean_p=braket(p_values),
        mean_p2=braket(p2_values),
        mean_xp=braket(x * p_values),
        hbar=hbar,
    )


class TestFusedPassAgainstBrakets:
    # the one-pass moments must reproduce the six separate inner products
    # to rounding; the floor of 1 covers sigma_pp, which cancels to ~0
    @pytest.mark.parametrize("l, N", [(0, 0), (2, 1), (4, 2)])
    def test_eigenstates(self, p, l, N):
        q = QuantumNumbers(l, l + N + 1)
        x_c = p.x_weight_mode
        grid = GridSpec(x_c - p.a0, x_c + 6.0 * p.a0, 4096, 8)
        fused = moments_quadrature(q, p, grid)
        reference = _braket_moments(wavefunction(q, p, grid), p.hbar)
        for name in FIELDS:
            a, b = getattr(fused, name), getattr(reference, name)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), name

    @pytest.mark.parametrize(
        "lp",
        [LandauParams(gauge="symmetric", n=1, l=1), LandauParams(gauge="asymmetric", N=2)],
        ids=["symmetric-1-1", "asymmetric-2"],
    )
    def test_landau_states(self, p, lp):
        # the same box and grid as landau_delta, which takes the symmetric
        # state from its separated form and the reference from its samples
        if lp.gauge == "asymmetric":
            p_box, grid = landau_box(lp, p, 4096, 8)
            state = landau_state_asym(lp, p_box, grid)
        else:
            p_box, grid = landau_box(lp, p, 4096, 512)
            state = landau_state_sym(lp.n, lp.l, p_box, grid)
        want = _braket_moments(state, p.hbar).delta
        assert abs(landau_delta(lp, p) - want) <= 1e-12 * abs(want)


def _whole_array_moments(s, hbar: float, values=None) -> MomentSet:
    """The one-pass moments on whole arrays: every derivative from
    fd_derivative, every row sum one einsum over the whole array, and
    every moment the einsum dot of ``_grid_moments``. The rows are the
    mode columns of s, or values laid out as they are."""
    values = s.modes if values is None else values
    root_w = np.sqrt(s.weight)[:, None]
    amp = values * root_w
    parts = amp.view(np.float64)
    density = np.einsum("ij,ij->i", parts, parts)
    bra = np.conjugate(amp)
    d1, d2 = (
        np.einsum("ij,ij->i", bra, fd_derivative(values, s, "x", order) * root_w)
        for order in (1, 2)
    )
    wx = _row_weights(s.grid, s.y_period)
    xwx = s.x * wx

    def dot(u, v):
        return np.einsum("i,i->", u, v)

    norm = dot(wx, density)
    return MomentSet.from_means(
        mean_x=dot(xwx, density) / norm,
        mean_x2=dot(s.x * xwx, density) / norm,
        mean_p=-1j * hbar * dot(wx, d1) / norm,
        mean_p2=-(hbar**2) * dot(wx, d2) / norm,
        mean_xp=-1j * hbar * dot(xwx, d1) / norm,
        hbar=hbar,
    )


class TestStreamedMoments:
    # blocks hold 32768 floats, so 1024 rows at ny = 16, and at least two
    # rows (three in a ragged last block) once ny > 8192; the streamed
    # pass must give the whole-array bits, on a state scaled by sqrt(w) of
    # a graded weight and on plain rows under the flat measure. Random
    # values let every row of every block reach the raw means, which are
    # compared before MomentSet.from_means (a random state fails its
    # realness check).
    SHAPES = {
        "ragged-last-block": (3000, 16),
        "one-block": (600, 16),
        "two-row-blocks": (16, 16400),
        "three-row-last-block": (17, 16400),
    }

    @pytest.mark.parametrize(
        "shape, rows",
        [(shape, False) for shape in SHAPES] + [(shape, True) for shape in SHAPES],
        ids=list(SHAPES) + [f"rows-{shape}" for shape in SHAPES],
    )
    def test_random_state_bits(self, shape, rows, monkeypatch):
        monkeypatch.setattr(MomentSet, "from_means", classmethod(lambda cls, **means: means))
        nx, ny = self.SHAPES[shape]
        rng = np.random.default_rng(nx + ny)
        samples = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
        grid = GridSpec(-1.0, 1.0, nx, ny)
        if rows:
            s = SampledState.from_samples(grid, samples, np.ones(nx), 1.0)
            assert _grid_moments(samples, 1.0, grid, 1.0) == _whole_array_moments(s, 1.0, samples)
        else:
            s = SampledState.from_samples(grid, samples, np.linspace(0.5, 2.0, nx), 1.0)
            assert _grid_moments(s, 1.0) == _whole_array_moments(s, 1.0)

    def test_eigenstate_bits(self, p):
        q = QuantumNumbers(1, 3)
        s = wavefunction(q, p, default_moments_grid(p))
        assert _grid_moments(s, p.hbar) == _whole_array_moments(s, p.hbar)

    def test_landau_grid_bits(self, p):
        lp = LandauParams(gauge="symmetric", n=1, l=1)
        p_box, grid = landau_box(lp, p, 4096, 512)
        s = landau_state_sym(lp.n, lp.l, p_box, grid)
        assert _grid_moments(s, p.hbar) == _whole_array_moments(s, p.hbar)


class TestFieldMoments:
    # a field on a graded weight reaches the moments through its state:
    # rows(a, b) feeds the transform a block at a time, and the state's
    # streamed moments are the whole-array bits, on the block shapes of
    # TestStreamedMoments
    @pytest.mark.parametrize(
        "nx, ny",
        [(3000, 16), (600, 16), (16, 16400), (17, 16400)],
        ids=["ragged-last-block", "one-block", "two-row-last-block", "three-row-last-block"],
    )
    def test_random_field_bits(self, nx, ny, monkeypatch):
        monkeypatch.setattr(MomentSet, "from_means", classmethod(lambda cls, **means: means))
        rng = np.random.default_rng(nx + ny)
        samples = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
        calls = []

        def rows(a, b):
            calls.append((a, b))
            return samples[a:b].copy()

        grid, weight = GridSpec(-1.0, 1.0, nx, ny), np.linspace(0.5, 2.0, nx)
        s = _Field(grid, rows, weight, 1.0).state()
        # each row is evaluated exactly once, in order
        assert [a for a, _ in calls] == [0] + [b for _, b in calls[:-1]] and calls[-1][1] == nx
        assert np.array_equal(s.modes, SampledState.from_samples(grid, samples, weight, 1.0).modes)
        assert _grid_moments(s, 1.0) == _whole_array_moments(s, 1.0)

    # a flat-field state's samples reach the moments as plain rows, which
    # are never scaled by sqrt(w)
    def test_landau_field_bits(self, p):
        lp = LandauParams(gauge="symmetric", n=2, l=1)
        p_box, grid = landau_box(lp, p, 1024, 512)
        s = landau_state_sym(lp.n, lp.l, p_box, grid)
        # the state's values are the field's own samples, evaluated again
        values = s.values
        assert _grid_moments(values, p.hbar, grid, p_box.a0) == _whole_array_moments(s, p.hbar, values)

    @pytest.mark.parametrize("n, l", [(0, 0), (1, 0), (1, 1), (2, 1)])
    def test_field_route_matches_mode_route(self, p, n, l):
        # a row's sum over samples is ny times its sum over mode columns, a
        # constant the normalised moments cancel; what is left is rounding,
        # which the second-difference stencil amplifies: 1.44e-13 on mean_p2
        # and delta at (0, 0), where a long-double referee on the same
        # samples puts the field route 5.3e-14 off and the mode route 9.1e-14
        p_box, grid = landau_box(LandauParams(gauge="symmetric", n=n, l=l), p, 4096, 512)
        got = _grid_moments(_landau_sym_field(n, l, p_box, grid).values, p.hbar, grid, p_box.a0)
        want = _grid_moments(landau_state_sym(n, l, p_box, grid), p.hbar)
        _assert_moments_close(got, want, 2e-13)

    def test_landau_delta_builds_no_state(self, p, monkeypatch):
        def refuse(*args):
            raise AssertionError("landau_delta built the state or its field")

        monkeypatch.setattr(_Field, "state", refuse)
        # the symmetric route reads the separated form, never the samples
        monkeypatch.setattr(states, "_landau_sym_field", refuse)
        monkeypatch.setattr(moments, "_landau_sym_field", refuse, raising=False)
        for lp in (LandauParams(gauge="symmetric", n=1, l=1), LandauParams(gauge="asymmetric", N=1)):
            assert math.isfinite(landau_delta(lp, p))


def _assert_moments_close(got: MomentSet, want: MomentSet, bound: float) -> None:
    """Every moment within bound of its scale: sqrt(<x^2>) and sqrt(|<p^2>|)
    to the power each moment carries."""
    sx, sp = math.sqrt(want.mean_x2), math.sqrt(abs(want.mean_p2))
    scales = {"mean_x": sx, "mean_x2": sx * sx, "sigma_xx": sx * sx, "mean_p": sp,
              "mean_p2": sp * sp, "sigma_pp": sp * sp, "mean_xp": sx * sp, "sigma_xp": sx * sp,
              "delta": (sx * sp) ** 2}
    for name in FIELDS:
        assert abs(getattr(got, name) - getattr(want, name)) <= bound * scales[name], name


# symmetric-gauge labels (n, l), up to 2n + l = 23 quanta
SEPARATED_LABELS = [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2), (3, 2), (6, 2), (10, 3)]


class TestSeparatedLandau:
    # landau_delta takes a symmetric-gauge state as the 2n+l+1 columns of
    # its separated form, on the grid its 4096 by 512 samples would take

    @pytest.mark.parametrize("n, l", SEPARATED_LABELS)
    def test_factors_are_the_field(self, p, n, l):
        # 4.1e-15 of the peak measured, at (10, 3)
        p_box, grid = landau_box(LandauParams(gauge="symmetric", n=n, l=l), p, 4096, 512)
        a, b = _landau_sym_factors(n, l, p_box, grid)
        assert a.shape == (grid.nx, 2 * n + l + 1) and b.shape == (grid.ny, 2 * n + l + 1)
        assert b.dtype == np.float64
        field = _landau_sym_field(n, l, p_box, grid)
        peak = worst = 0.0
        for lo in range(0, grid.nx, 512):
            want = field.rows(lo, lo + 512)
            peak = max(peak, np.max(np.abs(want)))
            worst = max(worst, np.max(np.abs(a[lo : lo + 512] @ b.T - want)))
        assert worst <= 1e-14 * peak

    @pytest.mark.parametrize("n, l", SEPARATED_LABELS)
    def test_moments_match_the_field_route(self, p, n, l, monkeypatch):
        # the bound of test_field_route_matches_mode_route; 1.7e-13 measured,
        # on sigma_pp at (0, 0)
        lp = LandauParams(gauge="symmetric", n=n, l=l)
        seen = []

        def spy(rows, *args):
            seen.append((rows, _grid_moments(rows, *args)))
            return seen[-1][1]

        monkeypatch.setattr(moments, "_grid_moments", spy)
        delta = landau_delta(lp, p)
        [(rows, got)] = seen
        assert isinstance(rows, np.ndarray) and rows.shape == (4096, 2 * n + l + 1)
        assert got.delta == delta
        p_box, grid = landau_box(lp, p, 4096, 512)
        samples = _landau_sym_field(n, l, p_box, grid).values
        _assert_moments_close(got, _grid_moments(samples, p.hbar, grid, p_box.a0), 2e-13)


class TestClosedStructure:
    def test_lowest_level_delta_is_exact(self, p):
        for l in range(7):
            m = moments_closed(QuantumNumbers(l, l + 1), p)
            assert abs(m.delta - 0.25 * p.hbar**2) <= 1e-12

    def test_first_level_delta_closed_form(self, p):
        for l in range(7):
            m = moments_closed(QuantumNumbers(l, l + 2), p)
            want = 0.25 * ((3 * l + 2) / (l + 1)) ** 2
            assert abs(m.delta - want) <= 1e-13 * want

    def test_second_level_delta_closed_form(self, p):
        for l in range(7):
            m = moments_closed(QuantumNumbers(l, l + 3), p)
            ratio = (10 * l * l + 19 * l + 8) / ((l + 1) * (2 * l + 3))
            want = 0.25 * ratio**2
            assert abs(m.delta - want) <= 1e-13 * want

    def test_momentum_structure(self, p):
        # the first moment of p is purely imaginary (p is not self-adjoint
        # on the weighted strip) and its variance cancels exactly
        for l, N in ((0, 0), (1, 1), (3, 2)):
            m = moments_closed(QuantumNumbers(l, l + N + 1), p)
            assert m.mean_p.real == 0.0
            assert m.sigma_pp == 0.0
            assert m.delta == (m.sigma_xx * m.sigma_pp - m.sigma_xp * m.sigma_xp).real

    def test_robertson_combination(self, p):
        m = moments_closed(QuantumNumbers(1, 3), p)
        combo = m.sigma_xx * m.sigma_pp - m.sigma_xp**2
        assert abs(m.delta - combo.real) <= 1e-15 * max(1.0, abs(combo))


class TestMomentSetValidation:
    def test_consistent_means_pass(self):
        m = MomentSet.from_means(
            mean_x=1.0, mean_x2=2.0, mean_p=0.5j, mean_p2=-0.25, mean_xp=0.5j, hbar=1.0
        )
        assert m.sigma_xx == 1.0
        assert m.sigma_pp == 0.0

    def test_imaginary_leak_is_refused(self):
        with pytest.raises(AccuracyLossError):
            MomentSet.from_means(
                mean_x=1.0,
                mean_x2=2.0,
                mean_p=1.0j,
                mean_p2=0.0,
                mean_xp=0.3 + 0.2j,
                hbar=1.0,
            )


class TestGammaLogIntegral:
    def test_both_routes_agree(self):
        for nu in (0.5, 1.0, 2.5, 4.0):
            for mu in (0.5, 1.0, 3.0):
                for j in (1, 2):
                    quad, closed = log_weighted_gamma_integral(nu, mu, j)
                    scale = max(abs(closed), 1.0)
                    assert abs(quad - closed) <= 1e-10 * scale

    def test_numeric_pin_against_mpmath(self):
        # int_0^inf s^0.5 e^{-0.7 s} (ln s)^2 ds, fully independent route
        nu, mu = 1.5, 0.7
        want = float(
            mpmath.quad(
                lambda s: s ** (nu - 1) * mpmath.e ** (-mu * s) * mpmath.log(s) ** 2,
                [0, mpmath.inf],
            )
        )
        quad, closed = log_weighted_gamma_integral(nu, mu, 2)
        assert abs(quad - want) <= 1e-10 * abs(want)
        assert abs(closed - want) <= 1e-10 * abs(want)

    def test_guards(self):
        with pytest.raises(DomainError):
            log_weighted_gamma_integral(1.0, 1.0, 3)
        with pytest.raises(DomainError):
            log_weighted_gamma_integral(1.0, 0.0, 1)
        with pytest.raises(DomainError):
            log_weighted_gamma_integral(0.0, 1.0, 1)


class TestFlatFieldTable:
    def test_asymmetric_gauge_entries(self, p):
        for N, want in ((0, 0.25), (1, 2.25), (2, 6.25)):
            got = landau_delta(LandauParams(gauge="asymmetric", N=N), p)
            assert abs(got - want) <= 1e-7 * want

    def test_symmetric_gauge_coinciding_entries(self, p):
        for n, l, want in ((0, 0, 0.25), (1, 0, 2.25), (1, 1, 4.0)):
            got = landau_delta(LandauParams(gauge="symmetric", n=n, l=l), p)
            assert abs(got - want) <= 1e-7 * want

    def test_symmetric_gauge_lowest_row_grows_with_l(self, p):
        # the quoted table lists hbar^2/4 for every (0, l); the computed
        # value is (l+1)^2 hbar^2/4, matching it only at l = 0
        for l in (1, 2):
            got = landau_delta(LandauParams(gauge="symmetric", n=0, l=l), p)
            want = 0.25 * (l + 1) ** 2
            assert abs(got - want) <= 1e-7 * want


def uncertainty_limit_curve(N: int, l_list) -> list[tuple[int, float]]:
    """Closed-form uncertainty along one oblique family, in units of
    hbar^2.

    For N = 1 the curve is ((3l+2)/(l+1))^2 / 4, approaching 9/4; for
    N = 2 it is ((10l^2+19l+8)/((l+1)(2l+3)))^2 / 4, approaching 25/4.
    Both limits are flat-field values, reached at order 1/l.
    """
    if N not in (1, 2):
        raise DomainError(f"limit curves exist for N in {{1,2}}, got {N!r}")
    out: list[tuple[int, float]] = []
    for l in l_list:
        if l < 0:
            raise DomainError(f"l must be >= 0, got {l!r}")
        if N == 1:
            ratio = (3.0 * l + 2.0) / (l + 1.0)
        else:
            ratio = (10.0 * l * l + 19.0 * l + 8.0) / ((l + 1.0) * (2.0 * l + 3.0))
        out.append((int(l), 0.25 * ratio * ratio))
    return out


class TestLandauDeltaMemory:
    def test_symmetric_grid_peak(self, p):
        # 4096x512 complex cells are 32 MiB: the moments reduce the 4 columns
        # of the separated form (1.8 MiB measured, 34.1 MiB when the field
        # was transformed to a state first); any state-sized array fails
        tracemalloc.start()
        try:
            landau_delta(LandauParams(gauge="symmetric", n=1, l=1), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestMomentsSuite:
    # sha256 of the report at one worker thread, with each moment an einsum
    # dot; a new route to the flat-field moments must keep these bytes
    PINNED = {
        ("verify", "--suite", "moments"):
            "81db98ad3c8a86c8c85a5bc04c3ca0ff0903a5abe79aea368720fda86782047e",
    }

    @pytest.mark.parametrize("argv", sorted(PINNED))
    def test_pinned_bytes(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("MORSEBAND_THREADS", "1")
        assert main(list(argv)) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.PINNED[argv]

    def test_symmetric_residuals_stay_below_the_asymmetric_worst(self):
        # the table reports its worst case, an asymmetric-gauge entry
        # (2.5e-10); the symmetric ones measure 1.2e-11, 5.3e-11, 8.6e-11
        cases = list(verify._landau_uncertainty_table())
        symmetric = [r for r, where in cases if where.startswith("symmetric")]
        asymmetric = [r for r, where in cases if where.startswith("asymmetric")]
        assert len(symmetric) == len(asymmetric) == 3
        assert max(symmetric) < max(asymmetric)


class TestLargeLLimit:
    def test_curve_matches_closed_route(self, p):
        for N in (1, 2):
            for l, value in uncertainty_limit_curve(N, [1, 10, 100]):
                m = moments_closed(QuantumNumbers(l, l + N + 1), p)
                assert abs(value - m.delta / p.hbar**2) <= 1e-12 * max(1.0, m.delta)

    def test_limit_bound_at_l_1000(self):
        (l1, v1), = uncertainty_limit_curve(1, [1000])
        assert abs(v1 / 2.25 - 1.0) <= 3.0 / 1000.0
        (l2, v2), = uncertainty_limit_curve(2, [1000])
        assert abs(v2 / 6.25 - 1.0) <= 3.0 / 1000.0
        # the first level also meets the bound read as absolute
        assert abs(v1 - 2.25) <= 3.0 / 1000.0

    def test_guards(self):
        with pytest.raises(DomainError):
            uncertainty_limit_curve(3, [10])
        with pytest.raises(DomainError):
            uncertainty_limit_curve(1, [-1])


class TestGrids:
    def test_default_grid_shape(self, p):
        g = default_moments_grid(p)
        assert g.nx == 16384 and g.ny == 16
        assert g.x_min < p.x_weight_mode < g.x_max

    def test_overflowing_derivative_is_refused(self, p):
        # (0,1) is finite on this window but its x-derivative overflows at
        # the edge, where the weight is 0; numpy must not warn on the way
        grid = GridSpec(-708.5, 10.0, 4096, 8)
        with pytest.raises(RangeError):
            moments_quadrature(QuantumNumbers(0, 1), p, grid)

    def test_quadrature_accepts_custom_grid(self, p):
        q = QuantumNumbers(0, 1)
        g = default_moments_grid(p)
        m = moments_quadrature(q, p, grid=g)
        assert abs(m.delta - 0.25) <= 1e-7
