"""Spectrum arithmetic: exact energies, degeneracy classes, Landau limit.

The level structure is integer arithmetic scaled by one positive factor,
so most checks here are exact (==), including the bit-for-bit field-
strength invariance of the energies. Degeneracy multiplicities are
cross-checked against a brute-force divisor count that never touches
the scan's own grouping.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseband import (
    ConfigError,
    CrossCheckError,
    DomainError,
    PhysParams,
    QuantumNumbers,
    degeneracy_scan,
    energy,
    landau_a0,
    landau_energy,
    landau_limit_error,
    spectrum_product,
)
from morseband import model
from primality import is_prime

labels = st.tuples(st.integers(0, 60), st.integers(1, 80)).filter(
    lambda t: t[1] > t[0]
).map(lambda t: QuantumNumbers(*t))


class TestEnergy:
    def test_ground_state_value_is_exact(self, p):
        got = energy(QuantumNumbers(0, 1), p)
        assert got == 0.375
        assert got == 3.0 * math.pi**2 * p.hbar**2 / (2.0 * p.mu * p.a0**2)

    def test_sample_against_direct_formula(self, p):
        for l, n in ((0, 1), (0, 3), (2, 3), (5, 11)):
            scale = math.pi**2 * p.hbar**2 / (2.0 * p.mu * p.a0**2)
            want = (2 * n - 2 * l - 1) * (2 * n + 2 * l + 1) * scale
            assert energy(QuantumNumbers(l, n), p) == want

    @given(q=labels, b0=st.floats(0.01, 1e4))
    @settings(max_examples=60, deadline=None)
    def test_field_strength_invariance_is_bitwise(self, q, b0):
        base = PhysParams.natural()
        assert energy(q, PhysParams.natural(B0=b0)) == energy(q, base)

    @given(q=labels)
    @settings(max_examples=60, deadline=None)
    def test_product_identity_and_parity(self, q):
        prod = spectrum_product(q)
        assert prod == (2 * q.n - 2 * q.l - 1) * (2 * q.n + 2 * q.l + 1)
        assert prod % 2 == 1
        # the two odd factors differ by 2(2l+1) and sum to 4n
        assert prod % 4 == 3

    @given(q=labels)
    @settings(max_examples=40, deadline=None)
    def test_raising_n_raises_energy(self, q):
        p = PhysParams.natural()
        up = QuantumNumbers(q.l, q.n + 1)
        assert energy(up, p) > energy(q, p)


class TestQuantumNumbers:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuantumNumbers(-1, 1)
        with pytest.raises(DomainError):
            QuantumNumbers(2, 2)
        with pytest.raises(DomainError):
            QuantumNumbers(0.5, 2)

    def test_level_index(self):
        assert QuantumNumbers(0, 1).N == 0
        assert QuantumNumbers(3, 9).N == 5

    def test_ordering(self):
        assert QuantumNumbers(0, 1) < QuantumNumbers(0, 2) < QuantumNumbers(1, 2)


def _brute_multiplicity(product: int, n_max: int) -> int:
    count = 0
    for l in range(n_max):
        for n in range(l + 1, n_max + 1):
            if (2 * n - 2 * l - 1) * (2 * n + 2 * l + 1) == product:
                count += 1
    return count


class TestDegeneracy:
    def test_product_fifteen_needs_the_second_partner(self):
        # 15 = 5*3 = 15*1 -> states (0,2) and (3,4); only one fits n <= 3
        by_product = {r.product: r for r in degeneracy_scan(3)}
        assert by_product[15].multiplicity == 1
        by_product = {r.product: r for r in degeneracy_scan(4)}
        assert by_product[15].multiplicity == 2
        assert by_product[15].states == (QuantumNumbers(0, 2), QuantumNumbers(3, 4))

    def test_triple_class_exists(self):
        by_product = {r.product: r for r in degeneracy_scan(100)}
        assert by_product[243].multiplicity == 3
        assert by_product[243].states == (
            QuantumNumbers(4, 9),
            QuantumNumbers(19, 21),
            QuantumNumbers(60, 61),
        )

    def test_histogram_at_n_100(self):
        reports = degeneracy_scan(100)
        hist: dict[int, int] = {}
        for r in reports:
            hist[r.multiplicity] = hist.get(r.multiplicity, 0) + 1
        assert hist == {1: 2434, 2: 674, 3: 216, 4: 86, 5: 36, 6: 9, 7: 6}
        assert sum(r.multiplicity for r in reports) == 100 * 101 // 2

    def test_prime_products_are_simple(self):
        for r in degeneracy_scan(120):
            if is_prime(r.product):
                assert r.multiplicity == 1

    def test_scan_agrees_with_brute_force(self):
        n_max = 25
        for r in degeneracy_scan(n_max):
            assert r.multiplicity == _brute_multiplicity(r.product, n_max)

    def test_degenerate_energies_are_bit_identical(self, p):
        for r in degeneracy_scan(40):
            energies = {energy(q, p) for q in r.states}
            assert len(energies) == 1

    def test_guard(self):
        with pytest.raises(DomainError):
            degeneracy_scan(0)
        with pytest.raises(DomainError):
            degeneracy_scan(1582)

    def test_table_arrays(self):
        table = degeneracy_scan(4)
        assert table.products.tolist() == [3, 7, 11, 15, 27, 35, 39, 55, 63]
        assert table.multiplicities.tolist() == [1, 1, 1, 2, 1, 1, 1, 1, 1]
        assert list(zip(table.l.tolist(), table.n.tolist()))[3:5] == [(0, 2), (3, 4)]
        assert len(table) == 9
        for a in (table.products, table.multiplicities, table.l, table.n):
            assert a.dtype == np.int32 and not a.flags.writeable


def _trial_division_pairs(product: int, n_max: int) -> int:
    """The referee: count factorizations product = a*b (odd, b > a or b = a,
    a + b divisible by 4) whose level (l, n) = ((b-a-2)/4, (a+b)/4) fits
    the scan window, by trial division."""
    count = 0
    a = 1
    while a * a <= product:
        if product % a == 0:
            b = product // a
            if (a + b) % 4 == 0:
                n = (a + b) // 4
                l = (b - a - 2) // 4
                if 1 <= n <= n_max and 0 <= l <= n - 1:
                    count += 1
        a += 2
    return count


class TestDegeneracyCrossCheck:
    @given(n_max=st.integers(1, 90))
    @settings(max_examples=25, deadline=None)
    def test_scan_and_census_match_their_referees(self, n_max):
        groups: dict[int, list[QuantumNumbers]] = {}
        for n in range(1, n_max + 1):
            for l in range(n):
                q = QuantumNumbers(l, n)
                groups.setdefault(spectrum_product(q), []).append(q)
        got = [(r.product, r.states) for r in degeneracy_scan(n_max)]
        assert got == [(product, tuple(sorted(groups[product]))) for product in sorted(groups)]
        census = model._divisor_census(n_max)
        for product in groups:
            assert census[(product - 3) // 4] == _trial_division_pairs(product, n_max)
        # and nothing besides the products: every level is one census pair
        assert census.sum() == n_max * (n_max + 1) // 2

    def test_a_dropped_level_fails_the_cross_check(self, monkeypatch):
        level_arrays = model._level_arrays
        monkeypatch.setattr(
            model, "_level_arrays", lambda n_max: tuple(np.delete(a, 17) for a in level_arrays(n_max))
        )
        with pytest.raises(CrossCheckError, match="cross-check failed"):
            degeneracy_scan(30)

    def test_a_product_off_the_census_fails_the_cross_check(self, monkeypatch):
        level_arrays = model._level_arrays

        def moved(n_max):
            l, n, product = level_arrays(n_max)
            product[17] += 2  # 1 (mod 4): no odd pair summing to 4n makes it
            return l, n, product

        monkeypatch.setattr(model, "_level_arrays", moved)
        with pytest.raises(CrossCheckError, match="divisor pairs predict 0"):
            degeneracy_scan(30)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_a_census_window_off_by_one_fails_the_cross_check(self, monkeypatch, shift):
        census = model._divisor_census

        def shifted(n_max):
            out = np.zeros_like(census(n_max))
            moved = census(n_max + shift)[: out.size]
            out[: moved.size] = moved
            return out

        monkeypatch.setattr(model, "_divisor_census", shifted)
        with pytest.raises(CrossCheckError):
            degeneracy_scan(30)

    def test_peak_memory_at_the_cap(self):
        tracemalloc.start()
        try:
            degeneracy_scan(1581)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 97, 7919}
        for m in sorted(primes):
            assert is_prime(m)
        for m in (0, 1, 4, 9, 15, 91, 7917):
            assert not is_prime(m)

    @given(m=st.integers(2, 10000))
    @settings(max_examples=80, deadline=None)
    def test_matches_factor_search(self, m):
        want = all(m % d for d in range(2, int(math.isqrt(m)) + 1))
        assert is_prime(m) == want


class TestLandauLimit:
    def test_relative_error_formula(self, p):
        for N in range(4):
            for l in (10, 100, 1000, 10000):
                got = landau_limit_error(N, l, p)
                want = (2 * N + 3) / (4 * l)
                assert abs(got - want) <= 1e-12

    def test_error_halves_when_l_doubles(self, p):
        for N in (0, 2):
            for l in (16, 128, 1024):
                ratio = landau_limit_error(N, l, p) / landau_limit_error(N, 2 * l, p)
                assert abs(ratio - 2.0) <= 1e-12

    def test_matched_width_value(self, p):
        # natural units: a0(l) = 2 pi sqrt(l)
        assert abs(landau_a0(4, p) - 4.0 * math.pi) <= 1e-15 * 4.0 * math.pi

    def test_landau_energy_is_linear_in_level(self, p):
        e0 = landau_energy(0, p)
        assert abs(e0 - 0.5) <= 1e-15
        for N in range(1, 5):
            assert abs(landau_energy(N, p) - (N + 0.5) * 2.0 * e0 / 1.0) <= 1e-13

    def test_guards(self, p):
        with pytest.raises(DomainError):
            landau_a0(0, p)
        with pytest.raises(DomainError):
            landau_limit_error(-1, 10, p)
        with pytest.raises(DomainError):
            landau_limit_error(0, 0, p)
        with pytest.raises(DomainError):
            landau_energy(-1, p)


class TestParams:
    def test_from_mapping_coerces_and_rejects(self):
        q = PhysParams.from_mapping({"B0": "2.5", "a0": 3.0})
        assert q.B0 == 2.5 and q.a0 == 3.0 and q.hbar == 1.0
        with pytest.raises(ConfigError):
            PhysParams.from_mapping({"width": 3.0})
        with pytest.raises(ConfigError):
            PhysParams.from_mapping({"B0": "strong"})

    def test_positivity_guards(self):
        with pytest.raises(DomainError):
            PhysParams.natural(B0=-1.0)
        with pytest.raises(DomainError):
            PhysParams(B0=1.0, a0=2.0, mu=1.0, hbar=1.0, c=1.0, e=1.0)

    @pytest.mark.parametrize("name", ["B0", "a0", "mu", "hbar", "c", "e"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_are_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            PhysParams.from_mapping({name: value})

    def test_derived_scales(self, p):
        assert abs(p.beta - 2.0) <= 4e-16
        assert abs(p.kappa - 1.0) <= 1e-16
        assert abs(p.x_weight_mode - math.log(2.0)) <= 1e-15
