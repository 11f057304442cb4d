"""Field arithmetic: defaults, examples, and exhaustive axiom sweeps."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatroids import make_field, primitive_power, in_base_field, omega_index_set
from qmatroids.errors import (
    DivisionByZero,
    ExtensionRequired,
    FieldMismatch,
    NoDefaultModulus,
    NonPrimeCharacteristic,
    NonPrimitiveModulus,
    ReducibleModulus,
)
from qmatroids.fields import (
    FieldElem,
    FieldSpec,
    ground_field,
    prime_power,
)

from helpers import frobenius_fixed


class TestMakeField:
    def test_gf16_default_modulus(self, gf16):
        assert gf16.ext_modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
        assert gf16.omega.coeffs == (0, 1, 0, 0)

    def test_gf2_degenerate(self):
        F = make_field(2, 1, 1)
        assert F.order == 2
        assert F.omega.val == 1

    def test_nonprimitive_modulus_rejected(self):
        with pytest.raises(NonPrimitiveModulus, match="order 5"):
            make_field(2, 1, 4, moduli=((1, 1), (1, 1, 1, 1, 1)))

    def test_reducible_modulus_rejected(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2
        with pytest.raises(ReducibleModulus):
            make_field(2, 1, 4, moduli=((1, 1), (1, 0, 1, 0, 1)))

    def test_nonprime_characteristic(self):
        with pytest.raises(NonPrimeCharacteristic):
            make_field(4, 1, 2)

    def test_no_default_above_cap(self):
        with pytest.raises(NoDefaultModulus):
            make_field(2, 1, 21)

    def test_defaults_all_primitive(self):
        for p, k, m in [(2, 1, 2), (2, 1, 3), (2, 1, 8), (3, 1, 2), (3, 1, 4),
                        (2, 2, 1), (3, 2, 1), (2, 2, 2)]:
            F = make_field(p, k, m)
            assert F.order == p ** (k * m)
            # omega must have full multiplicative order
            seen = set()
            v = 1
            for _ in range(F.order - 1):
                assert v not in seen
                seen.add(v)
                v = F.mul(v, F.omega_val)
            assert v == 1


class TestArith:
    def test_omega_cubed_times_omega(self, gf16):
        w = gf16.omega
        assert (w ** 3 * w).coeffs == (1, 1, 0, 0)  # x^4 = x + 1

    def test_char_two_self_cancel(self, gf16):
        for a in range(gf16.order):
            assert gf16.add(a, a) == 0

    def test_omega_order(self, gf16):
        assert (gf16.omega ** 15).val == 1
        assert all((gf16.omega ** e).val != 1 for e in range(1, 15))

    def test_field_mismatch(self, gf16):
        other = make_field(2, 1, 3)
        with pytest.raises(FieldMismatch):
            gf16.one + other.one

    def test_equal_fields_hash_elements_alike(self):
        # two FieldSpec objects for one field: their elements compare
        # equal, so they must hash equal and a set keeps one of each
        F, G = (FieldSpec(2, 1, 4, (0, 1), (1, 1, 0, 0, 1)) for _ in range(2))
        assert F is not G and F == G
        for v in range(F.order):
            a, b = FieldElem(F, v), FieldElem(G, v)
            assert a == b and hash(a) == hash(b)
        assert len({FieldElem(F, 3), FieldElem(G, 3)}) == 1

    def test_division_by_zero(self, gf16):
        with pytest.raises(DivisionByZero):
            gf16.zero.inverse()
        with pytest.raises(DivisionByZero):
            gf16.one / gf16.zero

    @pytest.mark.parametrize("p,k,m", [(2, 1, 4), (3, 1, 2), (2, 2, 1)])
    def test_field_axioms_exhaustive(self, p, k, m):
        F = make_field(p, k, m)
        elems = range(F.order)
        for a, b in itertools.product(elems, repeat=2):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
        for a, b, c in itertools.product(elems, repeat=3):
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))

    @settings(max_examples=200)
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_gf256_sampled_axioms(self, a, b, c):
        F = make_field(2, 1, 8)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


class TestPrimitivePower:
    def test_power_zero(self, gf16):
        assert primitive_power(gf16, 0).val == 1

    def test_power_four(self, gf16):
        assert primitive_power(gf16, 4).coeffs == (1, 1, 0, 0)

    def test_negative_power(self, gf16):
        assert primitive_power(gf16, -1) == gf16.omega ** 14


class TestBaseFieldMembership:
    def test_one_in_base(self, gf16):
        assert in_base_field(gf16.one)

    def test_omega_not_in_base(self, gf16):
        assert not in_base_field(gf16.omega)

    def test_omega5(self, gf16):
        w5 = primitive_power(gf16, 5)
        assert w5.coeffs == (0, 1, 1, 0)  # w^5 = w^2 + w
        assert not in_base_field(w5)

    @pytest.mark.parametrize("p,k,m", [(2, 1, 4), (3, 1, 4), (2, 2, 2)])
    def test_frobenius_cross_check(self, p, k, m):
        F = make_field(p, k, m)
        for a in range(F.order):
            assert in_base_field(F.elem(a)) == frobenius_fixed(F.elem(a))


class TestOmegaIndexSet:
    def test_q2_m4(self, gf16):
        assert omega_index_set(gf16) == frozenset(range(1, 15))

    def test_q3_m2(self):
        F = make_field(3, 1, 2)
        assert omega_index_set(F) == frozenset({1, 2, 3, 5, 6, 7})

    def test_extension_required(self):
        with pytest.raises(ExtensionRequired):
            omega_index_set(make_field(2, 1, 1))


def test_ground_field_prime_power():
    F4 = ground_field(4)
    assert (F4.p, F4.k, F4.q) == (2, 2, 4)
    with pytest.raises(NonPrimeCharacteristic):
        ground_field(6)


def test_prime_power_against_factoring():
    primes = [p for p in range(2, 1100) if all(p % d for d in range(2, p))]
    powers = {p ** k: (p, k) for p in primes for k in range(1, 11) if p ** k < 1100}
    for q in range(-2, 1100):
        assert prime_power(q) == powers.get(q)
