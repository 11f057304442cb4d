"""Field arithmetic: defaults, examples, exhaustive axiom sweeps and a
polynomial-arithmetic oracle."""

import itertools
import random
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatroids import fields, make_field, primitive_power, in_base_field, omega_index_set
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
    is_prime,
    prime_power,
)

from helpers import (ReferenceField, _poly_mulmod, fresh_python, frobenius_fixed, poly_mul,
                     reference_default_ext_poly)


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

    def test_reducible_base_modulus_rejected(self):
        # x^2 + x + 1 = (x + 2)^2 over F_3: the walk of x fails, and the
        # refusal names the base modulus
        with pytest.raises(ReducibleModulus, match="base modulus"):
            make_field(3, 2, 1, moduli=((1, 1, 1), (6, 1)))

    @pytest.mark.parametrize("q,ext", [(4, (2, 1)), (8, (2, 1)), (16, (2, 1)), (32, (2, 1)),
                                       (64, (2, 1)), (9, (6, 1)), (27, (6, 1)), (25, (20, 1)),
                                       (49, (42, 1))])
    def test_ground_field_default_moduli(self, q, ext):
        # x - g for the least generator g of GF(q)*
        assert ground_field(q).ext_modulus == ext

    @pytest.mark.parametrize("p,k,m,ext", [(2, 2, 2, (2, 1, 1)), (2, 3, 2, (2, 2, 1)),
                                           (3, 2, 2, (3, 3, 1)), (2, 2, 4, (2, 0, 1, 1, 1)),
                                           (3, 2, 3, (3, 0, 3, 1))])
    def test_tower_default_moduli(self, p, k, m, ext):
        assert make_field(p, k, m).ext_modulus == ext

    def test_default_field_tabulates_its_base_once(self, monkeypatch):
        # a fresh GF(2^16): one walk of x builds its tables and proves its moduli
        calls = []
        walk = FieldSpec._build_log_tables
        monkeypatch.setattr(FieldSpec, "_build_log_tables",
                            lambda *args: calls.append(args) or walk(*args))
        monkeypatch.setattr(fields, "_make_field_cached", fields._make_field_cached.__wrapped__)
        assert make_field(2, 16, 1).ext_modulus == (2, 1)
        assert len(calls) == 1

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


def walked_tables(p, k, ext):
    """GF(p^k)'s exp/log pair under the degree-1 modulus ``ext``, by
    stepping through the powers of its root x in polynomial arithmetic;
    None if x does not generate."""
    q = p ** k
    R = ReferenceField(SimpleNamespace(p=p, k=k, m=1, order=q, ext_modulus=ext,
                                       base_modulus=fields._default_prime_poly(p, k)))
    x, exp = R.neg(ext[0]), [1]
    while len(exp) < q - 1:
        exp.append(R.mul(exp[-1], x))
    if len(set(exp)) < q - 1 or R.mul(exp[-1], x) != 1:
        return None
    log = [-1] * q
    for i, v in enumerate(exp):
        log[v] = i
    return tuple(exp), tuple(log)


class TestDegreeOneTables:
    """GF(q) as GF(q^1) walks the powers of x with GF(q) products and no
    degree-m shift table; it must equal the polynomial walk."""

    @pytest.mark.parametrize("q", [q for q in range(2, 244) if prime_power(q)])
    def test_default_modulus(self, q):
        F = ground_field(q)
        assert (F._exp, F._log) == walked_tables(F.p, F.k, F.ext_modulus)

    @pytest.mark.parametrize("q", [q for q in range(2, 28) if prime_power(q)])
    def test_every_degree_one_modulus(self, q):
        p, k = prime_power(q)
        base = fields._default_prime_poly(p, k)
        for r in range(q):
            ext = (ground_field(q).neg(r), 1)  # x - r
            want = walked_tables(p, k, ext)
            if want is None:
                with pytest.raises(NonPrimitiveModulus):
                    make_field(p, k, 1, moduli=(base, ext))
            else:
                F = make_field(p, k, 1, moduli=(base, ext))
                assert (F._exp, F._log) == want, (q, r)


def has_monic_divisor(f, elems, zero, add, mul):
    """True iff the monic f is a product of two monic polynomials of
    positive degree with coefficients in ``elems``: every pair is tried."""
    deg = len(f) - 1
    for j in range(1, deg // 2 + 1):
        for d in itertools.product(elems, repeat=j):
            for e in itertools.product(elems, repeat=deg - j):
                if poly_mul(d + (elems[1],), e + (elems[1],), zero, add, mul) == list(f):
                    return True
    return False


def reference_construction(p, k, m, base, ext):
    """What FieldSpec(p, k, m, base, ext) gives, by polynomial arithmetic
    over F_p and GF(q) = F_p[y] / base and a brute-force divisor search: the
    exp/log pair of the powers of x modulo ``ext``, or the class and message
    of the first refusal, in the order base modulus, ext modulus, then x
    not generating."""
    q, size = p ** k, p ** (k * m)
    fp = (0, lambda a, b: (a + b) % p, lambda a, b: a * b % p, lambda a: -a % p)
    if has_monic_divisor(base, range(p), *fp[:3]):
        return ReducibleModulus, f"base modulus {list(base)} reducible over F_{p}"
    elems = [tuple(v // p ** i % p for i in range(k)) for v in range(q)]
    gfq = (elems[0], lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
           lru_cache(maxsize=None)(lambda a, b: _poly_mulmod(a, b, base, *fp)),
           lambda a: tuple(-x % p for x in a))
    f = tuple(elems[c] for c in ext)
    if has_monic_divisor(f, elems, *gfq[:3]):
        return ReducibleModulus, f"ext modulus {list(ext)} reducible over F_{q}"

    def index(r):
        return sum(v * p ** (i * k + j) for i, c in enumerate(r) for j, v in enumerate(c))

    def times(a, b):
        r = _poly_mulmod(a, b, f, *gfq)
        return r + (elems[0],) * (m - len(r))

    x, power, exp = times((elems[0], elems[1]), (elems[1],)), times((elems[1],), (elems[1],)), []
    for i in range(size - 1):
        if index(power) in exp:
            return NonPrimitiveModulus, f"x has multiplicative order {i} < {size - 1} under {list(ext)}"
        exp.append(index(power))
        power = times(power, x)
    if index(power) != 1:
        return NonPrimitiveModulus, f"x does not return to 1 after {size - 1} steps"
    log = [-1] * size
    for i, v in enumerate(exp):
        log[v] = i
    return tuple(exp), tuple(log)


class TestConstructionAgainstReference:
    """Every monic pair of small moduli: FieldSpec accepts exactly the pairs
    the reference accepts, with its tables, and refuses the others with the
    reference's error and message.  The walk of x alone proves a modulus
    irreducible, so this checks that the refusals still name it."""

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
    def test_every_monic_pair(self, p, k):
        q = p ** k
        for base in itertools.product(range(p), repeat=k):
            for m in (1, 2, 3) if q <= 4 else (1, 2):
                for ext in itertools.product(range(q), repeat=m):
                    base_f, ext_f = base + (1,), ext + (1,)
                    want = reference_construction(p, k, m, base_f, ext_f)
                    if isinstance(want[0], type):
                        with pytest.raises(want[0]) as refusal:
                            FieldSpec(p, k, m, base_f, ext_f)
                        assert str(refusal.value) == want[1], (base_f, ext_f)
                    else:
                        F = FieldSpec(p, k, m, base_f, ext_f)
                        assert (F._exp, F._log) == want, (base_f, ext_f)


PRIMES = [p for p in range(2, 5001) if is_prime(p)]


class TestDefaultModulusSearch:
    """The order-of-x search against the direct one, which divides by every
    polynomial of up to half the degree and steps through the powers of x."""

    @pytest.mark.parametrize("p", [p for p in PRIMES if p * p <= 5000])
    def test_over_prime_fields(self, p):
        ops = fields._prime_ops(p)
        for d in range(1, 13):
            if p ** d <= 5000:
                assert fields._default_ext_poly(ops, p, d) == reference_default_ext_poly(ops, p, d)

    def test_linear_over_every_prime_field(self):
        for p in PRIMES:
            ops = fields._prime_ops(p)
            assert fields._default_ext_poly(ops, p, 1) == reference_default_ext_poly(ops, p, 1)

    @pytest.mark.parametrize("q,m", [(4, m) for m in range(1, 7)] + [(9, m) for m in (1, 2, 3)])
    def test_over_gf4_and_gf9(self, q, m):
        F = ground_field(q)
        ops = (F.add, F.mul, F.neg)
        assert fields._default_ext_poly(ops, q, m) == reference_default_ext_poly(ops, q, m)

    def test_degree_12_over_f3_in_seconds(self):
        # the direct search runs for minutes here
        script = "from qmatroids.fields import _default_prime_poly; print(_default_prime_poly(3, 12))"
        child = fresh_python("-c", script, timeout=20)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "(2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1)"


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

    def test_from_coeffs_refuses_floats(self, gf16):
        assert gf16.from_coeffs([1, 0, 1]) == 5
        with pytest.raises(TypeError):
            gf16.from_coeffs([1.5, 0])
        with pytest.raises(TypeError):
            make_field(3, 1, 2).from_coeffs([2.0])

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
            assert in_base_field(FieldElem(F, a)) == frobenius_fixed(FieldElem(F, a))


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


# ---------------------------------------------------------------------------
# every operation against polynomial arithmetic


# default towers along each construction path (tabled, searched, degree 1
# over GF(q), searched over GF(q)), GF(9) under the non-primitive base
# modulus x^2 + 1 (x has order 4) and GF(16) over the degree-1 base x
EXHAUSTIVE = {
    "gf16": (2, 1, 4), "gf16-base-x": (2, 1, 4, ((0, 1), (1, 1, 0, 0, 1))),
    "2-1-8": (2, 1, 8), "2-8-1": (2, 8, 1), "2-2-2": (2, 2, 2), "2-2-4": (2, 2, 4),
    "2-3-2": (2, 3, 2), "2-4-2": (2, 4, 2), "3-1-1": (3, 1, 1), "3-1-4": (3, 1, 4),
    "3-1-5": (3, 1, 5), "3-2-2": (3, 2, 2), "5-1-3": (5, 1, 3), "5-2-1": (5, 2, 1),
    "7-2-1": (7, 2, 1), "13-1-2": (13, 1, 2),
    "gf9-base-x2+1": (3, 2, 1, ((1, 0, 1), (8, 1))),
    "gf81-base-x2+1": (3, 2, 2, ((1, 0, 1), (4, 3, 1))),
}
SAMPLED = {"2-5-2": (2, 5, 2), "2-10-1": (2, 10, 1), "3-2-3": (3, 2, 3),
           "3-6-1": (3, 6, 1), "5-2-2": (5, 2, 2), "7-1-3": (7, 1, 3)}


class TestAgainstPolynomials:
    def test_base_ops_are_the_field_ops(self):
        assert FieldSpec.base_add is FieldSpec.add
        assert FieldSpec.base_mul is FieldSpec.mul
        assert FieldSpec.base_neg is FieldSpec.neg
        assert FieldSpec.base_inv is FieldSpec.inv

    @pytest.mark.parametrize("args", EXHAUSTIVE.values(), ids=EXHAUSTIVE.keys())
    def test_exhaustive(self, args):
        F = make_field(*args)
        assert F.order <= 256
        R, elems, n = ReferenceField(F), range(F.order), F.order - 1
        for a in elems:
            products = R.products(a)
            assert [F.add(a, b) for b in elems] == [R.add(a, b) for b in elems]
            assert [F.mul(a, b) for b in elems] == products
            assert F.neg(a) == R.neg(a)
            powers = [1]
            for _ in range(n):
                powers.append(products[powers[-1]])
            exponents = (0, 1, 2, F.p, F.q, n - 1, n, n + 1, 3 * n + 2)
            if a == 0:
                assert [F.pow(a, e) for e in exponents] == [1] + [0] * 8
                continue
            assert powers[n] == 1
            assert F.inv(a) == powers[n - 1]
            for e in exponents + (-1, -2, -n - 3):
                assert F.pow(a, e) == powers[e % n]
            if a < F.q:
                assert F.base_neg(a) == R.neg(a)
                assert F.base_inv(a) == powers[F.q - 2]
                assert [F.base_add(a, b) for b in range(F.q)] == [R.add(a, b) for b in range(F.q)]
                assert [F.base_mul(a, b) for b in range(F.q)] == products[:F.q]
                for j in range(-1, 2 * F.k):
                    assert F.base_frobenius(a, j) == powers[F.p ** (j % F.k) % n]
        assert F.omega_val == F.pow(F.omega_val, F.order)
        assert len({F.pow(F.omega_val, e) for e in range(n)}) == n

    @pytest.mark.parametrize("args", SAMPLED.values(), ids=SAMPLED.keys())
    def test_sampled(self, args):
        F = make_field(*args)
        assert F.order > 256
        R, rng = ReferenceField(F), random.Random(F.order)
        for _ in range(200):
            a, b = rng.randrange(F.order), rng.randrange(1, F.order)
            e = rng.randrange(-F.order, 2 * F.order)
            assert F.add(a, b) == R.add(a, b)
            assert F.neg(a) == R.neg(a)
            assert F.mul(a, b) == R.mul(a, b)
            assert R.mul(b, F.inv(b)) == 1
            assert F.pow(b, e) == R.pow(b, e % (F.order - 1))
            c, d = rng.randrange(F.q), rng.randrange(1, F.q)
            assert F.base_add(c, d) == R.add(c, d)
            assert F.base_mul(c, d) == R.mul(c, d)
            assert F.base_neg(c) == R.neg(c)
            assert R.mul(d, F.base_inv(d)) == 1
            j = rng.randrange(-1, 2 * F.k)
            assert F.base_frobenius(c, j) == R.pow(c, F.p ** (j % F.k))


def digitwise(a, b, p, sign=1):
    """a + sign * b by the definition: digit by digit mod p on base-p digits."""
    out, unit = 0, 1
    while a or b:
        out += (a % p + sign * (b % p)) % p * unit
        a, b, unit = a // p, b // p, unit * p
    return out


class TestDigitwise:
    """add and neg for odd p read blocks of as many base-p digits as fit a
    byte (P = p^B <= 256); both against the definition, on indices of one
    block, of two and of more."""

    @staticmethod
    def block(p):
        return max(p ** d for d in range(1, 9) if p ** d <= 256)

    @pytest.mark.parametrize("p,m", [(3, 6), (5, 4), (7, 3)])
    def test_every_pair_below_p_blocks(self, p, m):
        F = make_field(p, 1, m)
        assert F.order == p * self.block(p)
        elems = range(F.order)
        for a in elems:
            assert [F.add(a, b) for b in elems] == [digitwise(a, b, p) for b in elems]
            assert F.neg(a) == digitwise(0, a, p, -1)

    @pytest.mark.parametrize("p,m", [(3, 12), (5, 8), (7, 6)])
    def test_sampled_across_blocks(self, p, m):
        F, P, rng = make_field(p, 1, m), self.block(p), random.Random(p)
        edges = [0, 1, P - 1, P, P + 1, P * P - 1, P * P, P * P + P - 1, F.order - 1]
        for a in edges + [rng.randrange(F.order) for _ in range(200)]:
            assert F.neg(a) == digitwise(0, a, p, -1)
            for b in edges + [rng.randrange(F.order) for _ in range(20)]:
                assert F.add(a, b) == digitwise(a, b, p)


def test_ground_field_1024_in_little_memory():
    # a fresh process, so no cached table is reused: no q x q table is built
    script = ("import tracemalloc; from qmatroids.fields import ground_field; "
              "tracemalloc.start(); F = ground_field(1024); "
              "print(F.ext_modulus, tracemalloc.get_traced_memory()[1])")
    child = fresh_python("-c", script, timeout=60)
    assert child.returncode == 0, child.stderr
    out = child.stdout.split()
    assert out[:2] == ["(2,", "1)"]
    assert int(out[2]) < 1 << 20
