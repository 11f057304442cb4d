"""Exact arithmetic in GF(q) and GF(q^m), q = p^k.

Elements are represented by integer indices.  An element of GF(q^m) with
coefficient vector (c_0, ..., c_{m-1}) over GF(q) in the power basis of the
designated primitive element omega has index sum(c_i * q**i).  Elements of
the base field GF(q) occupy the indices 0 .. q-1, so subfield data never
needs re-encoding.  Base-field elements are themselves indexed by their
F_p coefficient vectors (base-p digits) relative to ``base_modulus``.

So an index is a vector of base-p digits, and addition and negation work
digit by digit mod p (XOR when p = 2): exactly right for base elements,
extension elements and the codes of vectors of F_q^n alike.  For odd p
both read tables per p, once per block of as many digits as fit a byte.
Multiplication, inversion, powers and Frobenius go through one exp/log
pair, the powers of omega, built eagerly at construction (field sizes are
capped at 2**20) by multiplying by x.  Each product in GF(q) needed on
the way is one polynomial step over F_p modulo ``base_modulus``, and the
one walk of x proves both moduli irreducible.  The ``base_*``
operations are the same functions as ``add``, ``mul``, ``neg`` and
``inv``.  A constructed FieldSpec is immutable and safe to share across
threads.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from math import isqrt
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (
    DivisionByZero,
    ExtensionRequired,
    FieldMismatch,
    NoDefaultModulus,
    NonPrimeCharacteristic,
    NonPrimitiveModulus,
    ReducibleModulus,
)

MAX_FIELD_ORDER = 1 << 20

# Primitive polynomials (little-endian coefficient lists, monic) for the
# built-in defaults.  Each one is verified at construction time, so a bad
# entry cannot survive silently.  x^4+x+1 is the GF(16) default; every
# reproduction involving omega is relative to that choice.
_PRIM_POLYS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def over_field_cap(p: int, k: int, m: int) -> bool:
    """True iff p^(k*m) exceeds the field-order cap, for p >= 2 and k, m >= 1:
    a k*m at or past the cap's bit length says so without building a huge
    power."""
    return p >= 2 and k >= 1 and m >= 1 and (
        k * m >= MAX_FIELD_ORDER.bit_length() or p ** (k * m) > MAX_FIELD_ORDER)


def _check_parameters(p: int, k: int, m: int, over_cap: str):
    """Refuse an order p^(k*m) above the cap first: trial division of a
    large p would run for hours.  Then refuse a non-prime p, then k or m
    below 1."""
    if over_field_cap(p, k, m):
        raise NoDefaultModulus(over_cap)
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"p={p} is not prime")
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")


# ---------------------------------------------------------------------------
# Polynomial helpers over a small coefficient field given by its operations.
# `ops` is a triple (add, mul, neg) of callables on integer indices.


def _prime_ops(p: int):
    return (lambda a, b: (a + b) % p, lambda a, b: (a * b) % p, lambda a: (-a) % p)


def _poly_mulmod(a, b, mod, ops):
    add, mul, neg = ops
    deg = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = add(res[i + j], mul(ai, bj))
    # reduce modulo the monic polynomial `mod`
    for top in range(len(res) - 1, deg - 1, -1):
        lead = res[top]
        if lead:
            res[top] = 0
            for i in range(deg):
                res[top - deg + i] = add(res[top - deg + i], neg(mul(lead, mod[i])))
    res = res[:deg]
    res += [0] * (deg - len(res))
    return res


def _poly_rem_is_zero(dividend, divisor, ops):
    add, mul, neg = ops
    # divisor monic; returns True iff divisor | dividend
    rem = list(dividend)
    dd = len(divisor) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - dd
            for i in range(dd + 1):
                rem[shift + i] = add(rem[shift + i], neg(mul(lead, divisor[i])))
        rem.pop()
    return not any(rem)


def _poly_is_irreducible(coeffs, size, ops) -> bool:
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(size), repeat=d):
            if _poly_rem_is_zero(coeffs, list(tail) + [1], ops):
                return False
    return True


def _digits(v: int, p: int, k: int):
    out = []
    for _ in range(k):
        v, d = divmod(v, p)
        out.append(d)
    return out


def _undigits(ds, p: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


class _Computed(partial):
    """table[i] = func(*args, i), computed on each read: too large to hold."""

    __getitem__ = partial.__call__


def byte_blocks(one, blocks: bool):
    """(size, rows) for a table of bytes ``one`` on single digits: rows[a][b]
    applies it digit by digit to the blocks b < size of the most digits that
    fit a byte, a being such a block if ``blocks``, else one digit."""
    base = size = len(one)
    rows = one
    while size * base <= 256:  # a top digit more: shifted copies of the shorter rows
        plus = [bytes(range(c, 256)) + bytes(range(c)) for c in range(0, size * base, size)]
        pairs = itertools.product(one, rows) if blocks else zip(one, rows)
        rows = [b"".join([row.translate(plus[d]) for d in ds]) for ds, row in pairs]
        size *= base
    return size, rows


@lru_cache(maxsize=None)
def _digit_tables(p: int):
    """(P, sums, negs) for an odd prime p: sums[x][y] is the digit-wise sum
    mod p of blocks x, y < P and negs[x] the digit-wise negative of x; for
    p > 256 a block is one digit, computed on reading."""
    if p > 256:
        return p, _Computed(_Computed, lambda x, y: (x + y) % p), _Computed(lambda x: -x % p)
    P, sums = byte_blocks([bytes((a + b) % p for b in range(p)) for a in range(p)], True)
    return P, sums, bytes(row.index(0) for row in sums)


class FieldSpec:
    """GF(q^m) with q = p^k, fixed moduli and primitive element omega.

    ``base_modulus`` (degree k over F_p) defines GF(q); ``ext_modulus``
    (degree m over GF(q)) must be primitive: its root omega generates the
    multiplicative group.  The one walk of x validates both.
    """

    __slots__ = ("p", "k", "m", "q", "order", "base_modulus", "ext_modulus",
                 "_exp", "_log", "_block", "_sums", "_negs")

    def __init__(self, p: int, k: int, m: int,
                 base_modulus: Sequence[int], ext_modulus: Sequence[int]):
        _check_parameters(p, k, m,
                          f"field order {p}^{k * m} exceeds supported cap {MAX_FIELD_ORDER}")
        self.p = p
        self.k = k
        self.m = m
        self._block, self._sums, self._negs = _digit_tables(p) if p > 2 else (0, None, None)
        self.q = q = p ** k
        self.order = q ** m
        self.base_modulus = base = self._check_modulus(base_modulus, k, p, "base_modulus")
        ops = _prime_ops(p)

        def bmul(a, b):  # a * b in GF(q): one polynomial step over F_p mod base
            return _undigits(_poly_mulmod(_digits(a, p, k), _digits(b, p, k), base, ops), p)

        def multiples(r, start, stop):
            # table[a] = r * a * y^start in GF(q) = F_p[y] / base, for each
            # a < p^(stop - start), by sums of the r * y^i, start <= i < stop
            table = [0]
            for i in range(start, stop):
                size, step = len(table), bmul(r, p ** i)
                for _ in range(1, p):
                    table.extend([self.add(step, w) for w in table[-size:]])
            return table

        try:
            self.ext_modulus = ext = self._check_modulus(ext_modulus, m, q, "ext_modulus")
            r = self.neg(ext[0])
            if m == 1 and k == 1:  # x + f_0: x times v is v * r in F_p, r = -f_0

                def times_x(v):
                    return v * r % p
            elif m == 1:  # v * r in GF(q) is F_p-linear in the digits of v
                h = p ** (k // 2)
                low, high = multiples(r, 0, k // 2), multiples(r, k // 2, k)

                def times_x(v):  # v * r: its low k // 2 digits, then the rest
                    return self.add(low[v % h], high[v // h])
            else:
                # x * (c_0 + ... + c_{m-1} x^{m-1}) shifts the c_i up one
                # place and adds c_{m-1} x^m = c_{m-1} * -(f_0 + ... + f_{m-1} x^{m-1})
                xm = [self.neg(f) for f in ext[:m]]
                high = q ** (m - 1)
                top_times_xm = [self.from_coeffs([bmul(t, c) for c in xm]) for t in range(q)]

                def times_x(v):
                    return self.add(v % high * q, top_times_xm[v // high])
            self._build_log_tables(times_x)
        except (ValueError, NonPrimitiveModulus) as refusal:
            # q^m - 1 distinct powers of x that return to 1 are every nonzero
            # residue, all units, so both quotients are fields and both
            # moduli irreducible.  A refusal names a reducible modulus first,
            # base before ext; a malformed ext modulus gets the base test only.
            if not _poly_is_irreducible(base, p, ops):
                raise ReducibleModulus(
                    f"base modulus {list(base)} reducible over F_{p}") from None
            if (isinstance(refusal, NonPrimitiveModulus)
                    and not _poly_is_irreducible(ext, q, (self.add, bmul, self.neg))):
                raise ReducibleModulus(f"ext modulus {list(ext)} reducible over F_{q}") from None
            raise

    @staticmethod
    def _check_modulus(coeffs, degree, size, name):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != degree + 1 or coeffs[-1] != 1:
            raise ValueError(f"{name} must be monic of degree {degree}: {list(coeffs)}")
        if any(c < 0 or c >= size for c in coeffs):
            raise ValueError(f"{name} coefficients must lie in [0, {size})")
        return coeffs

    def _build_log_tables(self, times_x):
        """exp and log of omega = x by stepping with ``times_x`` from 1:
        refused unless q^m - 1 distinct powers return to 1."""
        size = self.order
        exp, log = [0] * (size - 1), [-1] * size
        v = 1
        for i in range(size - 1):
            if log[v] != -1:
                raise NonPrimitiveModulus(
                    f"x has multiplicative order {i} < {size - 1} "
                    f"under {list(self.ext_modulus)}")
            exp[i] = v
            log[v] = i
            v = times_x(v)
        if v != 1:
            raise NonPrimitiveModulus(
                f"x does not return to 1 after {size - 1} steps")
        self._exp = tuple(exp)
        self._log = tuple(log)

    # ------------------------------------------------------- extension field

    def coeffs(self, val: int):
        """Coefficient vector over GF(q), little-endian, length m."""
        q, out = self.q, []
        for _ in range(self.m):
            out.append(val % q)
            val //= q
        return tuple(out)

    def from_coeffs(self, cs: Iterable[int]) -> int:
        cs = list(cs)
        if len(cs) > self.m or any(c < 0 or c >= self.q for c in cs):
            raise ValueError(f"bad coefficient vector {cs} for GF({self.q}^{self.m})")
        val = 0
        for c in reversed(cs):
            val = val * self.q + c
        return val

    @property
    def omega_val(self) -> int:
        return self._exp[1 % max(self.order - 1, 1)]

    def add(self, a: int, b: int) -> int:
        """Digit by digit mod p on the base-p digits of the indices: XOR for
        p = 2, else one read of the table of p per block of digits."""
        if self.p == 2:
            return a ^ b
        P, sums = self._block, self._sums
        if a < P and b < P:
            return sums[a][b]
        out, unit = 0, 1
        while a or b:
            out += sums[a % P][b % P] * unit
            a, b, unit = a // P, b // P, unit * P
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        P, negs = self._block, self._negs
        out, unit = 0, 1
        while a:
            out += negs[a % P] * unit
            a, unit = a // P, unit * P
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] + self._log[b]) % n]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        n = self.order - 1
        return self._exp[(n - self._log[a]) % n]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of 0")
            return 0
        n = max(self.order - 1, 1)
        return self._exp[(self._log[a] * e) % n]

    # GF(q) is the indices below q, closed under all four operations
    base_add = add
    base_mul = mul
    base_neg = neg
    base_inv = inv

    def base_frobenius(self, a: int, j: int = 1) -> int:
        """a^(p^j) on base-field indices; Aut(F_q) = {j = 0..k-1}."""
        return self.pow(a, self.p ** (j % self.k))

    # ------------------------------------------------------------- elements

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    @property
    def omega(self) -> "FieldElem":
        return FieldElem(self, self.omega_val)

    def __repr__(self):
        return (f"FieldSpec(p={self.p}, k={self.k}, m={self.m}, "
                f"base={list(self.base_modulus)}, ext={list(self.ext_modulus)})")

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.m) == (other.p, other.k, other.m)
                and self.base_modulus == other.base_modulus
                and self.ext_modulus == other.ext_modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.m, self.base_modulus, self.ext_modulus))


class FieldElem:
    """Immutable element of a FieldSpec, wrapping an integer index."""

    __slots__ = ("spec", "val")

    def __init__(self, spec: FieldSpec, val: int):
        self.spec = spec
        self.val = val

    @property
    def coeffs(self):
        return self.spec.coeffs(self.val)

    def _check(self, other: "FieldElem"):
        if not isinstance(other, FieldElem):
            raise TypeError(f"expected FieldElem, got {type(other)!r}")
        if other.spec != self.spec:
            raise FieldMismatch("operands belong to different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElem(self.spec, self.spec.add(self.val, other.val))

    def __sub__(self, other):
        self._check(other)
        return FieldElem(self.spec, self.spec.sub(self.val, other.val))

    def __neg__(self):
        return FieldElem(self.spec, self.spec.neg(self.val))

    def __mul__(self, other):
        self._check(other)
        return FieldElem(self.spec, self.spec.mul(self.val, other.val))

    def __truediv__(self, other):
        self._check(other)
        return FieldElem(self.spec, self.spec.mul(self.val, self.spec.inv(other.val)))

    def __pow__(self, e: int):
        return FieldElem(self.spec, self.spec.pow(self.val, e))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.spec, self.spec.inv(self.val))

    def __eq__(self, other):
        return (isinstance(other, FieldElem)
                and other.spec == self.spec and other.val == self.val)

    def __hash__(self):
        return hash((self.spec, self.val))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"FieldElem({self.val}={list(self.coeffs)} in GF({self.spec.q}^{self.spec.m}))"


# ---------------------------------------------------------------------------
# Construction


def _prime_factors(n: int):
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _has_order(a, order: int, mul, one) -> bool:
    """True iff a has multiplicative order ``order`` under ``mul``: a^order
    is ``one`` and a^(order/r) is not, for each prime r dividing it.
    Each power is taken by square and multiply."""
    def power(e):
        out, b = one, a
        while e:
            if e & 1:
                out = mul(out, b)
            b, e = mul(b, b), e >> 1
        return out

    return power(order) == one and all(power(order // r) != one
                                       for r in _prime_factors(order))


def _default_ext_poly(ops, q: int, m: int):
    """Lexicographically smallest primitive monic degree-m polynomial over
    the field of order q whose operations are ``ops``, read from the
    constant term up.

    A candidate is primitive iff x has order q^m - 1 modulo it, which also
    makes it irreducible: its q^m - 1 powers are then every nonzero
    residue.  The norm (-1)^m c_0 of a primitive root generates GF(q)*,
    so a constant term c_0 for which it does not is skipped unpowered.
    """
    _, mul, neg = ops
    norm = neg if m % 2 else (lambda c: c)
    one = [1] + [0] * (m - 1)
    for c0 in range(1, q):
        if not _has_order(norm(c0), q - 1, mul, 1):
            continue
        for middle in itertools.product(range(q), repeat=m - 1):
            cand = [c0, *middle, 1]

            def mulmod(a, b):
                return _poly_mulmod(a, b, cand, ops)

            if _has_order(mulmod([0, 1], one), q ** m - 1, mulmod, one):
                return tuple(cand)
    raise NoDefaultModulus(f"no primitive degree-{m} polynomial over GF({q}) found")


def _default_prime_poly(p: int, d: int):
    """Table entry or lexicographically smallest primitive monic polynomial."""
    return _PRIM_POLYS.get((p, d)) or _default_ext_poly(_prime_ops(p), p, d)


@lru_cache(maxsize=None)
def _make_field_cached(p, k, m, base_modulus, ext_modulus):
    return FieldSpec(p, k, m, base_modulus, ext_modulus)


def make_field(p: int, k: int = 1, m: int = 1,
               moduli: Optional[tuple] = None) -> FieldSpec:
    """Build GF((p^k)^m).

    ``moduli`` is an optional pair (base_modulus, ext_modulus) of
    little-endian coefficient lists.  When omitted, built-in defaults are
    used for p^(k*m) <= 2^20; larger fields raise NoDefaultModulus.
    """
    if moduli is not None:
        base, ext = moduli
        return _make_field_cached(p, k, m, tuple(base), tuple(ext))
    _check_parameters(p, k, m, f"no default modulus for GF({p}^{k * m})")
    base = _default_prime_poly(p, k)
    if k == 1:
        ext = _default_prime_poly(p, m)
    elif m == 1:
        # x - g for the least generator g of GF(q)*: the default base
        # modulus is primitive, so g is x, index p, the least index outside
        # F_p, and -g has index (p - 1) * p (FieldSpec refuses the modulus
        # if x does not generate)
        ext = ((p - 1) * p, 1)
    else:
        F = make_field(p, k, 1)  # GF(q) under the same base modulus
        ext = _default_ext_poly((F.add, F.mul, F.neg), F.q, m)
    return _make_field_cached(p, k, m, base, ext)


def prime_power(q: int) -> Optional[Tuple[int, int]]:
    """(p, k) with q = p^k for a prime p, or None if q is not a prime power.

    Trial division: about sqrt(q) steps when q is prime.
    """
    if q < 2:
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


@lru_cache(maxsize=None)
def ground_field(q: int) -> FieldSpec:
    """GF(q) with m = 1, for ground-space scalar arithmetic."""
    pk = prime_power(q)
    if pk is None:
        raise NonPrimeCharacteristic(f"q={q} is not a prime power")
    return make_field(pk[0], pk[1], 1)


# ---------------------------------------------------------------------------
# operations on a FieldSpec


def primitive_power(spec: FieldSpec, i: int) -> FieldElem:
    """omega^i, with i reduced modulo q^m - 1."""
    n = max(spec.order - 1, 1)
    return FieldElem(spec, spec._exp[i % n])


def in_base_field(a: FieldElem) -> bool:
    """True iff a lies in the image of GF(q) inside GF(q^m)."""
    return a.val < a.spec.q


def omega_index_set(spec: FieldSpec) -> frozenset:
    """The exponents i in {1,...,q^m-2} with omega^i outside the base field.

    These are the i not divisible by (q^m-1)/(q-1).  Every returned i is
    cross-checked against in_base_field.
    """
    if spec.m < 2:
        raise ExtensionRequired("omega_index_set needs m >= 2")
    q, n = spec.q, spec.order - 1
    step = n // (q - 1)
    omega = frozenset(i for i in range(1, n) if i % step != 0)
    for i in omega:
        if in_base_field(primitive_power(spec, i)):
            raise AssertionError(f"omega^{i} unexpectedly lies in the base field")
    return omega
