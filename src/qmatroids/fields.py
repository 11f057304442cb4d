"""Exact arithmetic in GF(q) and GF(q^m), q = p^k.

Elements are represented by integer indices.  An element of GF(q^m) with
coefficient vector (c_0, ..., c_{m-1}) over GF(q) in the power basis of the
designated primitive element omega has index sum(c_i * q**i).  Elements of
the base field GF(q) occupy the indices 0 .. q-1, so subfield data never
needs re-encoding.  Base-field elements are themselves indexed by their
F_p coefficient vectors (base-p digits) relative to ``base_modulus``.

Multiplication, inversion and powers go through log/antilog tables which
are built eagerly at construction (field sizes are capped at 2**20), so a
constructed FieldSpec is immutable and safe to share across threads.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
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


# ---------------------------------------------------------------------------
# Polynomial helpers over a small coefficient field given by operation tables.
# `ops` is a triple (add, mul, neg) of callables on integer indices.


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


class FieldSpec:
    """GF(q^m) with q = p^k, fixed moduli and primitive element omega.

    ``base_modulus`` (degree k over F_p) defines GF(q); ``ext_modulus``
    (degree m over GF(q)) must be primitive: its root omega generates the
    multiplicative group.  Both are validated at construction.
    """

    __slots__ = (
        "p", "k", "m", "q", "order", "base_modulus", "ext_modulus",
        "_badd", "_bmul", "_bneg", "_binv", "_exp", "_log", "_xm_red",
    )

    def __init__(self, p: int, k: int, m: int,
                 base_modulus: Sequence[int], ext_modulus: Sequence[int]):
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"p={p} is not prime")
        if k < 1 or m < 1:
            raise ValueError("k and m must be >= 1")
        self.p = p
        self.k = k
        self.m = m
        self.q = p ** k
        self.order = self.q ** m
        if self.order > MAX_FIELD_ORDER:
            raise NoDefaultModulus(
                f"field order {self.order} exceeds supported cap {MAX_FIELD_ORDER}")
        self.base_modulus = self._check_modulus(base_modulus, k, p, "base_modulus")
        self._build_base_tables()
        bops = (self.base_add, self.base_mul, self.base_neg)
        if not _poly_is_irreducible(self.base_modulus, p,
                                    (lambda a, b: (a + b) % p,
                                     lambda a, b: (a * b) % p,
                                     lambda a: (-a) % p)):
            raise ReducibleModulus(f"base modulus {list(self.base_modulus)} reducible over F_{p}")
        self.ext_modulus = self._check_modulus(ext_modulus, m, self.q, "ext_modulus")
        if not _poly_is_irreducible(self.ext_modulus, self.q, bops):
            raise ReducibleModulus(
                f"ext modulus {list(self.ext_modulus)} reducible over F_{self.q}")
        # x^m = -(f_0 + ... + f_{m-1} x^{m-1})
        self._xm_red = tuple(self.base_neg(c) for c in self.ext_modulus[:m])
        self._build_log_tables()

    @staticmethod
    def _check_modulus(coeffs, degree, size, name):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != degree + 1 or coeffs[-1] != 1:
            raise ValueError(f"{name} must be monic of degree {degree}: {list(coeffs)}")
        if any(c < 0 or c >= size for c in coeffs):
            raise ValueError(f"{name} coefficients must lie in [0, {size})")
        return coeffs

    # ---------------------------------------------------------- base field

    def _build_base_tables(self):
        p, k, q = self.p, self.k, self.q
        if k == 1:
            self._badd = None  # direct mod-p arithmetic
            self._bmul = None
            self._bneg = tuple((-a) % p for a in range(p))
            self._binv = tuple(pow(a, p - 2, p) if a else 0 for a in range(p))
            return
        mod = self.base_modulus

        def digits(v):
            out = []
            for _ in range(k):
                out.append(v % p)
                v //= p
            return out

        def undigits(ds):
            v = 0
            for d in reversed(ds):
                v = v * p + d
            return v

        pops = (lambda a, b: (a + b) % p, lambda a, b: (a * b) % p, lambda a: (-a) % p)
        add_t = [[0] * q for _ in range(q)]
        mul_t = [[0] * q for _ in range(q)]
        for a in range(q):
            da = digits(a)
            for b in range(q):
                db = digits(b)
                add_t[a][b] = undigits([(x + y) % p for x, y in zip(da, db)])
                mul_t[a][b] = undigits(_poly_mulmod(da, db, mod, pops))
        self._badd = tuple(tuple(r) for r in add_t)
        self._bmul = tuple(tuple(r) for r in mul_t)
        self._bneg = tuple(self._badd[a].index(0) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            inv[a] = self._bmul[a].index(1)
        self._binv = tuple(inv)

    def base_add(self, a: int, b: int) -> int:
        if self._badd is None:
            return (a + b) % self.p
        return self._badd[a][b]

    def base_mul(self, a: int, b: int) -> int:
        if self._bmul is None:
            return (a * b) % self.p
        return self._bmul[a][b]

    def base_neg(self, a: int) -> int:
        return self._bneg[a]

    def base_inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0 in base field")
        return self._binv[a]

    def base_frobenius(self, a: int, j: int = 1) -> int:
        """a^(p^j) on base-field indices; Aut(F_q) = {j = 0..k-1}."""
        for _ in range(j % self.k if self.k > 1 else 0):
            b = a
            for _ in range(self.p - 1):
                b = self.base_mul(b, a)
            a = b
        return a

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

    def _mul_by_x(self, val: int) -> int:
        q, m = self.q, self.m
        if m == 1:
            # x is the base-field element -f_0
            return self.base_mul(val, self._xm_red[0])
        cs = self.coeffs(val)
        top = cs[-1]
        shifted = (0,) + cs[:-1]
        if top == 0:
            return self.from_coeffs(shifted)
        out = [self.base_add(s, self.base_mul(top, r))
               for s, r in zip(shifted, self._xm_red)]
        return self.from_coeffs(out)

    def _build_log_tables(self):
        size = self.order
        exp = [0] * (size - 1) if size > 1 else [1]
        log = [-1] * size
        v = 1
        for i in range(size - 1):
            if log[v] != -1:
                raise NonPrimitiveModulus(
                    f"x has multiplicative order {i} < {size - 1} "
                    f"under {list(self.ext_modulus)}")
            exp[i] = v
            log[v] = i
            v = self._mul_by_x(v)
        if v != 1:
            raise NonPrimitiveModulus(
                f"x does not return to 1 after {size - 1} steps")
        self._exp = tuple(exp) if size > 1 else (1,)
        self._log = tuple(log)

    @property
    def omega_val(self) -> int:
        return self._exp[1 % max(self.order - 1, 1)]

    def add(self, a: int, b: int) -> int:
        if self.p == 2:  # indices are F_2 coefficient vectors
            return a ^ b
        if self.m == 1:
            return self.base_add(a, b)
        q = self.q
        out, mult = 0, 1
        for _ in range(self.m):
            out += self.base_add(a % q, b % q) * mult
            a //= q
            b //= q
            mult *= q
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return self.base_neg(a)
        q = self.q
        out, mult = 0, 1
        for _ in range(self.m):
            out += self.base_neg(a % q) * mult
            a //= q
            mult *= q
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

    # ------------------------------------------------------------- elements

    def elem(self, val: int) -> "FieldElem":
        if not 0 <= val < self.order:
            raise ValueError(f"element index {val} out of range for order {self.order}")
        return FieldElem(self, val)

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


def _default_prime_poly(p: int, d: int):
    """Table entry or lexicographically smallest primitive monic polynomial."""
    if (p, d) in _PRIM_POLYS:
        return _PRIM_POLYS[(p, d)]
    if p ** d > MAX_FIELD_ORDER:
        raise NoDefaultModulus(f"no default modulus for GF({p}^{d})")
    ops = (lambda a, b: (a + b) % p, lambda a, b: (a * b) % p, lambda a: (-a) % p)
    for tail in itertools.product(range(p), repeat=d):
        cand = list(tail) + [1]
        if cand[0] == 0 or not _poly_is_irreducible(cand, p, ops):
            continue
        if _order_of_x(cand, p, ops) == p ** d - 1:
            return tuple(cand)
    raise NoDefaultModulus(f"search found no primitive polynomial for GF({p}^{d})")


def _order_of_x(mod, size, ops):
    add, mul, neg = ops
    d = len(mod) - 1
    if d == 1:
        x = neg(mod[0])
        if x == 0:
            return 0
        o, v = 1, x
        while v != 1:
            v = mul(v, x)
            o += 1
        return o
    x = [0, 1] + [0] * (d - 2)
    cur = list(x)
    one = [1] + [0] * (d - 1)
    for i in range(1, size ** d):
        if cur == one:
            return i
        cur = _poly_mulmod(cur, x, mod, ops)
    return size ** d  # unreachable for irreducible mod


def _default_ext_poly(spec_q_ops, q: int, m: int):
    """Lexicographically smallest primitive monic degree-m poly over GF(q)."""
    for tail in itertools.product(range(q), repeat=m):
        cand = list(tail) + [1]
        if cand[0] == 0 or not _poly_is_irreducible(cand, q, spec_q_ops):
            continue
        if _order_of_x(cand, q, spec_q_ops) == q ** m - 1:
            return tuple(cand)
    raise NoDefaultModulus(f"no primitive degree-{m} polynomial over GF({q}) found")


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
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"p={p} is not prime")
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    if moduli is not None:
        base, ext = moduli
        return _make_field_cached(p, k, m, tuple(base), tuple(ext))
    if p ** (k * m) > MAX_FIELD_ORDER:
        raise NoDefaultModulus(f"no default modulus for GF({p}^{k * m})")
    base = _default_prime_poly(p, k)
    if k == 1:
        ext = _default_prime_poly(p, m)
    elif m == 1:
        ext = _default_prime_poly_over_base(p, k, base)
    else:
        # need the base tables to search for an extension modulus over GF(q)
        probe = FieldSpec(p, k, 1, base, _default_prime_poly_over_base(p, k, base))
        ops = (probe.base_add, probe.base_mul, probe.base_neg)
        ext = _default_ext_poly(ops, probe.q, m)
    return _make_field_cached(p, k, m, base, ext)


def _default_prime_poly_over_base(p, k, base):
    # degree-1 modulus x - g with g a generator of GF(q)*; found by search
    probe = FieldSpec.__new__(FieldSpec)
    probe.p, probe.k, probe.m, probe.q = p, k, 1, p ** k
    probe.order = probe.q
    probe.base_modulus = tuple(base)
    probe._build_base_tables()
    q = probe.q
    for g in range(2, q):
        o, v = 1, g
        while v != 1:
            v = probe.base_mul(v, g)
            o += 1
        if o == q - 1:
            return (probe.base_neg(g), 1)
    return (probe.base_neg(1), 1)  # q = 2


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
