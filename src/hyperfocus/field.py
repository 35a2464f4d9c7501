"""Arithmetic in GF(2^s) on integer-encoded elements.

An element is an int in [0, 2^s): bit i holds the coefficient of w^i, where
w is the class of x modulo the defining polynomial.  Addition is xor.
Multiplication runs through exp/log tables built once per field; the exp
table is doubled so a product needs no modular reduction of the log sum.
The generator w (encoded as 2) must be primitive, which construction
verifies, so discrete logs are defined for every nonzero element.
`tables` gives the same logs and powers as numpy arrays, built once per
field on first use, for the kernels that work on whole arrays.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np


class FieldError(ValueError):
    """Invalid field construction."""


class ReducibleModulus(FieldError):
    """The defining polynomial factors over GF(2)."""


class NonPrimitive(FieldError):
    """The defining polynomial is irreducible but x does not generate
    the multiplicative group."""


# One primitive polynomial per supported degree, as a bitmask with bit i the
# coefficient of x^i.  Degree 5 gives x^5 + x^2 + 1 = 0x25.
DEFAULT_MODULI = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}

MIN_DEGREE = 2
MAX_DEGREE = 16


def poly_degree(p: int) -> int:
    """Degree of a GF(2) polynomial bitmask (-1 for the zero polynomial)."""
    return p.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of GF(2) polynomial a modulo b (b != 0)."""
    db = poly_degree(b)
    while poly_degree(a) >= db:
        a ^= b << (poly_degree(a) - db)
    return a


def poly_mulmod(a: int, b: int, modulus: int) -> int:
    """Carry-less product of a and b, reduced modulo the given polynomial."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
    return poly_mod(acc, modulus)


def is_irreducible(modulus: int) -> bool:
    """Trial division by every polynomial of degree 1..deg/2."""
    s = poly_degree(modulus)
    if s < 1:
        return False
    for g in range(2, 1 << (s // 2 + 1)):
        if poly_mod(modulus, g) == 0:
            return False
    return True


class GF:
    """The field GF(2^s), with q = 2^s elements encoded as ints.

    Do not call directly unless the modulus is known good; make_field
    validates degree, irreducibility and primitivity.
    """

    __slots__ = ("s", "q", "modulus", "exp", "log", "_sq")

    def __init__(self, s: int, modulus: int):
        self.s = s
        self.q = 1 << s
        self.modulus = modulus
        self._init_tables()

    def _init_tables(self) -> None:
        q = self.q
        # exp holds w^i for i in [0, 2(q-1)) so mul can skip the mod.
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        v = 1
        for i in range(q - 1):
            if v == 1 and i > 0:
                raise NonPrimitive(
                    f"0x{self.modulus:X}: x has order {i}, not {q - 1}"
                )
            exp[i] = v
            exp[i + q - 1] = v
            log[v] = i
            v = poly_mulmod(v, 2, self.modulus)
        if v != 1:
            # Only possible if the modulus was not irreducible.
            raise ReducibleModulus(f"0x{self.modulus:X} is not irreducible")
        self.exp = exp
        self.log = log
        # Squaring table: drives frobenius without recomputing logs.
        self._sq = [0] + [exp[(2 * log[a]) % (q - 1)] for a in range(1, q)]

    # --- arithmetic -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^s)")
        return self.exp[self.q - 1 - self.log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by 0 in GF(2^s)")
        if a == 0:
            return 0
        return self.exp[self.log[a] + self.q - 1 - self.log[b]]

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(2^i); i may be any int, acting as i mod s squarings."""
        for _ in range(i % self.s):
            a = self._sq[a]
        return a

    # --- element access -------------------------------------------------

    @property
    def omega(self) -> int:
        """The primitive element w (the class of x)."""
        return 2

    def element(self, power: int) -> int:
        """w^power."""
        return self.exp[power % (self.q - 1)]

    def dlog(self, a: int) -> int:
        """Discrete log base w of a nonzero element."""
        if a == 0:
            raise ZeroDivisionError("log of 0 in GF(2^s)")
        return self.log[a]

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    def __repr__(self) -> str:
        return f"GF(2^{self.s}, modulus=0x{self.modulus:X})"


class Tables:
    """Per-field numpy lookup arrays for batched arithmetic.

    log sends 0 to the sentinel 2(q-1); exp is zero from there on, so a
    sum of two logs involving 0 (at most 4(q-1)) reads back 0, and
    exp[log a + log b] is the product a*b for all a, b.  frob[i] sends an
    element to its 2^i-th power.  uint16 holds every element and log sum
    up to q = 256, uint32 beyond; a value that mixes elements into a
    point or line index (up to q^2 + q) must be widened to int64 first.
    Gather from these tables with `take`, which numpy runs about three
    times faster than the same integer-array indexing.
    """

    __slots__ = ("log", "exp", "frob")

    def __init__(self, gf: GF):
        q = gf.q
        dtype = np.uint16 if gf.s <= 8 else np.uint32
        self.log = np.array([2 * (q - 1)] + gf.log[1:], dtype=dtype)
        self.exp = np.zeros(4 * q, dtype=dtype)
        self.exp[: 2 * (q - 1)] = gf.exp
        self.frob = np.array(
            [[gf.frobenius(a, i) for a in range(q)] for i in range(gf.s)],
            dtype=dtype,
        )

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a*b."""
        return self.exp.take(self.log.take(a) + self.log.take(b))

    def div(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a/b; every b must be nonzero."""
        return self.exp.take(self.log.take(a) + (len(self.log) - 1 - self.log.take(b)))


_TABLES: Dict[Tuple[int, int], Tables] = {}


def tables(gf: GF) -> Tables:
    """The field's numpy tables, built on the first call."""
    key = (gf.s, gf.modulus)
    tab = _TABLES.get(key)
    if tab is None:
        tab = _TABLES[key] = Tables(gf)
    return tab


def make_field(s: int, modulus: int | None = None) -> GF:
    """Build GF(2^s), validating the modulus.

    Raises FieldError for an out-of-range degree or wrong-degree modulus,
    ReducibleModulus / NonPrimitive for a bad polynomial.
    """
    if not MIN_DEGREE <= s <= MAX_DEGREE:
        raise FieldError(f"degree {s} outside supported range "
                         f"[{MIN_DEGREE}, {MAX_DEGREE}]")
    if modulus is None:
        modulus = DEFAULT_MODULI[s]
    if poly_degree(modulus) != s:
        raise FieldError(
            f"modulus 0x{modulus:X} has degree {poly_degree(modulus)}, expected {s}"
        )
    if not is_irreducible(modulus):
        raise ReducibleModulus(f"0x{modulus:X} is not irreducible")
    return GF(s, modulus)
