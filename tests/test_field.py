"""Field arithmetic against slow polynomial oracles and the field axioms."""

import random

import pytest

from hyperfocus.field import (
    DEFAULT_MODULI,
    GF,
    FieldError,
    NonPrimitive,
    ReducibleModulus,
    make_field,
    poly_degree,
    poly_mod,
)


def slow_mul(a: int, b: int, modulus: int) -> int:
    """Schoolbook carry-less multiply + reduction, no tables."""
    acc = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            acc ^= a << i
    db = poly_degree(modulus)
    while poly_degree(acc) >= db:
        acc ^= modulus << (poly_degree(acc) - db)
    return acc


def slow_irreducible(modulus: int) -> bool:
    """Check no polynomial of degree 1..s-1 divides the modulus."""
    s = poly_degree(modulus)
    for g in range(2, 1 << s):
        if poly_degree(g) < 1:
            continue
        if poly_mod(modulus, g) == 0:
            return False
    return True


def test_mul_matches_slow_oracle_exhaustive_q32():
    gf = make_field(5)
    for a in range(32):
        for b in range(32):
            assert gf.mul(a, b) == slow_mul(a, b, 0x25)


def test_mul_matches_slow_oracle_sampled():
    rng = random.Random(7)
    for s in (3, 4, 6, 8, 11):
        gf = make_field(s)
        for _ in range(500):
            a = rng.randrange(gf.q)
            b = rng.randrange(gf.q)
            assert gf.mul(a, b) == slow_mul(a, b, gf.modulus)


def test_worked_examples_q32():
    gf = make_field(5, 0x25)
    # w^4 * w = w^5 = w^2 + 1
    assert gf.mul(0x10, 0x02) == 0x05
    w = 1
    for i in range(1, 32):  # w has multiplicative order 31
        w = gf.mul(w, 2)
        assert (w == 1) == (i == 31)
    assert gf.frobenius(2, 1) == 4
    assert gf.inv(1) == 1
    assert gf.mul(gf.inv(0x13), 0x13) == 1


def test_exp_log_roundtrip():
    for s in (2, 3, 5, 8):
        gf = make_field(s)
        for a in range(1, gf.q):
            assert gf.exp[gf.log[a]] == a
        for i in range(gf.q - 1):
            assert gf.log[gf.exp[i]] == i
        assert gf.element(0) == 1
        assert gf.element(1) == gf.omega


def test_field_axioms_random_triples():
    # 10^4 random triples per degree: associativity, distributivity,
    # commutativity, inverses.  Addition is xor, so its axioms hold by
    # construction and only its interplay with mul is checked.
    for s in (2, 3, 4, 5):
        gf = make_field(s)
        rng = random.Random(1000 + s)
        for _ in range(10_000):
            a = rng.randrange(gf.q)
            b = rng.randrange(gf.q)
            c = rng.randrange(gf.q)
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.mul(a, gf.mul(b, c)) == gf.mul(gf.mul(a, b), c)
            assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
            assert gf.mul(a, 1) == a
            if a:
                assert gf.mul(a, gf.inv(a)) == 1
                assert gf.div(b, a) == gf.mul(b, gf.inv(a))


def test_frobenius_is_additive_and_multiplicative():
    for s in (3, 5):
        gf = make_field(s)
        rng = random.Random(s)
        for _ in range(2000):
            a = rng.randrange(gf.q)
            b = rng.randrange(gf.q)
            i = rng.randrange(0, 3 * s)
            fa = gf.frobenius(a, i)
            fb = gf.frobenius(b, i)
            assert gf.frobenius(a ^ b, i) == fa ^ fb
            assert gf.frobenius(gf.mul(a, b), i) == gf.mul(fa, fb)
        # order of the automorphism group
        for a in gf.elements():
            assert gf.frobenius(a, s) == a
            assert gf.frobenius(a, 1) == gf.mul(a, a)


def test_division_by_zero():
    gf = make_field(2)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        gf.dlog(0)


def test_reducible_modulus_rejected():
    # x^5 + 1 = (x+1)(x^4+x^3+x^2+x+1)
    with pytest.raises(ReducibleModulus):
        make_field(5, 0x21)
    assert not slow_irreducible(0x21)


def test_irreducible_but_nonprimitive_rejected():
    # x^4+x^3+x^2+x+1 divides x^5+1, so x has order 5 < 15.
    assert slow_irreducible(0x1F)
    with pytest.raises(NonPrimitive):
        make_field(4, 0x1F)


def test_degree_validation():
    with pytest.raises(FieldError):
        make_field(1)
    with pytest.raises(FieldError):
        make_field(17)
    with pytest.raises(FieldError):
        make_field(5, 0x13)  # degree-4 modulus for s=5


def test_default_moduli_all_valid():
    for s, m in DEFAULT_MODULI.items():
        gf = make_field(s)
        assert gf.modulus == m
        assert gf.q == 1 << s
        assert gf.mul(gf.exp[gf.q - 2], 2) == 1  # w^(q-2) * w = 1


def test_irreducibility_oracle_agreement():
    # Compare the fast trial division bound (deg/2) with the full one.
    from hyperfocus.field import is_irreducible

    for p in range(4, 1 << 7):
        assert is_irreducible(p) == slow_irreducible(p)
