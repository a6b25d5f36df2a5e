"""Coefficient rings: axioms, normalization, and the spec parser."""

from fractions import Fraction

import pytest

from steinalg import (InputError, IntegerRing, IntegersMod, RationalRing,
                      ring_from_spec)
from steinalg.sampling import rng_from_seed
from tests.conftest import ring_axioms_hold


@pytest.mark.parametrize("ring", [IntegerRing(), RationalRing(),
                                  IntegersMod(2), IntegersMod(4), IntegersMod(7)])
def test_axioms(ring):
    assert ring_axioms_hold(ring, rng_from_seed(0))


def test_selftest_reports_a_broken_axiom():
    # A plain False, not an assertion, so the check also runs under -O.
    class OffByOne(IntegerRing):
        def add(self, a, b):
            return a + b + 1

    assert ring_axioms_hold(OffByOne(), rng_from_seed(0)) is False


def test_mod_normalizes():
    ring = IntegersMod(4)
    assert ring.add(3, 3) == 2
    assert ring.negate(1) == 3
    assert ring.mul(2, 2) == 0
    assert ring.from_int(-1) == 3
    assert ring.one() == 1 and ring.zero() == 0


def test_mod_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        IntegersMod(1)


@pytest.mark.parametrize("modulus", [4.0, "7", True, Fraction(4), None])
def test_mod_rejects_a_modulus_that_is_not_an_int(modulus):
    """A float modulus used to be accepted and stored floats; a string
    leaked a TypeError."""
    with pytest.raises(InputError):
        IntegersMod(modulus)


@pytest.mark.parametrize("ring,value,zero", [
    (RationalRing(), Fraction(0, 5), True), (RationalRing(), Fraction(0), True),
    (RationalRing(), Fraction(-3, 5), False), (RationalRing(), Fraction(4, 2), False),
    (IntegerRing(), 0, True), (IntegerRing(), -1, False),
    (IntegersMod(4), IntegersMod(4).from_int(8), True), (IntegersMod(4), 3, False),
])
def test_is_zero_answers_from_the_normalized_value(ring, value, zero):
    assert ring.is_zero(value) is zero
    assert ring.is_zero(value) == ring.eq(value, ring.zero())


@pytest.mark.parametrize("ring,values", [
    (IntegerRing(), [3, -7, 0]), (IntegersMod(6), [5, 0, 2]),
    (RationalRing(), [Fraction(1, 2), Fraction(-5, 12), Fraction(3), Fraction(0)]),
    (RationalRing(), [Fraction(1, 2 ** 61 - 1), Fraction(2, 3 ** 41)]),
])
def test_values_round_trip_through_ints(ring, values):
    """Each value is its int over the common denominator, and a plain int
    product over the product of denominators, or a plain int sum over the
    denominator, reduced mod the modulus when that is nonzero, is the ring
    product or sum."""
    keyed, den = ring.as_ints(list(enumerate(values)))
    assert [key for key, _ in keyed] == list(range(len(values)))
    ints = [k for _, k in keyed]
    assert den >= 1 and all(type(k) is int for k in ints)
    assert [ring.lift(k, den) for k in ints] == values
    assert [type(ring.lift(k, den)) for k in ints] == [type(v) for v in values]

    def reduce(k):
        return k % ring.modulus if ring.modulus else k

    for a, x in zip(ints, values):
        for b, y in zip(ints, values):
            assert ring.lift(reduce(a * b), den * den) == ring.mul(x, y)
            assert ring.lift(reduce(a + b), den) == ring.add(x, y)


@pytest.mark.parametrize("ring,modulus", [(IntegerRing(), 0), (RationalRing(), 0),
                                          (ring_from_spec("zmod:6"), 6)],
                         ids=["z", "q", "zmod:6"])
def test_modulus(ring, modulus):
    assert ring.modulus == modulus


def test_rational_exactness():
    ring = RationalRing()
    assert ring.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert ring.mul(Fraction(2, 3), Fraction(3, 2)) == ring.one()


def test_spec_parsing():
    assert ring_from_spec("z") == IntegerRing()
    assert ring_from_spec("q") == RationalRing()
    assert ring_from_spec("zmod:4") == IntegersMod(4)
    assert ring_from_spec("zmod:4") != IntegersMod(5)
    for bad in ("zmod:x", "gf:2", ""):
        with pytest.raises(ValueError):
            ring_from_spec(bad)


def test_sample_nonzero():
    rng = rng_from_seed(3)
    ring = IntegersMod(2)
    assert all(ring.sample_nonzero(rng) == 1 for _ in range(10))


def test_ring_equality_drives_element_compatibility():
    assert IntegerRing() == IntegerRing()
    assert IntegersMod(4) == IntegersMod(4)
    assert IntegerRing() != RationalRing()
    assert hash(IntegersMod(4)) == hash(IntegersMod(4))
