"""Coefficient rings: axioms, normalization, and the spec parser."""

from fractions import Fraction

import pytest

from steinalg import IntegerRing, IntegersMod, RationalRing, ring_from_spec
from steinalg.sampling import rng_from_seed


@pytest.mark.parametrize("ring", [IntegerRing(), RationalRing(),
                                  IntegersMod(2), IntegersMod(4), IntegersMod(7)])
def test_axioms(ring):
    assert ring.selftest(rng_from_seed(0))


def test_selftest_reports_a_broken_axiom():
    # A plain False, not an assertion, so the check also runs under -O.
    class OffByOne(IntegerRing):
        def add(self, a, b):
            return a + b + 1

    assert OffByOne().selftest(rng_from_seed(0)) is False


def test_mod_normalizes():
    ring = IntegersMod(4)
    assert ring.add(3, 3) == 2
    assert ring.negate(1) == 3
    assert ring.mul(2, 2) == 0
    assert ring.from_int(-1) == 3
    assert ring.sub(1, 2) == 3
    assert ring.one() == 1 and ring.zero() == 0


def test_mod_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        IntegersMod(1)


def test_rational_exactness():
    ring = RationalRing()
    assert ring.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert ring.mul(Fraction(2, 3), Fraction(3, 2)) == ring.one()
    assert ring.sub(ring.one(), ring.one()) == ring.zero()


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
