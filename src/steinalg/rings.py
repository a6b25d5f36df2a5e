"""Exact coefficient rings: integers, rationals, and integers mod n.

Ring values are plain Python objects (int or Fraction) with decidable
equality; every ring operation returns a normalized value.  ``selftest``
checks the commutative-ring axioms on sampled triples, so a new ring can be
dropped in and certified without touching the algebra code.

Products and the canonical form in ``steinberg`` run on Python ints, not on
ring values, so a dropped-in ring provides, besides the ring operations:

- ``as_ints(terms)``: (key, value) terms as (key, int) terms, the ints
  over one positive denominator D;
- ``int_ring()``: the ring whose normalized values those ints are, in which
  the canonical form adds them; its ``from_int`` normalizes a plain int sum
  or product, and its zero is the int 0;
- ``lift(k, D)``: the value the normalized int k over D stands for.

For every D, lift(., D) must be injective, send 0 to zero and int_ring sums
to ring sums, and lift(a * b, D * E) must be lift(a, D) * lift(b, E).  Over
z and zmod:n the ints are the values themselves over 1, and the ring walks
them itself; over q they are the numerators over the lcm of the
denominators, walked in the integers.  A ring whose D can exceed 1 must
walk its ints in the integers with lift(k * m, D * m) == lift(k, D): sums
take the lcm of two D's, and the canonical form divides out gcd(D, *ints).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError


class CoefficientRing:
    name = "ring"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def negate(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def from_int(self, k):
        raise NotImplementedError

    def as_ints(self, values):
        raise NotImplementedError

    def int_ring(self):
        raise NotImplementedError

    def lift(self, k, den):
        raise NotImplementedError

    def coerce(self, a):
        """a as a normalized value of this ring; InputError when a is not
        one.  Integers and integral Fractions are accepted by every ring."""
        if isinstance(a, Fraction) and a.denominator == 1:
            a = a.numerator
        if not isinstance(a, int):
            raise InputError("coefficient %r is not in the ring %s" % (a, self.name))
        return self.from_int(a)

    def sample(self, rng):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.negate(b))

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return self.eq(a, self.zero())

    def sample_nonzero(self, rng):
        while True:
            a = self.sample(rng)
            if not self.is_zero(a):
                return a

    def render(self, a):
        return str(a)

    def selftest(self, rng, rounds=200):
        """Check the commutative-ring axioms on sampled triples; returns
        False at the first round where an axiom fails, True otherwise."""
        for _ in range(rounds):
            a, b, c = (self.sample(rng) for _ in range(3))
            axioms = (
                (self.add(a, b), self.add(b, a)),
                (self.add(self.add(a, b), c), self.add(a, self.add(b, c))),
                (self.add(a, self.zero()), a),
                (self.add(a, self.negate(a)), self.zero()),
                (self.mul(a, b), self.mul(b, a)),
                (self.mul(self.mul(a, b), c), self.mul(a, self.mul(b, c))),
                (self.mul(a, self.one()), a),
                (self.mul(a, self.add(b, c)),
                 self.add(self.mul(a, b), self.mul(a, c))),
            )
            if not all(self.eq(lhs, rhs) for lhs, rhs in axioms):
                return False
        return True

    def __repr__(self):
        return self.name


class _IntValued(CoefficientRing):
    """A ring whose normalized values are ints: they are their own ints
    over 1, and the ring walks them itself."""

    def as_ints(self, terms):
        return terms, 1

    def int_ring(self):
        return self

    def lift(self, k, den):
        return k


class IntegerRing(_IntValued):
    name = "z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def negate(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, k):
        return int(k)

    def sample(self, rng):
        return rng.randint(-5, 5)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("z")


class RationalRing(CoefficientRing):
    name = "q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def negate(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, k):
        return Fraction(k)

    def as_ints(self, terms):
        ratios = [(k, v.as_integer_ratio()) for k, v in terms]
        den = math.lcm(*[d for _, (_, d) in ratios])
        return [(k, n * (den // d)) for k, (n, d) in ratios], den

    def int_ring(self):
        return _INTEGERS

    def lift(self, k, den):
        # Fraction(k) skips the gcd that Fraction(k, 1) would take.
        return Fraction(k, den) if den != 1 else Fraction(k)

    def coerce(self, a):
        if not isinstance(a, (int, Fraction)):
            raise InputError("coefficient %r is not in the ring %s" % (a, self.name))
        return Fraction(a)

    def sample(self, rng):
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("q")


class IntegersMod(_IntValued):
    """The ring of integers modulo n, values stored as residues 0..n-1."""

    def __init__(self, n):
        # The int kernel reduces plain int sums with %, so n is an int.
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputError("modulus %r is not an integer" % (n,))
        if n < 2:
            raise InputError("modulus must be >= 2")
        self.n = n
        self.name = "zmod:%d" % n

    def zero(self):
        return 0

    def one(self):
        return 1 % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def negate(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def from_int(self, k):
        return k % self.n

    def sample(self, rng):
        return rng.randrange(self.n)

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.n == self.n

    def __hash__(self):
        return hash(("zmod", self.n))


_INTEGERS = IntegerRing()


def ring_from_spec(spec: str) -> CoefficientRing:
    """Build a ring from 'z', 'q', or 'zmod:N'."""
    if spec == "z":
        return IntegerRing()
    if spec == "q":
        return RationalRing()
    if spec.startswith("zmod:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise InputError("bad modulus in %r" % (spec,)) from None
        return IntegersMod(n)
    raise InputError("unknown ring spec %r (want z, q, or zmod:N)" % (spec,))
