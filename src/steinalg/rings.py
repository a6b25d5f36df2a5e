"""Exact coefficient rings: integers, rationals, and integers mod n.

Ring values are plain Python objects (int or Fraction) with decidable
equality; every ring operation returns a normalized value.  ``selftest``
checks the commutative-ring axioms on sampled triples, so a new ring can be
dropped in and certified without touching the algebra code.
"""

from __future__ import annotations

from fractions import Fraction


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


class IntegerRing(CoefficientRing):
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

    def sample(self, rng):
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("q")


class IntegersMod(CoefficientRing):
    """The ring of integers modulo n, values stored as residues 0..n-1."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("modulus must be >= 2")
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
            raise ValueError("bad modulus in %r" % (spec,)) from None
        return IntegersMod(n)
    raise ValueError("unknown ring spec %r (want z, q, or zmod:N)" % (spec,))
