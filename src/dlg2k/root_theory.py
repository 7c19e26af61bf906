"""Validation and enumeration of semi-primitive roots modulo 2**k.

An odd residue h is a usable logarithm base when its powers reach a
full half of the odd residues and -1 is not among them, so that +h**i
and -h**i together cover every odd residue exactly once. For a
power-of-two modulus that holds precisely when h = 3 or 5 (mod 8),
which turns acceptance into an O(1) bit test; the equivalence itself
is certified exhaustively at small widths by the oracle suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .kbit_core import Residue, check_width

ENUMERATION_LIMIT = 16


class NotSemiPrimitiveError(ValueError):
    """The residue cannot serve as a logarithm base modulo 2**k."""


@dataclass(frozen=True)
class Root:
    """A validated base: the residue h and its class h mod 8 (3 or 5).

    The table of repeated squares h**(2**j), j = 0..k-3, is built on
    the first logarithm taken over the base and kept from then on;
    validation and decoding never build it. Its last entry always
    equals 2**(k-1) + 1, which the build checks.
    """

    h: Residue
    mod8_class: int

    @property
    def k(self) -> int:
        return self.h.k

    @cached_property
    def _hot(self) -> tuple[int, ...]:
        # the square table as plain ints, for the engine's inner loop
        k = self.k
        mask = (1 << k) - 1
        x = self.h.value
        squares = [x]
        for _ in range(k - 3):
            x = (x * x) & mask
            squares.append(x)
        if k > 3 and x != (1 << (k - 1)) + 1:
            # the square chain of any base 3 or 5 (mod 8) lands there
            raise ArithmeticError(f"square chain of {self.h.hex()} at width {k} ends at {hex(x)}")
        return tuple(squares)

    @property
    def power_table(self) -> tuple[Residue, ...]:
        """h**(2**j) at width k for j = 0..k-3, as residues."""
        return tuple(Residue(self.k, x) for x in self._hot)


def validate_root(h: Residue) -> Root:
    """Accept h iff h = 3 or 5 (mod 8); an O(1) bit test.

    7 (mod 8) is rejected even though such residues can have the same
    order: -1 is then itself a power of h, so +h**i and -h**i collapse
    onto each other instead of covering all odd residues.
    """
    if not h.is_odd:
        raise NotSemiPrimitiveError(f"base must be odd, got {h.hex()}")
    low3 = h.value & 7
    if low3 not in (3, 5):
        raise NotSemiPrimitiveError(
            f"base must be 3 or 5 (mod 8) to split the odd residues, "
            f"got {h.hex()} = {low3} (mod 8)"
        )
    return Root(h=h, mod8_class=low3)


def multiplicative_order(a: Residue) -> int:
    """Least t >= 1 with a**t = 1 (mod 2**k).

    Every odd residue has order a power of two dividing 2**(k-2), so
    repeated squaring reaches 1 in at most k-2 steps.
    """
    if not a.is_odd:
        raise ValueError("even residues have no multiplicative order modulo 2**k")
    mask = (1 << a.k) - 1
    x = a.value
    t = 1
    while x != 1:
        x = (x * x) & mask
        t <<= 1
    return t


def enumerate_roots(k: int) -> list[Root]:
    """All semi-primitive roots below 2**k, ascending, each validated."""
    check_width(k)
    if k > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration is exponential in k; k <= {ENUMERATION_LIMIT} only "
            f"(validate_root handles a single base at any width)"
        )
    return [validate_root(Residue(k, h)) for h in range(3, 1 << k) if h & 7 in (3, 5)]
