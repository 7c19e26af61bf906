"""Fixed-width arithmetic on residues modulo 2**k.

Every value carries its width k (3 <= k <= 4096) and is stored reduced
to its low-order k bits, so equality is bit-exact and reduction after
any operation is a single mask. gmpy2 supplies the big-integer kernels
when it is installed; plain Python ints take over otherwise with the
same semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

try:
    from gmpy2 import bit_scan1, mpz
    from gmpy2 import powmod as _powmod

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    HAVE_GMPY2 = False
    mpz = int
    _powmod = pow

    def bit_scan1(x, start=0):
        y = x >> start
        if y == 0:
            return None
        return start + (y & -y).bit_length() - 1


MIN_WIDTH = 3
MAX_WIDTH = 4096

_HEX = re.compile(r"0x[0-9a-f]+")


def check_width(k: int) -> int:
    if not MIN_WIDTH <= k <= MAX_WIDTH:
        raise ValueError(f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {k}")
    return k


@dataclass(frozen=True)
class Residue:
    """An integer reduced to the low-order k bits of its width.

    Construction masks the given value, so negative inputs wrap to
    their two's complement and wide inputs lose their high bits.
    """

    k: int
    value: int

    def __post_init__(self):
        check_width(self.k)
        object.__setattr__(self, "value", int(self.value) & ((1 << self.k) - 1))

    @property
    def is_odd(self) -> bool:
        return bool(self.value & 1)

    def hex(self) -> str:
        """Lowercase 0x-prefixed hex without leading zeros."""
        return hex(self.value)

    @classmethod
    def parse(cls, k: int, text: str) -> "Residue":
        """Parse a 0x-prefixed hex string; leading zeros are fine.

        Only hex digits may follow the prefix: no sign, no underscores.
        """
        t = text.strip().lower()
        if not t.startswith("0x"):
            raise ValueError(f"hex residue must carry an 0x prefix, got {text!r}")
        if not _HEX.fullmatch(t):
            raise ValueError(f"malformed hex residue {text!r}")
        return cls(k, int(t, 16))


def _same_width(a: Residue, b: Residue) -> int:
    if a.k != b.k:
        raise ValueError(f"width mismatch: {a.k} != {b.k}")
    return a.k


def add(a: Residue, b: Residue) -> Residue:
    k = _same_width(a, b)
    return Residue(k, a.value + b.value)


def mul(a: Residue, b: Residue) -> Residue:
    k = _same_width(a, b)
    return Residue(k, a.value * b.value)


def neg(a: Residue) -> Residue:
    """Two's complement within k bits."""
    return Residue(a.k, -a.value)


def inverse(a: Residue) -> Residue:
    """Multiplicative inverse of an odd residue by 2-adic Newton lifting."""
    if not a.is_odd:
        raise ValueError("even residue has no inverse modulo 2**k")
    return Residue(a.k, invert_odd(a.value, a.k))


def invert_odd(v: int, bits: int) -> int:
    """Inverse of odd v modulo 2**bits, for any bits >= 1.

    The seed v is its own inverse to three bits (v*v == 1 mod 8 for
    every odd v); each Newton step x <- x*(2 - v*x) doubles the number
    of correct low bits.
    """
    if not v & 1:
        raise ValueError(f"even value {v} has no inverse modulo 2**{bits}")
    mask = (1 << bits) - 1
    x = v & mask
    good = 3
    while good < bits:
        x = (x * (2 - v * x)) & mask
        good *= 2
    return x


def powmod(base: int, exp: int, modulus: int) -> int:
    return int(_powmod(base, exp, modulus))


def power(a: Residue, exponent: int) -> Residue:
    """a**exponent mod 2**k by square-and-multiply, O(log exponent) products."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    return Residue(a.k, powmod(a.value, exponent, 1 << a.k))


def truncate(a: Residue, j: int) -> Residue:
    """The low j bits of a as a width-j residue."""
    check_width(j)
    if j > a.k:
        raise ValueError(f"cannot truncate width {a.k} up to width {j}")
    return Residue(j, a.value)


def bit(a: Residue, i: int) -> int:
    """Binary digit of weight 2**i."""
    if not 0 <= i < a.k:
        raise ValueError(f"bit index {i} out of range for width {a.k}")
    return (a.value >> i) & 1
