"""Digit-serial discrete logarithm modulo 2**k and the (s, p, e) codec.

Every k-bit integer x factors uniquely as

    x = (-1)**s * 2**p * h**e  (mod 2**k)

with h a semi-primitive root, s in {0, 1}, p the dyadic valuation of x
(p = k reserved for x = 0) and 0 <= e < 2**(k-2). The engine computes
e for an odd residue one binary digit per step: a residue that is
1 mod 2**i moves to 1 mod 2**(i+1) after one multiplication by
h**(2**(i-2)), because that power is 2**i + 1 modulo 2**(i+1) and so
flips bit i while leaving everything below untouched. Clearing the
working product's bits from position 3 upward spells out, in the
positions of the table entries used, the exponent of the input's
inverse, and the exponent of the input follows by negation modulo
2**(k-2). Only the working product is multiplied, so a logarithm
performs at most one width-k multiplication up front and one per
cleared bit. The paper's cost model also multiplies the used entries
into an accumulator, two multiplications per cleared bit and at most
2(k-3) + 2 in all; dlg_counted reports that count without doing the
accumulator's work, which no result depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kbit_core import (
    Residue,
    bit_scan1,
    check_width,
    invert_odd,
    mpz,
    powmod,
)
from .root_theory import Root, validate_root  # noqa: F401  (re-exported)


def _json_int(obj: dict, name: str) -> int:
    v = obj[name]
    if type(v) is not int:  # bool and float are not integers here
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return v


def _json_exponent(obj: dict) -> int:
    e = obj["e"]
    if not (isinstance(e, str) and e.isascii() and e.isdigit()):
        raise ValueError(f"e must be a string of decimal digits, got {e!r}")
    return int(e)


@dataclass(frozen=True)
class DlgPair:
    """Sign and minimal exponent of an odd residue: A = (-1)**s * h**e."""

    s: int
    e: int
    k: int

    def __post_init__(self):
        check_width(self.k)
        if self.s not in (0, 1):
            raise ValueError(f"sign bit must be 0 or 1, got {self.s}")
        if not 0 <= self.e < (1 << (self.k - 2)):
            raise ValueError(f"exponent {self.e} out of range for width {self.k}")

    def to_json(self) -> dict:
        # odd residues are the p = 0 slice of the triple schema
        return {"s": self.s, "p": 0, "e": str(self.e), "k": self.k}

    @classmethod
    def from_json(cls, obj: dict) -> "DlgPair":
        if "p" in obj and _json_int(obj, "p") != 0:
            raise ValueError(f"a pair describes an odd residue, so p must be 0, got {obj['p']}")
        return cls(s=_json_int(obj, "s"), e=_json_exponent(obj), k=_json_int(obj, "k"))


@dataclass(frozen=True)
class DlgTriple:
    """Factorization x = (-1)**s * 2**p * h**e (mod 2**k); p = k encodes x = 0."""

    s: int
    p: int
    e: int
    k: int

    def __post_init__(self):
        check_width(self.k)
        if self.s not in (0, 1):
            raise ValueError(f"sign bit must be 0 or 1, got {self.s}")
        if not 0 <= self.p <= self.k:
            raise ValueError(f"valuation {self.p} out of range for width {self.k}")
        if not 0 <= self.e < (1 << (self.k - 2)):
            raise ValueError(f"exponent {self.e} out of range for width {self.k}")
        if self.p == self.k and (self.s or self.e):
            raise ValueError("the zero residue is canonically (s=0, p=k, e=0)")

    def to_json(self) -> dict:
        return {"s": self.s, "p": self.p, "e": str(self.e), "k": self.k}

    @classmethod
    def from_json(cls, obj: dict) -> "DlgTriple":
        return cls(s=_json_int(obj, "s"), p=_json_int(obj, "p"), e=_json_exponent(obj),
                   k=_json_int(obj, "k"))


@dataclass
class MulCounter:
    """The paper's count of width-k multiplications for one logarithm."""

    count: int = 0


def _same_width_as_base(a: Residue, base: Root) -> int:
    if a.k != base.k:
        raise ValueError(f"width mismatch: residue is {a.k} bits, base is {base.k}")
    return a.k


def _check_widths(base: Root, *ks: int) -> int:
    for k in ks:
        if k != base.k:
            raise ValueError(f"width mismatch: {k} != base width {base.k}")
    return base.k


def _negative(value: int, h: int) -> int:
    # positive powers keep bit 1 clear when h = 1 (mod 4) and bit 2
    # clear when h = 3 (mod 4); their complements set that same bit
    probe = 2 if (h >> 1) & 1 else 1
    return (value >> probe) & 1


def classify_sign(a: Residue, base: Root) -> int:
    """1 iff a is a negative power of the base, 0 iff a positive one.

    Reads a single bit of a, chosen by a single bit of h.
    """
    _same_width_as_base(a, base)
    if not a.is_odd:
        raise ValueError("sign classification is defined for odd residues only")
    return _negative(a.value, base.h.value)


def _dlg_odd(value: int, base: Root) -> tuple[int, int]:
    # Digit-serial loop. P starts at the positive representative of
    # value; invariant entering step i is P = 1 (mod 2**i). b collects
    # the exponents of the table entries applied so far, whose product
    # is the inverse of that representative once P reaches 1.
    k = base.k
    squares = base._hot
    mask = (1 << k) - 1
    h = squares[0]
    s = _negative(value, h)
    P = (-mpz(value)) & mask if s else mpz(value)
    low3 = P & 7
    if low3 == h & 7:
        P = (P * h) & mask
        b = 1
    elif low3 == 1:
        b = 0
    else:
        raise ArithmeticError(f"{hex(value)} is not +/- a power of {hex(h)} modulo 8")
    i = bit_scan1(P, 3)
    while i is not None:
        P = (P * squares[i - 2]) & mask
        b += 1 << (i - 2)
        i = bit_scan1(P, i)
    if P != 1:
        raise ArithmeticError(f"digit-serial loop for {hex(value)} over {hex(h)} ended at {hex(P)}")
    return s, -b & ((1 << (k - 2)) - 1)


def dlg(a: Residue, base: Root) -> DlgPair:
    """The unique (s, e) with a = (-1)**s * h**e and 0 <= e < 2**(k-2)."""
    _same_width_as_base(a, base)
    if not a.is_odd:
        raise ValueError("dlg takes odd residues; factor_triple handles the rest")
    s, e = _dlg_odd(a.value, base)
    return DlgPair(s=s, e=e, k=base.k)


def dlg_counted(a: Residue, base: Root) -> tuple[DlgPair, MulCounter]:
    """dlg plus the paper's multiplication count for it.

    The paper's loop multiplies once up front and then twice per set
    bit it clears at positions 3..k-1, so the count is
    1 + 2*(cleared bits) and never exceeds 2(k-3) + 2. The cleared
    positions are the set bits 1..k-3 of -e mod 2**(k-2), so the count
    follows from the result; the engine itself performs at most
    1 + (cleared bits) multiplications.
    """
    pair = dlg(a, base)
    b = -pair.e & ((1 << (base.k - 2)) - 1)
    return pair, MulCounter(1 + 2 * (b >> 1).bit_count())


def decode_pair(pair: DlgPair, base: Root) -> Residue:
    """(-1)**s * h**e mod 2**k; the inverse of dlg on odd residues."""
    _check_widths(base, pair.k)
    v = powmod(base.h.value, pair.e, 1 << pair.k)
    return Residue(pair.k, -v if pair.s else v)


def factor_triple(x: Residue, base: Root) -> DlgTriple:
    """Canonical triple of any residue: valuation out, dlg of the odd part."""
    k = _same_width_as_base(x, base)
    v = x.value
    if v == 0:
        return DlgTriple(s=0, p=k, e=0, k=k)
    p = (v & -v).bit_length() - 1
    s, e = _dlg_odd(v >> p, base)
    return DlgTriple(s=s, p=p, e=e, k=k)


def decode_triple(t: DlgTriple, base: Root) -> Residue:
    """(-1)**s * 2**p * h**e mod 2**k; the inverse of factor_triple."""
    _check_widths(base, t.k)
    mod = 1 << t.k
    v = powmod(base.h.value, t.e, mod)
    if t.s:
        v = mod - v
    return Residue(t.k, v << t.p)


def log_multiply(a: DlgTriple, b: DlgTriple, base: Root) -> DlgTriple:
    """Product in the log domain: XOR signs, add valuations and exponents.

    A combined valuation at or past the width collapses to the
    canonical zero triple, matching the residue product.
    """
    k = _check_widths(base, a.k, b.k)
    p = a.p + b.p
    if p >= k:
        return DlgTriple(s=0, p=k, e=0, k=k)
    emask = (1 << (k - 2)) - 1
    return DlgTriple(s=a.s ^ b.s, p=p, e=(a.e + b.e) & emask, k=k)


def invert_pair(pair: DlgPair) -> DlgPair:
    """Inverse in the log domain: e -> 2**(k-2) - e, sign unchanged."""
    emod = 1 << (pair.k - 2)
    return DlgPair(s=pair.s, e=(emod - pair.e) % emod, k=pair.k)


def rebase(pair: DlgPair, src: Root, dst: Root) -> DlgPair:
    """Re-express a logarithm taken over src as one over dst.

    With dst.h = (-1)**t * src.h**d, exponents divide by d modulo
    2**(k-2) and the sign absorbs t once per factor of dst.h used.
    """
    k = _check_widths(src, pair.k, dst.k)
    d = dlg(dst.h, src)
    if not d.e & 1:
        # d.e is odd whenever both bases are valid, hence invertible
        raise ArithmeticError(f"{dst.h.hex()} is an even power of {src.h.hex()}")
    e2 = (pair.e * invert_odd(d.e, k - 2)) & ((1 << (k - 2)) - 1)
    s2 = pair.s ^ (d.s & e2 & 1)
    return DlgPair(s=s2, e=e2, k=k)


def dlg_truncated(a: Residue, base: Root, j: int) -> DlgPair:
    """dlg after truncating both the argument and the base to width j.

    The result's exponent equals the full-width exponent reduced
    modulo 2**(j-2): low bits of the logarithm only ever depend on low
    bits of the input. The sign sits in the low three bits and carries
    over unchanged, so this reduces the full-width logarithm and never
    builds a base at width j.
    """
    check_width(j)
    if j > a.k:
        raise ValueError(f"cannot truncate width {a.k} up to width {j}")
    pair = dlg(a, base)
    return DlgPair(s=pair.s, e=pair.e & ((1 << (j - 2)) - 1), k=j)
