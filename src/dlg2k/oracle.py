"""Brute-force references and deterministic conformance vectors.

The certification paths here (table walk by repeated multiplication,
inverse by extended gcd) recompute everything from first principles on
plain integers and never run the digit-serial engine, so a defect
cannot hide in both routes at once. Sampled vector generation is the
one exception: past table-sized widths the engine is the only source
of exponents, so every sampled record is re-checked against a direct
power computation before it is emitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .dlg_engine import DlgPair
from .kbit_core import Residue, check_width, powmod
from .root_theory import Root

TABLE_WIDTH_LIMIT = 20
# Tables kept at once. At k = 20 one table holds 2**18 forward and
# 2**19 backward entries; the exhaustive walks take one base at a time.
TABLE_CACHE_SIZE = 4


class CoverageError(ValueError):
    """+/-h**i failed to cover the odd residues exactly once."""


@dataclass(frozen=True)
class TestVector:
    """One conformance record: x factors as (s, p, e) over base h at width k."""

    __test__ = False  # not a pytest class, despite the name

    k: int
    h: str
    x: str
    s: int
    p: int
    e: str

    def to_json_line(self) -> str:
        return json.dumps(
            {"k": self.k, "h": self.h, "x": self.x, "s": self.s, "p": self.p, "e": self.e},
            separators=(",", ":"),
        )

    @classmethod
    def from_json_line(cls, line: str) -> "TestVector":
        obj = json.loads(line)
        if set(obj) != {"k", "h", "x", "s", "p", "e"}:
            raise ValueError(f"vector record needs exactly k,h,x,s,p,e, got {sorted(obj)}")
        return cls(k=int(obj["k"]), h=obj["h"], x=obj["x"], s=int(obj["s"]), p=int(obj["p"]), e=obj["e"])

    def holds(self) -> bool:
        """Re-derive x from (s, p, e) by direct exponentiation."""
        mod = 1 << self.k
        v = powmod(int(self.h, 16), int(self.e), mod)
        if self.s:
            v = mod - v
        return (v << self.p) % mod == int(self.x, 16) % mod


@dataclass(frozen=True)
class DlgTable:
    """Forward and backward logarithm maps built by repeated multiplication."""

    k: int
    h: int
    forward: tuple[int, ...]
    backward: dict

    @classmethod
    def build(cls, base: Root) -> "DlgTable":
        return _build_table(base.k, base.h.value)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _build_table(k: int, h: int) -> DlgTable:
    if k > TABLE_WIDTH_LIMIT:
        raise ValueError(f"table would hold 2**{k - 1} entries; k <= {TABLE_WIDTH_LIMIT} only")
    mod = 1 << k
    forward = []
    backward = {}
    f = 1
    for i in range(1 << (k - 2)):
        forward.append(f)
        for s, v in ((0, f), (1, mod - f)):
            if v in backward:
                raise CoverageError(
                    f"0x{h:x} does not split the odd residues at width {k}: "
                    f"+/-h**i revisits 0x{v:x}"
                )
            backward[v] = (s, i)
        f = f * h % mod
    return DlgTable(k=k, h=h, forward=tuple(forward), backward=backward)


def brute_force_dlg(a: Residue, base: Root) -> DlgPair:
    """(s, e) looked up in the exhaustive table; the reference answer."""
    if a.k != base.k:
        raise ValueError(f"width mismatch: residue is {a.k} bits, base is {base.k}")
    if not a.is_odd:
        raise ValueError("only odd residues have a logarithm")
    s, e = _build_table(base.k, base.h.value).backward[a.value]
    return DlgPair(s=s, e=e, k=base.k)


def covers_odd_residues(k: int, h: int) -> bool:
    """Whether +/-h**i hits every odd residue below 2**k exactly once."""
    check_width(k)
    if k > TABLE_WIDTH_LIMIT:
        raise ValueError(f"coverage walk is exponential; k <= {TABLE_WIDTH_LIMIT} only")
    if h & 1 == 0:
        return False
    mod = 1 << k
    seen = set()
    f = 1
    for _ in range(1 << (k - 2)):
        if f in seen or mod - f in seen:
            return False
        seen.add(f)
        seen.add(mod - f)
        f = f * h % mod
    return len(seen) == 1 << (k - 1)


def extended_gcd_inverse(a: Residue) -> Residue:
    """Inverse of an odd residue via the extended Euclidean algorithm.

    Deliberately a different algorithm from the Newton lifting in
    kbit_core, so each can certify the other.
    """
    if not a.is_odd:
        raise ValueError("even residue has no inverse modulo 2**k")
    mod = 1 << a.k
    old_r, r = a.value, mod
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    if old_r != 1:
        raise ArithmeticError(f"gcd of {a.hex()} and 2**{a.k} is {old_r}, not 1")
    return Residue(a.k, old_s)


_SM64_GAMMA = 0x9E3779B97F4A7C15
_U64 = (1 << 64) - 1


def splitmix64(seed: int) -> Iterator[int]:
    """Deterministic 64-bit stream; the conformance docs pin this exact
    generator (gamma 0x9e3779b97f4a7c15, finalizer shifts 30/27/31 with
    multipliers 0xbf58476d1ce4e5b9 and 0x94d049bb133111eb) so vectors
    reproduce bit-for-bit in any language.
    """
    state = seed & _U64
    while True:
        state = (state + _SM64_GAMMA) & _U64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        yield z ^ (z >> 31)


def draw_bits(stream: Iterator[int], nbits: int) -> int:
    """nbits from the stream as 64-bit words, least significant word first."""
    v = 0
    for shift in range(0, nbits, 64):
        v |= next(stream) << shift
    return v & ((1 << nbits) - 1)


def generate_vectors(base: Root, samples: int | None = None, seed: int = 0) -> Iterator[TestVector]:
    """Yield conformance records over the given base.

    Exhaustive mode (samples None, k <= 16) walks every residue in
    ascending order straight off the table. Sampled mode draws residues
    from splitmix64(seed), factors them with the engine, and re-checks
    each record by direct exponentiation before yielding it.
    """
    k = base.k
    hhex = base.h.hex()
    if samples is None:
        if k > 16:
            raise ValueError(f"exhaustive vectors need k <= 16, got {k}; use sampled mode")
        table = _build_table(k, base.h.value)
        for x in range(1 << k):
            yield _vector_from_table(table, hhex, x)
        return
    if samples < 0:
        raise ValueError(f"sample count must be nonnegative, got {samples}")
    from .dlg_engine import factor_triple  # sampled mode only; see module docstring

    stream = splitmix64(seed)
    for _ in range(samples):
        x = draw_bits(stream, k)
        t = factor_triple(Residue(k, x), base)
        vec = TestVector(k=k, h=hhex, x=hex(x), s=t.s, p=t.p, e=str(t.e))
        if not vec.holds():
            raise ArithmeticError(f"engine emitted an inconsistent record for x={hex(x)} at width {k}")
        yield vec


def _vector_from_table(table: DlgTable, hhex: str, x: int) -> TestVector:
    k = table.k
    if x == 0:
        return TestVector(k=k, h=hhex, x="0x0", s=0, p=k, e="0")
    p = (x & -x).bit_length() - 1
    s, e = table.backward[x >> p]
    return TestVector(k=k, h=hhex, x=hex(x), s=s, p=p, e=str(e))
