"""The benchmark's four workloads.

Each workload draws one operation's input from a seeded random.Random,
runs the operation through dlg2k's public functions, and checks the
result afterwards by rebuilding every residue from its (s, p, e) with
built-in pow on plain ints. No check calls the engine.

The program modules are looked up as module attributes at call time,
so a traced run's rebinding (spans.Rebinder) sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from dlg2k import cli, dlg_engine, kbit_core, oracle, root_theory

MODULES = {"cli": cli, "dlg_engine": dlg_engine, "kbit_core": kbit_core,
           "oracle": oracle, "root_theory": root_theory}


def rebuild(h: int, k: int, s: int, p: int, e: int) -> int:
    """(-1)**s * 2**p * h**e mod 2**k on plain ints; p = k gives 0."""
    mod = 1 << k
    v = pow(h, e, mod)
    if s:
        v = mod - v
    return (v << p) % mod


def canonical(k: int, s, p, e) -> bool:
    """Whether (s, p, e) is the unique triple form the program promises."""
    return (
        type(s) is int and type(p) is int and type(e) is int
        and s in (0, 1) and 0 <= p <= k and 0 <= e < 1 << (k - 2)
        and (p < k or (s == 0 and e == 0))
    )


def random_base(rng: random.Random, k: int) -> int:
    """A k-bit base that is 3 or 5 (mod 8), hence semi-primitive."""
    return (rng.getrandbits(k) & ~7) | rng.choice((3, 5))


def any_valuation(rng: random.Random, k: int) -> int:
    """A k-bit residue whose valuation is uniform over 0..k (k means 0)."""
    p = rng.randint(0, k)
    return 0 if p == k else (rng.getrandbits(k - p) | 1) << p


def odd_part(x: int) -> int:
    return x >> ((x & -x).bit_length() - 1)


def _rng(*parts) -> random.Random:
    return random.Random("/".join(map(str, parts)))


class Workload:
    """One closed-loop workload; subclasses fill in the hooks below."""

    name = ""
    modules = ("dlg2k",)  # what set-up imports
    # Operations per batch, about 25 ms of work: the reference chunk runs
    # between batches, so it samples the host's speed that often.
    batch = 64

    def __init__(self, seed: int):
        self.seed = seed
        self.roots = {}
        self._n = 0

    def reused_bases(self) -> list[tuple[int, int]]:
        """(k, h) of the bases validated once in set-up and reused."""
        return []

    def prepare(self, roots: dict) -> None:
        """Receives the validated Root of each reused base, keyed (k, h)."""
        self.roots = roots

    def draw(self, rng: random.Random, phase: str):
        """One operation's input, drawn outside the timed region."""
        raise NotImplementedError

    def run(self, inp):
        """The timed operation."""
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        """Whether out is the right answer for inp, on plain ints only."""
        raise NotImplementedError

    def odd_inputs(self, inp, out) -> list[tuple[int, int, int]]:
        """(k, h, odd value) of each logarithm the operation takes."""
        return []

    def _alternate(self) -> int:
        self._n += 1
        return self._n & 1


class RoundTrip(Workload):
    """factor_triple then decode_triple at k=1024, over two reused bases."""

    name = "roundtrip-1024"
    k = 1024
    batch = 4

    def __init__(self, seed):
        super().__init__(seed)
        self.bases = (3, random_base(_rng(self.name, "base", seed), self.k))

    def reused_bases(self):
        return [(self.k, h) for h in self.bases]

    def draw(self, rng, phase):
        h = self.bases[self._alternate()]
        return h, self.roots[self.k, h], kbit_core.Residue(self.k, any_valuation(rng, self.k))

    def run(self, inp):
        _, root, x = inp
        t = dlg_engine.factor_triple(x, root)
        return t, dlg_engine.decode_triple(t, root)

    def check(self, inp, out):
        h, _, x = inp
        t, y = out
        return (
            canonical(self.k, t.s, t.p, t.e) and t.k == self.k
            and rebuild(h, self.k, t.s, t.p, t.e) == x.value
            and y.k == self.k and y.value == x.value
        )

    def odd_inputs(self, inp, out):
        h, _, x = inp
        return [(self.k, h, odd_part(x.value))] if x.value else []


class Lns64(Workload):
    """Log-domain arithmetic at k=64: parse, factor, multiply, rebase, truncate."""

    name = "lns-64"
    k = 64
    batch = 128
    src = 3
    dst = (0x5, 0xB, 0xD, 0x13)

    def reused_bases(self):
        return [(self.k, h) for h in (self.src, *self.dst)]

    def draw(self, rng, phase):
        a = rng.getrandbits(self.k) | 1
        b = any_valuation(rng, self.k)
        return a, b, hex(a), hex(b), rng.randrange(len(self.dst)), rng.randint(3, self.k)

    def run(self, inp):
        _, _, ha, hb, d, j = inp
        k = self.k
        src, dst = self.roots[k, self.src], self.roots[k, self.dst[d]]
        a = kbit_core.Residue.parse(k, ha)
        b = kbit_core.Residue.parse(k, hb)
        ta = dlg_engine.factor_triple(a, src)
        tb = dlg_engine.factor_triple(b, src)
        product = dlg_engine.decode_triple(dlg_engine.log_multiply(ta, tb, src), src).hex()
        moved = dlg_engine.rebase(dlg_engine.DlgPair(s=ta.s, e=ta.e, k=k), src, dst)
        back = dlg_engine.decode_pair(moved, dst)
        low = dlg_engine.dlg_truncated(a, src, j)
        return ta, tb, product, moved, back, low

    def check(self, inp, out):
        a, b, _, _, d, j = inp
        ta, tb, product, moved, back, low = out
        k = self.k
        return (
            canonical(k, ta.s, ta.p, ta.e) and ta.p == 0
            and rebuild(self.src, k, ta.s, 0, ta.e) == a
            and canonical(k, tb.s, tb.p, tb.e)
            and rebuild(self.src, k, tb.s, tb.p, tb.e) == b
            and product.startswith("0x") and int(product, 16) == a * b % (1 << k)
            and canonical(k, moved.s, 0, moved.e) and moved.k == k
            and rebuild(self.dst[d], k, moved.s, 0, moved.e) == a
            and back.k == k and back.value == a
            and canonical(j, low.s, 0, low.e) and low.k == j
            and rebuild(self.src, j, low.s, 0, low.e) == a % (1 << j)
        )

    def odd_inputs(self, inp, out):
        a, b = inp[:2]
        return [(self.k, self.src, a)] + ([(self.k, self.src, odd_part(b))] if b else [])


class OneShotCli(Workload):
    """dlg2k.cli.main in-process, factor and decode alternating, fresh bases.

    Every call draws a new base, so no call finds a base validated
    before, as in a one-shot process. Widths cycle through every
    (command, width) pair in turn, so each run has the same mix and the
    median does not move with the seed's share of each width.
    """

    name = "oneshot-cli"
    modules = ("dlg2k", "dlg2k.cli")
    widths = (64, 256, 1024)
    batch = 6  # one of each (command, width) pair

    def draw(self, rng, phase):
        factor = self._alternate()
        k = self.widths[self._n // 2 % len(self.widths)]
        h = random_base(rng, k)
        common = ["--k", str(k), "--base", hex(h)]
        if factor:
            x = any_valuation(rng, k)
            return k, h, x, ["factor", *common, "--x", hex(x)]
        p = rng.randint(0, k)
        s, e = (0, 0) if p == k else (rng.getrandbits(1), rng.getrandbits(k - 2))
        return k, h, (s, p, e), ["decode", *common, "--s", str(s), "--p", str(p), "--e", str(e)]

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(inp[3])
        return code, buf.getvalue()

    def check(self, inp, out):
        k, h, arg, argv = inp
        code, text = out
        if code != 0:
            return False
        if argv[0] == "decode":
            line = text.strip()
            return line.startswith("0x") and text == line + "\n" and int(line, 16) == rebuild(h, k, *arg)
        obj = json.loads(text)
        e = obj.get("e")
        return (
            set(obj) == {"s", "p", "e", "k"} and obj["k"] == k
            and isinstance(e, str) and e.isascii() and e.isdigit()
            and canonical(k, obj["s"], obj["p"], int(e))
            and rebuild(h, k, obj["s"], obj["p"], int(e)) == arg
        )

    def odd_inputs(self, inp, out):
        k, h, arg, argv = inp
        return [(k, h, odd_part(arg))] if argv[0] == "factor" and arg else []


class Vectors256(Workload):
    """Records pulled from oracle.generate_vectors at k=256, two reused bases.

    Each phase (warm-up, untraced, traced) pulls from generators of its
    own, so a generator started under tracing is only resumed under it.
    """

    name = "vectors-256"
    k = 256
    batch = 96
    samples = 10**9  # the run, not the generator, decides how many to pull

    def __init__(self, seed):
        super().__init__(seed)
        self.bases = (3, random_base(_rng(self.name, "base", seed), self.k))
        self._gens = {}
        self._mirrors = {}

    def reused_bases(self):
        return [(self.k, h) for h in self.bases]

    def draw(self, rng, phase):
        return phase, self._alternate()

    def _stream_seed(self, phase, i) -> int:
        return _rng(self.name, "stream", self.seed, phase, i).getrandbits(64)

    def run(self, inp):
        gen = self._gens.get(inp)
        if gen is None:
            root = self.roots[self.k, self.bases[inp[1]]]
            gen = self._gens[inp] = oracle.generate_vectors(
                root, samples=self.samples, seed=self._stream_seed(*inp))
        return next(gen)

    def check(self, inp, rec):
        mirror = self._mirrors.get(inp)
        if mirror is None:
            mirror = self._mirrors[inp] = SplitMix64(self._stream_seed(*inp))
        x = mirror.bits(self.k)
        h = self.bases[inp[1]]
        e = rec.e
        return (
            rec.k == self.k and rec.h == hex(h) and rec.x == hex(x)
            and isinstance(e, str) and e.isascii() and e.isdigit()
            and canonical(self.k, rec.s, rec.p, int(e))
            and rebuild(h, self.k, rec.s, rec.p, int(e)) == x
        )

    def odd_inputs(self, inp, rec):
        x = int(rec.x, 16)
        return [(self.k, self.bases[inp[1]], odd_part(x))] if x else []


class SplitMix64:
    """The 64-bit splitmix stream, written from its published constants,
    so the vectors check does not trust the oracle's own generator."""

    def __init__(self, seed: int):
        self.state = seed % 2**64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    def bits(self, n: int) -> int:
        """n bits, least significant 64-bit word first."""
        v = 0
        for shift in range(0, n, 64):
            v |= self.next64() << shift
        return v % 2**n


WORKLOADS = {w.name: w for w in (RoundTrip, Lns64, OneShotCli, Vectors256)}
