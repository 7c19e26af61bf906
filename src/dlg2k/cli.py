"""Command-line front end: factor, decode, roots, verify, vectors, bench."""

from __future__ import annotations

import argparse
import json
import sys
import time

from .dlg_engine import DlgTriple, decode_pair, decode_triple, dlg, dlg_counted, factor_triple
from .kbit_core import Residue, check_width, inverse
from .oracle import brute_force_dlg, draw_bits, generate_vectors, splitmix64
from .root_theory import enumerate_roots, validate_root

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _parse_width_list(text: str) -> list[int]:
    """A single width or an inclusive range like 3..10."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise ValueError
            widths = list(range(lo, hi + 1))
        else:
            widths = [int(text)]
    except ValueError:
        raise ValueError(f"--k takes an integer or a range like 3..10, got {text!r}") from None
    for k in widths:
        check_width(k)
    return widths


def _load_root(k: int, base_text: str):
    return validate_root(Residue.parse(k, base_text))


def cmd_factor(args) -> int:
    base = _load_root(args.k, args.base)
    t = factor_triple(Residue.parse(args.k, args.x), base)
    if args.format == "plain":
        print(f"s={t.s} p={t.p} e={t.e}")
    else:
        print(json.dumps(t.to_json(), separators=(",", ":")))
    return EXIT_OK


def cmd_decode(args) -> int:
    base = _load_root(args.k, args.base)
    t = DlgTriple(s=args.s, p=args.p, e=args.e, k=args.k)
    x = decode_triple(t, base)
    if args.format == "json":
        print(json.dumps({"x": x.hex(), "k": x.k}, separators=(",", ":")))
    else:
        print(x.hex())
    return EXIT_OK


def cmd_roots(args) -> int:
    roots = enumerate_roots(args.k)
    if args.count_only:
        print(len(roots))
    elif args.format == "json":
        print(json.dumps({"k": args.k, "roots": [r.h.hex() for r in roots]}, separators=(",", ":")))
    else:
        for r in roots:
            print(r.h.hex())
    return EXIT_OK


def _verify_exhaustive(widths: list[int]) -> int:
    total = bad = 0
    for k in widths:
        if k > 10:
            raise ValueError(f"exhaustive verification covers k <= 10, got {k}; use --samples")
        checked = mismatches = 0
        for root in enumerate_roots(k):
            for v in range(1, 1 << k, 2):
                a = Residue(k, v)
                if dlg(a, root) != brute_force_dlg(a, root):
                    mismatches += 1
                checked += 1
        print(f"k={k}: checked {checked} (base, A) pairs, {mismatches} mismatches")
        total += checked
        bad += mismatches
    print(f"total: {total} pairs checked, {bad} mismatches")
    return EXIT_OK if bad == 0 else EXIT_RUNTIME


def _verify_sampled(widths: list[int], samples: int, seed: int) -> int:
    total = bad = 0
    for k in widths:
        stream = splitmix64(seed)
        emod = 1 << (k - 2)
        bound = 2 * (k - 3) + 2
        hv = draw_bits(stream, k)
        hv = (hv & ~7) | (3 if hv & 8 else 5)
        if hv == 3:
            hv = 5
        bases = (validate_root(Residue(k, 3)), validate_root(Residue(k, hv)))
        checked = failures = 0
        for _ in range(samples):
            a = Residue(k, draw_bits(stream, k) | 1)
            for root in bases:
                pair, counter = dlg_counted(a, root)
                ok = decode_pair(pair, root) == a
                ok = ok and counter.count <= bound
                ok = ok and (pair.e + dlg(inverse(a), root).e) % emod == 0
                checked += 1
                if not ok:
                    failures += 1
        print(f"k={k}: checked {checked} (base, A) samples, {failures} failures")
        total += checked
        bad += failures
    print(f"total: {total} samples checked, {bad} failures")
    return EXIT_OK if bad == 0 else EXIT_RUNTIME


def cmd_verify(args) -> int:
    widths = _parse_width_list(args.k)
    if args.exhaustive == (args.samples is not None):
        raise ValueError("choose exactly one of --exhaustive or --samples N")
    if args.exhaustive:
        return _verify_exhaustive(widths)
    return _verify_sampled(widths, args.samples, args.seed)


def cmd_vectors(args) -> int:
    if args.exhaustive == (args.samples is not None):
        raise ValueError("choose exactly one of --exhaustive or --samples N")
    base = _load_root(args.k, args.base)
    samples = None if args.exhaustive else args.samples
    out = open(args.out, "w", newline="\n") if args.out else sys.stdout
    try:
        for vec in generate_vectors(base, samples=samples, seed=args.seed):
            out.write(vec.to_json_line() + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_bench(args) -> int:
    base = _load_root(args.k, args.base)
    k = args.k
    bound = 2 * (k - 3) + 2
    stream = splitmix64(args.seed)
    residues = [Residue(k, draw_bits(stream, k) | 1) for _ in range(args.samples)]
    worst = 0
    start = time.perf_counter()
    for a in residues:
        _, counter = dlg_counted(a, base)
        worst = max(worst, counter.count)
    elapsed = time.perf_counter() - start
    mean_us = elapsed / args.samples * 1e6 if args.samples else 0.0
    if args.format == "json":
        print(json.dumps({
            "k": k, "samples": args.samples, "seconds": round(elapsed, 6),
            "mean_us": round(mean_us, 3), "max_muls": worst, "bound": bound,
        }, separators=(",", ":")))
    else:
        print(f"k={k} samples={args.samples}")
        print(f"total {elapsed:.3f}s  mean {mean_us:.1f}us per dlg")
        print(f"max multiplications {worst} (bound {bound})")
    return EXIT_OK if worst <= bound else EXIT_RUNTIME


def _common(sp, fmt_default):
    sp.add_argument("--k", type=int, required=True, help="bit width")
    sp.add_argument("--base", default="0x3", help="base as 0x hex (default 0x3)")
    sp.add_argument("--format", choices=("json", "plain"), default=fmt_default)


def _factor_args(f):
    _common(f, "json")
    f.add_argument("--x", required=True, help="residue as 0x hex")
    f.set_defaults(func=cmd_factor)


def _decode_args(d):
    _common(d, "plain")
    d.add_argument("--s", type=int, required=True, help="sign bit")
    d.add_argument("--p", type=int, required=True, help="dyadic valuation")
    d.add_argument("--e", type=int, required=True, help="exponent, decimal")
    d.set_defaults(func=cmd_decode)


def _roots_args(r):
    r.add_argument("--k", type=int, required=True, help="bit width")
    r.add_argument("--count-only", action="store_true")
    r.add_argument("--format", choices=("json", "plain"), default="plain")
    r.set_defaults(func=cmd_roots)


def _verify_args(v):
    v.add_argument("--k", required=True, help="width or inclusive range like 3..10")
    v.add_argument("--exhaustive", action="store_true", help="all bases, all odd residues (k <= 10)")
    v.add_argument("--samples", type=int, help="sampled mode: residues per width")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)


def _vectors_args(g):
    g.add_argument("--k", type=int, required=True, help="bit width")
    g.add_argument("--base", default="0x3", help="base as 0x hex (default 0x3)")
    g.add_argument("--exhaustive", action="store_true", help="every residue, ascending (k <= 16)")
    g.add_argument("--samples", type=int, help="sampled mode: number of records")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="write to a file instead of stdout")
    g.set_defaults(func=cmd_vectors)


def _bench_args(b):
    _common(b, "plain")
    b.add_argument("--samples", type=int, default=1000)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bench)


# subcommand -> (help line, function adding its arguments), in help order
COMMANDS = {
    "factor": ("factor a residue into its (s, p, e) triple", _factor_args),
    "decode": ("rebuild the residue from (s, p, e)", _decode_args),
    "roots": ("list the valid bases at a width (k <= 16)", _roots_args),
    "verify": ("certify the engine against the oracle or round trips", _verify_args),
    "vectors": ("emit conformance vectors as JSON lines", _vectors_args),
    "bench": ("time the engine and report multiplication counts", _bench_args),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dlg2k",
        description="Discrete logarithms modulo 2**k over semi-primitive-root bases.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return p


def parse_args(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) returns, building one subparser.

    A subcommand's parser alone behaves exactly like the same subparser
    inside the full one, except that the full parser reports arguments
    left over; those, and anything not led by a subcommand, go to it.
    """
    if argv and argv[0] in COMMANDS:
        sp = argparse.ArgumentParser(prog=f"dlg2k {argv[0]}")
        COMMANDS[argv[0]][1](sp)
        args, extras = sp.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
