"""dlg2k benchmark: one workload, one seed, one closed-loop client.

    python3 dlgbench/run.py --workload roundtrip-1024 --seed 1 --seconds 20 --trace 0

Run from the root of a dlg2k checkout; the program is imported from
./src, never from an installed copy. One process runs one workload, so
set-up time and peak memory belong to that workload alone.

--trace 0 reports the end-to-end metrics setup_s, ops_per_s, op_p50_us
and peak_rss_mb, and prints op_p99_us and failed_ratio. The gated
timings are scaled to a nominal host speed (see calibrate.py); their
wall-clock values are printed beside them.
--trace 1 alternates untraced and traced slices of the window and
reports the per-layer metrics in spans.PER_LAYER, including the
traced/untraced throughput ratio.

Every operation is checked after its batch, outside the timed region.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the full result, with the environment,
and the traced run's spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

from calibrate import reference_chunk, to_nominal

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 15  # fresh processes per run, spread over the window; setup_s is their median
WARMUP_S = 0.5
MIN_OPS = 1000  # leaves ten samples beyond the 99th percentile; peak_rss_mb is read here
MAX_WINDOW_FACTOR = 3  # a slow machine may stretch the window this far for MIN_OPS
SLICE_S = 0.25  # traced runs alternate untraced and traced slices this long

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_us", "us"),
)
# Printed and kept in the result file but not in the JSON metrics.
# op_p99_us on roundtrip-1024 rests on about 17 samples beyond it and
# spreads past the largest bound a metric may have (see README.md).
# failed_ratio is 0 on correct code; attempted and failed carry failures.
REPORTED = (("op_p99_us", "us"), ("failed_ratio", "ratio"))

# Times `import dlg2k` and validate_root on the reused bases in a fresh
# interpreter, then five reference chunks there. argv: src dir, benchmark
# dir, comma-separated modules, then k:hex bases.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
for m in sys.argv[3].split(","):
    __import__(m)
from dlg2k.kbit_core import Residue
from dlg2k.root_theory import validate_root
for kh in sys.argv[4:]:
    k, h = kh.split(":")
    validate_root(Residue(int(k), int(h, 16)))
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from calibrate import reference_chunk
reference_chunk()
print(repr(setup), *(repr(reference_chunk()) for _ in range(5)))
"""


def load_program():
    """Import dlg2k from this checkout's src/, refusing any other copy."""
    if not (SRC / "dlg2k" / "__init__.py").is_file():
        raise SystemExit(f"error: no dlg2k sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dlg2k

    if Path(dlg2k.__file__).resolve().parent != SRC / "dlg2k":
        raise SystemExit(f"error: imported dlg2k from {dlg2k.__file__}, not {SRC}")
    return dlg2k


def time_setup(modules, bases) -> tuple[float, list[float]]:
    """One set-up, timed in a fresh interpreter, and the reference chunks timed after it."""
    argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(Path(__file__).resolve().parent), ",".join(modules),
            *(f"{k}:{h:x}" for k, h in bases)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup, *refs = map(float, done.stdout.strip().splitlines()[-1].split())
    return setup, refs


class Window:
    """Operations run in one mode, with their timed wall clock.

    With calibrate set, the reference chunk runs after every batch, its
    times are kept in ref_times, and the batch's elapsed time and
    latencies are also kept scaled to the nominal host speed of the
    chunks on either side of it.

    With rss_after set, peak_rss_mb is read after the first batch that
    brings the window to that many operations. Memory a long run keeps
    adding (CPython's tuple free lists fill slowly on lns-64, about 40
    bytes an operation, up to a few MB) then counts for a fixed amount of
    work, so a faster program does not read as a larger one.
    """

    def __init__(self, rss_after: int | None = None, calibrate: bool = False):
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.latencies = array("d")
        self.first_failure = None
        self.rss_after = rss_after
        self.peak_rss_mb = None
        self.ref_times = array("d") if calibrate else None
        self.nominal_elapsed = 0.0
        self.nominal_latencies = array("d")

    @property
    def verified(self) -> int:
        return self.attempted - self.failed

    def add_nominal(self, first: int, elapsed: float) -> None:
        """Scale the batch whose latencies start at index first.

        The host's speed changes between phases that last from a fraction
        of a second to minutes, so each batch is scaled by the chunks
        timed just before and just after it, not by the run's mean.
        """
        f = to_nominal(self.ref_times[-2:])
        self.nominal_elapsed += elapsed * f
        self.nominal_latencies.extend(x * f for x in self.latencies[first:])


class Runner:
    def __init__(self, workload, seed: int, tracer=None, rebinder=None):
        self.wl = workload
        self.rng = random.Random(f"{workload.name}/inputs/{seed}")
        self.tracer = tracer
        self.rebinder = rebinder
        self.odd_logs = []  # (k, h, odd value) of traced operations

    def batch(self, phase: str, win: Window, until, traced: bool = False) -> None:
        """Run one batch of operations, then check them untimed.

        until(elapsed, attempted) ends the batch early once it holds.
        """
        wl, tracer = self.wl, self.tracer
        inputs = [wl.draw(self.rng, phase) for _ in range(wl.batch)]
        results = []
        lat = win.latencies
        first = len(lat)
        if traced:
            self.rebinder.install()
        t0 = perf_counter()
        try:
            for inp in inputs:
                s = perf_counter()
                if traced:
                    tracer.op_id += 1
                    span = tracer.open(0)
                try:
                    out, ok = wl.run(inp), True
                except Exception:  # a failed operation is counted, not fatal
                    out, ok = traceback.format_exc(), False
                finally:
                    if traced:
                        tracer.close(span)
                e = perf_counter()
                lat.append(e - s)
                results.append((inp, out, ok))
                if until(win.elapsed + (e - t0), win.attempted + len(results)):
                    break
        finally:
            elapsed = perf_counter() - t0
            win.elapsed += elapsed
            if traced:
                self.rebinder.uninstall()
        if win.ref_times is not None:
            win.ref_times.append(reference_chunk())
            win.add_nominal(first, elapsed)
        for inp, out, ok in results:
            win.attempted += 1
            if ok:
                try:
                    ok = wl.check(inp, out)
                except Exception:  # malformed output is a wrong answer
                    out, ok = traceback.format_exc(), False
                if not ok and win.first_failure is None:
                    win.first_failure = f"wrong result for input {inp!r}: {out!r}"[:2000]
            elif win.first_failure is None:
                win.first_failure = f"input {inp!r} raised:\n{out}"
            if not ok:
                win.failed += 1
            elif traced:
                self.odd_logs.extend(wl.odd_inputs(inp, out))
        if win.peak_rss_mb is None and win.rss_after is not None and win.attempted >= win.rss_after:
            win.peak_rss_mb = peak_rss_mb()

    def fill(self, phase: str, win: Window, seconds: float, min_ops: int = 0, traced=False):
        """Run batches until the window holds `seconds` of operations."""
        cap = seconds * MAX_WINDOW_FACTOR

        def until(elapsed, attempted):
            return elapsed >= cap or (elapsed >= seconds and attempted >= min_ops)

        while not until(win.elapsed, win.attempted):
            self.batch(phase, win, until, traced)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile_tail(xs: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile of sorted xs and how many samples lie beyond it."""
    rank = math.ceil(q * len(xs))
    return xs[rank - 1], len(xs) - rank


def muls_per_log(logs, modules) -> float:
    """Mean dlg_counted(...).count over the traced operations' odd inputs."""
    Residue = modules["kbit_core"].Residue
    roots = {}
    counts = []
    for k, h, v in logs:
        root = roots.get((k, h))
        if root is None:
            root = roots[k, h] = modules["root_theory"].validate_root(Residue(k, h))
        counts.append(modules["dlg_engine"].dlg_counted(Residue(k, v), root)[1].count)
    return statistics.fmean(counts) if counts else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 setup_repeats: int = SETUP_REPEATS, min_ops: int = MIN_OPS,
                 warmup_s: float = WARMUP_S, write_spans: bool = True) -> dict:
    """Run one workload and return its full result (see main for output)."""
    from workloads import MODULES, WORKLOADS

    wl = WORKLOADS[name](seed)
    bases = wl.reused_bases()
    Residue = MODULES["kbit_core"].Residue
    wl.prepare({(k, h): MODULES["root_theory"].validate_root(Residue(k, h)) for k, h in bases})

    tracer = rebinder = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.seen["root_theory.validate_root"].update(bases)
        rebinder = spans.Rebinder(tracer, MODULES)
    runner = Runner(wl, seed, tracer, rebinder)
    warm = Window()
    runner.fill("warm", warm, warmup_s)

    plain = Window(rss_after=min_ops, calibrate=not trace)
    traced = Window()
    setup_times, setup_factors = [], []
    if not trace:
        # Set-up is timed between slices of the window, so its median sees
        # the host's speed over the whole run, as ops_per_s does.
        for i in range(1, setup_repeats + 1):
            setup, refs = time_setup(wl.modules, bases)
            setup_times.append(setup)
            setup_factors.append(to_nominal(refs))
            runner.fill("plain", plain, seconds * i / setup_repeats,
                        min_ops if i == setup_repeats else 0)
    else:
        half = seconds / 2
        while plain.elapsed < half or traced.elapsed < half:
            runner.fill("plain", plain, min(half, plain.elapsed + SLICE_S))
            runner.fill("traced", traced, min(half, traced.elapsed + SLICE_S), traced=True)

    windows = (plain, traced) if trace else (plain,)
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0 and warm.failed == 0,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "warmup": {"attempted": warm.attempted, "failed": warm.failed},
        "first_failure": next((w.first_failure for w in (warm, *windows) if w.first_failure), None),
        "window_s": plain.elapsed, "verified": plain.verified,
        "setup_runs_s": setup_times,
        "setup_to_nominal": setup_factors,
    }
    if not trace:
        lat = sorted(plain.latencies)
        p99, beyond = percentile_tail(lat, 0.99)
        result["samples"] = len(lat)
        result["p99_beyond"] = beyond
        result["op_p99_us"] = p99 * 1e6
        wall = result["wall"] = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": plain.verified / plain.elapsed,
            "op_p50_us": statistics.median(lat) * 1e6,
        }
        result["to_nominal"] = plain.nominal_elapsed / plain.elapsed
        result["ref_chunks"] = len(plain.ref_times)
        metrics = {
            # each set-up is scaled by the chunks its own interpreter timed
            "setup_s": statistics.median(s * f for s, f in zip(setup_times, setup_factors)),
            "ops_per_s": plain.verified / plain.nominal_elapsed,
            # None only if the window hit its cap before MIN_OPS ran
            "peak_rss_mb": plain.peak_rss_mb or peak_rss_mb(),
            "op_p50_us": statistics.median(plain.nominal_latencies) * 1e6,
        }
    else:
        import spans

        metrics = spans.layer_metrics(tracer)
        metrics["dlg_engine.muls_per_log"] = muls_per_log(runner.odd_logs, MODULES)
        metrics["tracing_overhead_ratio"] = (
            (traced.verified / traced.elapsed) / (plain.verified / plain.elapsed))
        metrics = {n: metrics[n] for n, _, _ in spans.PER_LAYER}
        result["traced_ops"] = traced.attempted
        result["spans"] = len(tracer.start)
        if write_spans:
            OUT.mkdir(exist_ok=True)
            tracer.write(str(OUT / f"{name}-seed{seed}.spans.tsv.gz"))
    result["metrics"] = metrics
    return result


def environment(seed: int, dlg2k) -> dict:
    """What a speed claim must state about where it was measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "dlg2k").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "have_gmpy2": dlg2k.kbit_core.HAVE_GMPY2,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD's commit when the checkout is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    dlg2k = load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["env"] = environment(args.seed, dlg2k)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print("env " + json.dumps(result["env"]))
    m = result["metrics"]
    if args.trace:
        report_layers(result)
    else:
        print(f"{args.workload} seed={args.seed} samples={result['samples']} "
              f"(beyond p99: {result['p99_beyond']}) attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={result['failed_ratio']}")
        print(f"  host speed: window wall time x {result['to_nominal']:.4f} = nominal-speed time "
              f"({result['ref_chunks']} reference chunks)")
        for key, unit in END_TO_END:
            wall = f" (wall clock {result['wall'][key]:.6g})" if key in result["wall"] else ""
            print(f"  {key} = {m[key]:.6g} {unit}{wall}")
        for key, unit in REPORTED:
            print(f"  {key} = {result[key]:.6g} {unit} (reported, not gated)")
    if result["first_failure"]:
        print(f"first failure: {result['first_failure']}", file=sys.stderr)
    units = dict(END_TO_END)
    if args.trace:
        import spans

        units = {n: u for n, u, _ in spans.PER_LAYER}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": m[n], "unit": u} for n, u in units.items()},
    }))
    return 0


def report_layers(result: dict) -> None:
    """Self time per traced function as a share of the traced operations."""
    import spans

    m = result["metrics"]
    busy = {fn: m[f"{fn}.busy_s"] for fn in spans.TRACED}
    busy["(benchmark glue)"] = m["bench.op_busy_s"]
    total = sum(busy.values())
    print(f"{result['workload']} seed={result['seed']} traced_ops={result['traced_ops']} "
          f"spans={result['spans']} attempted={result['attempted']} failed={result['failed']}")
    for fn, s in sorted(busy.items(), key=lambda kv: -kv[1]):
        if s:
            print(f"  {fn:28s} self {s:9.4f} s  {s / total:6.1%}")
    for key in ("root_theory.validate_root.repeat_ratio", "dlg_engine.rebase.repeat_pair_ratio",
                "dlg_engine.muls_per_log", "tracing_overhead_ratio"):
        print(f"  {key} = {m[key]:.6g}")


if __name__ == "__main__":
    sys.exit(main())
