"""Host-speed calibration: a fixed chunk of pure-Python work, timed.

The host shares its cores with other machines, and its speed drifts by
up to 1.4x over seconds to minutes. That drift moves every timing of a
run by the same factor, program and reference chunk alike. The
benchmark runs the chunk between batches of operations and scales its
timings to the speed at which one chunk takes REF_NOMINAL_S, so the
gated timings follow the program, not the host's speed at the time.

The chunk calls nothing in dlg2k: a change to the program cannot move
it. Like the workloads, it is interpreter dispatch and big-int
arithmetic, so the host's drift slows both alike.
"""

from __future__ import annotations

from time import perf_counter

REF_NOMINAL_S = 0.002  # about one chunk's time on the Xeon host the baseline was recorded on

_MASK = (1 << 1024) - 1


def reference_chunk() -> float:
    """Run the fixed chunk once and return its wall time in seconds."""
    t0 = perf_counter()
    x = 0x1234567
    for i in range(1500):
        x = (x * x + i) & _MASK
    counts = {}
    for i in range(1500):
        counts[i & 63] = counts.get(i & 63, 0) + i
    return perf_counter() - t0


def to_nominal(ref_times) -> float:
    """Factor that turns a time measured beside ref_times into nominal-speed time.

    Multiply a duration by it, divide a rate by it. The mean, not the
    median, weights each host phase by how long the chunks spent in it,
    as the program's own time does.
    """
    return REF_NOMINAL_S * len(ref_times) / sum(ref_times)
