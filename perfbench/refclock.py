"""Reference clock: how fast this machine runs Python right now.

The host is shared, and its speed for single-threaded Python drifts by up
to 2x over seconds as other tenants load it.  Around every timed op the
benchmark runs this fixed pure-Python loop (dict updates on tuple keys
and integer arithmetic, like the program's own inner loops) and scales
the op's time by REFERENCE_S / (loop time).  Reported times are
therefore "ms at reference speed": what the op would take on a machine
where the loop takes REFERENCE_S, which is this 2-core x86 host in its
quiet periods.  The unscaled times are kept in the run record.
"""

from time import perf_counter

REFERENCE_S = 0.005


def reference_seconds() -> float:
    start = perf_counter()
    table: dict = {}
    x = 1
    for i in range(12_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i
        x = (x * 1103515245 + 12345) % (1 << 61)
    return perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Multiplier that converts a time measured between two reference
    runs to reference speed."""
    return REFERENCE_S / ((before + after) / 2)
