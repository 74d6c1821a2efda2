"""Machine-speed reference that every reported time is scaled by.

On a shared 2-vCPU host a core runs at its normal speed or up to about 1.5x
slower, in stretches from half a second to several minutes; CPU time slows
with wall time, so the slowdown is the core's, not the scheduler's.  A run's
own median or best cannot remove a stretch that covers the whole run, so two
sets of runs minutes apart would differ by more than any useful bound.

The benchmark therefore runs `chunk`, a fixed piece of pure-Python integer
and dict work of the kind nilco does, right after every operation, and
reports each operation's wall time multiplied by REF_S / (the median time of
the nearby chunks): seconds at the speed at which `chunk` takes REF_S.  The
chunk imports nothing from nilco, so a change to nilco cannot move it; the
raw wall times are printed beside the result.
"""

import statistics
import time

# The chunk's time on the reference host (a 2-vCPU cloud VM) at its usual
# speed; it only fixes the scale of the reported seconds.
REF_S = 0.00035

# Chunks on either side of an operation whose median sets its scale.
NEIGHBOURS = 5


def _matrix(n, seed):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            seed = (seed * 1103515245 + 12345) % 2**31
            row.append(seed % 20001 - 10000)
        rows.append(row)
    return rows


_M = _matrix(9, 12345)


def _bareiss(M):
    M = [row[:] for row in M]
    prev = 1
    for k in range(len(M) - 1):
        for i in range(k + 1, len(M)):
            for j in range(k + 1, len(M)):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return M[-1][-1]


def chunk():
    """Wall time of one fixed piece of work."""
    start = time.perf_counter()
    table = {}
    for r in range(3):
        det = _bareiss(_M)
        for i in range(200):
            table[(i, r)] = (det >> i) & 0xFF
    return time.perf_counter() - start


def scaled(wall, chunks):
    """`wall[i]` in reference seconds, scaled by the chunks around `i`."""
    out = []
    for i, w in enumerate(wall):
        near = chunks[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1]
        out.append(w * REF_S / statistics.median(near))
    return out
