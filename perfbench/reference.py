"""Fixed reference work that gauges the host's speed while the benchmark runs.

On a shared host the speed of one core swings by a factor of two within
seconds, and the speed of a fresh interpreter's imports drifts by as much
over minutes, far more than the differences a benchmark must resolve.  So
every time is rescaled by reference work measured beside it, and reads as
the time on a host where that work takes a fixed nominal time.

* Operations: the benchmark runs :func:`job` before the first operation of
  a round and after every operation, and reports
  ``op_ms * REFERENCE_MS / job_ms`` with the job's time around the
  operation.  The job mixes the kinds of work the package does: dict
  updates in the interpreter, float formatting, and a numpy sort of a few
  hundred kilobytes.  It does not track imports, so set-up has its own:
* Set-up: fresh interpreters running ``YARDSTICK``, which imports only the
  package's dependencies, alternate with those importing ``tollshare.cli``,
  and set-up time is reported as ``median * YARDSTICK_S / median``.

Neither uses ``tollshare``, so a change to the package cannot change them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Nominal times are about what one core of a 2-vCPU cloud VM (x86-64,
# Python 3.11, numpy 2.4, scipy 1.17) takes.
#: Nominal time of one job, in ms.
REFERENCE_MS = 10.0
REPEATS = 3
YARDSTICK = "import numpy, scipy.stats"
#: Nominal time of a fresh interpreter running ``YARDSTICK``, in s.
YARDSTICK_S = 1.5

_DATA = np.random.default_rng(0).random(100_000)
_FLOATS = _DATA[:3000].tolist()


def job() -> int:
    table: dict[int, float] = {}
    for i in range(20_000):
        table[i % 997] = table.get(i % 997, 0.0) + i * 0.5
    text = ",".join(repr(x) for x in _FLOATS)
    np.sort(_DATA).cumsum()
    return len(table) + len(text)


def job_ms() -> float:
    """Median wall time of ``REPEATS`` jobs, in ms."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        job()
        times.append(perf_counter() - start)
    return 1e3 * statistics.median(times)
