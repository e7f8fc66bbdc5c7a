"""Machine-speed reference for the end-to-end timings.

On a shared virtual machine the same code runs 20-60 % slower for spells that
last from seconds to many minutes, which swamps any change worth measuring.
The worker therefore times a fixed reference, which never calls lahbell,
right after every op, and run.py divides each op latency by its round's
median reference time over REFERENCE_S: the figures read as they would on a
machine where the reference takes REFERENCE_S. The reference mixes
what the workloads do: numpy inverse-CDF lookups and a mean, rational
products, big-integer multiplies and interpreted calls. A lahbell change does
not move it, so it cancels machine drift and leaves program changes in the
figures. The raw (unscaled) figures are printed as well.
"""

from fractions import Fraction
from time import perf_counter

import numpy as np

# Near the fastest reference passes seen on the 2-vCPU virtual machine of the
# baseline; it only fixes the scale of the reported figures.
REFERENCE_S = 0.004

_TABLE = np.cumsum(np.full(50, 1 / 50))
_UNIFORMS = np.random.default_rng(0).random(50_000)
_A = 3**4000
_B = 7**4000


def _step(i: int) -> int:
    return i * 3 + 1


def _reference() -> None:
    np.searchsorted(_TABLE, _UNIFORMS, side="right").astype(np.float64).mean()
    out = Fraction(1)
    for j in range(60):
        out *= Fraction(5, 13) - j * Fraction(3, 16)
    for _ in range(10):
        (_A * _B) % 1_000_003
    total = 0
    for i in range(5000):
        total += _step(i) & 7


def reference_seconds() -> float:
    """Wall time of one pass of the reference."""
    start = perf_counter()
    _reference()
    return perf_counter() - start
