"""A fixed job that measures how fast the host runs Python right now.

    python3 bench/reference.py

``run.py`` runs it in a fresh interpreter before every untraced pass and
scales the pass's times by it (see ``REFERENCE_S`` there).  It uses no
``idealdensity`` code, so a change to the package never moves it, and it
mixes the kinds of work the package does: dict and tuple hashing, Fraction
and big-integer arithmetic, integer square roots and strided numpy marking.
"""

import math
import random
from fractions import Fraction

import numpy as np


def main() -> None:
    rng = random.Random(0)
    counts: dict = {}
    for i in range(150_000):
        key = (rng.randrange(2000), rng.randrange(2000))
        counts[key] = counts.get(key, 0) + i * i
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction((-1) ** i, i * i + 1)
    lattice = sum(2 * math.isqrt(3_000_000 - a * a) + 1
                  for a in range(-1732, 1733))
    marks = np.zeros(4_000_000, dtype=bool)
    for p in range(2, 300):
        marks[p::p] = True
    assert lattice == 9424753 and total.denominator > 1 and not marks[1]


if __name__ == "__main__":
    main()
