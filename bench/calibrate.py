"""A fixed reference command that imports nothing from `infoclosure`.

    python3 -I calibrate.py

The host this benchmark runs on changes speed by tens of percent within
seconds, as other tenants load it.  `run.py` launches this program right
before every invocation it times and measures its wall time the same way,
from launch to exit.  It does what an invocation does, without the
package: it starts an interpreter, imports the numpy and scipy modules
that the package imports, and runs a pure-Python loop of exact-rational
arithmetic, logarithms, dictionary updates and small tuples like the
command line's inner loops.  No change to the package can move its time.
"""

import math
import sys
from fractions import Fraction

import numpy  # noqa: F401  (imported for its load time)
import scipy.integrate  # noqa: F401
import scipy.special  # noqa: F401


def loop() -> None:
    total = Fraction(0)
    acc = 0.0
    table: dict = {}
    for i in range(1, 40000):
        total += Fraction(i % 97 + 1, i % 13 + 1)
        acc += math.log(i) * (i % 7)
        key = (i % 101, i % 7)
        table[key] = table.get(key, 0) + 1
    if not (total > 0 and acc > 0 and table):
        sys.exit("calibration loop produced an impossible result")


if __name__ == "__main__":
    loop()
