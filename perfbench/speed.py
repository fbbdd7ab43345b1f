"""A helper process that times a fixed slice of work on request.

Started by ``loops.HostSpeed``::

    python3 perfbench/speed.py

It prints ``ready`` once it has imported what it needs and run one
slice.  Then it answers every line it reads with the seconds one slice
took, and exits at the end of its input.  The slice is work of the kinds
the program does (a small HiGHS LP, JSON, sha256 and a Python loop), with
numpy, scipy and the standard library only, never the program.  It runs
in a process of its own so that the program's threads, heap and garbage
collections cannot slow it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import numpy as np
from scipy import optimize


def main() -> int:
    rng = np.random.default_rng(0)
    a = rng.random((60, 40))
    b = a.sum(axis=1)
    c = -rng.random(40)
    doc = {f"k{i}": [i * 0.5, str(i), {"x": i}] for i in range(300)}

    def one_slice() -> float:
        started = time.perf_counter()
        for _ in range(4):
            optimize.linprog(c, A_ub=a, b_ub=b, bounds=(0, 1), method="highs")
            text = json.dumps(doc, sort_keys=True)
            hashlib.sha256(text.encode()).hexdigest()
            json.loads(text)
            total = 0
            for i in range(3000):
                total += i * i % 7
        return time.perf_counter() - started

    one_slice()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(one_slice()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
