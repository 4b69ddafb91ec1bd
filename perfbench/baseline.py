"""Time the three library calls the ROADMAP baseline quotes.

    python3 perfbench/baseline.py

build_minimal_basis(1x300), group_structure for y^2 = x^3 + x over F_9973
(the points enumerated beforehand, outside the timing) and
minimal_vectors(1x128); each is run three times and the median printed.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eclat import AbelianGroup, build_minimal_basis, curves  # noqa: E402
from eclat.lattice import Lattice  # noqa: E402

REPEATS = 3


def median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    curve = curves.Curve(9973, 1, 0)
    points = curve.points()
    cases = {
        "build_minimal_basis(1x300)": lambda: build_minimal_basis(AbelianGroup(1, 300)),
        "group_structure(p=9973)": lambda: curves.group_structure(points, curve),
        "minimal_vectors(1x128)": lambda: Lattice(AbelianGroup(1, 128)).minimal_vectors(),
    }
    for name, fn in cases.items():
        print(f"{name:28} {median_time(fn):.3f} s (median of {REPEATS})", flush=True)


if __name__ == "__main__":
    main()
