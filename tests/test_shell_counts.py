"""The closed-form minimal-vector counts against an independent count above N = 12.

The oracle search checks Lattice.count_minimal_vectors only up to N = 12.
perfbench/checks.py counts the short vectors with a dynamic program over
(norm^2, coordinate sum, group-weighted sum), with none of eclat's
arithmetic, so it can check the closed forms well past that: no nonzero
vector has norm^2 below 4, and exactly count_minimal_vectors() have norm^2 4.
"""

import sys
from pathlib import Path

import pytest
from reference import canonical_groups_of_order

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
from eclat.groups import AbelianGroup  # noqa: E402
from eclat.lattice import Lattice  # noqa: E402

# every canonical group with 13 <= N <= 40, and the minvec sizes of the benchmark and the CI digests
SHELL_SPECS = [g.spec() for N in range(13, 41) for g in canonical_groups_of_order(N)] + ["1x96", "2x48", "4x24", "1x128"]


@pytest.mark.parametrize("spec", SHELL_SPECS)
def test_short_vector_count_matches_the_closed_forms(spec):
    m, n = map(int, spec.split("x"))
    assert checks.short_vector_count(m, n, 3) == 0
    count = checks.short_vector_count(m, n, 4)
    assert count == Lattice(AbelianGroup(m, n)).count_minimal_vectors() == checks.min_vector_count(m, n)
