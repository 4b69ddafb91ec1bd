"""The traced benchmark run (perfbench/spans.py) wraps library functions under
the names their callers look up, such as Lattice.svp_oracle, geometry.cvp,
Lattice.contains, AbelianGroup.elements, basis.gram_report,
lattice.gram_matrix, lattice.det_bareiss, curves.factorize and
curves.point_order. Installing the recorder fails if a refactor drops one."""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
from eclat import cli, geometry, lattice  # noqa: E402


def test_span_recorder_installs_counts_and_restores():
    originals = (lattice.Lattice.__dict__["svp_oracle"], geometry.cvp)
    rec = spans.Recorder()
    restore = rec.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["covering", "--group", "1x4", "--trials", "3", "--seed", "1", "--json"]) == 0
            assert cli.main(["oracle", "--group", "1x5", "--json"]) == 0
    finally:
        restore()
    assert (lattice.Lattice.__dict__["svp_oracle"], geometry.cvp) == originals
    metrics = rec.metrics()
    assert metrics["cli.main.calls"] == 2
    assert metrics["geometry.cvp.calls"] == 4  # the deep hole plus three trials
    assert metrics["lattice.svp_oracle.count"] > 0


def test_basis_certification_skips_bareiss():
    rec = spans.Recorder()
    restore = rec.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["basis", "--group", "1x7", "--json"]) == 0
    finally:
        restore()
    assert rec.counts["basis.verify_basis.calls"] == 1
    assert rec.metrics()["exact.det_bareiss.calls"] == 0
