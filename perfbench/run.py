"""Run one benchmark workload against the ``eclat`` CLI in this checkout.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Every operation is one ``eclat.cli.main(argv)`` call made in this process,
with stdout captured, so each report is exactly what the ``eclat`` entry
point prints. Reports are checked by ``checks.py`` outside the timed region.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

--trace 0 runs ``workloads.round_count(workload, seconds)`` whole rounds,
about --seconds of operations on the reference machine, and reports the
end-to-end metrics. ``correct`` is false when any operation failed: it
raised, exited non-zero or printed a wrong report.

--trace 1 runs the first round once with the span recorder installed, on
cold inputs, and reports the per-layer metrics; its length is one round, not
--seconds, so its counts repeat exactly for a seed. The same round then runs
plainly in a fresh process, for trace.overhead_s, and under tracemalloc in
another, for lattice.minimal_vectors.peak_mb. The spans are written to
perfbench/traces/<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from itertools import islice
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_RUNS = 25

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "peak_rss_mb": "MB"}

_SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import eclat.cli\n"
    "eclat.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def measure_setup() -> float:
    """Shortest time, over SETUP_RUNS fresh interpreters, to import eclat.cli
    and build its parser. The fixed cost is what is wanted; a start that a
    busy machine slows only adds noise, so the minimum is taken, not the
    median. One unrecorded start first writes the bytecode caches."""
    times = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(done.stdout))
    return min(times)


class Tally:
    def __init__(self) -> None:
        self.times: list[float] = []  # wall times of the operations that passed
        self.measured = 0.0  # wall time of every operation, failed ones too
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def run(self, cli, argv) -> None:
        """Run one operation, time it and check its report.

        stdout goes to an unnamed temporary file through a text wrapper, as
        the entry point's does, so the program holds no extra in-memory copy
        of its report, and the check reads the report back from that file.
        An operation that raises, exits non-zero or prints a wrong report is
        failed; its time counts in ``measured`` but not in ``times``.
        """
        gc.collect()
        err = io.StringIO()
        crash = None
        with tempfile.TemporaryFile(dir=HERE) as raw:
            out = io.TextIOWrapper(raw, encoding="utf-8", newline="")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = cli.main(list(argv))
                    out.flush()
                except Exception:  # a crash of the program is a failed operation
                    code, crash = None, traceback.format_exc()
                elapsed = time.perf_counter() - start
            out.detach()
            self.output_bytes += raw.tell()
            self.attempted += 1
            self.measured += elapsed
            if code != 0:
                self.failed += 1
                print(f"FAILED {' '.join(argv)}: exit {code}\n{crash or err.getvalue()}", file=sys.stderr)
                return
            raw.seek(0)
            try:
                checks.check_report(argv, raw)
            except checks.CheckFailed as exc:
                self.failed += 1
                print(f"WRONG {' '.join(argv)}: {exc}", file=sys.stderr)
                return
        self.times.append(elapsed)


def run_untraced(cli, workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    setup = measure_setup()
    tally = Tally()
    rounds = 0
    try:
        for ops in islice(workloads.rounds(workload, seed), workloads.round_count(workload, seconds)):
            for argv in ops:
                tally.run(cli, argv)
            rounds += 1
    except workloads.Exhausted as exc:  # rounds are drawn whole, so the ones run stay whole
        print(f"inputs used up after {rounds} rounds: {exc}", file=sys.stderr)
    print(f"{workload}: {rounds} rounds, {tally.attempted} operations, {tally.measured:.3f} s measured", file=sys.stderr)
    metrics = {
        "setup_s": setup,
        "ops_per_s": (tally.attempted - tally.failed) / tally.measured,
        "op_p50_s": statistics.median(tally.times) if tally.times else tally.measured,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


def first_round(cli, workload: str, seed: int, recorder: spans.Recorder | None = None) -> Tally:
    """Run the workload's first round once, with the recorder's wrappers
    installed when one is given."""
    tally = Tally()
    restore = recorder.install() if recorder else None
    try:
        for argv in next(workloads.rounds(workload, seed)):
            tally.run(cli, argv)
    finally:
        if restore:
            restore()
    return tally


def pass_in_child(workload: str, seed: int, kind: str) -> dict:
    """The first round run in a fresh process, plainly or under tracemalloc."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--pass", kind],
        stdout=subprocess.PIPE, timeout=170, check=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def run_traced(cli, workload: str, seed: int) -> tuple[Tally, dict]:
    """Trace the first round in this process, on inputs no earlier operation
    used; then run the same round plainly in a fresh process for
    trace.overhead_s and, where minimal_vectors ran, under tracemalloc in
    another for its peak."""
    recorder = spans.Recorder()
    tally = first_round(cli, workload, seed, recorder)
    values = recorder.metrics()
    values["cli.output_bytes"] = tally.output_bytes
    values["trace.overhead_s"] = tally.measured - pass_in_child(workload, seed, "plain")["seconds"]
    values["lattice.minimal_vectors.peak_mb"] = (
        pass_in_child(workload, seed, "memory")["peak_mb"] if values["lattice.minimal_vectors.count"] else 0.0
    )
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    recorder.write(str(out_dir / f"{workload}-seed{seed}.json"))
    return tally, {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}


def result(tally: Tally, metrics: dict) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one plain or tracemalloc pass of the first round, started by --trace 1
    parser.add_argument("--pass", dest="one_pass", choices=("plain", "memory"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "eclat" / "cli.py").is_file():
        print(f"error: no eclat sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eclat.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported eclat from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.one_pass:
        recorder = spans.Recorder(memory=True)
        tally = first_round(cli, args.workload, args.seed, recorder if args.one_pass == "memory" else None)
        peak = recorder.peaks.get("lattice.minimal_vectors", 0.0)
        print(json.dumps({"seconds": tally.measured, "peak_mb": peak}))
        return 0
    if args.trace:
        tally, metrics = run_traced(cli, args.workload, args.seed)
    else:
        tally, metrics = run_untraced(cli, args.workload, args.seed, args.seconds)
    print(json.dumps(result(tally, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
