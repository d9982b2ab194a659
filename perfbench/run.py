"""Repository benchmark: three serial workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload dataset-roundtrip --seed 2018 \\
        --seconds 45 --trace 0

Workloads: ``dataset-roundtrip``, ``session-replay`` (see ``NOTES.md``
beside this file).  The program is imported from ``src/`` of the same
checkout and called serially from this process.

A workload has one or more inputs (``inputs``), all built from the
seed.  Each run sets up ``SETUP_REPEATS`` times, cycling through the
inputs, then runs the timed part on the inputs in turn for about
``--seconds`` (at least once per input); it reports the median set-up
time and the mean time of an iteration and of each of its two stages
(averaged per input, then over the inputs).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` splits the
same time between an untraced loop and one with ``repro.obs`` switched
on that runs every input at least twice, reports the per-layer
metrics, and fails if a count differs between two traced iterations
of one input.  Metric names and units are the ones declared in
``BENCHMARK.json``.

Output: a readable report, one ``{"host": ...}`` line, and as the last
line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 when every check passed, 1
when one failed, 2 when the checkout lacks the program or the spec.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".perfbench_work"

#: The held-out seed for later claims is documented in NOTES.md.
DEFAULT_SEED = 2018
DEFAULT_SECONDS = 45
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("dataset-roundtrip", "session-replay")


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the reproduction's pipeline."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def calibrate() -> float:
    """Median seconds of a fixed pure-Python plus numpy loop.

    Numbers from different hosts can be normalized by this figure.
    """
    import numpy as np

    def once() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        values = np.random.default_rng(0).random(200_000)
        np.sort(values)
        float(values @ values)
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(5))


def host_stamp(calibration_s: float) -> Dict[str, object]:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": calibration_s,
    }


def timed_loop(workload, states, seconds, traced, min_iterations, tally):
    """Repeat the timed part for about ``seconds``.

    Iteration ``i`` runs on input ``i % len(states)``.  The loop stops
    once another iteration would end further from ``seconds`` than
    stopping now, so a run measures ``seconds`` give or take half an
    iteration.
    """
    from probe import measure  # after ``main`` put src/ on the path

    samples = []
    spent = 0.0
    while True:
        index = len(samples) % len(states)
        state = states[index]
        # Keep only the sample: the output must be freed before the
        # next iteration, or it inflates the peak resident set.
        sample = measure(
            lambda probe: workload.run(state, probe),
            traced,
            index,
            check=lambda output: workload.check(state, output, tally),
        )[1]
        samples.append(sample)
        spent += sample.seconds["run"]
        typical = statistics.median(s.seconds["run"] for s in samples)
        if len(samples) >= min_iterations and spent + typical / 2 > seconds:
            return samples


def _median(samples: Sequence, name: str) -> float:
    return statistics.median(s.seconds[name] for s in samples)


def _mean(samples: Sequence, name: str) -> float:
    """Mean per input, then over the inputs, so none weighs more."""
    by_input: Dict[int, List[float]] = {}
    for s in samples:
        by_input.setdefault(s.input, []).append(s.seconds[name])
    return statistics.fmean(statistics.fmean(v) for v in by_input.values())


def _check_repeats(samples: Sequence, tally, what: str) -> None:
    """Counts of identical inputs must be identical, run after run."""
    first: Dict[int, dict] = {}
    for sample in samples:
        counts = sample.all_counts()
        reference = first.setdefault(sample.input, counts)
        if reference is counts:
            continue
        diff = sorted(
            k for k in reference.keys() | counts.keys()
            if reference.get(k) != counts.get(k)
        )
        tally.check(
            not diff,
            f"{what} counts of input {sample.input} repeat (differ: {diff})",
        )


def end_to_end(workload, setup, runs) -> Tuple[dict, dict]:
    """The declared end-to-end values, and the workload-named views."""
    # The host's speed drifts over seconds, so a timed metric is the
    # mean over the iterations of a run: all measured time counts.
    values = {
        "run_s": _mean(runs, "run"),
        "setup_s": _median(setup, "run"),
        "stage1_s": _mean(runs, "stage1"),
        "stage2_s": _mean(runs, "stage2"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    # Workload-named views of the same numbers, for the readable report.
    named = {
        f"{stage}_s": (values[f"stage{i}_s"], "s")
        for i, stage in enumerate(workload.stage_names, start=1)
    }
    for name, count, stage in getattr(workload, "rates", ()):
        rate = sum(s.counts[count] for s in runs) / sum(
            s.seconds[stage] for s in runs
        )
        named[name] = (rate, "1/s")
    return values, named


def per_layer(
    workload, setup, untraced, traced, import_s, calibration_s, tally
):
    values = workload.layers(setup, traced)
    values["proc.import_s"] = import_s
    values["host.calibration_s"] = calibration_s
    values["obs.overhead_ratio"] = _mean(traced, "run") / _mean(
        untraced, "run"
    )
    for sample in list(setup) + list(traced):
        for what, mine, theirs in workload.trace_agrees(sample):
            tally.check(
                mine == theirs, f"{what}: measured {mine}, traced {theirs}"
            )
    _check_repeats(setup, tally, "set-up")
    _check_repeats(traced, tally, "traced iteration")
    return values


def _emit(metric_specs, values, tally) -> Dict[str, Dict[str, object]]:
    declared = {m["name"]: m["unit"] for m in metric_specs}
    undeclared = sorted(set(values) - set(declared))
    tally.check(not undeclared, f"undeclared metrics: {undeclared}")
    # A layer the workload does not exercise did no work: 0.
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }


def run(args: argparse.Namespace, spec: dict, import_s: float) -> int:
    from probe import Tally, measure  # after ``main`` put src/ on the path
    from workloads import WORKLOADS

    calibration_s = calibrate()
    print(json.dumps({"host": host_stamp(calibration_s)}))
    tally = Tally()
    traced = args.trace == 1
    workload = WORKLOADS[args.workload](args.seed, WORK_DIR)

    setup: List = []
    states: List = [None] * workload.inputs
    for rep in range(SETUP_REPEATS):
        index = rep % workload.inputs
        states[index] = None  # free the previous set-up before rebuilding
        states[index], sample = measure(
            lambda probe: workload.setup(index, probe), traced, index
        )
        setup.append(sample)
    # A traced run shares its time between the two loops, so it takes
    # as long as an untraced one.
    untraced_s = args.seconds / 2 if traced else args.seconds
    untraced = timed_loop(
        workload, states, untraced_s, False, workload.inputs, tally
    )

    print(
        f"workload {args.workload} seed {args.seed}: {SETUP_REPEATS} "
        f"set-ups, {len(untraced)} timed iterations"
    )
    for label, samples, name in (
        ("set-up", setup, "run"),
        ("run", untraced, "run"),
        ("stage1", untraced, "stage1"),
        ("stage2", untraced, "stage2"),
    ):
        times = " ".join(f"{s.seconds[name]:.4f}" for s in samples)
        print(f"  each {label:8s} {times}")
    if traced:
        runs = timed_loop(
            workload,
            states,
            args.seconds - untraced_s,
            True,
            2 * workload.inputs,
            tally,
        )
        values = per_layer(
            workload, setup, untraced, runs, import_s, calibration_s, tally
        )
        metrics = _emit(spec["per_layer"], values, tally)
        print(f"  {len(runs)} traced iterations")
    else:
        values, named = end_to_end(workload, setup, untraced)
        metrics = _emit(spec["end_to_end"], values, tally)
        for name, (value, unit) in named.items():
            print(f"  {name:28s} {value:14.4f} {unit}")
    for name, metric in metrics.items():
        if metric["value"]:
            print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(
        f"  {'error_rate':28s} {error_rate:14.4f} ratio "
        f"({tally.failed} of {tally.attempted} checks failed)"
    )
    for failure in tally.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources under src/repro", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print("perfbench: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads  # noqa: F401  (imports the program's layers)

    import_s = time.perf_counter() - start
    WORK_DIR.mkdir(exist_ok=True)
    try:
        return run(args, spec, import_s)
    # The run's boundary: report any failure, then fail the run.
    except Exception:  # replint: disable=RPL003
        traceback.print_exc()
        print(
            json.dumps(
                {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            )
        )
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
