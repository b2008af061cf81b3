"""The repo's benchmark: one end-to-end figure per workload, and where it goes.

    python3 bench/run.py                  every workload, timed then traced
    python3 bench/run.py --aa             same-commit A/A: is the benchmark steady?
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                          one run in this interpreter (what the
                                          two modes above spawn, once per run)
    python3 bench/run.py --setup-only     start up, print the seconds it took
                                          (what a timed run spawns to repeat
                                          its set-up)

A single run drives ``PredictionClient -> RestServer -> FleetRouter ->
InProcessWorker -> PredictionService -> InferenceEngine/SessionManager ->
ContinuousBatcher -> DecoderLM`` over loopback HTTP, prints every metric by
name with its unit, checks outputs and invariants, and prints one JSON object
as its last line.  It exits non-zero when a check or an op fails.
``--trace 0`` is the timed run: one client, the same pass of ops several
times over, no wrappers, no trace headers.  ``--trace 1`` is the traced run:
one pass untraced, the same pass traced (see ``bench/trace.py``), and the
same pass once more from two concurrent clients.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import as the ``bench`` package from the repo root, not as loose modules
# from the script directory (``trace`` would shadow the standard library's).
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench.fleet import Fleet  # noqa: E402
from bench.loadgen import Phase, check_outputs, end_to_end, run_phase  # noqa: E402
from bench.workloads import NOMINAL_SECONDS, PASSES, WORKLOADS, pass_ops, schedule  # noqa: E402

OUT = ROOT / "bench" / "_out"
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Concurrent closed-loop callers of the traced run's last pass: ``nproc``.
CONTENDED_CLIENTS = 2
MAX_UNATTRIBUTED_SHARE = 0.02
AA_RUNS_PER_SET = 3
#: The issue's regression bound for latency and throughput.  A same-commit
#: spread wider than this leaves a change of that size unresolved.
ISSUE_BOUND = 0.10


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in MANIFEST[section]}


def _spawn(*arguments: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *arguments],
        stdout=subprocess.PIPE,
        text=True,
    )


# -- one run ------------------------------------------------------------------


def _seconds_since_interpreter_start() -> float:
    """Wall time this process has existed, from the kernel's record of its
    start (``/proc/self/stat`` field 22, in clock ticks since boot)."""
    fields = Path("/proc/self/stat").read_text(encoding="ascii").rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _setup_only() -> int:
    """Start up as a timed run does, print how long that took, and exit."""
    fleet = Fleet()
    print(_seconds_since_interpreter_start(), flush=True)
    fleet.stop()
    return 0


def _repeated_setup_s() -> float:
    child = _spawn("--setup-only")
    output, _ = child.communicate()
    if child.returncode != 0:
        raise SystemExit(f"repeating the set-up failed (exit {child.returncode})")
    return float(output)


def _describe(label: str, phase: Phase) -> list[str]:
    """Print a phase's attempted/succeeded/failed counts.  Returns the problem
    its failed ops amount to, if any; stops the run when not one op succeeded."""
    attempted, failed = len(phase.results), len(phase.failed)
    print(f"{label}: attempted {attempted}  succeeded {attempted - failed}  failed {failed}")
    for result in phase.failed[:3]:
        print(f"  {result.call.kind} failed: {result.error}")
    if not phase.succeeded:
        raise SystemExit(f"{label}: no op succeeded, so there is nothing to measure")
    return [f"{label}: {failed} of {attempted} ops failed"] if failed else []


def _finish(metrics: dict, units: dict, phase: Phase, problems: list[str]) -> int:
    if set(metrics) != set(units):
        odd = sorted(set(metrics) ^ set(units))
        raise SystemExit(f"metrics printed and metrics in BENCHMARK.json differ: {odd}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>14.4f} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    report = {
        "correct": not problems,
        "attempted": len(phase.results),
        "failed": len(phase.failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(report))
    return 0 if not problems else 1


def _checked(fleet: Fleet, phase: Phase, workload, seed: int) -> tuple[list[str], int]:
    """Run the output oracle and the invariant audit.

    Returns what failed and the KV bytes still held after the prefix caches
    were cleared.
    """
    checked, mismatched, ties = check_outputs(phase, workload, seed)
    audit = fleet.audit()
    print(
        f"checked {checked} ops against the oracle: {mismatched} differ, "
        f"{ties} completions differ only at a float32 tie; audit {audit}"
    )
    problems = [f"{name} is {value} after the run, not 0" for name, value in audit.items() if value]
    return problems, audit["leaked_bytes"]


def timed_run(workload, seed: int, seconds: float) -> int:
    fleet = Fleet()
    # One start-up is a third of a second, too short a sample of this host's
    # speed to compare alone: a fresh interpreter repeats it after every pass,
    # and ``setup_s`` is the least disturbed of them all, as the latencies are.
    setups = [_seconds_since_interpreter_start()]
    calls = schedule(workload, seed, seconds)
    warmup = run_phase(fleet, workload, [calls])
    passes = []
    for _ in range(PASSES):
        passes.append(run_phase(fleet, workload, [calls]))
        setups.append(_repeated_setup_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = Phase(
        [result for phase in passes for result in phase.results],
        sum(phase.wall_s for phase in passes),
    )
    problems, _ = _checked(fleet, timed, workload, seed)
    fleet.stop()
    problems += _describe("warm-up pass (not timed)", warmup)
    problems += _describe(f"{PASSES} timed passes ({timed.wall_s:.2f} s)", timed)
    print("set-ups, s: " + " ".join(f"{setup:.3f}" for setup in setups))
    metrics = end_to_end(passes, workload)
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["setup_s"] = min(setups)
    return _finish(metrics, _units("end_to_end"), timed, problems)


def traced_run(workload, seed: int, seconds: float) -> int:
    from bench.layers import per_layer, snapshot
    from bench.trace import SpanRecorder, SpanTable

    calls = schedule(workload, seed, seconds)
    fleet = Fleet()
    warmup = run_phase(fleet, workload, [calls])
    # The same pass untraced first, so the tracing overhead is a same-process,
    # same-work comparison.
    untraced = run_phase(fleet, workload, [calls])
    recorder = SpanRecorder()
    recorder.attach(fleet)
    before = snapshot(fleet)
    try:
        phase = run_phase(fleet, workload, [calls], recorder)
    finally:
        recorder.detach()
    after = snapshot(fleet)
    # Last, because it reorders the ops: the pass split over concurrent
    # clients.  Not the session workload: two live sessions collide on
    # replica-local session ids (see bench/README.md).
    contended = None
    if workload.kind != "session":
        split = [calls[client::CONTENDED_CLIENTS] for client in range(CONTENDED_CLIENTS)]
        contended = run_phase(fleet, workload, split)
    final = snapshot(fleet)
    problems, leaked_bytes = _checked(fleet, phase, workload, seed)
    fleet.stop()
    recorder.write(OUT / f"trace_{workload.name}.jsonl")

    problems += _describe("warm-up pass (not traced)", warmup)
    label = f"traced pass ({phase.wall_s:.2f} s, {len(recorder.spans)} spans)"
    problems += _describe(label, phase)
    if contended is not None:
        problems += _describe(f"pass from {CONTENDED_CLIENTS} clients", contended)
    table = SpanTable(recorder.spans)
    metrics = per_layer(
        table,
        phase,
        untraced,
        contended,
        workload.max_new_tokens,
        len(warmup.results),
        (before, after, final),
        leaked_bytes,
    )
    ops = len(table.roots)
    print(f"budget, self ms per op over {ops} ops:")
    for layer in table.layers():
        print(f"  {layer:<24}{table.layer_self_s(layer) * 1000.0 / ops:>10.4f}")
    print(f"  {'sum':<24}{sum(table.self_s.values()) * 1000.0 / ops:>10.4f}")
    if metrics["trace.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        problems.append(
            f"trace.unattributed_share {metrics['trace.unattributed_share']:.4f} "
            f"exceeds {MAX_UNATTRIBUTED_SHARE}"
        )
    return _finish(metrics, _units("per_layer"), phase, problems)


# -- many runs ------------------------------------------------------------------


def _child_run(name: str, seed: int, seconds: float, trace: int, echo: bool) -> dict:
    """One run in a fresh interpreter; returns its last-line JSON report."""
    child = _spawn(
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)
    )
    output, _ = child.communicate()
    if echo:
        print(output, end="")
    lines = output.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{name} --trace {trace} printed no result (exit {child.returncode})")
    report["exit"] = child.returncode
    return report


def run_all(seed: int, seconds: float) -> int:
    bad = []
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"\n== {name}  ({'traced' if trace else 'timed'}, seed {seed}) ==")
            report = _child_run(name, seed, seconds, trace, echo=True)
            if report["exit"] != 0 or not report["correct"] or report["failed"]:
                bad.append(f"{name} --trace {trace}")
    print("\n" + (f"FAILED: {', '.join(bad)}" if bad else "all workloads passed their checks"))
    return 1 if bad else 0


def run_aa(seed: int, seconds: float) -> int:
    """Two interleaved sets of runs of the same code and seed.

    Prints, per end-to-end metric, each set's median and the quartiles and
    spread (interquartile range over median) of all runs, and names the
    metrics whose spread exceeds the issue's tenth; records all of it in
    ``bench/baseline.json`` as this commit's baseline and noise floor; exits
    non-zero when the two medians differ by more than the metric's bound.
    """
    bounds = {metric["name"]: metric["bound"] for metric in MANIFEST["end_to_end"]}
    baseline, disagreements = {}, []
    for name in WORKLOADS:
        sets: tuple[list[dict], list[dict]] = ([], [])
        for _ in range(AA_RUNS_PER_SET):
            for runs in sets:
                report = _child_run(name, seed, seconds, trace=0, echo=False)
                if report["exit"] != 0 or report["failed"]:
                    raise SystemExit(f"{name}: a run failed its checks; no A/A verdict")
                runs.append({key: entry["value"] for key, entry in report["metrics"].items()})
        print(f"\n== {name}: {AA_RUNS_PER_SET} + {AA_RUNS_PER_SET} runs, seed {seed} ==")
        print(f"{'metric':<16}{'median A':>12}{'median B':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
        baseline[name] = {}
        for metric, bound in bounds.items():
            a, b = ([run[metric] for run in runs] for runs in sets)
            q1, median, q3 = statistics.quantiles(a + b, n=4)
            spread = (q3 - q1) / median
            median_a, median_b = statistics.median(a), statistics.median(b)
            print(
                f"{metric:<16}{median_a:>12.4f}{median_b:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.4f}"
            )
            baseline[name][metric] = {
                "median": median,
                "median_a": median_a,
                "median_b": median_b,
                "q1": q1,
                "q3": q3,
                "spread": spread,
            }
            if abs(median_b - median_a) / median_a > bound:
                disagreements.append(f"{name} {metric}: {median_a:.4f} vs {median_b:.4f}")
        wide = [m for m, entry in baseline[name].items() if entry["spread"] > ISSUE_BOUND]
        print(f"spread above {ISSUE_BOUND}, so a change that small is unresolved: {wide or 'none'}")
    record = {
        "seed": seed,
        "seconds": seconds,
        "runs_per_workload": 2 * AA_RUNS_PER_SET,
        "passes": PASSES,
        "ops_per_pass": {name: pass_ops(WORKLOADS[name], seconds) for name in WORKLOADS},
        "workloads": baseline,
    }
    (ROOT / "bench" / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    for line in disagreements:
        print(f"A/A DISAGREES beyond its bound: {line}")
    return 1 if disagreements else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=MANIFEST["run_seconds"],
        help=f"run length; op counts scale with it ({NOMINAL_SECONDS} = the frozen sizes)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="same-commit A/A check")
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="start up as a timed run does, print the seconds that took, and exit "
        "(a timed run spawns this to repeat its own set-up)",
    )
    args = parser.parse_args()
    if args.setup_only:
        return _setup_only()
    if args.workload is not None:
        run = traced_run if args.trace else timed_run
        return run(WORKLOADS[args.workload], args.seed, args.seconds)
    if args.aa:
        return run_aa(args.seed, args.seconds)
    return run_all(args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
