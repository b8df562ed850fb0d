"""cmccheck benchmark: the real CLI, called in-process by one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload replay --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Each operation is one ``cmccheck.cli.main(argv)`` call with its output
captured; the next starts when it returns (one client, one thread).  A
workload is a round of operations drawn from ``--seed``, repeated whole
until ``--seconds`` have passed.  Every output is checked as soon as its
call returns, off the clock, and each wrong one counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps
cmccheck's module boundaries (see ``spans.py``), runs traced, then runs
the same rounds untraced in a fresh interpreter to measure the tracing
overhead, and prints the per-module metrics.  ``--workload all`` runs every
workload both ways, each in its own interpreter, so peak memory and
set-up time belong to one workload alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it, ``record: {...}``, holds the seed, machine, git commit and the
figures that are not metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_OPS = 20  # the median needs ten samples beyond it
PERCENTILES = (50, 90, 99)
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself cannot vouch for its figures."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int,
                        help="run exactly this many rounds instead of --seconds")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# set-up and the closed loop


def set_up(workload: str, seed: int):
    """Import cmccheck afresh from ``src`` and draw the round of inputs."""
    for name in [m for m in sys.modules if m.split(".")[0] == "cmccheck"]:
        del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("cmccheck.cli")
    ops = workloads.WORKLOADS[workload].make_round(random.Random(seed))
    elapsed = perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported cmccheck from {cli.__file__}, not {SRC}")
    return elapsed, cli, ops


def call(cli, argv):
    """One operation: exit code, stdout and latency in s.

    If the call raises, the exit code is None and the traceback stands in
    for stdout.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is one failed operation, not the end of the run
            code = None
            out = io.StringIO(traceback.format_exc())
        latency = perf_counter() - start
    return code, out.getvalue(), latency


@dataclass
class Loop:
    latencies_ms: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # kind -> first correct output
    round_walls: list = field(default_factory=list)  # time in the calls, per round

    @property
    def wall(self) -> float:
        return sum(self.round_walls)


def closed_loop(cli, ops, seconds: float, rounds=None) -> Loop:
    """Whole rounds until ``seconds`` (and MIN_OPS) or ``rounds`` are done.

    Each output is checked as soon as its call returns, off the clock, so
    no output is kept and memory does not grow with the number of calls.
    """
    loop = Loop()
    while True:
        wall = 0.0
        for op in ops:
            start = perf_counter()
            code, stdout, latency = call(cli, op.argv)
            wall += perf_counter() - start
            loop.latencies_ms.append(latency * 1000)
            check(loop, op, code, stdout)
        loop.round_walls.append(wall)
        if rounds is not None:
            if len(loop.round_walls) >= rounds:
                return loop
        elif loop.wall >= seconds and len(loop.latencies_ms) >= MIN_OPS:
            return loop


def check(loop: Loop, op, code, stdout: str) -> None:
    """Count a wrong output as failed; keep the first right one per kind."""
    reason = workloads.verify(op, code, stdout)
    if reason is not None:
        loop.failures.append(f"{' '.join(op.argv)[:120]}: {reason}")
    elif op.kind in workloads.CORRUPTIONS and op.kind not in loop.samples:
        loop.samples[op.kind] = (op, code, stdout)


def self_check(loop: Loop) -> list[str]:
    """Corrupt real outputs; confirm the failure count takes in each one."""
    labels = []
    for op, code, stdout in loop.samples.values():
        label, bad_code, bad_stdout = workloads.corrupt(op.kind, code, stdout)
        probe = Loop()
        check(probe, op, code, stdout)
        check(probe, op, bad_code, bad_stdout)
        if len(probe.failures) != 1:
            raise BenchError(f"self-check: {label!r} gave {len(probe.failures)} "
                             "failures for one right and one wrong output")
        labels.append(label)
    if not labels and not loop.failures:
        raise BenchError("self-check: no output of a kind it can corrupt")
    return labels


# ----------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def latency_stats(latencies_ms: list[float]) -> dict:
    """Percentiles that have at least ten samples beyond them."""
    n = len(latencies_ms)
    cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive")
    out = {}
    for p in PERCENTILES:
        beyond = n - math.ceil(n * p / 100)
        out[p] = (cuts[p - 1], beyond) if beyond >= 10 else (None, beyond)
    return out


def per_layer(tracer, ops: int, gc_gen2: int, overhead: float) -> dict:
    s = tracer.stats

    def busy(*names):
        return sum(s[name].busy for name in names) / ops

    mul, div, divides = s["ring.mul"], s["divide.divide"], s["divide.divides"]
    products = mul.counts["term_products"]
    per_op = "count/op"
    return {
        "ring.mul.calls": (mul.calls / ops, per_op),
        "ring.mul.busy_s": (busy("ring.mul"), "s/op"),
        "ring.mul.self_s": (mul.self_time / ops, "s/op"),
        "ring.mul.term_products": (products / ops, per_op),
        "ring.mul.out_terms": (mul.counts["out_terms"] / ops, per_op),
        "ring.mul.merge_ratio": (mul.counts["out_terms"] / max(products, 1), "ratio"),
        "ring.mul.frac_share": (mul.counts["frac_products"] / max(products, 1), "ratio"),
        "ring.max_coeff_bits": (mul.counts["max_coeff_bits"], "bits"),
        "ring.addsub.busy_s": (busy("ring.addsub"), "s/op"),
        "ring.parts.busy_s": (busy("ring.parts"), "s/op"),
        "divide.divide.calls": (div.calls / ops, per_op),
        "divide.divide.busy_s": (busy("divide.divide"), "s/op"),
        "divide.divide.self_s": (div.self_time / ops, "s/op"),
        "divide.divide.dividend_terms": (div.counts["dividend_terms"] / ops, per_op),
        "divide.divide.quotient_terms": (div.counts["quotient_terms"] / ops, per_op),
        "divide.divide.remainder_terms": (div.counts["remainder_terms"] / ops, per_op),
        "divide.divides.recheck_s": (
            (divides.busy - divides.children["divide.divide"]) / ops, "s/op"),
        "divide.monic.busy_s": (busy("divide.divide_monic_in_x"), "s/op"),
        "calculus.grad_norm_sq.busy_s": (busy("calculus.grad_norm_sq"), "s/op"),
        "calculus.delta1.busy_s": (busy("calculus.delta1"), "s/op"),
        "calculus.defect.busy_s": (
            busy("calculus.cmc_defect", "calculus.symbolic_defect"), "s/op"),
        "cmc.solve_hsq.busy_s": (busy("cmc.solve_hsq"), "s/op"),
        "cmc.check_cmc.busy_s": (busy("cmc.check_cmc"), "s/op"),
        "parse.parse.busy_s": (busy("parse.parse_polynomial"), "s/op"),
        "parse.to_text.busy_s": (busy("parse.to_text"), "s/op"),
        "parse.to_text.chars": (s["parse.to_text"].counts["chars"] / ops, per_op),
        "cli.main.self_s": (s["cli.main"].self_time / ops, "s/op"),
        "cli.self_s": (
            sum(v.self_time for k, v in s.items() if k.startswith("cli.")) / ops,
            "s/op"),
        "cli.build_parser.busy_s": (busy("cli.build_parser"), "s/op"),
        "replay.replay.self_s": (s["replay.replay"].self_time / ops, "s/op"),
        "cubic.generic_cubic.busy_s": (busy("cubic.generic_cubic"), "s/op"),
        "runtime.gc_gen2": (gc_gen2 / ops, per_op),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


# ----------------------------------------------------------------------
# record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """HEAD of the checkout, read from its own ``.git``; never searches above it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
    }


# ----------------------------------------------------------------------
# one workload, one interpreter


def run_one(args) -> int:
    setup_times = []
    for _ in range(1 if args.trace or args.rounds else SETUP_REPEATS):
        elapsed, cli, ops = set_up(args.workload, args.seed)
        setup_times.append(elapsed)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        missed = spans.unwrapped_references(spans.install(tracer))
        if missed:
            raise BenchError("span coverage: still unwrapped: " + ", ".join(missed))

    gc_before = gc.get_stats()[2]["collections"]
    loop = closed_loop(cli, ops, args.seconds, args.rounds)
    gc_gen2 = gc.get_stats()[2]["collections"] - gc_before
    rss = peak_rss_mb()

    corruptions = self_check(loop)
    failed, attempted = len(loop.failures), len(loop.latencies_ms)
    for line in loop.failures[:5]:
        print("FAILED " + line, file=sys.stderr)

    spec = workloads.WORKLOADS[args.workload]
    record = machine_record(args.seed) | {
        "workload": args.workload,
        "why": spec.why,
        "stresses": spec.stresses,
        "bypasses": spec.bypasses,
        "trace": args.trace,
        "rounds": len(loop.round_walls),
        "ops_per_round": len(ops),
        "wall_s": loop.wall,
        "gc_gen2": gc_gen2,
        "fail_ratio": {"failed": failed, "attempted": attempted,
                       "value": failed / attempted},
        "self_check": corruptions,
    }
    result = {"correct": not failed, "attempted": attempted, "failed": failed,
              "metrics": {}}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(loop.round_walls)} x {len(ops)} ops  wall {loop.wall:.2f} s")
    print(f"  fail_ratio {failed / attempted:g} ({failed} of {attempted} operations)")
    print(f"  self-check: verifier counted {', '.join(corruptions)}")

    if not args.trace:
        pcts = latency_stats(loop.latencies_ms)
        record["latency_ms"] = {
            f"p{p}": {"value": v, "samples_beyond": beyond}
            for p, (v, beyond) in pcts.items()
        }
        metrics = {
            # The median round, so a burst of load from elsewhere on the
            # machine moves the figure less than a mean would.
            "ops_per_s": (len(ops) / statistics.median(loop.round_walls), "1/s"),
            "op_p50_ms": (statistics.median(loop.latencies_ms), "ms"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<13} {value:12.4f} {unit}")
        for p, (value, beyond) in pcts.items():
            shown = "not reported" if value is None else f"{value:12.4f} ms"
            print(f"  op_p{p}_ms     {shown}  ({attempted} samples, {beyond} beyond)")
        print(f"  setup_s is the median of {len(setup_times)} set-ups")
    else:
        untraced = run_child(args.workload, args.seed, len(loop.round_walls))
        overhead = loop.wall / untraced["wall_s"]
        metrics = per_layer(tracer, attempted, untraced["gc_gen2"], overhead)
        print(f"  {'span':<34}{'calls/op':>12}{'busy ms/op':>12}{'self ms/op':>12}")
        for name, st in sorted(tracer.stats.items()):
            if st.calls:
                print(f"  {name:<34}{st.calls / attempted:12.2f}"
                      f"{st.busy / attempted * 1e3:12.3f}"
                      f"{st.self_time / attempted * 1e3:12.3f}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:14.6g} {unit}")

    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, rounds=None, seconds=None, trace=0) -> dict:
    """Run one workload in a fresh interpreter; return its record and result."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    argv += ["--rounds", str(rounds)] if rounds else ["--seconds", str(seconds)]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record: "):
        raise BenchError(f"{workload} run failed (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-2][len("record: "):])
    return record | {"result": json.loads(lines[-1]), "text": lines[:-2]}


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    runs = {}
    correct = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            child = run_child(workload, args.seed, seconds=args.seconds, trace=trace)
            print("\n".join(child.pop("text")), flush=True)
            correct &= child["result"]["correct"]
            runs[f"{workload}/trace{trace}"] = child
    print(json.dumps(machine_record(args.seed) | {"runs": runs}, sort_keys=True))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cmccheck" / "__init__.py").is_file():
        print(f"error: no cmccheck sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
