"""Run one hpda benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports hpda from ./src and
writes its inputs, results and spans under bench/out/.  One process runs one
workload with one thread, ops back to back in a closed loop with one client.

With ``--trace 0`` it prints the end-to-end metrics (every op untraced).
With ``--trace 1`` it alternates each op untraced and traced, replays every
traced simulate call through its public stages, and prints the per-layer
metrics.  Either way the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up runs at least SETUP_MIN_REPS times and for at least SETUP_MIN_S
# seconds per process; setup_s is the median.  The time floor gives a set-up of
# a few tens of milliseconds enough samples for a steady median.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0

END_TO_END = (
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# What a crashed op observed; equal to no reference.
CRASHED = object()


@dataclass(frozen=True)
class Record:
    seconds: float
    traced: bool
    ok: bool


def import_hpda() -> None:
    """Import hpda afresh from ./src, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "hpda" or m.startswith("hpda.")]:
        del sys.modules[name]
    for layer in tracing.LAYERS:
        importlib.import_module(f"hpda.{layer}")


def set_up(workload: str, seed: int, workdir: Path) -> tuple[list[workloads.Op], float]:
    """Import hpda and build the workload's inputs, repeatedly (see SETUP_MIN_S).

    Returns the last pass of ops and the median set-up time in wall seconds.
    """
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S * 1e9:
        t0 = time.perf_counter_ns()
        import_hpda()
        ops = workloads.setup(workload, seed, workdir)
        times.append(time.perf_counter_ns() - t0)
        # Free the dropped import's module cycles, so peak RSS does not grow
        # with the number of set-ups.
        gc.collect()
    return ops, statistics.median(times) / 1e9


class Runner:
    """Runs ops for a fixed time and keeps what the metrics need."""

    def __init__(self, tracer: tracing.Tracer | None) -> None:
        self.tracer = tracer
        self.plain = workloads.Api()
        self.traced = workloads.Api(tracer.wrap) if tracer else None
        self.records: list[Record] = []
        self.elapsed_s = 0.0
        self.counts = dict.fromkeys(
            ("server_signals", "mirror_signals", "decoded", "users", "rejected", "mutants"), 0
        )

    def run(self, ops: list[workloads.Op], seconds: float) -> None:
        """Cycle through whole passes of ``ops`` until ``seconds`` have passed.

        A run ends on a pass boundary, so every run does the same mix of work
        whatever its length.  Traced runs do each op twice in a row, untraced
        then traced.
        """
        start = time.perf_counter_ns()
        done = 0
        while True:
            op = ops[done % len(ops)]
            self.records.append(self.attempt(op, traced=False))
            if self.tracer:
                self.records.append(self.attempt(op, traced=True))
            done += 1
            if done % len(ops) == 0 and time.perf_counter_ns() - start >= seconds * 1e9:
                break
        self.elapsed_s = (time.perf_counter_ns() - start) / 1e9

    def attempt(self, op: workloads.Op, traced: bool) -> Record:
        t0 = time.perf_counter_ns()
        try:
            observed = self._traced_call(op) if traced else op.call(self.plain)
        except Exception:
            # A crash is a failed op; report it and keep measuring.
            traceback.print_exc()
            observed = CRASHED
        seconds = (time.perf_counter_ns() - t0) / 1e9
        ok = observed == op.expected
        if traced:
            ok = self._replay() and ok
        if not ok:
            print(f"failed op: {op.label}", file=sys.stderr)
        if op.mutant:
            self.counts["mutants"] += 1
            self.counts["rejected"] += ok
        return Record(seconds, traced, ok)

    def _traced_call(self, op: workloads.Op) -> object:
        self.tracer.op = len(self.records)
        self.tracer.simulate_calls.clear()
        with self.tracer.installed(), self.tracer.span(tracing.OP):
            return op.call(self.traced)

    def _replay(self) -> bool:
        """Replay the op's simulate calls stage by stage; False on any mismatch."""
        ok = True
        for args, kwargs, result in self.tracer.simulate_calls:
            t = result.transcript
            self.counts["server_signals"] += t.server_packets
            self.counts["mirror_signals"] += sum(t.mirror_packets(k) for k in t.mirror_signals)
            try:
                with self.tracer.span(tracing.REPLAY):
                    decoded, users, same = tracing.replay_simulate(
                        self.traced, args, kwargs, result
                    )
            except Exception:
                traceback.print_exc()
                ok = False
                continue
            self.counts["decoded"] += decoded
            self.counts["users"] += users
            ok = ok and same and decoded == users
        self.tracer.simulate_calls.clear()
        return ok


def check_transcripts() -> dict[str, bool]:
    """Byte-exact transcript digests of fixed simulations, outside the timed ops."""
    hierarchy = workloads.module("hierarchy")
    simulation = workloads.module("simulation")
    results = {}
    for (shape, files, packet_bytes, seed), digest in workloads.TRANSCRIPT_DIGESTS.items():
        key = "grouping({},{},{})".format(*shape)
        try:
            r = simulation.simulate(
                hierarchy.build_grouping(*shape), files, packet_bytes, seed=seed
            )
            text = "\n".join(r.transcript.dump_lines()) + "\n"
            results[key] = hashlib.sha256(text.encode()).hexdigest() == digest
        except Exception:
            traceback.print_exc()
            results[key] = False
    return results


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "src_hpda_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "hpda").glob("*.py"))
        ),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hpda" / "__init__.py").is_file():
        print(f"error: no hpda sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = OUT / "inputs" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    ops, setup_s = set_up(args.workload, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(tracer)
    runner.run(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    transcripts = check_transcripts()

    records = runner.records
    failed = sum(not r.ok for r in records)
    untraced = [r.seconds for r in records if not r.traced]
    if tracer is None:
        values = {
            "op_p50_s": statistics.median(untraced),
            "ops_per_s": len(records) / runner.elapsed_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        traced = [r.seconds for r in records if r.traced]
        values = tracing.layer_metrics(
            tracer.spans, traced, untraced, runner.counts, workloads.computed_counts(ops)
        )
        units = dict(tracing.PER_LAYER)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")

    meta = metadata(args.workload, args.seed, bool(args.trace))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "meta": meta,
                "metrics": values,
                "op_seconds": [r.seconds for r in records],
                "fail_ratio": failed / len(records),
                "transcripts": transcripts,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"meta {json.dumps(meta)}")
    print(
        f"{args.workload}: {len(records)} ops in {runner.elapsed_s:.3f} s, "
        f"{failed} failed (fail_ratio {failed / len(records)}), "
        f"op_p50_s over {len(untraced)} untraced ops, "
        f"transcripts {json.dumps(transcripts)}"
    )
    result = {
        "correct": failed == 0 and all(transcripts.values()),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
