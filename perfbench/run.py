"""moricone benchmark: time to verdict on three workloads, checked answers,
and per-layer spans.

    python3 perfbench/run.py --workload cone_equality --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each timed batch runs in a fresh interpreter (``worker.py``), one after the
other, each a closed loop with one caller.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from traced
batches.  Every metric is printed by name with its unit; the last line of
stdout is one JSON object.  The exit code is 1 when an output check or the
trace determinism check fails, and 2 when a batch cannot run at all.
See perfbench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import FUNCTIONS, TRACED, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = ("cone_equality", "double_description", "cli_mix")
SETUP_PROBES = 5           # set-up-only interpreters per untraced run
CHILD_TIMEOUT_S = 170      # one batch; the whole run must end within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "item_p50_s": "s",
              "item_p90_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = dict(
    [(f"{f}.{m}", "count" if m == "calls" else "s")
     for f in FUNCTIONS for m in ("calls", "self_s", "total_s")]
    + [(f"{mod}.self_s", "s") for mod in TRACED]
    + [("cones.cone_from_rays.kept_ratio", "ratio"),
       ("cones.dual.out_rays", "count"),
       ("cones.contains.member_share", "ratio"),
       ("trace.overhead_s", "s"),
       ("trace.spans", "count")])


class BatchError(Exception):
    """A batch could not run or did not report: not a measurement."""


class Batch:
    def __init__(self, workload, seed, trace, setup_only=False, spans=None):
        cmd = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", str(spans)]
        self.started_at = clock()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     text=True)

    def finish(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BatchError(f"batch exceeded {CHILD_TIMEOUT_S} s")
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise BatchError(f"batch exited with code {self.proc.returncode}")
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready_at"] - self.started_at
        return result


def run_batches(workload, seed, trace, seconds, start, spans=None,
                minimum=1) -> list[dict]:
    """Batches one after another until ``seconds`` have passed since
    ``start``, and at least ``minimum``."""
    batches = []
    while len(batches) < minimum or clock() - start < seconds:
        batches.append(Batch(workload, seed, trace,
                             spans=None if batches else spans).finish())
    return batches


def tally(batches) -> tuple[int, int, list[str]]:
    items = [it for b in batches for it in b["items"]]
    failures = sorted({f"{label}: {err}" for label, _, err in items if err})
    return len(items), sum(1 for it in items if it[2]), failures


def measure(workload, seed, seconds) -> dict:
    """Untraced: set-up probes, then timed batches.  Set-up, wall time and
    memory are medians over batches; item percentiles pool every batch."""
    start = clock()
    setups = [Batch(workload, seed, 0, setup_only=True).finish()["setup_s"]
              for _ in range(SETUP_PROBES)]
    batches = run_batches(workload, seed, 0, seconds, start)
    setups += [b["setup_s"] for b in batches]
    durations = [it[1] for b in batches for it in b["items"]]
    attempted, failed, failures = tally(batches)
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(b["wall_s"] for b in batches),
            "item_p50_s": statistics.median(durations),
            "item_p90_s": statistics.quantiles(durations, n=10)[8],
            "peak_rss_mib": statistics.median(b["maxrss_mib"] for b in batches),
        },
        "attempted": attempted, "failed": failed, "failures": failures,
        "notes": {"batches": len(batches), "items": attempted,
                  "setups": len(setups),
                  "ops_failed_share": failed / attempted},
        "samples": {"setup_s": setups,
                    "wall_s": [b["wall_s"] for b in batches],
                    "items": [b["items"] for b in batches]},
    }


def signature(batch) -> dict:
    """The parts of a traced batch that must repeat exactly."""
    t = batch["trace"]
    return {"calls": t["calls"], "counts": t["counts"],
            "items": [it[0] for it in batch["items"]]}


def trace(workload, seed, seconds) -> dict:
    """Traced: one untraced batch, then traced batches until ``seconds`` have
    passed, at least two.  Per-layer times are medians over the traced
    batches, the tracing overhead is their median ``wall_s`` minus the
    untraced one, and every traced batch must repeat the same counts."""
    start = clock()
    untraced = Batch(workload, seed, 0).finish()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    traced = run_batches(workload, seed, 1, seconds, start, spans=spans,
                         minimum=2)

    failures = []
    if any(signature(b) != signature(traced[0]) for b in traced[1:]):
        failures.append("trace determinism: calls or counts differ between "
                        "traced batches with the same seed")
    t0 = traced[0]["trace"]
    counts = t0["counts"]

    def med(pick):
        return statistics.median(pick(b["trace"]) for b in traced)

    metrics = {}
    for f in FUNCTIONS:
        metrics[f"{f}.calls"] = t0["calls"][f]
        metrics[f"{f}.self_s"] = med(lambda t: t["self_s"][f])
        metrics[f"{f}.total_s"] = med(lambda t: t["total_s"][f])
    for mod in TRACED:
        metrics[f"{mod}.self_s"] = med(lambda t: sum(
            t["self_s"][f] for f in FUNCTIONS if f.startswith(mod + ".")))
    metrics["cones.cone_from_rays.kept_ratio"] = (
        counts["cone_from_rays.rays_kept"] / counts["cone_from_rays.rays_in"]
        if counts["cone_from_rays.rays_in"] else 0.0)
    metrics["cones.dual.out_rays"] = counts["dual.out_rays"]
    contains = t0["calls"]["cones.contains"]
    metrics["cones.contains.member_share"] = (
        counts["contains.members"] / contains if contains else 0.0)
    traced_wall = statistics.median(b["wall_s"] for b in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    metrics["trace.spans"] = t0["spans"]

    attempted, failed, item_failures = tally([untraced] + traced)
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "failures": item_failures + failures,
        "notes": {"traced_batches": len(traced),
                  "traced_wall_s": traced_wall,
                  "untraced_wall_s": untraced["wall_s"],
                  "spans_file": str(spans.relative_to(ROOT)),
                  "ops_failed_share": failed / attempted},
    }


def environment(seed) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "moricone").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "git_commit": commit,
            "source_sha256": digest.hexdigest(), "seed": seed}


def report(workload, mode, result, units) -> None:
    print(f"== {workload} ({mode})")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in result["notes"].items():
        print(f"# {name}: {value}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one moricone benchmark workload, or all of them.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = environment(args.seed)
    mode = "traced" if args.trace else "untraced"
    units = PER_LAYER if args.trace else END_TO_END
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in workloads:
            results[w] = (trace if args.trace else measure)(w, args.seed,
                                                            args.seconds)
    except BatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for key, value in env.items():
        print(f"# {key}: {value}")
    OUT.mkdir(exist_ok=True)
    for w, result in results.items():
        report(w, mode, result, units)
        with open(OUT / f"result-{w}-seed{args.seed}-{mode}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"environment": env, "workload": w, "mode": mode,
                       **result}, fh, indent=1)

    correct = all(not r["failures"] for r in results.values())
    if len(results) == 1:
        (r,) = results.values()
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in r["metrics"].items()}
    else:
        metrics = {f"{w}.{k}": {"value": v, "unit": units[k]}
                   for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
