"""Paired benchmark runs: a base commit against the working tree.

    python3 scripts/bench_pairs.py --workload cone_equality --seconds 30 \
        --seed 1 --pairs 20 [--base HEAD]

The committed files of ``--base`` are exported to a temporary directory.
Each pair runs ``perfbench/run.py --workload W --seconds S --seed N`` once
in that copy and once in the working tree, one after the other; the base
runs first in odd pairs and second in even ones.  For every end-to-end
metric that ``BENCHMARK.json`` lists, it prints each side's median and
quartiles, the relative change of the medians, and the pairs the working
tree won (ties count for neither side).  A metric whose change is a gain
is said to clear the claim rule when the working tree won at least nine
tenths of the pairs and the medians differ by more than the base's
quartile spread.  A change worse than the metric's bound is flagged, and
reported unresolved instead when the base's own spread is wider than the
bound.

Standard library only.  The exit code is 1 when any run reports
``correct: false``, 2 when a run cannot complete, and 0 otherwise.  The
exported copy is removed on exit, also on Ctrl-C or SIGTERM, and every run
has ended by then.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(base: str, into: Path) -> None:
    """The files committed at ``base``, written under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", base], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """The last stdout line of one ``perfbench/run.py`` run, as JSON.  The
    run gets its own process group, so an interrupted run is killed with
    the batches it has started."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"perfbench/run.py in {tree} exited with code "
                           f"{proc.returncode}: {stderr[-500:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(metric: dict, base: list[float], head: list[float]) -> str:
    lower = metric["better"] == "lower"
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q1, b_q3 = quartiles(base)
    h_q1, h_q3 = quartiles(head)
    wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    change = (h_med - b_med) / b_med if b_med else 0.0
    gain = (h_med < b_med) if lower else (h_med > b_med)
    spread = b_q3 - b_q1
    if gain:
        clears = wins >= 0.9 * len(base) and abs(h_med - b_med) > spread
        verdict = "gain clears the claim rule" if clears else \
            "gain does not clear the claim rule"
    elif abs(change) <= metric["bound"]:
        verdict = "within bound"
    elif b_med and spread / b_med > metric["bound"]:
        verdict = "unresolved: base spread wider than bound"
    else:
        verdict = "WORSE than bound"
    return (f"{metric['name']} ({metric['unit']}): "
            f"base {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]  "
            f"head {h_med:.6g} [{h_q1:.6g}, {h_q3:.6g}]  "
            f"{change:+.1%}  wins {wins}/{len(base)}  {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Alternate perfbench runs of a base commit and the "
                    "working tree, and compare their end-to-end metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD")
    args = parser.parse_args()
    # On SIGTERM, unwind as on Ctrl-C: the running run is killed and the
    # exported copy is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"base": [], "head": []}
    correct = True
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        trees = {"base": Path(tmp), "head": ROOT}
        export(args.base, trees["base"])
        for k in range(1, args.pairs + 1):
            order = ("base", "head") if k % 2 else ("head", "base")
            for side in order:
                try:
                    out = run_once(trees[side], args.workload, args.seconds,
                                   args.seed)
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                correct &= out["correct"]
                runs[side].append({name: m["value"]
                                   for name, m in out["metrics"].items()})
            print(f"# pair {k}/{args.pairs}: " + "  ".join(
                f"{m['name']} {runs['base'][-1][m['name']]:.4g} -> "
                f"{runs['head'][-1][m['name']]:.4g}" for m in metrics),
                flush=True)

    print(f"== {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs, base {args.base}")
    for m in metrics:
        print(summarise(m, [r[m["name"]] for r in runs["base"]],
                        [r[m["name"]] for r in runs["head"]]))
    if not correct:
        print("# FAILED: a run reported correct: false")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
