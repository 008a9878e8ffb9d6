"""One batch of a workload in a fresh interpreter.

``run.py`` starts this script once per timed batch, so module-level state in
moricone starts cold, as it does for a CLI user.  The batch builds its inputs
from the seed, records when it became ready (the end of set-up), runs every
item in a closed loop with one caller, then checks every output and prints
one JSON line.  With ``--trace 1`` the tracer wraps moricone's public
functions first and the line also carries the per-layer summary.

    python3 perfbench/worker.py --workload cli_mix --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the inputs are built")
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1, write every span to FILE")
    args = parser.parse_args()

    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from tracing import ITEM, Tracer, clock

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    import workloads

    scratch = OUT / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        items = workloads.build(args.workload, args.seed, scratch)
        ready_at = clock()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0

        outputs, durations, errors = [], [], []
        start = clock()
        for item in items:
            t0 = clock()
            out, err = None, None
            try:
                if tracer:
                    tracer.active = True
                    out = tracer.span(ITEM, item.run)
                else:
                    out = item.run()
            except Exception as exc:  # an item failure is a result, not a crash
                err = f"{type(exc).__name__}: {exc}"
                traceback.print_exc()
            finally:
                if tracer:
                    tracer.active = False
            durations.append(clock() - t0)
            outputs.append(out)
            errors.append(err)
        wall = clock() - start
        maxrss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        for i, item in enumerate(items):
            if errors[i] is None:
                try:
                    errors[i] = item.check(outputs[i])
                except Exception as exc:
                    errors[i] = f"check raised {type(exc).__name__}: {exc}"
            if errors[i] is not None:
                print(f"FAILED {item.label}: {errors[i]}", file=sys.stderr)

        result = {"ready_at": ready_at, "wall_s": wall, "maxrss_mib": maxrss_mib,
                  "items": [[item.label, d, e]
                            for item, d, e in zip(items, durations, errors)]}
        if tracer:
            result["trace"] = tracer.summary()
            if args.spans:
                tracer.write_spans(args.spans)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
