"""Interleaved A/B timing of one benchmark workload in two checkouts.

    python tools/ab_rounds.py CHECKOUT_A CHECKOUT_B --workload orbit-transport --pairs 10 --rounds 5

A pair of workers, one per checkout, each with its `src/` on `PYTHONPATH`,
its `bench/` on `sys.path`, `OPENBLAS_NUM_THREADS=1` and `PYTHONHASHSEED=0`,
runs batches of rounds 0..K-1 of the seed-1 plan with `bench/worker.py`'s
`Workload.run_round`, after one untimed warm-up round: in-process operations
through `bench/inproc.py`, or for cli-session `python -m mhstools.cli`
children that inherit that `PYTHONPATH` and write into the checkout's
`.bench_run/`, timed by `bench/opcontext.py`.  Batches alternate A-B, B-A,
..., so host drift falls on both sides alike.  A fresh worker pair starts every
PAIRS_PER_WORKERS pairs: one process can sit 10-20 % above another running
the same code, so a single pair of processes cannot tell the checkouts apart.
The rounds of the plan differ in cost, so B is compared with A round by
round: round r of B against round r of A in the same pair.  Prints each
side's pooled round median and minimum, op_p50 and per-kind medians in ms,
failed operations and the pairs B won (a pair whose median per-round B/A
ratio is below 1), then the median per-round B/A ratio pooled, per worker
pair, and the spread (max - min) of the per-worker-pair medians; exits 1
when an operation failed (its traceback is on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

PAIRS_PER_WORKERS = 5


def worker(checkout: str, workload: str) -> None:
    """For each line K on stdin, run rounds 0..K-1; print their (kind, s, ok) as JSON."""
    sys.path.insert(0, os.path.join(checkout, "bench"))
    from worker import Workload

    workdir = os.path.join(checkout, ".bench_run")
    os.makedirs(workdir, exist_ok=True)
    w = Workload(argparse.Namespace(workload=workload, seed=1, tiny=False, workdir=workdir))
    w.run_round(0, None)
    for line in sys.stdin:
        rounds = [w.run_round(r, None) for r in range(int(line))]
        print(json.dumps([[(rec["kind"], rec["s"], rec["ok"]) for rec in recs]
                          for recs in rounds]), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("checkouts", nargs=2, metavar="CHECKOUT")
    ap.add_argument("--workload", default="orbit-transport",
                    choices=("catalog-sweep", "orbit-transport", "characteristics",
                             "cli-session"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
    checkouts = list(map(os.path.abspath, args.checkouts))
    ops, walls, wins, ratios = ([], []), ([], []), 0, []  # ratios: per worker pair
    for first in range(0, args.pairs, PAIRS_PER_WORKERS):
        procs = [subprocess.Popen([sys.executable, __file__, "--worker", c, args.workload],
                                  cwd=c, env={**env, "PYTHONPATH": os.path.join(c, "src")},
                                  text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                 for c in checkouts]
        ratios.append([])
        for p in range(first, min(first + PAIRS_PER_WORKERS, args.pairs)):
            for side in ((0, 1) if p % 2 == 0 else (1, 0)):
                procs[side].stdin.write(f"{args.rounds}\n")
                procs[side].stdin.flush()
                rounds = json.loads(procs[side].stdout.readline())
                ops[side].extend(op for r in rounds for op in r)
                walls[side].extend(1e3 * sum(op[1] for op in r) for r in rounds)
            pair = [b / a for a, b in zip(walls[0][-args.rounds:], walls[1][-args.rounds:])]
            ratios[-1].extend(pair)
            wins += median(pair) < 1.0
        for proc in procs:
            proc.communicate()

    def row(label, per_side):
        print(f"{label:16}" + "".join(f"{per_side(s):10.3f}" for s in (0, 1)))

    print(f"{'ms':16}{'A':>10}{'B':>10}")
    row("round median", lambda s: median(walls[s]))
    row("round min", lambda s: min(walls[s]))
    row("op_p50", lambda s: 1e3 * median(op[1] for op in ops[s]))
    for kind in sorted({op[0] for op in ops[0]}):
        row(kind, lambda s: 1e3 * median(op[1] for op in ops[s] if op[0] == kind))
    print(f"{'failed ops':16}" + "".join(f"{sum(not op[2] for op in o):10d}" for o in ops))
    print(f"B won {wins} of {args.pairs} pairs")
    per_workers = [median(r) for r in ratios]
    print(f"B/A per-round ratio median: pooled {median(r for rs in ratios for r in rs):.3f}, "
          f"per worker pair {' '.join(f'{r:.3f}' for r in per_workers)}, "
          f"spread {max(per_workers) - min(per_workers):.3f}")
    return int(any(not op[2] for o in ops for op in o))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:4])
    else:
        sys.exit(main())
