"""Rewrite expected.json from the program at the current commit.

    python3 bench/record.py

Every op of every workload, set-up ops included, is run once as a child
and checked with the invariants in check.py; for each op whose argv is the
same on every seed, its exit code and the sha256 of its stdout and of each
file it writes are recorded.  Run it only at a commit whose outputs are
meant to become the reference.
"""

from __future__ import annotations

import json
import shutil

import run
from workloads import WORKLOADS


def main() -> None:
    env = run.child_env()
    expected = {}
    with run.Launcher(env) as launcher:
        for name, build in WORKLOADS.items():
            record_workload(name, build, env, launcher, expected)
    shutil.rmtree(run.WORK, ignore_errors=True)
    (run.BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def record_workload(name, build, env, launcher, expected) -> None:
    setup_ops, ops = build(1)
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir(parents=True)
    run.pin_check(env)
    for op in setup_ops + ops:
        result = launcher.run(op)
        if result.elapsed is None:
            raise SystemExit(f"{op.key}: no elapsed-time line on stderr")
        if op.command in run.INVARIANTS:
            run.INVARIANTS[op.command](op, result)
        if not op.seeded:
            expected[op.key] = result.digest()
        print(f"{name}: {op.key}: exit {result.code}, {result.wall:.2f}s")


if __name__ == "__main__":
    main()
