"""gridfree benchmark: one workload, run as real CLI invocations.

    python3 bench/run.py --workload certify-small --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; it uses that checkout's `src`.  Each op
is one `python -m gridfree` child, started only after the previous one has
been reaped (a closed loop with one client), so one child runs at a time.
Ops run in `bench/work` with relative file names.

--trace 0 repeats the op list while another pass fits in --seconds and
prints the end-to-end metrics: per op, the median over passes of its time
divided by the host's slowdown, summed over the ops.  --trace 1 runs one
pass of children, then the same ops in-process through `gridfree.cli.main`,
untraced and traced, and prints the per-layer metrics.  Both modes check
every output: ops with the same argv on every seed against the hashes in
`expected.json`, the rest with the invariants in `check.py`.

The last stdout line is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it holds the run context and per-op detail.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import check
from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
SETUP_REPEATS = 3
# The host's speed drifts by up to a third over minutes (other tenants), so
# each timing is divided by the host's slowdown at the time: the median of
# three runs of a fixed pure-Python loop, taken in this process before and
# after every op, over REFERENCE_S, its time at nominal speed.
REFERENCE_S = 0.035
ELAPSED = re.compile(rb"^gridfree: (\d+\.\d{3})s elapsed$")
INVARIANTS = {
    "construct": lambda op, r: check.check_construct(op.argv, r.code, r.stdout, r.files),
    "verify": lambda op, r: check.check_verify(op.argv, r.code, r.stdout, r.files),
    "detect": lambda op, r: check.check_detect(op.argv, r.code, r.stdout, r.files),
    "lemma": lambda op, r: check.check_lemma(op.argv, r.code, r.stdout),
    "pascal": lambda op, r: check.check_pascal(op.argv, r.code, r.stdout),
}


def sha256(data: bytes | None) -> str:
    return "missing" if data is None else hashlib.sha256(data).hexdigest()


def read_if_present(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


class OpResult:
    """One op's exit code, stdout and touched files, plus its costs."""

    def __init__(self, op, code: int, stdout: bytes, wall: float):
        self.op = op
        self.code = code
        self.stdout = stdout
        self.wall = wall
        self.files = {name: read_if_present(WORK / name) for name in op.reads + op.writes}
        self.cpu = 0.0
        self.rss_kib = 0
        self.slowdown = 1.0
        self.elapsed = None

    def digest(self) -> dict:
        return {
            "exit": self.code,
            "stdout_sha256": sha256(self.stdout),
            "files": {name: sha256(self.files[name]) for name in self.op.writes},
        }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_check(env: dict) -> None:
    """The children must import gridfree from this checkout's src."""
    proc = subprocess.run(
        [sys.executable, "-c", "import gridfree; print(gridfree.__file__)"],
        cwd=WORK, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0 or not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: gridfree does not import from {SRC}: {proc.stderr.strip()}")


class Launcher:
    """The small process (launcher.py) that spawns every op's child in WORK
    and reaps it with wait4, which gives that child's own CPU time and peak
    RSS.  Start it before this process grows."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py"), sys.executable],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, op) -> OpResult:
        out_path, err_path = WORK / "_stdout", WORK / "_stderr"
        request = {"argv": op.argv, "cwd": str(WORK), "stdout": str(out_path),
                   "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("bench: the launcher exited")
        reply = json.loads(line)
        result = OpResult(op, reply["code"], out_path.read_bytes(), reply["wall_s"])
        result.cpu = reply["cpu_s"]
        result.rss_kib = reply["maxrss_kib"]
        stderr_lines = err_path.read_bytes().splitlines()
        match = ELAPSED.match(stderr_lines[-1]) if stderr_lines else None
        result.elapsed = float(match.group(1)) if match else None
        return result


class Checker:
    """Checks op results; a verdict is cached by the op and the hashes of
    everything it read and wrote, so repeated passes re-check nothing."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.verdicts: dict[tuple, str | None] = {}

    def __call__(self, result: OpResult) -> str | None:
        """None when the output is right, else the reason it is wrong."""
        op = result.op
        key = (op.key, result.code, sha256(result.stdout),
               tuple(sha256(result.files[n]) for n in op.reads + op.writes))
        if key not in self.verdicts:
            self.verdicts[key] = self._judge(result)
        return self.verdicts[key]

    def _judge(self, result: OpResult) -> str | None:
        op = result.op
        if result.elapsed is None:
            return "no elapsed-time line on stderr"
        if not op.seeded:
            want = self.expected.get(op.key)
            if want is None:
                return "op has no recorded output"
            return None if result.digest() == want else "output differs from the recorded one"
        try:
            INVARIANTS[op.command](op, result)
        except (check.CheckError, KeyError, ValueError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


def reference() -> float:
    """Seconds the reference loop takes now (median of three).  It mixes
    integer arithmetic with tuple, set, sort and dict work on a few MB, as
    the program does; either half alone tracked some ops poorly."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table, total = {}, 0
        for i in range(80_000):
            total += i * 7919 % 1009
            table[i & 1023] = total
        items = [(i * 7919 % 100_003, i) for i in range(40_000)]
        set(items)
        items.sort()
        table = dict(items)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_ops(ops, launcher: Launcher, checker: Checker, log: list) -> list[OpResult]:
    """Run ops as children; each result's `slowdown` is the host's speed
    factor over the op, from the reference runs just before and after it."""
    results = []
    before = reference()
    for op in ops:
        result = launcher.run(op)
        after = reference()
        result.slowdown = (before + after) / 2 / REFERENCE_S
        before = after
        reason = checker(result)
        log.append({"op": op.key, "wall_s": result.wall, "slowdown": result.slowdown,
                    "maxrss_kib": result.rss_kib, "exit": result.code, "ok": reason is None,
                    **({"reason": reason} if reason else {})})
        results.append(result)
    return results


def setup(setup_ops, env: dict, launcher: Launcher, checker: Checker, log: list) -> float:
    """A fresh work directory, the import check, then the input files.
    Returns the time taken, normalized, without the speed probes."""
    slowdown = reference() / REFERENCE_S
    start = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    pin_check(env)
    spent = (time.perf_counter() - start) / slowdown
    results = run_ops(setup_ops, launcher, checker, log)
    return spent + sum(r.wall / r.slowdown for r in results)


def end_to_end(passes: list[list[OpResult]]) -> dict[str, float]:
    """Per op, the median over passes of its speed-normalized time; summed."""
    per_op = list(zip(*passes))
    return {
        "wall_s": sum(statistics.median(r.wall / r.slowdown for r in runs) for runs in per_op),
        "cpu_s": sum(statistics.median(r.cpu / r.slowdown for r in runs) for runs in per_op),
        "peak_rss_mib": max(r.rss_kib for runs in per_op for r in runs) / 1024,
    }


def import_gridfree_cli():
    sys.path.insert(0, str(SRC))
    import gridfree.cli

    if not Path(gridfree.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: gridfree does not import from {SRC}")
    return gridfree.cli


def run_in_process(cli, op) -> OpResult:
    """One op through cli.main in this process, cwd WORK, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(WORK)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return OpResult(op, code, out.getvalue().encode(), wall)


def traced_metrics(children: list[OpResult], log: list) -> tuple[dict, dict]:
    """Run the children's ops in-process untraced, then traced; each must
    give the same exit code, stdout and files as its child did."""
    cli = import_gridfree_cli()
    tracer = Tracer()
    walls = {"untraced": 0.0, "traced": 0.0}
    for mode in walls:
        for child in children:
            if mode == "traced":
                with tracer.installed():
                    result = run_in_process(cli, child.op)
            else:
                result = run_in_process(cli, child.op)
            walls[mode] += result.wall
            log.append({"op": child.op.key, "mode": mode, "wall_s": result.wall,
                        "ok": result.digest() == child.digest()})
    metrics = tracer.metrics()
    metrics["cli.startup_s"] = sum(r.wall - (r.elapsed or 0.0) for r in children)
    for command in ("construct", "verify", "detect", "census", "lemma", "pascal"):
        metrics[f"cli.{command}.wall_s"] = sum(r.wall for r in children if r.op.command == command)
    metrics["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    return metrics, tracer.by_parent()


def run_context(seed: int) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_start": Path("/proc/loadavg").read_text().split()[:3],
    }


def declared_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def report(values: dict[str, float], section: str) -> dict:
    units = declared_metrics(section)
    if set(values) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(values) ^ set(units))} do not match "
                         f"BENCHMARK.json {section}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must lie in [0, 2^64)")
    return args


def measure(args, launcher: Launcher, context: dict, log: list) -> dict:
    """Set up, then run the workload; returns the metrics to report."""
    setup_ops, ops = WORKLOADS[args.workload](args.seed)
    env = child_env()
    checker = Checker(json.loads((BENCH / "expected.json").read_text()))
    setup_times = [setup(setup_ops, env, launcher, checker, log) for _ in range(SETUP_REPEATS)]
    context["setup_s"] = setup_times

    if args.trace:
        children = run_ops(ops, launcher, checker, log)
        values, context["trace_by_parent"] = traced_metrics(children, log)
        return report(values, "per_layer")
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_ops(ops, launcher, checker, log))
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > args.seconds:
            break
    context["passes"] = len(passes)
    values = end_to_end(passes)
    values["setup_s"] = statistics.median(setup_times)
    return report(values, "end_to_end")


def main() -> None:
    args = parse_args()
    if not (SRC / "gridfree" / "cli.py").is_file():
        raise SystemExit(f"bench: no gridfree sources at {SRC}")
    context = run_context(args.seed)
    log: list[dict] = []  # one entry per op run, in-process ones included
    try:
        with Launcher(child_env()) as launcher:
            metrics = measure(args, launcher, context, log)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    context["loadavg_end"] = Path("/proc/loadavg").read_text().split()[:3]
    failed = sum(not entry["ok"] for entry in log)
    print(json.dumps({"context": context, "ops": log}))
    print(json.dumps({"correct": failed == 0, "attempted": len(log), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
