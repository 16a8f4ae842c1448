"""Command-line front end.

Subcommands: construct, verify, census, lemma, pascal, detect.  Every JSON
report embeds a manifest (command, parameters, seed, version, inputs,
outputs) so identical invocations produce byte-identical output; wall-clock
timing goes to stderr, never into the reports.  Exit codes: 0 success,
1 a contracted identity or requested check failed, 2 usage, parse or
output error.  The commands print only their results and raise on a
failure; main alone turns a failure into one stderr line and its exit
code.  Each command runs with the cyclic garbage collector paused.

`construct --out` stages the instance and its report beside the output,
then renames them into place, so no output is left half-written; a target
that is a directory or whose name is too long is refused before any write.
`verify` runs the requested checks in order and reads the hypergraph only
at its first detector check, so a failed linear check builds none.  A
file whose provenance comments are malformed is searched with no vertex
map, as decode, which ignores comments, would read it.

`census` and `lemma` print the records that charsum and lemma build and
check.  Only --rho's parser and the library functions that build a
Fraction import fractions, so only `construct random` loads it.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .charsum import checked_census
from .construct import construction
from .detect import find_grid, find_prism, find_small_two_core
from .ffield import InvalidPrimeError, check_prime, is_prime
from .geometry import pascal_collinear
from .hypergraph import (
    FormatError,
    count_edges,
    encode_head,
    file_instance,
    file_linear_witness,
    write_edges,
)
from .lemma import lemma_record
from .rng import MASK64, sample_distinct, splitmix64_stream

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# detect --find's name for each search, verify's name for its check, and
# the search: it takes the hypergraph, its vertex map or None, and the
# most vertices of a small 2-core, which verify's corefree9 sets to 9.
SEARCHES = {
    "grid": ("gridfree", lambda h, vmap, size: find_grid(h, vmap)),
    "prism": ("prismfree", lambda h, vmap, size: find_prism(h)),
    "core": ("corefree9", lambda h, vmap, size: find_small_two_core(h, size)),
}
CHECKS = dict(SEARCHES.values())
CHECK_NAMES = ("linear", *CHECKS)

# Work budgets: the largest value of each flag whose work grows without
# bound, refused at parse time with the usage exit code, so that no
# invocation runs for hours.  Each lies well above every golden, benchmark
# and CI input.  construct at p writes about p^2/4 edges (p = 10,007 takes
# under a minute); census at p and lemma at N cost about p^2 and N^2 each,
# so the ranges 5..2000 and 2..500 take under a minute too.
MAX_CONSTRUCT_P = 20_000
MAX_CENSUS_P = 2_000
MAX_LEMMA_N = 500
MAX_PASCAL_SAMPLES = 1_000_000


def _json(obj, pretty: bool) -> str:
    if pretty:
        return json.dumps(obj, indent=2)
    return json.dumps(obj, separators=(",", ":"))


def _manifest(command: str, parameters: dict, seed=None, inputs=(), outputs=(), **extra) -> dict:
    out = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "inputs": list(inputs),
        "outputs": list(outputs),
    }
    out.update(extra)
    return out


def _as_int(text: str, error: str) -> int:
    """int(text), or an ArgumentTypeError carrying error."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(error) from None


def _within_budget(value: int, budget: int | None) -> int:
    """value, or an ArgumentTypeError naming the work budget it exceeds."""
    if budget is not None and value > budget:
        raise argparse.ArgumentTypeError(f"{value} exceeds the work budget of {budget}")
    return value


def _prime_at_least(minimum: int, budget: int | None = None):
    def parse(text: str) -> int:
        value = _within_budget(_as_int(text, f"{text!r} is not an integer"), budget)
        try:
            return check_prime(value, minimum)
        except InvalidPrimeError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _rho(text: str) -> Fraction:
    from fractions import Fraction  # it imports decimal: loaded only when a rational is built

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational (use num/den)") from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"rho must lie in [0, 1], got {value}")
    return value


def _int_between(minimum: int, maximum: int | None = None, budget: int | None = None):
    def parse(text: str) -> int:
        value = _as_int(text, f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return _within_budget(value, budget)

    return parse


_seed = _int_between(0, MASK64)


class UsageError(Exception):
    """A refused invocation or an unreadable input: main prints the
    message as it is and exits with the usage code."""


def _cannot_read(path: str, exc: OSError | UnicodeDecodeError) -> UsageError:
    """The UsageError saying why the file at path cannot be read."""
    why = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else exc.strerror
    return UsageError(f"cannot read {path}: {why}")


def _refusal(path: Path) -> int:
    """The errno that will stop a rename onto path, or 0: a name past its
    directory's NAME_MAX, or a directory there.  A missing directory is left
    to the write."""
    try:
        if len(os.fsencode(path.name)) > os.pathconf(path.parent, "PC_NAME_MAX"):
            return errno.ENAMETOOLONG
    except OSError:
        return 0
    return errno.EISDIR if os.path.isdir(path) and not os.path.islink(path) else 0


def _stage(out: Path, report: Path, vmap, chunks, text) -> str:
    """Write the .hg3 file of a construction's edge chunks to out and the
    report text(m) on its edge count m to report; return that text.

    The header counts the edges, so the edge lines are spooled first.  Each
    file is written in full under a temporary name beside out, then renamed
    into place, the instance first.  The names hold the process id and a
    random tag per run, so a temporary left by a killed run under a reused
    pid is neither met nor removed (a peer may own it).  They are short and
    do not grow with out, so they fit wherever out and report fit.
    """
    staged = {}
    tag = f".gridfree-{os.getpid()}-{os.urandom(4).hex()}"

    def create(suffix):
        path = out.with_name(f"{tag}.{suffix}")
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
        staged[suffix] = path
        return open(fd, "w+", encoding="utf-8")

    try:
        with create("edges") as edges:
            m = write_edges(edges, len(vmap), chunks)
            body = text(m)
            edges.seek(0)
            with create("hg3") as f:
                f.write(encode_head(len(vmap), m, vmap))
                f.writelines(iter(lambda: edges.read(1 << 16), ""))
        with create("json") as f:
            f.write(body + "\n")
        os.replace(staged["hg3"], out)
        os.replace(staged["json"], report)
        return body
    finally:
        for path in staged.values():
            path.unlink(missing_ok=True)


def _int_range(minimum: int, budget: int):
    def parse(text: str) -> tuple[int, int]:
        lo, sep, hi = text.partition("..")
        error = f"{text!r} is not N or LO..HI"
        lo_v = _as_int(lo, error)
        hi_v = _as_int(hi, error) if sep else lo_v
        if lo_v > hi_v:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        if lo_v < minimum:
            raise argparse.ArgumentTypeError(f"range must start at {minimum} or above")
        return lo_v, _within_budget(hi_v, budget)

    return parse


def cmd_construct(args) -> int:
    if args.kind == "random":
        if args.rho is None or args.seed is None:
            raise UsageError("construct random needs --rho and --seed")
    elif args.rho is not None or args.seed is not None:
        raise UsageError(f"construct {args.kind} takes no --rho/--seed")
    if args.out is not None and args.out.endswith(".report.json"):
        raise UsageError(f"--out {args.out}: names ending in .report.json are kept for the report")
    if args.out is not None and Path(args.out).name in ("", ".."):
        raise UsageError(f"--out {args.out!r}: the path names no file")

    paths = [] if args.out is None else [Path(args.out)]
    paths += [path.with_suffix(".report.json") for path in paths]
    for path in paths:
        if refused := _refusal(path):
            raise UsageError(f"cannot write {path}: {os.strerror(refused)}")

    params = (args.p,)
    if args.kind == "random":
        params += (args.rho.numerator, args.rho.denominator, args.seed)
    vmap, chunks, report = construction(args.kind, *params)
    manifest = _manifest(
        command="construct",
        parameters={
            "kind": args.kind,
            "p": args.p,
            "rho": str(args.rho) if args.rho is not None else None,
            "out": args.out,
        },
        seed=args.seed,
        outputs=[str(path) for path in paths],
    )

    def text(m: int) -> str:
        return _json({"manifest": manifest, "report": report(m).to_json_dict()}, args.pretty)

    if not paths:
        print(text(count_edges(len(vmap), chunks)))
        return EXIT_OK
    try:
        body = _stage(*paths, vmap, chunks, text)
    except OSError as exc:
        # a failed rename names its target, any other failure the instance
        raise UsageError(f"cannot write {exc.filename2 or paths[0]}: {exc.strerror}") from None
    print(body)
    return EXIT_OK


def cmd_verify(args) -> int:
    requested = list(CHECK_NAMES) if args.checks is None else args.checks.split(",")
    for name in requested:
        if name not in CHECK_NAMES:
            raise UsageError(f"unknown check {name!r}; pick from {', '.join(CHECK_NAMES)}")
    manifest = _manifest(
        command="verify",
        parameters={"checks": requested},
        inputs=[args.infile],
    )
    instance = None  # (h, vmap), read when the first detector is reached
    for name in dict.fromkeys(requested):
        try:
            if name == "linear":
                found = file_linear_witness(args.infile)
                witness = found and {"pair": list(found[0]), "edges": list(found[1:])}
            else:
                instance = instance or file_instance(args.infile)
                found = CHECKS[name](*instance, 9)
                witness = found and found.to_json_dict()
        except (OSError, UnicodeDecodeError) as exc:
            raise _cannot_read(args.infile, exc) from None
        if witness is not None:
            print(_json(
                {"manifest": manifest, "ok": False, "failed": name, "witness": witness},
                args.pretty,
            ))
            return EXIT_VIOLATION
    print(_json({"manifest": manifest, "ok": True, "checks": requested}, args.pretty))
    return EXIT_OK


def cmd_census(args) -> int:
    lo, hi = args.p
    primes = [v for v in range(lo, hi + 1) if v >= 5 and v % 2 == 1 and is_prime(v)]
    skipped = sorted(set(range(lo, hi + 1)).difference(primes))
    manifest = _manifest(
        command="census",
        parameters={"p": f"{lo}..{hi}"},
        skipped=skipped,
    )
    print(_json({"manifest": manifest}, args.pretty))
    for p in primes:
        print(_json(checked_census(p).to_json_dict(), args.pretty))
    return EXIT_OK


def cmd_lemma(args) -> int:
    lo, hi = args.N
    manifest = _manifest(command="lemma", parameters={"N": f"{lo}..{hi}"}, seed=args.seed)
    print(_json({"manifest": manifest}, args.pretty))
    for N in range(lo, hi + 1):
        print(_json(lemma_record(N, args.seed), args.pretty))
    return EXIT_OK


def cmd_pascal(args) -> int:
    p = args.p
    stream = splitmix64_stream(args.seed)
    failures = []
    for i in range(args.samples):
        xs = sample_distinct(p, 6, next(stream))
        if not pascal_collinear(xs, p):
            failures.append({"sample": i, "xs": list(xs)})
    manifest = _manifest(command="pascal", parameters={"p": args.p, "samples": args.samples},
                         seed=args.seed)
    print(_json(
        {
            "manifest": manifest,
            "p": args.p,
            "samples": args.samples,
            "all_collinear": not failures,
            "failures": failures,
        },
        args.pretty,
    ))
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_detect(args) -> int:
    try:
        h, vmap = file_instance(args.infile)
    except (OSError, UnicodeDecodeError) as exc:
        raise _cannot_read(args.infile, exc) from None
    witness = SEARCHES[args.find][1](h, vmap, args.max_vertices)
    manifest = _manifest(
        command="detect",
        parameters={"find": args.find, "max_vertices": args.max_vertices},
        inputs=[args.infile],
    )
    print(_json(
        {
            "manifest": manifest,
            "find": args.find,
            "found": witness is not None,
            "witness": witness.to_json_dict() if witness is not None else None,
        },
        args.pretty,
    ))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfree",
        description="Grid-free hypergraph constructions over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build an instance and its report")
    p_con.add_argument("kind", choices=("base", "random", "qr"))
    p_con.add_argument("--p", type=_prime_at_least(5, MAX_CONSTRUCT_P), required=True,
                       help="an odd prime, 5 to %d (work budget)" % MAX_CONSTRUCT_P)
    p_con.add_argument("--rho", type=_rho, default=None, help="inclusion probability num/den")
    p_con.add_argument("--seed", type=_seed, default=None)
    p_con.add_argument("--out", default=None, help="write .hg3 here plus a sibling .report.json")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="run structural checks on a .hg3 file")
    p_ver.add_argument("--in", dest="infile", required=True)
    p_ver.add_argument(
        "--checks",
        default=None,
        help=f"comma-separated subset of {','.join(CHECK_NAMES)} (default all)",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_cen = sub.add_parser("census", help="secant census and character-sum audit")
    p_cen.add_argument("--p", type=_int_range(3, MAX_CENSUS_P), required=True,
                       metavar="LO..HI", help="HI at most %d (work budget)" % MAX_CENSUS_P)
    p_cen.set_defaults(func=cmd_census)

    p_lem = sub.add_parser("lemma", help="coverage expectations and bounds")
    p_lem.add_argument("--N", type=_int_range(2, MAX_LEMMA_N), required=True,
                       metavar="LO..HI", help="HI at most %d (work budget)" % MAX_LEMMA_N)
    p_lem.add_argument("--seed", type=_seed, default=0)
    p_lem.set_defaults(func=cmd_lemma)

    p_pas = sub.add_parser("pascal", help="random hexagon collinearity audit")
    p_pas.add_argument("--p", type=_prime_at_least(7), required=True)
    p_pas.add_argument("--samples", type=_int_between(1, budget=MAX_PASCAL_SAMPLES),
                       default=1000, help="at most %d (work budget)" % MAX_PASCAL_SAMPLES)
    p_pas.add_argument("--seed", type=_seed, default=0)
    p_pas.set_defaults(func=cmd_pascal)

    p_det = sub.add_parser("detect", help="hunt one configuration in a .hg3 file")
    p_det.add_argument("--in", dest="infile", required=True)
    p_det.add_argument("--find", choices=tuple(SEARCHES), required=True)
    p_det.add_argument("--max-vertices", type=_int_between(4, 10), default=9)
    p_det.set_defaults(func=cmd_detect)

    for command in sub.choices.values():
        command.add_argument("--pretty", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The commands build large acyclic tuple structures that reference
    # counting frees; cyclic collections would only rescan them.
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    message = None
    try:
        code = args.func(args)
        print(end="", flush=True)  # a failed write raises here, not at exit; None stdout passes
    except FormatError as exc:
        code, message = EXIT_USAGE, f"parse error: {exc}"
    except (UsageError, InvalidPrimeError) as exc:
        code, message = EXIT_USAGE, str(exc)
    except ArithmeticError as exc:
        code, message = EXIT_VIOLATION, f"internal invariant violated: {exc}"
    except OSError as exc:
        # The commands report their reads and --out writes, so stdout failed.
        code, message = EXIT_USAGE, f"cannot write stdout: {exc.strerror}"
        _drop(sys.stdout)
    finally:
        if collecting:
            gc.enable()
        elapsed = time.perf_counter() - start
        lines = [] if message is None else [message]
        try:  # best-effort: a failed stderr write leaves the exit code the command's
            print(*lines, f"gridfree: {elapsed:.3f}s elapsed", sep="\n", file=sys.stderr,
                  flush=True)
        except OSError:
            _drop(sys.stderr)
    return code


def _drop(stream) -> None:
    """Point stream's descriptor at os.devnull, so that what it still buffers
    leaves the interpreter's exit flush nothing to raise."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def entry() -> None:
    sys.exit(main())
