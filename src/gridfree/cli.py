"""Command-line front end.

Subcommands: construct, verify, census, lemma, pascal, detect.  Every JSON
report embeds a manifest (command, parameters, seed, version, inputs,
outputs) so identical invocations produce byte-identical output; wall-clock
timing goes to stderr, never into the reports.  Exit codes: 0 success,
1 a contracted identity or requested check failed, 2 usage or parse error.
Each command runs with the cyclic garbage collector paused.

`construct` never holds a hypergraph.  It counts the construction's edge
chunks as the sweep yields them; with `--out` it writes them to a
temporary file and copies them behind the header once the report has
validated their count.  `verify` runs the requested checks in order.  It
checks linearity by reading the file with the codec's one reader, a
chunk of whole lines at a time (twice when it must name a witness), and
decodes the whole file only when it reaches the first detector check, so
a failed linearity check ahead of the detectors never decodes it.  Every
file, irregular or unreadable, is reported as decode on its whole text
would report it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from pathlib import Path

from . import __version__
from .charsum import delta_sum_check, gauss_sum_check, reciprocity_check, secant_census
from .construct import construction
from .detect import find_grid, find_prism, find_small_two_core
from .ffield import InvalidPrimeError, check_prime, is_prime
from .geometry import pascal_collinear
from .hypergraph import (
    FormatError,
    count_edges,
    decode,
    encode_head,
    file_linear_witness,
    write_edges,
)
from .lemma import (
    EXHAUSTIVE_LIMIT,
    best_subset,
    coverage,
    delta_check,
    expected_coverage,
    half_family_expectation,
    lemma_bound,
)
from .rng import MASK64, sample_distinct, splitmix64_stream

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

CHECK_NAMES = ("linear", "gridfree", "prismfree", "corefree9")


def _print_json(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2))
    else:
        print(json.dumps(obj, separators=(",", ":")))


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


def _prime_at_least(minimum: int):
    def parse(text: str) -> int:
        value = _as_int(text, f"{text!r} is not an integer")
        try:
            return check_prime(value, minimum)
        except InvalidPrimeError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _rho(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational (use num/den)") from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"rho must lie in [0, 1], got {value}")
    return value


def _int_between(minimum: int, maximum: int | None = None):
    def parse(text: str) -> int:
        value = _as_int(text, f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


_seed = _int_between(0, MASK64)


def _cannot_read(path: str, exc: OSError | UnicodeDecodeError) -> int:
    """Report on stderr why the file at path cannot be read; the usage
    exit code."""
    why = "not UTF-8 text" if isinstance(exc, UnicodeDecodeError) else exc.strerror
    print(f"cannot read {path}: {why}", file=sys.stderr)
    return EXIT_USAGE


def _write_replacing(path: Path, pieces) -> None:
    """Write the strings of pieces to path through a temporary file beside
    it and a rename, so a write that fails never leaves path half-written."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as f:
            f.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_instance(path: Path, vmap, chunks, report):
    """Stream the edge chunks of a construction into the .hg3 file at path
    and return its validated report.

    The header counts the edges, so the edge lines go first to a second
    temporary file beside path; once the report has validated their count,
    the header and those lines are copied into path through
    _write_replacing.  Only one chunk of edges and one block of text are
    held at a time.
    """
    spool = path.with_name(f".{path.name}.{os.getpid()}.edges.tmp")
    fd = os.open(spool, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with open(fd, "w+", encoding="utf-8") as edges:
            m = write_edges(edges, len(vmap), chunks)
            validated = report(m)
            edges.seek(0)
            blocks = iter(lambda: edges.read(1 << 16), "")
            _write_replacing(path, chain([encode_head(len(vmap), m, vmap)], blocks))
    finally:
        spool.unlink(missing_ok=True)
    return validated


def _int_range(minimum: int):
    def parse(text: str) -> tuple[int, int]:
        lo, sep, hi = text.partition("..")
        error = f"{text!r} is not N or LO..HI"
        lo_v = _as_int(lo, error)
        hi_v = _as_int(hi, error) if sep else lo_v
        if lo_v > hi_v:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        if lo_v < minimum:
            raise argparse.ArgumentTypeError(f"range must start at {minimum} or above")
        return lo_v, hi_v

    return parse


def cmd_construct(args) -> int:
    if args.kind == "random":
        if args.rho is None or args.seed is None:
            print("construct random needs --rho and --seed", file=sys.stderr)
            return EXIT_USAGE
    elif args.rho is not None or args.seed is not None:
        print(f"construct {args.kind} takes no --rho/--seed", file=sys.stderr)
        return EXIT_USAGE
    if args.out is not None and args.out.endswith(".report.json"):
        print(f"--out {args.out}: names ending in .report.json are kept for the report",
              file=sys.stderr)
        return EXIT_USAGE
    if args.out is not None and Path(args.out).name in ("", ".."):
        print(f"--out {args.out!r}: the path names no file", file=sys.stderr)
        return EXIT_USAGE

    params = (args.p,)
    if args.kind == "random":
        params += (args.rho.numerator, args.rho.denominator, args.seed)
    vmap, chunks, report = construction(args.kind, *params)
    if args.out is None:
        report = report(count_edges(len(vmap), chunks))
    else:
        out_path = Path(args.out)
        report_path = out_path.with_suffix(".report.json")
        try:
            report = _write_instance(out_path, vmap, chunks, report)
        except OSError as exc:
            print(f"cannot write {out_path}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE

    outputs = [] if args.out is None else [str(out_path), str(report_path)]
    manifest = _manifest(
        command="construct",
        parameters={
            "kind": args.kind,
            "p": args.p,
            "rho": str(args.rho) if args.rho is not None else None,
            "out": args.out,
        },
        seed=args.seed,
        outputs=outputs,
    )
    payload = {"manifest": manifest, "report": report.to_json_dict()}
    if args.out is not None:
        body = json.dumps(payload, indent=2 if args.pretty else None,
                          separators=None if args.pretty else (",", ":"))
        try:
            _write_replacing(report_path, [body, "\n"])
        except OSError as exc:
            print(f"cannot write {report_path}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
    _print_json(payload, args.pretty)
    return EXIT_OK


def cmd_verify(args) -> int:
    requested = args.checks.split(",") if args.checks else list(CHECK_NAMES)
    for name in requested:
        if name not in CHECK_NAMES:
            print(f"unknown check {name!r}; pick from {', '.join(CHECK_NAMES)}", file=sys.stderr)
            return EXIT_USAGE
    manifest = _manifest(
        command="verify",
        parameters={"checks": requested},
        inputs=[args.infile],
    )
    h = None  # decoded when the first detector is reached
    for name in requested:
        try:
            if name == "linear":
                found = file_linear_witness(args.infile)
            elif h is None:
                h = decode(Path(args.infile).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            return _cannot_read(args.infile, exc)
        if name == "gridfree":
            found = find_grid(h)
        elif name == "prismfree":
            found = find_prism(h)
        elif name == "corefree9":
            found = find_small_two_core(h, 9)
        if found is not None:
            if name == "linear":
                pair, first, second = found
                witness = {"pair": list(pair), "edges": [first, second]}
            else:
                witness = found.to_json_dict()
            _print_json(
                {"manifest": manifest, "ok": False, "failed": name, "witness": witness},
                args.pretty,
            )
            return EXIT_VIOLATION
    _print_json({"manifest": manifest, "ok": True, "checks": requested}, args.pretty)
    return EXIT_OK


def cmd_census(args) -> int:
    lo, hi = args.p
    primes = []
    skipped = []
    for v in range(lo, hi + 1):
        if v >= 5 and v % 2 == 1 and is_prime(v):
            primes.append(v)
        else:
            skipped.append(v)
    manifest = _manifest(
        command="census",
        parameters={"p": f"{lo}..{hi}"},
        skipped=skipped,
    )
    _print_json({"manifest": manifest}, args.pretty)
    for p in primes:
        gauss = gauss_sum_check(p)
        if gauss != -1:
            print(f"gauss sum identity failed at p={p}: {gauss}", file=sys.stderr)
            return EXIT_VIOLATION
        delta = delta_sum_check(p)
        if delta != -(p - 1):
            print(f"delta sum identity failed at p={p}: {delta}", file=sys.stderr)
            return EXIT_VIOLATION
        rec = reciprocity_check(p)
        if not rec.consistent:
            print(f"reciprocity failed at p={p}", file=sys.stderr)
            return EXIT_VIOLATION
        _print_json(secant_census(p).to_json_dict(), args.pretty)
    return EXIT_OK


def _lemma_family(N: int, seed: int):
    """Seeded exact-half pair family for N = 0, 1 (mod 4), else None."""
    if N % 4 not in (0, 1):
        return None
    pairs = list(combinations(range(N), 2))
    half = len(pairs) // 2
    pick = sample_distinct(len(pairs), half, (seed * 1_000_003 + N) & MASK64)
    return tuple(pairs[i] for i in sorted(pick))


def _exhaustive_average(N: int, k: int, fam) -> Fraction:
    total = sum(coverage(S, fam) for S in combinations(range(N), k))
    return Fraction(total, comb(N, k))


def cmd_lemma(args) -> int:
    lo, hi = args.N
    manifest = _manifest(
        command="lemma",
        parameters={"N": f"{lo}..{hi}"},
        seed=args.seed,
    )
    _print_json({"manifest": manifest}, args.pretty)
    for N in range(lo, hi + 1):
        k = N // 2
        expectation = half_family_expectation(N)
        bound = lemma_bound(N)
        delta, delta_ok = delta_check(N)
        if not delta_ok:
            print(f"ceiling gap bound failed at N={N}", file=sys.stderr)
            return EXIT_VIOLATION
        fam = _lemma_family(N, args.seed)
        h_size = len(fam) if fam is not None else None
        best_cov = None
        best_set = None
        if fam is not None:
            if expected_coverage(N, k, fam) != expectation:
                print(f"expectation formula failed at N={N}", file=sys.stderr)
                return EXIT_VIOLATION
            if N <= 12 and _exhaustive_average(N, k, fam) != expectation:
                print(f"exhaustive average disagrees at N={N}", file=sys.stderr)
                return EXIT_VIOLATION
            if N <= EXHAUSTIVE_LIMIT:
                best_set, best_cov = best_subset(N, k, fam)
                if best_cov < bound:
                    print(f"attained coverage below bound at N={N}", file=sys.stderr)
                    return EXIT_VIOLATION
        record = {
            "N": N,
            "k": k,
            "pair_count": comb(N, 2),
            "h_size": h_size,
            "expectation": str(expectation),
            "bound": bound,
            "delta": str(delta),
            "delta_ok": delta_ok,
            "best_coverage": best_cov,
            "best_subset": list(best_set) if best_set is not None else None,
        }
        _print_json(record, args.pretty)
    return EXIT_OK


def cmd_pascal(args) -> int:
    p = args.p
    stream = splitmix64_stream(args.seed)
    failures = []
    for i in range(args.samples):
        xs = sample_distinct(p, 6, next(stream))
        if not pascal_collinear(xs, p):
            failures.append({"sample": i, "xs": list(xs)})
    manifest = _manifest(
        command="pascal",
        parameters={"p": args.p, "samples": args.samples},
        seed=args.seed,
    )
    _print_json(
        {
            "manifest": manifest,
            "p": args.p,
            "samples": args.samples,
            "all_collinear": not failures,
            "failures": failures,
        },
        args.pretty,
    )
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_detect(args) -> int:
    try:
        h = decode(Path(args.infile).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        return _cannot_read(args.infile, exc)
    if args.find == "grid":
        witness = find_grid(h)
    elif args.find == "prism":
        witness = find_prism(h)
    else:
        witness = find_small_two_core(h, args.max_vertices)
    manifest = _manifest(
        command="detect",
        parameters={"find": args.find, "max_vertices": args.max_vertices},
        inputs=[args.infile],
    )
    _print_json(
        {
            "manifest": manifest,
            "find": args.find,
            "found": witness is not None,
            "witness": witness.to_json_dict() if witness is not None else None,
        },
        args.pretty,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfree",
        description="Grid-free hypergraph constructions over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build an instance and its report")
    p_con.add_argument("kind", choices=("base", "random", "qr"))
    p_con.add_argument("--p", type=_prime_at_least(5), required=True)
    p_con.add_argument("--rho", type=_rho, default=None, help="inclusion probability num/den")
    p_con.add_argument("--seed", type=_seed, default=None)
    p_con.add_argument("--out", default=None, help="write .hg3 here plus a sibling .report.json")
    p_con.add_argument("--pretty", action="store_true")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="run structural checks on a .hg3 file")
    p_ver.add_argument("--in", dest="infile", required=True)
    p_ver.add_argument(
        "--checks",
        default=None,
        help=f"comma-separated subset of {','.join(CHECK_NAMES)} (default all)",
    )
    p_ver.add_argument("--pretty", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_cen = sub.add_parser("census", help="secant census and character-sum audit")
    p_cen.add_argument("--p", type=_int_range(3), required=True, metavar="LO..HI")
    p_cen.add_argument("--pretty", action="store_true")
    p_cen.set_defaults(func=cmd_census)

    p_lem = sub.add_parser("lemma", help="coverage expectations and bounds")
    p_lem.add_argument("--N", type=_int_range(2), required=True, metavar="LO..HI")
    p_lem.add_argument("--seed", type=_seed, default=0)
    p_lem.add_argument("--pretty", action="store_true")
    p_lem.set_defaults(func=cmd_lemma)

    p_pas = sub.add_parser("pascal", help="random hexagon collinearity audit")
    p_pas.add_argument("--p", type=_prime_at_least(7), required=True)
    p_pas.add_argument("--samples", type=_int_between(1), default=1000)
    p_pas.add_argument("--seed", type=_seed, default=0)
    p_pas.add_argument("--pretty", action="store_true")
    p_pas.set_defaults(func=cmd_pascal)

    p_det = sub.add_parser("detect", help="hunt one configuration in a .hg3 file")
    p_det.add_argument("--in", dest="infile", required=True)
    p_det.add_argument("--find", choices=("grid", "prism", "core"), required=True)
    p_det.add_argument("--max-vertices", type=_int_between(4, 10), default=9)
    p_det.add_argument("--pretty", action="store_true")
    p_det.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The commands build large acyclic tuple structures that reference
    # counting frees; cyclic collections would only rescan them.
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        code = args.func(args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidPrimeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    finally:
        if collecting:
            gc.enable()
        elapsed = time.perf_counter() - start
        print(f"gridfree: {elapsed:.3f}s elapsed", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
