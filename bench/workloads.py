"""The benchmark's workloads: fixed lists of `gridfree` CLI invocations.

The workload seed reaches the program only as the `--seed` of
`construct random`, `lemma` and `pascal`; every other op is the same on
every seed, so its output is pinned in `expected.json`.  File names are
relative and every op runs in one work directory, because `construct`,
`verify` and `detect` print the paths they were given.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    seeded: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]

    def _value(self, flag: str) -> str | None:
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else None

    @property
    def writes(self) -> tuple[str, ...]:
        out = self._value("--out")
        if out is None:
            return ()
        return (out, out.rsplit(".", 1)[0] + ".report.json")

    @property
    def reads(self) -> tuple[str, ...]:
        infile = self._value("--in")
        return () if infile is None else (infile,)


def _op(*argv: str, seeded: bool = False) -> Op:
    return Op(tuple(argv), seeded)


def _construct(kind: str, p: int, seed: int | None = None) -> Op:
    name = f"{kind}{p}.hg3"
    if seed is None:
        return _op("construct", kind, "--p", str(p), "--out", name)
    return _op("construct", kind, "--p", str(p), "--rho", "1/2", "--seed", str(seed),
               "--out", name, seeded=True)


def build_roundtrip(seed: int) -> tuple[list[Op], list[Op]]:
    """Large-instance write path (sweep, canonicalize, encode) and the read
    path of the same files (decode, is_linear); no detector runs.  p = 1009
    rather than 2003 keeps each op near a second, so a run holds several
    passes and each op sits close to the speed probes around it."""
    builds = [_construct("base", 1009), _construct("qr", 1009), _construct("random", 1009, seed)]
    verifies = [
        _op("verify", "--checks", "linear", "--in", b.writes[0], seeded=b.seeded) for b in builds
    ]
    return [], builds + verifies


def certify_small(seed: int) -> tuple[list[Op], list[Op]]:
    """Exhaustive detectors on small instances built during set-up: failing
    checks with prism witnesses, one full grid-free certification, and a
    2-core search."""
    setup = [_construct(kind, p) for p in (17, 19, 23) for kind in ("base", "qr")]
    # p = 19 keeps the seeded search short.  Its cost grows like m^4, and at
    # p = 29 five seeds gave m from 128 to 155 and searches from 1.8 to 4.9 s.
    setup.append(_construct("random", 19, seed))
    ops = [_op("verify", "--in", f"{kind}{p}.hg3") for p in (17, 19, 23) for kind in ("base", "qr")]
    ops.append(_op("verify", "--checks", "gridfree", "--in", "random19.hg3", seeded=True))
    ops.append(_op("detect", "--find", "core", "--in", "qr23.hg3"))
    return setup, ops


def audit(seed: int) -> tuple[list[Op], list[Op]]:
    """Object-by-object field and geometry arithmetic plus exact rationals:
    no sweep tables, no hypergraph.  The census stops at 199 for the same
    reason build-roundtrip uses p = 1009."""
    return [], [
        _op("census", "--p", "5..199"),
        _op("lemma", "--N", "2..16", "--seed", str(seed), seeded=True),
        _op("pascal", "--p", "1009", "--samples", "2000", "--seed", str(seed), seeded=True),
    ]


WORKLOADS = {
    "build-roundtrip": build_roundtrip,
    "certify-small": certify_small,
    "audit": audit,
}
