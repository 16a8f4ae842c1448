"""Output checks that do not trust the program under test.

Everything here is computed by the benchmark itself: its own `.hg3`
reader, its own grid search and its own witness checkers.  Nothing from
the `gridfree` package is imported, so a defect in the package's decoder
or validators cannot make a wrong output look right.

Each `check_*` function raises `CheckError` with a reason when an output
is wrong and returns None when it is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

LEMMA_EXHAUSTIVE_N = 16  # largest N whose best subset the CLI searches


class CheckError(Exception):
    """An op's output failed a check."""


def require(condition, reason: str) -> None:
    if not condition:
        raise CheckError(reason)


def read_hg3(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Parse the `.hg3` text format: comment lines, an `n m` header, then m
    ascending vertex triples.  Returns (n, edges)."""
    lines = text.split("\n")
    require(lines[-1] == "", "file lacks its trailing newline")
    lines.pop()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        i += 1
    require(i < len(lines), "file has no header")
    n, m = map(int, lines[i].split())
    body = lines[i + 1:]
    require(len(body) == m, f"header says {m} edges, file has {len(body)} lines")
    edges = []
    for line in body:
        a, b, c = map(int, line.split())
        require(0 <= a < b < c < n, f"bad edge line {line!r}")
        edges.append((a, b, c))
    return n, edges


def linear_violation(n: int, edges) -> tuple[int, int] | None:
    """Indices (i, j), i < j, of the first two edges sharing a vertex pair."""
    owner: dict[int, int] = {}
    for j, (a, b, c) in enumerate(edges):
        for key in (a * n + b, a * n + c, b * n + c):
            i = owner.setdefault(key, j)
            if i != j:
                return i, j
    return None


def find_grid(edges) -> tuple[tuple, tuple] | None:
    """Some 3x3 grid as (rows, cols) edge-index triples, or None.

    Two disjoint rows are joined by a bijection of their vertices; each
    joined pair must lie in a column edge, and the three column ends must
    form the third row.  Every grid is found from its first two rows, so
    None certifies grid-freeness.  Pairs may lie in several edges.
    """
    index = {e: i for i, e in enumerate(edges)}
    thirds: dict[tuple[int, int], list[int]] = {}
    for a, b, c in edges:
        for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
            thirds.setdefault((u, v), []).append(w)

    def ends(u, v):
        return thirds.get((u, v) if u < v else (v, u), ())

    for i, r1 in enumerate(edges):
        for j in range(i + 1, len(edges)):
            r2 = edges[j]
            used = set(r1) | set(r2)
            if len(used) != 6:
                continue
            for perm in permutations(r2):
                pairs = list(zip(r1, perm))
                for zs in product(*(ends(u, v) for u, v in pairs)):
                    row3 = tuple(sorted(zs))
                    if row3 in index and len(set(zs)) == 3 and not used & set(zs):
                        cols = [tuple(sorted((u, v, z))) for (u, v), z in zip(pairs, zs)]
                        return (
                            tuple(sorted((i, j, index[row3]))),
                            tuple(sorted(index[c] for c in cols)),
                        )
    return None


def check_grid_witness(edges, witness: dict) -> None:
    """A grid: three disjoint rows, three disjoint cols, each row meeting
    each col in one vertex, nine vertices listed ascending."""
    rows, cols = witness["rows"], witness["cols"]
    require(rows == sorted(rows) and cols == sorted(cols), "rows/cols not ascending")
    require(len(set(rows + cols)) == 6, "grid needs six distinct edges")
    require(all(0 <= i < len(edges) for i in rows + cols), "edge index out of range")
    row_sets = [set(edges[i]) for i in rows]
    col_sets = [set(edges[i]) for i in cols]
    for group in (row_sets, col_sets):
        for s, t in combinations(group, 2):
            require(not s & t, "two rows or two cols intersect")
    for r in row_sets:
        for c in col_sets:
            require(len(r & c) == 1, "a row and a col do not meet in one vertex")
    cover = set().union(*row_sets)
    require(witness["vertices"] == sorted(cover), "vertex list is not the covered set")


def check_core_witness(edges, witness: dict, max_vertices: int) -> None:
    """Distinct edges in which every covered vertex has degree >= 2, within
    the vertex budget, with the listed vertices and degrees."""
    chosen = witness["edges"]
    require(chosen and chosen == sorted(set(chosen)), "edges not distinct and ascending")
    require(all(0 <= i < len(edges) for i in chosen), "edge index out of range")
    deg: dict[int, int] = {}
    for i in chosen:
        for v in edges[i]:
            deg[v] = deg.get(v, 0) + 1
    verts = sorted(deg)
    require(witness["vertices"] == verts, "vertex list is not the covered set")
    require(witness["degrees"] == [deg[v] for v in verts], "degrees are wrong")
    require(min(deg.values()) >= 2, "a covered vertex has degree < 2")
    require(len(verts) <= max_vertices, "witness exceeds the vertex budget")


def check_prism_witness(edges, witness: dict) -> None:
    """A prism: six edges on nine vertices, each vertex in two of them, whose
    meeting graph (cubic on six nodes) has a triangle.  The grid is the
    other such configuration, and its meeting graph K3,3 has none."""
    check_core_witness(edges, witness, 9)
    chosen = [set(edges[i]) for i in witness["edges"]]
    require(len(chosen) == 6 and witness["degrees"] == [2] * 9, "not six edges on nine degree-2 vertices")
    require(all(len(s & t) <= 1 for s, t in combinations(chosen, 2)), "two edges share a pair")
    require(
        any(s & t and t & u and s & u for s, t, u in combinations(chosen, 3)),
        "meeting graph has no triangle, so this is not a prism",
    )


def check_linear_witness(edges, witness: dict) -> None:
    i, j = witness["edges"]
    a, b = witness["pair"]
    require(i != j and {a, b} <= set(edges[i]) & set(edges[j]), "pair is not shared")


def certify_pass(check: str, n: int, edges) -> None:
    """Confirm a passing check with the benchmark's own search.  Only the
    checks this benchmark can afford to redo are accepted."""
    if check == "linear":
        require(linear_violation(n, edges) is None, "file is not linear")
    elif check == "gridfree":
        require(find_grid(edges) is None, "file contains a grid")
    else:
        raise CheckError(f"cannot confirm a passing {check!r} check independently")


def _text(files: dict, name: str) -> str:
    data = files[name]
    require(data is not None, f"{name} is missing")
    return data.decode()


def _lines(stdout: bytes) -> list[dict]:
    text = stdout.decode()
    require(text.endswith("\n"), "stdout lacks its trailing newline")
    return [json.loads(line) for line in text.splitlines()]


def _manifest(obj: dict, command: str, **fields) -> None:
    man = obj["manifest"]
    require(man["command"] == command, f"manifest command is {man['command']!r}")
    for key, value in fields.items():
        require(man[key] == value, f"manifest {key} is {man[key]!r}, expected {value!r}")


def check_construct(argv, code, stdout: bytes, files: dict[str, bytes]) -> None:
    """construct --out: the report's m and n match the written file, and the
    report file repeats stdout."""
    require(code == 0, f"exit code {code}")
    (payload,) = _lines(stdout)
    out = argv[argv.index("--out") + 1]
    report_name = out.rsplit(".", 1)[0] + ".report.json"
    require(_text(files, report_name) == stdout.decode(), "report file differs from stdout")
    _manifest(payload, "construct", outputs=[out, report_name])
    rep = payload["report"]
    n, edges = read_hg3(_text(files, out))
    require(rep["m"] == len(edges), f"report m={rep['m']}, file has {len(edges)} edge lines")
    require(rep["n"] == n, f"report n={rep['n']}, file header n={n}")
    require(rep["p"] == int(argv[argv.index("--p") + 1]), "report p differs from --p")
    dens = Fraction(rep["density_num"], rep["density_den"])
    require(dens == Fraction(len(edges), n * n), "density is not m/n^2")
    if "--seed" in argv:
        require(rep["seed"] == int(argv[argv.index("--seed") + 1]), "report seed differs")


def check_verify(argv, code, stdout: bytes, inputs: dict[str, bytes]) -> None:
    """verify: the exit code agrees with ok; a witness is re-checked against
    the input file; every check claimed passed is confirmed."""
    (result,) = _lines(stdout)
    infile = argv[argv.index("--in") + 1]
    requested = argv[argv.index("--checks") + 1].split(",") if "--checks" in argv else [
        "linear", "gridfree", "prismfree", "corefree9"]
    _manifest(result, "verify", inputs=[infile], parameters={"checks": requested})
    n, edges = read_hg3(_text(inputs, infile))
    passed = requested
    if result["ok"]:
        require(code == 0 and result["checks"] == requested, "ok report with wrong exit or checks")
    else:
        require(code == 1, f"failed check reported with exit code {code}")
        failed = result["failed"]
        require(failed in requested, f"unrequested check {failed!r} failed")
        passed = requested[: requested.index(failed)]
        witness = result["witness"]
        if failed == "linear":
            check_linear_witness(edges, witness)
        elif failed == "gridfree":
            check_grid_witness(edges, witness)
        elif failed == "prismfree":
            check_prism_witness(edges, witness)
        else:
            check_core_witness(edges, witness, 9)
    for name in passed:
        certify_pass(name, n, edges)


def check_detect(argv, code, stdout: bytes, inputs: dict[str, bytes]) -> None:
    """detect: a found witness is re-checked; a miss is confirmed for grids."""
    require(code == 0, f"exit code {code}")
    (result,) = _lines(stdout)
    infile = argv[argv.index("--in") + 1]
    find = argv[argv.index("--find") + 1]
    _manifest(result, "detect", inputs=[infile])
    require(result["find"] == find, "find differs from --find")
    n, edges = read_hg3(_text(inputs, infile))
    if not result["found"]:
        require(result["witness"] is None, "witness given but found is false")
        certify_pass("gridfree" if find == "grid" else find, n, edges)
    elif find == "grid":
        check_grid_witness(edges, result["witness"])
    elif find == "prism":
        check_prism_witness(edges, result["witness"])
    else:
        max_v = int(argv[argv.index("--max-vertices") + 1]) if "--max-vertices" in argv else 9
        check_core_witness(edges, result["witness"], max_v)


def check_lemma(argv, code, stdout: bytes) -> None:
    """lemma: one record per N; the expectation is (2kN - k^2 - k)/4 and the
    best coverage found reaches the bound ceil of that."""
    require(code == 0, f"exit code {code}")
    head, *records = _lines(stdout)
    lo, hi = map(int, argv[argv.index("--N") + 1].split(".."))
    seed = int(argv[argv.index("--seed") + 1])
    _manifest(head, "lemma", seed=seed)
    require([r["N"] for r in records] == list(range(lo, hi + 1)), "records do not cover N")
    for r in records:
        N = r["N"]
        k = N // 2
        v = 2 * k * N - k * k - k
        bound = -(-v // 4)
        require(r["k"] == k and r["pair_count"] == comb(N, 2), f"k or pair count wrong at N={N}")
        require(Fraction(r["expectation"]) == Fraction(v, 4), f"expectation wrong at N={N}")
        require(r["bound"] == bound and r["delta_ok"] is True, f"bound wrong at N={N}")
        if N % 4 not in (0, 1):
            require(r["h_size"] is None and r["best_coverage"] is None, f"family at N={N}")
            continue
        require(r["h_size"] == comb(N, 2) // 2, f"family size wrong at N={N}")
        if N <= LEMMA_EXHAUSTIVE_N:
            best = r["best_subset"]
            require(r["best_coverage"] >= bound, f"best coverage below bound at N={N}")
            require(len(best) == k and best == sorted(set(best)) and
                    all(0 <= x < N for x in best), f"best subset malformed at N={N}")


def check_pascal(argv, code, stdout: bytes) -> None:
    """pascal: every sampled hexagon was collinear."""
    require(code == 0, f"exit code {code}")
    (result,) = _lines(stdout)
    seed = int(argv[argv.index("--seed") + 1])
    _manifest(result, "pascal", seed=seed)
    require(result["all_collinear"] is True and result["failures"] == [], "a hexagon failed")
    require(result["samples"] == int(argv[argv.index("--samples") + 1]), "sample count differs")
