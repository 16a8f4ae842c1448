"""Per-layer tracing from outside the program.

Each listed public function is replaced, in every `gridfree` module that
binds it, by a wrapper that times the call.  `cli`, `construct` and
`charsum` bind functions with `from ... import`, so patching only the
defining module would miss their calls.  Calls are aggregated into
(parent, function) counters rather than kept as spans, because a census
makes one `secant_line` call per pair of squares (70,626 for 5..199).  A function's self time is its
duration minus the time of wrapped calls made inside it.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

TRACED = {
    "cli": ("main",),
    "construct": ("build_base", "build_qr", "build_random"),
    "hypergraph": ("from_edges", "encode", "decode", "is_linear"),
    "detect": ("find_grid", "find_prism", "find_small_two_core"),
    "charsum": ("secant_census", "delta_sum_check", "gauss_sum_check"),
    "geometry": ("secant_line", "line_parabola_intersections", "pascal_collinear"),
    "ffield": ("legendre", "chi_table", "min_sqrt_table"),
    "lemma": ("best_subset", "expected_coverage"),
}


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str | None, str], list] = {}  # -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, time spent in wrapped children]

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _observe(self, name: str, args, result) -> None:
        """Outside-visible work counts, taken from arguments and results."""
        if name.startswith("construct.build_"):
            p = args[0] if isinstance(args[0], int) else args[0].value
            self._count("construct.pairs_swept", p * (p - 1) // 2)
            self._count("construct.edges_emitted", result[0].m)
        elif name == "hypergraph.encode":
            self._count("hypergraph.encode.bytes", len(result))
        elif name == "hypergraph.decode":
            self._count("hypergraph.decode.bytes", len(args[0]))
        elif name.startswith("detect."):
            self._count(f"{name}.found", result is not None)
        elif name == "charsum.secant_census":
            self._count("charsum.primes", 1)

    def wrap(self, name: str, fn):
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += spent
                rec = stats.get((parent, name))
                if rec is None:
                    rec = stats[(parent, name)] = [0, 0.0]
                rec[0] += 1
                rec[1] += spent - frame[1]
            self._observe(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gridfree" or n.startswith("gridfree.")]
        undo = []
        try:
            for mod_name, fns in TRACED.items():
                home = sys.modules[f"gridfree.{mod_name}"]
                for fn_name in fns:
                    name = f"{mod_name}.{fn_name}"
                    if fn_name == "from_edges":
                        cls = home.Hypergraph3
                        original = cls.__dict__["from_edges"]
                        cls.from_edges = classmethod(self.wrap(name, original.__func__))
                        undo.append((cls, "from_edges", original))
                        continue
                    original = getattr(home, fn_name)
                    wrapper = self.wrap(name, original)
                    for mod in modules:
                        if mod.__dict__.get(fn_name) is original:
                            setattr(mod, fn_name, wrapper)
                            undo.append((mod, fn_name, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """calls and self_s per traced function, summed over parents, plus
        the work counts."""
        out: dict[str, float] = {}
        for mod_name, fns in TRACED.items():
            for fn_name in fns:
                out[f"{mod_name}.{fn_name}.calls"] = 0
                out[f"{mod_name}.{fn_name}.self_s"] = 0.0
        for (_, name), (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += self_s
        for name in ("construct.pairs_swept", "construct.edges_emitted",
                     "hypergraph.encode.bytes", "hypergraph.decode.bytes", "charsum.primes",
                     "detect.find_grid.found", "detect.find_prism.found",
                     "detect.find_small_two_core.found"):
            out[name] = self.counts.get(name, 0)
        pairs = out["construct.pairs_swept"]
        out["construct.edges_per_pair"] = out["construct.edges_emitted"] / pairs if pairs else 0.0
        return out

    def by_parent(self) -> dict[str, list]:
        """Per-(function, caller) counters, for reading where time went."""
        return {f"{name}<{parent}": [calls, self_s]
                for (parent, name), (calls, self_s) in sorted(self.stats.items(), key=str)}
