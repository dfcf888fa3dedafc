"""Spans around the package's public functions, installed from outside.

Each listed function is replaced, in every ``orthoglide`` module that holds a
reference to it, by a wrapper that records a span (name, start, end, parent,
op id).  That is where callers look the function up, so calls between the
package's own modules are traced too.  Spans are kept in flat arrays while the
traced pass runs and are written out afterwards.  ``installed()`` restores
every original attribute when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from array import array

#: Traced library functions, by defining module.
LAYERS = {
    "core": ("leg_residuals", "joint_limits_ok"),
    "inverse": ("ik_branch", "is_serial_singular", "ik_enumerate_feasible", "branch_of"),
    "direct": ("dk_both", "dk_solve", "dk_coefficients", "posture_of"),
    "workspace": ("classify_point", "monte_carlo_volumes"),
    "jointspace": ("boundary_radius", "dk_feasible", "feasibility_product"),
}

#: Functions whose results are counted, for the useful-to-attempted ratios
#: and the Monte-Carlo sample count.
_COUNTERS = {
    "inverse.ik_enumerate_feasible": lambda result, args: len(result),
    "direct.dk_both": lambda result, args: len(result),
    "workspace.monte_carlo_volumes": lambda result, args: result.n_samples,
}

#: Functions whose peak allocation per call is traced.  numpy reports its
#: buffers to tracemalloc, so this covers every array the kernel builds.
_PEAK_BYTES = ("workspace.monte_carlo_volumes",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[str, int] = {}
        self.peak_bytes: dict[str, list[int]] = {}
        self._stack = [-1]
        self._op_id = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self._op_id)
            self.end.append(0)
            stack.append(idx)
            self.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(result, args)
            return result

        return traced

    def traced_peak(self, name: str, fn):
        """``fn`` with tracemalloc running around each call, recording the
        call's peak traced bytes.  Meant to go outside ``wrap`` so that the
        span's time does not include starting and stopping tracemalloc."""

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes.setdefault(name, []).append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def root(self, op_id: int, fn):
        """``fn`` wrapped in the root span of op ``op_id``."""
        self._op_id = op_id
        return self.wrap("op", fn)

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        modules = [m for n, m in sys.modules.items() if n == "orthoglide" or n.startswith("orthoglide.")]
        patches = []

        def patch(fn, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

        for modname, funcs in LAYERS.items():
            module = sys.modules[f"orthoglide.{modname}"]
            for fname in funcs:
                name = f"{modname}.{fname}"
                fn = getattr(module, fname)
                wrapper = self.wrap(name, fn, _COUNTERS.get(name))
                if name in _PEAK_BYTES:
                    wrapper = self.traced_peak(name, wrapper)
                patch(fn, wrapper)

        cli = sys.modules.get("orthoglide.cli")
        if cli is not None:
            for attr in [a for a in vars(cli) if a.startswith("cmd_")] + ["_emit"]:
                name = "cli.emit" if attr == "_emit" else "cli.cmd"
                patch(getattr(cli, attr), self.wrap(name, getattr(cli, attr)))
            build = cli.build_parser
            wrapped_build = self.wrap("cli.build_parser", build)

            def build_parser():
                parser = wrapped_build()
                parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
                return parser

            patch(build, build_parser)
        try:
            yield self
        finally:
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)

    def self_times(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, self ns, inclusive ns); self time is the span's
        duration minus the durations of its direct children."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        agg = {name: [0, 0, 0] for name in self.names}
        for i in range(n):
            a = agg[self.names[self.name[i]]]
            a[0] += 1
            a[1] += dur[i] - child[i]
            a[2] += dur[i]
        return {name: tuple(a) for name, a in agg.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,op,name,start_ns,end_ns,parent\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.op[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]},{self.parent[i]}\n"
                )
