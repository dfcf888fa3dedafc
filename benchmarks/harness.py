"""Closed-loop measurement of seeded ops, with output capture and checks.

One client runs one op at a time; the next op starts only after the previous
one has returned and its output has been checked.  Only the op itself is
timed; checking happens after its timer stops.

Between ops, at most every ``REFERENCE_EVERY_S``, the pass times a fixed
reference kernel of the benchmark's own.  A shared host runs the same code
up to a third faster or slower for seconds to minutes at a time; the
reference moves with it, and no change to the package can move the
reference.  Each op's time is then also given host-speed adjusted: scaled by
``REFERENCE_NOMINAL_NS`` over the median of the ``READING_WINDOW`` readings
around the op, which is the time the op would take on a host where the
reference takes its nominal time.  A change to the package moves the
adjusted time as much as the raw one.  The kernel is numpy array work: on
this package's pure-Python ops as well as on its Monte-Carlo kernel it
followed the host's speed more closely than pure-Python kernels did.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable


class Mismatch(Exception):
    """An output that disagrees with the benchmark's own expectation."""


@dataclass
class Op:
    """One unit of work with everything needed to run and judge it.

    label:  the op's input, listed when the op fails.
    run:    the timed call; returns the program's output.
    check:  inspects that output after the timer stops; raises on a wrong
            output and otherwise returns the number of items completed.
    probe:  (kind, payload) that lets a fresh interpreter repeat this op.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], int]
    probe: tuple[str, object]


def run_cli(cli, argv):
    """``cli.main(argv)`` in-process with stdout and stderr captured in memory.

    Returns ``(exit_code, stdout, stderr)``; a usage error's SystemExit is
    turned into its code like the console script would.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return (code, out.getvalue(), err.getvalue())


#: Least wall time between two readings in a pass.
REFERENCE_EVERY_S = 0.05
#: Readings whose median adjusts an op: half before it and half after.
READING_WINDOW = 6
#: Kernel calls per reading, of which the median is kept.
REFERENCE_REPS = 3
#: The reference kernel's time on the nominal host.
REFERENCE_NOMINAL_NS = 2_000_000


def reference_kernel(rows: int = 1 << 15) -> int:
    """Fixed numpy work: seeded uniform draws, then elementwise products,
    row sums and masks over arrays of several hundred KB."""
    import numpy as np

    v = np.random.default_rng(2024).uniform(-1.0, 1.0, size=(rows, 3))
    w = v * v
    near = (w.sum(axis=1) < 0.5) | ((w[:, 0] + w[:, 2] < 0.25) & (v[:, 1] > 0.0))
    return int(near.sum())


def reference_ns() -> int:
    """One reading: the median time of ``REFERENCE_REPS`` kernel calls."""
    times = []
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter_ns()
        reference_kernel()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[REFERENCE_REPS // 2]


def fingerprint(output) -> int:
    """Cheap digest used to compare outputs across runs and processes."""
    return zlib.crc32(repr(output).encode())


@dataclass
class PassResult:
    durations_ns: list[int] = field(default_factory=list)
    #: Reference readings, and for each op the index of the last one before it.
    readings_ns: list[int] = field(default_factory=list)
    reading_of: list[int] = field(default_factory=list)
    #: Items each op completed; 0 for a failed or unchecked op.
    items_of: list[int] = field(default_factory=list)
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    fingerprints: list[int] = field(default_factory=list)
    #: stdout plus stderr length of each CLI op, kept with the fingerprints.
    cli_bytes: list[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations_ns)

    @property
    def items(self) -> int:
        return sum(self.items_of)

    @property
    def busy_s(self) -> float:
        return sum(self.durations_ns) / 1e9

    @property
    def adjusted_ns(self) -> list[float]:
        """Each op's duration, host-speed adjusted by the readings around it."""
        r, half = self.readings_ns, READING_WINDOW // 2
        scale = {k: REFERENCE_NOMINAL_NS / statistics.median(r[max(0, k + 1 - half):k + 1 + half])
                 for k in set(self.reading_of)}
        return [d * scale[k] for d, k in zip(self.durations_ns, self.reading_of)]

    @property
    def adjusted_busy_s(self) -> float:
        return sum(self.adjusted_ns) / 1e9

    def round_rates(self, size: int, adjusted: bool = True) -> list[float]:
        """Items per second, host-speed adjusted or raw, of each complete
        round of ``size`` consecutive ops counted from the first op; of all
        ops when there is no complete round."""
        ns = self.adjusted_ns if adjusted else self.durations_ns
        size = min(size, self.attempted)
        return [sum(self.items_of[i:i + size]) * 1e9 / sum(ns[i:i + size])
                for i in range(0, self.attempted - size + 1, size)]


def run_pass(ops, *, seconds=None, count=None, tracer=None, keep=False, check=True,
             read_reference=True) -> PassResult:
    """Run ``ops`` in order, cycling, for ``seconds`` of wall time (checks
    included) or for exactly ``count`` ops.  An op that raises or whose check
    fails is counted as failed; neither stops the pass.  ``check=False``
    skips the checks, and with them the failure and item counts.  The
    reference is read before the first op, between ops as set out in the
    module doc, and after the last op; ``read_reference=False`` skips the
    readings, and with them the adjusted times."""
    res = PassResult()
    deadline = math.inf if seconds is None else time.perf_counter() + seconds
    last_reading = -math.inf
    i = 0
    while (i < count) if count is not None else (time.perf_counter() < deadline):
        if read_reference and time.perf_counter() - last_reading >= REFERENCE_EVERY_S:
            res.readings_ns.append(reference_ns())
            last_reading = time.perf_counter()
        res.reading_of.append(len(res.readings_ns) - 1)
        op = ops[i % len(ops)]
        run = op.run if tracer is None else tracer.root(i, op.run)
        t0 = time.perf_counter_ns()
        try:
            output = run()
        except Exception as exc:  # the op failed; record it and keep going
            output = exc
        res.durations_ns.append(time.perf_counter_ns() - t0)
        if keep:
            res.fingerprints.append(fingerprint(output))
            if op.probe[0] == "cli" and isinstance(output, tuple):
                res.cli_bytes.append(len(output[1].encode()) + len(output[2].encode()))
        items = 0
        if check:
            try:
                if isinstance(output, Exception):
                    raise Mismatch(f"raised {type(output).__name__}: {output}")
                items = op.check(output)
            except Exception as exc:  # a wrong expectation or unparseable output
                res.failures.append((i, op.label, f"{type(exc).__name__}: {exc}"))
        res.items_of.append(items)
        i += 1
    if read_reference:
        res.readings_ns.append(reference_ns())
    return res

