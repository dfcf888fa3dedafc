"""Benchmark of the orthoglide package: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Workloads and their reasons are in ``workloads.py`` and
``BENCHMARK.json``.  One process and one closed-loop client do all the work;
only the set-up probes start short-lived child interpreters, one at a time.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
Their times are host-speed adjusted, and the raw times are printed next to
them: op times against the reference kernel in ``harness.py``,
read in this process between ops; each set-up probe against a reference
interpreter, started just before it, that imports a fixed set of modules and
runs nothing of the package.
``--trace 1`` runs a fixed number of ops untraced and then again with spans
around each traced function, checks that both runs produced identical
outputs, and reports the per-layer metrics; the spans are written to
``.bench_out/`` in the checkout.  Human-readable lines (provenance, sample
counts, failed ops with their inputs) come first; the last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import fingerprint, run_pass
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 7
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 20
#: The set-up probes' reference: a fresh interpreter importing modules of the
#: kinds the package's start-up loads (pure Python and C extensions), and its
#: wall time on the nominal host.
REFERENCE_PROBE = ["-c", "import argparse, csv, dataclasses, json, numpy"]
REFERENCE_PROBE_NOMINAL_S = 0.15


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def _import_package():
    if not (SRC / "orthoglide" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'orthoglide'}")
    sys.path.insert(0, str(SRC))
    import orthoglide

    if Path(orthoglide.__file__).resolve().parent != SRC / "orthoglide":
        raise SetupError(f"imported orthoglide from {orthoglide.__file__}, not from {SRC}")
    return orthoglide


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------
def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _numpy_version() -> str:
    """numpy's version from its installed metadata's directory name, without
    importing numpy or ``importlib.metadata``: either would add to this
    process's peak RSS."""
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return "not installed"
    site = Path(spec.origin).resolve().parent.parent
    for info in sorted(site.glob("numpy-*.dist-info")):
        return info.name[len("numpy-"):-len(".dist-info")]
    return "unknown"


def provenance() -> dict:
    caches = _cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "git_sha": _git_sha(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------
def _probe_args(kind, payload) -> list[str]:
    """The probe's command-line form of an op (see ``probe.py``)."""
    if kind == "cli":
        return list(payload)

    def vectors(vs):
        return ";".join(",".join(repr(float(c)) for c in v) for v in vs)

    return [repr(payload["L"]), vectors(payload["points"]), vectors(payload["joints"]), vectors(payload["directions"])]


def _import_ms(stderr: str) -> tuple[float, float]:
    """(numpy, package) import times in ms from ``-X importtime`` lines.

    numpy: its cumulative time wherever it was first imported, 0 if never.
    package: the summed cumulative time of the top-level ``orthoglide``
    imports, including what they import eagerly (numpy too, today).
    """
    numpy_us = package_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, name = int(parts[1]), parts[2][1:]
        if name.strip() == "numpy":
            numpy_us = cumulative
        if name.startswith("orthoglide"):
            package_us += cumulative
    return numpy_us / 1e3, package_us / 1e3


def run_probes(op, n: int, importtime: bool = False) -> list[dict]:
    """Start ``n`` fresh interpreters in turn; each imports the package and
    runs ``op``.  Records the wall time from start to the op's output line,
    and the wall time of a reference interpreter (``REFERENCE_PROBE``)
    started just before it.
    With ``importtime`` the interpreters run under ``-X importtime`` and the
    records hold the import times instead of a usable wall time."""
    kind, payload = op.probe
    want = fingerprint(op.run())
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, str(Path(__file__).with_name("probe.py")), str(SRC), kind, *_probe_args(kind, payload)]
    results = []
    for _ in range(n):
        reference_s = None
        if not importtime:
            t0 = time.perf_counter()
            try:
                subprocess.run([sys.executable, *REFERENCE_PROBE], cwd=ROOT, stdout=subprocess.DEVNULL,
                               timeout=PROBE_TIMEOUT_S, check=True)
            except subprocess.SubprocessError as exc:
                raise SetupError(f"reference interpreter failed: {exc}") from exc
            reference_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE if importtime else None,
                                cwd=ROOT, text=True)
        err = ""
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            wall = time.perf_counter() - t0
            if line:
                err = proc.communicate(timeout=PROBE_TIMEOUT_S)[1] or ""
        except subprocess.TimeoutExpired:
            line = ""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pipe in (proc.stdout, proc.stderr):
                if pipe is not None:
                    pipe.close()
        if proc.returncode != 0 or not line:
            raise SetupError(f"set-up probe gave no result (exit {proc.returncode})")
        rec = json.loads(line)
        rec["wall_s"] = wall
        rec["reference_s"] = reference_s
        rec["matches"] = rec["digest"] == want
        rec["numpy_ms"], rec["orthoglide_ms"] = _import_ms(err)
        results.append(rec)
    return results


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_failures(failures, limit=20):
    for i, label, reason in failures[:limit]:
        print(f"FAILED op {i}: {reason}\n    input: {label}")
    if len(failures) > limit:
        print(f"... and {len(failures) - limit} more failed ops")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _warm_up(workload, ops):
    """Run the warm-up ops, first with their checks off and then with them
    on, and return the peak RSS after each; then take every object alive so
    far (the op pool, imported modules) out of the cyclic collector's view,
    so that collections during timing scan only what the ops allocate.

    The warm-up ops hold every template once and read no host-speed
    reference, so the second peak is ``peak_rss_mb``: the program's peak
    with the checks, free of the reference kernel's arrays and of the timed
    pass's bookkeeping.  The first peak shows how much the checks' own
    parsing adds."""
    run_pass(ops, count=workload.warmup, check=False, read_reference=False)
    unchecked = _peak_rss_mb()
    run_pass(ops, count=workload.warmup, read_reference=False)
    checked = _peak_rss_mb()
    gc.collect()
    gc.freeze()
    return unchecked, checked


def _setup_s(probes) -> float:
    """The probes' median wall time, host-speed adjusted: scaled by the
    reference interpreter's nominal time over its median time."""
    wall = statistics.median(p["wall_s"] for p in probes)
    return wall * REFERENCE_PROBE_NOMINAL_S / statistics.median(p["reference_s"] for p in probes)


def end_to_end(workload, ops, seconds):
    probes = run_probes(ops[0], SETUP_PROBES)
    rss_unchecked, rss_checked = _warm_up(workload, ops)
    res = run_pass(ops, seconds=seconds)
    deciles = statistics.quantiles([d / 1e6 for d in res.adjusted_ns], n=10, method="inclusive")
    raw = statistics.quantiles([d / 1e6 for d in res.durations_ns], n=10, method="inclusive")
    n = res.attempted
    failed = len(res.failures)
    metrics = {
        "setup_s": _metric(_setup_s(probes), "s"),
        "op_p50_ms": _metric(deciles[4], "ms"),
        "op_p90_ms": _metric(deciles[8], "ms"),
        "items_per_s": _metric(statistics.median(res.round_rates(workload.round)), "1/s"),
        "peak_rss_mb": _metric(rss_checked, "MB"),
    }
    readings = [r / 1e3 for r in res.readings_ns]
    print(f"ops: {n} attempted, {failed} failed, failed_ratio {failed / n:.6g}; "
          f"{n - int(0.9 * n)} samples above p90; {res.items} items in {res.busy_s:.3f} s busy")
    print(f"reference readings: {len(readings)}, us min {min(readings):.1f} median {statistics.median(readings):.1f} "
          f"max {max(readings):.1f}")
    print(f"raw, not adjusted: op_p50_ms {raw[4]:.6g}, op_p90_ms {raw[8]:.6g}, "
          f"items_per_s {statistics.median(res.round_rates(workload.round, adjusted=False)):.6g}, setup_s {statistics.median(p['wall_s'] for p in probes):.6g}")
    print(f"setup probes: {len(probes)}, wall s: {[round(p['wall_s'], 4) for p in probes]}, "
          f"reference s: {[round(p['reference_s'], 4) for p in probes]}")
    print(f"peak RSS after the warm-up ops: {rss_unchecked:.2f} MB unchecked, then {rss_checked:.2f} MB checked "
          f"(the checks add {rss_checked - rss_unchecked:.2f} MB); {_peak_rss_mb():.2f} MB at the end of the run")
    _report_failures(res.failures)
    probes_ok = all(p["matches"] for p in probes)
    if not probes_ok:
        print("FAILED: a set-up probe's output differs from the in-process op")
    for name, m in metrics.items():
        print(f"{name:14s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':14s} {failed / n:.6g} ratio")
    return metrics, n, failed, probes_ok and failed == 0


def _layer_metrics(tracer, untraced, traced):
    stats = tracer.self_times()

    def stat(name):
        """(calls, self ns, inclusive ns) of one span name."""
        return stats.get(name, (0, 0, 0))

    def per(total, n, scale=1.0):
        return total / n * scale if n else 0.0

    op_ns = stat("op")[2]
    metrics = {}
    for modname, funcs in LAYERS.items():
        for fname in funcs:
            name = f"{modname}.{fname}"
            n, self_ns, _ = stat(name)
            metrics[f"{name}.calls"] = _metric(n, "count")
            metrics[f"{name}.us"] = _metric(per(self_ns, n, 1e-3), "us")
            metrics[f"{name}.share"] = _metric(100.0 * self_ns / op_ns, "%")
    for name, width in (("inverse.ik_enumerate_feasible", 8), ("direct.dk_both", 2)):
        metrics[f"{name}.yield"] = _metric(per(tracer.counts.get(name, 0), width * stat(name)[0]), "ratio")
    mc_ns = stat("workspace.monte_carlo_volumes")[2]
    samples = tracer.counts.get("workspace.monte_carlo_volumes", 0)
    metrics["workspace.monte_carlo_volumes.samples_per_s"] = _metric(per(samples, mc_ns, 1e9), "1/s")
    # Traced by tracemalloc, which numpy reports its buffers to.
    peaks = tracer.peak_bytes.get("workspace.monte_carlo_volumes", [])
    metrics["workspace.monte_carlo_volumes.peak_bytes"] = _metric(per(sum(peaks), len(peaks)), "B")

    n_cli = len(untraced.cli_bytes)
    parse_ns = stat("cli.build_parser")[2] + stat("cli.parse_args")[2]
    metrics["cli.parse_us"] = _metric(per(parse_ns, n_cli, 1e-3), "us")
    metrics["cli.emit_us"] = _metric(per(stat("cli.emit")[2], n_cli, 1e-3), "us")
    metrics["cli.self_us"] = _metric(per(stat("cli.cmd")[1], n_cli, 1e-3), "us")
    metrics["cli.out_bytes"] = _metric(per(sum(untraced.cli_bytes), n_cli), "B")
    metrics["trace.overhead"] = _metric(traced.adjusted_busy_s / untraced.adjusted_busy_s, "ratio")
    return metrics


def traced(workload, ops, seconds, label):
    probes = run_probes(ops[0], IMPORT_PROBES, importtime=True)
    count = max(1, round(workload.trace_rate * seconds))
    _warm_up(workload, ops)
    untraced = run_pass(ops, count=count, keep=True)
    tracer = Tracer()
    with tracer.installed():
        traced_res = run_pass(ops, count=count, tracer=tracer, keep=True)
    metrics = {
        "import.numpy_ms": _metric(statistics.median(p["numpy_ms"] for p in probes), "ms"),
        "import.orthoglide_ms": _metric(statistics.median(p["orthoglide_ms"] for p in probes), "ms"),
    }
    metrics.update(_layer_metrics(tracer, untraced, traced_res))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{label}.csv"
    tracer.write(path)

    same = untraced.fingerprints == traced_res.fingerprints
    failures = untraced.failures + traced_res.failures
    print(f"traced comparison: {count} ops each way, {len(tracer.name)} spans written to {path.relative_to(ROOT)}")
    print(f"traced outputs identical to untraced: {same}")
    _report_failures(failures)
    for name, m in metrics.items():
        print(f"{name:50s} {m['value']:.6g} {m['unit']}")
    ok = same and not failures and all(p["matches"] for p in probes)
    return metrics, 2 * count, len(failures), ok


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        _import_package()
        workload = WORKLOADS[args.workload]
        print("provenance " + json.dumps(provenance()))
        print(f"workload {args.workload}: {workload.why}")
        notes: dict = {}
        ops = workload.make_ops(args.seed, notes)
        if args.trace:
            label = f"{args.workload}-seed{args.seed}"
            metrics, attempted, failed, ok = traced(workload, ops, args.seconds, label)
        else:
            metrics, attempted, failed, ok = end_to_end(workload, ops, args.seconds)
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    for key, value in sorted(notes.items()):
        print(f"note: {key} = {value}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
