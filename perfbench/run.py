"""qzeta benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload topo-batch --seed 7 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
run draws its inputs from the seed, checks the first default-seed instances
of the workload against ``digests.json``, then runs one operation at a time
for the given seconds and checks every output.  Between operations it times
the import of qzeta in fresh interpreters (``setup_s``).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the run spends half its time untraced and half traced on the
same inputs, and reports the per-layer metrics and the tracing overhead.
The line before it is the full run record (machine, commit, counts,
failures).  Exit status: 0 when every output is correct, 1 on a wrong
output, an unexpected exception or a digest mismatch, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import (
    REF_MS,
    Calls,
    latency_summary,
    reference_ms,
    run_closed_loop,
    self_times,
    time_budget,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

SETUP_IMPORTS = 21  # fresh interpreters per untraced run; the median is reported
BUDGET_S = 20.0  # per-operation time budget; an overrun counts as failed

CALLS = (
    "cyclic.smallify_action",
    "ratfunc.poles",
    "ratfunc.render",
    "ratfunc.residue",
    "resolution.weighted_blowup",
    "resolution.insert_hj_chains",
    "zeta.ztop",
    "zeta.classify_poles",
    "zeta.top_residue",
    "hodge.hodge_zeta",
    "hodge.euler_specialize",
    "hodge.expr_eq",
    "hodge.hodge_residue",
    "engraph.en_analyze",
    "quotient.build_quotient",
    "quotient.exceptional_ramification",
    "quotient.verify_correspondence",
    "quotient.verify_theorem",
    "instances.load_instance",
    "serialize.pole_report_to_json",
)
COUNTERS = (
    ("zeta.terms", "count", "higher"),
    ("zeta.distinct_forms", "count", "higher"),
    ("ratfunc.coeff_bits_max", "bits", "lower"),
    ("hodge.terms", "count", "higher"),
    ("hodge.distinct_factors_max", "count", "lower"),
    ("hodge.strong_checked", "count", "higher"),
    ("hodge.strong_skipped", "count", "lower"),
    ("cyclic.group_order_sum", "count", "higher"),
)
END_TO_END = (
    ("throughput_ips", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def _bucket_label(lo: int, hi: int) -> str:
    return f"{lo}-{hi}" if hi < 10**9 else f"{lo}-up"


def scale_curves(wl) -> list[tuple[str, str, object]]:
    """(metric name, workload, key) of every scaling-curve point."""
    return (
        [(f"scale.bits.{b}.p50_ms", "bigrat-zeta", ("bits", b)) for b in wl.BITS]
        + [
            (f"scale.d.{_bucket_label(*r)}.p50_ms", "quotient-sweep", ("bucket", i))
            for i, r in enumerate(wl.D_BUCKETS)
        ]
        + [
            (f"scale.forms.{_bucket_label(*r)}.p50_ms", "topo-batch", ("forms", r))
            for r in wl.FORM_BUCKETS
        ]
    )


def per_layer_spec(wl) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in CALLS:
        out += [(f"{name}.busy_s", "s", "lower"), (f"{name}.calls", "count", "higher"),
                (f"{name}.failed", "count", "lower")]
    out += list(COUNTERS)
    out += [(name, "ms", "lower") for name, _, _ in scale_curves(wl)]
    out += [
        ("trace.overhead_frac", "fraction", "lower"),
        ("trace.layer_share", "fraction", "higher"),
        ("trace.bench_self_s", "s", "lower"),
    ]
    return out


class SetupSampler:
    """Times ``import qzeta`` in fresh interpreters, spread over a run.

    Called between operations, it starts one interpreter every ``interval_s``
    wall seconds until it has ``count`` imports; ``finish()`` takes any still
    missing.  Each import is rescaled to the reference host speed by the
    kernel timed before and after its interpreter.  Spread over the run, the
    imports see the host in all its states, so one slow stretch does not set
    their median.  A first, unreported import warms the file cache and
    writes the bytecode.
    """

    CODE = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import qzeta; print(time.perf_counter() - t)"
    )

    def __init__(self, count: int, interval_s: float):
        self.count = count
        self.interval = interval_s
        self.scaled: list[float] = []
        self.raw: list[float] = []
        self._import()
        self.scaled.clear()
        self.raw.clear()
        self._next = perf_counter()

    def _import(self) -> None:
        before = reference_ms()
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", self.CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        after = reference_ms()
        self.raw.append(float(done.stdout))
        self.scaled.append(self.raw[-1] * 2 * REF_MS / (before + after))

    def __call__(self) -> None:
        if len(self.raw) < self.count and perf_counter() >= self._next:
            self._import()
            self._next += self.interval

    def finish(self) -> tuple[list[float], list[float]]:
        """Import times rescaled to the reference host speed, and as measured."""
        while len(self.raw) < self.count:
            self._import()
        return self.scaled, self.raw


def machine_record(loadavg) -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "loadavg_start": list(loadavg),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
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
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def canary_digests(wl, workload) -> list[str]:
    """Output digests of the first default-seed instances of a workload."""
    inputs = workload.make_inputs(wl.DEFAULT_SEED, workload.canary, OUT_DIR / "canary" / workload.name)
    digests = []
    for inp in inputs:
        out: list[str] = []
        with time_budget(BUDGET_S):
            workload.op(inp, Calls(False), out)
        digests.append(hashlib.sha256("\n".join(out).encode()).hexdigest())
    return digests


def failure_entries(name, seed, outcomes, limit=50) -> list[dict]:
    bad = [o for o in outcomes if o.error is not None]
    return [
        {"workload": name, "seed": seed, "index": o.index, "kind": o.kind, "error": o.error}
        for o in bad[:limit]
    ]


def throughput(outcomes) -> float:
    """Correct instances per second of library time at reference speed."""
    return sum(o.error is None for o in outcomes) / sum(o.scaled_s for o in outcomes)


def end_to_end(outcomes, elapsed, setup_times) -> tuple[dict, dict]:
    """End-to-end values, plus the wall-clock figures for the run record."""
    scaled = latency_summary([o.scaled_s for o in outcomes])
    wall = latency_summary([o.latency_s for o in outcomes])
    wall["throughput_ips"] = sum(o.error is None for o in outcomes) / elapsed
    wall["library_share"] = sum(o.latency_s for o in outcomes) / sum(o.op_s for o in outcomes)
    values = {
        "throughput_ips": throughput(outcomes),
        "latency_p50_ms": scaled["p50_ms"],
        "latency_tail_ms": scaled["tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    return values, {"scaled": scaled, "wall": wall}


def curve_values(wl, name, outcomes) -> dict:
    """Per-instance p50 latency of each scaling-curve bucket (0 when empty)."""
    out = {}
    for metric, workload, (key, want) in scale_curves(wl):
        if workload != name:
            out[metric] = 0.0
            continue
        if key == "forms":
            lo, hi = want
            sample = [o.scaled_s for o in outcomes if lo <= o.info.get("forms", -1) <= hi]
        else:
            sample = [o.scaled_s for o in outcomes if o.info.get(key) == want]
        out[metric] = statistics.median(sample) * 1e3 if sample else 0.0
    return out


def layer_values(calls) -> dict:
    """Busy time, calls and failures of every timed call, the work counts,
    and the share of instance time the call spans cover.  Call spans never
    nest, so a call's busy time is also its self time; only the instance
    spans have children."""
    selfs = self_times(calls.spans)
    values = {}
    for name in CALLS:
        spans = [s for s in calls.spans if s[3] == name]
        values[f"{name}.busy_s"] = sum(s[5] - s[4] for s in spans)
        values[f"{name}.calls"] = len(spans)
        values[f"{name}.failed"] = sum(1 for s in spans if s[6])
    for name, _, _ in COUNTERS:
        values[name] = calls.counters.get(name, 0)
    instances = [s for s in calls.spans if s[3] == "instance"]
    total = sum(s[5] - s[4] for s in instances)
    bench_self = sum(selfs[s[0]] for s in instances)
    values["trace.layer_share"] = (total - bench_self) / total if total else 0.0
    values["trace.bench_self_s"] = bench_self
    return values


def write_spans(name, seed, calls) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{name}-{seed}.json"
    fields = ("span", "parent", "instance", "name", "start", "end", "failed")
    path.write_text(json.dumps([dict(zip(fields, s)) for s in calls.spans]) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help="record the default-seed canary digests of this workload and exit",
    )
    args = parser.parse_args(argv)

    if not (SRC / "qzeta" / "__init__.py").is_file():
        print(f"error: no qzeta package under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    # the imports are spread over the first four fifths of an untraced run
    interval = 0.8 * args.seconds / SETUP_IMPORTS
    setup = None if args.trace else SetupSampler(SETUP_IMPORTS, interval)
    sys.path.insert(0, str(SRC))
    import qzeta
    import workloads as wl

    if Path(qzeta.__file__).resolve().parent != (SRC / "qzeta").resolve():
        print(f"error: imported qzeta from {qzeta.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload; known: {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = wl.DEFAULT_SEED if args.seed is None else args.seed

    if args.write_digests:
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        digests[workload.name] = canary_digests(wl, workload)
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests[workload.name])} digests for {workload.name}")
        return 0

    # exact outputs must match the recorded default-seed digests
    try:
        expected = json.loads(DIGESTS.read_text())[workload.name]
        got = canary_digests(wl, workload)
        mismatch = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
        if len(got) != len(expected):
            mismatch.append(min(len(got), len(expected)))
    except Exception as exc:  # a check, an exception or a timeout: all wrong outputs
        print(f"error: canary instances failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if mismatch:
        print(
            f"error: outputs differ from digests.json on default-seed instances {mismatch} "
            f"of {workload.name} (seed {wl.DEFAULT_SEED})",
            file=sys.stderr,
        )
        return 1

    inputs = workload.make_inputs(seed, workload.pool, OUT_DIR / "inputs" / f"{workload.name}-{seed}")

    def loop(calls, seconds, between=None):
        return run_closed_loop(
            workload.op, inputs, seconds, calls, BUDGET_S, wl.CheckFailed, between
        )

    if args.trace:
        outcomes, _ = loop(Calls(False), args.seconds / 2)
        traced = Calls(True)
        traced_outcomes, _ = loop(traced, args.seconds / 2)
        spans_path = write_spans(workload.name, seed, traced)
        # both halves start at the same input; compare them on the instances
        # both ran, so that one heavy instance at the end of a half does not
        # pass for tracing overhead
        common = min(len(outcomes), len(traced_outcomes))
        untraced_ips = throughput(outcomes[:common])
        traced_ips = throughput(traced_outcomes[:common])
        values = layer_values(traced)
        values.update(curve_values(wl, workload.name, outcomes))
        values["trace.overhead_frac"] = 1.0 - traced_ips / untraced_ips if untraced_ips else 0.0
        units = {n: u for n, u, _ in per_layer_spec(wl)}
        outcomes += traced_outcomes
    else:
        outcomes, elapsed = loop(Calls(False), args.seconds, setup)
        setup_times, setup_raw = setup.finish()
        spans_path = None
        values, lat = end_to_end(outcomes, elapsed, setup_times)
        units = {n: u for n, u, _ in END_TO_END}

    failures = failure_entries(workload.name, seed, outcomes)
    wrong = [o for o in outcomes if o.kind in ("wrong-output", "exception")]
    failed = sum(1 for o in outcomes if o.error is not None)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(load_start),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "instances": {"attempted": len(outcomes), "failed": failed, "pool": len(inputs)},
        "ops_failed_frac": failed / len(outcomes),
        "failures": failures,
    }
    if args.trace:
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["throughput_ips"] = {
            "untraced": untraced_ips, "traced": traced_ips, "instances": common,
        }
    else:
        record["latency"] = lat
        record["setup_import_s"] = {"scaled": setup_times, "wall": setup_raw}
    print("record: " + json.dumps(record, sort_keys=True))
    for f in failures[:5]:
        print(f"failed: {f['workload']} seed {f['seed']} index {f['index']}: {f['error']}",
              file=sys.stderr)
    correct = not wrong
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
