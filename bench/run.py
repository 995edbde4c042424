"""ineqlab benchmark: one workload per run, untraced end-to-end metrics or a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload product-sampled --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json, as times at reference speed (see speed.py).  With
--trace 1 every pass of ops runs untraced and then traced, and the metrics are
the per-layer ones.  Every run also writes bench/out/result-*.json; a traced
run writes its spans there too.  See README.md.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402  (this script's directory is first on sys.path)

harness.pin_threads()
import speed  # noqa: E402  (imports numpy, so only after pin_threads)

# samples the machine speed over set-up, from here until the first op is ready
SETUP_SAMPLER = speed.SpeedSampler()
SETUP_SAMPLER.start()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("product-sampled", "product-exact", "subspace-suite", "poly-lp")
SETUP_PROBES = 5        # fresh processes whose set-up time gives setup_s
PROBE_TIMEOUT_S = 60
E2E_UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # wall-clock spawn time of a set-up probe; the probe prints its set-up seconds
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program() -> None:
    """Import ineqlab from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "ineqlab" / "__init__.py").is_file():
        sys.exit(f"bench: no ineqlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ineqlab
    if Path(ineqlab.__file__).resolve().parent != SRC / "ineqlab":
        sys.exit(f"bench: imported ineqlab from {ineqlab.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "thread_cap": harness.THREAD_CAP,
        "thread_vars": {v: os.environ.get(v) for v in harness.THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def probe_setup(args) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh interpreters, from spawn until their first op is ready.

    Returns them at reference speed, as each probe sampled it, and as wall times.
    """
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe", repr(time.time())]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        wall_s, scaled_s = map(float, proc.stdout.split())
        wall.append(wall_s)
        scaled.append(scaled_s)
    return scaled, wall


def pass0(records) -> list:
    """Outcomes of pass 0, whose ops depend only on the seed."""
    return [r.outcome for r in records if r.pass_index == 0]


def rate(records) -> float:
    return len(records) / sum(r.seconds for r in records)


def traced_metrics(workload, root, records, traced, tracer, layers):
    """Per-layer metrics of the traced ops; record fields and report lines."""
    equivalent = [r.outcome for r in records] == [r.outcome for r in traced]
    metrics = layers.per_layer(tracer.spans, traced)
    first = pass0(traced)
    metrics["queries_per_op"] = sum(o.queries for o in first) / len(first)
    metrics["space_bits_max"] = max(o.space_bits for o in first)
    metrics["trace.overhead_ops_per_s"] = rate(records) - rate(traced)
    metrics["trace.overhead_share"] = 1.0 - rate(traced) / rate(records)
    op_s = sum(r.seconds for r in traced) / len(traced)
    checks = {text: bool(test(metrics, op_s))
              for text, test in layers.EXPECTED_PROFILE[workload.name]}

    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"spans-{workload.name}-seed{root.seed}.jsonl"
    tracer.write(span_path)
    record = {"traced_ops": len(traced), "traced_failed": sum(not r.outcome.ok for r in traced),
              "untraced_ops_per_s": rate(records), "traced_ops_per_s": rate(traced),
              "equivalent": equivalent, "traced_op_s_mean": op_s, "expected_profile": checks,
              "spans": str(span_path.relative_to(ROOT))}
    lines = [f"  traced ops reproduce the untraced ones: {'yes' if equivalent else 'NO'}",
             f"  tracing overhead {metrics['trace.overhead_ops_per_s']:.4f} ops/s "
             f"({metrics['trace.overhead_share']:.1%} of {rate(records):.4f})"]
    lines += [f"  expected profile: {text}: {'yes' if ok else 'NO'}" for text, ok in checks.items()]
    return metrics, record, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from ineqlab.core import SeededRng

    import layers
    from workloads import build_workloads, digest, load_reference

    reference = load_reference()
    workload = build_workloads(reference)[args.workload]
    root = SeededRng(args.seed)
    first_pass = workload.make_pass(root, 0)
    sampled_s, setup_speed = SETUP_SAMPLER.stop()
    if args.setup_probe is not None:
        wall = time.time() - args.setup_probe - sampled_s
        print(repr(wall), repr(wall * setup_speed), flush=True)
        return 0
    setup_main = time.perf_counter() - PROCESS_START - sampled_s

    if args.trace:
        tracer = harness.Tracer()
        records, traced = harness.run_paired(workload, root, args.seconds, tracer,
                                             layers.boundaries(), first_pass)
    else:
        records = harness.run_phase(workload, root, args.seconds, workload.min_passes,
                                    first_pass, sampler=speed.SpeedSampler(workload.speed_unit))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [r for r in records if not r.outcome.ok]
    first = pass0(records)
    pass0_digest = digest([row for o in first for row in o.rows])
    frozen = reference["digests"][args.workload].get(str(args.seed))
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_main_s": setup_main,
        "ops": len(records), "failed_ops": len(failed), "error_rate": len(failed) / len(records),
        "failures": [{"op": r.op, "note": r.outcome.note} for r in failed[:5]],
        "pass0_digest": pass0_digest, "pass0_digest_frozen": frozen,
        "pass0_queries_per_op": sum(o.queries for o in first) / len(first),
        "pass0_space_bits_max": max(o.space_bits for o in first),
    }
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    attempted, n_failed, correct = len(records), len(failed), not failed

    if args.trace:
        metrics, record, more = traced_metrics(workload, root, records, traced, tracer, layers)
        result.update(record)
        lines += more
        units = layers.PER_LAYER_UNITS
        attempted += len(traced)
        n_failed += record["traced_failed"]
        correct = correct and record["equivalent"] and not record["traced_failed"]
    else:
        timing = harness.timing_metrics(records, workload.min_passes)
        probes, probes_wall = probe_setup(args)
        metrics = {"ops_per_s": timing["ops_per_s"], "op_s_p50": timing["op_s_p50"],
                   "op_s_tail": timing["op_s_tail"], "setup_s": statistics.median(probes),
                   "peak_rss_mb": peak_rss_mb}
        speeds = [r.speed for r in records]
        result.update({"tail_percentile": timing["tail_percentile"],
                       "tail_samples": timing["samples"], "setup_probes_s": probes,
                       "setup_probes_wall_s": probes_wall,
                       "wall_ops_per_s": timing["wall_ops_per_s"],
                       "speed_min": min(speeds), "speed_median": statistics.median(speeds),
                       "speed_max": max(speeds)})
        units = E2E_UNITS
        lines.append(f"  op_s_tail is p{timing['tail_percentile']:.1f} of the "
                     f"{timing['samples']} ops of the first {workload.min_passes} passes")
        lines.append(f"  machine speed {min(speeds):.2f} to {max(speeds):.2f} of the reference "
                     f"speed, median {statistics.median(speeds):.2f}; wall-clock ops_per_s "
                     f"{timing['wall_ops_per_s']:.4f}, setup_s {statistics.median(probes_wall):.4f}")

    lines.append(f"  error_rate {result['error_rate']:.4f} "
                 f"({len(failed)} of {len(records)} untraced ops failed)")
    lines += [f"  failed op {f['op']}: {f['note'].splitlines()[-1]}" for f in result["failures"]]
    match = ("no frozen digest for this seed" if frozen is None else
             "matches the frozen digest" if pass0_digest == frozen else
             "DIFFERS from the frozen digest")
    lines.append(f"  pass-0 digest {pass0_digest[:16]}... {match}")
    lines.append(f"  pass 0: queries_per_op {result['pass0_queries_per_op']:.1f}, "
                 f"space_bits_max {result['pass0_space_bits_max']}")
    lines += [f"  {name:30s} {value:.6g} {units[name]}" for name, value in metrics.items()]
    result["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print("\n".join(lines))
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:   # an early exit leaves the set-up sampler's timer running
        speed.disarm()
