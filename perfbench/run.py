"""Run one longrec benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload serve-wide --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``longrec`` from its
``src/``. With ``--trace 0`` it prints the end-to-end metrics, timed
calls scaled to a nominal host speed (see ``bench.host_probe``); with
``--trace 1`` it runs a fixed plan of units (sized so that it takes about
``--seconds`` at the code's speed when the benchmark was made) untraced,
then again with every layer module's public functions wrapped in spans,
checks that both runs give bitwise-identical outputs, and prints the
per-layer metrics. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("serve-wide", "serve-long", "train-planted")
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to a few milliseconds (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy as np
    info = {var: os.environ.get(var) for var in THREAD_VARS}
    info["python"] = platform.python_version()
    info["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["nproc"] = len(os.sched_getaffinity(0))
    return info


def emit(result: dict, details: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    print(json.dumps(result), flush=True)


def same_outputs(a, b) -> bool:
    """Bitwise equality of everything two passes computed."""
    import numpy as np

    def equal(x, y):
        return x is None and y is None or (
            x is not None and y is not None and np.array_equal(x, y))
    return (a.digests == b.digests and a.losses == b.losses
            and len(a.probs) == len(b.probs) and all(map(equal, a.probs, b.probs))
            and len(a.eval_scores) == len(b.eval_scores)
            and all(map(equal, a.eval_scores, b.eval_scores)))


def scaled_total(p) -> float:
    return sum(map(sum, p.scaled.values()))


def run_one(args) -> int:
    import bench
    import spans
    from longrec import tensors as T

    w = bench.workload(args.workload, tiny=args.tiny)
    inputs = bench.make_inputs(w, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    details = {"workload": w.name, "seed": args.seed, "env": environment()}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        units = bench.plan(w, args.seconds) if args.trace else None
        base = bench.Runner(w, inputs, Path(tmp)).run(args.seconds, units)
        failures = list(base.failures)
        attempted, failed = base.attempted, len(base.failed_units)
        if not args.trace:
            metrics = bench.end_to_end(w, base)
        else:
            tracer = spans.Tracer(T.counter)
            tracer.install()
            try:
                with T.count_muladds() as total:
                    traced = bench.Runner(w, inputs, Path(tmp), tracer).run(
                        args.seconds, units)
            finally:
                tracer.uninstall()
            failures += [f"traced {f}" for f in traced.failures]
            summary = tracer.summary()
            integrity = {
                "trace: traced outputs differ from untraced outputs":
                    same_outputs(base, traced),
                f"trace: span MACs {summary['self_macs_total']} != counted "
                f"{total.mul_adds}": summary["self_macs_total"] == total.mul_adds}
            failures += [msg for msg, ok in integrity.items() if not ok]
            attempted += traced.attempted + len(integrity)
            failed += len(traced.failed_units) + list(integrity.values()).count(False)
            metrics = bench.per_layer(summary, tracer.names,
                                      scaled_total(traced) / scaled_total(base))
            tracer.save(str(OUT_DIR / f"{w.name}.spans.npz"))
            details.update(absent_spans=tracer.absent,
                           phase_share=summary["phase_share"],
                           traced_wall_s=traced.wall_s)
    details.update(
        units={phase: base.order.count(phase) for phase in w.shares},
        requests=len(base.probs), candidates=base.n_candidates,
        eval_samples=sum(map(len, base.eval_scores)), fit_samples=w.n_fit,
        untraced_wall_s=base.wall_s,
        wall_clock=bench.timings(w, base, base.wall),
        probe_ms_quartiles=[[round(q * 1e3, 4) for q in statistics.quantiles(
            part, n=4)] for part in zip(*base.probes)],
        param_sha256=sorted(base.digests),
        train_loss=sorted(base.losses), failed_frac=failed / attempted,
        failures=failures[:20])
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    emit({"correct": not failures, "attempted": attempted,
          "failed": failed, "metrics": metrics}, details)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        # A traced run makes two passes; set-up and input generation add
        # about half of the measured time again.
        timeout = 60 + args.seconds * (2 if args.trace else 1) * 2
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    # BLAS reads its thread count when it loads, so this comes before numpy
    # is imported. On a 2-vCPU VM a build_cache at L=2048 took 40 ms with two
    # BLAS threads against 13.7 ms with one, and varied far more.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "longrec" / "__init__.py").is_file():
        print(f"no longrec sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
