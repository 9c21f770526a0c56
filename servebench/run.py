#!/usr/bin/env python3
"""Builds and runs the Jigsaw serving benchmark.

One workload per process:

    python3 servebench/run.py --workload serve_sptc --seed 1 --seconds 12 --trace 0

builds servebench/ (Release, into $CARGO_TARGET_DIR or .bench_build under
the checkout root) and runs the benchmark binary; its last line of standard output
is the result JSON. `--trace 1` writes a Chrome trace and a per-layer span
table per workload under --out.

Steadiness mode runs each workload N times, one seed each, and prints
every end-to-end metric's median, quartiles and spread against its bound
in BENCHMARK.json:

    python3 servebench/run.py --steady 10 [--workload NAME] [--seconds 12]

It fails when any run is incorrect, fails an operation, or spreads
beyond a bound, and it refuses a build without NDEBUG.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_sptc", "serve_fallback", "weights_churn"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench-release")


def build():
    """Configures (once) and builds the benchmark binary in Release; returns
    its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "servebench")


def build_info(binary):
    res = subprocess.run([binary, "--info"], capture_output=True, text=True,
                         check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def run_once(binary, workload, seed, seconds, trace, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir]
    res = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}")
    result = json.loads(lines[-1])
    result["steal"] = next((l.split(":")[1].strip() for l in lines
                            if l.startswith("host steal")), "n/a")
    return result


def steady(binary, args):
    info = build_info(binary)
    if not info["ndebug"]:
        sys.stderr.write(f"refusing to measure a {info['build_type']} build "
                         "without NDEBUG\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [args.workload] if args.workload else WORKLOADS
    print(f"steadiness: {args.steady} runs per workload, seeds "
          f"{args.seed}..{args.seed + args.steady - 1}, {args.seconds} s each; "
          f"build {info['build_type']} (NDEBUG), nproc {info['nproc']}, "
          f"workers {info['nproc']}")
    verdict = 0
    for w in workloads:
        results = [run_once(binary, w, args.seed + i, args.seconds, 0,
                            args.out)
                   for i in range(args.steady)]
        for i, r in enumerate(results):
            print(f"  seed {args.seed + i} (host steal {r['steal']}): " +
                  " ".join(f"{k}={v['value']:.5g}"
                           for k, v in r["metrics"].items()))
        correct = all(r["correct"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{w}: correct={correct} failed={failed}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  spread/bound")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            ratio = spread / bound if bound else float("nan")
            flag = "" if ratio <= 1 else "  OVER BOUND"
            if flag:
                verdict = 1
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound else '-':>6}  "
                  f"{ratio:.2f}{flag}")
        if not correct or failed:
            verdict = 1
    return verdict


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="steadiness mode: N runs per workload")
    p.add_argument("--out", default=None,
                   help="directory of trace files (default: under the "
                        "build directory)")
    args = p.parse_args()
    if args.out is None:
        args.out = os.path.join(os.path.dirname(build_dir()),
                                "servebench-out")

    binary = build()
    if binary is None:
        sys.stderr.write("servebench: build failed\n")
        return 1
    if args.steady:
        return steady(binary, args)
    if not args.workload:
        p.error("--workload is required")
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--out", args.out]).returncode


if __name__ == "__main__":
    sys.exit(main())
