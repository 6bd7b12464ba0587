#!/usr/bin/env python3
"""End-to-end benchmark of nimcast: builds perfbench and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library sources under src/ are compiled by perfbench/CMakeLists.txt
into $CARGO_TARGET_DIR (default .bench_build). Each invocation runs one
workload in its own process, so peak_rss_mb belongs to that workload
alone. The last line of standard output is the result as one JSON object.

Besides the checks the binary makes, this script keeps the sim_digest of
every (workload, seed) the current binary has run, in the build directory,
and fails when a later run of the same pair disagrees — traced and
untraced runs included. A rebuilt binary starts a fresh record.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds perfbench; returns the build directory."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def check_digest(out, binary, workload, seed, digest):
    """Records the digest of (workload, seed); False if it disagrees."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()
    path = os.path.join(out, "sim_digests.json")
    record = {"binary": build_id, "digests": {}}
    if os.path.exists(path):
        with open(path) as f:
            stored = json.load(f)
        if stored.get("binary") == build_id:
            record = stored
    key = f"{workload}:{seed}"
    if key in record["digests"]:
        return record["digests"][key] == digest
    record["digests"][key] = digest
    with open(path + ".tmp", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    args = ap.parse_args()

    out = build()
    binary = os.path.join(out, "nimcast_perfbench")
    cmd = [binary,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        sys.exit(f"perfbench: no output (exit code {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines))
        sys.exit(f"perfbench: last line is not a result (exit code {proc.returncode})")

    digest = next((l.split()[1] for l in lines if l.startswith("sim_digest ")), None)
    if digest is None or not check_digest(out, binary, args.workload, args.seed, digest):
        lines.insert(-1, "ERROR sim_digest differs from an earlier run of this "
                         "workload and seed")
        result["correct"] = False
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
