#!/usr/bin/env python3
"""Regenerates every deterministic committed result and diffs it with results/.

Usage, from the root of a checkout with a built tree:

    python3 scripts/check_results.py --bench-dir build/bench [--keep DIR]
                                     [--only BENCH ...]

Each row of RESULTS names a bench binary, the mode the committed files were
recorded in (environment and arguments) and the files that run writes. The
script runs every bench in a scratch directory and compares each output
with its committed copy in results/: CSVs byte for byte, JSONs byte for
byte after masking the wall-clock fields named in WALL_CLOCK (their values
depend on the machine and the moment, not on the code). Any other
difference fails the check, with a unified diff of the masked text.

results/BENCH_sim_core.json is absent on purpose: every figure in it is a
timing. Exit code 0 when every file matches, 1 otherwise. Stdlib only.
"""

import argparse
import difflib
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (bench binary, extra environment, arguments, files it writes).
RESULTS = (
    ("bench_fig4_smart_vs_conventional", {}, [], ["fig4_m1.csv", "fig4_m4.csv"]),
    ("bench_fig5_binomial_not_optimal", {}, [], ["fig5_plane.csv"]),
    ("bench_fig13_kbinomial_latency", {}, [], ["fig13a.csv", "fig13b.csv"]),
    ("bench_fig14_kbinomial_vs_binomial", {}, [], ["fig14a.csv", "fig14b.csv"]),
    ("bench_theorem_pipeline", {}, [], ["theorem_pipeline.csv"]),
    ("bench_buffer_fcfs_vs_fpfs", {}, [], ["buffer_fcfs_vs_fpfs.csv"]),
    ("bench_ablation_fcfs_fpfs_latency", {}, [],
     ["ablation_fcfs_fpfs_opt.csv", "ablation_fcfs_fpfs_binomial.csv"]),
    ("bench_ablation_ordering", {}, [], ["ablation_ordering.csv"]),
    ("bench_ablation_calibrated_k", {}, [], ["ablation_calibrated_k.csv"]),
    ("bench_ablation_packet_size", {}, [], ["ablation_packet_size.csv"]),
    ("bench_ablation_multipath", {}, [], ["ablation_multipath.csv"]),
    ("bench_ablation_multi_engine", {}, [], ["ablation_multi_engine.csv"]),
    ("bench_multiple_multicast", {}, [], ["multiple_multicast.csv"]),
    ("bench_reliability", {}, [], ["reliability.csv"]),
    ("bench_fault_tolerance", {}, [], ["fault_tolerance.csv", "BENCH_faults.json"]),
    ("bench_collectives", {}, [],
     ["collectives_reduce.csv", "collective_faults.csv",
      "BENCH_collective_faults.json"]),
    ("bench_chaos", {}, [], ["chaos.csv", "BENCH_chaos.json"]),
    ("bench_traffic", {}, [], ["BENCH_traffic.json"]),
    ("bench_streaming_broadcast", {"NIMCAST_QUICK": "1"}, [],
     ["BENCH_streaming.json"]),
    ("bench_scale", {}, ["--quick"], ["BENCH_scale.json", "BENCH_sharded.json"]),
)

# JSON fields whose values are wall-clock or machine facts. Objects under
# these keys are masked whole.
WALL_CLOCK = (
    "git_rev", "wall_ms", "build_ms", "eager_build_ms", "compressed_build_ms",
    "events_per_sec", "machine_probe_events_per_sec", "peak_rss_kb",
    "speedup", "barrier_wall_ns", "eager_barrier_ns", "overlapped_barrier_ns",
    "reduction", "hw_threads", "gate",
)
# Wall-clock entries a file may carry or not, depending on how the bench
# was asked to run: bench_scale writes its perf gate's verdict only with
# --gate-baseline, which CI passes and this check does not.
OPTIONAL = ("gate",)

_SCALAR = r'(?:"[^"]*"|-?[0-9][0-9.eE+-]*|true|false|null)'


def _object_end(text, start):
    """Index just past the JSON object opening at text[start] == '{'."""
    depth = 0
    in_string = False
    i = start
    while i < len(text):
        ch = text[i]
        if in_string:
            if ch == "\\":
                i += 1
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(text)


def mask(text):
    """The JSON text with every WALL_CLOCK value replaced by '*'."""
    for key in WALL_CLOCK:
        pattern = re.compile(r'"%s":\s*' % re.escape(key))
        out = []
        pos = 0
        for m in pattern.finditer(text):
            if m.start() < pos:
                continue  # inside a block masked already
            value_at = m.end()
            if text.startswith("{", value_at):
                end = _object_end(text, value_at)
            else:
                scalar = re.compile(_SCALAR).match(text, value_at)
                end = scalar.end() if scalar else value_at
            out.append(text[pos:value_at])
            out.append("*")
            pos = end
        out.append(text[pos:])
        text = "".join(out)
    for key in OPTIONAL:
        text = re.sub(r'(?m)^\s*"%s": \*,?\n' % re.escape(key), "", text)
    return text


def compare(name, produced, committed):
    """List of diff lines; empty when the two files agree."""
    new = produced.read_text()
    old = committed.read_text()
    if name.endswith(".json"):
        new, old = mask(new), mask(old)
    if new == old:
        return []
    return list(difflib.unified_diff(
        old.splitlines(), new.splitlines(),
        f"results/{name}", f"regenerated/{name}", lineterm="", n=0))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", required=True,
                        help="directory holding the built bench binaries")
    parser.add_argument("--keep", help="write the outputs here and keep them")
    parser.add_argument("--only", nargs="*", help="bench binaries to run")
    args = parser.parse_args()

    bench_dir = pathlib.Path(args.bench_dir).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(args.keep).resolve() if args.keep else pathlib.Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        failures = 0
        for bench, env, bench_args, outputs in RESULTS:
            if args.only and bench not in args.only:
                continue
            run_env = dict(os.environ)
            for var in ("NIMCAST_QUICK", "NIMCAST_BENCH_OUT",
                        "NIMCAST_BENCH_SHARDED_OUT"):
                run_env.pop(var, None)
            run_env.update(env)
            # A bench writes its outputs into its working directory.
            proc = subprocess.run([str(bench_dir / bench)] + bench_args,
                                  cwd=work, env=run_env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                print(proc.stdout)
                print(f"FAIL {bench}: exit code {proc.returncode}")
                failures += 1
                continue
            for name in outputs:
                produced = work / name
                if not produced.exists():
                    print(f"FAIL {bench}: wrote no {name}")
                    failures += 1
                    continue
                diff = compare(name, produced, ROOT / "results" / name)
                if diff:
                    print(f"FAIL {name} (from {bench}) differs from results/:")
                    print("\n".join(diff))
                    failures += 1
                else:
                    print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
