#!/usr/bin/env python3
"""The repository benchmark's entry point.

One workload, in the form `BENCHMARK.json`'s `command` takes (from the
repository root):

    python3 perfbench/run.py --workload resynth --seed 1 --seconds 10 --trace 0

builds `perfbench/` (a Cargo package of its own) in release mode, runs the
workload, compares its deterministic counters with every earlier run of the
same source tree (the determinism guard), appends a record with the host
details to `.perfbench/results.jsonl`, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`, which also writes the spans to `.perfbench/`).

Every workload, every metric, one command:

    python3 perfbench/run.py --all [--seed 1] [--seconds 10]

runs each workload untraced on the seed and on the validation seed, then
traced, and prints every metric by name with its unit.

The Rust self-tests: `cargo test --offline --manifest-path perfbench/Cargo.toml`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ["resynth", "choice_map", "serve"]
# A claim made while tuning on one seed must also hold on this one.
VALIDATION_SEED = 2
# Each run must end within 180 s; the child gets a little less.
CHILD_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("build failed")
        return None
    binary = target / "release" / "perfbench"
    return binary if binary.is_file() else None


def source_digest():
    """Digest of the program and benchmark sources: the guard's state is kept
    per digest, so a run of changed code never compares against another
    tree's counters."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml", HERE / "Cargo.lock"]
    for top in (ROOT / "crates", ROOT / "vendor", HERE / "src"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_record(seed):
    def command(*args):
        try:
            out = subprocess.run(args, capture_output=True, text=True, cwd=ROOT, check=False)
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command("rustc", "--version"),
        "commit": command("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "source_digest": source_digest(),
        "seed": seed,
        "validation_seed": VALIDATION_SEED,
    }


def run_binary(binary, workload, seed, seconds, trace, digest):
    """Runs one workload; returns the parsed records, or None if it crashed."""
    STATE.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(STATE / f"trace-{workload}-seed{seed}-{digest}.jsonl")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
        return None
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        log(f"{workload} exited with code {done.returncode}")
        return None
    parsed = {"metrics": {}, "counters": {}, "errors": [], "notes": [], "jobs": None}
    for line in done.stdout.splitlines():
        fields = line.split("\t")
        if fields[0] == "metric" and len(fields) == 4:
            parsed["metrics"][fields[1]] = {"value": float(fields[2]), "unit": fields[3]}
        elif fields[0] == "counter" and len(fields) == 3:
            parsed["counters"][fields[1]] = fields[2]
        elif fields[0] == "error":
            parsed["errors"].append("\t".join(fields[1:]))
        elif fields[0] == "note":
            parsed["notes"].append("\t".join(fields[1:]))
        elif fields[0] == "jobs" and len(fields) == 3:
            parsed["jobs"] = (int(fields[1]), int(fields[2]))
    if parsed["jobs"] is None:
        log(f"{workload} printed no job tally")
        return None
    return parsed


def guard(counters, digest):
    """Compares the deterministic counters with every earlier run of the same
    source tree; returns one error per counter that drifted."""
    path = STATE / f"guard-{digest}.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    errors = []
    for key, value in sorted(counters.items()):
        if key in seen and seen[key] != value:
            # Keys read workload/circuit[/variant]/metric.
            circuit, _, metric = key.rpartition("/")
            errors.append(f"determinism guard: {metric} of {circuit} was {seen[key]}, now {value}")
        seen.setdefault(key, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)
    return errors


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, seed, seconds, trace, record):
    parsed = run_binary(binary, workload, seed, seconds, trace, record["source_digest"])
    if parsed is None:
        return None
    errors = parsed["errors"] + guard(parsed["counters"], record["source_digest"])
    printed = {name: m["unit"] for name, m in parsed["metrics"].items()}
    if printed != declared_metrics(trace):
        errors.append("the metrics printed differ from those BENCHMARK.json declares")
    for e in errors:
        log(f"error: {e}")
    for n in parsed["notes"]:
        log(n)
    attempted, failed = parsed["jobs"]
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": parsed["metrics"],
    }
    with open(STATE / "results.jsonl", "a") as f:
        f.write(json.dumps({"workload": workload, "trace": trace, "seconds": seconds,
                            **record, "seed": seed, **result, "errors": errors}) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")

    binary = build()
    if binary is None:
        return 1
    record = host_record(args.seed)
    print("record: " + json.dumps(record), flush=True)

    if not args.all:
        result = run_one(binary, args.workload, args.seed, args.seconds, args.trace, record)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        return 0

    ok = True
    for workload in WORKLOADS:
        for seed, trace in ((args.seed, 0), (VALIDATION_SEED, 0), (args.seed, 1)):
            result = run_one(binary, workload, seed, args.seconds, trace, record)
            if result is None:
                return 1
            ok &= result["correct"]
            print(f"\n{workload} seed {seed} trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": ok}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
