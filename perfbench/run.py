#!/usr/bin/env python3
"""The verdict-pipeline benchmark (see NOTES.md). Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py record-expected
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

A run builds `repro` and the helper in this directory, makes its inputs
from the seed, measures, checks every verdict, and prints a record line
and then the result line. `--trace 0` times the real `repro` entry points
as child processes; `--trace 1` runs the helper's traced per-layer split.
Every record is also appended to perfbench/out/runs.jsonl, which
`compare` reads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

# Sweep workloads: one residue class (seed % shards) of a `repro -e sweep`
# space. `shards` is picked so that every class is a well-mixed sample of
# the space (their tallies differ by under 1%), so seeds are comparable,
# and one class takes 2-5 s. `trace_limit` is how many of its functions
# the traced run checks.
SWEEPS = {
    "arith2": {"domain": "arith", "flags": [], "insts": 2, "shards": 7,
               "trace_limit": 400000},
    "guard3": {"domain": "guard", "flags": ["--guards"], "insts": 3, "shards": 48,
               "trace_limit": 250000},
    "mem4": {"domain": "mem", "flags": ["--mem"], "insts": 4, "shards": 5,
             "trace_limit": 2000},
}
WORKLOADS = [*SWEEPS, "input"]
# Modules of the input workload the traced run checks.
INPUT_TRACE_FILES = 30
# One-function invocations timed for setup_s, after one untimed warm-up.
SETUP_PROBES = 31
# Sweep repetitions per run, however long they take.
MIN_REPS = 3


def slice_of(workload, seed):
    """The residue class a sweep workload checks for this seed."""
    return seed % SWEEPS[workload]["shards"]


def percentile(samples, p):
    """The nearest-rank p-th percentile of samples."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[min(int(rank), len(ordered)) - 1]


def tail_percentile(n, ladder=(50, 90, 99, 99.9)):
    """The highest percentile of the ladder with at least ten of n samples
    beyond it, or None."""
    fit = [p for p in ladder if round(n * (100 - p) / 100, 9) >= 10]
    return fit[-1] if fit else None


def parse_bench_record(text):
    """The `repro -e sweep --bench-json` record, as a dict."""
    record = json.loads(text)
    if record.get("kind") != "bench" or record.get("experiment") != "sweep":
        raise ValueError(f"not a sweep bench record: {text[:80]}")
    return record


def tallies_match(record, expected):
    """The sweep correctness gate: expected tallies, no violation, no
    inconclusive verdict, the whole slice checked."""
    return (all(record[k] == expected[k] for k in ("checked", "changed", "refined"))
            and record["violations"] == 0 and record["inconclusive"] == 0
            and record["complete"] is True)


class Tools:
    """The built binaries and the run's environment stamp."""

    def __init__(self, seed):
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        target = os.path.join(ROOT, target)
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        for manifest, extra in ((os.path.join(ROOT, "Cargo.toml"),
                                 ["-p", "frost-bench", "--bin", "repro"]),
                                (os.path.join(HERE, "Cargo.toml"), [])):
            r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                                "--manifest-path", manifest, *extra],
                               cwd=ROOT, env=env, stdout=sys.stderr)
            if r.returncode != 0:
                sys.exit(r.returncode or 1)
        self.repro = os.path.join(target, "release", "repro")
        self.helper_bin = os.path.join(target, "release", "perfbench")
        self.env = {
            "nproc": len(os.sched_getaffinity(0)),
            # repro's campaign sizes its worker pool to this.
            "workers": self.helper("env")["available_parallelism"],
            "git_rev": git_rev(),
            "rustc": subprocess.run(["rustc", "--version"], capture_output=True,
                                    text=True).stdout.strip(),
            "seed": seed,
        }

    def helper(self, *args):
        out = subprocess.run([self.helper_bin, *map(str, args)], capture_output=True,
                             text=True, cwd=ROOT)
        if out.returncode != 0:
            sys.exit(f"perfbench {args[0]} failed: {out.stderr.strip()}")
        return json.loads(out.stdout.strip().splitlines()[-1])


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                       text=True)
    return r.stdout.strip() or "unknown"


def run_child(argv, stdout_path=None):
    """Runs one checker invocation; wall time from spawn to exit, and the
    child's own CPU time and peak RSS."""
    os.makedirs(OUT, exist_ok=True)
    with open(stdout_path or os.devnull, "wb") as out, \
            open(os.path.join(OUT, "child.err"), "wb") as err:
        start = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, cwd=OUT)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "code": p.returncode}


def probe_setup(argv):
    """Median wall time of one-function invocations, and how many failed."""
    run_child(argv)
    probes = [run_child(argv) for _ in range(SETUP_PROBES)]
    failed = sum(p["code"] != 0 for p in probes)
    return statistics.median([p["wall"] for p in probes]), failed


def latency_metrics(walls):
    return {"verdict_p50_ms": percentile(walls, 50) * 1e3,
            "verdict_p90_ms": percentile(walls, 90) * 1e3}


def run_sweep(tools, workload, seed, seconds):
    w = SWEEPS[workload]
    shard = slice_of(workload, seed)
    expected = load_expected()[workload][str(shard)]
    base = [tools.repro, "-e", "sweep", "--insts", str(w["insts"]), *w["flags"],
            "--shards", str(w["shards"]), "--shard-id", str(shard)]
    setup_s, failed = probe_setup(base + ["--budget", "1"])
    attempted = SETUP_PROBES
    record_path = os.path.join(OUT, "bench.json")
    reps = []
    start = time.perf_counter()
    # Another repetition starts only when one more of the last one's
    # length still fits in `seconds`.
    while len(reps) < MIN_REPS or \
            time.perf_counter() - start + reps[-1]["wall"] <= seconds:
        if os.path.exists(record_path):
            os.remove(record_path)
        r = run_child(base + ["--bench-json", record_path])
        try:
            with open(record_path) as f:
                record = parse_bench_record(f.read())
            r["ok"] = r["code"] == 0 and tallies_match(record, expected)
            r["fn_per_s"] = record["fns_per_sec"]
        except (OSError, ValueError, KeyError):
            r["ok"], r["fn_per_s"] = False, 0.0
        attempted += expected["checked"]
        failed += 0 if r["ok"] else expected["checked"]
        reps.append(r)
    per_fn = 1e6 / expected["checked"]
    metrics = {
        "fn_per_s": statistics.median([r["fn_per_s"] for r in reps]),
        "cpu_us_per_fn": statistics.median([r["cpu"] * per_fn for r in reps]),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median([r["rss_kb"] for r in reps]) / 1024,
        **latency_metrics([r["wall"] for r in reps]),
    }
    samples = {"slice": f"{shard}/{w['shards']}", "functions": expected["checked"],
               "invocations": len(reps), "setup_probes": SETUP_PROBES}
    return attempted, failed, metrics, samples


def run_input(tools, seed, seconds):
    work = os.path.join(OUT, "input")
    manifest = tools.helper("gen-input", "--seed", seed, "--out", work)
    setup_s, failed = probe_setup([tools.repro, "--input",
                                   os.path.join(work, manifest["one"])])
    attempted = SETUP_PROBES
    files = [(os.path.join(work, f["name"]), f["functions"]) for f in manifest["files"]]
    walls, cpu, rss, functions, passes = [], 0.0, 0, 0, 0
    start = time.perf_counter()
    # Whole passes only, so every pass times the same set of modules.
    while passes == 0 or \
            (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for path, n in files:
            r = run_child([tools.repro, "--input", path], path[:-len(".fir")] + ".out")
            walls.append(r["wall"])
            cpu += r["cpu"]
            rss = max(rss, r["rss_kb"])
            functions += n
            failed += n if r["code"] != 0 else 0
        passes += 1
    attempted += functions
    check = tools.helper("check-input", "--dir", work)
    failed += check["failed"]
    for e in check["errors"]:
        print(f"input check: {e}", file=sys.stderr)
    metrics = {
        "fn_per_s": functions / sum(walls),
        "cpu_us_per_fn": cpu / functions * 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": rss / 1024,
        **latency_metrics(walls),
    }
    samples = {"files": len(files), "passes": passes, "latency_samples": len(walls),
               "tail_percentile": tail_percentile(len(walls)),
               "setup_probes": SETUP_PROBES}
    return attempted, failed, metrics, samples


def run_trace(tools, workload, seed):
    if workload == "input":
        t = tools.helper("trace-input", "--seed", seed, "--files", INPUT_TRACE_FILES)
        samples = {"files": INPUT_TRACE_FILES}
    else:
        w = SWEEPS[workload]
        shard = slice_of(workload, seed)
        t = tools.helper("trace-sweep", "--domain", w["domain"], "--insts", w["insts"],
                         "--shards", w["shards"], "--shard-id", shard,
                         "--limit", w["trace_limit"])
        samples = {"slice": f"{shard}/{w['shards']}"}
    failed = t["failed"]
    if t["metrics"]["trace.coverage"] < 0.95:
        print("trace: the layers cover less than 95% of the loop", file=sys.stderr)
        failed = t["attempted"]
    return t["attempted"], failed, t["metrics"], samples


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(args):
    spec = load_spec()
    tools = Tools(args.seed)
    if args.trace:
        attempted, failed, metrics, samples = run_trace(tools, args.workload, args.seed)
    elif args.workload == "input":
        attempted, failed, metrics, samples = run_input(tools, args.seed, args.seconds)
    else:
        attempted, failed, metrics, samples = run_sweep(tools, args.workload, args.seed,
                                                        args.seconds)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    record = {"workload": args.workload, "trace": args.trace, "env": tools.env,
              "samples": samples, "correct": result["correct"],
              "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: metrics[m["name"]] for m in names}}
    with open(os.path.join(OUT, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def record_expected():
    """Sweeps every slice of every sweep workload once and writes the
    tallies the correctness gate expects."""
    tools = Tools(None)
    expected = {}
    record_path = os.path.join(OUT, "bench.json")
    for workload, w in SWEEPS.items():
        expected[workload] = {}
        for shard in range(w["shards"]):
            r = run_child([tools.repro, "-e", "sweep", "--insts", str(w["insts"]),
                           *w["flags"], "--shards", str(w["shards"]),
                           "--shard-id", str(shard), "--bench-json", record_path])
            with open(record_path) as f:
                record = parse_bench_record(f.read())
            if r["code"] != 0 or record["violations"] or record["inconclusive"] \
                    or not record["complete"]:
                sys.exit(f"{workload} slice {shard} is not clean: {record}")
            expected[workload][str(shard)] = {
                k: record[k] for k in ("checked", "changed", "refined")}
            print(workload, shard, expected[workload][str(shard)], file=sys.stderr)
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(old_path, new_path):
    """Median of each end-to-end metric per workload, old against new,
    against the bounds in BENCHMARK.json. Refuses runs whose worker
    counts differ."""
    old, new = load_runs(old_path), load_runs(new_path)
    workers = {r["env"]["workers"] for r in old + new}
    if len(workers) != 1:
        print(f"refusing to compare: worker counts differ ({sorted(workers)})",
              file=sys.stderr)
        return 2
    spec = load_spec()
    print(f"{'workload':8} {'metric':16} {'old':>12} {'new':>12} {'worse by':>9} "
          f"{'bound':>6}")
    regressed = False
    for workload in WORKLOADS:
        sides = [[r["metrics"] for r in runs
                  if r["workload"] == workload and not r["trace"]]
                 for runs in (old, new)]
        if not all(sides):
            continue
        for m in spec["end_to_end"]:
            o, n = (statistics.median([s[m["name"]] for s in side]) for side in sides)
            worse = (n - o) / o if m["better"] == "lower" else (o - n) / o
            flag = " REGRESSED" if worse > m["bound"] else ""
            regressed |= bool(flag)
            print(f"{workload:8} {m['name']:16} {o:12.4f} {n:12.4f} {worse:9.2%} "
                  f"{m['bound']:6.2f}{flag}")
    return 1 if regressed else 0


def main(argv):
    if argv[:1] == ["record-expected"]:
        return record_expected()
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description="verdict-pipeline benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
