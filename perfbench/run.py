#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, compare result sets.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

builds the `vp` library and the benchmark program from source in
.bench_build/ (Release; a build without optimisation is refused), runs the
workload, checks its outputs, writes the full result with a host context
block to .bench_build/results/, and prints the result object as the last
line of standard output. The exit code is 0 only when every output was
correct.

Other modes:

    python3 perfbench/run.py --self-test
        every workload once at tiny size, traced and untraced, checking that
        each metric of BENCHMARK.json appears with its unit; then a run
        against a reference with one statistic perturbed, which must fail.
    python3 perfbench/run.py --compare DIR_A DIR_B
        per workload and end-to-end metric: each side's median, quartiles
        and quartile spread, the pairwise wins of B over A, and a verdict
        (improved, no worse, worse, unresolved) by the BENCHMARK.json
        bounds. Runs are paired by start time; sets whose runs did not
        come in adjacent A/B pairs are marked "not interleaved" and never
        called improved, since host drift between the sets alone could
        make them look so.

DIR is a directory of result files as written to .bench_build/results/.
"""

import argparse
import fcntl
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
RESULTS = os.path.join(BUILD, "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
OPTIMISED = {"Release", "RelWithDebInfo", "MinSizeRel"}
# Workloads the program runs that BENCHMARK.json does not list, because
# they are not steady enough on a shared host to gate a change (see
# README.md); the self-test still runs them.
UNGATED = ["paper"]


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read %s: %s" % (path, error))


def cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Configure once and build; the build log goes to standard error."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no repository sources beside %s; nothing to build" % HERE)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(os.cpu_count() or 1)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            step = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("configure failed", 1)
        step = ["cmake", "--build", BUILD_DIR, "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed", 1)
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type not in OPTIMISED:
        fail("library built as '%s', without optimisation; refusing to "
             "report numbers" % build_type, 3)
    return build_type


def git(*args):
    """Standard output of a git command in ROOT, or None."""
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """Commit id; with uncommitted changes, "-dirty" and the source
    digest; without git, the source digest alone."""
    head = git("rev-parse", "HEAD")
    if head is None:
        return source_digest()
    if git("status", "--porcelain"):
        return head + "-dirty-" + source_digest()
    return head


def source_digest():
    """A digest of the library's sources and the benchmark's own files."""
    digest = hashlib.sha256()
    files = glob.glob(os.path.join(ROOT, "src", "**", "*"), recursive=True)
    files += glob.glob(os.path.join(HERE, "**", "*"), recursive=True)
    for path in sorted(files + [os.path.join(ROOT, "CMakeLists.txt")]):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, reference, tiny):
    work = os.path.join(BUILD, "work-%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    detail_path = os.path.join(work, "detail.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, "--reference", reference,
           "--detail", detail_path]
    if tiny:
        cmd.append("--tiny")
    os.makedirs(work, exist_ok=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = {}
    if os.path.isfile(detail_path):
        with open(detail_path) as f:
            detail = json.load(f)
    spans = detail.get("details", {}).get("spans")
    if spans and os.path.isfile(spans):
        os.makedirs(RESULTS, exist_ok=True)
        kept = os.path.join(RESULTS, "spans-%s-s%d.json" % (workload, seed))
        shutil.move(spans, kept)
        detail["details"]["spans"] = os.path.relpath(kept, ROOT)
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, result, detail


def check_metrics(spec, result, trace):
    """Names of BENCHMARK.json metrics missing or with the wrong unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    bad = []
    for metric in wanted:
        got = metrics.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            bad.append(metric["name"])
    return bad


def run_workload(args):
    spec = load_spec()
    build_type = build()
    context = {
        "commit": source_id(),
        "started": time.time(),
        "nproc": os.cpu_count(),
        "build_type": build_type,
        "loadavg_before": list(os.getloadavg()),
    }
    code, result, detail = run_binary(
        args.workload, args.seed, args.seconds, args.trace == 1,
        os.path.join(HERE, "reference"), False)
    context["loadavg_after"] = list(os.getloadavg())
    context["compiler"] = detail.get("compiler", "unknown")
    if result is None:
        fail("the benchmark program printed no result (exit %d)" % code, 1)
    missing = check_metrics(spec, result, args.trace == 1)
    if missing:
        fail("metrics missing or with the wrong unit: %s" %
             ", ".join(missing), 1)
    # Report exactly the metrics BENCHMARK.json names for this mode.
    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    line = dict(result)
    line["metrics"] = {n: result["metrics"][n] for n in names}
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, "%s-s%d-t%d-%s-%d.json" % (
        args.workload, args.seed, args.trace, stamp, os.getpid()))
    with open(path, "w") as f:
        json.dump({"context": context, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "result": result,
                   "detail": detail}, f, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(line))
    sys.exit(0 if code == 0 and result.get("correct") else 1)


# ---- compare ---------------------------------------------------------

def load_results(directory):
    """{workload: [(start time, metrics)]} of the untraced results in
    directory, in start order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                data = json.load(f)
            except ValueError:
                continue
        if not isinstance(data, dict) or data.get("trace") != 0:
            continue
        metrics = {k: v["value"] for k, v in
                   data["result"]["metrics"].items()}
        started = data.get("context", {}).get("started")
        runs.setdefault(data["workload"], []).append((started, metrics))
    for side in runs.values():
        side.sort(key=lambda r: r[0] if r[0] is not None else -1.0)
    return runs


def interleaved(side_a, side_b):
    """True when, in start order, the runs come in adjacent pairs of one
    A and one B (A B A B, or A B B A to alternate which goes first)."""
    if len(side_a) != len(side_b) or \
            any(t is None for t, _ in side_a + side_b):
        return False
    order = sorted([(t, "A") for t, _ in side_a] +
                   [(t, "B") for t, _ in side_b])
    return all(order[i][1] != order[i + 1][1]
               for i in range(0, len(order), 2))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, a, b, paired):
    """Compare run sets a (parent) and b (change) of one metric, each in
    start order; paired says the runs alternated, so a[i] and b[i] ran
    side by side."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    worse_by = ((med_b - med_a) if lower else (med_a - med_b)) / med_a
    spread_a = (qa[2] - qa[0]) / med_a
    spread_b = (qb[2] - qb[0]) / med_b
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if paired and wins >= 0.9 * len(pairs) and worse_by < 0 and \
            abs(med_b - med_a) > qa[2] - qa[0]:
        word = "improved"
    elif max(spread_a, spread_b) > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "no worse"
    return {"a": qa, "b": qb, "wins": wins, "pairs": len(pairs),
            "worse_by": worse_by, "spread_a": spread_a,
            "spread_b": spread_b, "verdict": word}


def compare(dir_a, dir_b):
    spec = load_spec()
    runs_a, runs_b = load_results(dir_a), load_results(dir_b)
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        side_a = runs_a.get(workload, [])
        side_b = runs_b.get(workload, [])
        if not side_a or not side_b:
            print("%-9s missing runs (A %d, B %d)" %
                  (workload, len(side_a), len(side_b)))
            bad += 1
            continue
        paired = interleaved(side_a, side_b)
        print("%-9s %d A and %d B runs, %s" % (
            workload, len(side_a), len(side_b),
            "interleaved" if paired else
            "not interleaved: no pairing, no 'improved' verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [m[name] for _, m in side_a]
            b = [m[name] for _, m in side_b]
            v = verdict(metric, a, b, paired)
            print("%-9s %-13s A %.4g [%.4g, %.4g]  B %.4g [%.4g, %.4g]  "
                  "B wins %d/%d  worse by %+.1f%%  spread A %.1f%% "
                  "B %.1f%% (bound %.0f%%)  %s" %
                  (workload, name, v["a"][1], v["a"][0], v["a"][2],
                   v["b"][1], v["b"][0], v["b"][2], v["wins"], v["pairs"],
                   100 * v["worse_by"], 100 * v["spread_a"],
                   100 * v["spread_b"], 100 * metric["bound"],
                   v["verdict"]))
            if v["verdict"] in ("worse", "unresolved"):
                bad += 1
    return 1 if bad else 0


# ---- self-test -------------------------------------------------------

def self_test():
    spec = load_spec()
    build()
    reference = os.path.join(HERE, "reference")
    ok = True
    for workload in [w["name"] for w in spec["workloads"]] + UNGATED:
        for trace in (False, True):
            code, result, _ = run_binary(workload, 1, 1, trace, reference,
                                         True)
            problems = []
            if result is None:
                problems.append("no result")
            else:
                problems += ["missing " + n for n in
                             check_metrics(spec, result, trace)]
                if not result.get("correct") or result.get("failed"):
                    problems.append("failed %s of %s" % (
                        result.get("failed"), result.get("attempted")))
            if code != 0:
                problems.append("exit %d" % code)
            print("self-test %-9s trace=%d: %s" % (
                workload, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems

    # Negative case: one reference statistic off by one must fail the run.
    bad_ref = os.path.join(BUILD, "perturbed-reference")
    shutil.rmtree(bad_ref, ignore_errors=True)
    shutil.copytree(reference, bad_ref)
    path = os.path.join(bad_ref, "scale5.txt")
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        fields = line.split()
        if len(fields) > 4 and fields[1] == "pred:fcm3":
            fields[4] = str(int(fields[4]) + 1)      # its `correct` count
            lines[i] = " ".join(fields)
            break
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    code, result, _ = run_binary("paper", 1, 1, False, bad_ref, True)
    shutil.rmtree(bad_ref, ignore_errors=True)
    caught = code != 0 and result is not None and result["failed"] > 0 \
        and not result["correct"]
    print("self-test negative (perturbed fcm3 reference): %s" %
          ("failed the run as intended (failed %d of %d)" %
           (result["failed"], result["attempted"]) if caught
           else "NOT CAUGHT"))
    ok = ok and caught
    print("self-test: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="DIR")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.compare:
        sys.exit(compare(*args.compare))
    if not args.workload:
        parser.error("--workload is required")
    run_workload(args)


if __name__ == "__main__":
    main()
