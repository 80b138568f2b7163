#!/usr/bin/env python3
"""The repository's benchmark command.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                             [--prod-seed <n>] [--record]

Builds the `perfbench` package from source (into $CARGO_TARGET_DIR, default
`.bench_build` at the repository root), runs the named workload in its own
process, checks the program's outputs and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
measured without profiling; with `--trace 1` they are its per-layer metrics,
from a run that also profiles every simulation step.

The correctness check asserts the workload's accounting identities, that every
pass of the run produced the same simulated outputs (profiled or not), and
that those outputs equal the reference recorded in `perfbench/reference.json`.
`--record` re-records that reference, after checking it against the c512
in-memory row of `results/fig8.txt` and the 650k point of
`results/BENCH_prod.json`.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["oltp-linux-c512", "oltp-dipc-c512", "prod-650k"]
PROD_SEED = 0xD1FC0800
REFERENCE = os.path.join(HERE, "reference.json")


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def say(*a):
    print(*a, flush=True)


def fail(msg, code=1):
    log(f"run.py: {msg}")
    sys.exit(code)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("building perfbench failed")
    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                       "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"no binary at {exe}")
    return exe


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_workload(exe, workload, args, trace):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(trace), "--prod-seed", str(args.prod_seed)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if r.returncode != 0:
        fail(f"{workload}: perfbench exited with {r.returncode}", r.returncode)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: perfbench printed no report")
    return json.loads(lines[-1])


def metric_specs():
    """End-to-end and per-layer metric specs from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return b["end_to_end"], b["per_layer"]


def reference_for(workload, prod_seed):
    """The recorded simulated outputs for this workload, or None when the
    inputs differ from the recorded ones."""
    if workload == "prod-650k" and prod_seed != PROD_SEED:
        return None
    with open(REFERENCE) as f:
        return json.load(f)["workloads"][workload]


def diff(got, want):
    """Differences between two flat maps of simulated outputs, by name."""
    out = []
    for k in sorted(set(got) | set(want)):
        if k not in want:
            out.append(f"{k}: {got[k]!r} has no reference value")
        elif k not in got:
            out.append(f"{k}: missing, reference {want[k]!r}")
        elif got[k] != want[k]:
            out.append(f"{k}: {got[k]!r}, reference {want[k]!r}")
    return out


def invariants(workload, rep):
    """The accounting identities every run must satisfy."""
    s = rep["sim"]
    errs = []
    if not s["ops"] > 0:
        errs.append("no operation completed")
    if rep["attempted"] < 1:
        errs.append("nothing attempted")
    if workload == "prod-650k":
        # offered = admitted + shed_bucket + shed_ring, and
        # admitted = completed + shed_queue + shed_app + failed + in_flight.
        if s["oltp.offered"] != s["oltp.admitted"] + s["oltp.shed_bucket"] + s["oltp.shed_ring"]:
            errs.append("offered != admitted + shed_bucket + shed_ring")
        if s["oltp.in_flight"] < 0:
            errs.append("completed + guest sheds + failed exceed admitted")
        if s["sim.samples"] != s["ops"]:
            errs.append(f"{s['sim.samples']} latency samples for {s['ops']} completions")
        if s["done_frac"] != s["ops"] / s["oltp.offered"]:
            errs.append("done_frac != completed / offered")
    else:
        # Each slot's first completion in the window has no interval to sample.
        if s["sim.samples"] + s["sim.unsampled"] != s["ops"]:
            errs.append(f"{s['sim.samples']} samples + {s['sim.unsampled']} unsampled "
                        f"!= {s['ops']} completions")
    errs += [f"passes disagree: {m}" for m in rep["mismatches"]]
    return errs


def check_and_print(workload, rep, args, trace, specs):
    """Prints the run's provenance, metrics and differences; returns whether
    every check passed."""
    prov = rep["provenance"]
    say(f"== {workload} (trace {trace}) rev {git_rev()} host_cpus {prov['host_cpus']} "
        f"seed {prov['seed']} prod_seed {prov['prod_seed']} passes "
        f"{prov['passes_untraced']}+{prov['passes_traced']} in {prov['measured_s']:.1f} s")
    say(f"   {prov['spec']}")
    def fmt(xs, k=1):
        return " ".join(f"{x * k:.3f}" for x in xs)

    say(f"   unprofiled passes: window s {fmt(rep['window_s'])} (raw {fmt(rep['window_raw_s'])}); "
        f"set-up s {fmt(rep['setup_s'])} (raw {fmt(rep['setup_raw_s'])}); "
        f"calibration ms {fmt(rep['cal_ns'], 1e-6)}")
    errs = invariants(workload, rep)
    ref = reference_for(workload, args.prod_seed)
    if ref is None:
        say("   no recorded reference for this prod seed: identities checked only")
    else:
        errs += [f"differs from reference: {d}" for d in diff(rep["sim"], ref)]
    want = specs[1] if trace else specs[0]
    metrics = rep["metrics"]
    for m in want:
        if m["name"] not in metrics:
            errs.append(f"metric {m['name']} not reported")
        elif metrics[m["name"]]["unit"] != m["unit"]:
            errs.append(f"metric {m['name']} in {metrics[m['name']]['unit']}, not {m['unit']}")
    for m in (specs[0] if not trace else []):
        v = metrics.get(m["name"], {}).get("value")
        if v is not None and (not math.isfinite(v) or v == 0):
            errs.append(f"end-to-end metric {m['name']} is {v}")
    s = rep["sim"]
    n = int(s["sim.samples"])
    for name, v in metrics.items():
        note = ""
        if name == "sim_p50_us":
            note = f"  (p50 of {n} samples)"
        elif name == "sim_tail_us":
            note = (f"  (p{100 * s['sim.tail_quantile']:g} of {n} samples, "
                    f"{int(s['sim.tail_beyond'])} beyond)")
        say(f"   {name:<34} {v['value']:>18.6g} {v['unit']}{note}")
    for e in errs:
        say(f"   CHECK FAILED: {e}")
    return not errs


def fig8_row():
    """Linux and dIPC ops/min of the c512 in-memory row of results/fig8.txt."""
    with open(os.path.join(ROOT, "results", "fig8.txt")) as f:
        text = f.read()
    section = text.split("--- in-memory DB ---", 1)[1]
    for line in section.splitlines():
        cells = line.split()
        if cells and cells[0] == "512":
            return int(cells[1]), int(cells[2])
    fail("no c512 row in results/fig8.txt")


def prod_point():
    with open(os.path.join(ROOT, "results", "BENCH_prod.json")) as f:
        points = json.load(f)["points"]
    return next(p for p in points if p["rate_per_s"] == 650_000)


def record(exe, args):
    """Runs every workload once and writes reference.json, after checking
    the outputs against the committed results of fig8 and prodbench."""
    if args.prod_seed != PROD_SEED:
        fail("the reference is recorded at the default prod seed")
    out = {}
    for w in WORKLOADS:
        rep = run_workload(exe, w, args, 0)
        errs = invariants(w, rep)
        if errs:
            fail(f"{w}: {errs}")
        out[w] = rep["sim"]
    linux, dipc = fig8_row()
    errs = []
    for w, want in [("oltp-linux-c512", linux), ("oltp-dipc-c512", dipc)]:
        got = round(out[w]["ops_per_min"])
        if got != want:
            errs.append(f"{w}: {got} ops/min, results/fig8.txt has {want}")
    p, s = prod_point(), out["prod-650k"]
    pairs = [
        ("oltp.offered", p["offered"], 0), ("oltp.admitted", p["admitted"], 0),
        ("ops", p["completed"], 0), ("oltp.shed_bucket", p["shed"]["bucket"], 0),
        ("oltp.shed_ring", p["shed"]["ring"], 0), ("oltp.shed_queue", p["shed"]["queue"], 0),
        ("oltp.shed_app", p["shed"]["app"], 0), ("oltp.failed", p["failed"], 0),
        ("sim_throughput_per_s", p["throughput_per_s"], 1), ("sim_p50_us", p["p50_us"], 3),
        ("sim_p99_us", p["p99_us"], 3), ("sim_p999_us", p["p999_us"], 3),
        ("sim.samples", p["samples"], 0), ("oltp.cache_hit_frac", p["cache_hit_frac"], 4),
        ("oltp.tenant_touches", p["tenant_touches"], 0), ("done_frac", p["goodput_frac"], 4),
    ]
    for key, want, digits in pairs:
        if round(s[key], digits) != round(want, digits):
            errs.append(f"prod-650k: {key} = {s[key]}, results/BENCH_prod.json has {want}")
    if errs:
        fail("reference disagrees with the committed results:\n  " + "\n  ".join(errs))
    doc = {
        "recorded_at_rev": git_rev(),
        "prod_seed": hex(PROD_SEED),
        "matches": "results/fig8.txt c512 in-memory row; results/BENCH_prod.json 650k point",
        "workloads": out,
    }
    with open(REFERENCE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {REFERENCE}")


def seed_arg(s):
    """A decimal or 0x-prefixed seed, taken modulo 2**64."""
    try:
        v = int(s)
    except ValueError:
        v = int(s, 0)
    return v % 2**64


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=seed_arg, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--prod-seed", type=seed_arg, default=PROD_SEED,
                    help="workload seed of prod-650k's measured window (default prodbench's)")
    ap.add_argument("--record", action="store_true",
                    help="re-record perfbench/reference.json instead of measuring")
    args = ap.parse_args()
    specs = metric_specs()
    exe = build()
    if args.record:
        record(exe, args)
        return
    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in names:
        rep = run_workload(exe, w, args, args.trace)
        correct &= check_and_print(w, rep, args, args.trace, specs)
        attempted += rep["attempted"]
        failed += rep["failed"]
        prefix = "" if len(names) == 1 else f"{w}/"
        metrics.update({prefix + k: v for k, v in rep["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
