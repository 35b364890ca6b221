#!/usr/bin/env python3
"""End-to-end layered benchmark: builds bench/e2e, runs its workloads, checks
the results and reports every metric by name with its unit.

One workload, one pass (the last line of stdout is the result object):
  python3 bench/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

The whole suite: every workload in its own process, the end-to-end pass
then the traced pass, the checks that span processes, a report, and a JSON
record (default build-e2e/e2e-results.json):
  bench/e2e/run.sh [--seed S] [--sets N] [--smoke] [--seconds T] [--out F]

Exits non-zero when the build fails, a run fails a check, or any evaluation
failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The threaded workload must reproduce its serial twin's results bit for bit.
SERIAL_TWIN = {"carbon-n500m30-t3": "carbon-n500m30"}
SKIPPED = 3  # carbon_e2e's exit code for a workload this host cannot run
# A pass may run past --seconds by this much: the panel's minimum passes
# always complete.
OVERRUN_S = 140


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "carbon_e2e",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: building carbon_e2e failed")
    return BUILD / "carbon_e2e"


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_bench(binary, workload, seed, seconds, trace, smoke):
    """Runs one pass of one workload; returns (exit code, result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + OVERRUN_S)
    except subprocess.TimeoutExpired:
        return None, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def single_mode(args):
    code, res = run_bench(build(), args.workload, args.seed, args.seconds,
                          args.trace, smoke=False)
    if res is None or code not in (0, 1):
        reason = res.get("skipped", "") if res else ""
        sys.exit(f"run.py: carbon_e2e failed (exit {code}) {reason}")
    listed = [m["name"] for m in SPEC["per_layer" if args.trace else
                                      "end_to_end"]]
    if res["correct"] and list(res["metrics"]) != listed:
        sys.exit("run.py: carbon_e2e's metrics differ from BENCHMARK.json's")
    print(json.dumps({"provenance": dict(res["provenance"],
                                         git=git_describe())}))
    print(json.dumps({k: res[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


# ---- suite mode -----------------------------------------------------------

def per_run(sample, metric):
    if metric == "evals_per_s":
        return (sample["ul_evals"] + sample["ll_evals"]) / sample["run_s"]
    return sample[metric]


def by_seed(res, value=lambda r: r["run_s"], pick=min):
    """A per-run value for each panel input, picked over its repeats: by
    default the fastest run_s, as the run_s metric takes it."""
    samples = {}
    for r in res["runs"]:
        samples.setdefault(r["seed"], []).append(value(r))
    return {seed: pick(v) for seed, v in samples.items()}


def mean_ratio(num, den):
    """Mean over the panel runs both hold of num / den."""
    common = sorted(set(num) & set(den))
    return sum(num[s] / den[s] for s in common) / len(common), common


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def fingerprints(res):
    return {r["seed"]: r["fingerprint"] for r in res["runs"]}


def cross_checks(results, prefix):
    """The run checks of every process, plus those that need more than one:
    traced twin, serial twin, error rate. Returns (name, passed, detail)."""
    checks = []
    for w, passes in results.items():
        if passes is None:
            continue
        e2e, traced = passes
        for label, res in (("end-to-end", e2e), ("traced", traced)):
            failures = [f for r in res["runs"] for f in r["failures"]]
            checks.append((f"{prefix}{w} {label}: outside checks",
                           res["correct"], "; ".join(sorted(set(failures)))))
        checks.append((f"{prefix}{w}: traced results equal end-to-end",
                       fingerprints(e2e) == fingerprints(traced), ""))
        failed = e2e["failed"] + traced["failed"]
        checks.append((f"{prefix}{w}: error_rate is 0", failed == 0,
                       f"{failed} failed evaluations"))
    for w, twin in SERIAL_TWIN.items():
        if results.get(w) is None or results.get(twin) is None:
            continue
        mine = fingerprints(results[w][0])
        theirs = fingerprints(results[twin][0])
        common = sorted(set(mine) & set(theirs))
        checks.append((f"{prefix}{w} equals {twin} per seed",
                       bool(common) and all(mine[s] == theirs[s]
                                            for s in common),
                       f"seeds {common}"))
    return checks


def noise_band(sets, w, metric, value):
    """The metric's run-to-run band in each set: every per-run sample divided
    by the median of its input over all sets, quartiles scaled to the set's
    value. Returns [(q1, q3, n)] per set."""
    by_input = {}
    for results in sets:
        for r in results[w][0]["runs"]:
            by_input.setdefault(r["seed"], []).append(per_run(r, metric))
    center = {s: statistics.median(v) for s, v in by_input.items()}
    bands = []
    for results, v in zip(sets, value):
        rel = [per_run(r, metric) / center[r["seed"]]
               for r in results[w][0]["runs"]]
        q1, q2, q3 = quartiles(rel)
        bands.append((v * q1 / q2, v * q3 / q2, len(rel)))
    return bands


def repeatability(sets):
    rows = []
    for w in WORKLOADS:
        if any(results[w] is None for results in sets):
            continue
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [results[w][0]["metrics"][name]["value"]
                      for results in sets]
            if name == "peak_rss_mb":
                bands = [(v, v, 1) for v in values]
            else:
                bands = noise_band(sets, w, name, values)
            spread = max((q3 - q1) / v for (q1, q3, _), v in
                         zip(bands, values))
            diff = abs(values[-1] - values[0]) / values[0]
            verdict = ("agree within bound" if diff <= bound and
                       spread <= bound else "unresolved")
            rows.append({"workload": w, "metric": name, "bound": bound,
                         "values": values, "bands": bands, "diff": diff,
                         "verdict": verdict})
    return rows


def fmt(v):
    return f"{v:.6g}"


def print_report(results, checks, hardware_threads):
    for w in WORKLOADS:
        passes = results.get(w)
        print(f"\n== {w}")
        if passes is None:
            print("   skipped: needs 4 hardware threads")
            continue
        e2e, traced = passes
        print(f"   {len(e2e['runs'])} runs, panel seeds "
              f"{sorted(fingerprints(e2e))}")
        for name, m in e2e["metrics"].items():
            line = f"   {name:24} {fmt(m['value']):>12} {m['unit']:8}"
            if name != "peak_rss_mb":
                q1, q2, q3 = quartiles([per_run(r, name)
                                        for r in e2e["runs"]])
                line += (f" per run: median {fmt(q2)} q1 {fmt(q1)} "
                         f"q3 {fmt(q3)} n {len(e2e['runs'])}")
            print(line)
        rate = e2e["failed"] / e2e["attempted"]
        print(f"   {'error_rate':24} {fmt(rate):>12} {'ratio':8} "
              f"({e2e['failed']} of {e2e['attempted']} evaluations)")
        print("   layers (traced pass):")
        for name, m in traced["metrics"].items():
            print(f"   {name:24} {fmt(m['value']):>12} {m['unit']}")
        overhead, _ = mean_ratio(by_seed(traced), by_seed(e2e))
        overhead -= 1
        print(f"   {'trace.overhead_frac':24} {fmt(overhead):>12} ratio")
        if not traced["correct"]:
            continue  # a failed traced pass reports no layers
        # Set-up + layer self times + residual = wall.
        median = statistics.median
        wall = statistics.mean(
            by_seed(traced, lambda r: r["wall_s"], median).values())
        setup = statistics.mean(
            by_seed(traced, lambda r: r["setup_s"], median).values())
        residual = traced["metrics"]["residual_s"]["value"]
        print(f"   traced wall {fmt(wall)} s = set-up {setup / wall:.2%} + "
              f"layers {(wall - setup - residual) / wall:.2%} + residual "
              f"{residual / wall:.2%}")
    if hardware_threads >= 4:
        for w, twin in SERIAL_TWIN.items():
            if results.get(w) is None or results.get(twin) is None:
                continue
            speedup, common = mean_ratio(by_seed(results[twin][0]),
                                         by_seed(results[w][0]))
            print(f"\nscaling: {twin} / {w} run_s on seeds {common}: "
                  f"{speedup:.2f}x")
    print("\nchecks:")
    for name, passed, detail in checks:
        print(f"   {'PASS' if passed else 'FAIL'}  {name}"
              + (f"  ({detail})" if detail and not passed else ""))


def suite_mode(args):
    binary = Path(args.bin) if args.bin else build()
    sets = []
    provenance = None
    for s in range(args.sets):
        # Alternate the workload order so drift does not favour one side.
        order = WORKLOADS if s % 2 == 0 else WORKLOADS[::-1]
        results = {}
        for w in order:
            passes = []
            for trace in (0, 1):
                code, res = run_bench(binary, w, args.seed, args.seconds,
                                      trace, args.smoke)
                if code == SKIPPED:
                    passes = None
                    break
                if res is None or "runs" not in res:
                    sys.exit(f"run.py: {w} trace {trace} failed (exit {code})")
                provenance = res["provenance"]
                passes.append(res)
            results[w] = passes
        sets.append({w: results[w] for w in WORKLOADS})
        print(f"set {s + 1} of {args.sets} done", file=sys.stderr)

    provenance = dict(provenance, git=git_describe())
    print("provenance: " + json.dumps(provenance))
    checks = [c for i, results in enumerate(sets)
              for c in cross_checks(results, f"set {i + 1}: ")]
    print_report(sets[-1], checks, provenance["hardware_threads"])
    rows = repeatability(sets) if len(sets) > 1 else []
    if rows:
        print("\nrepeatability (value [q1, q3] n per set):")
        for r in rows:
            cells = "  ".join(f"{fmt(v)} [{fmt(q1)}, {fmt(q3)}] {n}" for v,
                              (q1, q3, n) in zip(r["values"], r["bands"]))
            print(f"   {r['workload']:18} {r['metric']:13} {cells}  "
                  f"diff {r['diff']:.3f} bound {r['bound']}: {r['verdict']}")

    out = Path(args.out) if args.out else BUILD / "e2e-results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "provenance": provenance, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "sets": sets,
        "checks": [{"name": n, "passed": p, "detail": d}
                   for n, p, d in checks],
        "repeatability": rows}, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0 if all(p for _, p, _ in checks) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin", help="use this carbon_e2e, do not build")
    parser.add_argument("--out", help="suite JSON record path")
    args = parser.parse_args()
    if args.workload:
        return single_mode(args)
    return suite_mode(args)


if __name__ == "__main__":
    sys.exit(main())
