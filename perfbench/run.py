"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  The workload repeats whole rounds of the same operations for about
S seconds, checks every result against checks.py, and prints {"correct",
"attempted", "failed", "metrics"} as its last line.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 untraced and traced rounds alternate, the metrics are the
per-layer ones, and the spans go to perfbench/out/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# fresh interpreters that repeat the set-up, besides this process's own
SETUP_PROBES = 2
WORKLOADS = ("sweep_x5", "certified_plus_small")


def single_blas_thread():
    """One BLAS thread, set before numpy loads.

    With two on a two-core machine, the idle OpenBLAS worker spins between
    calls: a round of about a hundred small calls took 0.93 s of CPU for
    0.53 s of wall time, against 0.39 s and 0.39 s with one thread, and a
    sweep_x5 round 6.4 s against 5.75 s.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def set_up(name, seed):
    """Import the package and build the workload; returns it and the import time."""
    start = time.perf_counter()
    import spherebound  # noqa: F401
    import_s = time.perf_counter() - start
    import workloads
    return workloads.WORKLOADS[name](seed), import_s


def probe_setup(args):
    """Set-up and import time of a fresh interpreter doing the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True,
                          cwd=ROOT)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["import_s"]


def one_round(workload):
    start = time.perf_counter()
    raw, top_ms = workload.run_round()
    wall = time.perf_counter() - start
    return wall, top_ms, workload.check(raw)


def measure(workload, seconds, trace):
    """Whole rounds for about `seconds`; with trace, pairs of rounds.

    Another round (pair) starts only if, at the mean pace so far, it ends
    within `seconds`; the first always runs.  Returns the untraced rounds
    as (wall_s, top-level latency in ms, outcomes) and the traced ones as
    (wall_s, tracer, outcomes).
    """
    if trace:
        from tracer import Tracer, traced as tracing
    plain, traced = [], []
    spent = 0.0
    while not plain or spent * (len(plain) + 1) / len(plain) <= seconds:
        wall, top_ms, outs = one_round(workload)
        plain.append((wall, top_ms, outs))
        spent += wall
        if trace:
            tr = Tracer()
            with tracing(tr):
                wall, _, outs = one_round(workload)
            traced.append((wall, tr, outs))
            spent += wall
    return plain, traced


def end_to_end(plain, setups, outcomes):
    digits = [o.digits for o in outcomes if o.digits is not None]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall for wall, _, _ in plain),
        "top_level_ms": statistics.median(top for _, top, _ in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "correct_digits": min(digits),
    }


def per_layer(plain, traced, imports):
    from tracer import COUNTS, SELF_TIMES
    rounds = [tr.metrics() for _, tr, _ in traced]
    out = {"setup.import_s": statistics.median(imports)}
    for key in SELF_TIMES:
        out[key] = statistics.median(m[key] for m in rounds)
    for key in COUNTS:
        out[key] = statistics.median_low(m[key] for m in rounds)
    out["trace.overhead_s"] = (statistics.median(w for w, _, _ in traced)
                               - statistics.median(w for w, _, _ in plain))
    return out


def write_spans(name, seed, traced):
    OUT.mkdir(exist_ok=True)
    rounds = [{"wall_s": wall,
               "spans": [{"name": s[0], "parent": s[1], "start": s[2], "duration": s[3]}
                         for s in tr.spans]}
              for wall, tr, _ in traced]
    with open(OUT / f"trace_{name}_seed{seed}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "rounds": rounds}, fh)


def with_units(values, specs):
    units = {spec["name"]: spec["unit"] for spec in specs}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    return {key: {"value": values[key], "unit": units[key]} for key in units}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, then print the set-up and import times")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spherebound" / "__init__.py").is_file():
        print(f"perfbench: no spherebound package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    single_blas_thread()
    sys.path.insert(0, str(SRC))
    workload, import_s = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    plain, traced = measure(workload, args.seconds, args.trace)
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    setups = [setup_s] + [s for s, _ in probes]
    imports = [import_s] + [i for _, i in probes]

    outcomes = [o for _, _, outs in plain + traced for o in outs]
    failed = [o for o in outcomes if o.problems]
    unexpected = [o for o in failed if o.label not in workload.known_failures]
    for o in failed:
        tag = "known fault" if o.label in workload.known_failures else "FAILED"
        print(f"{tag}: {args.workload} {o.label}: {'; '.join(o.problems)}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        write_spans(args.workload, args.seed, traced)
        metrics = with_units(per_layer(plain, traced, imports), spec["per_layer"])
    else:
        metrics = with_units(end_to_end(plain, setups, outcomes), spec["end_to_end"])
    print(json.dumps({"correct": not unexpected, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
