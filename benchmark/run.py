"""spinchain benchmark: one workload per process, through `spinchain.cli.main`.

    python3 benchmark/run.py --workload scan-t1 --seed 7 --seconds 15 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  The line
before it records the environment and the raw timings.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1      # pinned before numpy loads; at most nproc
SETUP_SAMPLES = 5     # this process plus four fresh probe processes

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "realizations_per_s": "1/s",
                    "series_samples_per_s": "1/s", "peak_rss_mib": "MiB"}
SPANNED = (
    "chain.substream", "chain.sample_disorder", "chain.build_hamiltonian",
    "evolve.eigendecompose", "evolve.transfer_amplitude",
    "evolve.fidelity_of_amplitude", "evolve.ensemble_average",
    "evolve.fidelity_series",
    "levelstats.eigvalsh_tridiagonal", "levelstats.collect_spacings",
    "levelstats.spacing_histogram", "levelstats.eta",
    "boxcount.transient_trim", "boxcount.box_count", "boxcount.fit_dimension",
    "perturbation.clean_propagator_table", "perturbation.compute_coefficients",
    "scans.scan_fidelity", "scans.perturbation_comparison", "cli.main",
    "tableio.write_csv",
)
# spans with >= 1,000 calls on some workload get latency percentiles
PERCENTILES = (
    "chain.substream", "chain.sample_disorder", "chain.build_hamiltonian",
    "evolve.eigendecompose", "evolve.transfer_amplitude",
    "evolve.fidelity_of_amplitude", "levelstats.eigvalsh_tridiagonal",
)
COUNTERS = {
    "evolve.eigh_tridiagonal.stev_fallbacks": "count",
    "evolve.fidelity_series.mode_steps": "count",
    "boxcount.fit_dimension.refusals": "count",
    "boxcount.transient_trim.not_reached": "count",
    "perturbation.grid_points": "count",
    "tableio.write_csv.bytes": "bytes",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPANNED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in PERCENTILES:
        units[f"{name}.p50_us"] = "us"
        units[f"{name}.p99_us"] = "us"
    units.update(COUNTERS)
    units["evolve.eigendecompose.stemr_ok_ratio"] = "ratio"
    units["tableio.csv_bytes_identical"] = "bool"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole tables until they have taken this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smoke-size tables (the benchmark's own tests)")
    p.add_argument("--setup-probe", metavar="DIR",
                   help="internal: time one set-up in DIR and print it")
    return p.parse_args(argv)


def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def run_table(workload, seed, out_dir, smoke) -> list:
    """One table: [(cli_seed, csv_path, status)], status ok/refused/error."""
    cli = sys.modules["spinchain.cli"]
    refusal = sys.modules["spinchain.boxcount"].WindowSelectionError
    outcome = []
    for cli_seed, path, argv in workload.calls(seed, out_dir, smoke):
        try:
            cli.main(argv)
            status = "ok"
        except refusal:
            status = "refused"
        except Exception:  # a failing call is counted, the run goes on
            traceback.print_exc()
            status = "error"
        outcome.append((cli_seed, path, status))
    return outcome


def setup(workload, out_dir) -> tuple:
    """Import the CLI and make one warm-up call (smoke size, default seed)."""
    t0 = time.perf_counter()
    import spinchain.cli  # noqa: F401
    outcome = run_table(workload, DEFAULT_SEED, out_dir, smoke=True)
    return time.perf_counter() - t0, outcome


def probe_setup(args, out_dir) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(out_dir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def digest(outcome) -> tuple:
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest() if status == "ok" else status
                 for _, path, status in outcome)


class Ledger:
    """Operations attempted and failed, with the labels of the failures."""

    def __init__(self):
        self.attempted, self.failures = 0, []

    def add(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def calls(self, label, outcome, expected=None) -> tuple:
        """Count each CLI call of a table; returns the table's digest."""
        got = digest(outcome)
        for i, (_, _, status) in enumerate(outcome):
            if status == "error":
                self.add(f"{label} call {i}", False, "raised")
            else:
                self.add(f"{label} call {i}", expected is None or got[i] == expected[i],
                         "CSV bytes differ from the first timed table")
        return got


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "nproc": nproc()}


def layer_metrics(tracers, traced_walls, plain_walls, identical) -> dict:
    from tracer import percentile_us
    stats = [t.layer_stats() for t in tracers]
    first, counters = stats[0], tracers[0].counters
    empty = {"calls": 0, "self_s": 0.0, "durations_s": []}
    out = {}
    for name in SPANNED:
        out[f"{name}.calls"] = first.get(name, empty)["calls"]
        out[f"{name}.self_s"] = statistics.median(s.get(name, empty)["self_s"] for s in stats)
    for name in PERCENTILES:
        pooled = [d for s in stats for d in s.get(name, empty)["durations_s"]]
        out[f"{name}.p50_us"] = percentile_us(pooled, 50)
        out[f"{name}.p99_us"] = percentile_us(pooled, 99)
    for name in COUNTERS:
        out[name] = counters[name]
    decompositions = first.get("evolve.eigendecompose", empty)["calls"]
    out["evolve.eigendecompose.stemr_ok_ratio"] = (
        counters["evolve.eigh_tridiagonal.stemr_ok"] / decompositions if decompositions else 1.0)
    out["tableio.csv_bytes_identical"] = 1 if identical else 0
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return out


def measure(args, workload, out_dir, ledger, between_tables) -> tuple:
    """The timed loop; returns (metrics, units, info, last untraced outcome).

    Tables run until their summed wall time reaches --seconds;
    `between_tables(measured_s)` runs after each one, outside the
    measured time.
    """
    from tracer import Tracer
    realizations, samples = workload.work(args.smoke)
    walls, traced_walls, tracers = [], [], []
    first, identical = None, True
    while not walls or sum(walls) + sum(traced_walls) < args.seconds:
        t = time.perf_counter()
        outcome = run_table(workload, args.seed, out_dir, args.smoke)
        walls.append(time.perf_counter() - t)
        got = ledger.calls("timed table", outcome, first)
        first = first or got
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                t = time.perf_counter()
                traced = run_table(workload, args.seed, out_dir, args.smoke)
                traced_walls.append(time.perf_counter() - t)
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            identical = ledger.calls("traced table", traced, first) == first and identical
        between_tables(sum(walls) + sum(traced_walls))
    # the median and the highest percentile with ten tables beyond it,
    # for reading the spread of a run beside its fastest table
    q = int(100 * (1 - 10 / len(walls))) if len(walls) >= 20 else 50
    info = {"tables": len(walls), "wall_median_s": statistics.median(walls),
            f"wall_p{q}_s": statistics.quantiles(walls, n=100)[q - 1] if len(walls) > 1 else walls[0],
            "walls_s": walls, "traced_walls_s": traced_walls}
    if args.trace:
        metrics = layer_metrics(tracers, traced_walls, walls, identical)
        trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracers[0].dump(trace_file, workload=workload.name, seed=args.seed,
                        trace_overhead_s=metrics["trace.overhead_s"])
        info["trace_file"] = str(trace_file.relative_to(ROOT))
        units = per_layer_units()
    else:
        # the fastest table: on a shared host the slower ones also time
        # other tenants' load, in phases of seconds (see README.md)
        wall = min(walls)
        metrics = {"wall_s": wall, "realizations_per_s": realizations / wall,
                   "series_samples_per_s": samples / wall,
                   "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
    return metrics, units, info, outcome


def check(workload, smoke, seed, outcome, ledger):
    import oracle
    recorded = json.loads((HERE / "reference.json").read_text())[workload.name]
    outputs = [(s, oracle.read_output(p) if status == "ok" else None)
               for s, p, status in outcome]
    size = "smoke" if smoke else "full"
    for label, ok, detail in oracle.check_table(workload, smoke, seed, outputs,
                                                recorded[size], DEFAULT_SEED):
        ledger.add(label, ok, detail)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinchain" / "__init__.py").is_file():
        print(f"benchmark: no spinchain sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(setup(workload, Path(args.setup_probe))[0])
        return 0

    out_dir = OUT / f"{workload.name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        ledger = Ledger()
        setup_s, warm = setup(workload, out_dir / "warm")
        import spinchain
        if not Path(spinchain.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"spinchain imported from {spinchain.__file__}, not {SRC}")
        ledger.calls("warm-up", warm)
        setup_samples = [setup_s]
        pending = [] if args.trace else [out_dir / f"probe{i}"
                                         for i in range(SETUP_SAMPLES - 1)]

        def next_probe(measured_s=None):
            # probes are due at even steps of the measured time, so the
            # samples cover the run and one slow moment does not set the median
            due = args.seconds * (len(setup_samples) - 1) / (SETUP_SAMPLES - 1)
            if pending and (measured_s is None or measured_s >= due):
                setup_samples.append(probe_setup(args, pending.pop(0)))

        metrics, units, info, outcome = measure(args, workload, out_dir / "timed",
                                                ledger, next_probe)
        while pending:
            next_probe()
        if not args.trace:
            metrics["setup_s"] = statistics.median(setup_samples)

        check(workload, True, DEFAULT_SEED, warm, ledger)
        check(workload, args.smoke, args.seed, outcome, ledger)
        info.update(environment=environment(), setup_samples_s=setup_samples,
                    refused_fits=sum(s == "refused" for _, _, s in outcome),
                    failures=ledger.failures)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for failure in ledger.failures:
        print(f"benchmark: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
