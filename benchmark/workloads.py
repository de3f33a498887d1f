"""The benchmark's workloads: CLI argument lists built from a master seed.

Each workload is one "table": one `spinchain` CLI call whose output
answers one question of the paper.  Its full size is the measured
configuration, sized so that one table takes about a fifth of a second
and a run times many; its smoke size is a smaller version of the command
used for the warm-up call, the benchmark's own tests and the per-run
reference check.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Seed whose outputs are recorded in reference.json.  Every run checks
# its warm-up (smoke-size, this seed) against the record; a run given
# this seed also checks the full-size outputs against it.
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    command: str     # CLI subcommand
    full: dict       # option -> value or tuple of values
    smoke: dict
    why: str = ""

    def options(self, smoke: bool) -> dict:
        return self.smoke if smoke else self.full

    def calls(self, master_seed: int, out_dir: Path, smoke: bool) -> list:
        """[(cli_seed, csv_path, argv)] for one table: the master seed's call."""
        path = Path(out_dir) / f"{self.name}-0.csv"
        argv = [self.command]
        for key, value in self.options(smoke).items():
            argv.append("--" + key.replace("_", "-"))
            values = value if isinstance(value, tuple) else (value,)
            argv.extend(str(v) for v in values)
        argv += ["--seed", str(master_seed), "--out", str(path)]
        return [(master_seed, path, argv)]

    def work(self, smoke: bool) -> tuple:
        """(disorder realizations, per-realization series samples) per table.

        A series sample is one fidelity value on scan-t1 and
        perturbation-n20 (F at t1), one fidelity grid point on
        fractal-n500, and one level spacing on spectrum-eta.
        """
        o = self.options(smoke)
        if self.command == "scan":
            r = len(o["n"]) * len(o["eps_j"]) * o["n_real"]
            return r, r
        if self.command == "eta-scan":
            per_n = len(o["eps_j"]) * o["n_real"]
            return per_n * len(o["n"]), per_n * sum(n - 1 for n in o["n"])
        if self.command == "fractal":
            samples = int(o["t_max"] / o["dt"] + 1e-9) + 1
            return 1, samples
        if self.command == "perturbation":
            r = 2 * 3 * o["n_real"]  # both sectors x the three default eps
            return r, r
        raise ValueError(self.command)


WORKLOADS = {w.name: w for w in (
    Workload(
        "scan-t1", "scan",
        full={"n": (100, 200), "eps_j": (0.02, 0.1, 0.3, 1.0), "n_real": 10},
        smoke={"n": (10, 20), "eps_j": (0.02, 1.0), "n_real": 5},
        why="80 realizations on the eigensolve-with-vectors path at t1; stemr "
            "is over 95% of each and eps_j=1 hits the stemr->stev fallback"),
    Workload(
        "fractal-n500", "fractal",
        full={"n": 500, "eps_j": 0.26, "t_max": 1e3, "dt": 0.05},
        smoke={"n": 20, "eps_j": 0.26, "t_max": 200.0, "dt": 0.05},
        why="one 20,001-sample N=500 fidelity series and its box count; the "
            "phase recurrence dominates and eigensolver work barely moves it"),
    Workload(
        "spectrum-eta", "eta-scan",
        full={"n": (100, 200), "eps_j": (0.003, 0.03, 0.3, 1.0), "n_real": 30},
        smoke={"n": (10, 20), "eps_j": (0.003, 1.0), "n_real": 10},
        why="240 realizations on the eigenvalues-only path (sterf) plus spacing "
            "histograms; shows what a scan-t1 gain costs the shared layers"),
    Workload(
        "perturbation-n20", "perturbation",
        full={"n": 20, "n_real": 100, "sector": "both"},
        smoke={"n": 8, "n_real": 20, "sector": "both"},
        why="600 N=20 realizations where per-call Python overhead dominates "
            "each one, plus the only use of the perturbation layer"),
)}
