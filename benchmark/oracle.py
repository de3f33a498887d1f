"""Output checks for the benchmark, run outside the timed section.

Every workload's outputs are checked three ways:

* invariants on every row (F in [1/2, 1], eta in [0, 1], histogram mass
  1, D in [1, 2], grid order, derived columns consistent);
* independent oracles: dense `numpy.linalg.eigh` / `eigvalsh` and
  `scipy.linalg.expm` of `TridiagonalHamiltonian.dense()` on realizations
  rebuilt through `substream` / `sample_disorder` / `build_hamiltonian`
  with the CLI's stream-key layout, plus an independent box count and a
  finite-difference second-order expansion for the field sector;
* the rows recorded in reference.json at the seed commit, compared
  within the agreement bounds in REFERENCE_TOL (ROADMAP allows a written,
  tested bound in place of byte identity).

Each check is one operation: `check_table` returns a list of
`(label, ok, detail)`; a failed entry feeds the benchmark's failure count.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import scipy.linalg

from spinchain.chain import ChainSpec, build_hamiltonian, sample_disorder, substream
from spinchain.levelstats import collect_spacings, spacing_histogram

T1 = np.pi / 4.0          # first transfer time at J = 1
TRIM_THRESHOLD = 0.55     # boxcount.TRIM_THRESHOLD, restated on purpose
R2_MIN, MIN_RATIO = 0.995, 10.0   # fit_dimension's automatic-window rules

# Agreement bounds against the recorded reference rows:
# column -> (absolute, relative); a value passes if |a - b| <= abs + rel |b|.
# Integer / label columns must match exactly.  Columns derived from
# others (infidelities, ratios) are held by the row invariants instead,
# since 1 - F magnifies a 1e-13 change in F to a relative 1e-5.
REFERENCE_TOL = {
    "fbar": (1e-10, 0.0), "stderr": (1e-12, 1e-6),
    "eta": (1e-9, 0.0),
    "box_length": (0.0, 1e-12), "m": (0.0, 1e-8), "dimension": (1e-8, 0.0),
    "fbar_mc": (1e-10, 0.0), "f_pert": (1e-12, 0.0),
}
EXACT_COLUMNS = {"n_sites", "eps_j", "eps_b", "corr_p", "n_real", "sector", "eps"}
# f_pert depends on N and eps only, so it is checked on every seed.
SEED_FREE_COLUMNS = {"perturbation": ("sector", "eps", "f_pert")}


def read_table(path) -> tuple:
    """(header, rows) of a spinchain CSV, parsed without the library."""
    header, rows = None, []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        row = []
        for c in cells:
            try:
                row.append(float(c))
            except ValueError:
                row.append(c)
        rows.append(row)
    return header, rows


def read_output(path) -> dict:
    """One CLI call's output: header, rows and, for fractal, the fit."""
    header, rows = read_table(path)
    out = {"header": header, "rows": rows}
    sidecar = json.loads(Path(path).with_suffix(".json").read_text())
    if sidecar.get("command") == "fractal":
        out["fit"] = sidecar["fit"]
        out["trimmed_samples"] = sidecar["trimmed_samples"]
        out["transient_reached"] = sidecar["transient_reached"]
    return out


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol[0] + tol[1] * abs(b)


def _fidelity(mod):
    return mod / 3.0 + mod * mod / 6.0 + 0.5


def _dense_stack(spec, seed, key, n_real) -> np.ndarray:
    """Dense Hamiltonians of realizations r = 0..n_real-1 under `key`."""
    hs = np.empty((n_real, spec.n_sites, spec.n_sites))
    for r in range(n_real):
        real = sample_disorder(spec, substream(seed, *key, r))
        hs[r] = build_hamiltonian(spec, real).dense()
    return hs


def _mean_fidelity_oracle(hs):
    """(mean, stderr, |f_N| per realization) at t1 from dense eigh."""
    w, v = np.linalg.eigh(hs)
    f = np.einsum("rm,rm,rm->r", v[:, 0, :], v[:, -1, :], np.exp(-1j * T1 * w))
    fid = _fidelity(np.abs(f))
    return fid.mean(), fid.std(ddof=1) / np.sqrt(fid.size), np.abs(f)


def _expm_amplitude(h) -> float:
    return float(abs(scipy.linalg.expm(-1j * T1 * h)[-1, 0]))


# ---------------------------------------------------------------- scan

SCAN_HEADER = ["n_sites", "eps_j", "eps_b", "corr_p", "fbar", "stderr", "n_real"]


def _check_scan(opts, seed, out, rng):
    checks, rows = [], out["rows"]
    grid = [(n, e) for n in opts["n"] for e in opts["eps_j"]]
    ok = out["header"] == SCAN_HEADER and len(rows) == len(grid)
    checks.append(("scan layout", ok, f"{len(rows)} rows for {len(grid)} cells"))
    for (n, e), row in zip(grid, rows):
        ok = (row[0] == n and row[1] == e and row[2] == 0.0 and row[3] == 0.5
              and row[6] == opts["n_real"] and 0.5 <= row[4] <= 1.0
              and 0.0 <= row[5] < 1.0)
        checks.append((f"scan row N={n} eps_j={e} invariants", ok, str(row)))
    # one whole cell per chain length against dense eigh, keys (seed, ni, ji, r)
    for ni, n in enumerate(opts["n"]):
        ji = rng.randrange(len(opts["eps_j"]))
        row = rows[ni * len(opts["eps_j"]) + ji]
        spec = ChainSpec(n_sites=n, eps_j=opts["eps_j"][ji])
        hs = _dense_stack(spec, seed, (ni, ji), opts["n_real"])
        mean, err, mod = _mean_fidelity_oracle(hs)
        r = rng.randrange(opts["n_real"])
        expm_gap = abs(_expm_amplitude(hs[r]) - mod[r])
        ok = abs(row[4] - mean) <= 1e-10 and abs(row[5] - err) <= 1e-10 and expm_gap <= 1e-9
        checks.append((f"scan cell N={n} eps_j={spec.eps_j} dense oracle", ok,
                       f"fbar {row[4]!r} vs {mean!r}, stderr {row[5]!r} vs {err!r}, "
                       f"expm |f_N| gap {expm_gap:.2e} at r={r}"))
    return checks


# ---------------------------------------------------------------- eta-scan

def _histogram(s, width=0.05, s_max=5.0):
    """Spacing histogram with bins centred on multiples of the width."""
    top = max(s_max, float(s.max()) + width)
    n_centers = int(np.ceil(top / width)) + 1
    edges = np.concatenate(([0.0], (np.arange(n_centers) + 0.5) * width))
    counts, _ = np.histogram(s, bins=edges)
    return edges, counts / (s.size * np.diff(edges))


def _eta_oracle(levels) -> tuple:
    """(eta, histogram mass) from per-realization ascending levels."""
    gaps = np.diff(levels, axis=1)
    s = (gaps / gaps.mean(axis=1, keepdims=True)).ravel()
    edges, density = _histogram(s)
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    inside = centers <= 1.0 + 1e-12
    poisson = np.exp(-centers[inside])
    delta = np.zeros_like(density)
    k = np.searchsorted(edges, 1.0, side="right") - 1
    delta[k] = 1.0 / widths[k]
    num = np.sum(widths[inside] * np.abs(density[inside] - poisson))
    den = np.sum(widths[inside] * np.abs(delta[inside] - poisson))
    return float(num / den), float(np.sum(density * widths)), s


SPACING_SAMPLE = 20   # realizations whose spacings are compared one by one


def _check_eta(opts, seed, out, rng):
    checks, rows = [], out["rows"]
    grid = [(n, e) for n in opts["n"] for e in opts["eps_j"]]
    ok = out["header"] == ["n_sites", "eps_j", "eta"] and len(rows) == len(grid)
    checks.append(("eta layout", ok, f"{len(rows)} rows for {len(grid)} cells"))
    for (n, e), row in zip(grid, rows):
        ok = row[0] == n and row[1] == e and -1e-9 <= row[2] <= 1.0 + 1e-9
        checks.append((f"eta row N={n} eps_j={e} invariants", ok, str(row)))
    # one whole cell against dense eigvalsh, keys (seed, ni, ei, r)
    ni, ei = rng.randrange(len(opts["n"])), rng.randrange(len(opts["eps_j"]))
    spec = ChainSpec(n_sites=opts["n"][ni], eps_j=opts["eps_j"][ei])
    levels = np.linalg.eigvalsh(_dense_stack(spec, seed, (ni, ei), opts["n_real"]))
    value, mass, s = _eta_oracle(levels)
    lib_mass = spacing_histogram(s).mass
    # eta moves only when a spacing changes bins, so also compare the
    # library's spacings of the cell's first realizations directly
    k = min(SPACING_SAMPLE, opts["n_real"])
    lib = collect_spacings(spec, k, seed, key_prefix=(ni, ei)).spacings
    gap = float(np.max(np.abs(lib - s[:lib.size])))
    row = rows[ni * len(opts["eps_j"]) + ei]
    ok = (abs(row[2] - value) <= 1e-9 and abs(mass - 1) <= 1e-12
          and abs(lib_mass - 1) <= 1e-12 and gap <= 1e-9)
    checks.append((f"eta cell N={spec.n_sites} eps_j={spec.eps_j} dense oracle", ok,
                   f"eta {row[2]!r} vs {value!r}, histogram mass {mass!r} / {lib_mass!r}, "
                   f"max spacing gap {gap:.2e} over {k} realizations"))
    return checks


# ---------------------------------------------------------------- fractal

def _series_oracle(h, n_samples, dt, block=512):
    """Fidelity on t_k = k dt from dense eigh, with exact phases.

    exp(-iE (a B + b) dt) = exp(-iE a B dt) exp(-iE b dt): two small
    tables of exactly evaluated phases and one matrix product, so no
    phase recurrence (the library's method) is involved.
    """
    w, v = np.linalg.eigh(h)
    weights = v[0] * v[-1]
    n_blocks = -(-n_samples // block)
    outer = np.exp(np.outer(np.arange(n_blocks) * (block * dt), -1j * w)) * weights
    inner = np.exp(np.outer(np.arange(block) * dt, -1j * w))
    amp = (outer @ inner.T).ravel()[:n_samples]
    return _fidelity(np.minimum(np.abs(amp), 1.0))


def _box_counts(f, lengths, dt):
    """M(L) = sum of window excursions / L, windows [iL, (i+1)L] inclusive."""
    out = []
    for length in lengths:
        n = int(round(length / dt))
        k = (f.size - 1) // n
        body = f[:k * n].reshape(k, n)
        ends = f[n:k * n + 1:n]
        hi = np.maximum(body.max(axis=1), ends)
        lo = np.minimum(body.min(axis=1), ends)
        out.append(float(np.sum(hi - lo) / length))
    return np.array(out)


def _check_fractal(opts, seed, out, rng, index):
    tag = f"fractal series {index} (seed {seed})"
    rows, fit = out["rows"], out["fit"]
    lengths = np.array([r[0] for r in rows])
    m = np.array([r[1] for r in rows])
    d = fit["params"]["dimension"]
    lo, hi = fit["window"]
    ok = (out["header"] == ["box_length", "m"] and len(rows) >= 6
          and np.all(np.diff(lengths) > 0) and np.all(m > 0)
          and 1.0 <= d <= 2.0 and fit["params"]["r_squared"] >= R2_MIN
          and hi / lo >= MIN_RATIO)
    checks = [(f"{tag} invariants", bool(ok),
               f"D={d!r}, window=({lo}, {hi}), R2={fit['params']['r_squared']!r}")]

    dt = opts["dt"]
    n_samples = int(opts["t_max"] / dt + 1e-9) + 1
    spec = ChainSpec(n_sites=opts["n"], eps_j=opts["eps_j"])
    h = build_hamiltonian(spec, sample_disorder(spec, substream(seed, 0))).dense()
    f = _series_oracle(h, n_samples, dt)
    hit = np.flatnonzero(f <= TRIM_THRESHOLD)
    start = int(hit[0]) if hit.size else 0
    m_oracle = _box_counts(f[start:], lengths, dt)
    sel = (lengths >= lo * (1 - 1e-12)) & (lengths <= hi * (1 + 1e-12))
    d_oracle = -np.polyfit(np.log(lengths[sel]), np.log(m_oracle[sel]), 1)[0]
    m_gap = float(np.max(np.abs(m / m_oracle - 1.0)))
    ok = (f.min() >= 0.5 and f.max() <= 1.0 and start == out["trimmed_samples"]
          and bool(hit.size) == out["transient_reached"]
          and m_gap <= 1e-8 and abs(d - d_oracle) <= 1e-8)
    checks.append((f"{tag} dense oracle", bool(ok),
                   f"trim {out['trimmed_samples']} vs {start}, max rel M gap "
                   f"{m_gap:.2e}, D {d!r} vs {d_oracle!r}"))
    return checks


# ---------------------------------------------------------------- perturbation

PERT_HEADER = ["sector", "eps", "fbar_mc", "stderr", "f_pert", "infid_mc",
               "infid_pert", "ratio", "mc_over_sector_sum"]
PERT_EPS = (1e-3, 3e-3, 1e-2)   # the CLI default


def _field_infidelity_oracle(n, h=1e-4) -> float:
    """Exact second-order field-sector infidelity per eps_b^2.

    With b_j i.i.d. uniform on [-eps, eps] (variance eps^2 / 3) entering
    the diagonal as -2 b_j, E[1 - F] = (eps^2 / 6) sum_j d^2(1-F)/db_j^2
    to second order; the second derivatives come from central
    differences of expm propagators.
    """
    k = np.arange(1, n, dtype=float)
    off = 2.0 * np.sqrt(k * (n - k))

    def infidelity(diag):
        u = scipy.linalg.expm(-1j * T1 * (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)))
        return 1.0 - _fidelity(abs(u[-1, 0]))

    base = infidelity(np.zeros(n))
    total = 0.0
    for j in range(n):
        e = np.zeros(n)
        e[j] = 2.0 * h
        total += (infidelity(e) + infidelity(-e) - 2.0 * base) / h ** 2
    return total / 6.0


def _check_perturbation(opts, seed, out, rng):
    checks, rows = [], out["rows"]
    expected = [(s, e) for s in ("j", "b") for e in PERT_EPS]
    ok = out["header"] == PERT_HEADER and len(rows) == len(expected)
    checks.append(("perturbation layout", ok, f"{len(rows)} rows"))
    field_per_eps2 = _field_infidelity_oracle(opts["n"])
    for (sector, eps), row in zip(expected, rows):
        _, _, fbar, err, f_pert, infid_mc, infid_pert, ratio, mc_over = row
        # 1 - f_pert rounds to ~1e-16 / infid relative, hence the 1e-6 below
        ok = (row[0] == sector and row[1] == eps and 0.5 <= fbar <= 1.0
              and err >= 0.0 and f_pert <= 1.0 and infid_mc == 1.0 - fbar
              and infid_pert == 1.0 - f_pert
              and abs(ratio - infid_mc / infid_pert) <= 1e-12 * abs(ratio)
              and abs(mc_over - ratio / 9.0) <= 1e-6 * abs(ratio / 9.0))
        checks.append((f"perturbation row {sector} eps={eps} invariants", ok, str(row)))
        # every Monte-Carlo row against dense eigh, keys (seed, eps index, r)
        spec = ChainSpec(n_sites=opts["n"], **({"eps_j": eps} if sector == "j" else {"eps_b": eps}))
        mean, std_err, _ = _mean_fidelity_oracle(
            _dense_stack(spec, seed, (PERT_EPS.index(eps),), opts["n_real"]))
        ok = abs(fbar - mean) <= 1e-12 and abs(err - std_err) <= 1e-13 + 1e-6 * std_err
        detail = f"fbar_mc {fbar!r} vs {mean!r}, stderr {err!r} vs {std_err!r}"
        if sector == "b":
            pert = field_per_eps2 * eps * eps
            ok = ok and abs(infid_pert / pert - 1.0) <= 1e-4
            detail += f", infid_pert {infid_pert!r} vs expm expansion {pert!r}"
        checks.append((f"perturbation row {sector} eps={eps} dense oracle", ok, detail))
    return checks


CHECKERS = {"scan": _check_scan, "eta-scan": _check_eta,
            "perturbation": _check_perturbation}


def compare_reference(label, got, ref, columns=None) -> list:
    """Row-by-row agreement with a recorded output within REFERENCE_TOL."""
    checks = []
    header = ref["header"]
    if got["header"] != header or len(got["rows"]) != len(ref["rows"]):
        return [(f"{label} reference layout", False,
                 f"{got['header']} x {len(got['rows'])} vs {header} x {len(ref['rows'])}")]
    for i, (a_row, b_row) in enumerate(zip(got["rows"], ref["rows"])):
        bad = []
        for name, a, b in zip(header, a_row, b_row):
            if columns is not None and name not in columns:
                continue
            if name in EXACT_COLUMNS:
                good = a == b
            elif name in REFERENCE_TOL:
                good = _close(a, b, REFERENCE_TOL[name])
            else:
                continue
            if not good:
                bad.append(f"{name} {a!r} vs {b!r}")
        checks.append((f"{label} reference row {i}", not bad, "; ".join(bad)))
    if "dimension" in ref and columns is None:
        d = got["fit"]["params"]["dimension"]
        checks.append((f"{label} reference dimension",
                       _close(d, ref["dimension"], REFERENCE_TOL["dimension"]),
                       f"D {d!r} vs {ref['dimension']!r}"))
    return checks


def check_table(workload, smoke, seed, outputs, recorded, recorded_seed) -> list:
    """All checks for one table.

    outputs: [(cli_seed, parsed output, or None if the fit was refused)].
    recorded: the tables of this workload and size recorded at
    recorded_seed; every row is compared when seed == recorded_seed,
    and only the seed-independent columns otherwise.
    """
    opts = workload.options(smoke)
    rng = random.Random(seed)
    columns = None if seed == recorded_seed else SEED_FREE_COLUMNS.get(workload.command)
    checks = []
    for i, (cli_seed, out) in enumerate(outputs):
        if out is None:        # refused fit or failed call, counted by the caller
            continue
        label = f"{workload.name} call {i}"
        try:
            if workload.command == "fractal":
                checks += _check_fractal(opts, cli_seed, out, rng, i)
            else:
                checks += CHECKERS[workload.command](opts, cli_seed, out, rng)
            if seed == recorded_seed or columns is not None:
                checks += compare_reference(label, out, recorded[i], columns)
        except (IndexError, KeyError, TypeError, ValueError) as err:  # malformed table
            checks.append((f"{label} readable", False, f"{type(err).__name__}: {err}"))
    return checks


def reference_record(out) -> dict:
    """The part of a parsed output stored in reference.json."""
    rec = {"header": out["header"], "rows": out["rows"]}
    if "fit" in out:
        rec["dimension"] = out["fit"]["params"]["dimension"]
    return rec
