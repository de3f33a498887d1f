"""Command-line experiment runner; every command writes a CSV table plus
a JSON sidecar with the full configuration.

A plain key=value config file (--config) can preset any option: its
lines become flags that the command's own parser reads ahead of the
command line's, so explicit flags win.  Seeds are always explicit.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .chain import ChainSpec, TridiagonalHamiltonian, hamiltonian_block
from .boxcount import (DIMENSION_HEADER, DegenerateSeriesError, default_box_counts,
                       dimension_of_series, dimension_scan)
from .evolve import fidelity_series, series_length, transfer_time
from .fitting import curves_by_n, threshold_scaling
from .levelstats import ETA_HEADER, MAX_BIN_WIDTH, collect_spacings, eta_scan, spacing_histogram
from .scans import (FidelityPoint, PerturbationRow, fit_scaling, perturbation_comparison,
                    scan_fidelity, threshold_curves)
from .tableio import format_value, read_csv, sidecar_path, write_csv, write_sidecar


def _config_flags(command, path, options) -> list:
    """The flags a key=value config file presets, '#' starting a comment:
    a list option's values, split at commas or spaces, follow its flag,
    and a single value is joined to its flag by '=', so one that starts
    with '-' stays a value.  A file that cannot be read as UTF-8 text, a
    line that is no key=value or a key that names no option of the
    command exits naming the command and the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise SystemExit(f"{command}: --config {path}: {err.strerror}") from None
    except ValueError as err:    # not UTF-8
        raise SystemExit(f"{command}: --config {path}: {err}") from None
    flags = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"{command}: --config {path}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in options:
            raise SystemExit(f"{command}: config file {path}: "
                             f"key {dest!r} names no option of {command}")
        flag = "--" + dest.replace("_", "-")
        if options[dest].get("nargs"):
            flags += [flag, *value.replace(",", " ").split()]
        else:
            flags.append(f"{flag}={value.strip()}")
    return flags


def _add_options(parser: argparse.ArgumentParser, options: dict):
    parser.add_argument("--config", help="key=value file of preset flags")
    for dest, option in options.items():
        parser.add_argument("--" + dest.replace("_", "-"),
                            **{k: v for k, v in option.items() if k != "required"})


def _common(extra: dict) -> dict:
    return {"seed": {"type": int, "required": True, "help": "master seed (required)"},
            **extra,
            "out": {"type": str, "required": True, "help": "output CSV path"}}


def _single_chain(extra: dict) -> dict:
    """_common with the four options _spec reads ahead of extra."""
    return _common({"n": {"type": int, "required": True},
                    "eps_j": {"type": float, "default": 0.0},
                    "eps_b": {"type": float, "default": 0.0},
                    "corr_p": {"type": float, "default": 0.5}, **extra})


OPTIONS = {
    "transfer": _single_chain({
        "t_max": {"type": float, "default": 10.0},
        "dt": {"type": float, "default": 0.01},
    }),
    "scan": _common({
        "n": {"type": int, "nargs": "+", "required": True},
        "eps_j": {"type": float, "nargs": "+", "default": (0.0,)},
        "eps_b": {"type": float, "nargs": "+", "default": (0.0,)},
        "corr_p": {"type": float, "nargs": "+", "default": (0.5,)},
        "n_real": {"type": int, "default": 1000},
        "t_eval": {"type": float, "default": None},
    }),
    "fit-scaling": {
        "table": {"type": str, "nargs": "+", "required": True,
                  "help": "scan CSVs to fit, rows pooled in the order given"},
        "out": {"type": str, "required": True},
    },
    "threshold": {
        "table": {"type": str, "nargs": "+", "required": True,
                  "help": "scan, eta-scan or dimension-scan CSVs, rows pooled "
                          "in the order given"},
        "f_target": {"type": float, "nargs": "+", "default": (0.9,),
                     "help": "target of the table's value column (F, eta or D)"},
        "param": {"type": str, "default": "eps_j", "choices": ("eps_j", "eps_b")},
        "out": {"type": str, "required": True},
    },
    "spectrum": _single_chain({
        "n_real": {"type": int, "default": 1000},
        "bin_width": {"type": float, "default": 0.05},
    }),
    "eta-scan": _common({
        "n": {"type": int, "nargs": "+", "required": True},
        "eps_j": {"type": float, "nargs": "+", "required": True},
        "n_real": {"type": int, "default": 1000},
        "bin_width": {"type": float, "default": 0.05},
    }),
    "dimension-scan": _common({
        "n": {"type": int, "nargs": "+", "required": True},
        "eps_j": {"type": float, "nargs": "+", "required": True},
        "n_real": {"type": int, "default": 6},
        "t_max": {"type": float, "default": 1e4},
        "dt": {"type": float, "default": 0.05},
    }),
    "fractal": _single_chain({
        "t_max": {"type": float, "default": 1e4},
        "dt": {"type": float, "default": 0.05},
        "l_min": {"type": float, "default": None, "help": "manual fit window lower edge"},
        "l_max": {"type": float, "default": None, "help": "manual fit window upper edge"},
    }),
    "perturbation": _common({
        "n": {"type": int, "required": True},
        "eps": {"type": float, "nargs": "+", "default": (1e-3, 3e-3, 1e-2)},
        "sector": {"type": str, "default": "both", "choices": ("j", "b", "both")},
        "n_real": {"type": int, "default": 10000},
        "t": {"type": float, "default": None},
    }),
}


# Admissible values of the ranged options; NaN fails all.  --t-max and --dt are
# checked as a sample count, for the box-counting commands a box-countable one.
RANGES = {
    "n": (lambda v: v >= 2, "must be >= 2"),
    "n_real": (lambda v: v >= 1, "must be >= 1"),
    "seed": (lambda v: v >= 0, "must be >= 0"),
    "eps_j": (lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
    "eps_b": (lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
    "eps": (lambda v: 0 <= v < math.inf, "must be finite and >= 0"),
    "corr_p": (lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "dt": (lambda v: v > 0, "must be > 0"),
    "t_max": (math.isfinite, "must be finite"),
    "t_eval": (math.isfinite, "must be finite"),
    "t": (math.isfinite, "must be finite"),
    "f_target": (math.isfinite, "must be finite"),
    "l_min": (lambda v: not math.isnan(v), "must be a number"),
    "l_max": (lambda v: not math.isnan(v), "must be a number"),
    "bin_width": (lambda v: 0 < v <= MAX_BIN_WIDTH, f"must lie in (0, {MAX_BIN_WIDTH:g}]"),
}


def _check(command, cfg):
    """Exit naming the flag of an --out that cannot hold the table (a
    directory, a .json path that its sidecar would overwrite, or one of
    the command's own --table inputs or their sidecars), of the
    first option outside its range, of a repeated --f-target, of a --t-max
    and --dt with no usable sample count or of the disorder amplitudes
    whose worst-case chain overflows, so a bad value from the command
    line or a config file fails before any work.  One chain per sector takes the largest N and amplitudes: its
    entries and Gershgorin radii only grow with each, and rounding is
    monotone, so it overflows exactly when some cell of the command does.
    Amplitudes that overflow only together, eps_j with eps_b, name both."""
    out = Path(cfg["out"])
    if out.is_dir():
        raise SystemExit(f"{command}: --out {cfg['out']}: Is a directory")
    if sidecar_path(out) == out:
        raise SystemExit(f"{command}: --out {cfg['out']}: the table's JSON sidecar "
                         "would overwrite it")
    for table in cfg.get("table", ()):
        if out.resolve() == Path(table).resolve():
            raise SystemExit(f"{command}: --out {cfg['out']}: would overwrite "
                             f"--table {table}")
        if sidecar_path(out).resolve() == sidecar_path(table).resolve():
            raise SystemExit(f"{command}: --out {cfg['out']}: its JSON sidecar would "
                             f"overwrite --table {table}'s, {sidecar_path(table)}")
    for dest, (admissible, rule) in RANGES.items():
        for v in _values(cfg.get(dest)):
            if v is not None and not admissible(v):
                raise SystemExit(f"{command}: --{dest.replace('_', '-')} {v!r}: {rule}")
    for k, v in enumerate(cfg.get("f_target", ())):
        if v in cfg["f_target"][:k]:
            raise SystemExit(f"{command}: --f-target {v!r}: given more than once")
    if "t_max" in cfg:
        try:
            n_samples = series_length(cfg["t_max"], cfg["dt"])
            if command in ("fractal", "dimension-scan"):
                default_box_counts(n_samples)
        except ValueError as err:
            raise SystemExit(f"{command}: --t-max {cfg['t_max']!r} --dt {cfg['dt']!r}: "
                             f"{err}") from None
    if "n" not in cfg:
        return
    if command == "perturbation":    # --eps is eps_j in sector j, eps_b in sector b
        chains = [[("eps", f"eps_{s}", max(cfg["eps"]))] for s in ("j", "b")
                  if cfg["sector"] in (s, "both")]
    else:
        chains = [[(dest, dest, max(_values(cfg[dest])))
                   for dest in ("eps_j", "eps_b") if dest in cfg]]
    n = max(_values(cfg["n"]))

    def refusal(amplitudes):
        try:
            ChainSpec(n_sites=n, **{field: v for _, field, v in amplitudes})
        except ValueError as err:
            return err

    for chain in chains:
        err = refusal(chain)
        if err:
            alone = [a for a in chain if refusal([a])] or chain
            flags = " ".join(f"--{dest.replace('_', '-')} {v!r}" for dest, _, v in alone)
            raise SystemExit(f"{command}: {flags}: {err}")


def _values(value) -> tuple:
    """An option's values: its tuple, or its one value."""
    return value if isinstance(value, tuple) else (value,)


def _spec(cfg) -> ChainSpec:
    return ChainSpec(n_sites=cfg["n"], eps_j=cfg["eps_j"], eps_b=cfg["eps_b"],
                     corr_p=cfg["corr_p"])


def _series(cfg):
    """Fidelity series of realization 0 of the seed: row 0 of a one-row block."""
    diag, offdiag = hamiltonian_block(_spec(cfg), cfg["seed"], (), range(1))
    h = TridiagonalHamiltonian(diag=diag[0], offdiag=offdiag[0])
    return fidelity_series(h, cfg["t_max"], cfg["dt"])


def _write(cfg, command, header, rows, csv_extra, **sidecar):
    """Write the CSV and its sidecar.  A command run from options records
    them (plus csv_extra) in both; a command that reads tables records
    csv_extra alone in the CSV (the tables and the metadata they carried)
    and the table path, or the list of them, in the sidecar."""
    if "table" in cfg:
        metadata = csv_extra
        tables = cfg["table"]
        sidecar["table"] = tables[0] if len(tables) == 1 else list(tables)
    else:
        metadata = _meta(cfg, command=command, **csv_extra)
        sidecar["config"] = _meta(cfg)
    write_csv(cfg["out"], header, rows, metadata=metadata)
    write_sidecar(cfg["out"], {"command": command, **sidecar})


# Curve tables threshold reads besides scan tables: per (N, eps_j) rows
# whose third column is the value that crosses the target.
CURVE_MODELS = {ETA_HEADER: "eta-threshold", DIMENSION_HEADER: "dimension-threshold"}


def _read_tables(command, paths, headers):
    """(metadata, header tuple, rows) of tables of one kind, the rows pooled
    in the order given, each row's n_sites and n_real as ints.  A missing,
    empty or headerless table, a header that differs from the first
    table's, a row that is not one number per column or whose n_sites or
    n_real is not a finite integer, then a header that is none of headers
    exit naming --table and the path.  One table's metadata is carried as
    it is; with several, key k of the i-th table becomes table<i>.k."""
    tables = []
    for path in paths:
        try:
            tables.append(read_csv(path))
        except OSError as err:
            raise SystemExit(f"{command}: --table {path}: {err.strerror}") from None
        except ValueError as err:
            raise SystemExit(f"{command}: --table {path}: {err}") from None
    header = tuple(tables[0][1])
    counts = ("n_sites", "n_real")
    typed = []
    for path, (_, other, rows) in zip(paths, tables):
        if tuple(other) != header:
            raise SystemExit(f"{command}: --table {path}: header {','.join(other)} "
                             f"differs from {paths[0]}'s {','.join(header)}")
        for k, row in enumerate(rows, 1):
            if len(row) != len(header) or any(isinstance(v, str) for v in row):
                raise SystemExit(f"{command}: --table {path}: data row {k} is not "
                                 f"{len(header)} numbers")
            for name, value in zip(header, row):
                if name in counts and not value.is_integer():
                    raise SystemExit(f"{command}: --table {path}: data row {k}: "
                                     f"{name} {value!r} is not a finite integer")
            typed.append(tuple(int(v) if n in counts else v for n, v in zip(header, row)))
    if header not in headers:
        raise SystemExit(f"{command}: --table {' '.join(paths)}: expected a table with header "
                         f"{' or '.join(map(','.join, headers))}, found {','.join(header)}")
    if len(paths) == 1:
        metadata = {"table": paths[0], **tables[0][0]}
    else:
        metadata = {"table": " ".join(paths)}
        for i, (meta, _, _) in enumerate(tables, 1):
            metadata.update({f"table{i}.{key}": value for key, value in meta.items()})
    return metadata, header, typed


def _cmd_transfer(cfg):
    series = _series(cfg)
    rows = zip(series.times, series.amplitude.real, series.amplitude.imag,
               series.fidelity)
    _write(cfg, "transfer", ("time", "amp_real", "amp_imag", "fidelity"), rows, {})


def _cmd_scan(cfg):
    points = scan_fidelity(cfg["n"], cfg["eps_j"], cfg["n_real"], cfg["seed"],
                           eps_b_grid=cfg["eps_b"], corr_p_grid=cfg["corr_p"],
                           t_eval=cfg["t_eval"])
    _write(cfg, "scan", FidelityPoint._fields, points, {})


def _cmd_fit_scaling(cfg):
    metadata, _, rows = _read_tables("fit-scaling", cfg["table"], (FidelityPoint._fields,))
    try:
        fit = fit_scaling([FidelityPoint(*row) for row in rows])
    except ValueError as err:
        raise SystemExit(f"fit-scaling: --table {' '.join(cfg['table'])}: {err}") from None
    out_rows = [(name, fit.params[name], fit.stderr[name]) for name in sorted(fit.params)]
    _write(cfg, "fit-scaling", ("parameter", "estimate", "stderr"), out_rows, metadata, fit=fit)


def _cmd_threshold(cfg):
    """Thresholds per --f-target.  A target that fewer than two chain
    lengths cross is skipped and its reason recorded under the sidecar's
    targets; the command exits, naming --f-target, only when every
    target is skipped."""
    metadata, header, rows = _read_tables("threshold", cfg["table"],
                                          (FidelityPoint._fields, *CURVE_MODELS))
    tables = " ".join(cfg["table"])
    model = CURVE_MODELS.get(header)
    if model is not None:
        if cfg["param"] != "eps_j":
            raise SystemExit(f"threshold: --param {cfg['param']}: the "
                             f"{','.join(header)} table {tables} holds eps_j curves only")
        column = header[2]
        for n, eps_j, value in (row[:3] for row in rows):
            # eta is a ratio of distances; a NaN dimension is dimension_scan's refusal
            if math.isinf(value) or (column == "eta" and not value >= 0):
                need = "a finite number >= 0" if column == "eta" else "finite or NaN"
                raise SystemExit(f"threshold: --table {tables}: N = {n}, eps_j = {eps_j!r}: "
                                 f"{column} {value!r} is not {need}")
        curves = curves_by_n(row[:3] for row in rows)
    else:
        model = f"{cfg['param']}-threshold"
        try:
            curves = threshold_curves([FidelityPoint(*row) for row in rows], cfg["param"])
        except ValueError as err:
            raise SystemExit(f"threshold: --table {tables}: {err}") from None
    out_rows, fits = [], {}
    for target in cfg["f_target"]:
        key = format(target, ".17g")
        try:
            scaling = threshold_scaling(curves, target, model=model)
        except ValueError as err:
            fits[key] = {"fit": None, "reason": str(err)}
            continue
        for n in sorted(scaling.thresholds):
            out_rows.append((cfg["param"], target, n, scaling.thresholds[n]))
        fits[key] = {"fit": scaling.fit, "skipped": list(scaling.skipped)}
    if not out_rows:
        reasons = "; ".join(fit["reason"] for fit in fits.values())
        targets = " ".join(str(t) for t in cfg["f_target"])
        raise SystemExit(f"threshold: --f-target {targets}: no target yields "
                         f"a threshold: {reasons}")
    _write(cfg, "threshold", ("param", "f_target", "n_sites", "eps_c"), out_rows,
           {"param": cfg["param"], **metadata},
           param=cfg["param"], targets=fits)


def _cmd_spectrum(cfg):
    sample = collect_spacings(_spec(cfg), cfg["n_real"], cfg["seed"])
    hist = spacing_histogram(sample.spacings, cfg["bin_width"])
    value = hist.eta
    rows = zip(hist.edges[:-1], hist.edges[1:], hist.centers, hist.density)
    _write(cfg, "spectrum", ("bin_left", "bin_right", "bin_center", "density"), rows,
           {"eta": value, "n_spacings": sample.spacings.size},
           eta=value, n_spacings=int(sample.spacings.size))


def _cmd_eta_scan(cfg):
    rows = eta_scan(cfg["n"], cfg["eps_j"], cfg["n_real"], cfg["seed"], bin_width=cfg["bin_width"])
    _write(cfg, "eta-scan", ETA_HEADER, rows, {})


def _cmd_dimension_scan(cfg):
    rows, refusals = dimension_scan(cfg["n"], cfg["eps_j"], cfg["n_real"], cfg["seed"],
                                    t_max=cfg["t_max"], dt=cfg["dt"])
    _write(cfg, "dimension-scan", DIMENSION_HEADER, rows, {}, refusals=refusals)


def _cmd_fractal(cfg):
    missing = [flag for flag, edge in (("--l-min", cfg["l_min"]), ("--l-max", cfg["l_max"]))
               if edge is None]
    if len(missing) == 1:
        raise SystemExit("fractal: a manual fit window needs both --l-min and "
                         f"--l-max; {missing[0]} is missing")
    window = None if missing else (cfg["l_min"], cfg["l_max"])
    flags = f"--l-min {cfg['l_min']!r} --l-max {cfg['l_max']!r}"
    if window and not window[0] <= window[1]:
        raise SystemExit(f"fractal: {flags}: --l-min must be <= --l-max")
    series = _series(cfg)
    try:
        fit, curve, trim = dimension_of_series(series, window=window)
    except DegenerateSeriesError as err:
        raise SystemExit(f"fractal: {err}: the largest |f_N| is "
                         f"{float(abs(series.amplitude).max()):.3g}") from None
    except ValueError as err:  # a manual window that holds too few box lengths
        raise SystemExit(f"fractal: {flags}: {err}") from None
    _write(cfg, "fractal", ("box_length", "m"), zip(curve.lengths, curve.m_values),
           {"dimension": fit.params["dimension"]},
           fit=fit, transient_reached=trim.reached, trimmed_samples=trim.start)


def _cmd_perturbation(cfg):
    sectors = ("j", "b") if cfg["sector"] == "both" else (cfg["sector"],)
    try:
        rows, summaries = perturbation_comparison(cfg["n"], cfg["eps"], sectors,
                                                  cfg["n_real"], cfg["seed"], t=cfg["t"])
    except ValueError as err:
        t = transfer_time() if cfg["t"] is None else cfg["t"]
        raise SystemExit(f"perturbation: --t {t!r}: {err}") from None
    _write(cfg, "perturbation", PerturbationRow._fields, rows, {}, sectors=summaries)


def _meta(cfg, **extra) -> dict:
    meta = {}
    for key, value in cfg.items():
        if key == "out" or value is None:
            continue
        if isinstance(value, tuple):
            meta[key] = " ".join(map(format_value, value))
        else:
            meta[key] = value
    meta.update(extra)
    return meta


HANDLERS = {
    "transfer": _cmd_transfer,
    "scan": _cmd_scan,
    "fit-scaling": _cmd_fit_scaling,
    "threshold": _cmd_threshold,
    "spectrum": _cmd_spectrum,
    "eta-scan": _cmd_eta_scan,
    "dimension-scan": _cmd_dimension_scan,
    "fractal": _cmd_fractal,
    "perturbation": _cmd_perturbation,
}


class _FloatWord:
    """argparse's test of whether a word that starts with '-' is a value
    and not an option.  argparse's own pattern takes plain decimals alone
    (-0.001), so it would read -1e-3 or -inf after a flag as an unknown
    option; here every word that parses as a float is a value."""

    @staticmethod
    def match(word: str) -> bool:
        try:
            float(word)
        except ValueError:
            return False
        return True


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the named subcommand alone (building all of them costs
    about a tenth of a small table), or of every subcommand when command
    names none, so that --help and the unknown-command error list them.
    Each parser reads a word that parses as a float as a value (_FloatWord)."""
    parser = argparse.ArgumentParser(
        prog="spinchain",
        description="Disordered spin-chain state transfer experiments")
    parser.add_argument("--version", action="version", version=f"spinchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in OPTIONS else OPTIONS:
        _add_options(sub.add_parser(name), OPTIONS[name])
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _FloatWord
    return parser


def _parse(argv) -> tuple[str, dict]:
    """The command and its options: defaults < config file < explicit
    flags.  A config file's flags go right after the command word, ahead
    of the command line's, and argparse keeps an option's last value."""
    argv = list(argv)
    # the top-level options take no value, so the first bare word is the command
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser(command)
    args = parser.parse_args(argv)
    options = OPTIONS[command]
    if args.config:
        at = argv.index(command) + 1
        argv[at:at] = _config_flags(command, args.config, options)
        args = parser.parse_args(argv)
    cfg = {dest: getattr(args, dest) for dest in options}
    cfg = {dest: tuple(v) if isinstance(v, list) else v for dest, v in cfg.items()}
    missing = [dest for dest, option in options.items()
               if option.get("required") and cfg[dest] is None]
    if missing:
        raise SystemExit(f"missing required option(s): "
                         + ", ".join("--" + m.replace("_", "-") for m in missing))
    return command, cfg


def main(argv=None) -> int:
    command, cfg = _parse(sys.argv[1:] if argv is None else argv)
    _check(command, cfg)
    HANDLERS[command](cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
