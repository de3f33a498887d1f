"""Deterministic CSV tables with a JSON sidecar for run metadata.

CSV files carry only reproducible content (comment lines with the
configuration and code version, a header row, then data rows with
floats printed to 17 significant digits), so identical runs produce
byte-identical files.  Wall-clock time and fit payloads live in the
JSON sidecar next to the CSV, a dataclass (FitResult) as its fields.
"""

from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["format_value", "write_csv", "read_csv", "write_sidecar", "sidecar_path"]


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path, header, rows, metadata: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# spinchain {__version__}"]
    for key in sorted(metadata or {}):
        lines.append(f"# {key}={format_value((metadata or {})[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path):
    """Returns (metadata dict, header list, list of row tuples).

    Row entries parse as float when possible and stay strings otherwise.
    """
    metadata, header, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                metadata[key.strip()] = val.strip()
            continue
        if header is None:
            header = line.split(",")
            continue
        parsed = []
        for tok in line.split(","):
            try:
                parsed.append(float(tok))
            except ValueError:
                parsed.append(tok)
        rows.append(tuple(parsed))
    if header is None:
        raise ValueError("no header row found")
    return metadata, header, rows


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def write_sidecar(csv_path, payload: dict) -> Path:
    out = dict(payload)
    out.setdefault("version", __version__)
    out["wall_clock"] = datetime.now(timezone.utc).isoformat()
    path = sidecar_path(csv_path)
    path.write_text(json.dumps(out, indent=2, sort_keys=True, default=_coerce) + "\n")
    return path


def _coerce(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return str(obj)
