"""Deterministic CSV tables with a JSON sidecar for run metadata.

CSV files carry only reproducible content (comment lines with the
configuration and code version, a header row, then data rows with
floats printed to 17 significant digits), so identical runs produce
byte-identical files.  Wall-clock time, library versions and fit payloads
live in the JSON sidecar next to the CSV, a dataclass as its fields.  The
sidecar is strict JSON: a non-finite float (the stderr of a two-point
fit, say) is written as null.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
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
    """payload plus the library versions as csv_path's sidecar; scipy's is
    null when the run never loaded it (the Chebyshev and table commands)."""
    out = dict(payload)
    out.setdefault("version", __version__)
    out["libraries"] = {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
                        "scipy": getattr(sys.modules.get("scipy"), "__version__", None)}
    out["wall_clock"] = datetime.now(timezone.utc).isoformat()
    path = sidecar_path(csv_path)
    path.write_text(_json_text(out) + "\n")
    return path


def _json_text(obj) -> str:
    """obj as strict JSON (RFC 8259), the sidecar's format: a dataclass as
    its fields, arrays as lists, a non-finite float as null."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False)


def _plain(obj):
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _plain(dataclasses.asdict(obj))
    return str(obj)
