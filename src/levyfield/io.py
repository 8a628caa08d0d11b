"""Artifact writers: JSONL, CSV, binary jump frames, and run manifests.

All writes are atomic (write to a temp file in the same directory, then
rename) and contain no timestamps or machine identifiers, so replaying a
config with the same seed reproduces every artifact byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io as _stdio
import json
import os
import struct
import tempfile

import numpy as np

FRAME_MAGIC = b"LVF1"


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str, records) -> None:
    atomic_write_text(path, "".join(_json_line(r) + "\n" for r in records))


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# --------------------------------------------------------------------------
# Jump records
# --------------------------------------------------------------------------

def write_jump_records(path: str, real) -> None:
    """JSONL dump of one realization's retained jumps, header line first."""
    header = {"kind": "jump-records", "dimension": int(real.chars.dim),
              "count": int(real.jump_times.size), "seed": int(real.config.seed),
              "replicate": int(real.replicate), "eps": float(real.config.eps),
              "horizon": float(real.config.horizon)}
    times, sizes = real.jump_times, real.jump_sizes
    finite = (np.isfinite(times) & np.isfinite(real.jump_locations).all(axis=1)
              & np.isfinite(sizes)).tolist()
    lines = [_json_line(header) + "\n"]
    for s, x, y, ok in zip(times.tolist(), real.jump_locations.tolist(), sizes.tolist(), finite):
        if ok:  # as _json_line prints it: keys sorted, floats by repr
            lines.append(f'{{"compensated":{"true" if abs(y) <= 1.0 else "false"},'
                         f'"location":[{",".join(map(repr, x))}],"size":{y!r},"time":{s!r}}}\n')
        else:
            lines.append(_json_line({"time": s, "location": x, "size": y,
                                     "compensated": abs(y) <= 1.0}) + "\n")
    atomic_write_text(path, "".join(lines))


def write_frames(path: str, real) -> None:
    """Binary jump table: magic, u32 dimension, u64 count, then little-endian
    float64 rows ``[time, x_1..x_d, size]``."""
    d = int(real.chars.dim)
    n = int(real.jump_times.size)
    rows = np.empty((n, d + 2))
    rows[:, 0] = real.jump_times
    rows[:, 1:d + 1] = real.jump_locations
    rows[:, d + 1] = real.jump_sizes
    buf = _stdio.BytesIO()
    buf.write(FRAME_MAGIC)
    buf.write(struct.pack("<IQ", d, n))
    buf.write(rows.astype("<f8").tobytes())
    atomic_write_bytes(path, buf.getvalue())


def read_frames(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, locations, sizes) from a binary jump table."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != FRAME_MAGIC:
        raise ValueError(f"not a jump-frame file: {path}")
    d, n = struct.unpack_from("<IQ", data, 4)
    rows = np.frombuffer(data, dtype="<f8", offset=16).reshape(n, d + 2)
    return rows[:, 0].copy(), rows[:, 1:d + 1].copy(), rows[:, d + 1].copy()


# --------------------------------------------------------------------------
# CSV artifacts
# --------------------------------------------------------------------------

def _write_csv(path: str, header: list[str], rows) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_cf_csv(path: str, u, emp, target, radius: float, bias,
                 passed) -> None:
    """Per-frequency CF comparison table."""
    rows = [
        [f"{u[j]:.17g}", f"{emp[j].real:.17g}", f"{emp[j].imag:.17g}",
         f"{target[j].real:.17g}", f"{target[j].imag:.17g}",
         f"{radius + bias[j]:.17g}", "1" if passed[j] else "0"]
        for j in range(len(u))
    ]
    _write_csv(path, ["u", "re_emp", "im_emp", "re_analytic", "im_analytic",
                      "tolerance", "pass"], rows)


def write_sheet_csv(path: str, axes, values: np.ndarray) -> None:
    """Sheet corner values over a tensor lattice, one row per lattice point."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    header = [f"x{i + 1}" for i in range(len(axes))] + ["value"]
    rows = []
    for idx in np.ndindex(values.shape):
        point = [f"{axes[i][idx[i]]:.17g}" for i in range(len(axes))]
        rows.append(point + [f"{values[idx]:.17g}"])
    _write_csv(path, header, rows)


# --------------------------------------------------------------------------
# Manifest
# --------------------------------------------------------------------------

def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_manifest(path: str, config: dict, artifacts: list[str],
                   versions: dict) -> None:
    manifest = {"config_hash": config_hash(config), "seed": config.get("seed"),
                "artifacts": sorted(artifacts), "versions": versions}
    atomic_write_text(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
