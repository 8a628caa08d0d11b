"""Artifact formats: frames, JSONL, CSV, manifest, atomicity."""

import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from levyfield import Region, SamplerConfig, preset, sample_field
from levyfield.io import (FRAME_MAGIC, atomic_write_text, config_hash,
                          read_frames, read_jsonl, write_cf_csv, write_frames,
                          write_jsonl, write_jump_records, write_manifest,
                          write_sheet_csv)


def small_real(dim=2, seed=3):
    window = Region.from_intervals([(-1.0, 1.0)] * dim)
    return sample_field(preset("impulsive", rate=15.0, dim=dim),
                        SamplerConfig(seed=seed, window=window, eps=0.0))


def test_frames_round_trip_and_layout(tmp_path):
    real = small_real()
    path = str(tmp_path / "jumps.bin")
    write_frames(path, real)
    times, locs, sizes = read_frames(path)
    assert np.array_equal(times, real.jump_times)
    assert np.array_equal(locs, real.jump_locations)
    assert np.array_equal(sizes, real.jump_sizes)
    raw = Path(path).read_bytes()
    assert raw[:4] == FRAME_MAGIC
    d, n = struct.unpack_from("<IQ", raw, 4)
    assert d == 2 and n == real.jump_times.size
    assert len(raw) == 16 + n * (d + 2) * 8
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="not a jump-frame"):
        read_frames(str(bad))


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "r.jsonl")
    records = [{"b": 1, "a": [1.5, None]}, {"x": "y"}]
    write_jsonl(path, records)
    assert read_jsonl(path) == records
    text = Path(path).read_text()
    assert text.splitlines()[0] == '{"a":[1.5,null],"b":1}'  # sorted, compact


def test_jump_records_header_then_rows(tmp_path):
    real = small_real(seed=9)
    path = str(tmp_path / "jumps.jsonl")
    write_jump_records(path, real)
    rows = read_jsonl(path)
    head = rows[0]
    assert head["kind"] == "jump-records" and head["dimension"] == 2
    assert head["count"] == real.jump_times.size == len(rows) - 1
    assert head["seed"] == 9 and head["eps"] == 0.0
    first = rows[1]
    assert first["time"] == real.jump_times[0]
    assert first["location"] == list(real.jump_locations[0])
    assert first["compensated"] == (abs(real.jump_sizes[0]) <= 1.0)


def test_cf_csv_columns_and_flags(tmp_path):
    path = str(tmp_path / "cf.csv")
    u = np.array([0.5, 1.0])
    emp = np.array([0.9 + 0.1j, 0.5 - 0.2j])
    target = np.array([0.88 + 0.09j, 0.1 + 0.0j])
    write_cf_csv(path, u, emp, target, 0.02, np.array([0.001, 0.0]),
                 [True, False])
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "u,re_emp,im_emp,re_analytic,im_analytic,tolerance,pass"
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.5 and cells[6] == "1"
    assert float(cells[5]) == pytest.approx(0.021)
    assert lines[2].split(",")[6] == "0"


def test_sheet_csv_lists_lattice_points(tmp_path):
    path = str(tmp_path / "sheet.csv")
    axes = [np.array([0.25, 0.5]), np.array([0.1, 0.2, 0.3])]
    values = np.arange(6.0).reshape(2, 3)
    write_sheet_csv(path, axes, values)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 7
    assert [float(c) for c in lines[1].split(",")] == [0.25, 0.1, 0.0]
    assert [float(c) for c in lines[-1].split(",")] == [0.5, 0.3, 5.0]


def test_config_hash_is_order_invariant():
    a = {"seed": 1, "sampler": {"eps": 0.001, "window": [[0, 1]]}}
    b = {"sampler": {"window": [[0, 1]], "eps": 0.001}, "seed": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "seed": 2})
    assert len(config_hash(a)) == 64


def test_manifest_contents_are_deterministic(tmp_path):
    path = str(tmp_path / "manifest.json")
    cfg = {"seed": 5, "schema": 1}
    write_manifest(path, cfg, ["b.csv", "a.jsonl"], {"numpy": "2.0"})
    data = json.loads(Path(path).read_text())
    assert set(data) == {"config_hash", "seed", "artifacts", "versions"}
    assert data["artifacts"] == ["a.jsonl", "b.csv"]  # sorted
    assert data["seed"] == 5 and data["config_hash"] == config_hash(cfg)
    first = Path(path).read_bytes()
    write_manifest(path, cfg, ["a.jsonl", "b.csv"], {"numpy": "2.0"})
    assert Path(path).read_bytes() == first


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "file.txt"
    atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    atomic_write_text(str(target), "payload2")
    assert target.read_text() == "payload2"
    leftovers = [p for p in os.listdir(target.parent) if p.startswith(".tmp")]
    assert leftovers == []
