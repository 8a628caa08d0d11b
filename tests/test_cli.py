"""Command-line front end: describe, run, exit codes, output precedence."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import levyfield
from levyfield.cli import main
from levyfield.config import TASKS

MINIMAL = """\
schema: 1
seed: 17
characteristics: {preset: impulsive, params: {rate: 12.0}}
sampler: {window: [[0.0, 1.0]], eps: 0.0}
tasks:
  - {kind: sample, replicates: 1, formats: [jsonl, frames]}
  - {kind: sheet, axes: [{lo: 0.0, hi: 1.0, n: 4}]}
  - {kind: integrate, function: {type: gaussian, center: [0.5], scale: 0.2}}
  - {kind: classify-besov, alpha: 1.5, p: 2, tau: -1.0, rho_growth: -2.0}
"""


def write_cfg(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_describe_symmetric_stable(capsys):
    rc = main(["describe", "balan-stable", "alpha=1.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "control measure of the unit box: 4" in out
    assert "stationary in space: yes" in out
    assert "tempered: yes" in out


def test_describe_unknown_preset(capsys):
    rc = main(["describe", "levy-flight"])
    assert rc == 2
    assert "known:" in capsys.readouterr().err


def test_describe_rejects_malformed_params(capsys):
    assert main(["describe", "balan-stable", "alpha"]) == 2
    assert "key=value" in capsys.readouterr().err
    assert main(["describe", "balan-stable", "alpha=abc"]) == 2
    assert main(["describe", "impulsive", "rate=-3"]) == 2
    assert "invalid parameters" in capsys.readouterr().err


def test_run_minimal_config(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LEVY_FIELD_OUTPUT", raising=False)
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "artifacts"
    rc = main(["run", cfg, "--output", str(out)])
    assert rc == 0
    assert "4 task(s) done" in capsys.readouterr().out
    names = sorted(os.listdir(out))
    assert names == ["00-sample-r0.bin", "00-sample-r0.jsonl", "01-sheet.csv",
                     "02-integrate.json", "03-classify-besov.json",
                     "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == names
    assert manifest["seed"] == 17
    besov = json.loads((out / "03-classify-besov.json").read_text())
    assert besov["classification"] == "inside"  # tau=-1 < 1/1.5-1, rho < -2/3


def test_run_samples_a_spectrally_positive_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LEVY_FIELD_OUTPUT", raising=False)
    cfg = write_cfg(tmp_path, """\
schema: 1
seed: 5
characteristics: {preset: mytnik-positive, params: {alpha: 1.5}}
sampler: {window: [[0.0, 1.0]], eps: 0.01}
tasks: [{kind: sample, formats: [jsonl]}]
""")
    out = tmp_path / "artifacts"
    assert main(["run", cfg, "--output", str(out)]) == 0
    assert "FAILED" not in capsys.readouterr().out
    assert (out / "00-sample-r0.jsonl").exists()


def test_run_bad_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "schema: 1\ncharacteristics: {preset: impulsive}\n"
                              "sampler: {window: [[0, 1]]}\n")
    assert main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "absent.yaml")]) == 2


@pytest.mark.parametrize("bad, path", [("permutations: 0", "permutations"),
                                       ("level: 1.0", "level")])
def test_run_dcov_task_that_cannot_test_exits_2(tmp_path, capsys, bad, path):
    cfg = write_cfg(tmp_path, MINIMAL.split("tasks:")[0] + "tasks:\n"
                    "  - {kind: verify-independence, region_a: [[0.0, 0.5]],\n"
                    f"     region_b: [[0.5, 1.0]], n: 100, {bad}}}\n")
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert f"tasks[0].{path}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_unknown_triple_key_exits_2(tmp_path, capsys):
    # a misspelt modulation used to parse, and the run used modulation 1
    cfg = write_cfg(tmp_path, """\
schema: 1
seed: 3
characteristics:
  dimension: 1
  nu: {kernel: {kind: stable, alpha: 1.5}, modulaton: 2.0}
sampler: {window: [[0.0, 1.0]]}
tasks: []
""")
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "characteristics.nu: unknown keys: modulaton" in capsys.readouterr().err
    # so did an unknown key of a kernel block
    cfg = write_cfg(tmp_path, Path(cfg).read_text().replace(
        "alpha: 1.5}, modulaton", "alpha: 1.5, bogus: 3}, modulation"))
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "characteristics.nu.kernel: unknown keys: bogus" in capsys.readouterr().err
    # and an unknown key of a jump law given as a preset parameter
    cfg = write_cfg(tmp_path, Path(cfg).read_text().replace(
        "  dimension: 1\n  nu: {kernel: {kind: stable, alpha: 1.5, bogus: 3}, modulation: 2.0}",
        "  preset: impulsive\n  params: {jumps: {kind: normal, bogus: 1}}"))
    assert main(["run", cfg, "--output", str(tmp_path / "out")]) == 2
    assert "characteristics.params.jumps: unknown keys: bogus" in capsys.readouterr().err


def test_run_duality_failure_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LEVY_FIELD_OUTPUT", raising=False)
    text = """\
schema: 1
seed: 3
characteristics: {preset: impulsive, params: {rate: 10.0}}
sampler: {window: [[-1.0, 1.0]], eps: 0.0}
tasks:
  - kind: verify-duality
    h: 0.3
    tolerance: 1.0e-12
    function: {type: bump, center: [0.0], radius: 0.4}
"""
    cfg = write_cfg(tmp_path, text)
    rc = main(["run", cfg, "--output", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAILED 00-verify-duality" in captured.err
    payload = json.loads((tmp_path / "out" / "00-verify-duality.json").read_text())
    assert payload["error"] > 1e-12 and payload["cells"] > 0


def test_run_not_integrable_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LEVY_FIELD_OUTPUT", raising=False)
    text = """\
schema: 1
seed: 5
characteristics: {preset: balan-stable, params: {alpha: 0.8}}
sampler: {window: [[0.0, 1.0]], eps: 0.01}
tasks:
  - {kind: integrate, function: {type: decay, r: 0.3}}
"""
    cfg = write_cfg(tmp_path, text)
    rc = main(["run", cfg, "--output", str(tmp_path / "out")])
    assert rc == 1
    assert "not integrable" in capsys.readouterr().err


def test_task_exceptions_fail_the_task_not_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LEVY_FIELD_OUTPUT", raising=False)

    def rejection_loop(*args):
        raise RuntimeError("rejection sampler gave up")

    def unimplemented(*args):
        raise NotImplementedError()

    monkeypatch.setitem(TASKS, "sheet", (TASKS["sheet"][0], rejection_loop))
    monkeypatch.setitem(TASKS, "integrate",
                        (TASKS["integrate"][0], unimplemented))
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"
    rc = main(["run", cfg, "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "FAILED 01-sheet: RuntimeError: rejection sampler gave up" in err
    assert "FAILED 02-integrate: NotImplementedError\n" in err
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["00-sample-r0.bin", "00-sample-r0.jsonl",
                                     "03-classify-besov.json", "manifest.json"]
    assert sorted(os.listdir(out)) == manifest["artifacts"]


def test_a_sheet_past_the_window_fails_the_task(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("LEVY_FIELD_OUTPUT", raising=False)
    cfg = write_cfg(tmp_path, MINIMAL.replace("{lo: 0.0, hi: 1.0, n: 4}", "[0.5, 1.5]"))
    out = tmp_path / "out"
    rc = main(["run", cfg, "--output", str(out)])
    assert rc == 1
    assert "FAILED 01-sheet: sheet lattice leaves the sampled window" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert "01-sheet.csv" not in manifest["artifacts"]
    assert sorted(os.listdir(out)) == manifest["artifacts"]


def test_output_directory_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = """\
schema: 1
seed: 17
output: cfg-out
characteristics: {preset: impulsive, params: {rate: 5.0}}
sampler: {window: [[0.0, 1.0]], eps: 0.0}
tasks: [{kind: sample}]
"""
    cfg = write_cfg(tmp_path, text)
    monkeypatch.delenv("LEVY_FIELD_OUTPUT", raising=False)
    assert main(["run", cfg]) == 0
    assert (tmp_path / "cfg-out" / "manifest.json").exists()
    monkeypatch.setenv("LEVY_FIELD_OUTPUT", "env-out")
    assert main(["run", cfg]) == 0
    assert (tmp_path / "env-out" / "manifest.json").exists()
    assert main(["run", cfg, "--output", "flag-out"]) == 0
    assert (tmp_path / "flag-out" / "manifest.json").exists()


def test_replay_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("LEVY_FIELD_OUTPUT", raising=False)
    text = """\
schema: 1
seed: 29
characteristics: {preset: impulsive, params: {rate: 8.0}}
sampler: {window: [[0.0, 1.0]], eps: 0.0}
tasks:
  - {kind: sample, replicates: 2, formats: [frames]}
  - {kind: verify-cf, u: [0.5, 1.0], n: 1000, region: [[0.0, 1.0]]}
  - {kind: counterexample, n: 500}
"""
    cfg = write_cfg(tmp_path, text)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--output", str(first)]) == 0
    assert main(["run", cfg, "--output", str(second)]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def _declared_script_target():
    """The `levy-field` target from the installed metadata, else pyproject."""
    try:
        dist = importlib.metadata.distribution("levyfield")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is not None:
        targets = [ep.value for ep in dist.entry_points
                   if ep.group == "console_scripts" and ep.name == "levy-field"]
        assert len(targets) == 1, targets
        return targets[0]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(levyfield.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["levy-field"]


def test_console_script_is_wired(tmp_path):
    target = _declared_script_target()
    assert target == "levyfield.cli:main"
    module_name, attr = target.split(":")
    assert getattr(importlib.import_module(module_name), attr) is main

    # The child imports the copy of levyfield under test, from any directory.
    env = dict(os.environ)
    src_dir = str(Path(levyfield.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    routes = [[sys.executable, "-m", "levyfield"]]
    script = shutil.which("levy-field")
    if script is not None:
        routes.append([script])
    for route in routes:
        proc = subprocess.run(route + ["describe", "impulsive"], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (route, proc.stderr)
        assert "compound" in proc.stdout.lower() or "jumps:" in proc.stdout
        proc = subprocess.run(route + ["describe", "levy-flight"], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2, (route, proc.stderr)
