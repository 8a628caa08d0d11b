"""Batch front end: `levy-field run <config>` and `levy-field describe <preset>`.

Exit codes: 0 on success, 1 when a task failed its check or raised, 2 for
schema violations or unknown presets.  All artifacts land in the output
directory (flag > LEVY_FIELD_OUTPUT env var > config value), and a manifest
records the config hash so identical configs can be recognized byte-wise.
What each task kind reads and writes lives in ``config.TASKS``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .analysis import stationarity_check, tempered_test
from .config import TASKS, ConfigError, ExperimentConfig, load_config
from .io import atomic_write_text, write_jsonl, write_manifest
from .presets import PRESET_NAMES, preset
from .regions import Region
from .verify import VerificationReport, summary_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levy-field",
        description="Sample, integrate, and verify set-indexed fields with "
                    "independent increments.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the tasks of an experiment config")
    run_p.add_argument("config", help="path to a YAML experiment config")
    run_p.add_argument("--output", help="output directory (overrides env and config)")
    desc_p = sub.add_parser("describe", help="print a preset's characteristics")
    desc_p.add_argument("preset", help="preset name")
    desc_p.add_argument("params", nargs="*",
                        help="preset parameters as key=value pairs")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    return _describe(args)


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def _run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = args.output or os.environ.get("LEVY_FIELD_OUTPUT") or cfg.output
    os.makedirs(outdir, exist_ok=True)

    artifacts: list[str] = []
    reports: list[VerificationReport] = []
    failures: list[str] = []

    def emit(name: str, writer) -> None:
        path = os.path.join(outdir, name)
        writer(path)
        artifacts.append(name)

    for i, task in enumerate(cfg.tasks):
        prefix = f"{i:02d}-{task['kind']}"
        try:
            _run_task(cfg, task, prefix, emit, reports, failures)
        except (ValueError, ArithmeticError) as exc:
            failures.append(f"{prefix}: {exc}")
        except Exception as exc:  # any other fault fails this task, not the run
            detail = f": {exc}" if str(exc) else ""
            failures.append(f"{prefix}: {type(exc).__name__}{detail}")

    if reports:
        emit("reports.jsonl", lambda p: write_jsonl(
            p, (r.to_dict() for r in reports)))
        emit("summary.txt", lambda p: atomic_write_text(
            p, summary_table(reports) + "\n"))
    emit("manifest.json", lambda p: write_manifest(
        p, cfg.raw, artifacts + ["manifest.json"], _versions()))

    print(summary_table(reports) if reports else f"{len(cfg.tasks)} task(s) done")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


def _versions() -> dict:
    import scipy  # the manifest's version only; a module-level import costs every run
    return {"levyfield": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__}


def _run_task(cfg: ExperimentConfig, task: dict, prefix: str, emit,
              reports: list, failures: list) -> None:
    """Run one task through its ``TASKS`` runner; ``perfbench`` times each
    task by wrapping this function, so ``_run`` calls it by its global name."""
    TASKS[task["kind"]][1](cfg, task, prefix, emit, reports, failures)


# --------------------------------------------------------------------------
# describe
# --------------------------------------------------------------------------

def _describe(args) -> int:
    if args.preset not in PRESET_NAMES:
        print(f"unknown preset {args.preset!r}; known: "
              f"{', '.join(PRESET_NAMES)}", file=sys.stderr)
        return 2
    params = {}
    for item in args.params:
        key, sep, value = item.partition("=")
        if not sep or not key:
            print(f"bad parameter {item!r}; expected key=value", file=sys.stderr)
            return 2
        try:
            params[key] = int(value) if value.lstrip("+-").isdigit() else float(value)
        except ValueError:
            print(f"parameter {key!r} must be numeric, got {value!r}",
                  file=sys.stderr)
            return 2
    try:
        chars = preset(args.preset, **params)
    except (TypeError, ValueError) as exc:
        print(f"invalid parameters for {args.preset!r}: {exc}", file=sys.stderr)
        return 2

    print(f"preset: {args.preset}")
    print(f"dimension: {chars.dim}")
    print(f"drift: {_component_line(chars.gamma)}")
    print(f"gaussian: {_component_line(chars.sigma)}")
    if chars.nu is None:
        print("jumps: none")
    else:
        mod = chars.nu.modulation
        mod_desc = f"{mod.const:g} * lebesgue" if mod.is_constant else "callable"
        print(f"jumps: {_kernel_line(chars.nu.kernel)} modulated by {mod_desc}")
    unit = Region.from_intervals([(0.0, 1.0)] * chars.dim)
    lam = chars.control_measure(unit)
    print(f"control measure of the unit box: {lam.value:.12g}")
    st = stationarity_check(chars)
    if st.stationary:
        print("stationary in space: yes")
    else:
        print(f"stationary in space: no (witness: {st.witness[2]})")
    tmp = tempered_test(chars)
    if tmp.tempered:
        print(f"tempered: yes ((1+|x|^2)^-r integrable at r={tmp.r:g})")
    else:
        print(f"tempered: undetermined ({tmp.note})")
    return 0


def _component_line(comp) -> str:
    if comp is None:
        return "none"
    if comp.density.is_constant:
        base = f"{comp.density.const:g} * lebesgue"
    else:
        base = "callable density"
    if comp.atoms:
        base += f" + {len(comp.atoms)} atom(s)"
    return base


def _kernel_line(kern) -> str:
    cfg = kern.to_config()
    inner = ", ".join(f"{k}={v}" for k, v in cfg.items() if k != "kind")
    return f"{cfg.get('kind', type(kern).__name__)}({inner})"


if __name__ == "__main__":
    sys.exit(main())
