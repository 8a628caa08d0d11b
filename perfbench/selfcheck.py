"""Self-tests of the benchmark harness.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; takes about a minute.  Checks that

- the ``paths`` config replays byte-identically with one seed (criterion 11
  on the benchmark's own config);
- one seed gives the same inputs twice and two seeds give different inputs;
- an untraced pass runs with no wrapper installed, and uninstalling the
  tracer restores every original object;
- per-module self times of a traced pass sum to no more than its wall time;
- the metrics a run prints are the ones ``BENCHMARK.json`` lists.
"""

import filecmp
import json
import os
import shutil
import sys
import tempfile
import warnings

import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metric_names() -> None:
    import tracer as tracing

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    for key, printed in (("end_to_end", run.END_TO_END_UNITS),
                         ("per_layer", tracing.PER_LAYER_UNITS)):
        listed = [(m["name"], m["unit"]) for m in bench[key]]
        expect(listed == list(printed.items()),
               f"BENCHMARK.json {key} differs from the metrics a run prints")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    print("ok  BENCHMARK.json lists exactly the printed metrics and workloads")


def check_replay(scratch: str) -> None:
    import workloads

    config = workloads.build("paths", 5, scratch).inputs["config"]
    trees = []
    for _ in range(2):
        code, artifacts = workloads.run_cli(config, scratch)
        expect(code == 0, f"levy-field run exited with {code}")
        trees.append(artifacts)
    names = sorted(os.listdir(trees[0]))
    expect(names == sorted(os.listdir(trees[1])), "artifact names differ")
    expect(names == workloads.expected_artifacts(config),
           f"unexpected artifacts {names}")
    _, mismatch, errors = filecmp.cmpfiles(trees[0], trees[1], names, shallow=False)
    expect(not mismatch and not errors, f"replay differs in {mismatch + errors}")
    print(f"ok  paths config replays byte-identically ({len(names)} artifacts)")


def check_inputs(scratch: str) -> None:
    import workloads

    for name in run.WORKLOADS:
        first, again, other = (json.dumps(workloads.build(name, s, scratch).inputs,
                                          default=str) for s in (11, 11, 12))
        expect(first == again, f"{name}: one seed gave two different inputs")
        expect(first != other, f"{name}: seeds 11 and 12 gave the same inputs")
    print("ok  inputs are a function of the seed, and differ between seeds")


def check_tracing(scratch: str) -> None:
    import levyfield.quadrature
    import tracer as tracing

    original = levyfield.quadrature.box_integral
    wl = run._setup("marginals", 3, scratch)
    expect(tracing.installed_wrappers() == [],
           "a wrapper is installed before any traced pass")
    untraced_s, _ = run._run_pass(wl)
    expect(tracing.installed_wrappers() == [],
           "an untraced pass left a wrapper installed")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        expect(levyfield.quadrature.box_integral is not original,
               "install did not wrap quadrature.box_integral")
        traced_s, results = run._run_pass(wl, tracer, "0")
    finally:
        tracer.uninstall()
    expect(levyfield.quadrature.box_integral is original,
           "uninstall did not restore quadrature.box_integral")
    expect(tracing.installed_wrappers() == [],
           "uninstall left wrappers behind")
    expect(all(error is None for _, error in results), "a traced operation raised")
    self_total = sum(tracing.module_self_times(tracer).values())
    expect(0.0 < self_total <= traced_s,
           f"module self times {self_total:.3f} s vs traced pass {traced_s:.3f} s")
    print(f"ok  untraced pass {untraced_s:.2f} s with no wrapper; traced pass "
          f"{traced_s:.2f} s with module self times summing to {self_total:.2f} s")


def main() -> int:
    run._import_program()
    warnings.simplefilter("ignore")
    os.makedirs(run.OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=run.OUT, prefix="selfcheck-")
    try:
        check_metric_names()
        check_inputs(scratch)
        check_tracing(scratch)
        check_replay(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
