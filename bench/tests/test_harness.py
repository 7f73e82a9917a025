"""Smoke test of the benchmark harness at a small size.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hahnvar as hv  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "series", "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {seed: _bench(seed) for seed in (1, 2)}


def _specs(seed: int) -> list[str]:
    """Specs of the first 40 rounds."""
    stream, _ = workloads.build("series", seed, ROOT)
    return [op.spec for ops in itertools.islice(stream, 40) for op in ops]


def test_one_command_prints_every_metric_with_its_unit(results):
    out = results[1]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == want
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert out["correct"] and out["attempted"] >= 1


def test_reference_checks_count_a_wrong_result_as_failed(monkeypatch):
    clean = run.run_rounds(workloads.build("series", 1, ROOT)[0], count=1)
    assert clean["correct"] and clean["failed"] == 0

    real = hv.integral

    def off_by_one(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, value=res.value + 1.0)

    monkeypatch.setattr(hv, "integral", off_by_one)
    broken = run.run_rounds(workloads.build("series", 1, ROOT)[0], count=1)
    # Both round-trip ops (callable and DSL) integrate through hv.integral.
    assert broken["failed"] == 2
    assert not broken["correct"]


def test_defect_cases_are_reported_without_a_result_line():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--defects"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    cases = len(workloads.defect_ops(ROOT))
    assert len(lines) == 2 * cases + 1
    assert lines[-1].endswith(f"of {cases} known-defect cases fail")


def test_seed_changes_inputs_not_the_metric_set(results):
    assert _specs(1) == _specs(1)
    assert _specs(1) != _specs(2)
    # Rounds are drawn as the run goes, so no drawn input repeats.  The
    # double-well specs do not spell out their input (ystar is fixed).
    drawn = [spec for spec in _specs(1) if not spec.startswith("double-well")]
    assert len(set(drawn)) == len(drawn)
    assert set(results[1]["metrics"]) == set(results[2]["metrics"])


def test_tracer_restores_every_function_and_accounts_for_the_time():
    def bindings():
        return {
            (name, attr): value
            for name, module in sys.modules.items() if name.startswith("hahnvar")
            for attr, value in vars(module).items()
        }

    before = bindings()
    value_before = hv.Lagrangian.value
    rounds, _ = workloads.build("series", 1, ROOT)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert hv.functional_value is not before[("hahnvar", "functional_value")]
        t0 = time.perf_counter_ns()
        stats = run.run_rounds(rounds, count=1)
        wall_ms = (time.perf_counter_ns() - t0) / 1e6
    finally:
        tracer.uninstall()
    assert bindings() == before and hv.Lagrangian.value is value_before
    assert stats["correct"]
    metrics = layers.per_layer_metrics(tracer)
    assert metrics["dsl.Lagrangian.partial.calls"] == 0
    assert metrics["variational.functional_value.calls"] == 5
    assert 0.5 * wall_ms < tracer.span_ms() <= wall_ms
