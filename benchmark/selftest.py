"""Checks of the benchmark itself.

    python3 -m pytest benchmark/selftest.py

The name keeps these out of the repository's default test collection: the
traced workload runs take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from layers import UNITS  # noqa: E402
from speed import REFERENCE_NS, reference_ns  # noqa: E402
from tracer import TRACED, Tracer, check_spans, self_times, wpvol_modules  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def tracer():
    import wpvol  # noqa: F401  (loads every module that binds a traced name)
    import wpvol.cli  # noqa: F401

    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_every_binding_site_is_wrapped(tracer):
    import wpvol.cli
    import wpvol.compute
    import wpvol.intersections
    import wpvol.stringdilaton

    originals = {id(original) for _, _, original in tracer._restore}
    for module in wpvol_modules():
        for name, value in vars(module).items():
            assert id(value) not in originals, f"{module.__name__}.{name} is not wrapped"
    for bound in (
        wpvol.compute.mirzakhani_volume,
        wpvol.cli.ensure_volume,
        wpvol.intersections.ensure_volume,
        wpvol.stringdilaton.stratified_lift,
    ):
        assert hasattr(bound, "__wrapped__")
    assert len(tracer._restore) >= len(TRACED)


def test_uninstall_restores_the_originals():
    import wpvol.cli
    import wpvol.compute

    before = wpvol.cli.ensure_volume
    t = Tracer()
    t.install()
    assert wpvol.cli.ensure_volume is not before
    t.uninstall()
    assert wpvol.cli.ensure_volume is before
    assert wpvol.compute.ensure_volume is before


def test_spans_nest_and_self_times_are_nonnegative(tracer):
    from wpvol import compute
    from wpvol.store import VolumeStore

    store = VolumeStore()
    tracer.rid = "lift"
    compute.lift_volume(store, 1, 4)
    tracer.rid = "closed"
    compute.ensure_volume(store, 2, 0)
    spans = tracer.spans
    names = {s[2] for s in spans}
    assert {"compute.lift_volume", "mirzakhani.mirzakhani_volume",
            "symmetric.stratified_lift", "store.VolumeStore.put"} <= names
    assert check_spans(spans) == []
    own = self_times(spans)
    assert min(own.values()) >= 0
    roots = sum(s[4] - s[3] for s in spans if s[1] < 0)
    assert sum(own.values()) == roots


def test_check_spans_reports_a_child_outside_its_parent():
    spans = [(0, -1, "outer", 10, 20, "r", None), (1, 0, "inner", 15, 25, "r", None)]
    assert len(check_spans(spans)) == 1
    assert self_times([(0, -1, "a", 0, 10, "r", None), (1, 0, "b", 2, 5, "r", None)]) == {0: 7, 1: 3}


def test_reference_time_drops_calibration_and_rescales():
    samples = [(0, REFERENCE_NS), (50 * REFERENCE_NS, 2 * REFERENCE_NS)]
    # one sample inside at full speed, one after at half speed
    assert reference_ns(samples, 0, 40 * REFERENCE_NS) == pytest.approx(39 * REFERENCE_NS * 0.75)


def run_bench(cwd: Path, *args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_exercises_each_layer_it_should(workload, tmp_path):
    env = dict(os.environ, WPVOL_CACHE=str(tmp_path / "user-cache"))
    default_cache = ROOT / "wpvol-cache"
    had_default_cache = default_cache.exists()
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", "1", env=env)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(UNITS)
    assert info["expectation_failures"] == []
    assert info["problems"] == []
    assert info["wpvol_file"] == [str(ROOT / "src" / "wpvol" / "__init__.py")]
    assert not (tmp_path / "user-cache").exists()
    assert default_cache.exists() == had_default_cache
    assert list((ROOT / ".bench_tmp").iterdir()) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "lift_chain", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
