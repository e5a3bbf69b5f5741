import json
import os
import subprocess
import sys

import pytest

from gpcpd import BenchConfig, BenchInstance, FormatError, run_benchmark
from gpcpd.bench import _aggregate, load_config, write_report


def small_config(**kw):
    defaults = dict(
        instances=[BenchInstance(rank=4, count=2, dims=(5, 3, 3))],
        seed=7,
        methods=("ts",),
        time_limit=60.0,
    )
    defaults.update(kw)
    return BenchConfig(**defaults)


def test_aggregation_definitions():
    runs = [
        {"instance": "a", "rank": 2, "method": "ts", "err_rel": 1e-9, "time": 1.0, "success": True, "timed_out": False},
        {"instance": "a", "rank": 2, "method": "ts", "err_rel": 3e-9, "time": 3.0, "success": True, "timed_out": False},
        {"instance": "a", "rank": 2, "method": "ts", "err_rel": 0.5, "time": 9.0, "success": False, "timed_out": False},
        {"instance": "a", "rank": 2, "method": "als", "err_rel": 0.9, "time": 2.0, "success": False, "timed_out": False},
    ]
    rows = _aggregate(runs)
    ts = next(r for r in rows if r["method"] == "ts")
    als = next(r for r in rows if r["method"] == "als")
    assert ts["time"] == pytest.approx(2.0)  # mean over successes only
    assert ts["error"] == pytest.approx(2e-9)
    assert ts["s_rate"] == pytest.approx(2 / 3)
    assert als["time"] is None and als["error"] is None and als["s_rate"] == 0.0


def test_empty_instance_list_gives_empty_report():
    report = run_benchmark(BenchConfig(instances=[], seed=0, methods=("ts",)))
    assert report.runs == [] and report.aggregates == []


def test_benchmark_reproducibility():
    cfg = small_config()
    r1 = run_benchmark(cfg)
    r2 = run_benchmark(cfg)
    strip = lambda runs: [{k: v for k, v in r.items() if k != "time"} for r in runs]
    assert strip(r1.runs) == strip(r2.runs)


def test_worker_pool_matches_serial():
    cfg = small_config()
    serial = run_benchmark(cfg)
    pooled = run_benchmark(small_config(workers=2))
    strip = lambda runs: [{k: v for k, v in r.items() if k != "time"} for r in runs]
    assert strip(serial.runs) == strip(pooled.runs)


def test_fixture_instance_and_csv_columns(tmp_path):
    cfg = BenchConfig(
        instances=[BenchInstance(rank=5, count=2, fixture="example41")],
        seed=3,
        methods=("ts",),
    )
    report = run_benchmark(cfg)
    assert all(r["success"] for r in report.runs)
    out = tmp_path / "report.csv"
    write_report(report, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dims,rank,method,time,error,s_rate"
    assert lines[1].startswith("example41,5,ts,")


def test_json_report_contains_recipe(tmp_path):
    report = run_benchmark(small_config())
    out = tmp_path / "report.json"
    write_report(report, str(out))
    obj = json.loads(out.read_text())
    assert obj["recipe"]["distribution"] == "normal"
    assert len(obj["runs"]) == 2
    assert obj["aggregates"][0]["s_rate"] == 1.0


def test_config_loading_and_validation(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "instances": [
                    {"dims": [5, 3, 3], "rank": 4, "count": 1},
                    {"fixture": "example41", "rank": 5, "count": 1},
                ],
                "seed": 5,
                "methods": ["ts", "als"],
            }
        )
    )
    cfg = load_config(path)
    assert cfg.instances[0].dims == (5, 3, 3)
    assert cfg.instances[1].fixture == "example41"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"instances": [{"dims": [3, 4, 3], "rank": 2, "count": 1}]}))
    with pytest.raises(FormatError):
        load_config(bad)  # dims not descending
    bad.write_text("{")
    with pytest.raises(FormatError):
        load_config(bad)


def test_instance_validation():
    with pytest.raises(FormatError):
        BenchInstance(rank=2, count=1, dims=(4, 3, 3), fixture="example41").validate()
    with pytest.raises(FormatError):
        BenchInstance(rank=2, count=1).validate()
    with pytest.raises(FormatError):
        BenchInstance(rank=2, count=0, dims=(4, 3, 3)).validate()
    with pytest.raises(FormatError):
        BenchConfig(instances=[], methods=("nls",)).validate()


@pytest.mark.parametrize(
    "setting",
    [
        {"success_tol": 0},
        {"success_tol": -1e-6},
        {"success_tol": float("nan")},
        {"success_tol": "1e-6"},
        {"time_limit": -1},
        {"time_limit": 0},
        {"time_limit": float("inf")},
    ],
    ids=["tol-zero", "tol-negative", "tol-nan", "tol-string", "limit-negative", "limit-zero", "limit-inf"],
)
def test_config_rejects_bad_solver_settings(tmp_path, setting):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"instances": [{"dims": [5, 3, 3], "rank": 4, "count": 1}], **setting}))
    with pytest.raises(FormatError):
        load_config(path)
    with pytest.raises(FormatError):
        small_config(**setting).validate()


@pytest.mark.parametrize(
    "config",
    [
        {"instances": [{"dims": [5, 3, 3], "rank": 4}], "workers": "two"},
        {"instances": [{"dims": [5, 3, 3], "rank": 4}], "workers": True},
        {"instances": [{"dims": [5, 3, 3], "rank": "4"}]},
        {"instances": [{"dims": [5, 3, 3], "rank": 4, "count": 1.5}]},
        {"instances": [{"dims": [5, 3], "rank": 4}]},
        {"instances": [{"dims": 5, "rank": 4}]},
        {"instances": [{"dims": [5, "3", 3], "rank": 4}]},
        {"instances": [{"fixture": ["example41"], "rank": 5}]},
        {"instances": [{"dims": [5, 3, 3], "rank": 4}], "seed": -1},
        {"instances": [{"dims": [5, 3, 3], "rank": 4}], "seed": "7"},
        {"instances": [{"dims": [5, 3, 3], "rank": 4}], "methods": 5},
        {"instances": 5},
    ],
    ids=[
        "workers-string", "workers-bool", "rank-string", "count-float", "dims-two", "dims-scalar",
        "dims-string-entry", "fixture-list", "seed-negative", "seed-string", "methods-scalar", "instances-scalar",
    ],
)
def test_config_rejects_malformed_fields(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    with pytest.raises(FormatError):
        load_config(path)


def test_importing_the_package_leaves_the_process_pool_unloaded():
    # the pool is imported where it is used, so importing the package does not load multiprocessing
    import gpcpd

    src = os.path.dirname(os.path.dirname(gpcpd.__file__))
    code = "import sys, gpcpd; print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
