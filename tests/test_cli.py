import json

import numpy as np
import pytest

from gpcpd import Tensor3, load_factors, load_tensor, relative_error, save_tensor
from gpcpd.cli import cli_main


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixture_then_decompose_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "fixture", "--name", "example41", "--out", str(tmp_path))
    assert code == 0
    paths = json.loads(out)
    factors_path = tmp_path / "out_factors.json"
    code, out, _ = run_cli(
        capsys,
        "decompose",
        "--input", paths["tensor"],
        "--rank", "5",
        "--seed", "0",
        "--output", str(factors_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["err_rel"] <= 1e-6
    assert summary["success"] is True
    factors = load_factors(factors_path)
    tensor = load_tensor(paths["tensor"])
    assert relative_error(tensor, factors) <= 1e-6


def test_unsupported_rank_is_usage_error(tmp_path, capsys):
    run_cli(capsys, "fixture", "--name", "example41", "--out", str(tmp_path))
    code, _, err = run_cli(
        capsys, "decompose", "--input", str(tmp_path / "example41_tensor.json"), "--rank", "99"
    )
    assert code == 2
    assert "rank" in err


def test_malformed_tensor_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2, 2, 2], "data": []}')
    code, _, err = run_cli(capsys, "decompose", "--input", str(bad), "--rank", "2")
    assert code == 2
    assert err


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "decompose", "--input", str(tmp_path / "nope.json"), "--rank", "2")
    assert code == 2


def test_bench_subcommand_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "instances": [
                    {"dims": [5, 3, 3], "rank": 4, "count": 1},
                    {"dims": [4, 3, 3], "rank": 2, "count": 1},
                ],
                "seed": 11,
                "methods": ["ts"],
            }
        )
    )
    out = tmp_path / "report.csv"
    code, stdout, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dims,rank,method,time,error,s_rate"
    assert len(lines) == 3
    assert "5x3x3" in stdout


def test_bench_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    code, _, _ = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
    assert code == 2


def test_check_jacobians_passes(tmp_path, capsys, monkeypatch):
    import gpcpd.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_JACOBIAN_PROFILES", [(5, 3, 3, 5), (6, 4, 3, 5)])
    code, out, _ = run_cli(capsys, "check-jacobians", "--seed", "1")
    assert code == 0
    assert "OK" in out


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_solve_failure_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(0)
    t = Tensor3(rng.standard_normal((4, 3, 3)))  # generic full-rank data
    path = tmp_path / "t.json"
    save_tensor(t, path)
    code, _, _ = run_cli(capsys, "decompose", "--input", str(path), "--rank", "4", "--seed", "1")
    assert code == 1


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_invalid_tolerance_is_usage_error(tmp_path, capsys, tol):
    run_cli(capsys, "fixture", "--name", "example41", "--out", str(tmp_path))
    code, _, err = run_cli(
        capsys, "decompose", "--input", str(tmp_path / "example41_tensor.json"), "--rank", "5", "--tol", tol
    )
    assert code == 2
    assert "success_tol" in err


def test_negative_seed_is_usage_error(tmp_path, capsys):
    run_cli(capsys, "fixture", "--name", "example41", "--out", str(tmp_path))
    code, _, err = run_cli(
        capsys, "decompose", "--input", str(tmp_path / "example41_tensor.json"), "--rank", "5", "--seed", "-1"
    )
    assert code == 2
    assert "seed" in err


def test_non_finite_tensor_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"dims": [1, 1, 2], "data": [[NaN, 0.0], [1.0, 0.0]]}')
    code, _, err = run_cli(capsys, "decompose", "--input", str(bad), "--rank", "1")
    assert code == 2
    assert "finite" in err


def test_bench_config_with_zero_tolerance_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [{"dims": [5, 3, 3], "rank": 4, "count": 1}], "success_tol": 0}))
    code, _, err = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "success_tol" in err


def test_bench_config_with_malformed_field_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": [{"dims": [5, 3, 3], "rank": 4, "count": 1}], "workers": "two"}))
    code, _, err = run_cli(capsys, "bench", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "workers" in err
