"""Command-line interface contract: exit codes, outputs, determinism."""

import json

import numpy as np
import pytest

from airpfl.cli import cli_main
from airpfl.powopt import RatioProblem, solve_projected_ascent


@pytest.fixture
def system_doc():
    return {
        "num_devices": 6,
        "num_clusters": 2,
        "num_ris_elements": 8,
        "model_dim": 4,
        "cluster_of": [0, 0, 0, 1, 1, 1],
        "max_power": [1.0] * 6,
        "noise_var": 1e-9,
        "master_seed": 3,
    }


@pytest.fixture
def system_path(tmp_path, system_doc):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_doc))
    return str(path)


def test_requires_subcommand():
    assert cli_main([]) == 2


def test_unknown_subcommand_exits_2():
    assert cli_main(["simulate"]) == 2


def test_unknown_flag_exits_2(system_path):
    assert cli_main(["train", "--config", system_path, "--bogus", "1"]) == 2


def test_missing_config_file_exits_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli_main(["verify-elimination", "--config", missing, "--trials", "100"]) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli_main(["verify-elimination", "--config", str(path)]) == 2
    assert "bad config" in capsys.readouterr().err


def test_invalid_config_values_exit_2(tmp_path, system_doc):
    system_doc["noise_var"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(system_doc))
    assert cli_main(["verify-elimination", "--config", str(path), "--trials", "50"]) == 2


def test_verify_elimination_happy_path(tmp_path, system_path, capsys):
    out = tmp_path / "elim.csv"
    code = cli_main(
        [
            "verify-elimination",
            "--config", system_path,
            "--trials", "4000",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "verify-elimination:" in captured.out
    assert captured.out.count("\n") == 1
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "m,k,same_cluster,mean,stderr,target,pass"


def test_nmse_sweep_happy_path(tmp_path, system_doc, capsys):
    doc = {
        "system": system_doc,
        "schemes": ["ideal", "unbiased"],
        "n_values": [4, 8],
        "p_values": [1.0],
        "trials": 30,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    code = cli_main(
        ["nmse-sweep", "--config", str(cfg_path), "--seed", "4", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "nmse-sweep:" in captured.out
    lines = out.read_text().splitlines()
    assert lines[0] == "N,P_max,scheme,trials,nmse_mean,nmse_stderr,seed"
    assert len(lines) == 1 + 2 * 2


def test_power_opt_happy_path(tmp_path, capsys):
    doc = {
        "A": [[1.0, 0.5], [0.2, 1.0]],
        "b": [[1.0, 0.3], [0.4, 1.2]],
        "c": [0.5, 0.7],
        "bounds": [1.0, 1.0],
    }
    cfg_path = tmp_path / "prob.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "solution.json"
    code = cli_main(
        ["power-opt", "--config", str(cfg_path), "--seed", "5", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "power-opt:" in captured.out

    solution = json.loads(out.read_text())
    prob = RatioProblem(
        a_diag=np.array(doc["A"]),
        b=np.array(doc["b"]),
        c=np.array(doc["c"]),
        bounds=np.array(doc["bounds"]),
    )
    ref = solve_projected_ascent(prob, seed=5)
    assert solution["converged"] == ref.converged
    assert solution["objective"] == pytest.approx(ref.objective, rel=1e-12)
    assert np.allclose(solution["q"], ref.q, rtol=1e-12)


def test_train_happy_path(tmp_path, system_path, capsys):
    out = tmp_path / "train.csv"
    code = cli_main(
        [
            "train",
            "--config", system_path,
            "--scheme", "unbiased",
            "--rounds", "8",
            "--eta", "0.05",
            "--seed", "6",
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "train[unbiased]:" in captured.out
    lines = out.read_text().splitlines()
    assert lines[0] == "round,cluster,loss,nmse,scheme,seed"
    assert len(lines) == 1 + 8 * 2


def test_train_rejects_unknown_scheme(system_path):
    assert cli_main(["train", "--config", system_path, "--scheme", "perfect"]) == 2
    assert cli_main(["train", "--config", system_path, "--scheme", "ideal-1bit"]) == 2
    assert cli_main(["train", "--config", system_path, "--scheme", "mmse-0bit"]) == 2


def test_train_accepts_quantized_scheme(tmp_path, system_path, capsys):
    out = tmp_path / "train.csv"
    argv = ["train", "--config", system_path, "--scheme", "unbiased-1bit", "--rounds", "3",
            "--seed", "6", "--out", str(out)]
    assert cli_main(argv) == 0
    assert "train[unbiased-1bit]:" in capsys.readouterr().out
    assert out.read_text().splitlines()[1].endswith(",unbiased-1bit,6")


@pytest.mark.parametrize(
    "schemes", [["mmse", "mmse"], ["unbiased", "mmse-0bit"], ["ideal-2bit"]],
    ids=["repeated", "zero-bits", "ideal-bits"],
)
def test_sweep_with_malformed_schemes_exits_2(tmp_path, system_doc, capsys, schemes):
    doc = {"system": system_doc, "schemes": schemes, "n_values": [4], "p_values": [1.0],
           "trials": 10}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["nmse-sweep", "--config", str(cfg_path)]) == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv_builder",
    [
        lambda p, tmp: ["verify-elimination", "--config", p, "--trials", "4000",
                        "--seed", "5", "--out", str(tmp / "a.csv")],
        lambda p, tmp: ["train", "--config", p, "--rounds", "6", "--seed", "5",
                        "--out", str(tmp / "a.csv")],
    ],
)
def test_repeated_runs_are_byte_identical(tmp_path, system_path, capsys, argv_builder):
    dir_a = tmp_path / "runa"
    dir_b = tmp_path / "runb"
    dir_a.mkdir()
    dir_b.mkdir()
    assert cli_main(argv_builder(system_path, dir_a)) == 0
    first = capsys.readouterr().out
    assert cli_main(argv_builder(system_path, dir_b)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert (dir_a / "a.csv").read_bytes() == (dir_b / "a.csv").read_bytes()
