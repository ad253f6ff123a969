"""Command-line interface contract: exit codes, outputs, determinism."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import airpfl
from airpfl import harness
from airpfl.cli import cli_main
from airpfl.powopt import RatioProblem, solve_projected_ascent
from power_oracle import brute_force_oracle


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


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency. scipy is installed next to
    # the tests, so only a fresh interpreter shows a stray import of it.
    src = str(Path(airpfl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, airpfl, airpfl.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def _has_mallopt():
    return sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not _has_mallopt(), reason="needs Linux and a libc with mallopt")
def test_repeated_cli_sweeps_reuse_their_pages(tmp_path):
    # A fresh interpreter, so the heap's history is the CLI's alone. With
    # glibc's default thresholds the second of two identical 300-trial desk
    # sweeps faults in about 11 700 fresh pages; with the CLI's, a handful.
    system = json.loads(harness.desk_scale_config().to_json())
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"system": system, "trials": 300}))
    code = (
        "import resource, sys\n"
        "from airpfl.cli import cli_main\n"
        "argv = ['nmse-sweep', '--config', sys.argv[1], '--out']\n"
        "assert cli_main(argv + [sys.argv[2]]) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert cli_main(argv + [sys.argv[3]]) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(airpfl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, str(config), str(first), str(second)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert first.read_bytes() == second.read_bytes()
    assert int(out.stdout.split()[-1]) < 2_000


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


_POWER_DOC = {"A": [[1.0, 0.5], [0.2, 1.0]], "b": [[1.0, 0.3], [0.4, 1.2]], "c": [0.5, 0.7],
              "bounds": [1.0, 1.0]}


@pytest.mark.parametrize(
    "command, document, out_name, code, message",
    [("power-opt", _POWER_DOC, "missing/solution.json", 1, "airpfl: error:"),
     ("verify-elimination", None, None, 2, "bad config: cannot read"),
     ("nmse-sweep", {"n_values": [4]}, None, 2, "has no 'system' field"),
     ("power-opt", {k: v for k, v in _POWER_DOC.items() if k != "A"}, None, 2,
      "has no 'A' field")],
    ids=["unwritable-power-out", "config-is-a-directory", "sweep-without-system",
         "power-without-A"],
)
def test_input_and_output_faults_exit_with_their_class(
    tmp_path, capsys, command, document, out_name, code, message
):
    # An input that cannot be read (here a directory, for document None),
    # or lacks a required field, is a bad config (exit 2) whose message
    # names it; an output that cannot be written is a runtime failure
    # (exit 1) for every subcommand.
    path = tmp_path / "doc.json"
    if document is None:
        path = tmp_path
    else:
        path.write_text(json.dumps(document))
    argv = [command, "--config", str(path)]
    if out_name is not None:
        argv += ["--out", str(tmp_path / out_name)]
    assert cli_main(argv) == code
    err = capsys.readouterr().err
    assert message in err
    assert ("usage:" in err) == (code == 2)


def test_invalid_config_values_exit_2(tmp_path, system_doc):
    system_doc["noise_var"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(system_doc))
    assert cli_main(["verify-elimination", "--config", str(path), "--trials", "50"]) == 2


@pytest.mark.parametrize(
    "command, document",
    [(c, d) for c in ("verify-elimination", "train", "nmse-sweep", "power-opt")
     for d in ("5", "null", "[1, 2]", '"config"')]
    + [("nmse-sweep", f'{{"system": {d}}}') for d in ("5", "null", "[1, 2]")],
)
def test_a_config_that_is_not_a_json_object_exits_2(tmp_path, capsys, command, document):
    # These once stopped inside the config reader with exit 1 and a
    # bare "airpfl: error: argument of type 'int' is not iterable".
    path = tmp_path / "doc.json"
    path.write_text(document)
    assert cli_main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "bad config" in captured.err and "JSON object" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "field, value",
    [("num_ris_elements", "16"), ("model_dim", 4.9), ("master_seed", 3.7),
     ("num_ris_elements", True), ("cluster_of", [0, 0, 0.5, 1, 1, 1]),
     ("noise_var", "1e-9"), ("max_power", [1.0] * 5 + [True])],
    ids=["string-N", "fractional-model-dim", "fractional-seed", "bool-N",
         "fractional-cluster", "string-noise", "bool-power"],
)
def test_config_values_are_not_coerced(tmp_path, system_doc, capsys, field, value):
    system_doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(system_doc))
    assert cli_main(["verify-elimination", "--config", str(path), "--trials", "50"]) == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["1", "0"])
def test_verify_elimination_with_too_few_trials_exits_2(system_path, capsys, trials):
    assert cli_main(["verify-elimination", "--config", system_path, "--trials", trials]) == 2
    assert "bad config" in capsys.readouterr().err


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
    assert header == "m,k,same_cluster,mean,stderr,target,pass,z"


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
        a_diag=np.array([doc["A"]]),
        b=np.array([doc["b"]]),
        c=np.array(doc["c"]),
        bounds=np.array(doc["bounds"]),
    )
    ref = solve_projected_ascent(prob, [5])
    assert solution["converged"] == ref.converged
    assert solution["objective"] == pytest.approx(ref.objective[0], rel=1e-12)
    assert np.allclose(solution["q"], ref.q[0], rtol=1e-12)


def test_power_opt_interior_optimum(tmp_path, capsys):
    # An instance whose optimum leaves the box corner: q[1] lies strictly
    # inside its bound, so the solve takes interior ascent cycles, and
    # its objective reaches at least that of a 400-point grid search.
    doc = {
        "A": [[1.0, 0.5], [0.2, 1.0]],
        "b": [[1.0, 3.0], [4.0, 1.2]],
        "c": [0.1, 0.1],
        "bounds": [1.0, 1.0],
    }
    cfg_path = tmp_path / "prob.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "solution.json"
    code = cli_main(
        ["power-opt", "--config", str(cfg_path), "--seed", "1", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "converged=True" in captured.out
    assert int(captured.out.split("iterations=")[1].split(",")[0]) > 1

    solution = json.loads(out.read_text())
    assert solution["converged"] is True
    assert 0.0 < solution["q"][1] < 1.0
    prob = RatioProblem(
        a_diag=np.array([doc["A"]]),
        b=np.array([doc["b"]]),
        c=np.array(doc["c"]),
        bounds=np.array(doc["bounds"]),
    )
    assert solution["objective"] >= brute_force_oracle(prob, 400).objective[0]


@pytest.mark.parametrize(
    "field, value",
    [("c", [0.5, 0.7, 0.1]), ("A", [[1.0, -0.5], [0.2, 1.0]]), ("A", [[1.0, 0.5], [0.2]]),
     ("bounds", ["one", 1.0]), ("A", [["1.0", 0.5], [0.2, 1.0]]), ("bounds", [1.0, True]),
     ("bounds", ["1", "1"])],
    ids=["wrong-length-c", "negative-A", "ragged-A", "text-bounds", "numeric-text-A",
         "boolean-bounds", "numeric-text-bounds"],
)
def test_power_opt_malformed_instance_exits_2(tmp_path, capsys, field, value):
    doc = {
        "A": [[1.0, 0.5], [0.2, 1.0]],
        "b": [[1.0, 0.3], [0.4, 1.2]],
        "c": [0.5, 0.7],
        "bounds": [1.0, 1.0],
        field: value,
    }
    cfg_path = tmp_path / "prob.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["power-opt", "--config", str(cfg_path)]) == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes",
    [{"A": [[1.0, float("nan")], [0.5, 0.5]], "bounds": [1.0, float("inf")]},
     {"b": [[1.0, float("-inf")], [0.4, 1.2]]}, {"c": [0.5, float("nan")]}],
    ids=["nan-A-inf-bounds", "inf-b", "nan-c"],
)
def test_power_opt_non_finite_instance_exits_2(tmp_path, capsys, changes):
    # json.dumps writes NaN and Infinity tokens, which json.load reads
    # back; the instance must be refused, not solved and reported as
    # converged with a NaN objective.
    doc = {
        "A": [[1.0, 0.5], [0.2, 1.0]],
        "b": [[1.0, 0.3], [0.4, 1.2]],
        "c": [0.5, 0.7],
        "bounds": [1.0, 1.0],
        **changes,
    }
    cfg_path = tmp_path / "prob.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "solution.json"
    assert cli_main(["power-opt", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "bad config" in captured.err and "non-finite" in captured.err
    assert captured.out == "" and not out.exists()


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


def test_train_rejects_unknown_scheme(system_path, capsys):
    # The label is parsed once, by the training driver: a bad one is a
    # bad config, refused in the words of flsim.parse_scheme.
    for label in ("perfect", "ideal-1bit", "mmse-0bit"):
        assert cli_main(["train", "--config", system_path, "--scheme", label]) == 2
        err = capsys.readouterr().err
        assert err.startswith("airpfl: bad config:") and repr(label) in err


def test_train_rejects_negative_seed(system_path, capsys):
    assert cli_main(["train", "--config", system_path, "--rounds", "2", "--seed", "-5"]) == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["nan", "inf", "-0.05", "0"])
def test_train_rejects_a_learning_rate_that_is_not_positive_and_finite(system_path, capsys, eta):
    assert cli_main(["train", "--config", system_path, "--rounds", "2", "--eta", eta]) == 2
    assert "learning rate" in capsys.readouterr().err


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_train_with_too_few_rounds_exits_2(system_path, capsys, rounds):
    assert cli_main(["train", "--config", system_path, "--rounds", rounds]) == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("samples_per_device", 0), ("label_noise", -1), ("samples_per_device", 7.5),
     ("samples_per_device", "8"), ("label_noise", "0.1"), ("samples_per_device", True),
     ("label_noise", True)],
    ids=["zero-samples", "negative-noise", "fractional-samples", "string-samples",
         "string-noise", "bool-samples", "bool-noise"],
)
def test_train_with_malformed_task_exits_2(tmp_path, system_doc, capsys, field, value):
    system_doc[field] = value
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_doc))
    assert cli_main(["train", "--config", str(path), "--rounds", "2"]) == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_a_diverging_training_run_exits_1(system_path, capsys):
    # Divergence is a runtime failure, reported the same way under every
    # scheme; under mmse+powopt it once surfaced from the power solver as
    # a malformed config (exit 2).
    argv = ["train", "--config", system_path, "--scheme", "mmse+powopt",
            "--eta", "50", "--rounds", "400"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert "diverged" in captured.err and "bad config" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["nmse-sweep", "verify-elimination", "train"])
@pytest.mark.parametrize(
    "changes",
    [{"ps_ris_distance": 1e200, "pathloss_exponent": 4}, {"ps_ris_distance": 1e-200}],
    ids=["underflow", "overflow"],
)
def test_attenuation_that_is_not_finite_and_positive_exits_2(
    tmp_path, system_doc, capsys, command, changes
):
    # An all-zero channel once passed every verifier check, and an
    # infinite one failed at run time (or, under -W error, on a warning).
    system_doc.update(changes)
    doc, extra = system_doc, ["--rounds", "3"]
    if command == "nmse-sweep":
        doc = {"system": system_doc, "schemes": ["unbiased"], "n_values": [4],
               "p_values": [1.0], "trials": 20}
        extra = []
    elif command == "verify-elimination":
        extra = ["--trials", "200"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli_main([command, "--config", str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert "bad config" in captured.err and "large-scale coefficients" in captured.err
    assert captured.out == ""


def test_a_sweep_whose_design_overflows_exits_1_and_writes_nothing(tmp_path, capsys):
    # The statistical design's powers overflow to NaN on this deployment:
    # a runtime failure, named by the round's power check, not NaN cells.
    system = {"num_devices": 4, "num_clusters": 2, "num_ris_elements": 8, "model_dim": 4,
              "cluster_of": [0, 0, 1, 1], "max_power": 1.0, "noise_var": 1e-9,
              "master_seed": 1, "ps_ris_distance": 1e70, "device_disk_radius": 1e70,
              "pathloss_exponent": 4}
    doc = {"system": system, "schemes": ["unbiased", "mmse", "mmse+powopt"],
           "n_values": [4, 8], "p_values": [1.0], "trials": 20}
    path, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    path.write_text(json.dumps(doc))
    with pytest.warns(RuntimeWarning):  # the overflow itself (ROADMAP item 6)
        code = cli_main(["nmse-sweep", "--config", str(path), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "airpfl: error: powers must be finite and non-negative" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_elimination_rejects_out_of_range_seed(system_path, capsys, seed):
    argv = ["verify-elimination", "--config", system_path, "--trials", "10", "--seed", seed]
    assert cli_main(argv) == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_power_opt_rejects_out_of_range_seed(tmp_path, capsys, seed):
    doc = {"A": [[1.0, 0.5], [0.2, 1.0]], "b": [[1.0, 0.3], [0.4, 1.2]], "c": [0.5, 0.7],
           "bounds": [1.0, 1.0]}
    cfg_path = tmp_path / "prob.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["power-opt", "--config", str(cfg_path), "--seed", seed]) == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_sweep_rejects_out_of_range_seed(tmp_path, system_doc, capsys, seed):
    doc = {"system": system_doc, "schemes": ["mmse"], "n_values": [4], "p_values": [1.0],
           "trials": 10}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["nmse-sweep", "--config", str(cfg_path), "--seed", seed]) == 2
    assert "bad config" in capsys.readouterr().err


def test_sweep_config_digest_names_the_seed_that_ran(tmp_path, system_doc, capsys):
    # --seed replaces the config's master_seed, so the printed digest
    # covers the seed that ran, and overriding a config's seed gives the
    # run of the config that carries that seed.
    def run(master_seed, *seed):
        doc = {"system": {**system_doc, "master_seed": master_seed},
               "schemes": ["unbiased", "mmse"], "n_values": [4], "p_values": [1.0], "trials": 20}
        cfg_path, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["nmse-sweep", "--config", str(cfg_path), *seed, "--out", str(out)]) == 0
        return capsys.readouterr().out, out.read_bytes()

    def digest(stdout):
        return stdout.split("config=")[1].strip()

    assert digest(run(3, "--seed", "1")[0]) != digest(run(3, "--seed", "2")[0])
    assert run(9, "--seed", "1") == run(1)


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
    "field, value",
    [("schemes", []), ("n_values", []), ("p_values", []), ("schemes", "mmse"), ("n_values", 4),
     ("p_values", 1.0)],
    ids=["empty-schemes", "empty-N", "empty-P", "text-schemes", "scalar-N", "scalar-P"],
)
def test_sweep_with_an_empty_or_scalar_list_exits_2(tmp_path, system_doc, capsys, field, value):
    # An empty list once ran no cell (schemes) or died in the trials
    # with a bare "airpfl: error:" (sizes, budgets); a scalar one died
    # with exit 1, or was read letter by letter.
    doc = {"system": system_doc, "schemes": ["mmse"], "n_values": [4], "p_values": [1.0],
           "trials": 10, field: value}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli_main(["nmse-sweep", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "bad config" in captured.err and field in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "n_values, p_values, trials",
    [([4, 4], [1.0], 10), ([0], [1.0], 10), ([4], [-1.0], 10), ([16.7], [1.0], 10),
     (["16"], [1.0], 10), ([4], [1.0], 7.5), ([4], ["0.5"], 10), ([4], ["abc"], 10),
     ([4], [True], 10)],
    ids=["repeated-N", "zero-N", "negative-P", "fractional-N", "string-N", "fractional-trials",
         "string-P", "text-P", "bool-P"],
)
def test_sweep_with_malformed_grid_exits_2(
    tmp_path, system_doc, capsys, n_values, p_values, trials
):
    doc = {"system": system_doc, "schemes": ["mmse"], "n_values": n_values,
           "p_values": p_values, "trials": trials}
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


def test_reused_parser_behaves_as_a_fresh_one(tmp_path, system_path, capsys):
    # The parser is built once per process. A successful call, then a
    # usage error, then another subcommand give the same exit codes,
    # stdout, stderr and files as each call does on a freshly built one.
    import airpfl.cli as cli

    def run(fresh):
        out_dir = tmp_path / ("fresh" if fresh else "reused")
        out_dir.mkdir()
        calls = [
            ["verify-elimination", "--config", system_path, "--trials", "50", "--seed", "1",
             "--out", str(out_dir / "verify.csv")],
            ["train", "--config", system_path, "--rounds", "many"],
            ["train", "--config", system_path, "--rounds", "3", "--scheme", "mmse-1bit",
             "--out", str(out_dir / "train.csv")],
        ]
        results = []
        for call in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code = cli_main(call)
            results.append((code, *capsys.readouterr()))
        return results, {p.name: p.read_bytes() for p in out_dir.iterdir()}

    fresh = run(fresh=True)
    cli._build_parser.cache_clear()
    reused = run(fresh=False)
    assert [r[0] for r in reused[0]] == [0, 2, 0]
    assert "usage: airpfl train" in reused[0][1][2]
    assert sorted(reused[1]) == ["train.csv", "verify.csv"]
    assert reused == fresh
