import json

import pytest

from photonsim.cli import main

BASIS_CONFIG = {
    "levels": [{"j": 0, "k": 0, "energy": 0.0}, {"j": 1, "k": 0, "energy": 1.0}],
    "modes": [{"id": "w", "omega": 1.0, "dir": [1, 0, 0]}],
    "partitions": [{"id": "A0", "blocks": [[1]]}],
    "n_max": 1,
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestBasisCommand:
    def test_listing(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", BASIS_CONFIG)
        assert main(["basis", cfg]) == 0
        captured = capsys.readouterr()
        assert "8 elements" in captured.err
        assert json.loads(captured.out)  # valid JSON listing

    def test_out_file(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", BASIS_CONFIG)
        out = tmp_path / "basis.json"
        assert main(["basis", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["basis", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_partitions_exit_2(self, tmp_path, capsys):
        cfg = dict(BASIS_CONFIG)
        del cfg["partitions"]
        assert main(["basis", write(tmp_path, "c.json", cfg)]) == 2
        assert "partitions" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["basis", "does_not_exist.json"]) == 2

    def test_config_dir_env(self, tmp_path, monkeypatch):
        write(tmp_path, "cfg.json", BASIS_CONFIG)
        monkeypatch.setenv("PHOTONSIM_CONFIG_DIR", str(tmp_path))
        assert main(["basis", "cfg.json"]) == 0


class TestRunCommand:
    @pytest.mark.parametrize("scenario", ["lambda", "halted_light", "one_photon"])
    def test_builtin_scenarios_pass_templates(self, scenario, tmp_path, capsys):
        script = write(tmp_path, "s.json", {"scenario": scenario})
        assert main(["run", script, "--out", str(tmp_path / "t.csv")]) == 0
        assert "templates: PASS" in capsys.readouterr().err

    def test_unknown_scenario_exit_2(self, tmp_path):
        script = write(tmp_path, "s.json", {"scenario": "ghost"})
        assert main(["run", script]) == 2

    def test_expect_mismatch_exit_1(self, tmp_path, capsys):
        script = write(tmp_path, "s.json", {"scenario": "lambda"})
        expect = write(tmp_path, "e.json", [[0], [1], [2]])
        assert main(["run", script, "--expect", expect,
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_stochastic_without_seed_exit_2(self, tmp_path, capsys):
        script = write(tmp_path, "s.json", {"scenario": "lambda"})
        assert main(["run", script, "--mode", "stochastic"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_step_failure_exit_3(self, tmp_path, capsys):
        script = write(tmp_path, "s.json", {
            "basis_config": BASIS_CONFIG,
            "initial": {"element": 0},
            "steps": [{"kind": "prepare", "params": {"element": 99}}],
        })
        assert main(["run", script]) == 3
        assert "step 1" in capsys.readouterr().err

    def test_explicit_script_runs(self, tmp_path, capsys):
        script = write(tmp_path, "s.json", {
            "basis_config": BASIS_CONFIG,
            "models": {"couplings": [{"i": 0, "j": 1, "value": 0.2}]},
            "initial": {"element": 0},
            "steps": [{"kind": "laser_on",
                       "params": {"mode": "w", "couplings": [[0, 1, 0.2]],
                                  "duration": 1.0}},
                      {"kind": "wait", "params": {"duration": 0.5}}],
        })
        assert main(["run", script]) == 0
        out = capsys.readouterr().out
        assert out.startswith("row,step_no,time_tag")

    def test_unknown_step_kind_exit_2(self, tmp_path, capsys):
        script = write(tmp_path, "s.json", {
            "basis_config": BASIS_CONFIG,
            "steps": [{"kind": "teleport", "params": {}}],
        })
        assert main(["run", script]) == 2
        assert "unknown kind" in capsys.readouterr().err

    def test_seeded_runs_identical(self, tmp_path):
        script = write(tmp_path, "s.json", {
            "scenario": "lambda", "mode": "deterministic"})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", script, "--out", str(a)]) == 0
        assert main(["run", script, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSecularCommand:
    def test_default_parameters_pass(self, capsys):
        assert main(["secular"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "argsort |C| (descending): 1 2 3 0" in out

    def test_anchor_at_ground_swaps_ranking(self, capsys):
        assert main(["secular", "--anchor-index", "0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[3].startswith("argsort |C| (descending): 0")
        assert "verdict: FAIL" in out

    def test_zero_couplings_na(self, tmp_path, capsys):
        params = write(tmp_path, "p.json", {"couplings": []})
        assert main(["secular", params]) == 0
        assert "verdict: N/A" in capsys.readouterr().out

    def test_complex_couplings_stay_hermitian(self, tmp_path, capsys):
        params = write(tmp_path, "p.json",
                       {"couplings": [[0, 1, 0.2, 0.1], [1, 2, 0.2], [1, 3, 0.2]]})
        assert main(["secular", params]) == 0

    def test_custom_params(self, tmp_path, capsys):
        params = write(tmp_path, "p.json", {
            "levels": [0.0, 5.0], "couplings": [[0, 1, 0.1]], "anchor": 5.0})
        assert main(["secular", params]) == 0
        assert "root: eigenvalue 5.00199920064" in capsys.readouterr().out


def _secular_coupling_outside(tmp_path):
    return ["secular", write(tmp_path, "p.json", {"couplings": [[0, 9, 0.2]]})]


def _expect_not_a_list(tmp_path):
    return ["run", write(tmp_path, "s.json", {"scenario": "lambda"}),
            "--expect", write(tmp_path, "e.json", 5), "--out", str(tmp_path / "t.csv")]


def _one_step_script(kind, params):
    def argv(tmp_path):
        return ["run", write(tmp_path, "s.json", {
            "basis_config": BASIS_CONFIG,
            "initial": {"element": 0},
            "steps": [{"kind": kind, "params": params}],
        })]
    return argv


@pytest.mark.parametrize("argv", [
    _secular_coupling_outside,
    lambda tmp_path: ["secular", "--anchor-index", "7"],
    lambda tmp_path: ["secular", "--anchor-index", "-1"],
    _expect_not_a_list,
    _one_step_script("wait", {"duration": float("inf")}),
    _one_step_script("wait", {"duration": float("nan")}),
    _one_step_script("laser_on", {"mode": "w", "couplings": [[0, 1, 0.2]],
                                  "duration": float("nan")}),
    _one_step_script("laser_on", {"mode": "w", "couplings": [[0, 1, float("nan")]],
                                  "duration": 1.0}),
], ids=["secular-coupling-outside", "anchor-index-7", "anchor-index-negative",
        "expect-not-a-list", "wait-inf", "wait-nan", "laser-duration-nan",
        "laser-coupling-nan"])
def test_malformed_input_exit_2_with_one_error_line(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


class TestSpinCommand:
    def test_report(self, capsys):
        assert main(["spin"]) == 0
        out = capsys.readouterr().out
        assert "singlet" in out and "<S^2>=0" in out
        assert out.count("permutation parity -") == 4


class TestAttoCommand:
    def test_default_comb(self, capsys):
        assert main(["atto"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "basis_index,re,im"
        assert len(lines) > 5

    def test_even_harmonics_exit_2(self, capsys):
        assert main(["atto", "--harmonics", "4"]) == 2


class TestSlitsCommand:
    def test_default_pattern(self, capsys):
        assert main(["slits"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("x,intensity")
        assert "visibility: 1" in captured.err

    def test_unnormalized_exit_2(self, capsys):
        assert main(["slits", "--c1", "1.0", "--c2", "1.0"]) == 2

    def test_single_slit_visibility_zero(self, capsys):
        assert main(["slits", "--c1", "1.0", "--c2", "0.0"]) == 0
        assert "visibility: 0" in capsys.readouterr().err
