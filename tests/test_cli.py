import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import photonsim
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

    def test_laser_on_without_couplings_takes_models(self, tmp_path):
        def csv(couplings, models=True):
            steps = [{"kind": "laser_on",
                      "params": {"mode": "w", "couplings": couplings, "duration": t}}
                     for t in (1.3, 0.7)]
            steps.insert(1, {"kind": "induce", "params": {"pairs": [[0, 2]]}})
            script = {"basis_config": BASIS_CONFIG, "initial": {"element": 0}, "steps": steps}
            if models:
                script["models"] = {"couplings": [{"i": 0, "j": 4, "value": [0.2, -0.1]},
                                                  {"i": 2, "j": 6, "value": 0.3}]}
            out = tmp_path / "t.csv"
            assert main(["run", write(tmp_path, "s.json", script), "--out", str(out)]) == 0
            return out.read_bytes()

        fallback = csv([])
        assert fallback == csv([[0, 4, 0.2, -0.1], [2, 6, 0.3]])
        assert fallback != csv([], models=False)

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

    def test_negative_zero_printed_as_zero(self, tmp_path, capsys):
        params = write(tmp_path, "p.json", {"levels": [-0.0, 1.0], "couplings": [], "anchor": -0.0})
        assert main(["secular", params]) == 0
        out = capsys.readouterr().out
        assert "root: eigenvalue 0 (anchor 0)" in out and "-0" not in out


def _secular_coupling_outside(tmp_path):
    return ["secular", write(tmp_path, "p.json", {"couplings": [[0, 9, 0.2]]})]


def _expect_not_a_list(tmp_path):
    return ["run", write(tmp_path, "s.json", {"scenario": "lambda"}),
            "--expect", write(tmp_path, "e.json", 5), "--out", str(tmp_path / "t.csv")]


def _script(**fields):
    def argv(tmp_path):
        return ["run", write(tmp_path, "s.json", {
            "basis_config": BASIS_CONFIG, "initial": {"element": 0}, **fields})]
    return argv


def _one_step_script(kind, params):
    return _script(steps=[{"kind": kind, "params": params}])


def _raw_script(payload):
    return lambda tmp_path: ["run", write(tmp_path, "s.json", payload)]


def _decohere_at(R):
    return _one_step_script("decohere", {"emit": 0, "target": 2, "R": R})


def _basis_config(**fields):
    return lambda tmp_path: ["basis", write(tmp_path, "c.json", {**BASIS_CONFIG, **fields})]


def _secular_params(payload):
    return lambda tmp_path: ["secular", write(tmp_path, "p.json", payload)]


_LEVEL_0 = {"j": 0, "energy": 0.0}


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
    _decohere_at([1, 2]),
    _decohere_at([1, 2, 3, 4]),
    _decohere_at([float("nan"), 0, 0]),
    _one_step_script("laser_on", {"mode": "w", "couplings": [[0, 0, 0.2]], "duration": 1.0}),
    _script(initial={"element": -1}),
    _script(initial={"element": 99}),
    _script(initial={"element": 1.5}),
    _one_step_script("prepare", {"element": 1.7}),
    _raw_script([{"kind": "wait", "params": {"duration": 1.0}}]),
    _script(steps=[5]),
    _script(steps=[{"kind": "wait", "params": [1.0]}]),
    _one_step_script("wait", {"duration": 1.0, "speed": 2.0}),
    _script(mode="quantum", steps=[]),
    _script(seed="abc", steps=[]),
    _script(models={"couplings": [{"i": 0, "j": 1, "value": [1]}]}, steps=[]),
    _script(models=[], steps=[]),
    _script(initial=[], steps=[]),
    lambda tmp_path: ["basis", write(tmp_path, "c.json", [BASIS_CONFIG])],
    lambda tmp_path: ["atto", "--center", "nan"],
    lambda tmp_path: ["atto", "--width", "inf"],
    lambda tmp_path: ["slits", "--c1", "nan"],
    lambda tmp_path: ["slits", "--d", "nan"],
    _secular_params([1, 2]),
    _secular_params({"threshold": "high"}),
    _secular_params({"threshold": float("nan")}),
    _secular_params({"anchor": float("nan")}),
    _secular_params({"couplings": [[0, 1.7, 0.2]]}),
    _secular_params({"couplings": [[0, 1, 0.2, 0.0, 9]]}),
    _secular_params({"couplings": [[0, 1, float("nan")]]}),
    _basis_config(basis_modes=["w", "w"]),
    _basis_config(basis_modes="w"),
    _basis_config(levels=[_LEVEL_0, {"j": 1.9, "energy": 1.0}]),
    _basis_config(levels=[_LEVEL_0, {"j": 1, "k": 0.5, "energy": 1.0}]),
    _basis_config(levels=5),
    _basis_config(couplings=[{"from": [0.9, 0], "to": [1, 0], "value": 0.1}]),
    _basis_config(modes=[{"id": "w", "omega": 1.0, "dir": [1, 0]}]),
    _basis_config(n_max=1.9),
    _basis_config(partitions=5),
    _basis_config(partitions=[{"id": "A0", "blocks": [[1.5]]}]),
    _basis_config(partitions=[{"id": "A0", "blocks": [[1]]}, {"id": "A0", "blocks": [[1]]}]),
    _basis_config(partitions=[{"id": "A0", "blocks": [[1, 10 ** 12]]}]),
    _basis_config(n_max=10 ** 9),
    _one_step_script("prepare", {"element": 1, "absorb": "ww"}),
    _one_step_script("erase", {"indices": [0], "renormalize": "no"}),
    _one_step_script("laser_on", {"mode": 3, "couplings": [[0, 1, 0.2]], "duration": 1.0}),
    _script(models={"couplings": [{"i": 0, "j": 1, "value": [float("nan"), 0]}]},
            steps=[{"kind": "laser_on", "params": {"mode": "w", "couplings": [], "duration": 1.0}}]),
    _script(models={"couplings": [{"i": 0, "j": 40, "value": 0.1}]}, steps=[]),
    _raw_script({"scenario": "lambda", "params": {"coupling": 0}}),
    _raw_script({"scenario": "halted_light", "params": {"coupling": 0}}),
    _raw_script({"scenario": "one_photon", "params": {"coupling": 0}}),
    _one_step_script("laser_on", {"mode": "w", "couplings": [[0, 1, "0.2"]], "duration": 1.0}),
    _secular_params({"couplings": [[1, 1, 0.5], [0, 1, 0.2], [1, 2, 0.2], [1, 3, 0.2]]}),
    _basis_config(couplings=[{"from": [0, 0], "to": [1, 0], "value": "0.1"}]),
    _basis_config(levels=[_LEVEL_0, {"j": 1, "energy": "1.0"}]),
    _basis_config(modes=[{"id": "w", "omega": "1.0"}]),
    _basis_config(modes=[{"id": "w", "omega": 1.0, "dir": ["1", "0", "0"]}]),
    _decohere_at(["0", "5", "0"]),
    _secular_params({"coupling": [[0, 1, 0.2]]}),
    _basis_config(nmax=3),
    _script(step=[{"kind": "wait", "params": {"duration": 1.0}}]),
    _raw_script({"scenario": "halted_light", "params": {"skip_revival": "no"}}),
    _raw_script({"scenario": "one_photon", "params": {"drive": "no"}}),
    _raw_script({"scenario": "one_photon", "params": {"outcome": 1.0}}),
    _raw_script({"scenario": "one_photon", "params": {"outcome": True}}),
    lambda tmp_path: ["atto", "--harmonics", "1000001", "--spacing", "0"],
    lambda tmp_path: ["slits", "--samples", "1000001"],
    lambda tmp_path: ["slits", "--samples", "0"],
    lambda tmp_path: ["atto", "--width", "1e-200"],
    _one_step_script("wait", {"duration": -1.0}),
    _basis_config(modes=[{"id": "w", "omega": 1.0}, {"id": "w", "omega": 2.0}]),
    _basis_config(levels=[]),
    _raw_script({"scenario": "halted_light", "params": {"omega_side": 2.0}}),
    lambda tmp_path: ["atto", "--spacing", "inf"],
    lambda tmp_path: ["slits", "--d", "1e300"],
    lambda tmp_path: ["slits", "--L", "1e300"],
    lambda tmp_path: ["slits", "--d", "1e-170", "--kappa", "1e171"],
    lambda tmp_path: ["slits", "--c1", "1e200"],
    _basis_config(couplings=[{"from": [0, 0], "to": [1, 0], "value": 0.1},
                             {"from": [1, 0], "to": [0, 0], "value": 0.2}]),
    lambda tmp_path: ["run", write(tmp_path, "s.json", {"scenario": "lambda"}), "--tol", "-1"],
    lambda tmp_path: ["run", write(tmp_path, "s.json", {"scenario": "lambda"}), "--tol", "nan"],
    lambda tmp_path: ["run", write(tmp_path, "s.json", {"scenario": "lambda"}), "--tol", "inf"],
    lambda tmp_path: ["slits", "--tol", "nan"],
    lambda tmp_path: ["slits", "--tol", "-1"],
    lambda tmp_path: ["atto", "--center", "1e300", "--spacing", "1e200", "--width", "1e200"],
    lambda tmp_path: ["atto", "--center", "1e300", "--spacing", "1e200", "--width", "1e300"],
    _basis_config(modes=[{"id": None, "omega": 1.0}]),
    _basis_config(partitions=[{"id": 7, "blocks": [[1]]}]),
    _one_step_script("wait", {"duration": 1.0, "annotation": [1, {"x": 2}]}),
    _script(steps=[{"kind": "wait", "params": {"duration": 1.0}, "parms": {}}]),
    _basis_config(partitions=[{"id": "A0", "blocks": [[1], []]}]),
    _basis_config(levels=[_LEVEL_0, {"j": 1, "kk": 3, "energy": 1.0}]),
    _basis_config(modes=[{"id": "w", "omega": 1.0, "direction": [0, 1, 0]}]),
    _basis_config(couplings=[{"from": [0, 0], "to": [1, 0], "value": 0.1, "weight": 2}]),
    _basis_config(partitions=[{"id": "A0", "blocks": [[1]], "name": "one"}]),
    _script(models={"couplings": [{"i": 0, "j": 1, "value": 0.2, "k": 0}]}, steps=[]),
], ids=["secular-coupling-outside", "anchor-index-7", "anchor-index-negative",
        "expect-not-a-list", "wait-inf", "wait-nan", "laser-duration-nan",
        "laser-coupling-nan", "decohere-R-short", "decohere-R-long", "decohere-R-nan",
        "laser-coupling-diagonal", "initial-negative", "initial-outside", "initial-float",
        "prepare-float", "script-not-object", "step-not-object", "params-not-object",
        "unknown-params-key", "mode-unknown", "seed-not-integer", "models-value-short",
        "models-not-object", "initial-not-object", "basis-config-not-object",
        "atto-center-nan", "atto-width-inf", "slits-c1-nan", "slits-d-nan", "secular-params-not-object", "secular-threshold-string",
        "secular-threshold-nan", "secular-anchor-nan", "secular-coupling-float-index",
        "secular-coupling-five-numbers", "secular-coupling-nan", "basis-modes-duplicate",
        "basis-modes-string", "level-j-float", "level-k-float", "levels-not-array",
        "registry-coupling-float-index", "mode-dir-short", "n-max-float", "partitions-not-array",
        "block-float", "partition-ids-duplicate", "block-huge", "basis-size-cap",
        "absorb-string", "renormalize-string", "laser-mode-not-string", "models-value-nan",
        "models-pair-outside", "lambda-coupling-zero", "halted-light-coupling-zero",
        "one-photon-coupling-zero", "laser-coupling-string", "secular-coupling-diagonal",
        "registry-coupling-string", "level-energy-string", "mode-omega-string",
        "mode-dir-strings", "decohere-R-strings", "secular-unknown-key", "basis-unknown-key",
        "script-unknown-key", "skip-revival-string", "drive-string", "outcome-float",
        "outcome-true", "atto-harmonics-cap", "slits-samples-cap", "slits-samples-zero",
        "atto-width-square-underflow", "wait-duration-negative", "mode-id-duplicate",
        "levels-empty", "halted-light-omega-order", "atto-spacing-inf", "slits-d-huge",
        "slits-L-huge", "slits-half-width-unbounded", "slits-c1-huge",
        "registry-couplings-disagree", "run-tol-negative", "run-tol-nan", "run-tol-inf",
        "slits-tol-nan", "slits-tol-negative", "atto-amplitudes-inf-over-inf",
        "atto-amplitudes-inf-over-inf-wide", "mode-id-null", "partition-id-number",
        "annotation-not-string", "step-unknown-key", "block-empty", "level-unknown-key",
        "mode-unknown-key", "registry-coupling-unknown-key", "partition-unknown-key",
        "models-coupling-unknown-key"])
def test_malformed_input_exit_2_with_one_error_line(argv, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv(tmp_path)) == 2
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# Valid inputs holding every integer field of the README: a basis config, an
# explicit script over it (8 elements), secular params and a scenario script.
_INT_CONFIG = {
    "levels": [{"j": 0, "k": 0, "energy": 0.0}, {"j": 1, "k": 0, "energy": 1.0}],
    "modes": [{"id": "w", "omega": 1.0}],
    "couplings": [{"from": [0, 0], "to": [1, 0], "value": 0.1}],
    "partitions": [{"id": "A0", "blocks": [[1]]}],
    "n_max": 1,
}
_INT_SCRIPT = {
    "basis_config": _INT_CONFIG,
    "models": {"couplings": [{"i": 0, "j": 4, "value": 0.2}]},
    "initial": {"element": 0},
    "steps": [
        {"kind": "prepare", "params": {"element": 0}},
        {"kind": "laser_on", "params": {"mode": "w", "couplings": [[0, 1, 0.2]], "duration": 1.0}},
        {"kind": "induce", "params": {"pairs": [[2, 3]]}},
        {"kind": "erase", "params": {"indices": [1]}},
        {"kind": "decohere", "params": {"emit": 0, "target": 2}},
    ],
}
_INT_INPUTS = {"basis": _INT_CONFIG, "run": _INT_SCRIPT,
               "secular": {"couplings": [[0, 1, 0.2], [1, 2, 0.2], [1, 3, 0.2]]},
               "scenario": {"scenario": "one_photon", "params": {"outcome": 1}}}
# field: (input, path to the value, the start of the one error line)
_INT_FIELDS = {
    "n_max": ("basis", ("n_max",), "n_max"),
    "level-j": ("basis", ("levels", 1, "j"), "levels[1]: j"),
    "level-k": ("basis", ("levels", 1, "k"), "levels[1]: k"),
    "coupling-from": ("basis", ("couplings", 0, "from", 0), "couplings[0]: from"),
    "coupling-to": ("basis", ("couplings", 0, "to", 1), "couplings[0]: to"),
    "block-entry": ("basis", ("partitions", 0, "blocks", 0, 0), "partitions[0]: blocks entry"),
    "initial-element": ("run", ("initial", "element"), "initial.element: basis index"),
    "prepare-element": ("run", ("steps", 0, "params", "element"), "steps[0]: prepare: element"),
    "laser-on-i": ("run", ("steps", 1, "params", "couplings", 0, 0),
                   "steps[1]: laser_on: couplings[0]: i"),
    "laser-on-j": ("run", ("steps", 1, "params", "couplings", 0, 1),
                   "steps[1]: laser_on: couplings[0]: j"),
    "induce-pairs": ("run", ("steps", 2, "params", "pairs", 0, 1), "steps[2]: induce: pairs entry"),
    "erase-indices": ("run", ("steps", 3, "params", "indices", 0),
                      "steps[3]: erase: indices entry"),
    "decohere-emit": ("run", ("steps", 4, "params", "emit"), "steps[4]: decohere: emit"),
    "decohere-target": ("run", ("steps", 4, "params", "target"), "steps[4]: decohere: target"),
    "models-i": ("run", ("models", "couplings", 0, "i"), "couplings[0]: i"),
    "models-j": ("run", ("models", "couplings", 0, "j"), "couplings[0]: j"),
    "secular-i": ("secular", ("couplings", 1, 0), "couplings[1]: i"),
    "secular-j": ("secular", ("couplings", 1, 1), "couplings[1]: j"),
    "outcome": ("scenario", ("params", "outcome"), "params: outcome"),
}


def _int_argv(tmp_path, name, payload):
    command = "run" if name == "scenario" else name
    return [command, write(tmp_path, "in.json", payload)]


@pytest.mark.parametrize("name", sorted(_INT_INPUTS))
def test_integer_field_inputs_run(name, tmp_path, capsys):
    assert main(_int_argv(tmp_path, name, _INT_INPUTS[name])) == 0


@pytest.mark.parametrize("value", [True, False, 1.0, -1, "1"],
                         ids=["true", "false", "float", "negative", "string"])
@pytest.mark.parametrize("field", sorted(_INT_FIELDS))
def test_integer_field_refuses_a_non_integer(field, value, tmp_path, capsys):
    """A bool, a float, a negative number or a string in any integer field
    exits 2 before any output, with one line naming the field."""
    name, path, start = _INT_FIELDS[field]
    payload = copy.deepcopy(_INT_INPUTS[name])
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert main(_int_argv(tmp_path, name, payload)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {start} must be an integer ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    _script(models={"coupling": [{"i": 0, "j": 1, "value": 0.2}]}, steps=[]),
    _script(initial={"elemnt": 1}, steps=[]),
], ids=["models-unknown-key", "initial-unknown-key"])
def test_unknown_key_in_models_or_initial_exit_2(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("rows, code", [
    ([[0, 1, 0.2], [1, 2, 0.1, -0.3], [2, 1, 0.05]], 0),
    ([[0, 1, "0.2"]], 2),
    ([[1, 1, 0.2]], 2),
    ([[0, 1]], 2),
    ([[0, 1, [0.2, 0.1]]], 2),
    ([[0, 1, 0.2, 0.1, 9]], 2),
    ([[0, 1.0, 0.2]], 2),
    ([[0, 1, float("nan")]], 2),
], ids=["valid", "string-value", "diagonal", "short-row", "nested-value", "five-numbers", "float-index", "nan"])
def test_laser_on_and_secular_read_coupling_rows_alike(rows, code, tmp_path):
    laser_on = _one_step_script("laser_on", {"mode": "w", "couplings": rows, "duration": 1.0})
    assert main(laser_on(tmp_path)) == main(_secular_params({"couplings": rows})(tmp_path)) == code


@pytest.mark.parametrize("argv, field", [
    (_one_step_script("wait", {"duration": True}), "duration"),
    (_one_step_script("wait", {"rate": True}), "rate"),
    (_one_step_script("laser_on", {"mode": "w", "couplings": [], "duration": True}), "duration"),
    (_raw_script({"scenario": "lambda", "params": {"coupling": True}}), "coupling"),
    (_raw_script({"scenario": "lambda", "params": {"omega_10": True}}), "omega_10"),
    (_raw_script({"scenario": "halted_light", "params": {"omega_pump": True}}), "omega_pump"),
    (_raw_script({"scenario": "one_photon", "params": {"omega": "1"}}), "omega"),
    (_raw_script({"scenario": "one_photon", "params": {"outcome": True}}), "outcome"),
], ids=["wait-duration-true", "wait-rate-true", "laser-duration-true", "lambda-coupling-true",
        "lambda-omega-10-true", "halted-light-omega-pump-true", "one-photon-omega-string",
        "one-photon-outcome-true"])
def test_number_that_is_not_a_number_exit_2_naming_its_field(argv, field, tmp_path, capsys):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"{field} must be" in err[0]


@pytest.mark.parametrize("option, value", [("center", "nan"), ("spacing", "inf")])
def test_atto_names_the_option_it_refuses(option, value, capsys):
    assert main(["atto", f"--{option}", value]) == 2
    assert capsys.readouterr().err == f"error: {option} must be a finite number, got {value}\n"


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["run", "slits"])
def test_tol_refused_before_any_output(command, value, tmp_path, capsys):
    argv = [command, write(tmp_path, "s.json", {"scenario": "lambda"})] if command == "run" else [command]
    assert main(argv + ["--tol", value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --tol must be ") and err.count("\n") == 1


def test_secular_nan_level_refused_at_entry(tmp_path, capsys):
    assert main(_secular_params({"levels": [0.0, float("nan"), 9.5, 7.0]})(tmp_path)) == 2
    assert capsys.readouterr().err == "error: levels[1] must be a finite number, got nan\n"


def test_laser_on_mode_outside_basis_exit_3(tmp_path, capsys):
    argv = _one_step_script("laser_on", {"mode": "ghost", "couplings": [[0, 1, 0.2]],
                                         "duration": 1.0})(tmp_path)
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: step 1 (laser_on): mode 'ghost' not present in basis\n"


@pytest.mark.parametrize("argv, message", [
    (_one_step_script("induce", {"pairs": [[0, 8]]}),
     "step 1 (induce): induce pair (0,8) out of range"),
    (_script(initial={"element": 2}, steps=[{"kind": "decohere", "params": {"emit": 2, "target": 0}}]),
     "step 1 (decohere): target must differ from the emitter by exactly one photon; "
     "mode 'w' goes 0 -> 1"),
], ids=["induce-pair-outside", "decohere-photon-gained"])
def test_step_failure_exit_3_with_its_reason(argv, message, tmp_path, capsys):
    assert main(argv(tmp_path)) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    lambda tmp_path: ["basis", write(tmp_path, "c.json", BASIS_CONFIG)],
    lambda tmp_path: ["run", write(tmp_path, "s.json", {"scenario": "lambda"})],
    lambda tmp_path: ["secular"],
    lambda tmp_path: ["spin"],
    lambda tmp_path: ["atto"],
    lambda tmp_path: ["slits"],
], ids=["basis", "run", "secular", "spin", "atto", "slits"])
def test_out_into_missing_directory_exit_2(argv, tmp_path, capsys):
    assert main(argv(tmp_path) + ["--out", str(tmp_path / "missing" / "out.txt")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "No such file" in err[0]


def test_bug_in_run_phase_keeps_its_traceback(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr("photonsim.cli.run", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["run", write(tmp_path, "s.json", {"scenario": "lambda"})])


def _mostly(good, *bad):
    """Draw from good three times in four, else from one of bad."""
    bad = st.one_of(*bad)
    return st.integers(0, 3).flatmap(lambda k: bad if k == 3 else good)


# Values for BASIS_CONFIG's 8-element basis: mostly well-formed, else of the
# wrong type, non-finite, negative, out of range or fractional.
_JUNK = st.sampled_from([None, 5, "w", [], {}, [1, 2], math.nan])
_INDEX = _mostly(st.integers(0, 7), st.integers(-3, 12),
                 st.sampled_from([1.0, 1.7, "1", None, True, 10 ** 30]))
_NUMBER = _mostly(st.floats(0, 3), st.floats(-5, 5),
                  st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, "0.5", None, [], {}, True]))
_COUPLING = _mostly(st.tuples(_INDEX, _INDEX, _NUMBER).map(list),
                    st.tuples(_INDEX, _INDEX, _NUMBER, _NUMBER).map(list),
                    st.lists(_INDEX, max_size=5), _JUNK)
_ABSORB = _mostly(st.just(["w"]), st.just(["ghost"]), st.lists(_JUNK, max_size=2), _JUNK)
_R = _mostly(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
             st.lists(_NUMBER, max_size=4), _JUNK)
_PARAMS = {  # kind: (required, optional)
    "prepare": ({"element": _INDEX}, {"absorb": _ABSORB}),
    "laser_on": ({"mode": _mostly(st.just("w"), st.just(3)),
                  "couplings": st.lists(_COUPLING, max_size=3), "duration": _NUMBER},
                 {"absorb": _ABSORB}),
    "wait": ({}, {"duration": _NUMBER, "rate": _NUMBER}),
    "induce": ({"pairs": _mostly(st.lists(st.tuples(_INDEX, _INDEX).map(list), max_size=3),
                                 st.lists(st.lists(_INDEX, max_size=3), max_size=2), _JUNK)}, {}),
    "erase": ({"indices": _mostly(st.lists(_INDEX, max_size=3), _JUNK)},
              {"renormalize": _mostly(st.booleans(), st.sampled_from(["yes", None]))}),
    "decohere": ({"emit": _INDEX, "target": _INDEX},
                 {"R": _R, "renormalize": _mostly(st.booleans(), _JUNK)}),
}


@st.composite
def _step_rows(draw):
    kind = draw(_mostly(st.sampled_from(sorted(_PARAMS)), st.sampled_from(["teleport", None, 7])))
    required, optional = _PARAMS.get(kind, ({}, {}))
    params = draw(st.fixed_dictionaries(required, optional=optional))
    if draw(st.integers(0, 7)) == 0:  # drop a key or add an unknown one
        key = draw(st.sampled_from([*params, "speed", "element_index"]))
        if key in params:
            del params[key]
        else:
            params[key] = 1
    return draw(_mostly(st.just({"kind": kind, "params": params}),
                        st.sampled_from([{"kind": kind}, {"kind": kind, "params": [params]},
                                         [kind, params], "wait"])))


_SCRIPTS = st.fixed_dictionaries({
    "basis_config": st.just(BASIS_CONFIG),
    "initial": _mostly(st.fixed_dictionaries({"element": _INDEX}), st.just({}), _JUNK),
    "steps": st.lists(_step_rows(), max_size=4),
}, optional={
    "models": st.just({"couplings": [{"i": 0, "j": 4, "value": [0.2, 0.1]}]}),
    "mode": _mostly(st.just("stochastic"), st.just("quantum")),
    "seed": _mostly(st.integers(0, 3), st.just(-1), _JUNK),
})


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(script=_SCRIPTS)
def test_run_keeps_exit_code_contract(script):
    assert _exit_code(["run"], script) in (0, 1, 2, 3)


def _exit_code_of(argv):
    """Exit code of ``main(argv)``; an exit 2 must print exactly one
    ``error:`` line and emit no warning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert [str(w.message) for w in caught] == []
    return code


def _exit_code(argv, payload):
    """Exit code of ``main(argv + [file holding payload])``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return _exit_code_of(argv + [path])


# Registry configs of at most 768 elements when well-formed; an n_max of
# 10**12 is refused by the size cap before anything is built.
_LEVEL = st.fixed_dictionaries({"j": _INDEX, "energy": _NUMBER}, optional={"k": _INDEX})
_MODE = st.fixed_dictionaries(
    {"id": _mostly(st.sampled_from(["w", "v"]), _JUNK), "omega": _NUMBER},
    optional={"dir": _mostly(st.just([0, 1, 0]), st.lists(_NUMBER, max_size=4), _JUNK)})
_PARTITION = st.fixed_dictionaries({
    "id": _mostly(st.sampled_from(["A", "B"]), _JUNK),
    "blocks": _mostly(st.sampled_from([[[1, 2]], [[1], [2]], [[2], [1]]]),
                      st.lists(st.lists(_INDEX, max_size=3), max_size=3), _JUNK)})
_BASIS_CONFIGS = _mostly(st.fixed_dictionaries({
    "levels": _mostly(st.lists(_LEVEL, min_size=1, max_size=3), _JUNK),
    "modes": _mostly(st.lists(_MODE, max_size=2), _JUNK),
    "partitions": _mostly(st.lists(_PARTITION, min_size=1, max_size=2), _JUNK),
}, optional={
    "n_max": _mostly(st.integers(0, 3), st.sampled_from([-1, 1.5, True, "1", None, 10 ** 12])),
    "basis_modes": _mostly(st.lists(st.sampled_from(["w", "v", "ghost"]), max_size=3), _JUNK),
    "couplings": st.lists(st.fixed_dictionaries({
        "from": st.lists(_INDEX, max_size=3), "to": st.lists(_INDEX, max_size=3),
        "value": _mostly(_NUMBER, st.lists(_NUMBER, max_size=3))}), max_size=2),
}), _JUNK)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(config=_BASIS_CONFIGS)
def test_basis_keeps_exit_code_contract(config):
    assert _exit_code(["basis"], config) in (0, 2)


_SECULAR_ROW = _mostly(st.tuples(_INDEX, _INDEX, _NUMBER).map(list),
                       st.tuples(_INDEX, _INDEX, _NUMBER, _NUMBER).map(list),
                       st.lists(_NUMBER, max_size=5), _JUNK)
_SECULAR_PARAMS = _mostly(st.fixed_dictionaries({}, optional={
    "levels": _mostly(st.lists(st.floats(0, 10), min_size=1, max_size=5),
                      st.lists(_NUMBER, max_size=5), _JUNK),
    "couplings": _mostly(st.lists(_SECULAR_ROW, max_size=4), _JUNK),
    "anchor": _NUMBER,
    "threshold": _NUMBER,
}), _JUNK)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(params=_SECULAR_PARAMS,
       anchor=_mostly(st.just([]), st.integers(-1, 5).map(lambda k: ["--anchor-index", str(k)])))
def test_secular_keeps_exit_code_contract(params, anchor):
    assert _exit_code(["secular", *anchor], params) in (0, 2)


_SCENARIO_PARAMS = {
    "lambda": {"omega_10": _NUMBER, "omega_20": _NUMBER, "coupling": _NUMBER},
    "halted_light": {"omega_pump": _NUMBER, "omega_side": _NUMBER, "coupling": _NUMBER,
                     "skip_revival": _mostly(st.booleans(), _NUMBER)},
    "one_photon": {"outcome": _mostly(st.integers(1, 4), _NUMBER), "omega": _NUMBER,
                   "omega_00": _NUMBER, "coupling": _NUMBER,
                   "drive": _mostly(st.booleans(), _NUMBER)},
}
_SCENARIO_SCRIPTS = st.sampled_from(sorted(_SCENARIO_PARAMS)).flatmap(
    lambda name: st.fixed_dictionaries({
        "scenario": st.just(name),
        "params": st.fixed_dictionaries({}, optional=_SCENARIO_PARAMS[name])}))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(script=_SCENARIO_SCRIPTS)
def test_scenario_params_keep_exit_code_contract(script):
    assert _exit_code(["run"], script) in (0, 1, 2, 3)


# Option values as the command line gives them: the numbers of _NUMBER, or
# magnitudes from 1e150 to 1e308 whose squares and products overflow, as
# text.  Sizes stay small, or are above MAX_BASIS_SIZE and refused unbuilt.
_HUGE = st.floats(1e150, 1e308) | st.floats(-1e308, -1e150)
_ARG = _mostly(_NUMBER.filter(lambda v: type(v) in (int, float, str)), _HUGE).map(str)
_UNIT_PAIR = st.floats(0, 2 * math.pi).map(
    lambda t: {"c1": repr(math.cos(t)), "c2": repr(math.sin(t))})


def _options(values):
    return [f"--{k}={v}" for k, v in sorted(values.items())]


_ATTO_ARGV = st.fixed_dictionaries({}, optional={
    "center": _ARG, "width": _ARG, "spacing": _ARG,
    "harmonics": _mostly(st.integers(1, 41), st.sampled_from([-1, 0, 2, 1000001])).map(str),
}).map(lambda opts: ["atto", *_options(opts)])
_SLITS_ARGV = st.tuples(
    _mostly(_UNIT_PAIR, st.fixed_dictionaries({}, optional={"c1": _ARG, "c2": _ARG})),
    st.fixed_dictionaries({}, optional={
        "d": _ARG, "L": _ARG, "kappa": _ARG,
        "samples": _mostly(st.integers(1, 2001), st.sampled_from([-5, 0, 1000001])).map(str)}),
).map(lambda pair: ["slits", *_options({**pair[0], **pair[1]})])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(argv=st.one_of(_ATTO_ARGV, _SLITS_ARGV))
def test_atto_and_slits_keep_exit_code_contract(argv):
    assert _exit_code_of(argv) in (0, 2)


@pytest.mark.parametrize("command, name", [("basis", "basis_768.json"),
                                           ("run", "scenario_lambda.json")])
def test_output_independent_of_the_hash_seed(command, name):
    """Two processes with different ``PYTHONHASHSEED`` print the same bytes;
    an in-process rerun could not see an order that follows the hash seed."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", name)
    src = os.path.dirname(os.path.dirname(os.path.abspath(photonsim.__file__)))
    outs = [subprocess.run([sys.executable, "-m", "photonsim.cli", command, path],
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                           capture_output=True, check=True, timeout=120).stdout
            for seed in ("1", "2")]
    assert outs[0] and outs[0] == outs[1]


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
