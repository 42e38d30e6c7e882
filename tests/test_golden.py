"""Byte-identity gate: fixed inputs under ``golden/`` run through ``cli.main``
in-process must give the stdout SHA-256, exit code and stderr recorded in
``golden/digests.json``.  The digests were made once from an earlier
version; a failure here means an output changed, not that the file is stale.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from photonsim.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# argv per case; an entry naming a file under golden/ is given as its path.
CASES = {
    "run-lambda": ["run", "scenario_lambda.json"],
    "run-lambda-params": ["run", "scenario_lambda_params.json"],
    "run-halted-light": ["run", "scenario_halted_light.json"],
    "run-halted-light-params": ["run", "scenario_halted_light_params.json"],
    "run-one-photon": ["run", "scenario_one_photon.json"],
    "run-one-photon-params": ["run", "scenario_one_photon_params.json"],
    "run-one-photon-channel": ["run", "scenario_one_photon_channel.json"],
    "run-one-photon-filtered": ["run", "scenario_one_photon_filtered.json"],
    "run-one-photon-undriven": ["run", "scenario_one_photon_undriven.json"],
    "run-stochastic-seeded": ["run", "stochastic_waits.json"],
    "run-stochastic-seed-flag": ["run", "stochastic_waits.json", "--seed", "11"],
    "basis-768": ["basis", "basis_768.json"],
    "basis-1280": ["basis", "basis_1280.json"],
    "basis-4320": ["basis", "basis_4320.json"],
    "drive-models": ["run", "drive_models.json"],
    "drive-pulse-train": ["run", "drive_pulse_train.json"],
    "drive-decohere": ["run", "drive_decohere.json"],
    "secular-default": ["secular"],
    "secular-custom": ["secular", "secular_custom.json"],
    "secular-anchor-index": ["secular", "secular_custom.json", "--anchor-index", "3"],
    "spin": ["spin"],
    "atto-default": ["atto"],
    "atto-custom": ["atto", "--center", "40", "--width", "2.5", "--spacing", "0.75",
                    "--harmonics", "21"],
    "slits-default": ["slits"],
    "slits-custom": ["slits", "--c1", "0.6", "--c2", "-0.8", "--d", "7", "--L", "60",
                     "--kappa", "35", "--samples", "401"],
    "run-template-mismatch": ["run", "scenario_lambda.json", "--expect", "templates_wrong.json"],
    "run-induce-outside-exit-3": ["run", "induce_outside.json"],
}


def outcome(argv: list[str]) -> dict:
    """SHA-256 of stdout, exit code and stderr of ``main(argv)``."""
    argv = [os.path.join(GOLDEN, a) if os.path.isfile(os.path.join(GOLDEN, a)) else a
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exit": code, "stderr": err.getvalue()}


with open(os.path.join(GOLDEN, "digests.json")) as fh:
    DIGESTS = json.load(fh)


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_digest(name):
    assert outcome(CASES[name]) == DIGESTS[name]
