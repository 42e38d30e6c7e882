import math
import tracemalloc
import warnings

import numpy as np
import pytest

import photonsim.scenarios as scenarios_module
from photonsim.basis import SINGLE_PARTITE, Basis, BasisElement, enumerate_basis
from photonsim.dynamics import build_hamiltonian, propagate
from photonsim.labels import CouplingModel, ENLabel, PartitionScheme, Registry, RegistryError
from photonsim.protocol import (
    ProtocolError,
    ProtocolStep,
    ProtocolStepError,
    Trace,
    TraceEntry,
    check_templates,
    run,
)
from photonsim.qstate import QState, support, window_state
from photonsim.scenarios import (
    attosecond_init,
    halted_light_scenario,
    lambda_scenario,
    one_photon_dissociation_scenario,
)


def run_scenario(scn, **kw):
    return run(scn.initial, scn.steps, **kw)


class TestSteps:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            ProtocolStep("explode")

    def test_negative_duration_rejected(self):
        with pytest.raises(ProtocolError):
            ProtocolStep.laser_on("w", [], -1.0)

    def test_wait_needs_duration_or_rate(self):
        with pytest.raises(ProtocolError):
            ProtocolStep.wait()

    def test_wait_rate_must_be_positive(self):
        with pytest.raises(ProtocolError):
            ProtocolStep.wait(rate=0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_wait_rate_must_be_finite(self, rate):
        with pytest.raises(RegistryError, match="finite"):
            ProtocolStep.wait(rate=rate)


@pytest.mark.parametrize("row, step", [
    ({"kind": "prepare", "params": {"element": 2, "absorb": ["w"]}},
     ProtocolStep.prepare(2, ["w"])),
    ({"kind": "laser_on", "params": {"mode": "w", "couplings": [[0, 1, 0.2, -0.1], [1, 2, 0.3]],
                                     "duration": 1.5, "absorb": ["w"]}},
     ProtocolStep.laser_on("w", [(0, 1, 0.2 - 0.1j), (1, 2, 0.3)], 1.5, ["w"])),
    ({"kind": "wait", "params": {"rate": 2.0}}, ProtocolStep.wait(rate=2.0)),
    ({"kind": "induce", "params": {"pairs": [[0, 3], [1, 2]]}},
     ProtocolStep.induce([(0, 3), (1, 2)])),
    ({"kind": "erase", "params": {"indices": [4, 1], "renormalize": True}},
     ProtocolStep.erase([4, 1], renormalize=True)),
    ({"kind": "decohere", "params": {"emit": 5, "target": 1, "R": [0, 5, 0], "renormalize": True}},
     ProtocolStep.decohere(5, 1, (0.0, 5.0, 0.0), renormalize=True)),
], ids=["prepare", "laser_on", "wait", "induce", "erase", "decohere"])
def test_from_dict_matches_constructor(row, step):
    assert ProtocolStep.from_dict(row) == step


@pytest.mark.parametrize("row, message", [
    ([("kind", "wait")], "must be an object"),
    ({"kind": "wait", "params": [1.0]}, "params must be an object"),
    ({"kind": "prepare", "params": {"element_index": 1}}, "unknown params key 'element_index'"),
    ({"kind": "erase", "params": {"indices": [1], "mode": "w"}}, "unexpected keyword"),
    ({"kind": "induce", "params": {"pairs": [[0, 1.0]]}}, "integer"),
    ({"kind": "laser_on", "params": {"mode": "w", "couplings": [[0, 1]], "duration": 1}},
     r"must be \[i, j, re\] or \[i, j, re, im\]"),
    ({"kind": "teleport"}, "unknown kind 'teleport'"),
], ids=["row-not-object", "params-not-object", "constructor-argument-name", "unknown-key",
        "float-index", "coupling-without-value", "unknown-kind"])
def test_from_dict_rejects_malformed_rows(row, message):
    with pytest.raises(ProtocolError, match=message):
        ProtocolStep.from_dict(row)


class TestRunBasics:
    def test_empty_run_has_initial_snapshot_only(self):
        scn = lambda_scenario()
        trace = run(scn.initial, [])
        assert len(trace) == 1
        assert trace.final.kind == "initial"
        assert trace.momentum == (0.0, 0.0, 0.0)

    def test_step_error_carries_index(self):
        scn = lambda_scenario()
        steps = [scn.steps[0], ProtocolStep.prepare(999)]
        with pytest.raises(ProtocolStepError) as exc:
            run(scn.initial, steps)
        assert exc.value.step_no == 2
        assert exc.value.kind == "prepare"

    def test_unknown_mode_in_absorb(self):
        scn = lambda_scenario()
        with pytest.raises(ProtocolStepError, match="not present"):
            run(scn.initial, [ProtocolStep.prepare(0, absorb_modes=["ghost"])])

    def test_stochastic_requires_seed(self):
        scn = lambda_scenario()
        with pytest.raises(ProtocolError, match="seed"):
            run(scn.initial, scn.steps, mode="stochastic")

    def test_unknown_mode_string(self):
        scn = lambda_scenario()
        with pytest.raises(ProtocolError):
            run(scn.initial, scn.steps, mode="quantum")

    def test_negative_drive_index_fails_step(self):
        scn = lambda_scenario()
        with pytest.raises(ProtocolStepError, match="outside basis") as exc:
            run(scn.initial, [ProtocolStep.laser_on("w10", [(-1, 0, 0.2)], 1.0)])
        assert exc.value.step_no == 1

    def test_lifetime_wait_outside_stochastic_fails(self):
        scn = lambda_scenario()
        with pytest.raises(ProtocolStepError, match="stochastic"):
            run(scn.initial, [ProtocolStep.wait(rate=2.0)])


class TestLaserOnStep:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_hamiltonian_exactly(self, seed):
        rng = np.random.default_rng(seed)
        reg = Registry.from_dict({
            "levels": [{"j": j, "k": 0, "energy": e}
                       for j, e in enumerate(rng.uniform(0.0, 3.0, size=3))],
            "modes": [{"id": "w", "omega": float(rng.uniform(0.5, 1.5))}],
        })
        basis = enumerate_basis(reg, [SINGLE_PARTITE], [reg.mode("w")], n_max=2)
        n = len(basis)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        initial = QState(basis, amps / np.linalg.norm(amps))
        pool = rng.choice(n, size=4, replace=False)
        pairs = [rng.choice(pool, size=2, replace=False) for _ in range(rng.integers(1, 4))]
        couplings = [(int(i), int(j), complex(*rng.normal(scale=0.3, size=2)))
                     for i, j in pairs]
        cm = CouplingModel()
        for i, j, v in couplings:
            cm.set_drive(i, j, v)
        dt = float(rng.uniform(0.5, 3.0))
        trace = run(initial, [ProtocolStep.laser_on("w", couplings, dt)])
        dense = propagate(initial, build_hamiltonian(basis, cm), dt)
        assert len(support(initial)) == n
        assert np.array_equal(trace.final.state.amps, dense.amps)
        assert trace.final.state.time_tag == dense.time_tag

    def test_large_basis_step_builds_no_dense_matrix(self):
        reg = Registry.from_dict({
            "levels": [{"j": j, "k": 0, "energy": 0.7 * j} for j in range(4)],
            "modes": [{"id": m, "omega": 0.5 + 0.3 * k} for k, m in enumerate("abc")],
        })
        parts = [PartitionScheme("P1", ((1, 2),)), PartitionScheme("P2", ((1,), (2,)))]
        basis = enumerate_basis(reg, parts, [reg.mode(m) for m in "abc"], n_max=2)
        assert len(basis) == 4320  # a dense complex H would be 298 MB
        initial = window_state(basis, basis.element_at(0))
        step = ProtocolStep.laser_on("a", [(0, 1, 0.3), (1, 2, 0.2)], 1.0)
        tracemalloc.start()
        try:
            trace = run(initial, [step])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        assert trace.final.state.norm() == pytest.approx(1.0, abs=1e-12)


class TestLambdaSequence:
    def test_templates_match(self):
        scn = lambda_scenario()
        assert check_templates(run_scenario(scn), scn.templates) == []

    def test_final_emission(self):
        scn = lambda_scenario()
        trace = run_scenario(scn)
        assert len(trace.emissions) == 1
        rec = trace.emissions[0]
        assert rec.mode.id == "w12"
        assert abs(rec.amplitude) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_through_coherent_steps(self):
        scn = lambda_scenario()
        trace = run_scenario(scn)
        # entries 1..3 are prepare + two coherent drives
        for e in trace.entries[1:4]:
            assert e.state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_template_mismatch_reported(self):
        scn = lambda_scenario()
        trace = run_scenario(scn)
        bad = list(scn.templates)
        bad[1] = frozenset({0, 1, 2})
        problems = check_templates(trace, bad)
        assert len(problems) == 1 and "step 1" in problems[0]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            lambda_scenario(omega_10=0.5, omega_20=0.6)


class TestHaltedLight:
    def test_templates_match(self):
        scn = halted_light_scenario()
        assert check_templates(run_scenario(scn), scn.templates) == []

    def test_storage_only_variant(self):
        scn = halted_light_scenario(skip_revival=True)
        trace = run_scenario(scn)
        assert check_templates(trace, scn.templates) == []
        assert support(trace.final.state) == {scn.index("stored")}
        assert trace.emissions == ()

    def test_single_forward_flash(self):
        scn = halted_light_scenario()
        trace = run_scenario(scn)
        assert len(trace.emissions) == 1
        rec = trace.emissions[0]
        assert rec.mode.id == "w20f"
        assert rec.direction == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert rec.mode.omega == pytest.approx(1.0)

    def test_momentum_ledger_returns_to_zero(self):
        trace = run_scenario(halted_light_scenario())
        assert np.allclose(trace.momentum, 0.0, atol=1e-12)

    def test_ledger_nonzero_while_stored(self):
        scn = halted_light_scenario(skip_revival=True)
        trace = run_scenario(scn)
        assert trace.momentum == pytest.approx((1.0, 0.0, 0.0))

    def test_virtual_mode_never_populated(self):
        scn = halted_light_scenario()
        trace = run_scenario(scn)
        virt = {scn.index("virt_prod"), scn.index("virt_ent")}
        for s in trace.supports():
            assert s & virt == set()


class TestOnePhotonChannels:
    @pytest.mark.parametrize("outcome", [1, 2, 3, 4])
    def test_templates_match(self, outcome):
        scn = one_photon_dissociation_scenario(outcome=outcome)
        assert check_templates(run_scenario(scn), scn.templates) == []

    @pytest.mark.parametrize("outcome", [1, 3])
    def test_reemission_restores_ground_root(self, outcome):
        scn = one_photon_dissociation_scenario(outcome=outcome)
        trace = run_scenario(scn)
        assert support(trace.final.state) == {scn.index("root_vac")}
        assert trace.emissions[-1].mode.id == "w"
        assert np.allclose(trace.momentum, 0.0, atol=1e-12)

    def test_relaxed_emission_is_low_frequency(self):
        scn = one_photon_dissociation_scenario(outcome=2)
        trace = run_scenario(scn)
        assert trace.emissions[-1].mode.id == "w00"
        assert trace.emissions[-1].mode.omega == pytest.approx(0.8)

    def test_dissociative_channel_retains_photon(self):
        trace = run_scenario(one_photon_dissociation_scenario(outcome=4))
        assert trace.emissions == ()
        assert trace.momentum == pytest.approx((1.0, 0.0, 0.0))

    def test_no_drive_means_stasis(self):
        scn = one_photon_dissociation_scenario(drive=False)
        trace = run_scenario(scn)
        assert check_templates(trace, scn.templates) == []
        assert np.array_equal(trace.entries[-1].state.amps, trace.entries[-2].state.amps)
        assert trace.final.state.time_tag == pytest.approx(5.0)

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError):
            one_photon_dissociation_scenario(outcome=5)


class TestDeterminism:
    def test_trace_csv_byte_identical(self):
        scn = lambda_scenario()
        a = run_scenario(scn).to_csv()
        b = run_scenario(scn).to_csv()
        assert a == b
        assert a.startswith("row,step_no,time_tag,basis_index,")

    def test_stochastic_reproducible_with_seed(self):
        scn = lambda_scenario()
        steps = list(scn.steps[:3]) + [ProtocolStep.wait(rate=2.0)]
        a = run(scn.initial, steps, seed=42, mode="stochastic")
        b = run(scn.initial, steps, seed=42, mode="stochastic")
        assert a.to_csv() == b.to_csv()

    def test_different_seeds_differ(self):
        scn = lambda_scenario()
        steps = list(scn.steps[:3]) + [ProtocolStep.wait(rate=2.0)]
        a = run(scn.initial, steps, seed=1, mode="stochastic")
        b = run(scn.initial, steps, seed=2, mode="stochastic")
        assert a.final.state.time_tag != b.final.state.time_tag

    def test_csv_lists_negative_zero_as_zero(self):
        basis = lambda_scenario().initial.basis
        amps = np.full(len(basis), complex(-0.0, -0.0))
        amps[0] = 1.0
        trace = Trace([TraceEntry(0, "initial", QState(basis, amps, -0.0), (), (-0.0, 0.0, -0.0))])
        rows = [line.split(",") for line in trace.to_csv().splitlines()[1:]]
        assert rows[1][4:6] == ["0", "0"]
        assert rows[-1][2] == "0" and rows[-1][10:] == ["0", "0", "0"]
        assert all(field != "-0" for row in rows for field in row)

    def test_csv_has_emission_and_momentum_rows(self):
        trace = run_scenario(lambda_scenario())
        lines = trace.to_csv().splitlines()
        assert any(l.startswith("emit,") for l in lines)
        assert any(l.startswith("momentum,") for l in lines)


@pytest.fixture
def atto_registry():
    return Registry.from_dict({
        "levels": [{"j": 0, "k": 0, "energy": 0.0},
                   {"j": 1, "k": 0, "energy": 50.0},
                   {"j": 1, "k": 1, "energy": 50.0}],
        "modes": [],
    })


class TestAttosecondInit:
    def test_single_harmonic_is_window_state(self, atto_registry):
        s = attosecond_init(50.0, 1.0, 2.0, 1, atto_registry)
        assert len(support(s)) == 1
        assert s.norm() == pytest.approx(1.0, abs=1e-12)

    def test_comb_symmetry(self, atto_registry):
        s = attosecond_init(50.0, 2.0, 1.0, 7, atto_registry)
        comb_amp = {}
        for i, el in enumerate(s.basis):
            fock, _ = el.photon_part[0]
            if fock.n == 1:
                comb_amp[fock.mode.omega] = s.amps[i]
        for omega, a in comb_amp.items():
            mirror = 2 * 50.0 - omega
            assert a == pytest.approx(comb_amp[mirror], abs=1e-15)

    def test_gaussian_ratio_at_spacing_equal_width(self, atto_registry):
        # delta-omega = spacing: neighbors at e^{-1/2}, next at e^{-2}
        s = attosecond_init(50.0, 1.5, 1.5, 5, atto_registry)
        by_omega = {}
        for i, el in enumerate(s.basis):
            fock, _ = el.photon_part[0]
            if fock.n == 1:
                by_omega[round(fock.mode.omega, 9)] = abs(s.amps[i])
        c = by_omega[50.0]
        assert by_omega[51.5] / c == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert by_omega[53.0] / c == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_excited_channels_present_but_dark(self, atto_registry):
        s = attosecond_init(50.0, 1.0, 1.0, 3, atto_registry)
        excited = [i for i, el in enumerate(s.basis) if el.en_labels[0].j == 1]
        assert len(excited) == 2
        assert all(s.amps[i] == 0 for i in excited)

    def test_wide_comb_warns(self, atto_registry):
        with pytest.warns(UserWarning, match="width"):
            attosecond_init(50.0, 10.0, 1.0, 3, atto_registry)

    def test_even_count_rejected(self, atto_registry):
        with pytest.raises(ValueError, match="odd"):
            attosecond_init(50.0, 1.0, 1.0, 4, atto_registry)

    def test_nonpositive_frequency_rejected(self, atto_registry):
        with pytest.raises(ValueError):
            attosecond_init(50.0, 1.0, 30.0, 5, atto_registry)

    def test_refused_comb_gives_no_warning(self, atto_registry):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-positive"):
                attosecond_init(50.0, 10.0, 30.0, 5, atto_registry)

    def test_width_whose_square_underflows_rejected(self, atto_registry):
        with pytest.raises(ValueError, match="underflow"):
            attosecond_init(50.0, 1e-200, 1.0, 3, atto_registry)

    def test_registry_without_levels_rejected(self):
        with pytest.raises(ValueError, match="no EN levels"):
            attosecond_init(50.0, 1.0, 1.0, 3, Registry())

    def test_size_cap_is_exact(self, atto_registry, monkeypatch):
        # 5 comb elements and 2 excited channels
        monkeypatch.setattr(scenarios_module, "MAX_BASIS_SIZE", 7)
        assert len(attosecond_init(50.0, 1.0, 1.0, 5, atto_registry).basis) == 7
        monkeypatch.setattr(scenarios_module, "MAX_BASIS_SIZE", 6)
        with pytest.raises(ValueError, match="more than 6 elements"):
            attosecond_init(50.0, 1.0, 1.0, 5, atto_registry)


class TestMomentumLedger:
    def test_only_external_exchanges_counted(self):
        # internal swaps and coherent drives without absorption leave the
        # ledger untouched
        scn = lambda_scenario()
        trace = run_scenario(scn)
        p_in = np.array([1.0, 0.0, 0.0]) * 1.0 + np.array([0.0, 1.0, 0.0]) * 0.4
        assert trace.entries[3].momentum == pytest.approx(tuple(p_in))
        # after the final emission the perpendicular component is returned
        assert trace.momentum == pytest.approx((1.0, 0.0, 0.0))
