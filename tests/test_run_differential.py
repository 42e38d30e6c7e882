"""Run-level differential test: ``protocol.run`` against a dense reference.

The reference is kept here and shares no code with the engine's propagation:
each ``laser_on`` applies exp(-i (diag(levels) + V) dt) from the Taylor-series
oracle to the whole amplitude vector, ``induce`` swaps entries, ``erase``
zeroes them and ``prepare`` puts unit amplitude on one element.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from photonsim.basis import SINGLE_PARTITE, enumerate_basis
from photonsim.labels import CouplingModel, PartitionScheme, Registry
from photonsim.protocol import ProtocolStep, run
from photonsim.qstate import QState

from oracles import taylor_expm

MAX_ELEMENTS = 48
_PARTITION_SETS = ([SINGLE_PARTITE],
                   [PartitionScheme("P1", ((1, 2),)), PartitionScheme("P2", ((1,), (2,)))])


@st.composite
def _bases(draw):
    """An enumerated basis of at most MAX_ELEMENTS elements, with one to
    three levels and one or two modes."""
    partitions = draw(st.sampled_from(_PARTITION_SETS))
    n_levels, n_modes, n_max = draw(st.tuples(st.integers(1, 3), st.integers(1, 2),
                                              st.integers(0, 2)).filter(
        lambda s: sum(s[0] ** p.n_blocks for p in partitions) * (2 * (s[2] + 1)) ** s[1]
        <= MAX_ELEMENTS))
    energies = draw(st.lists(st.floats(-2.0, 3.0), min_size=n_levels, max_size=n_levels))
    omegas = draw(st.lists(st.floats(0.2, 1.5), min_size=n_modes, max_size=n_modes))
    registry = Registry.from_dict({
        "levels": [{"j": j, "energy": e} for j, e in enumerate(energies)],
        "modes": [{"id": "ab"[k], "omega": w} for k, w in enumerate(omegas)],
    })
    return enumerate_basis(registry, partitions, list(registry.modes.values()), n_max)


def _coupling_rows(n):
    """Up to three drive rows [i, j, re] or [i, j, re, im] on distinct pairs."""
    value = st.floats(-1.0, 1.0)
    row = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]).flatmap(
        lambda p: st.one_of(st.tuples(value).map(lambda v: [*p, *v]),
                            st.tuples(value, value).map(lambda v: [*p, *v])))
    return st.lists(row, max_size=3, unique_by=lambda r: frozenset(r[:2]))


def _dense_drive(levels, rows):
    h = np.diag(levels).astype(np.complex128)
    for i, j, *v in rows:
        h[i, j] = complex(*v)
        h[j, i] = complex(*v).conjugate()
    return h


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_run_matches_dense_reference(data):
    basis = data.draw(_bases())
    n = len(basis)
    levels = np.array([sum(l.energy for l in e.en_labels)
                       + sum(f.n * f.mode.omega for f, _ in e.photon_part) for e in basis])
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps /= np.linalg.norm(amps)
    models = data.draw(st.one_of(st.none(), _coupling_rows(n)))

    index = st.integers(0, n - 1)
    duration = st.floats(0.0, 3.0)
    steps, expected, t = [], [amps], 0.0
    for kind in data.draw(st.lists(st.sampled_from(["prepare", "laser_on", "wait", "induce",
                                                    "erase"]), min_size=1, max_size=6)):
        if kind == "prepare":
            k = data.draw(index)
            steps.append(ProtocolStep.prepare(k))
            amps = np.zeros(n, dtype=np.complex128)
            amps[k] = 1.0
        elif kind == "laser_on":
            rows, dt = data.draw(_coupling_rows(n)), data.draw(duration)
            mode = data.draw(st.sampled_from(basis.metadata["modes"]))
            steps.append(ProtocolStep.laser_on(mode, rows, dt))
            # A step without rows of its own takes the run's models.
            drive = rows if rows or models is None else models
            amps = taylor_expm(-1j * _dense_drive(levels, drive) * dt) @ amps
            t += dt
        elif kind == "wait":
            dt = data.draw(duration)
            steps.append(ProtocolStep.wait(duration=dt))
            t += dt
        elif kind == "induce":
            pairs = data.draw(st.lists(st.tuples(index, index), max_size=3))
            steps.append(ProtocolStep.induce(pairs))
            amps = amps.copy()
            for i, j in pairs:
                amps[[i, j]] = amps[[j, i]]
        else:
            indices = data.draw(st.lists(index, max_size=3))
            amps = amps.copy()
            amps[indices] = 0.0
            # Renormalize only a remainder far from zero, so the division
            # does not magnify rounding beyond the tolerance.
            renormalize = float(np.linalg.norm(amps)) > 0.1 and data.draw(st.booleans())
            steps.append(ProtocolStep.erase(indices, renormalize=renormalize))
            if renormalize:
                amps /= np.linalg.norm(amps)
        expected.append(amps)

    trace = run(QState(basis, expected[0]), steps,
                models=None if models is None else CouplingModel.from_rows(models))
    assert len(trace) == len(expected)
    assert trace.final.state.time_tag == t
    for entry, want in zip(trace.entries, expected):
        np.testing.assert_allclose(entry.state.amps, want, rtol=0, atol=1e-9,
                                   err_msg=f"step {entry.step_no} ({entry.kind})")
    for before, after in zip(trace.entries, trace.entries[1:]):
        if after.kind in ("laser_on", "wait", "induce"):
            assert abs(after.state.norm() - before.state.norm()) <= 1e-12, after.step_no
