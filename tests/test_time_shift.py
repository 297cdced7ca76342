"""Time-shift invariance: moving every submission by 10^k s changes no decision.

Shot boundaries are ``start + k * t_e`` and every shot count is a search
over those times, so a run's event kinds and per-dispatch shots must not
depend on the absolute time, up to a Unix-epoch scale shift of 1e9 s.
``mean_wt`` is a difference of shifted times, so it carries their rounding:
float64 spacing is 1.2e-7 s at 1e9 and 1.5e-8 s at 1e8, which bounds its
relative change by 1e-5 at k = 9 and 1e-6 below.

Two things float time cannot keep, and which these tests do not claim:
events that are equal in exact arithmetic, such as the quantum ends of two
RR jobs that swapped regions, are ordered by the rounding of their sums;
and at 1e9 s a long chain of one-shot dispatches drifts by tens of ulps
from the arrival times it is compared with. The hypothesis examples are
derandomized so the suite stays reproducible.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpusched import Policy, SimConfig, default_spec, generate_poisson_workload, run
from qpusched.scheduler import POLICY_NAMES
from qpusched.workload import Workload

from test_golden import CHIPS, MODES

SHIFTS = range(10)  # exponents k of the 10^k s shift


def outcome(chip_name, policy, mode, seed, horizon, shift):
    """Event kinds, shots per dispatch and mean_wt of a shifted Poisson stream."""
    chip = CHIPS[chip_name]
    merge, exclusive = MODES[mode]
    wl = generate_poisson_workload(default_spec(chip.n_qubits, 20.0, horizon, seed=seed))
    wl = Workload(
        jobs=tuple(dataclasses.replace(j, t_sub=j.t_sub + shift) for j in wl.jobs),
        horizon=wl.horizon + shift,
    )
    trace, report = run(SimConfig(
        chip=chip,
        workload=wl,
        policy=Policy(policy, rr_quantum_shots=50, mfq_base_quantum_shots=50),
        merge=merge,
        exclusive=exclusive,
    ))
    kinds = [ev["kind"] for ev in trace.events]
    shots = [[d.shots_executed for d in rec.dispatches] for _, rec in sorted(trace.jobs.items())]
    return kinds, shots, report.mean_wt


def assert_shift_invariant(reference, shifted, k):
    kinds, shots, mean_wt = shifted
    assert kinds == reference[0], f"event kinds differ at +1e{k} s"
    assert shots == reference[1], f"shots per dispatch differ at +1e{k} s"
    assert mean_wt == pytest.approx(reference[2], rel=1e-6 if k <= 8 else 1e-5, abs=0)


# SRTF compares remaining shots at every pass, so it reads the shot clock
# most; the first 1.25 s of the seed-3 stream keeps the 55 runs to seconds
SRTF_SCENARIOS = [
    ("grid8", "merge"), ("grid8", "nomerge"), ("grid8", "backfill"),
    ("grid8", "exclusive"), ("tree40", "merge"),
]


@pytest.mark.parametrize("chip_name, mode", SRTF_SCENARIOS, ids=["-".join(s) for s in SRTF_SCENARIOS])
def test_srtf_stream_is_shift_invariant(chip_name, mode):
    reference = outcome(chip_name, "srtf", mode, seed=3, horizon=1.25, shift=0.0)
    for k in SHIFTS:
        shifted = outcome(chip_name, "srtf", mode, seed=3, horizon=1.25, shift=10.0**k)
        assert_shift_invariant(reference, shifted, k)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    policy=st.sampled_from(POLICY_NAMES),
    mode=st.sampled_from(sorted(MODES)),
    k=st.sampled_from(SHIFTS),
)
def test_any_stream_is_shift_invariant(seed, policy, mode, k):
    reference = outcome("grid8", policy, mode, seed, horizon=0.5, shift=0.0)
    assert_shift_invariant(reference, outcome("grid8", policy, mode, seed, 0.5, 10.0**k), k)
