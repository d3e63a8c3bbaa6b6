"""Seeded generators for the benchmark's .scn documents and evaluation plans.

Everything here is plain Python on `random.Random(seed)`: the same seed gives
the same documents byte for byte. The seed moves event times and bases inside
windows chosen so that the causal structure, and with it the amount of work
per op and the set of ops that fail, is the same for every seed. That keeps
the end-to-end figures comparable across seeds while the inputs still differ.
"""

from __future__ import annotations

import json
import math
import random

# ghz_wide: qubits sit on static worldlines one unit apart; qubit i is
# measured near tau = 1. Each reach pattern gives every qubit a light-cone
# reach L_i: its evaluation event sees exactly the measurements on qubits j
# with |i - j| <= L_i (none when L_i = -1). The seed jitters measurement times
# by at most GHZ_MEAS_JITTER and evaluation times by at most GHZ_EVAL_JITTER,
# which keeps every tau_i - T_j at least 0.1 away from the integer distances
# where membership would change.
GHZ_MEAS_TAU = 1.0
GHZ_MEAS_JITTER = 0.1
GHZ_EVAL_JITTER = 0.2
GHZ_REACH = (
    (-1, -1, -1, -1, -1, -1, -1),
    (0, 0, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 1, 1, 1),
    (2, 2, 2, 2, 2, 2, 2),
    (6, 6, 6, 6, 6, 6, 6),
    (-1, 0, 1, 2, 3, 4, 5),
    (5, 4, 3, 2, 1, 0, -1),
    (3, -1, 0, 6, 0, -1, 2),
)

# chain_sweep: the leaves t = SWEEP_T0 + SWEEP_DT * j, j < SWEEP_LEAVES, of
# the foliation moving at SWEEP_V. A sits at x = 0, so leaf t meets it at
# tau_A = t / gamma. Measurement k on A lies in the middle of the leaf gap
# CHAIN_FIRST_GAP + floor(1.5 k), jittered by less than half a gap, so the
# number of A measurements below each leaf does not depend on the seed.
SWEEP_V = 0.5
SWEEP_T0 = -1.0
SWEEP_DT = 0.05
SWEEP_LEAVES = 141
CHAIN_FIRST_GAP = 35
CHAIN_GAP_JITTER = 0.01
# B: two seeded inertial segments, then at rest at CHAIN_B_X from coordinate
# time CHAIN_B_REST_T on. Every leaf where a rule first counts 40 or more
# selective steps meets B after that time, so the seed does not move which
# ops fail.
CHAIN_B_X = 1.5
CHAIN_B_REST_T = 0.5


def _gamma(v: float) -> float:
    return 1.0 / math.sqrt(1.0 - v * v)


def _static(x: float) -> dict:
    return {"anchor": [0.0, x], "segments": [], "final_v": [0.0]}


def ghz_document(n: int, rng: random.Random) -> str:
    """GHZ-n on n static worldlines at x = 0..n-1; every qubit gets one
    z or x measurement near tau = 1 with recorded outcome 0."""
    amp = 1.0 / math.sqrt(2.0)
    ket = [0.0] * 2**n
    ket[0] = ket[-1] = amp
    interventions = [
        {"on": f"Q{i}",
         "tau": GHZ_MEAS_TAU + rng.uniform(-GHZ_MEAS_JITTER, GHZ_MEAS_JITTER),
         "measure": {"projective_basis": rng.choice(("pauli_z", "pauli_x")),
                     "outcome": 0, "labels": ["+1", "-1"]}}
        for i in range(n)
    ]
    doc = {
        "spacetime": {"d": 1},
        "subsystems": [{"name": f"Q{i}", "dim": 2, "worldline": _static(float(i))}
                       for i in range(n)],
        "initial_state": {"ket": ket},
        "interventions": interventions,
    }
    return json.dumps(doc)


def ghz_taus(doc: str, rng: random.Random) -> list:
    """One proper-time tuple per reach pattern, for a `ghz_document`."""
    meas = [iv["tau"] for iv in json.loads(doc)["interventions"]]
    return [tuple(meas[i] + reach[i] + 0.5 + rng.uniform(-GHZ_EVAL_JITTER, GHZ_EVAL_JITTER)
                  for i in range(len(meas)))
            for reach in GHZ_REACH]


def sweep_leaves() -> list:
    return [SWEEP_T0 + SWEEP_DT * j for j in range(SWEEP_LEAVES)]


def chain_document(m: int, rng: random.Random) -> str:
    """A Bell pair psi+; A carries m alternating z/x measurements starting
    with z, B one x measurement. Every outcome is recorded 0, and each has
    conditional probability 1/2 given the ones before it in any order."""
    g = _gamma(SWEEP_V)
    a_ivs = []
    for k in range(m):
        gap = CHAIN_FIRST_GAP + (3 * k) // 2
        u = SWEEP_T0 + SWEEP_DT * (gap + 0.5) + rng.uniform(-CHAIN_GAP_JITTER, CHAIN_GAP_JITTER)
        a_ivs.append({"on": "A", "tau": u / g,
                      "measure": {"projective_basis": "pauli_z" if k % 2 == 0 else "pauli_x",
                                  "outcome": 0, "labels": ["+1", "-1"]}})

    segments = [{"dtau": rng.uniform(0.6, 1.0), "v": [rng.uniform(-0.4, 0.4)]} for _ in range(2)]
    # anchor chosen so the last segment ends at rest at (CHAIN_B_REST_T, CHAIN_B_X)
    t, x = CHAIN_B_REST_T, CHAIN_B_X
    for seg in segments:
        gv = _gamma(seg["v"][0])
        t -= seg["dtau"] * gv
        x -= seg["dtau"] * gv * seg["v"][0]
    moving = sum(seg["dtau"] for seg in segments)
    b_iv = {"on": "B", "tau": rng.uniform(0.2, moving - 0.2),
            "measure": {"projective_basis": "pauli_x", "outcome": 0, "labels": ["+1", "-1"]}}

    doc = {
        "spacetime": {"d": 1},
        "subsystems": [
            {"name": "A", "dim": 2, "worldline": _static(0.0)},
            {"name": "B", "dim": 2,
             "worldline": {"anchor": [t, x], "segments": segments, "final_v": [0.0]}},
        ],
        "initial_state": {"named": "bell_psi_plus"},
        "interventions": a_ivs + [b_iv],
    }
    return json.dumps(doc)


def worldline_event(worldline: dict, tau: float) -> tuple:
    """(t, x) at proper time tau on a 1+1 D worldline document, computed
    here rather than by the program so that output checks stay independent."""
    t, x = worldline["anchor"]
    segments = [(seg["dtau"], seg["v"][0]) for seg in worldline["segments"]]
    final_v = worldline["final_v"][0]
    if tau < 0:
        v = segments[0][1] if segments else final_v
        return t + tau * _gamma(v), x + tau * _gamma(v) * v
    for dtau, v in segments:
        step = min(tau, dtau)
        t, x, tau = t + step * _gamma(v), x + step * _gamma(v) * v, tau - step
    return t + tau * _gamma(final_v), x + tau * _gamma(final_v) * final_v
