"""Scenario data model, the .scn file format, and the region-restricted
intervention map that pushes a joint state through every intervention whose
event lies inside a spacetime region.

A .scn file is a UTF-8 JSON document:

    {
      "spacetime": {"d": 1},
      "subsystems": [
        {"name": "A", "dim": 2,
         "worldline": {"anchor": [0.0, 0.0],
                       "segments": [{"dtau": 1.0, "v": [0.5]}],
                       "final_v": [0.0]}}
      ],
      "initial_state": {"named": "bell_psi_plus"},
      "interventions": [
        {"on": "A", "tau": 1.0,
         "measure": {"projective_basis": "pauli_z", "outcome": 0,
                     "labels": ["+1", "-1"]}},
        {"on": "A", "tau": 2.0, "unitary": "hadamard"}
      ]
    }

Complex numbers are two-element arrays [re, im]; bare reals are accepted.
`initial_state` takes {"named": ...}, {"ket": [...]} or {"matrix": [[...]]}.
A measurement is either an explicit {"kraus": [matrix, ...]} list or a
{"projective_basis": name-or-kets} with basis names pauli_z, pauli_x,
pauli_y, or pauli_n(theta, phi). `outcome` is the recorded branch index.
Unitary names: pauli_x, pauli_y, pauli_z, hadamard, identity.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import ParseError, ScenarioValidationError
from .spacetime import Region, Segment, Worldline, boost_worldline, position, region_contains

UNITARY_TOL = 1e-10
KRAUS_TOL = 1e-10


@dataclass
class Diagnostic:
    field: str
    invariant: str
    message: str


@dataclass
class UnitaryOp:
    matrix: np.ndarray


@dataclass
class SelectiveOp:
    kraus: tuple
    chosen: int
    labels: tuple


@dataclass
class Intervention:
    subsystem: int
    tau: float
    op: object  # UnitaryOp or SelectiveOp


@dataclass
class Scenario:
    spatial_dim: int
    names: tuple
    dims: tuple
    worldlines: tuple
    initial_state: np.ndarray
    interventions: tuple

    @property
    def n(self) -> int:
        return len(self.dims)


NAMED_STATES = {
    "bell_psi_plus": linalg.BELL_PSI_PLUS,
    "bell_psi_minus": linalg.BELL_PSI_MINUS,
}

NAMED_UNITARIES = {
    "pauli_x": linalg.SIGMA_X,
    "pauli_y": linalg.SIGMA_Y,
    "pauli_z": linalg.SIGMA_Z,
    "hadamard": linalg.HADAMARD,
    "identity": linalg.ID2,
}

_PAULI_N = re.compile(r"^pauli_n\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)$")


def named_basis(name: str):
    """Eigenket pair (+1 branch first) for a named projective basis."""
    if name == "pauli_z":
        return (linalg.KET0, linalg.KET1)
    if name == "pauli_x":
        return (linalg.KET_PLUS, linalg.KET_MINUS)
    if name == "pauli_y":
        return linalg.spin_basis(math.pi / 2, math.pi / 2)
    m = _PAULI_N.match(name)
    if m:
        return linalg.spin_basis(float(m.group(1)), float(m.group(2)))
    raise KeyError(name)


def _complex_from_json(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(c, (int, float)) for c in v):
        return complex(v[0], v[1])
    raise ValueError(f"not a complex number: {v!r}")


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[_complex_from_json(v) for v in row] for row in rows], dtype=complex)


def _vector_from_json(entries) -> np.ndarray:
    return np.array([_complex_from_json(v) for v in entries], dtype=complex)


def _complex_to_json(z: complex):
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value alone,
    # so re-serializing a parsed document is byte-stable
    return [z.real + 0.0, z.imag + 0.0]


def _matrix_to_json(m: np.ndarray):
    return [[_complex_to_json(complex(v)) for v in row] for row in np.asarray(m)]


class _Builder:
    """Collects diagnostics while assembling a Scenario from parsed JSON."""

    def __init__(self, data):
        self.data = data
        self.diags: list[Diagnostic] = []

    def fail(self, field, invariant, message):
        self.diags.append(Diagnostic(field, invariant, message))

    def build(self):
        data = self.data
        if not isinstance(data, dict):
            self.fail("document", "object-root", "top level must be a JSON object")
            return None

        d = data.get("spacetime", {}).get("d") if isinstance(data.get("spacetime"), dict) else None
        if not isinstance(d, int) or not 1 <= d <= 3:
            self.fail("spacetime.d", "dimension-range", f"d must be 1, 2 or 3, got {d!r}")
            d = 1

        names, dims, worldlines = [], [], []
        subsystems = data.get("subsystems")
        if not isinstance(subsystems, list) or not subsystems:
            self.fail("subsystems", "nonempty-list", "at least one subsystem is required")
            subsystems = []
        for idx, sub in enumerate(subsystems):
            field = f"subsystems[{idx}]"
            name = sub.get("name")
            if not isinstance(name, str) or not name:
                self.fail(field + ".name", "nonempty-name", "subsystem name required")
                name = f"S{idx}"
            if name in names:
                self.fail(field + ".name", "unique-name", f"duplicate subsystem name {name!r}")
            names.append(name)
            dim = sub.get("dim")
            if not isinstance(dim, int) or dim < 2:
                self.fail(field + ".dim", "dimension-range", f"dim must be an integer >= 2, got {dim!r}")
                dim = 2
            dims.append(dim)
            worldlines.append(self._worldline(field + ".worldline", sub.get("worldline"), d))

        total = math.prod(dims) if dims else 0
        if total > linalg.max_dim():
            self.fail("subsystems", "dimension-cap",
                      f"joint dimension {total} exceeds the cap {linalg.max_dim()}")

        state = self._initial_state(data.get("initial_state"), total)

        interventions = []
        for idx, item in enumerate(data.get("interventions", [])):
            iv = self._intervention(f"interventions[{idx}]", item, names, dims)
            if iv is not None:
                interventions.append(iv)

        seen = set()
        for idx, iv in enumerate(interventions):
            key = (iv.subsystem, iv.tau)
            if key in seen:
                self.fail(f"interventions[{idx}].tau", "duplicate-proper-time",
                          f"two interventions on {names[iv.subsystem]!r} at tau={iv.tau}")
            seen.add(key)

        if self.diags or state is None or any(w is None for w in worldlines):
            return None
        return Scenario(
            spatial_dim=d,
            names=tuple(names),
            dims=tuple(dims),
            worldlines=tuple(worldlines),
            initial_state=state,
            interventions=tuple(interventions),
        )

    def _worldline(self, field, raw, d):
        if not isinstance(raw, dict):
            self.fail(field, "object-required", "worldline must be an object")
            return None
        anchor = raw.get("anchor")
        if not isinstance(anchor, list) or len(anchor) != 1 + d:
            self.fail(field + ".anchor", "anchor-dimension",
                      f"anchor must have {1 + d} coordinates")
            return None
        ok = True
        segments = []
        for k, seg in enumerate(raw.get("segments", [])):
            dtau = seg.get("dtau")
            v = seg.get("v")
            if not isinstance(dtau, (int, float)) or dtau <= 0:
                self.fail(f"{field}.segments[{k}].dtau", "positive-duration",
                          f"duration must be > 0, got {dtau!r}")
                ok = False
                continue
            if not self._subluminal(f"{field}.segments[{k}].v", v, d):
                ok = False
                continue
            segments.append(Segment(float(dtau), np.asarray(v, dtype=float)))
        final_v = raw.get("final_v", [0.0] * d)
        if not self._subluminal(field + ".final_v", final_v, d):
            ok = False
        if not ok:
            return None
        return Worldline(np.asarray(anchor, dtype=float), tuple(segments),
                         np.asarray(final_v, dtype=float))

    def _subluminal(self, field, v, d) -> bool:
        if not isinstance(v, list) or len(v) != d or not all(isinstance(c, (int, float)) for c in v):
            self.fail(field, "velocity-dimension", f"velocity must have {d} components")
            return False
        if float(np.linalg.norm(v)) >= 1.0:
            self.fail(field, "non-timelike-worldline",
                      f"velocity norm {float(np.linalg.norm(v)):.6g} must be < 1")
            return False
        return True

    def _initial_state(self, raw, total):
        if not isinstance(raw, dict):
            self.fail("initial_state", "object-required",
                      "initial_state must name a state or give a ket or matrix")
            return None
        try:
            if "named" in raw:
                name = raw["named"]
                if name not in NAMED_STATES:
                    self.fail("initial_state.named", "known-name",
                              f"unknown state {name!r}; known: {sorted(NAMED_STATES)}")
                    return None
                ket = NAMED_STATES[name]
                state = linalg.projector(ket)
            elif "ket" in raw:
                ket = _vector_from_json(raw["ket"])
                norm = float(np.linalg.norm(ket))
                if abs(norm - 1.0) > 1e-12:
                    self.fail("initial_state.ket", "unit-norm",
                              f"ket norm {norm} must be 1 within 1e-12")
                    return None
                state = linalg.projector(ket)
            elif "matrix" in raw:
                state = _matrix_from_json(raw["matrix"])
            else:
                self.fail("initial_state", "known-form", "need one of named, ket, matrix")
                return None
        except ValueError as exc:
            self.fail("initial_state", "well-formed-entries", str(exc))
            return None
        if total and state.shape != (total, total):
            self.fail("initial_state", "dimension-mismatch",
                      f"state dim {state.shape[0]} vs joint dim {total}")
            return None
        try:
            return linalg.check_density(state)
        except Exception as exc:
            self.fail("initial_state", "density-invariants", str(exc))
            return None

    def _intervention(self, field, item, names, dims):
        if not isinstance(item, dict):
            self.fail(field, "object-required", "intervention must be an object")
            return None
        on = item.get("on")
        if on not in names:
            self.fail(field + ".on", "unknown-subsystem", f"no subsystem named {on!r}")
            return None
        subsystem = names.index(on)
        dim = dims[subsystem]
        tau = item.get("tau")
        if not isinstance(tau, (int, float)):
            self.fail(field + ".tau", "real-proper-time", f"tau must be a number, got {tau!r}")
            return None

        if "unitary" in item:
            op = self._unitary(field + ".unitary", item["unitary"], dim)
        elif "measure" in item:
            op = self._selective(field + ".measure", item["measure"], dim)
        else:
            self.fail(field, "known-kind", "need a unitary or a measure block")
            return None
        if op is None:
            return None
        return Intervention(subsystem=subsystem, tau=float(tau), op=op)

    def _unitary(self, field, raw, dim):
        try:
            if isinstance(raw, str):
                if raw not in NAMED_UNITARIES:
                    self.fail(field, "known-name", f"unknown unitary {raw!r}")
                    return None
                mat = NAMED_UNITARIES[raw]
            else:
                mat = _matrix_from_json(raw)
        except ValueError as exc:
            self.fail(field, "well-formed-entries", str(exc))
            return None
        if mat.shape != (dim, dim):
            self.fail(field, "operator-dimension", f"unitary shape {mat.shape} vs subsystem dim {dim}")
            return None
        if np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) > UNITARY_TOL:
            self.fail(field, "unitary-invariant", "matrix is not unitary within 1e-10")
            return None
        return UnitaryOp(matrix=mat)

    def _selective(self, field, raw, dim):
        if not isinstance(raw, dict):
            self.fail(field, "object-required", "measure must be an object")
            return None
        try:
            if "kraus" in raw:
                kraus = tuple(_matrix_from_json(k) for k in raw["kraus"])
            elif "projective_basis" in raw:
                basis = raw["projective_basis"]
                if isinstance(basis, str):
                    try:
                        kets = named_basis(basis)
                    except KeyError:
                        self.fail(field + ".projective_basis", "known-name",
                                  f"unknown basis {basis!r}")
                        return None
                else:
                    kets = [_vector_from_json(k) for k in basis]
                kraus = tuple(linalg.projector(k) for k in kets)
            else:
                self.fail(field, "known-form", "need kraus or projective_basis")
                return None
        except ValueError as exc:
            self.fail(field, "well-formed-entries", str(exc))
            return None
        for k, mat in enumerate(kraus):
            if mat.shape != (dim, dim):
                self.fail(f"{field}[{k}]", "operator-dimension",
                          f"kraus shape {mat.shape} vs subsystem dim {dim}")
                return None
        total = sum(m.conj().T @ m for m in kraus)
        if np.max(np.abs(total - np.eye(dim))) > KRAUS_TOL:
            self.fail(field, "kraus-incomplete",
                      "kraus operators do not sum to the identity within 1e-10")
            return None
        chosen = raw.get("outcome")
        if not isinstance(chosen, int) or not 0 <= chosen < len(kraus):
            self.fail(field + ".outcome", "outcome-range",
                      f"outcome must be an index into {len(kraus)} branches, got {chosen!r}")
            return None
        labels = raw.get("labels")
        if labels is None:
            labels = ["+1", "-1"] if len(kraus) == 2 else [str(i) for i in range(len(kraus))]
        if not isinstance(labels, list) or len(labels) != len(kraus):
            self.fail(field + ".labels", "labels-length",
                      f"need {len(kraus)} labels, got {labels!r}")
            return None
        return SelectiveOp(kraus=kraus, chosen=chosen, labels=tuple(str(s) for s in labels))


def diagnose_document(text: str) -> list[Diagnostic]:
    """All diagnostics for a scenario document, including JSON syntax."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return [Diagnostic("document", "json-syntax",
                           f"line {exc.lineno} column {exc.colno}: {exc.msg}")]
    builder = _Builder(data)
    builder.build()
    return builder.diags


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a .scn document; raises on any problem."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from None
    builder = _Builder(data)
    scenario = builder.build()
    if builder.diags:
        raise ScenarioValidationError(builder.diags)
    return scenario


def validate(s: Scenario) -> list[Diagnostic]:
    """Diagnostics for an already-constructed Scenario value."""
    return diagnose_document(serialize_scenario(s))


def serialize_scenario(s: Scenario) -> str:
    doc = {
        "spacetime": {"d": s.spatial_dim},
        "subsystems": [
            {
                "name": s.names[i],
                "dim": s.dims[i],
                "worldline": {
                    "anchor": [float(c) for c in s.worldlines[i].anchor],
                    "segments": [
                        {"dtau": float(seg.dtau), "v": [float(c) for c in seg.velocity]}
                        for seg in s.worldlines[i].segments
                    ],
                    "final_v": [float(c) for c in s.worldlines[i].final_velocity],
                },
            }
            for i in range(s.n)
        ],
        "initial_state": {"matrix": _matrix_to_json(s.initial_state)},
        "interventions": [_intervention_to_json(s, iv) for iv in s.interventions],
    }
    return json.dumps(doc, indent=2)


def _intervention_to_json(s: Scenario, iv: Intervention):
    out = {"on": s.names[iv.subsystem], "tau": float(iv.tau)}
    if isinstance(iv.op, UnitaryOp):
        out["unitary"] = _matrix_to_json(iv.op.matrix)
    else:
        out["measure"] = {
            "kraus": [_matrix_to_json(k) for k in iv.op.kraus],
            "outcome": iv.op.chosen,
            "labels": list(iv.op.labels),
        }
    return out


def intervention_event(s: Scenario, k: int) -> np.ndarray:
    iv = s.interventions[k]
    return position(s.worldlines[iv.subsystem], iv.tau)


def selected_ids(s: Scenario, region: Region) -> tuple:
    """Indices of the interventions whose event lies inside the region."""
    return tuple(k for k in range(len(s.interventions))
                 if region_contains(region, intervention_event(s, k)))


def local_sequences(s: Scenario, ids, outcomes=None) -> dict:
    """Per subsystem, the chosen interventions as channels in ascending
    proper time; each channel is a tuple of Kraus operators.

    A unitary is its own matrix. A selective intervention takes the branch
    `outcomes` gives for its scenario index, else its recorded outcome; an
    outcome of None stands for every branch, the non-selective channel.
    """
    outcomes = outcomes or {}
    seqs: dict = {}
    for k in sorted(set(ids), key=lambda k: s.interventions[k].tau):
        iv = s.interventions[k]
        if isinstance(iv.op, UnitaryOp):
            kraus = (iv.op.matrix,)
        else:
            branch = outcomes.get(k, iv.op.chosen)
            kraus = iv.op.kraus if branch is None else (iv.op.kraus[branch],)
        seqs.setdefault(iv.subsystem, []).append(kraus)
    return seqs


def apply_interventions(s: Scenario, ids, rho, subsystem_order=None, outcomes=None) -> np.ndarray:
    """Fold the chosen interventions into rho, per subsystem in ascending
    proper time. The cross-subsystem order is immaterial because the local
    operators act on disjoint tensor factors; `subsystem_order` exists so
    tests can check exactly that. `outcomes` overrides branches as in
    `local_sequences`. The result is unnormalized: its trace is the joint
    Born weight of the chosen selective branches.
    """
    seqs = local_sequences(s, ids, outcomes)
    out = np.asarray(rho, dtype=complex)
    for subsystem in range(s.n) if subsystem_order is None else subsystem_order:
        out = linalg.apply_channels(seqs.get(subsystem, ()), subsystem, s.dims, out)
    return out


def apply_in_region(s: Scenario, region: Region, rho) -> np.ndarray:
    """The transformation attached to a spacetime region: every intervention
    located inside it, nothing else. Depends on the region only through the
    selected intervention set."""
    return apply_interventions(s, selected_ids(s, region), rho)


def boosted_scenario(s: Scenario, rapidity: float, axis=None) -> Scenario:
    """Same physics in boosted coordinates; proper times are untouched."""
    return replace(s, worldlines=tuple(boost_worldline(w, rapidity, axis)
                                       for w in s.worldlines))
