"""Scenario data model, the .scn file format, the selection of the
interventions whose events lie inside a spacetime region, and the map that
pushes a joint state through a chosen set of interventions.

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
pauli_y, or pauli_n(theta, phi), theta and phi finite decimal numbers.
`outcome` is the recorded branch index.
A unitary is a matrix or a name from the one operator catalog,
`NAMED_OPERATORS`: pauli_x, pauli_y, pauli_z, hadamard, identity and charge.
A named operator must still be unitary, so `charge` is refused as one. The
CLI's observables name their factors from the same catalog.

What depends only on a catalog name is formed and checked once per process
and shared read-only: the projector pair of pauli_x, pauli_y and pauli_z with
its completeness verdict (`_catalog_basis`) and each `NAMED_STATES` projector
(`_catalog_state`). Every parse still checks what its document supplies or
what depends on it: an operator's shape against its subsystem's dim, the
outcome, the labels, explicit kets, Kraus matrices, every unitary, named or
not, and the projectors of each `pauli_n(theta, phi)`, formed afresh. So a
named operator gets the diagnostics a document's own would, `charge` its
`unitary-invariant`.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import ParseError, ScenarioValidationError
from .spacetime import Region, Segment, Worldline, boost_worldline, position, region_contains

UNITARY_TOL = 1e-10
KRAUS_TOL = 1e-10


@dataclass
class Diagnostic:
    """Its fields are the keys of a `polystate validate` diagnostic
    (`cli._report`), so renaming one changes the CLI schema."""
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


class Chains(NamedTuple):
    """Each subsystem's recorded operators multiplied up in (tau, id) order
    (`Scenario.chains`). Intervention k is number rank[k] in its subsystem
    j's order, and places[j, k] = rank[k] + 1, with places[i, k] = 0 for
    every other subsystem i (read-only int arrays over `Scenario.events`,
    K and n x K). ids[j] lists subsystem j's intervention ids in that
    order, so a cut applies ids[j][:L_j]. heads lists the subsystems that
    have interventions, by the (tau, id) of their first. products[j][L] =
    op_L @ products[j][L - 1], with products[j][0] the first recorded
    operator itself, so a cut applies products[j][L_j - 1], in the
    association `engine.push` multiplies outcome overrides in."""
    places: np.ndarray
    rank: np.ndarray
    ids: tuple
    heads: tuple
    products: tuple


@dataclass
class Scenario:
    spatial_dim: int
    names: tuple
    dims: tuple
    worldlines: tuple
    initial_state: np.ndarray
    interventions: tuple
    # (state, ket) for a state parsed from a `named` or `ket` input, the
    # projector on the unit ket; `replace` keeps the pair, and the ket is the
    # factor for as long as `initial_state` is that same array
    pure_input: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.dims)

    @cached_property
    def events(self) -> np.ndarray:
        """Intervention events as a read-only (K, 1+d) array, row k for
        intervention k. Computed on first use; `dataclasses.replace` builds
        a new Scenario, so a variant never sees another's events."""
        out = np.empty((len(self.interventions), 1 + self.spatial_dim))
        for k, iv in enumerate(self.interventions):
            out[k] = position(self.worldlines[iv.subsystem], iv.tau)
        out.flags.writeable = False
        return out

    @cached_property
    def past_rows(self) -> list:
        """Per subsystem, None or (tau, cut): the interventions in the
        closed causal past of its event at proper time tau, as a cut. It is
        `engine._member_rows`' memo of each member's last proper time,
        created empty on first use; `dataclasses.replace` builds a new
        Scenario, so a variant never sees another's rows."""
        return [None] * self.n

    @cached_property
    def chains(self) -> Chains:
        """Computed on first use; a `replace`d variant, with its own recorded
        outcomes, builds its own."""
        ivs = self.interventions
        rank = np.empty(len(ivs), dtype=np.intp)
        ids = [[] for _ in range(self.n)]
        products = [[] for _ in range(self.n)]
        heads = []
        for k in sorted(range(len(ivs)), key=lambda k: (ivs[k].tau, k)):
            j = ivs[k].subsystem
            chain = products[j]
            if not chain:
                heads.append(j)
            rank[k] = len(chain)
            ids[j].append(k)
            op = ivs[k].op
            op = op.matrix if isinstance(op, UnitaryOp) else op.kraus[op.chosen]
            chain.append(op @ chain[-1] if chain else op)
        owner = np.array([iv.subsystem for iv in ivs], dtype=np.intp)
        places = np.where(owner == np.arange(self.n)[:, None], rank + 1, 0)
        places.flags.writeable = rank.flags.writeable = False
        return Chains(places, rank, tuple(map(tuple, ids)), tuple(heads),
                      tuple(map(tuple, products)))

    @cached_property
    def kraus_stacks(self) -> tuple:
        """Per intervention, a selective's Kraus operators as one (m, d, d)
        array, or None for a unitary: the stack `engine` indexes with
        outcome overrides, built once on first use."""
        return tuple(np.asarray(iv.op.kraus) if isinstance(iv.op, SelectiveOp) else None
                     for iv in self.interventions)

    @cached_property
    def chain_norms(self) -> tuple:
        """(norms, vanishes): `product_norms` of each subsystem's `chains` products."""
        return tuple(zip(*(product_norms(chain, self.dims) for chain in self.chains.products)))

    def cut_of(self, mask):
        """The cut of a boolean mask over `events`: per subsystem j, how many
        of its interventions are applied in (tau, id) order, 1 + the largest
        rank the mask selects on j (0 if none), the largest of the mask
        times `Chains.places` row j. It closes a gap that rounding leaves in
        a causal past, which meets a worldline in a prefix. A stack of
        masks, one row per member (m x K), gives a list of m cuts, row i's
        the cut of mask row i alone, from one product and one max."""
        mask = np.asarray(mask)
        cut = (mask[..., None, :] * self.chains.places).max(axis=-1, initial=0).tolist()
        return tuple(cut) if mask.ndim == 1 else list(map(tuple, cut))

    def cut_ids(self, cut) -> tuple:
        """Ids of the interventions a cut applies, in ascending order."""
        return tuple(sorted(k for line, length in zip(self.chains.ids, cut)
                            for k in line[:length]))

    @cached_property
    def initial_factor(self) -> np.ndarray:
        """A read-only D x r matrix Psi with Psi Psi^dagger = initial_state.
        A state parsed from a ket is its own factor, r = 1. Any other comes
        from one `eigh`; eigenvalues at or below numpy's `matrix_rank`
        tolerance, largest * D * eps, are dropped as rounding dust, so a
        pure state gives r = 1 and a full-rank one r = D."""
        if self.pure_input is not None and self.pure_input[0] is self.initial_state:
            out = np.array(self.pure_input[1]).reshape(-1, 1)
        else:
            w, v = np.linalg.eigh(self.initial_state)
            keep = w > w.max() * w.shape[0] * np.finfo(float).eps
            out = v[:, keep] * np.sqrt(w[keep])
        out.flags.writeable = False
        return out


def product_norms(chain, dims) -> tuple:
    """(norms, vanishes) of a chain of operator products, each the last one
    times the next operator: norms[L] is the squared spectral norm of
    chain[L], and vanishes the first L at which it is below
    `linalg.push_error(dims)`^2 times the one before (1 before the first),
    where to rounding the operator annihilates every state; None if none."""
    # the largest singular value of every product, in one batched call
    norms = (np.linalg.svd(np.array(chain), compute_uv=False)[:, 0] ** 2).tolist() if chain else []
    floor = linalg.push_error(dims) ** 2
    return tuple(norms), next((L for L, (before, now) in enumerate(zip([1.0] + norms, norms))
                               if now < floor * before), None)


NAMED_STATES = {
    "bell_psi_plus": linalg.BELL_PSI_PLUS,
    "bell_psi_minus": linalg.BELL_PSI_MINUS,
}

# the one catalog of named operators: a file's `unitary` and the CLI's
# observable factors read their names here
NAMED_OPERATORS = {
    "pauli_x": linalg.SIGMA_X,
    "pauli_y": linalg.SIGMA_Y,
    "pauli_z": linalg.SIGMA_Z,
    "hadamard": linalg.HADAMARD,
    "identity": linalg.ID2,
    "charge": linalg.CHARGE,
}

# a decimal number in ASCII digits, with optional sign, point and exponent,
# and an integer, with neither point nor exponent
_NUMBER = {float: re.compile(r"\s*[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?\s*", re.ASCII),
           int: re.compile(r"\s*[-+]?[0-9]+\s*", re.ASCII)}


def read_number(raw: str, kind=float, what=None):
    """`raw` as a finite `kind`, float or int, spaces around it allowed: the
    one number grammar of the scenario file's angles and the CLI's
    arguments. Anything else raises ValueError naming `what`, else `raw`."""
    if not _NUMBER[kind].fullmatch(raw):
        raise ValueError(f"{what or repr(raw)} is not a decimal number")
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{what or repr(raw)} is not finite")
    return value


def axis_angles(name: str, heads=("pauli_n",)):
    """(theta, phi) of an axis named `head(theta, phi)` for a head in
    `heads`, or None for a name of any other form. Each angle is read by
    `read_number`, and a ValueError says which angle is wrong. The one angle
    grammar of the scenario file's `pauli_n` basis and the CLI's axis
    observables."""
    head, paren, inner = name.partition("(")
    if not paren or head not in heads or not inner.endswith(")"):
        return None
    raws = inner[:-1].split(",")
    if len(raws) != 2:
        raise ValueError(f"{name!r} needs two angles, theta and phi")
    return tuple(read_number(raw, float, f"angle {raw.strip()!r} of {name!r}") for raw in raws)


def _unitary(mat) -> bool:
    """Whether a square matrix is unitary within `UNITARY_TOL`; a NaN or
    infinite entry fails."""
    return abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max() <= UNITARY_TOL


def _complete(kraus, dim: int) -> bool:
    """Whether dim x dim Kraus operators sum to the identity within
    `KRAUS_TOL`; a NaN or infinite entry fails, and so does an empty list."""
    total = sum(m.conj().T @ m for m in kraus)
    return abs(total - np.eye(dim)).max() <= KRAUS_TOL


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _catalog_state(name: str) -> np.ndarray:
    """The read-only projector of `NAMED_STATES[name]`, formed once per process."""
    return _frozen(linalg.projector(NAMED_STATES[name]))


# the named projective bases with no angles, whose projectors are shared
_CATALOG_BASES = ("pauli_z", "pauli_x", "pauli_y")


@cache
def _catalog_basis(name: str) -> tuple:
    """(kraus, complete) of a basis in `_CATALOG_BASES`: its read-only
    projector pair and whether it sums to the identity, once per process."""
    kraus = tuple(_frozen(linalg.projector(k)) for k in named_basis(name))
    return kraus, _complete(kraus, 2)


def named_basis(name: str):
    """Eigenket pair (+1 branch first) for a named projective basis; a
    KeyError for an unknown name, a ValueError for bad `pauli_n` angles."""
    if name == "pauli_z":
        return (linalg.KET0, linalg.KET1)
    if name == "pauli_x":
        return (linalg.KET_PLUS, linalg.KET_MINUS)
    if name == "pauli_y":
        return linalg.spin_basis(math.pi / 2, math.pi / 2)
    angles = axis_angles(name)
    if angles is None:
        raise KeyError(name)
    return linalg.spin_basis(*angles)


# a parsed JSON number is an int or a float by type: `true` and `false`
# parse as bools, which isinstance counts as ints
def _complex_from_json(v):
    if type(v) in (int, float):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(type(c) in (int, float) for c in v):
        return complex(v[0], v[1])
    raise ValueError(f"not a complex number: {v!r}")


def _finite(x) -> bool:
    """Whether a parsed JSON value is a number with a finite float value."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _list_from_json(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"not {what}: {v!r}")
    return v


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[_complex_from_json(v) for v in _list_from_json(row, "a matrix row")]
                     for row in _list_from_json(rows, "a matrix")], dtype=complex)


def _vector_from_json(entries) -> np.ndarray:
    return np.array([_complex_from_json(v) for v in _list_from_json(entries, "a vector")],
                    dtype=complex)


def _matrix_to_json(m) -> list:
    """A matrix as rows of [re, im] pairs: the one matrix writer of the
    scenario document and the CLI. Adding 0.0 turns -0.0 into 0.0 and leaves
    every other value alone, so re-serializing a parsed document is
    byte-stable."""
    return [[[z.real + 0.0, z.imag + 0.0] for z in row]
            for row in np.asarray(m, dtype=complex).tolist()]


class _Builder:
    """Collects diagnostics while assembling a Scenario from parsed JSON:
    `build` returns (scenario, diagnostics), the scenario None if any."""

    def __init__(self, data):
        self.data = data
        self.diags: list[Diagnostic] = []

    def fail(self, field, invariant, message):
        self.diags.append(Diagnostic(field, invariant, message))

    def _object(self, field, raw, what) -> bool:
        """Whether raw is a JSON object; a diagnostic naming `what` if not."""
        if isinstance(raw, dict):
            return True
        self.fail(field, "object-required", f"{what} must be an object")
        return False

    def _list(self, field, raw) -> list:
        """raw if it is a list, else no entries and a diagnostic."""
        if isinstance(raw, list):
            return raw
        self.fail(field, "well-formed-entries", f"not a list: {raw!r}")
        return []

    def build(self) -> tuple:
        # the tolerance tests are written so that a NaN or infinite entry
        # fails them, with a diagnostic; numpy's warnings on the way are noise
        with np.errstate(invalid="ignore", over="ignore"):
            return self._build(), self.diags

    def _build(self):
        data = self.data
        if not isinstance(data, dict):
            self.fail("document", "object-root", "top level must be a JSON object")
            return None

        d = data.get("spacetime", {}).get("d") if isinstance(data.get("spacetime"), dict) else None
        if type(d) is not int or not 1 <= d <= 3:
            self.fail("spacetime.d", "dimension-range", f"d must be 1, 2 or 3, got {d!r}")
            d = 1

        names, dims, worldlines = [], [], []
        subsystems = data.get("subsystems")
        if not isinstance(subsystems, list) or not subsystems:
            self.fail("subsystems", "nonempty-list", "at least one subsystem is required")
            subsystems = []
        for idx, sub in enumerate(subsystems):
            field = f"subsystems[{idx}]"
            if not self._object(field, sub, "subsystem"):
                continue
            name = sub.get("name")
            if not isinstance(name, str) or not name:
                self.fail(field + ".name", "nonempty-name", "subsystem name required")
                name = f"S{idx}"
            if name in names:
                self.fail(field + ".name", "unique-name", f"duplicate subsystem name {name!r}")
            names.append(name)
            dim = sub.get("dim")
            if type(dim) is not int or dim < 2:
                self.fail(field + ".dim", "dimension-range", f"dim must be an integer >= 2, got {dim!r}")
                dim = 2
            dims.append(dim)
            worldlines.append(self._worldline(field + ".worldline", sub.get("worldline"), d))

        total = math.prod(dims) if dims else 0
        cap = linalg.max_dim()
        if total > cap:
            self.fail("subsystems", "dimension-cap", f"joint dimension {total} exceeds the cap {cap}")

        state, ket = self._initial_state(data.get("initial_state"), total)

        interventions = []
        for idx, item in enumerate(self._list("interventions", data.get("interventions", []))):
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
            pure_input=None if ket is None else (state, ket),
        )

    def _worldline(self, field, raw, d):
        if not self._object(field, raw, "worldline"):
            return None
        anchor = raw.get("anchor")
        if not isinstance(anchor, list) or len(anchor) != 1 + d:
            self.fail(field + ".anchor", "anchor-dimension",
                      f"anchor must have {1 + d} coordinates")
            return None
        if not all(_finite(c) for c in anchor):
            self.fail(field + ".anchor", "well-formed-entries",
                      f"anchor coordinates must be finite numbers, got {anchor!r}")
            return None
        before = len(self.diags)
        segments = []
        for k, seg in enumerate(self._list(field + ".segments", raw.get("segments", []))):
            at = f"{field}.segments[{k}]"
            if not self._object(at, seg, "segment"):
                continue
            if not _finite(seg.get("dtau")) or not seg["dtau"] > 0:
                self.fail(at + ".dtau", "positive-duration",
                          f"duration must be a finite number > 0, got {seg.get('dtau')!r}")
            elif self._subluminal(at + ".v", seg.get("v"), d):
                segments.append(Segment(float(seg["dtau"]), np.asarray(seg["v"], dtype=float)))
        final_v = raw.get("final_v", [0.0] * d)
        self._subluminal(field + ".final_v", final_v, d)
        if len(self.diags) > before:
            return None
        return Worldline(np.asarray(anchor, dtype=float), tuple(segments),
                         np.asarray(final_v, dtype=float))

    def _subluminal(self, field, v, d) -> bool:
        if not isinstance(v, list) or len(v) != d or not all(_finite(c) for c in v):
            self.fail(field, "velocity-dimension", f"velocity must have {d} finite components")
            return False
        if float(np.linalg.norm(v)) >= 1.0:
            self.fail(field, "non-timelike-worldline",
                      f"velocity norm {float(np.linalg.norm(v)):.6g} must be < 1")
            return False
        return True

    def _initial_state(self, raw, total):
        """(state, ket): a unit ket is validated by its norm and gives its
        projector, a matrix goes through `check_density`; (None, None) on
        failure."""
        if not isinstance(raw, dict):
            self.fail("initial_state", "object-required",
                      "initial_state must name a state or give a ket or matrix")
            return None, None
        ket = None
        try:
            if "named" in raw:
                name = raw["named"]
                if name not in NAMED_STATES:
                    self.fail("initial_state.named", "known-name",
                              f"unknown state {name!r}; known: {sorted(NAMED_STATES)}")
                    return None, None
                ket = NAMED_STATES[name]
            elif "ket" in raw:
                ket = _vector_from_json(raw["ket"])
                norm = float(np.linalg.norm(ket))
                # written so that a NaN norm fails too
                if not abs(norm - 1.0) <= 1e-12:
                    self.fail("initial_state.ket", "unit-norm",
                              f"ket norm {norm} must be 1 within 1e-12")
                    return None, None
            elif "matrix" in raw:
                state = _matrix_from_json(raw["matrix"])
            else:
                self.fail("initial_state", "known-form", "need one of named, ket, matrix")
                return None, None
        except ValueError as exc:
            self.fail("initial_state", "well-formed-entries", str(exc))
            return None, None
        if ket is not None:
            # the length is checked before the D' x D' projector is formed
            if total and len(ket) != total:
                self.fail("initial_state", "dimension-mismatch",
                          f"state dim {len(ket)} vs joint dim {total}")
                return None, None
            return (_catalog_state(raw["named"]) if "named" in raw
                    else linalg.projector(ket)), ket
        if total and state.shape != (total, total):
            self.fail("initial_state", "dimension-mismatch",
                      f"state dim {state.shape[0]} vs joint dim {total}")
            return None, None
        try:
            return linalg.check_density(state), None
        except Exception as exc:
            self.fail("initial_state", "density-invariants", str(exc))
            return None, None

    def _intervention(self, field, item, names, dims):
        if not self._object(field, item, "intervention"):
            return None
        on = item.get("on")
        if on not in names:
            self.fail(field + ".on", "unknown-subsystem", f"no subsystem named {on!r}")
            return None
        subsystem = names.index(on)
        dim = dims[subsystem]
        tau = item.get("tau")
        if not _finite(tau):
            self.fail(field + ".tau", "real-proper-time", f"tau must be a finite number, got {tau!r}")
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
                if raw not in NAMED_OPERATORS:
                    self.fail(field, "known-name", f"unknown unitary {raw!r}")
                    return None
                mat = NAMED_OPERATORS[raw]
            else:
                mat = _matrix_from_json(raw)
        except ValueError as exc:
            self.fail(field, "well-formed-entries", str(exc))
            return None
        if mat.shape != (dim, dim):
            self.fail(field, "operator-dimension", f"unitary shape {mat.shape} vs subsystem dim {dim}")
            return None
        if not _unitary(mat):
            self.fail(field, "unitary-invariant", "matrix is not unitary within 1e-10")
            return None
        return UnitaryOp(matrix=mat)

    def _selective(self, field, raw, dim):
        if not self._object(field, raw, "measure"):
            return None
        complete = None  # the verdict of a catalog basis
        try:
            if "kraus" in raw:
                kraus = tuple(_matrix_from_json(k)
                              for k in _list_from_json(raw["kraus"], "a list of matrices"))
            elif raw.get("projective_basis") in _CATALOG_BASES:
                kraus, complete = _catalog_basis(raw["projective_basis"])
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
                    kets = [_vector_from_json(k)
                            for k in _list_from_json(basis, "a list of kets")]
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
        if not (_complete(kraus, dim) if complete is None else complete):
            self.fail(field, "kraus-incomplete",
                      "kraus operators do not sum to the identity within 1e-10")
            return None
        chosen = raw.get("outcome")
        if type(chosen) is not int or not 0 <= chosen < len(kraus):
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


def _decode(text: str):
    """The JSON value of a document; a syntax error raises `ParseError` at
    its line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from None


def diagnose_document(text: str) -> list[Diagnostic]:
    """All diagnostics for a scenario document, including JSON syntax."""
    try:
        data = _decode(text)
    except ParseError as exc:
        return [Diagnostic("document", "json-syntax", str(exc))]
    return _Builder(data).build()[1]


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a .scn document; raises on any problem."""
    scenario, diags = _Builder(_decode(text)).build()
    if diags:
        raise ScenarioValidationError(diags)
    return scenario


def validate(s: Scenario) -> list[Diagnostic]:
    """Diagnostics for an already-constructed Scenario value: its document,
    as `serialize_scenario` writes it, read as a file's is, with no JSON
    text in between."""
    return _Builder(_document(s)).build()[1]


def serialize_scenario(s: Scenario) -> str:
    return json.dumps(_document(s), indent=2)


def _document(s: Scenario) -> dict:
    """The scenario as a parsed .scn document: the initial state as a
    matrix, every operator by its matrices."""
    return {
        "spacetime": {"d": _plain(s.spatial_dim)},
        "subsystems": [
            {
                "name": s.names[i],
                "dim": _plain(s.dims[i]),
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


def _plain(value):
    """A numpy integer as the Python int it equals, any other value as it
    is: a bool or a float keeps the diagnostic a file's would get."""
    return int(value) if isinstance(value, np.integer) else value


def _intervention_to_json(s: Scenario, iv: Intervention):
    out = {"on": s.names[iv.subsystem], "tau": float(iv.tau)}
    if isinstance(iv.op, UnitaryOp):
        out["unitary"] = _matrix_to_json(iv.op.matrix)
    else:
        out["measure"] = {
            "kraus": [_matrix_to_json(k) for k in iv.op.kraus],
            "outcome": _plain(iv.op.chosen),
            "labels": list(iv.op.labels),
        }
    return out


def selected_ids(s: Scenario, region: Region) -> tuple:
    """Indices of the interventions whose event lies inside the region, as
    Python ints in ascending order: one membership test over `s.events`."""
    return tuple(np.flatnonzero(region_contains(region, s.events)).tolist())


def apply_interventions(s: Scenario, ids, rho, outcomes=None, absolute=False) -> np.ndarray:
    """Fold the chosen interventions into rho, per subsystem in (tau, id)
    order, each as a channel rho -> sum_K K rho K^dagger on its factor. The
    cross-subsystem order is immaterial because the local operators act on
    disjoint tensor factors. A unitary is its own Kraus operator. A selective
    intervention takes the branch `outcomes` gives for its scenario index,
    else its recorded outcome; an outcome of None stands for every branch,
    the non-selective channel. The result is unnormalized: its trace is the
    joint Born weight of the chosen selective branches. With `absolute`, each
    operator is replaced by its entrywise absolute value, as a componentwise
    rounding bound of the push needs.
    """
    outcomes = outcomes or {}
    seqs: dict = {}
    for k in sorted(set(ids), key=lambda k: (s.interventions[k].tau, k)):
        iv = s.interventions[k]
        if isinstance(iv.op, UnitaryOp):
            kraus = (iv.op.matrix,)
        else:
            branch = outcomes.get(k, iv.op.chosen)
            kraus = iv.op.kraus if branch is None else (iv.op.kraus[branch],)
        seqs.setdefault(iv.subsystem, []).append(tuple(map(np.abs, kraus)) if absolute else kraus)
    out = np.asarray(rho, dtype=complex)
    for subsystem in range(s.n):
        for kraus in seqs.get(subsystem, ()):
            terms = [linalg.apply_local(k, subsystem, s.dims, out) for k in kraus]
            out = sum(terms[1:], terms[0])
    return out


def boosted_scenario(s: Scenario, rapidity: float, axis=None) -> Scenario:
    """Same physics in boosted coordinates; proper times are untouched."""
    return replace(s, worldlines=tuple(boost_worldline(w, rapidity, axis)
                                       for w in s.worldlines))
