"""Command-line front end. Results go to stdout as JSON or CSV, diagnostics
to stderr. Exit codes: 0 success, 1 input or usage error, or stdout closed
by its reader before the result was written (as by `| head`), 2
conditioning on an impossible outcome."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import audit, engine, ensemble, linalg
from .errors import EmptyEnsembleError, ImpossibleOutcomeError, PolystateError
from .scenario import (NAMED_OPERATORS, NAMED_STATES, SelectiveOp, _matrix_from_json,
                       _matrix_to_json, axis_angles, diagnose_document, parse_scenario,
                       read_number)
from .spacetime import Foliation, gamma, lightcone_crossings, position, proper_time_at_leaf

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default; 2 is reserved for impossible outcomes
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def integer(raw: str) -> int:
    """An integer in ASCII digits, with an optional sign (`read_number`)."""
    return read_number(raw, int)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load(path: str):
    return parse_scenario(_read(path))


def _parse_taus(spec: str, s) -> tuple:
    if spec is None:
        raise UsageError("missing --tau (e.g. --tau A=1.0,B=0.5)")
    values = {}
    for part in spec.split(","):
        if "=" not in part:
            raise UsageError(f"bad --tau entry {part!r}; expected NAME=VALUE")
        name, _, raw = part.partition("=")
        if name not in s.names:
            raise UsageError(f"unknown subsystem {name!r} in --tau")
        if name in values:
            raise UsageError(f"--tau gives {name} twice")
        try:
            values[name] = read_number(raw)
        except ValueError:
            raise UsageError(f"bad proper time {raw!r} for {name}") from None
    missing = [n for n in s.names if n not in values]
    if missing:
        raise UsageError(f"--tau is missing {missing}")
    return tuple(values[n] for n in s.names)


def _parse_subset(spec: str, s) -> tuple:
    tokens = spec.split(",") if "," in spec else None
    if tokens is None:
        # greedy longest-name match over the concatenated form, e.g. "AB"
        tokens = []
        rest = spec
        while rest:
            match = max((n for n in s.names if rest.startswith(n)), key=len, default=None)
            if match is None:
                raise UsageError(f"cannot read subset {spec!r}; names are {list(s.names)}")
            tokens.append(match)
            rest = rest[len(match):]
    try:
        idx = sorted(s.names.index(t) for t in tokens)
    except ValueError:
        raise UsageError(f"unknown subsystem in subset {spec!r}") from None
    if len(set(idx)) != len(idx) or not idx:
        raise UsageError(f"subset {spec!r} repeats a subsystem or is empty")
    return tuple(idx)


def _subset_name(subset, s) -> str:
    return "".join(s.names[i] for i in subset)


def _parse_range(spec: str):
    try:
        lo, hi, num = spec.split(":")
        lo, hi, num = read_number(lo), read_number(hi), read_number(num, int)
    except ValueError:
        raise UsageError(f"bad range {spec!r}; expected LO:HI:COUNT, LO and HI finite") from None
    if num < 1:
        raise UsageError("range needs at least one point")
    try:
        return np.linspace(lo, hi, num)
    except (ValueError, MemoryError):
        raise UsageError(f"range {spec!r} has more points than can be allocated") from None


def _parse_velocity(spec: str, d: int) -> np.ndarray:
    raw = spec[2:] if spec.startswith("v=") else spec
    try:
        v = np.array([read_number(c) for c in raw.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"bad velocity {spec!r}") from None
    if v.shape != (d,):
        raise UsageError(f"velocity needs {d} component(s)")
    if float(np.linalg.norm(v)) >= 1:
        raise UsageError("frame velocity must be subluminal")
    return v


def _split_factors(spec: str) -> list:
    # top-level commas only; pauli_n(theta,phi) keeps its own
    parts, depth, cur = [], 0, []
    for ch in spec:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        depth += (ch == "(") - (ch == ")")
        cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_observable(spec: str, subset, s) -> np.ndarray:
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                obs = _matrix_from_json(json.load(fh))
        except (OSError, ValueError, TypeError, OverflowError) as exc:
            raise UsageError(f"bad observable file {spec}: {exc}") from None
        if not np.isfinite(obs).all():
            raise UsageError(f"observable file {spec} has non-finite entries")
        return obs
    if spec == "charge_total":
        if any(s.dims[i] != 2 for i in subset):
            raise UsageError("charge_total needs qubit subsystems")
        return linalg.total_charge(len(subset))
    parts = []
    for token in _split_factors(spec):
        # sigma_x|y|z are pauli_x|y|z, as sigma_n(theta, phi) is pauli_n
        name = "pauli_" + token[6:] if token.startswith("sigma_") else token
        if name in NAMED_OPERATORS:
            parts.append(NAMED_OPERATORS[name])
            continue
        try:
            angles = axis_angles(token, heads=("pauli_n", "sigma_n"))
        except ValueError as exc:
            raise UsageError(f"bad axis observable: {exc}") from None
        if angles is None:
            raise UsageError(f"unknown observable {token!r}")
        parts.append(linalg.sigma_n(*angles))
    if len(parts) != len(subset):
        raise UsageError(f"observable {spec!r} has {len(parts)} factors for a "
                         f"{len(subset)}-subsystem sector")
    return linalg.kron_all(*parts)


def _reference_ket(name: str, s) -> np.ndarray:
    """A named state or a 0/1/+/- product string; its dimension is checked
    against the joint dimension before a product ket is formed."""
    if name in NAMED_STATES:
        dim = len(NAMED_STATES[name])
    elif name and all(ch in "01+-" for ch in name):
        dim = 2 ** len(name)
    else:
        raise UsageError(f"unknown reference state {name!r}")
    total = math.prod(s.dims)
    if dim != total:
        raise UsageError(f"reference state {name!r} has dimension {dim}, "
                         f"the joint dimension is {total}")
    return NAMED_STATES[name] if name in NAMED_STATES else linalg.product_ket(name)


# the report fields whose CLI JSON key is not their name; a field
# `target_<key>` is <key> of the "targets" object
_KEYS = {"name": "prescription", "t_grid": "t"}


def _report(obj, skip=()) -> dict:
    """A report dataclass (`scenario.Diagnostic`, `audit.CriteriaReport` and
    its rows, `audit.ChargeLedger`, `ensemble.SectorComparison`) as its CLI
    JSON object: its fields but `skip`, then its properties, each under its
    key (`_KEYS`). Read by `getattr`, not `dataclasses.asdict`, which
    deep-copies every list."""
    doc = {}
    for name, key, target in _layout(type(obj), skip):
        value = _json(getattr(obj, name))
        if target:
            doc.setdefault("targets", {})[key] = value
        else:
            doc[key] = value
    return doc


@functools.cache
def _layout(cls, skip) -> tuple:
    """A report type's layout, read once per process for each `skip`: per
    field but `skip`, then per property, (name, key, whether the key is of
    the "targets" object)."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in skip]
    names += [n for n, v in vars(cls).items() if isinstance(v, property)]
    return tuple((name, name.removeprefix("target_"), True) if name.startswith("target_")
                 else (name, _KEYS.get(name, name), False) for name in names)


def _json(value):
    """A report value as JSON: a bool or str as itself, a list or tuple item
    by item, a report as its object, any other number as a float."""
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    return _report(value) if dataclasses.is_dataclass(value) else float(value)


def _emit(doc) -> None:
    """Write a document to stdout as `json.dump(doc, fp, indent=2)` writes
    it, and a newline (`_write_json`)."""
    write = sys.stdout.write
    _write_json(doc, write)
    write("\n")


_ESCAPE = json.encoder.encode_basestring_ascii


def _json_scalar(value) -> str | None:
    """A scalar's JSON text as `json` writes it, or None for any other value."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return None


def _write_json(value, write, indent: str = "") -> None:
    """Write a value to `write` piece by piece, byte for byte as
    `json.dump(value, fp, indent=2)` would: dicts with str keys, lists and
    tuples as arrays, and the scalars of `_json_scalar`. Each scalar goes
    out with the separator, indentation and key before it, and nothing is
    joined first, so a document is never held as text. Any other type, or
    a key that is not a str, raises TypeError."""
    text = _json_scalar(value)
    if text is not None:
        write(text)
        return
    if isinstance(value, dict):
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        write(opening + closing)
        return
    inner = indent + "  "
    separator = opening + "\n" + inner
    # one loop per kind of container: a shared generator of (key, item)
    # pairs costs a quarter more on the fixtures' documents
    if opening == "[":
        for item in value:
            text = _json_scalar(item)
            if text is None:
                write(separator)
                _write_json(item, write, inner)
            else:
                write(separator + text)
            separator = ",\n" + inner
    else:
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            text = _json_scalar(item)
            if text is None:
                write(separator + _ESCAPE(key) + ": ")
                _write_json(item, write, inner)
            else:
                write(separator + _ESCAPE(key) + ": " + text)
            separator = ",\n" + inner
    write("\n" + indent + closing)


def cmd_validate(args) -> int:
    diags = diagnose_document(_read(args.scenario))
    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "validate",
        "diagnostics": [_report(d) for d in diags],
    })
    return 1 if diags else 0


def cmd_eval(args) -> int:
    if args.observable and not args.sector:
        raise UsageError("--observable needs --sector")
    s = _load(args.scenario)
    taus = _parse_taus(args.tau, s)
    if args.sector:
        sub = _parse_subset(args.sector, s)
        sectors = {sub: engine.sector(s, taus, sub)}
    else:
        try:
            sectors = engine.polystate_at(s, taus).sectors
        except ValueError as exc:
            raise UsageError(f"{exc}; pass --sector to evaluate one") from None
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "eval",
        "taus": {n: float(t) for n, t in zip(s.names, taus)},
        "sectors": {_subset_name(sub, s): _matrix_to_json(mat) for sub, mat in sectors.items()},
    }
    if args.observable:
        obs = _parse_observable(args.observable, sub, s)
        doc["expectations"] = {
            _subset_name(sub, s): {
                "observable": args.observable,
                "value": float(linalg.expect(sectors[sub], obs)),
            }
        }
    _emit(doc)
    return 0


def cmd_sweep(args) -> int:
    s = _load(args.scenario)
    if any(d != 2 for d in s.dims):
        raise UsageError("sweep needs qubit subsystems")
    f = Foliation(_parse_velocity(args.foliation, s.spatial_dim))
    grid = _parse_range(args.t_range)
    source = next(p for p in audit.default_prescriptions(f) if p.name == args.source)
    refs = args.ref or ["bell_psi_plus", "bell_psi_minus"]
    kets = [_reference_ket(name, s) for name in refs]

    writer = csv.writer(sys.stdout)
    writer.writerow(["t"] + [f"tau_{n}" for n in s.names] + [f"fid_{name}" for name in refs]
                    + ["charge_joint", "charge_sum"])
    for t in grid:
        taus = [proper_time_at_leaf(s.worldlines[i], f, t) for i in range(s.n)]
        q, local, fids = audit.leaf_charges(source, s, taus, kets)
        writer.writerow([repr(float(x)) for x in (t, *taus, *fids, q, local)])
    return 0


def cmd_audit(args) -> int:
    s = _load(args.scenario)
    if any(d != 2 for d in s.dims):
        raise UsageError("audit needs qubit subsystems")
    f = Foliation(_parse_velocity(args.foliation, s.spatial_dim))
    grid = _parse_range(args.grid)
    bipartite = s.n == 2
    rules = audit.default_prescriptions(f) if bipartite else [audit.PolystateRule()]
    doc = {"schema_version": SCHEMA_VERSION, "command": "audit", "charge_ledgers": {
        rule.name: _report(audit.charge_ledger(s, f, grid, rule)) for rule in rules}}
    if bipartite:
        doc["criteria"] = _report(audit.criteria_report(s, _parse_taus(args.tau, s), foliation=f))
        _emit(doc)
        return 0
    _emit(doc)
    print("error: bipartite-only: prescription rows need a two-qubit scenario; "
          "polystate ledger emitted", file=sys.stderr)
    return 1


def cmd_ensemble(args) -> int:
    s = _load(args.scenario)
    taus = _parse_taus(args.tau, s)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if not 0 <= args.seed < 2**64:
        raise UsageError("--seed must be in [0, 2**64)")
    try:
        # `compare_to_polystate` reads every sector, which `polystate_at`
        # refuses above the cap; refused here before any run is sampled
        engine.check_subsystem_cap(s.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        log = ensemble.sample_runs(s, args.n, args.seed)
    except (ValueError, MemoryError):
        raise UsageError(f"--n {args.n} runs need more memory than can be allocated") from None
    freq = ensemble.branch_frequencies(log)
    report = ensemble.compare_to_polystate(log, s, taus)

    labels = [list(s.interventions[k].op.labels) for k in log.order]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "ensemble",
        "n": args.n,
        "seed": args.seed,
        "taus": {n: float(t) for n, t in zip(s.names, taus)},
        "branches": [
            {
                "outcomes": list(b),
                "labels": [labels[j][o] for j, o in enumerate(b)],
                "probability": float(log.weights[b]),
                "frequency": int(freq[b]),
            }
            for b in np.ndindex(log.weights.shape)
        ],
        "sectors": {_subset_name(r.subset, s): _report(r, skip=("subset",)) for r in report.rows},
        "max_empirical_distance": float(report.max_empirical),
        "max_analytic_distance": float(report.max_analytic),
    }
    _emit(doc)
    return 0


def cmd_diagram(args) -> int:
    s = _load(args.scenario)
    if s.spatial_dim != 1:
        raise UsageError("diagram output is planar; it needs a d=1 scenario")
    events = s.events
    taus_of_interest = [0.0] + [iv.tau for iv in s.interventions]
    times = [position(w, tau)[0] for w in s.worldlines for tau in taus_of_interest]
    t_lo = min(times + [e[0] for e in events], default=0.0) - 2.0
    t_hi = max(times + [e[0] for e in events], default=0.0) + 2.0
    if args.tau_range:
        try:
            t_lo, t_hi = (read_number(v) for v in args.tau_range.split(":"))
        except ValueError:
            raise UsageError(f"bad --tau-range {args.tau_range!r}; expected LO:HI") from None
        if t_lo > t_hi:
            raise UsageError(f"bad --tau-range {args.tau_range!r}; LO is above HI")

    rest = Foliation(np.zeros(1))

    def polyline(w):
        # from the crossing of t_lo to that of t_hi, through the piece boundaries between
        lo, hi = (proper_time_at_leaf(w, rest, t) for t in (t_lo, t_hi))
        taus = sorted({lo, hi} | {piece[0] for piece in w.pieces[1:]})
        return [[float(c) for c in position(w, tau)] for tau in taus if lo <= tau <= hi]

    polylines = [polyline(w) for w in s.worldlines]
    xs = [e[1] for e in events] + [vertex[1] for line in polylines for vertex in line]
    x_lo, x_hi = (min(xs, default=-1.0) - 2.0, max(xs, default=1.0) + 2.0)
    span = max(t_hi - t_lo, x_hi - x_lo)

    lightcones = []
    for e in events:
        rays = []
        for dt, dx in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            rays.append([[float(e[0]), float(e[1])],
                         [float(e[0] + dt * span), float(e[1] + dx * span)]])
        lightcones.append({"apex": [float(e[0]), float(e[1])], "rays": rays})

    crossings = []
    for k, iv in enumerate(s.interventions):
        for i in range(s.n):
            if i == iv.subsystem:
                continue
            tm, tp = lightcone_crossings(s.worldlines[i], events[k])
            crossings.append({
                "apex_on": s.names[iv.subsystem],
                "apex_tau": float(iv.tau),
                "worldline": s.names[i],
                "tau_minus": float(tm),
                "tau_plus": float(tp),
            })

    leaves = []
    for spec in args.leaf or []:
        try:
            vraw, traw = spec.split(":")
            v = _parse_velocity(vraw, 1)
            t = read_number(traw)
        except (ValueError, UsageError):
            raise UsageError(f"bad --leaf {spec!r}; expected V:T") from None
        # leaf t: coordinate time = v*x + t/gamma
        line = [[float(v[0] * x + t / gamma(v)), float(x)] for x in (x_lo, x_hi)]
        leaves.append({"v": float(v[0]), "t": float(t), "line": line})

    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "diagram",
        "t_range": [float(t_lo), float(t_hi)],
        "x_range": [float(x_lo), float(x_hi)],
        "worldlines": [{"name": name, "vertices": line} for name, line in zip(s.names, polylines)],
        "interventions": [
            {
                "on": s.names[iv.subsystem],
                "tau": float(iv.tau),
                "event": [float(c) for c in events[k]],
                "kind": "measure" if isinstance(iv.op, SelectiveOp) else "unitary",
            }
            for k, iv in enumerate(s.interventions)
        ],
        "lightcones": lightcones,
        "crossings": crossings,
        "leaves": leaves,
    })
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="polystate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report scenario diagnostics")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate sectors at fixed proper times")
    p.add_argument("scenario")
    p.add_argument("--tau", help="proper times, e.g. A=1.0,B=0.5")
    p.add_argument("--sector", help="subset, e.g. AB or A,B (default: all)")
    p.add_argument("--observable", help="name, factor list, or matrix file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="CSV sweep along a foliation")
    p.add_argument("scenario")
    p.add_argument("--foliation", default="v=0", help="frame velocity, e.g. v=0.5")
    p.add_argument("--t-range", required=True, help="LO:HI:COUNT leaf parameters")
    p.add_argument("--source", default="foliation",
                   choices=sorted(rule.name for rule in audit.default_prescriptions()))
    p.add_argument("--ref", action="append", help="reference state name or 0/1/+/- string")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="criteria report and charge ledgers")
    p.add_argument("scenario")
    p.add_argument("--tau", help="proper times for the criteria probes")
    p.add_argument("--grid", default="-2:4:13", help="LO:HI:COUNT ledger leaves")
    p.add_argument("--foliation", default="v=0", help="ledger frame velocity")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ensemble", help="Monte Carlo sectors vs the engine")
    p.add_argument("scenario")
    p.add_argument("--n", type=integer, required=True, help="number of runs")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--tau", help="proper times, e.g. A=1.0,B=0.5")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("diagram", help="spacetime geometry dump for plotting")
    p.add_argument("scenario")
    p.add_argument("--tau-range", help="LO:HI coordinate-time window")
    p.add_argument("--leaf", action="append", help="foliation leaf V:T, repeatable")
    p.set_defaults(func=cmd_diagram)

    return parser


@functools.cache
def _parser() -> _Parser:
    # built once per process: parse_args leaves the parser unchanged
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # flushed here, so that a closed pipe is met inside this handler
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is left for stdout goes to devnull, so the
        # flush at exit finds no pipe to break either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ImpossibleOutcomeError, EmptyEnsembleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, PolystateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
