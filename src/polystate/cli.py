"""Command-line front end. Results go to stdout as JSON or CSV, diagnostics
to stderr. Exit codes: 0 success, 1 input or usage error, or stdout closed
by its reader before the result was written (as by `| head`), 2
conditioning on an impossible outcome."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import audit, engine, ensemble, linalg
from .errors import EmptyEnsembleError, ImpossibleOutcomeError, PolystateError
from .scenario import (NAMED_STATES, SelectiveOp, _matrix_from_json, diagnose_document,
                       parse_scenario)
from .spacetime import Foliation, lightcone_crossings, position, proper_time_at_leaf

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default; 2 is reserved for impossible outcomes
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _matrix_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _finite(raw: str) -> float:
    """float(raw); ValueError unless it is a finite number, since NaN and
    infinities have no JSON form and no physical reading here."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


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
            values[name] = _finite(raw)
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
        lo, hi, num = _finite(lo), _finite(hi), int(num)
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
        v = np.array([_finite(c) for c in raw.split(",")], dtype=float)
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
    named = {"sigma_x": linalg.SIGMA_X, "sigma_y": linalg.SIGMA_Y,
             "sigma_z": linalg.SIGMA_Z, "identity": linalg.ID2, "charge": linalg.CHARGE}
    parts = []
    for token in _split_factors(spec):
        if token in named:
            parts.append(named[token])
        elif (token.startswith("pauli_n(") or token.startswith("sigma_n(")) and token.endswith(")"):
            inner = token[token.index("(") + 1:-1]
            try:
                theta, phi = (_finite(v) for v in inner.split(","))
            except ValueError:
                raise UsageError(f"bad axis observable {token!r}") from None
            parts.append(linalg.sigma_n(theta, phi))
        else:
            raise UsageError(f"unknown observable {token!r}")
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


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_validate(args) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.scenario}: {exc}") from None
    diags = diagnose_document(text)
    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "validate",
        "diagnostics": [{"field": d.field, "invariant": d.invariant, "message": d.message}
                        for d in diags],
    })
    return 1 if diags else 0


def cmd_eval(args) -> int:
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
        "sectors": {_subset_name(sub, s): _matrix_json(mat) for sub, mat in sectors.items()},
    }
    if args.observable:
        if not args.sector:
            raise UsageError("--observable needs --sector")
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
    ref_kets = {name: _reference_ket(name, s) for name in refs}

    writer = csv.writer(sys.stdout)
    writer.writerow(["t"] + [f"tau_{n}" for n in s.names] + [f"fid_{name}" for name in refs]
                    + ["charge_joint", "charge_sum"])
    for t in grid:
        taus = [proper_time_at_leaf(s.worldlines[i], f, t) for i in range(s.n)]
        joint, locals_ = audit.leaf_states(source, s, taus)
        row = [repr(float(t))] + [repr(float(tau)) for tau in taus]
        row += [repr(float(linalg.fidelity_to_ket(joint, ref_kets[name]))) for name in refs]
        row += [repr(float(q)) for q in audit.leaf_charges(joint, locals_)]
        writer.writerow(row)
    return 0


def cmd_audit(args) -> int:
    s = _load(args.scenario)
    if any(d != 2 for d in s.dims):
        raise UsageError("audit needs qubit subsystems")
    f = Foliation(_parse_velocity(args.foliation, s.spatial_dim))
    grid = _parse_range(args.grid)
    doc = {"schema_version": SCHEMA_VERSION, "command": "audit"}

    bipartite = s.n == 2
    ledgers = {}
    for rule in audit.default_prescriptions(f) if bipartite else [audit.PolystateRule()]:
        ledger = audit.charge_ledger(s, f, grid, rule)
        ledgers[rule.name] = {
            "t": [float(t) for t in ledger.t_grid],
            "q_joint": [float(v) for v in ledger.q_joint],
            "q_sum": [float(v) for v in ledger.q_sum],
            "initial": float(ledger.initial),
        }
    doc["charge_ledgers"] = ledgers

    if bipartite:
        taus = _parse_taus(args.tau, s)
        report = audit.criteria_report(s, taus, foliation=f)
        doc["criteria"] = {
            "taus": [float(t) for t in report.taus],
            "targets": {
                "marginal_a": float(report.target_marginal_a),
                "marginal_b": float(report.target_marginal_b),
                "correlation": float(report.target_correlation),
            },
            "rows": [
                {
                    "prescription": r.name,
                    "marginal_a": float(r.marginal_a),
                    "marginal_b": float(r.marginal_b),
                    "correlation": float(r.correlation),
                    "marginal_a_ok": r.marginal_a_ok,
                    "marginal_b_ok": r.marginal_b_ok,
                    "correlation_ok": r.correlation_ok,
                    "ignorance_distance": float(r.ignorance_distance),
                    "ignorance_ok": r.ignorance_ok,
                    "all_ok": r.all_ok,
                }
                for r in report.rows
            ],
        }
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
        "sectors": {
            _subset_name(r.subset, s): {
                "empirical_distance": float(r.empirical_distance),
                "analytic_distance": float(r.analytic_distance),
            }
            for r in report.rows
        },
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
            t_lo, t_hi = (_finite(v) for v in args.tau_range.split(":"))
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
            t = _finite(traw)
        except (ValueError, UsageError):
            raise UsageError(f"bad --leaf {spec!r}; expected V:T") from None
        g = 1.0 / math.sqrt(1.0 - float(v[0]) ** 2)
        # leaf t: coordinate time = v*x + t/gamma
        line = [[float(v[0] * x + t / g), float(x)] for x in (x_lo, x_hi)]
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
    p.add_argument("--n", type=int, required=True, help="number of runs")
    p.add_argument("--seed", type=int, default=0)
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
