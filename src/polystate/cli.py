"""Command-line front end. Results go to stdout as JSON or CSV, diagnostics
to stderr. Exit codes: 0 success, 1 input or usage error, 2 conditioning on
an impossible outcome."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import audit, engine, ensemble, linalg
from .errors import EmptyEnsembleError, ImpossibleOutcomeError, PolystateError
from .scenario import SelectiveOp, diagnose_document, parse_scenario
from .spacetime import Foliation, lightcone_crossings, position, proper_time_at_leaf

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default; 2 is reserved for impossible outcomes
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _f17(x: float) -> float:
    return float(f"{float(x):.17g}")


def _matrix_json(m) -> list:
    return [[[_f17(v.real), _f17(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


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
        try:
            values[name] = float(raw)
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
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError:
        raise UsageError(f"bad range {spec!r}; expected LO:HI:COUNT") from None
    if num < 1:
        raise UsageError("range needs at least one point")
    return np.linspace(lo, hi, num)


def _parse_velocity(spec: str, d: int) -> np.ndarray:
    raw = spec[2:] if spec.startswith("v=") else spec
    try:
        v = np.array([float(c) for c in raw.split(",")], dtype=float)
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
        with open(spec, encoding="utf-8") as fh:
            rows = json.load(fh)
        return np.array([[complex(v[0], v[1]) if isinstance(v, list) else complex(v)
                          for v in row] for row in rows])
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
                theta, phi = (float(v) for v in inner.split(","))
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
    if name == "bell_psi_plus":
        return linalg.BELL_PSI_PLUS
    if name == "bell_psi_minus":
        return linalg.BELL_PSI_MINUS
    if len(name) == s.n and all(ch in "01+-" for ch in name):
        return linalg.product_ket(name)
    raise UsageError(f"unknown reference state {name!r}")


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
        subsets = [_parse_subset(args.sector, s)]
    else:
        subsets = list(engine.all_subsets(s.n))
    cache: dict = {}
    sectors = {_subset_name(sub, s): engine.sector(s, taus, sub, cache) for sub in subsets}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "eval",
        "taus": {n: _f17(t) for n, t in zip(s.names, taus)},
        "sectors": {name: _matrix_json(mat) for name, mat in sectors.items()},
    }
    if args.observable:
        if not args.sector:
            raise UsageError("--observable needs --sector")
        sub = subsets[0]
        obs = _parse_observable(args.observable, sub, s)
        doc["expectations"] = {
            _subset_name(sub, s): {
                "observable": args.observable,
                "value": _f17(linalg.expect(sectors[_subset_name(sub, s)], obs)),
            }
        }
    _emit(doc)
    return 0


_SOURCES = {
    "polystate": lambda f: audit.PolystateRule(),
    "foliation": lambda f: audit.FixedFoliation(f),
    "future_lightcone": lambda f: audit.FutureLightcone(),
    "past_lightcone": lambda f: audit.PastLightcone(),
}


def cmd_sweep(args) -> int:
    s = _load(args.scenario)
    f = Foliation(_parse_velocity(args.foliation, s.spatial_dim))
    grid = _parse_range(args.t_range)
    source = _SOURCES[args.source](f)
    refs = args.ref or ["bell_psi_plus", "bell_psi_minus"]
    ref_kets = {name: _reference_ket(name, s) for name in refs}
    qubits = all(d == 2 for d in s.dims)

    writer = csv.writer(sys.stdout)
    header = ["t"] + [f"tau_{n}" for n in s.names] + [f"fid_{name}" for name in refs]
    if qubits:
        header += ["charge_joint", "charge_sum"]
    writer.writerow(header)
    q_total = linalg.total_charge(s.n) if qubits else None
    for t in grid:
        taus = [proper_time_at_leaf(s.worldlines[i], f, t) for i in range(s.n)]
        joint = audit.single_state(source, s, taus)
        row = [repr(_f17(t))] + [repr(_f17(tau)) for tau in taus]
        row += [repr(_f17(linalg.fidelity_to_ket(joint, ref_kets[name]))) for name in refs]
        if qubits:
            locals_ = audit.reduced_states(source, s, taus)
            row.append(repr(_f17(linalg.expect(joint, q_total))))
            row.append(repr(_f17(sum(linalg.expect(r, linalg.CHARGE) for r in locals_))))
        writer.writerow(row)
    return 0


def cmd_audit(args) -> int:
    s = _load(args.scenario)
    if any(d != 2 for d in s.dims):
        raise UsageError("audit needs qubit subsystems")
    f = Foliation(_parse_velocity(args.foliation, s.spatial_dim))
    grid = _parse_range(args.grid)
    doc = {"schema_version": SCHEMA_VERSION, "command": "audit"}

    bipartite = s.n == 2 and all(d == 2 for d in s.dims)
    sources = _SOURCES if bipartite else {"polystate": _SOURCES["polystate"]}
    ledgers = {}
    for name, make in sources.items():
        ledger = audit.charge_ledger(s, f, grid, make(f))
        ledgers[name] = {
            "t": [_f17(t) for t in ledger.t_grid],
            "q_joint": [_f17(v) for v in ledger.q_joint],
            "q_sum": [_f17(v) for v in ledger.q_sum],
            "initial": _f17(ledger.initial),
        }
    doc["charge_ledgers"] = ledgers

    if bipartite:
        taus = _parse_taus(args.tau, s)
        report = audit.criteria_report(s, taus, foliation=f)
        doc["criteria"] = {
            "taus": [_f17(t) for t in report.taus],
            "targets": {
                "marginal_a": _f17(report.target_marginal_a),
                "marginal_b": _f17(report.target_marginal_b),
                "correlation": _f17(report.target_correlation),
            },
            "rows": [
                {
                    "prescription": r.name,
                    "marginal_a": _f17(r.marginal_a),
                    "marginal_b": _f17(r.marginal_b),
                    "correlation": _f17(r.correlation),
                    "marginal_a_ok": r.marginal_a_ok,
                    "marginal_b_ok": r.marginal_b_ok,
                    "correlation_ok": r.correlation_ok,
                    "ignorance_distance": _f17(r.ignorance_distance),
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
    branches = ensemble.enumerate_branches(s)
    log = ensemble.sample_runs(s, args.n, args.seed)
    freq = ensemble.branch_frequencies(log, s)
    report = ensemble.compare_to_polystate(log, s, taus)

    order = ensemble.selective_order(s)
    labels = [list(s.interventions[k].op.labels) for k in order]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "ensemble",
        "n": args.n,
        "seed": args.seed,
        "taus": {n: _f17(t) for n, t in zip(s.names, taus)},
        "branches": [
            {
                "outcomes": list(b.outcomes),
                "labels": [labels[j][o] for j, o in enumerate(b.outcomes)],
                "probability": _f17(b.probability),
                "frequency": freq.get(b.outcomes, 0),
            }
            for b in branches
        ],
        "sectors": {
            _subset_name(r.subset, s): {
                "empirical_distance": _f17(r.empirical_distance),
                "analytic_distance": _f17(r.analytic_distance),
            }
            for r in report.rows
        },
        "max_empirical_distance": _f17(report.max_empirical),
        "max_analytic_distance": _f17(report.max_analytic),
    }
    _emit(doc)
    return 0


def cmd_diagram(args) -> int:
    s = _load(args.scenario)
    if s.spatial_dim != 1:
        raise UsageError("diagram output is planar; it needs a d=1 scenario")
    events = [position(s.worldlines[iv.subsystem], iv.tau) for iv in s.interventions]
    taus_of_interest = [0.0] + [iv.tau for iv in s.interventions]
    times = [position(w, tau)[0] for w in s.worldlines for tau in taus_of_interest]
    t_lo = min(times + [e[0] for e in events], default=0.0) - 2.0
    t_hi = max(times + [e[0] for e in events], default=0.0) + 2.0
    if args.tau_range:
        t_lo, t_hi = (float(v) for v in args.tau_range.split(":"))

    def polyline(w):
        taus = sorted({t_lo, 0.0, t_hi}
                      | {sum(seg.dtau for seg in w.segments[:k + 1]) for k in range(len(w.segments))})
        return [[_f17(c) for c in position(w, tau)] for tau in taus if t_lo <= tau <= t_hi]

    xs = [e[1] for e in events] + [_f17(position(w, t)[1]) for w in s.worldlines for t in (t_lo, t_hi)]
    x_lo, x_hi = (min(xs, default=-1.0) - 2.0, max(xs, default=1.0) + 2.0)
    span = max(t_hi - t_lo, x_hi - x_lo)

    lightcones = []
    for e in events:
        rays = []
        for dt, dx in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            rays.append([[_f17(e[0]), _f17(e[1])],
                         [_f17(e[0] + dt * span), _f17(e[1] + dx * span)]])
        lightcones.append({"apex": [_f17(e[0]), _f17(e[1])], "rays": rays})

    crossings = []
    for k, iv in enumerate(s.interventions):
        for i in range(s.n):
            if i == iv.subsystem:
                continue
            tm, tp = lightcone_crossings(s.worldlines[i], events[k])
            crossings.append({
                "apex_on": s.names[iv.subsystem],
                "apex_tau": _f17(iv.tau),
                "worldline": s.names[i],
                "tau_minus": _f17(tm),
                "tau_plus": _f17(tp),
            })

    leaves = []
    for spec in args.leaf or []:
        try:
            vraw, traw = spec.split(":")
            v = _parse_velocity(vraw, 1)
            t = float(traw)
        except (ValueError, UsageError):
            raise UsageError(f"bad --leaf {spec!r}; expected V:T") from None
        g = 1.0 / math.sqrt(1.0 - float(v[0]) ** 2)
        # leaf t: coordinate time = v*x + t/gamma
        line = [[_f17(float(v[0]) * x + t / g), _f17(x)] for x in (x_lo, x_hi)]
        leaves.append({"v": _f17(float(v[0])), "t": _f17(t), "line": line})

    _emit({
        "schema_version": SCHEMA_VERSION,
        "command": "diagram",
        "t_range": [_f17(t_lo), _f17(t_hi)],
        "x_range": [_f17(x_lo), _f17(x_hi)],
        "worldlines": [{"name": s.names[i], "vertices": polyline(s.worldlines[i])}
                       for i in range(s.n)],
        "interventions": [
            {
                "on": s.names[iv.subsystem],
                "tau": _f17(iv.tau),
                "event": [_f17(c) for c in events[k]],
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
    p.add_argument("--source", choices=sorted(_SOURCES), default="foliation")
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ImpossibleOutcomeError, EmptyEnsembleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, PolystateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
