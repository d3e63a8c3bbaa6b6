"""Causal geometry of flat (1+d)-dimensional spacetime.

Conventions: c = 1, coords[0] is coordinate time, 1 <= d <= 3. Events are
plain float arrays of length 1+d. Causal pasts are closed sets: they include
their null boundary and the apex event itself, so a measurement event belongs
to its own causal past.

Worldlines are piecewise inertial and inextendible. Proper time is zero at
the anchor; the curve is extended before the anchor with the first segment's
velocity (or the final velocity if there are no segments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError


def event(*coords) -> np.ndarray:
    return np.asarray(coords, dtype=float)


def gamma(velocity) -> float:
    v2 = float(np.dot(velocity, velocity))
    if v2 >= 1.0:
        raise ValueError(f"velocity norm {math.sqrt(v2)} is not subluminal")
    return 1.0 / math.sqrt(1.0 - v2)


def four_velocity(velocity) -> np.ndarray:
    """gamma * (1, v); the tangent per unit proper time, written entry by
    entry with no concatenated copy. Since gamma * 1.0 is gamma, u[0] holds
    gamma's own bits."""
    v = np.asarray(velocity, dtype=float)
    g = gamma(v)
    u = np.empty(1 + v.shape[0])
    u[0] = g
    np.multiply(g, v, out=u[1:])
    return u


@dataclass
class Segment:
    dtau: float
    velocity: np.ndarray

    def __post_init__(self):
        self.velocity = np.asarray(self.velocity, dtype=float)
        if not self.dtau > 0:
            raise ValueError(f"segment duration must be positive, got {self.dtau}")
        gamma(self.velocity)  # raises if not subluminal


@dataclass
class Worldline:
    anchor: np.ndarray
    segments: tuple[Segment, ...] = ()
    final_velocity: np.ndarray | None = None

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=float)
        self.segments = tuple(self.segments)
        if self.final_velocity is None:
            self.final_velocity = np.zeros(self.anchor.shape[0] - 1)
        self.final_velocity = np.asarray(self.final_velocity, dtype=float)
        gamma(self.final_velocity)

    def spatial_dim(self) -> int:
        return self.anchor.shape[0] - 1

    @cached_property
    def pieces(self) -> tuple:
        """Inertial pieces as (tau_lo, tau_hi, tau_ref, x_ref, velocity,
        gamma, four_velocity), computed on first use. Nothing changes a
        worldline after construction (a boost builds a new one), so the
        pieces never go stale."""
        first_v = self.segments[0].velocity if self.segments else self.final_velocity
        u = four_velocity(first_v)
        pieces = [(-math.inf, 0.0, 0.0, self.anchor, first_v, float(u[0]), u)]
        x = self.anchor
        tau = 0.0
        for seg in self.segments:
            u = four_velocity(seg.velocity)
            pieces.append((tau, tau + seg.dtau, tau, x, seg.velocity, float(u[0]), u))
            x = x + seg.dtau * u
            tau += seg.dtau
        u = four_velocity(self.final_velocity)
        pieces.append((tau, math.inf, tau, x, self.final_velocity, float(u[0]), u))
        return tuple(pieces)

    @cached_property
    def piece_starts(self) -> np.ndarray:
        """The start events of the pieces after the first, stacked in
        order, shape (len(pieces) - 1, d + 1), read-only: the bracket of
        `lightcone_crossings`, built once, as the pieces are."""
        starts = np.array([x_ref for _, _, _, x_ref, *_ in self.pieces[1:]])
        starts.flags.writeable = False
        return starts

    @cached_property
    def leaf_tables(self) -> dict:
        """`proper_time_at_leaf`'s per-piece crossing data, one table per
        foliation, keyed by the bytes of its frame velocity, each held as
        [table, t, tau] beside the last leaf t crossed at that frame
        velocity and its crossing tau; empty until a foliation is first
        crossed."""
        return {}


def position(w: Worldline, tau: float) -> np.ndarray:
    """Event on the worldline at proper time tau. Every proper time the
    package evaluates at becomes an event here, so a tau that is not finite
    raises ValueError here, naming it."""
    if not math.isfinite(tau):
        raise ValueError(f"proper time {tau} is not a finite number")
    for tau_lo, tau_hi, tau_ref, x_ref, _, _, u in w.pieces:
        if tau_lo <= tau <= tau_hi:
            return x_ref + (tau - tau_ref) * u
    raise ValueError(f"proper time {tau} not covered; worldline pieces are broken")


def _separation(x, y):
    """(dt, |dx|) from x to y, broadcast over leading axes. The spatial norm
    is one elementwise sum of squares in component order, written out (the
    sum `np.linalg.norm` makes, without its argument handling), so a stack
    of events gets, row by row, exactly the values a single event gets."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise DimensionMismatchError(f"event dims {x.shape} vs {y.shape}")
    dx = y[..., 1:] - x[..., 1:]
    return y[..., 0] - x[..., 0], np.sqrt(np.add.reduce(dx * dx, axis=-1))


def causally_precedes(x, y):
    """True iff y is in the closed causal future of x (x itself included).

    Either argument may be a stack of events with leading axes; the result
    is then a boolean array over the broadcast leading shape.
    """
    dt, dr = _separation(x, y)
    return (dt >= 0) & (dt >= dr)


def chronologically_precedes(x, y):
    """Strict timelike order: y is in the open interior of x's future cone.
    Broadcasts over stacks of events like `causally_precedes`."""
    dt, dr = _separation(x, y)
    return (dt > 0) & (dt > dr)


def lightcone_crossings(w: Worldline, apex) -> tuple[float, float]:
    """Proper times where the worldline meets the past and future lightcones
    of the apex event, as Python floats. Unique for timelike inextendible
    curves in flat spacetime; tau_minus <= tau_plus, equal only when the
    apex lies on the worldline.

    Bracket: the apex's closed past holds a prefix of the worldline and its
    closed future a suffix, so `causally_precedes` on the piece starts
    (`Worldline.piece_starts`, stacked once per worldline) names
    the piece of each crossing: the past crossing lies on the piece after
    the last start inside the past, the future crossing on the piece after
    the last start outside the future. Solve: on that piece, with
    b = apex - x_ref and s = tau - tau_ref, the crossing solves
    s^2 - 2 m s + c = 0 for m = <b, u> and c = <b, b>. The discriminant
    m^2 - c is read off the apex's offset from the line, b - m u, which is
    orthogonal to u and does not cancel near the line (a rounding below 0
    reads as 0, the discriminant of a line through the apex); the roots are
    q = m + copysign(sqrt(disc), m) and c / q (Higham 2002, section 1.8),
    the smaller for the past and the larger for the future. Clamp: the
    root is clamped into the piece's span, so a crossing never disagrees
    with the membership test at a piece start.
    """
    apex = np.asarray(apex, dtype=float)
    starts = w.piece_starts
    past_piece = int(np.count_nonzero(causally_precedes(starts, apex)))
    future_piece = int(np.count_nonzero(~causally_precedes(apex, starts)))
    return _cone_root(w.pieces[past_piece], apex, min), _cone_root(w.pieces[future_piece], apex, max)


def _cone_root(piece, apex, pick) -> float:
    """The root `pick` (min: past, max: future) of the cone crossing on one
    inertial piece, clamped into the piece's span."""
    tau_lo, tau_hi, tau_ref, x_ref, v, g, u = piece
    b = apex - x_ref
    m = g * float(b[0] - np.dot(b[1:], v))
    c = float(b[0] * b[0] - np.dot(b[1:], b[1:]))
    off = b - m * u
    disc = float(np.dot(off[1:], off[1:]) - off[0] * off[0])
    q = m + math.copysign(math.sqrt(max(disc, 0.0)), m)
    # q is 0 only when m and disc are, where both roots m -+ sqrt(disc) are 0
    s = pick(q, c / q) if q else 0.0
    return float(min(max(tau_ref + s, tau_lo), tau_hi))


@dataclass
class Foliation:
    """Family of spacelike hyperplanes: the leaves of constant time in the
    inertial frame moving at frame_velocity."""

    frame_velocity: np.ndarray

    def __post_init__(self):
        self.frame_velocity = np.asarray(self.frame_velocity, dtype=float)
        gamma(self.frame_velocity)

    def time(self, x):
        """Leaf parameter of the event: its boosted time coordinate. A stack
        of events gives an array over its leading axes; the dot product is an
        elementwise sum in component order, the same for every row."""
        x = np.asarray(x, dtype=float)
        v = self.frame_velocity
        return gamma(v) * (x[..., 0] - np.add.reduce(x[..., 1:] * v, axis=-1))


@dataclass
class PastOfEvent:
    apex: np.ndarray

    def __post_init__(self):
        self.apex = np.asarray(self.apex, dtype=float)

    def contains(self, x):
        """Whether x (one event, or each of a stack) lies in the closed past."""
        return causally_precedes(x, self.apex)


@dataclass
class PastOfLeaf:
    foliation: Foliation
    t: float

    def contains(self, x):
        """Whether x (one event, or each of a stack) lies at or below the leaf."""
        return self.foliation.time(x) <= self.t


@dataclass
class Region:
    """Union of causal-past atoms, with explicit everything/nothing markers."""

    atoms: tuple = ()
    all_events: bool = False

    @classmethod
    def everything(cls) -> "Region":
        return cls(atoms=(), all_events=True)

    @classmethod
    def nothing(cls) -> "Region":
        return cls(atoms=())

    @classmethod
    def union_of_pasts(cls, events) -> "Region":
        return cls(atoms=tuple(PastOfEvent(e) for e in events))


def region_contains(r: Region, x):
    """Membership of one event, or of each event in a stack of them."""
    x = np.asarray(x, dtype=float)
    inside = np.full(x.shape[:-1], r.all_events)
    for atom in r.atoms:
        inside |= atom.contains(x)
    return inside[()]


def _leaf_table(w: Worldline, f: Foliation) -> tuple:
    """Per piece of w, (tau_lo, tau_hi, tau_ref, t_ref, slope): its leaf
    parameter is t_ref at tau_ref and grows at the given slope."""
    vf = f.frame_velocity
    gf = gamma(vf)
    return tuple((tau_lo, tau_hi, tau_ref, f.time(x_ref), gf * g * (1.0 - float(np.dot(vf, v))))
                 for tau_lo, tau_hi, tau_ref, x_ref, v, g, _ in w.pieces)


def proper_time_at_leaf(w: Worldline, f: Foliation, t: float) -> float:
    """The unique proper time where the worldline crosses leaf t.

    The leaf parameter along the worldline is piecewise linear in tau with
    strictly positive slope gamma_f * gamma_v * (1 - v_f . v), so the
    crossing is solved in closed form on the first piece that brackets it,
    within a pad of 1e-9 relative (`_leaf_crossing`). Each piece's reference
    leaf parameter and slope are computed once per worldline and frame
    velocity, on first use (`Worldline.leaf_tables`), so a solve is a few
    float operations per piece. The last crossing at each frame velocity is
    kept beside its table and returned again for a leaf of the same float
    bits, so the evaluators of one leaf solve it once; -0.0 and 0.0 are
    different leaves there. A leaf t that is not finite raises ValueError,
    naming it.
    """
    if not math.isfinite(t):
        raise ValueError(f"leaf {t} is not a finite number")
    key = f.frame_velocity.tobytes()
    held = w.leaf_tables.get(key)
    if held is None:
        # no leaf equals NaN, so the first leaf is solved
        held = w.leaf_tables[key] = [_leaf_table(w, f), math.nan, None]
    if held[1] != t or math.copysign(1.0, held[1]) != math.copysign(1.0, t):
        held[1:] = float(t), _leaf_crossing(held[0], t)
    return held[2]


def _leaf_crossing(table: tuple, t: float) -> float:
    """The crossing of leaf t on the first piece of a `_leaf_table` that
    brackets it."""
    for tau_lo, tau_hi, tau_ref, t_ref, slope in table:
        tau = tau_ref + (t - t_ref) / slope
        pad = 1e-9 * max(1.0, abs(tau))
        if tau_lo - pad <= tau <= tau_hi + pad:
            return tau
    raise ValueError("leaf crossing not found; worldline pieces are broken")


def boost_event(x, rapidity: float, axis=None) -> np.ndarray:
    """Lorentz boost of an event (or any 4-vector) along a spatial unit axis."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0] - 1
    n = _unit_axis(axis, d)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    xn = float(np.dot(x[1:], n))
    out = x.copy()
    out[0] = ch * x[0] - sh * xn
    out[1:] = x[1:] + ((ch - 1.0) * xn - sh * x[0]) * n
    return out


def _unit_axis(axis, d: int) -> np.ndarray:
    if axis is None:
        n = np.zeros(d)
        n[0] = 1.0
        return n
    n = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(n))
    if norm == 0:
        raise ValueError("boost axis must be nonzero")
    return n / norm


def boost_velocity(v, rapidity: float, axis=None) -> np.ndarray:
    u = boost_event(four_velocity(v), rapidity, axis)
    return u[1:] / u[0]


def boost_worldline(w: Worldline, rapidity: float, axis=None) -> Worldline:
    # proper-time durations are invariant, velocities compose relativistically
    return Worldline(
        anchor=boost_event(w.anchor, rapidity, axis),
        segments=tuple(Segment(s.dtau, boost_velocity(s.velocity, rapidity, axis))
                       for s in w.segments),
        final_velocity=boost_velocity(w.final_velocity, rapidity, axis),
    )


def boost_foliation(f: Foliation, rapidity: float, axis=None) -> Foliation:
    return Foliation(boost_velocity(f.frame_velocity, rapidity, axis))


def boost_leaf(f: Foliation, t: float, rapidity: float, axis=None) -> tuple[Foliation, float]:
    """Transform a leaf: new foliation plus the new parameter of the same
    hyperplane, read off a boosted sample point of the old leaf."""
    d = f.frame_velocity.shape[0]
    sample = np.concatenate(([t / gamma(f.frame_velocity)], np.zeros(d)))
    fb = boost_foliation(f, rapidity, axis)
    return fb, fb.time(boost_event(sample, rapidity, axis))
