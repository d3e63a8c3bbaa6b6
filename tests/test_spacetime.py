import numpy as np
import pytest

from polystate import spacetime as st

from helpers import crossing_oracle, random_worldline

RNG = np.random.default_rng(42)


def test_position_static():
    w = st.Worldline(np.array([0.0, 2.0]))
    assert np.allclose(st.position(w, 0.0), [0.0, 2.0])
    assert np.allclose(st.position(w, 3.5), [3.5, 2.0])
    assert np.allclose(st.position(w, -1.0), [-1.0, 2.0])


def test_position_piecewise():
    w = st.Worldline(np.array([0.0, 0.0]),
                     segments=(st.Segment(2.0, np.array([0.6])),),
                     final_velocity=np.array([-0.6]))
    g = 1.0 / np.sqrt(1 - 0.36)
    assert np.allclose(st.position(w, 2.0), [2.0 * g, 1.2 * g])
    # past extrapolation uses the first segment's velocity
    assert np.allclose(st.position(w, -1.0), [-g, -0.6 * g])
    assert np.allclose(st.position(w, 3.0), [3.0 * g, 0.6 * g])


def test_proper_time_normalization():
    w = random_worldline(RNG, 2)
    t1, t2 = 0.3, 0.3 + 1e-6
    dx = st.position(w, t2) - st.position(w, t1)
    interval = np.sqrt(dx[0] ** 2 - np.sum(dx[1:] ** 2))
    assert abs(interval - 1e-6) < 1e-12


def test_causal_order_predicates():
    o = np.array([0.0, 0.0])
    assert st.causally_precedes(o, np.array([1.0, 0.5]))
    assert st.causally_precedes(o, np.array([1.0, 1.0]))  # null boundary included
    assert st.causally_precedes(o, o)
    assert not st.causally_precedes(o, np.array([1.0, 1.5]))
    assert not st.causally_precedes(o, np.array([-1.0, 0.0]))
    assert st.chronologically_precedes(o, np.array([1.0, 0.5]))
    assert not st.chronologically_precedes(o, np.array([1.0, 1.0]))


def test_crossings_static_known():
    w = st.Worldline(np.array([0.0, 2.0]))
    tm, tp = st.lightcone_crossings(w, np.array([1.0, 0.0]))
    assert abs(tm - (-1.0)) < 1e-9
    assert abs(tp - 3.0) < 1e-9


def test_crossings_match_bisection_oracle():
    for _ in range(60):
        d = int(RNG.integers(1, 4))
        w = random_worldline(RNG, d)
        apex = np.concatenate([[RNG.uniform(-2, 2)], RNG.uniform(-3, 3, size=d)])
        tm, tp = st.lightcone_crossings(w, apex)
        assert abs(tm - crossing_oracle(w, apex, past=True)) < 1e-6
        assert abs(tp - crossing_oracle(w, apex, past=False)) < 1e-6
        # membership flips across each crossing
        assert st.causally_precedes(st.position(w, tm - 1e-6), apex)
        assert not st.causally_precedes(st.position(w, tm + 1e-6), apex)
        assert st.causally_precedes(apex, st.position(w, tp + 1e-6))
        assert not st.causally_precedes(apex, st.position(w, tp - 1e-6))


def test_crossing_with_apex_on_worldline():
    w = st.Worldline(np.array([0.0, 0.0]))
    tm, tp = st.lightcone_crossings(w, np.array([1.0, 0.0]))
    assert abs(tm - 1.0) < 1e-9 and abs(tp - 1.0) < 1e-9


def test_crossings_of_an_event_on_a_multi_segment_worldline(monkeypatch):
    def no_bisection(*args):
        raise AssertionError("an event on the worldline needs no bisection")

    monkeypatch.setattr(st, "_bisect_crossing", no_bisection)
    w = st.Worldline(np.array([0.5, -1.0, 2.0]),
                     (st.Segment(1.5, np.array([0.6, 0.0])), st.Segment(0.7, np.array([-0.3, 0.5]))),
                     np.array([0.0, -0.8]))
    # before the anchor, inside each segment, on both breakpoints, and after
    for tau in (-2.0, 0.0, 0.4, 1.5, 1.9, 2.2, 5.0):
        tm, tp = st.lightcone_crossings(w, st.position(w, tau))
        assert abs(tm - tau) <= 1e-12 and abs(tp - tau) <= 1e-12


def test_foliation_time_and_leaf_crossing():
    f = st.Foliation(np.array([0.5]))
    g = 1.0 / np.sqrt(0.75)
    assert abs(f.time(np.array([1.0, 0.0])) - g) < 1e-12
    assert abs(f.time(np.array([1.0, 2.0])) - g * (1.0 - 1.0)) < 1e-12
    w = st.Worldline(np.array([0.0, 2.0]))
    t = 1.2
    tau = st.proper_time_at_leaf(w, f, t)
    assert abs(f.time(st.position(w, tau)) - t) < 1e-9


def test_proper_time_at_leaf_piecewise_matches_scan():
    for _ in range(40):
        d = int(RNG.integers(1, 3))
        w = random_worldline(RNG, d)
        v = RNG.uniform(-0.8, 0.8, size=d) * RNG.uniform(0, 1)
        f = st.Foliation(v)
        t = float(RNG.uniform(-3, 3))
        tau = st.proper_time_at_leaf(w, f, t)
        assert abs(f.time(st.position(w, tau)) - t) < 1e-8


def reference_leaf_crossing(w, f, t):
    """`proper_time_at_leaf` as it read before its table: every piece's
    slope and reference leaf parameter derived afresh on each call."""
    vf = f.frame_velocity
    gf = st.gamma(vf)
    for tau_lo, tau_hi, tau_ref, x_ref, v, g, _ in w.pieces:
        slope = gf * g * (1.0 - float(np.dot(vf, v)))
        t_ref = f.time(x_ref)
        tau = tau_ref + (t - t_ref) / slope
        pad = 1e-9 * max(1.0, abs(tau))
        if tau_lo - pad <= tau <= tau_hi + pad:
            return tau
    raise AssertionError("no piece brackets the leaf")


def _leaves_at_piece_boundaries(w, f):
    """Leaf parameters through each piece boundary of w, one ulp either
    side, and a few in between and beyond."""
    taus = np.cumsum([0.0] + [seg.dtau for seg in w.segments])
    out = [-7.5, 0.25, 9.0]
    for tau in taus:
        t = float(f.time(st.position(w, tau)))
        out += [np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)]
    return out


def test_leaf_crossing_table_matches_the_per_piece_formula_bit_for_bit():
    """d = 1, 2, 3, plain and boosted worldlines, two foliations alternating
    on each, and a frame velocity one ulp from the first, which gets a
    table of its own."""
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        for _ in range(12):
            w = random_worldline(rng, d, max_segments=3)
            for line in (w, st.boost_worldline(w, float(rng.uniform(-1, 1)), rng.normal(size=d))):
                v = rng.uniform(-0.5, 0.5, size=d)
                ulp = v.copy()
                ulp[0] = np.nextafter(v[0], 1.0)
                foliations = [st.Foliation(v), st.Foliation(rng.uniform(-0.5, 0.5, size=d)),
                              st.Foliation(ulp)]
                leaves = [_leaves_at_piece_boundaries(line, f) for f in foliations]
                for k in range(len(leaves[0])):
                    for f, ts in zip(foliations, leaves):
                        got = st.proper_time_at_leaf(line, f, ts[k])
                        want = reference_leaf_crossing(line, f, ts[k])
                        assert np.float64(got).tobytes() == np.float64(want).tobytes()
                        assert type(got) is type(want)
                assert len(line.leaf_tables) == 3


def test_past_region_predicates():
    past = st.PastOfEvent(np.array([1.0, 0.0]))
    assert past.contains(np.array([0.0, 0.5]))
    assert past.contains(np.array([0.0, 1.0]))
    assert not past.contains(np.array([0.0, 1.5]))
    leaf = st.PastOfLeaf(st.Foliation(np.array([0.0])), 2.0)
    assert leaf.contains(np.array([2.0, 9.0]))
    assert not leaf.contains(np.array([2.1, 0.0]))


def test_region_union():
    r = st.Region.union_of_pasts([np.array([1.0, 0.0]), np.array([0.0, 5.0])])
    assert st.region_contains(r, np.array([0.0, 0.5]))
    assert st.region_contains(r, np.array([-1.0, 5.5]))
    assert not st.region_contains(r, np.array([0.0, 3.0]))
    assert st.region_contains(st.Region.everything(), np.array([99.0, -99.0]))
    assert not st.region_contains(st.Region.nothing(), np.array([0.0, 0.0]))


def test_boost_preserves_interval_and_causal_order():
    for _ in range(40):
        d = int(RNG.integers(1, 4))
        x = np.concatenate([[RNG.uniform(-2, 2)], RNG.uniform(-2, 2, size=d)])
        y = np.concatenate([[RNG.uniform(-2, 2)], RNG.uniform(-2, 2, size=d)])
        chi = float(RNG.uniform(-1.5, 1.5))
        axis = RNG.normal(size=d)
        bx = st.boost_event(x, chi, axis)
        by = st.boost_event(y, chi, axis)
        dx, bdx = y - x, by - bx
        s2 = dx[0] ** 2 - np.sum(dx[1:] ** 2)
        bs2 = bdx[0] ** 2 - np.sum(bdx[1:] ** 2)
        assert abs(s2 - bs2) < 1e-9
        assert st.causally_precedes(x, y) == st.causally_precedes(bx, by) or abs(s2) < 1e-9


def test_boost_worldline_tracks_events():
    for _ in range(25):
        d = int(RNG.integers(1, 3))
        w = random_worldline(RNG, d)
        chi = float(RNG.uniform(-1.2, 1.2))
        axis = RNG.normal(size=d)
        bw = st.boost_worldline(w, chi, axis)
        for tau in RNG.uniform(-4, 4, size=5):
            assert np.allclose(st.position(bw, tau),
                               st.boost_event(st.position(w, tau), chi, axis), atol=1e-9)


def test_boost_velocity_composition():
    # boosting into a frame moving at +tanh(chi) subtracts relativistically
    chi = np.arctanh(0.5)
    assert abs(st.boost_velocity(np.array([0.0]), chi)[0] - (-0.5)) < 1e-12
    assert abs(st.boost_velocity(np.array([0.5]), chi)[0]) < 1e-12


def test_boost_leaf_tracks_membership():
    f = st.Foliation(np.array([0.3]))
    t = 1.7
    chi = 0.8
    bf, bt = st.boost_leaf(f, t, chi, np.array([1.0]))
    assert np.allclose(bf.frame_velocity, st.boost_foliation(f, chi, np.array([1.0])).frame_velocity)
    for x in (np.array([0.4, 1.0]), np.array([5.0, -2.0]), np.array([3.0, 3.0])):
        bx = st.boost_event(x, chi, np.array([1.0]))
        assert (f.time(x) <= t) == (bf.time(bx) <= bt + 1e-9) or abs(f.time(x) - t) < 1e-9


def test_superluminal_rejected():
    with pytest.raises(ValueError):
        st.gamma(np.array([1.0]))
    with pytest.raises(ValueError):
        st.Worldline(np.array([0.0, 0.0]), final_velocity=np.array([1.2]))
    with pytest.raises(ValueError):
        st.Segment(1.0, np.array([1.0]))
    with pytest.raises(ValueError):
        st.Segment(-1.0, np.array([0.1]))
