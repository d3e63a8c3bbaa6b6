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
