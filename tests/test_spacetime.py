import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from polystate import spacetime as st

from helpers import crossing_oracle, random_worldline
from test_kernel_properties import SUITE, seeds

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


def test_crossings_of_an_event_on_a_multi_segment_worldline():
    w = st.Worldline(np.array([0.5, -1.0, 2.0]),
                     (st.Segment(1.5, np.array([0.6, 0.0])), st.Segment(0.7, np.array([-0.3, 0.5]))),
                     np.array([0.0, -0.8]))
    # before the anchor, inside each segment, on both breakpoints, and after
    for tau in (-2.0, 0.0, 0.4, 1.5, 1.9, 2.2, 5.0):
        tm, tp = st.lightcone_crossings(w, st.position(w, tau))
        assert abs(tm - tau) <= 1e-12 and abs(tp - tau) <= 1e-12


def test_crossings_of_near_line_apexes_match_the_oracle():
    """An apex 1e-11 to 1e-5 off a point of the worldline, in a random
    direction: each crossing is within 1e-12 of the membership predicate's
    own boundary (`crossing_oracle`), in order."""
    rng = np.random.default_rng(11)
    for _ in range(150):
        d = int(rng.integers(1, 4))
        w = random_worldline(rng, d, max_segments=3)
        direction = rng.normal(size=d + 1)
        offset = 10 ** rng.uniform(-11, -5) * direction / np.linalg.norm(direction)
        apex = st.position(w, float(rng.uniform(-2, 5))) + offset
        tm, tp = st.lightcone_crossings(w, apex)
        assert tm <= tp
        assert abs(tm - crossing_oracle(w, apex, past=True)) <= 1e-12
        assert abs(tp - crossing_oracle(w, apex, past=False)) <= 1e-12


def test_crossings_on_fast_pieces_match_the_oracle():
    """Pieces at speeds 0.9 to 1 - 1e-6: each crossing is within 1e-9,
    relative, of the oracle on a bracket wide enough for gamma near 700."""
    rng = np.random.default_rng(12)

    def fast_velocity(d):
        direction = rng.normal(size=d)
        return direction / np.linalg.norm(direction) * (1 - 10 ** rng.uniform(-6, -1))

    for _ in range(60):
        d = int(rng.integers(1, 4))
        w = st.Worldline(np.concatenate([[rng.uniform(-2, 2)], rng.uniform(-3, 3, size=d)]),
                         tuple(st.Segment(float(rng.uniform(0.3, 2.0)), fast_velocity(d))
                               for _ in range(rng.integers(0, 4))),
                         fast_velocity(d))
        apex = np.concatenate([[rng.uniform(-2, 2)], rng.uniform(-3, 3, size=d)])
        for got, past in zip(st.lightcone_crossings(w, apex), (True, False)):
            want = crossing_oracle(w, apex, past, lo=-1e6, hi=1e6)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_crossings_agree_with_membership_at_piece_starts():
    """Apexes on the null cones of piece starts: a start the predicate puts
    in the apex's past is not after tau_minus, one it leaves out is not
    before it, and likewise for the future and tau_plus. Both crossings are
    Python floats."""
    rng = np.random.default_rng(13)
    for _ in range(80):
        d = int(rng.integers(1, 4))
        w = random_worldline(rng, d, max_segments=3)
        _, _, _, start, *_ = w.pieces[int(rng.integers(1, len(w.pieces)))]
        ray = rng.normal(size=d)
        ray = np.concatenate(([1.0], ray / np.linalg.norm(ray))) * rng.uniform(0.1, 4.0)
        for apex in (start + ray, start - ray):
            tm, tp = st.lightcone_crossings(w, apex)
            assert type(tm) is float and type(tp) is float
            for tau_lo, _, _, x, *_ in w.pieces[1:]:
                assert (tau_lo <= tm) if st.causally_precedes(x, apex) else (tm <= tau_lo)
                assert (tp <= tau_lo) if st.causally_precedes(apex, x) else (tau_lo <= tp)


def per_call_crossings(w, apex):
    """`lightcone_crossings` with the piece starts stacked afresh on every
    call, as it was before `Worldline.piece_starts` kept them."""
    apex = np.asarray(apex, dtype=float)
    starts = np.array([x_ref for _, _, _, x_ref, *_ in w.pieces[1:]])
    past_piece = int(np.count_nonzero(st.causally_precedes(starts, apex)))
    future_piece = int(np.count_nonzero(~st.causally_precedes(apex, starts)))
    return (st._cone_root(w.pieces[past_piece], apex, min),
            st._cone_root(w.pieces[future_piece], apex, max))


def test_crossings_from_kept_piece_starts_equal_per_call_stacks():
    """On drawn worldlines, apexes off and on them, and a boosted copy of
    each: the crossings from the kept, read-only starts equal, bit for bit,
    those from starts stacked on every call, and the boosted copy keeps the
    starts of its own pieces."""
    rng = np.random.default_rng(14)
    for _ in range(120):
        d = int(rng.integers(1, 4))
        w = random_worldline(rng, d, max_segments=3)
        boosted = st.boost_worldline(w, float(rng.uniform(-1.5, 1.5)))
        assert not w.piece_starts.flags.writeable
        assert w.piece_starts.shape == (len(w.pieces) - 1, d + 1)
        for line in (w, boosted):
            for apex in (np.concatenate([[rng.uniform(-2, 2)], rng.uniform(-3, 3, size=d)]),
                         st.position(line, float(rng.uniform(-2, 5)))):
                got = st.lightcone_crossings(line, apex)
                assert np.array(got).tobytes() == np.array(per_call_crossings(line, apex)).tobytes()
        assert np.array_equal(boosted.piece_starts,
                              [x_ref for _, _, _, x_ref, *_ in boosted.pieces[1:]])


@pytest.mark.parametrize("apex", [[1.0], [1.0, 0.0, 0.0]])
def test_crossings_refuse_an_apex_of_another_dimension(apex):
    with pytest.raises(st.DimensionMismatchError, match=r"event dims \(1, 2\) vs"):
        st.lightcone_crossings(st.Worldline(np.array([0.0, 2.0])), apex)


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


def test_a_kept_leaf_crossing_is_returned_only_for_a_leaf_of_the_same_bits(monkeypatch):
    """Over drawn sequences of leaves, repeats, -0.0 and 0.0, one-ulp
    neighbours and three frame velocities (two of them one ulp apart) among
    them, and a foliation whose frame velocity is changed midway, every
    crossing equals, bit for bit and in type, the crossing on a fresh
    `Worldline` with nothing kept. A crossing is solved exactly when the
    leaf's float bits differ from the last leaf crossed at that frame
    velocity: a kept one is never returned for another leaf."""
    solved = []
    solve = st._leaf_crossing
    monkeypatch.setattr(st, "_leaf_crossing", lambda table, t: solved.append(t) or solve(table, t))

    @SUITE
    @given(seed=seeds, d=hs.integers(1, 3), data=hs.data())
    def check(seed, d, data):
        rng = np.random.default_rng(seed)
        w = random_worldline(rng, d, max_segments=3)
        v = rng.uniform(-0.5, 0.5, size=d)
        ulp = v.copy()
        ulp[0] = np.nextafter(v[0], 1.0)
        foliations = [st.Foliation(v), st.Foliation(rng.uniform(-0.5, 0.5, size=d)),
                      st.Foliation(ulp)]
        pool = [-0.0, 0.0, 1.5, float(np.nextafter(1.5, 2.0)), -2.25, float(rng.uniform(-5, 5))]
        steps = data.draw(hs.lists(hs.tuples(hs.integers(0, 3), hs.sampled_from(pool)),
                                   min_size=1, max_size=12))
        last = {}
        for k, t in steps:
            if k == 3:  # the first foliation now moves at another frame velocity
                foliations[0].frame_velocity = data.draw(hs.sampled_from([v, ulp, -v]))
                continue
            f = foliations[k]
            key, bits = f.frame_velocity.tobytes(), np.float64(t).tobytes()
            before = len(solved)
            got = st.proper_time_at_leaf(w, f, t)
            fresh = st.Worldline(w.anchor, w.segments, w.final_velocity)
            want = st.proper_time_at_leaf(fresh, f, t)
            assert np.float64(got).tobytes() == np.float64(want).tobytes() and type(got) is type(want)
            assert len(solved) - before == 2 - (last.get(key) == bits), (k, t)
            last[key] = bits

    check()


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


def test_pieces_hold_the_bits_of_gamma_and_four_velocity():
    """Each piece's gamma and four-velocity are gamma and gamma * (1, v) of
    its velocity bit for bit, as `four_velocity` is, and each piece after
    the first starts at the anchor advanced, segment by segment, by dtau
    times that four-velocity."""
    def tangent(v):
        return st.gamma(v) * np.concatenate(([1.0], v))

    for d in (1, 2, 3):
        for _ in range(20):
            w = random_worldline(RNG, d)
            for _, _, _, _, v, g, u in w.pieces:
                assert g == st.gamma(v) and u.dtype == float
                assert np.array_equal(u, tangent(v)) and np.array_equal(st.four_velocity(v), u)
            x = w.anchor
            for seg, piece in zip(w.segments + (None,), w.pieces[1:]):
                assert np.array_equal(piece[3], x)
                if seg is not None:
                    x = x + seg.dtau * tangent(seg.velocity)
