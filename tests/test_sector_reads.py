"""Property suite for the polystate's sectors, decided at evaluation and
formed where they are read: `engine.polystate_at` judges every cut and
decides every sector's spectrum, and keeps only the sectors that deciding
formed; `Polystate.sectors` forms every other one on its first read.

Scenarios are drawn as in `test_kernel_properties`: 2 to 4 subsystems of
dimension 2 or 3, initial states of rank 1, 2 and full, and readouts that
are blocked (weight 0) or faint (weight 2.5e-15). So that tall factors and
clamps are reached on scenarios this small, a drawn flag lets no factor but
those of small side 1 pass on the rounding bound alone, and a drawn shift
moves the least eigenvalue eigvalsh returns into the clamp window or past
the tolerance."""

from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as hs

from polystate import engine, linalg
from polystate.errors import ImpossibleOutcomeError, StateValidationError

from test_kernel_properties import (FAINT_TILT, SUITE, scenarios_of_rank,
                                    scenarios_with_blocked_branch)
from test_properties import tau_values

# none, a clamp of every spectrum read, a raise on every spectrum read
SHIFTS = (0.0, -1e-12, -1e-9)


def shifted_eigvalsh(shift):
    eigvalsh = np.linalg.eigvalsh

    def shifted(m):
        w = eigvalsh(m)
        w[0] += shift
        return w

    return shifted


def fresh_read(s, taus, subset):
    """`state_after` on a cache of its own, or the error it raises."""
    try:
        return engine.state_after(s, engine.past_cut(s, taus, subset), subset, {})
    except (ImpossibleOutcomeError, StateValidationError) as exc:
        return exc


def forbidden(*args, **kwargs):
    raise AssertionError("a read decides nothing")


@SUITE
@given(s=scenarios_with_blocked_branch(scenarios_of_rank(), tilts=(0.0, FAINT_TILT)),
       taus=hs.lists(tau_values, min_size=4, max_size=4),
       unproved=hs.booleans(), shift=hs.sampled_from(SHIFTS))
def test_sector_reads_equal_fresh_state_after(s, taus, unproved, shift):
    """Every read of a `polystate_at` sector equals `state_after` on a
    fresh cache, bit for bit, and a repeat read returns the same array. A
    read runs no eigvalsh and no eigh and raises nothing: a polystate with
    a sector that cannot occur, or is not a state, is refused by
    `polystate_at` itself, with the error the first such sector's
    `state_after` raises."""
    taus = taus[:s.n]  # the draw's first n entries: one proper time per subsystem
    with mock.patch.object(linalg, "_PROVABLE_K", (0,) if unproved else linalg._PROVABLE_K), \
            mock.patch.object(np.linalg, "eigvalsh", shifted_eigvalsh(shift)):
        want = {subset: fresh_read(s, taus, subset) for subset in engine.all_subsets(s.n)}
        try:
            p = engine.polystate_at(s, taus)
        except (ImpossibleOutcomeError, StateValidationError) as exc:
            first = next(w for w in want.values() if isinstance(w, Exception))
            assert (type(exc), str(exc)) == (type(first), str(first))
            return
    assert list(p.sectors) == list(want)
    with mock.patch.object(np.linalg, "eigvalsh", forbidden), \
            mock.patch.object(np.linalg, "eigh", forbidden):
        for subset, rho in want.items():
            got = p.sectors[subset]
            assert got.shape == rho.shape and got.tobytes() == rho.tobytes(), subset
            assert p.sectors[subset] is got
