"""Property test: the velocity cursor against a scalar oracle.

generate_delta_refs estimates where the vehicle is one sample on from the
reference point at the cursor and picks the first sample, from the cursor
on, nearest to that estimate. The oracle below computes the same pick one
sample at a time in Python floats; the vectorized scan must return the very
same (dx, dy, j), bit for bit, on paths with repeated samples (ties) and
with x that doubles back.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from trackmpc import (  # noqa: E402
    ControlError,
    ReferencePath,
    VehicleParams,
    VehicleState,
    generate_delta_refs,
)


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# a coarse lattice repeats coordinates, so samples coincide or sit at equal
# distances from the estimate; free floats fill in between
_COORDS = st.one_of(st.integers(-4, 4).map(lambda k: 0.5 * k), _floats(-50.0, 50.0))


@st.composite
def cursor_cases(draw):
    """A path, a cursor before its last sample, a plant, its parameters and a sample time."""
    n = draw(st.integers(2, 20))
    path = ReferencePath(x=draw(st.lists(_COORDS, min_size=n, max_size=n)),
                         y=draw(st.lists(_COORDS, min_size=n, max_size=n)), ts=0.05,
                         heading0=0.0)
    cursor = draw(st.integers(0, n - 2))
    plant = VehicleState(x=draw(_COORDS), y=draw(_COORDS), psi=draw(_floats(-4.0, 4.0)),
                         beta=draw(_floats(-1.4, 1.4)))
    # a zero sample time puts the estimate on the cursor's sample, where
    # lattice samples tie at equal distances on either side
    ts = draw(st.one_of(st.just(0.0), _floats(0.0, 0.5)))
    return path, cursor, plant, VehicleParams(v=draw(_floats(0.5, 30.0))), ts


def _oracle(path: ReferencePath, cursor: int, plant: VehicleState, v: float, ts: float):
    xs, ys = path.x.tolist(), path.y.tolist()  # Python floats
    heading = plant.psi + plant.beta
    x_est = xs[cursor] + v * math.cos(heading) * ts
    y_est = ys[cursor] + v * math.sin(heading) * ts
    best, best_d = cursor, math.inf
    for j in range(cursor, len(xs)):
        ex, ey = xs[j] - x_est, ys[j] - y_est
        d = ex * ex + ey * ey
        if d < best_d:  # strict: the first of equal distances wins
            best, best_d = j, d
    return xs[best] - xs[cursor], ys[best] - ys[cursor], best


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cursor_cases())
def test_cursor_picks_the_first_nearest_sample(case):
    path, cursor, plant, params, ts = case
    got = generate_delta_refs(plant, path, cursor, params, ts)
    want = _oracle(path, cursor, plant, params.v, ts)
    assert type(got[2]) is int and got[2] == want[2]
    # equal as floats, and in the sign of a zero
    assert [np.float64(value).tobytes() for value in got[:2]] == \
        [np.float64(value).tobytes() for value in want[:2]]
    last = len(path) - 1
    with pytest.raises(ControlError, match=f"reference cursor {last} is at the final sample"):
        generate_delta_refs(plant, path, last, params, ts)
