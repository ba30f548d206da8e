import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidtucker import ConfigError, DataError, PidGains, PidState, adjust


def test_proportional_only_is_identity():
    gains = PidGains(1.0, 0.0, 0.0)
    state = PidState(4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        pos = int(rng.integers(4))
        e = float(rng.normal())
        assert adjust(state, gains, pos, e) == e


def test_hand_computed_trace():
    gains = PidGains(1.0, 0.1, 0.2)
    state = PidState(1)
    # first call: previous error defaults to zero
    assert adjust(state, gains, 0, 1.0) == 1.0 * 1.0 + 0.1 * 1.0 + 0.2 * (1.0 - 0.0)
    assert adjust(state, gains, 0, 0.5) == 1.0 * 0.5 + 0.1 * (1.0 + 0.5) + 0.2 * (0.5 - 1.0)


def test_bookkeeping_after_n_calls():
    gains = PidGains(0.5, 0.25, 0.125)
    state = PidState(3)
    errors = [0.5, -1.25, 2.0, 0.75]
    for e in errors:
        adjust(state, gains, 1, e)
    assert state.sum_error[1] == sum(errors)
    assert state.prev_error[1] == errors[-1]
    assert state.sum_error[0] == 0.0 and state.sum_error[2] == 0.0


def test_positions_do_not_interact():
    gains = PidGains(1.0, 1.0, 1.0)
    state = PidState(2)
    adjust(state, gains, 0, 10.0)
    # position 1 still starts fresh
    assert adjust(state, gains, 1, 1.0) == 1.0 * 1.0 + 1.0 * 1.0 + 1.0 * (1.0 - 0.0)


def test_linearity_of_decomposed_gains():
    rng = np.random.default_rng(5)
    errors = [float(rng.normal()) for _ in range(20)]
    kp, ki, kd = 0.7, 0.3, 0.15
    combined = PidState(1)
    p_state, i_state, d_state = PidState(1), PidState(1), PidState(1)
    p_gain = PidGains(1.0, 0.0, 0.0)
    i_gain = PidGains(0.0, 1.0, 0.0)
    d_gain = PidGains(0.0, 0.0, 1.0)
    for e in errors:
        full = adjust(combined, PidGains(kp, ki, kd), 0, e)
        parts = (adjust(p_state, p_gain, 0, e), adjust(i_state, i_gain, 0, e),
                 adjust(d_state, d_gain, 0, e))
        assert full == kp * parts[0] + ki * parts[1] + kd * parts[2]


def test_clamp_bounds_output():
    gains = PidGains(1.0, 1.0, 0.0)
    state = PidState(1)
    for _ in range(10):
        out = adjust(state, gains, 0, 5.0, clamp=3.0)
    assert out == 3.0
    state = PidState(1)
    for _ in range(10):
        out = adjust(state, gains, 0, -5.0, clamp=3.0)
    assert out == -3.0


def test_position_out_of_range():
    state = PidState(2)
    with pytest.raises(DataError):
        adjust(state, PidGains(), 2, 1.0)
    with pytest.raises(DataError):
        adjust(state, PidGains(), -1, 1.0)


@pytest.mark.parametrize("pos", [-1, 3, 7, -4, np.int64(-1), np.int64(3), np.int32(9),
                                 np.uint64(3)])
def test_an_out_of_range_position_raises_data_error_and_changes_nothing(pos):
    state = PidState(3)
    adjust(state, PidGains(), 1, 0.5)
    before = (list(state.sum_error), list(state.prev_error))
    with pytest.raises(DataError) as exc:
        adjust(state, PidGains(), pos, 1.0)
    assert str(exc.value) == f"training-entry position {pos} out of range [0, 3)"
    assert (state.sum_error, state.prev_error) == before


def test_negative_gains_rejected():
    with pytest.raises(ConfigError):
        PidGains(-0.1, 0.0, 0.0)
    with pytest.raises(ConfigError):
        PidGains(1.0, float("nan"), 0.0)


@settings(max_examples=60, deadline=None)
@given(gains=st.tuples(*[st.floats(0.0, 4.0)] * 3),
       clamp=st.one_of(st.none(), st.floats(1e-3, 10.0)),
       n=st.integers(1, 4),
       calls=st.lists(st.tuples(st.integers(0, 3), st.floats(-50.0, 50.0)), max_size=40))
def test_adjust_matches_a_python_float_replay_bit_for_bit(gains, clamp, n, calls):
    kp, ki, kd = gains
    state = PidState(n)
    sums, prevs = [0.0] * n, [0.0] * n
    for pos, e in calls:
        pos %= n
        sums[pos] += e
        want = kp * e + ki * sums[pos] + kd * (e - prevs[pos])
        prevs[pos] = e
        if clamp is not None:
            want = min(max(want, -clamp), clamp)
        got = adjust(state, PidGains(kp, ki, kd), pos, e, clamp)
        assert type(got) is float and got.hex() == want.hex()
    assert [x.hex() for x in state.sum_error] == [x.hex() for x in sums]
    assert [x.hex() for x in state.prev_error] == [x.hex() for x in prevs]
