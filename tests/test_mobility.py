import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hflsim import mobility
from hflsim.mobility import (
    RoadNetwork, VehicleState, advance, associate, edge_of_position, init_positions,
)
from hflsim import rng


def net(a=100.0, zone=10.0, slow=0.5):
    return RoadNetwork(side_length=a, intersection_zone=zone, slowdown_factor=slow)


class TestRoadNetwork:
    def test_square_only(self):
        with pytest.raises(ValueError):
            RoadNetwork(edge_count=3)

    def test_zone_bound(self):
        with pytest.raises(ValueError):
            RoadNetwork(side_length=100.0, intersection_zone=50.0)

    @pytest.mark.parametrize("bad", [dict(side_length=0.0), dict(slowdown_factor=0.0),
                                     dict(slowdown_factor=1.5)])
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            RoadNetwork(**bad)


class TestInitPositions:
    def test_side_midpoints_give_one_per_edge(self):
        n = net(a=1000.0, zone=0.0)
        states = [VehicleState(i, 1000.0 * i + 500.0, 1, 10.0) for i in range(4)]
        snap = associate(n, states)
        assert sorted(snap.edge_of.tolist()) == [0, 1, 2, 3]

    def test_determinism(self):
        n = net(a=1000.0)
        a = init_positions(n, 20, speed=5.0, seed=7)
        b = init_positions(n, 20, speed=5.0, seed=7)
        assert all(x.arc_position == y.arc_position and x.direction == y.direction
                   for x, y in zip(a, b))

    def test_uniform_side_counts(self):
        n = net(a=1000.0)
        states = init_positions(n, 10_000, speed=1.0, seed=3)
        counts = np.bincount(associate(n, states).edge_of, minlength=4)
        assert np.all(np.abs(counts - 2500) <= 0.05 * 2500)

    def test_edge_matched_placement(self):
        n = net(a=1000.0)
        assignment = {m: m % 4 for m in range(16)}
        states = init_positions(n, 16, speed=1.0, seed=4, edge_assignment=assignment)
        snap = associate(n, states)
        assert all(snap.edge_of[m] == m % 4 for m in range(16))


class TestVehicleState:
    @pytest.mark.parametrize("speed", [float("nan"), float("inf"), -1.0])
    def test_invalid_max_speed(self, speed):
        # an infinite speed would make advance loop forever
        with pytest.raises(ValueError, match="max_speed"):
            VehicleState(0, 0.0, 1, speed)


class TestAdvance:
    def test_zero_speed_fixed(self):
        n = net()
        s = VehicleState(0, 42.0, -1, 0.0)
        for dt in (0.5, 1.0, 10.0):
            [r] = advance(n, [s], dt)
            assert r.arc_position == 42.0

    def test_wraparound(self):
        n = net(a=100.0, zone=0.0)
        [r] = advance(n, [VehicleState(0, 390.0, 1, 30.0)], dt=1.0)
        assert r.arc_position == pytest.approx(20.0, abs=1e-9)

    def test_corner_zone_strictly_slower(self):
        # 20 m zone straddling the corner takes 20/(v*slow) not 20/v
        n = net(a=100.0, zone=10.0, slow=0.5)
        start = VehicleState(0, 90.0, 1, 30.0)
        [at_fast_time] = advance(n, [start], dt=20.0 / 30.0)
        assert at_fast_time.arc_position < 110.0  # still inside the zone
        [at_slow_time] = advance(n, [start], dt=20.0 / 15.0)
        assert at_slow_time.arc_position == pytest.approx(110.0, abs=1e-9)

    @pytest.mark.parametrize("start,direction", [(50.0, 1), (205.0, -1), (399.0, 1)])
    def test_fine_step_integration_oracle(self, start, direction):
        # independent oracle: Euler integration at dt = 1e-4
        n = net(a=100.0, zone=10.0, slow=0.5)
        [exact] = advance(n, [VehicleState(0, start, direction, 30.0)], dt=3.0)
        pos = start
        for _ in range(30_000):
            off = pos % 100.0
            sp = 15.0 if min(off, 100.0 - off) < 10.0 else 30.0
            pos = (pos + direction * sp * 1e-4) % 400.0
        assert exact.arc_position == pytest.approx(pos, abs=0.05)

    @settings(max_examples=40, deadline=None)
    @given(pos=st.floats(0.0, 399.999), direction=st.sampled_from([1, -1]),
           dt=st.floats(0.01, 50.0), speed=st.floats(0.0, 40.0))
    def test_wraparound_closure(self, pos, direction, dt, speed):
        n = net(a=100.0, zone=10.0)
        [r] = advance(n, [VehicleState(0, pos, direction, speed)], dt)
        assert 0.0 <= r.arc_position < 400.0

    def test_subnormal_speed_does_not_divide_by_zero(self):
        # max_speed * slowdown_factor underflows to 0 for subnormal speeds
        n = net(a=100.0, zone=10.0)
        [r] = advance(n, [VehicleState(0, 0.0, 1, 5e-324)], dt=1.0)
        assert r.arc_position == 0.0

    def test_turn_probability_deterministic(self):
        n = net(a=100.0, zone=0.0)
        def run():
            g = rng.stream(5, rng.MOBILITY_TURNS)
            states = [VehicleState(0, 95.0, 1, 30.0)]
            out = []
            for _ in range(20):
                states = advance(n, states, dt=1.0, p_turn=0.5, turn_rng=g)
                out.append((states[0].arc_position, states[0].direction))
            return out
        assert run() == run()
        dirs = {d for _, d in run()}
        assert dirs == {1, -1}  # at p_turn=0.5 some reversal happens


class TestAssociate:
    def test_side_midpoint(self):
        n = net(a=1000.0)
        assert edge_of_position(n, 2500.0) == 2

    def test_corner_tie_breaks_low(self):
        n = net(a=1000.0)
        assert edge_of_position(n, 2000.0) == 1  # between sides 1 and 2
        assert edge_of_position(n, 1000.0) == 0
        assert edge_of_position(n, 3000.0) == 2
        assert edge_of_position(n, 0.0) == 0

    def test_exhaustive_sweep_balanced(self):
        n = net(a=1000.0)
        step = 4000.0 / 1000
        edges = [edge_of_position(n, (k + 0.5) * step) for k in range(1000)]
        counts = np.bincount(edges, minlength=4)
        assert counts.tolist() == [250, 250, 250, 250]

    def test_partition_property(self):
        n = net(a=1000.0)
        states = init_positions(n, 50, speed=3.0, seed=9)
        snap = associate(n, states)
        assert snap.edge_of.shape == (50,)
        assert set(snap.edge_of.tolist()) <= {0, 1, 2, 3}

    def test_static_association_constant(self):
        n = net(a=1000.0)
        states = init_positions(n, 12, speed=0.0, seed=2)
        first = associate(n, states).edge_of
        for _ in range(5):
            states = advance(n, states, dt=1.0)
            assert np.array_equal(associate(n, states).edge_of, first)


class TestSchedule:
    @pytest.mark.parametrize("p_turn", [0.0, 0.5])
    def test_rows_match_stepping_loop(self, p_turn):
        # differential oracle: the interleaved advance + associate loop
        n = net(a=100.0, zone=10.0)
        start = init_positions(n, 12, speed=30.0, seed=8)
        rounds = 60
        positions, edge_of = mobility.schedule(n, start, rounds, p_turn, seed=5)
        assert positions.shape == edge_of.shape == (rounds + 1, 12)
        assert edge_of.dtype == np.int64
        g = rng.stream(5, rng.MOBILITY_TURNS)
        states = start
        for j in range(rounds + 1):
            if j:
                states = advance(n, states, dt=1.0, p_turn=p_turn, turn_rng=g)
            assert positions[j].tolist() == [s.arc_position for s in states]
            assert np.array_equal(edge_of[j], associate(n, states).edge_of)

    def test_turns_change_the_schedule(self):
        n = net(a=100.0, zone=10.0)
        start = init_positions(n, 12, speed=30.0, seed=8)
        straight = mobility.schedule(n, start, 60)[0]
        turning = mobility.schedule(n, start, 60, p_turn=0.5, seed=5)[0]
        assert not np.array_equal(straight, turning)

    def test_zero_rounds_is_initial_placement(self):
        n = net(a=1000.0)
        start = init_positions(n, 5, speed=10.0, seed=1)
        positions, edge_of = mobility.schedule(n, start, 0)
        assert positions.tolist() == [[s.arc_position for s in start]]
        assert np.array_equal(edge_of[0], associate(n, start).edge_of)


class TestMixing:
    def test_fraction_outside_initial_side_nondecreasing(self):
        n = net(a=1000.0, zone=50.0)
        assignment = {m: m % 4 for m in range(800)}
        states = init_positions(n, 800, speed=30.0, seed=6, edge_assignment=assignment)
        initial = associate(n, states).edge_of
        horizon = int(1000.0 / 30.0)
        prev = -1.0
        for _ in range(horizon):
            states = advance(n, states, dt=1.0)
            frac = float(np.mean(associate(n, states).edge_of != initial))
            assert frac >= prev - 1e-12
            prev = frac
        assert prev > 0.5  # substantial mixing within one side-crossing time
