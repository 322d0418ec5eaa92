import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hflsim import mobility
from hflsim.config import MAX_SIDES_PER_ROUND
from hflsim.mobility import RoadNetwork, associate, edge_ids, init_positions, schedule
from hflsim import rng


def net(a=100.0, zone=10.0, slow=0.5):
    return RoadNetwork(side_length=a, intersection_zone=zone, slowdown_factor=slow)


def one_round(network, pos, direction, v, dt=1.0, **turns):
    """Arc position of one vehicle after dt seconds at speed v: one round of
    the schedule at speed v*dt."""
    return schedule(network, [pos], [direction], v * dt, 1, **turns)[0][1, 0]


# --- transcription of the stepping integrator the closed form replaced -----

def reference_boundaries(network):
    a, z = network.side_length, network.intersection_zone
    corners = np.arange(4) * a
    if z == 0.0:
        return np.array(sorted(corners))
    pts = np.concatenate([corners, (corners - z) % (4 * a), (corners + z) % (4 * a)])
    return np.unique(pts)


def reference_in_zone(network, pos):
    a = network.side_length
    offset = pos % a
    return min(offset, a - offset) < network.intersection_zone


def reference_advance_one(network, bounds, corners, pos, direction, v, dt, p_turn, g):
    """One vehicle for dt seconds, one speed boundary at a time."""
    if v * network.slowdown_factor == 0.0 or dt <= 0.0:
        return pos, direction
    P = network.perimeter
    t = dt
    while t > 0.0:
        if direction > 0:
            gaps = (bounds - pos) % P
        else:
            gaps = (pos - bounds) % P
        gaps[gaps == 0.0] = P
        i = int(np.argmin(gaps))
        gap = float(gaps[i])
        mid = (pos + direction * gap / 2.0) % P
        speed = v * network.slowdown_factor if reference_in_zone(network, mid) else v
        t_hit = gap / speed
        if t_hit >= t:
            pos = (pos + direction * speed * t) % P
            break
        pos = float(bounds[i])
        t -= t_hit
        if p_turn > 0.0 and pos in corners and g is not None:
            if g.random() < p_turn:
                direction = -direction
    return pos % P, direction


def reference_edge(network, pos):
    """The scalar edge map: corner ties go to the lower-indexed side."""
    a = network.side_length
    pos = pos % network.perimeter
    k = pos / a
    if pos % a == 0.0 and pos >= a:
        return int(round(k)) - 1
    return int(k)


def reference_schedule(network, positions, directions, speeds, rounds, p_turn=0.0, seed=0):
    """Rows of positions and edge ids, stepping every vehicle through each
    one-second round in id order, turns drawn at every corner crossed."""
    g = rng.stream(seed, rng.MOBILITY_TURNS) if p_turn > 0 else None
    bounds = reference_boundaries(network)
    corners = {0.0, network.side_length, 2 * network.side_length, 3 * network.side_length}
    pos = [float(x) for x in positions]
    dirs = [int(d) for d in directions]
    speeds = np.broadcast_to(speeds, len(pos)).tolist()
    rows = [list(pos)]
    for _ in range(rounds):
        for m, v in enumerate(speeds):
            pos[m], dirs[m] = reference_advance_one(network, bounds, corners, pos[m], dirs[m],
                                                    v, 1.0, p_turn, g)
        rows.append(list(pos))
    rows = np.array(rows)
    return rows, np.array([[reference_edge(network, x) for x in row] for row in rows])


def circular_gap(network, x, y):
    d = np.abs(np.asarray(x) - np.asarray(y))
    return np.minimum(d, network.perimeter - d)


TOL = 1e-9  # metres


@st.composite
def road_and_fleet(draw):
    """A road and up to five vehicles. Starts include exact corners and zone
    edges, zones include 0, slowdown includes 1, speeds reach the limit.

    A nonzero zone is at least 1e-6 * side_length. A narrower one can put a
    zone edge at (0 - zone) % P == P, and the stepper, landing there,
    crosses corner 0 without a draw."""
    a = draw(st.sampled_from([100.0, 150.0, 1000.0]) | st.floats(50.0, 1000.0))
    zone = draw(st.sampled_from([0.0, a / 10, a / 4]) |
                st.floats(1e-6 * a, a / 2, exclude_max=True))
    slow = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.05, 1.0))
    network = net(a, zone, slow)
    P = network.perimeter
    fleet = []  # (start, direction, speed) per vehicle
    for m in range(draw(st.integers(1, 5))):
        corner = draw(st.integers(0, 3)) * a
        start = draw(st.sampled_from([corner, (corner - zone) % P, (corner + zone) % P]) |
                     st.floats(0.0, P, exclude_max=True))
        top = MAX_SIDES_PER_ROUND * a
        speed = draw(st.sampled_from([0.0, a / 2, a, top]) | st.floats(0.0, top))
        fleet.append((start, draw(st.sampled_from([1, -1])), speed))
    positions, directions, speeds = map(np.array, zip(*fleet))
    return network, positions, directions, speeds


class TestRoadNetwork:
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
        snap = associate(n, 1000.0 * np.arange(4) + 500.0)
        assert sorted(snap.edge_of.tolist()) == [0, 1, 2, 3]

    def test_determinism(self):
        n = net(a=1000.0)
        pos, dirs = init_positions(n, 20, seed=7)
        assert pos.dtype == np.float64 and dirs.dtype == np.int64
        assert pos.shape == dirs.shape == (20,)
        assert set(dirs.tolist()) <= {1, -1}
        again = init_positions(n, 20, seed=7)
        assert np.array_equal(pos, again[0]) and np.array_equal(dirs, again[1])

    def test_uniform_side_counts(self):
        n = net(a=1000.0)
        pos, _ = init_positions(n, 10_000, seed=3)
        counts = np.bincount(edge_ids(n, pos), minlength=4)
        assert np.all(np.abs(counts - 2500) <= 0.05 * 2500)

    def test_edge_matched_placement(self):
        n = net(a=1000.0)
        pos, _ = init_positions(n, 16, seed=4, sides=np.arange(16) % 4)
        assert edge_ids(n, pos).tolist() == [m % 4 for m in range(16)]


class TestOneVehicle:
    """One vehicle over one round: dt seconds at speed v is one round at
    speed v*dt, the same product the position is read at."""

    def test_zero_speed_fixed(self):
        n = net()
        positions, _ = schedule(n, [42.0], [-1], 0.0, 10)
        assert np.all(positions == 42.0)

    def test_wraparound(self):
        n = net(a=100.0, zone=0.0)
        assert one_round(n, 390.0, 1, 30.0) == pytest.approx(20.0, abs=1e-9)

    def test_corner_zone_strictly_slower(self):
        # 20 m zone straddling the corner takes 20/(v*slow) not 20/v
        n = net(a=100.0, zone=10.0, slow=0.5)
        assert one_round(n, 90.0, 1, 30.0, dt=20.0 / 30.0) < 110.0  # still inside the zone
        assert one_round(n, 90.0, 1, 30.0, dt=20.0 / 15.0) == pytest.approx(110.0, abs=1e-9)

    @pytest.mark.parametrize("start,direction", [(50.0, 1), (205.0, -1), (399.0, 1)])
    def test_fine_step_integration_oracle(self, start, direction):
        # independent oracle: Euler integration at dt = 1e-4 over 3 s
        n = net(a=100.0, zone=10.0, slow=0.5)
        exact = schedule(n, [start], [direction], 30.0, 3)[0][3, 0]
        pos = start
        for _ in range(30_000):
            off = pos % 100.0
            sp = 15.0 if min(off, 100.0 - off) < 10.0 else 30.0
            pos = (pos + direction * sp * 1e-4) % 400.0
        assert exact == pytest.approx(pos, abs=0.05)

    @settings(max_examples=40, deadline=None)
    @given(pos=st.floats(0.0, 399.999), direction=st.sampled_from([1, -1]),
           dt=st.floats(0.01, 50.0), speed=st.floats(0.0, 40.0))
    def test_wraparound_closure(self, pos, direction, dt, speed):
        n = net(a=100.0, zone=10.0)
        assert 0.0 <= one_round(n, pos, direction, speed, dt) < 400.0

    def test_subnormal_speed_does_not_divide_by_zero(self):
        # speed * slowdown_factor underflows to 0 for subnormal speeds
        n = net(a=100.0, zone=10.0)
        assert one_round(n, 0.0, 1, 5e-324) == 0.0

    def test_turn_probability_deterministic(self):
        n = net(a=100.0, zone=0.0)
        turning, _ = schedule(n, [95.0], [1], 30.0, 20, p_turn=0.5, seed=5)
        assert np.array_equal(turning, schedule(n, [95.0], [1], 30.0, 20, p_turn=0.5, seed=5)[0])
        # at p_turn=0.5 some reversal happens: a round that ends behind its start
        step = (np.diff(turning[:, 0]) + 200.0) % 400.0 - 200.0
        assert (step > 0).any() and (step < 0).any()


class TestAssociate:
    def test_side_midpoint(self):
        n = net(a=1000.0)
        assert edge_ids(n, 2500.0) == 2

    def test_corner_tie_breaks_low(self):
        n = net(a=1000.0)
        assert edge_ids(n, [2000.0, 1000.0, 3000.0, 0.0, 4000.0]).tolist() == [1, 0, 2, 0, 0]

    @pytest.mark.parametrize("a", [1000.0, 150.0, 123.456, 0.1, 3e8])
    def test_matches_scalar_rule(self, a):
        # every corner, the perimeter, 0.0, their float neighbours, and
        # positions outside [0, P) that the map wraps
        n = net(a=a, zone=0.0)
        P = n.perimeter
        exact = np.array([0.0, a, 2 * a, 3 * a, P, -a, P + a, 2 * P, -0.0])
        pts = np.concatenate([exact, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf),
                              np.linspace(0.0, P, 97), np.linspace(-P, 2 * P, 101)])
        got = edge_ids(n, pts)
        assert got.dtype == np.int64 and got.shape == pts.shape
        assert got.tolist() == [reference_edge(n, float(x)) for x in pts]
        assert np.array_equal(edge_ids(n, pts.reshape(-1, len(exact))), got.reshape(-1, len(exact)))

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(1e-3, 1e6), u=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=8))
    def test_matches_scalar_rule_anywhere(self, a, u):
        n = net(a=a, zone=0.0)
        pts = np.array(u) * a
        assert edge_ids(n, pts).tolist() == [reference_edge(n, float(x)) for x in pts]

    def test_exhaustive_sweep_balanced(self):
        n = net(a=1000.0)
        step = 4000.0 / 1000
        counts = np.bincount(edge_ids(n, (np.arange(1000) + 0.5) * step), minlength=4)
        assert counts.tolist() == [250, 250, 250, 250]

    def test_partition_property(self):
        n = net(a=1000.0)
        pos, _ = init_positions(n, 50, seed=9)
        snap = associate(n, pos, 2.0)
        assert snap.time == 2.0
        assert snap.edge_of.shape == (50,)
        assert set(snap.edge_of.tolist()) <= {0, 1, 2, 3}

    def test_static_association_constant(self):
        n = net(a=1000.0)
        positions, edge_of = schedule(n, *init_positions(n, 12, seed=2), 0.0, 5)
        assert np.all(positions == positions[0])
        assert np.all(edge_of == edge_of[0])


class TestSchedule:
    @settings(max_examples=150, deadline=None)
    @given(case=road_and_fleet(), p_turn=st.sampled_from([0.0, 0.5]),
           seed=st.integers(0, 2 ** 16))
    # on corner 3, direction -1: the mirror P - 3a misses corner 1 by an ulp
    @example(case=(net(85.66408230352786, 0.0, 1.0), np.array([3 * 85.66408230352786]),
                   np.array([-1]), np.array([85.66408230352786 / 2])),
             p_turn=0.5, seed=2)
    def test_matches_stepping_integrator(self, case, p_turn, seed):
        network, *fleet = case
        rounds = 25
        positions, edge_of = schedule(network, *fleet, rounds, p_turn, seed)
        ref_pos, ref_edge = reference_schedule(network, *fleet, rounds, p_turn, seed)
        assert positions.shape == edge_of.shape == ref_pos.shape
        assert edge_of.dtype == np.int64
        assert np.array_equal(positions[0], ref_pos[0])
        assert np.array_equal(edge_of[0], ref_edge[0])
        # A vehicle within TOL of a corner at the end of a round has no
        # well-defined side: the stepper's rounding leaves it on either one.
        # With turns it may also draw for that corner in this round, in the
        # next or not at all, which shifts the draws of every vehicle after
        # it, so comparison stops there.
        a = network.side_length
        tie = circular_gap(network, ref_pos, np.round(ref_pos / a) * a) <= TOL
        tie[0] &= ~np.isin(ref_pos[0], np.arange(5) * a)  # a start on a corner never draws for it
        compared = np.ones(tie.shape, bool)
        if p_turn > 0 and tie.any():
            j, m = np.argwhere(tie)[0]
            compared[j, m + 1:] = False
            compared[j + 1:] = False
        assert np.all(circular_gap(network, positions, ref_pos)[compared] <= TOL)
        sided = compared & ~tie
        assert np.array_equal(edge_of[sided], ref_edge[sided])

    @pytest.mark.parametrize("p_turn", [0.0, 0.5])
    def test_matches_stepping_integrator_on_default_road(self, p_turn):
        # no exact corner arrival here, so every entry is compared
        n = RoadNetwork()
        start = init_positions(n, 32, seed=8)
        positions, edge_of = schedule(n, *start, 30.0, 200, p_turn, seed=5)
        ref_pos, ref_edge = reference_schedule(n, *start, 30.0, 200, p_turn, seed=5)
        assert np.array_equal(edge_of, ref_edge)
        assert circular_gap(n, positions, ref_pos).max() <= TOL

    def test_exact_corner_arrival_takes_the_tie_rule(self):
        # 10 sides per round from corner 2 ends every round on corner 0 or
        # corner 2. Stepping, the time left after ten 0.1 s sides is not 0,
        # and round 2 ends at 200.00000000000026 (side 2); the closed form
        # lands on 200.0, which the tie rule gives to side 1.
        n = net(a=100.0, zone=0.0, slow=1.0)
        start = ([200.0, 200.0], [1, -1], 1000.0)
        positions, edge_of = schedule(n, *start, 4)
        assert positions.T.tolist() == [[200.0, 0.0, 200.0, 0.0, 200.0]] * 2
        assert edge_of.T.tolist() == [[1, 0, 1, 0, 1]] * 2
        assert circular_gap(n, positions, reference_schedule(n, *start, 4)[0]).max() <= TOL

    def test_corner_reached_at_the_round_end_draws_next_round_or_never(self):
        # 2 sides per round from a corner, in exact arithmetic: every round
        # crosses one corner mid-round (one draw) and ends on the next, which
        # the next round leaves without a draw, as in the stepper
        n = net(a=100.0, zone=0.0, slow=1.0)
        start = ([0.0, 100.0], [1, -1], 200.0)
        positions, edge_of = schedule(n, *start, 30, p_turn=0.5, seed=3)
        ref_pos, ref_edge = reference_schedule(n, *start, 30, p_turn=0.5, seed=3)
        assert positions.tolist() == ref_pos.tolist()
        assert np.array_equal(edge_of, ref_edge)

    @pytest.mark.parametrize("speed", [float("nan"), float("inf"), -1.0])
    def test_invalid_speed(self, speed):
        # an infinite speed would cross corners forever
        n = net()
        with pytest.raises(ValueError, match="speed"):
            schedule(n, [0.0, 10.0], [1, -1], [10.0, speed], 3, p_turn=0.5)

    @pytest.mark.parametrize("p_turn", [-0.1, 1.5, float("nan")])
    def test_invalid_p_turn(self, p_turn):
        # a probability outside [0, 1] is rejected here as in a config file
        with pytest.raises(ValueError, match=r"p_turn must be in \[0, 1\]"):
            schedule(net(), [0.0, 10.0], [1, -1], 10.0, 3, p_turn=p_turn)

    def test_associate_once_per_row(self, monkeypatch):
        # the association of every row goes through associate, with the
        # row's time
        n = net(a=100.0, zone=10.0)
        start = init_positions(n, 4, seed=8)
        real, seen = mobility.associate, []

        def spy(network, positions, time=0.0):
            seen.append(time)
            return real(network, positions, time)

        monkeypatch.setattr(mobility, "associate", spy)
        _, edge_of = schedule(n, *start, 30.0, 6)
        assert seen == [float(j) for j in range(7)]

    def test_turns_change_the_schedule(self):
        n = net(a=100.0, zone=10.0)
        start = init_positions(n, 12, seed=8)
        straight = schedule(n, *start, 30.0, 60)[0]
        turning = schedule(n, *start, 30.0, 60, p_turn=0.5, seed=5)[0]
        assert not np.array_equal(straight, turning)

    def test_zero_rounds_is_initial_placement(self):
        n = net(a=1000.0)
        pos, dirs = init_positions(n, 5, seed=1)
        positions, edge_of = schedule(n, pos, dirs, 10.0, 0)
        assert positions.tolist() == [pos.tolist()]
        assert np.array_equal(edge_of[0], edge_ids(n, pos))


class TestMixing:
    def test_fraction_outside_initial_side_nondecreasing(self):
        n = net(a=1000.0, zone=50.0)
        start = init_positions(n, 800, seed=6, sides=np.arange(800) % 4)
        horizon = int(1000.0 / 30.0)
        _, edge_of = schedule(n, *start, 30.0, horizon)
        frac = np.mean(edge_of != edge_of[0], axis=1)
        assert np.all(np.diff(frac) >= -1e-12)
        assert frac[-1] > 0.5  # substantial mixing within one side-crossing time
