"""Square-perimeter road, vehicle kinematics and vehicle-to-edge association.

Vehicles travel along the perimeter of a square whose four sides are each
covered by one edge server. Within an intersection zone around each
corner a vehicle moves at speed * slowdown_factor, elsewhere at speed, so
position is a periodic, piecewise-linear function of time that a whole
schedule evaluates in closed form. Vehicles are plain arrays: arc positions,
directions (+1 or -1) and speeds, one entry per vehicle in id order.
"""

from dataclasses import dataclass

import numpy as np

from . import rng


@dataclass(frozen=True)
class RoadNetwork:
    side_length: float = 1000.0
    intersection_zone: float = 50.0
    slowdown_factor: float = 0.5
    edge_count = 4  # one edge server per side: a class constant, not a field

    def __post_init__(self):
        if p := road_problems(self.side_length, self.intersection_zone, self.slowdown_factor):
            raise ValueError(p[0])

    @property
    def perimeter(self):
        return 4.0 * self.side_length


def road_problems(side_length, intersection_zone, slowdown_factor):
    """Every rule the road's values break."""
    return [m for broken, m in (
        (side_length <= 0, "side_length must be > 0"),
        (not 0.0 <= intersection_zone < side_length / 2,
         "intersection_zone must be in [0, side_length/2)"),
        (not 0.0 < slowdown_factor <= 1.0, "slowdown_factor must be in (0, 1]")) if broken]


def motion_problems(speed, p_turn):
    """Every rule schedule's speed (scalar or per vehicle) and p_turn break."""
    return [m for broken, m in (
        (np.any(np.asarray(speed) < 0.0), "speed must be >= 0"),
        (not 0.0 <= p_turn <= 1.0, "p_turn must be in [0, 1]")) if broken]


@dataclass
class AssociationSnapshot:
    time: float
    edge_of: np.ndarray  # (M,) edge index per vehicle, in id order


def init_positions(network, vehicle_count, seed, sides=None):
    """Random arc positions (M,) float64 and directions (M,) int64 of +1 or
    -1, deterministic for a given seed.

    Without sides, arc positions are uniform over the whole perimeter.
    With sides, an (M,) int array of side indices (datasets.home_edges for
    an edge-skewed partition), vehicle m is placed uniformly within side
    sides[m], so the initial association is sides.
    """
    g = rng.stream(seed, rng.MOBILITY_INIT)
    a = network.side_length
    u = g.random(vehicle_count)
    if sides is None:
        pos = u * network.perimeter
    else:
        pos = (np.asarray(sides) + u) * a
    return pos, np.where(g.random(vehicle_count) < 0.5, 1, -1).astype(np.int64)


def _road_table(network):
    """Knots and unit-speed times of the road in the forward direction.

    knots holds every speed boundary (corners and zone edges) in [0, P]
    in ascending order; tau[i] is the time from 0 to knots[i] at unit speed,
    where a metre inside a zone costs 1 / slowdown_factor. tau[-1] is
    then the lap time at unit speed, and position is a piecewise-linear
    function of tau. corner_tau holds tau at the corners 0, a, 2a, 3a
    and P.
    """
    a, z, P = network.side_length, network.intersection_zone, network.perimeter
    corners = np.arange(5) * a
    pts = np.concatenate([corners, corners - z, corners + z])
    pts = np.sort(pts[(pts >= 0.0) & (pts <= P)])
    knots = pts[np.concatenate([[True], pts[1:] != pts[:-1]])]
    gaps = np.diff(knots)
    offset = (knots[:-1] + gaps / 2.0) % a  # midpoint of each gap, past its corner
    slow = np.minimum(offset, a - offset) < z
    tau = np.concatenate([[0.0], np.cumsum(np.where(slow, gaps / network.slowdown_factor, gaps))])
    return knots, tau, tau[np.searchsorted(knots, corners)]


def _forward(P, x, direction):
    """Map arc positions x, in place, to the frame where each vehicle moves
    forward. The zone profile is symmetric, so a vehicle on direction -1 at
    x moves like one on direction +1 at the mirror P - x; the same map takes
    it back. direction broadcasts over the rows of x."""
    np.subtract(P, x, out=x, where=direction < 0)
    return np.remainder(x, P, out=x)


def _unit_time(network, knots, tau, corner_tau, pos, direction):
    """Unit-speed time of each arc position in its vehicle's forward frame.
    A vehicle exactly on a corner gets that corner's time exactly: the mirror
    can miss a corner by an ulp (P - 3a is not always a), and the vehicle
    would then cross, and draw for, the corner it stands on."""
    u = np.interp(_forward(network.perimeter, pos.copy(), direction), knots, tau)
    corners = np.arange(4) * network.side_length
    k = np.minimum(np.searchsorted(corners, pos), 3)
    on = corners[k] == pos
    u[on] = corner_tau[np.where(direction > 0, k, -k % 4)[on]]
    return u


def edge_ids(network, positions):
    """Side index of every arc position (any shape); a corner belongs to the
    lower-indexed adjacent side, and corner 0 to side 0."""
    a = network.side_length
    pos = np.asarray(positions, dtype=float) % network.perimeter
    on_corner = (pos % a == 0.0) & (pos >= a)
    return np.floor(pos / a).astype(np.int64) - on_corner


def associate(network, positions, time=0.0):
    """The association at one instant, from a row of arc positions."""
    return AssociationSnapshot(time=time, edge_of=edge_ids(network, positions))


def schedule(network, positions, directions, speed, rounds, p_turn=0.0, seed=0):
    """Arc positions and edge ids over a run, computed before it starts.

    Vehicle motion never depends on training, so the whole association
    history is data: row j of both (rounds+1, M) arrays holds the state
    after j one-second rounds, from the arc positions and directions of
    init_positions (row 0). speed (m/s) is a scalar or one per vehicle.

    Without turns the position is closed form: a vehicle at unit-speed time
    t0 of its forward frame is at np.interp((t0 + j*v) % lap, tau, knots)
    after j seconds, so every row comes from one np.interp call. With
    p_turn > 0 each round moves every vehicle from corner to corner on the
    same table: a vehicle crosses a corner when it reaches it strictly
    before the round ends, and then reverses with probability p_turn, one
    draw from the (seed, MOBILITY_TURNS) stream, in round order, then
    vehicle order, then crossing order. Every row of a stopped vehicle
    (speed * slowdown_factor is 0) is its start bit for bit.
    """
    P = network.perimeter
    knots, tau, corner_tau = _road_table(network)
    lap = tau[-1]
    pos = np.array(positions, dtype=float)
    direction = np.array(directions, dtype=np.int64)
    speed = np.broadcast_to(np.asarray(speed, dtype=float), pos.shape)
    if not np.all(np.isfinite(speed)):
        raise ValueError("speed must be finite")  # inf would cross corners forever
    if p := motion_problems(speed, p_turn):
        raise ValueError(p[0])
    moving = speed * network.slowdown_factor != 0.0
    out = np.empty((rounds + 1, pos.size))
    out[0] = pos
    if p_turn > 0.0:
        turn_rng = rng.stream(seed, rng.MOBILITY_TURNS)
        corners = corner_tau.tolist()
        for j in range(1, rounds + 1):
            u = _unit_time(network, knots, tau, corner_tau, pos, direction) % lap
            left = speed.copy()  # unit-speed time still to travel this round
            ahead = np.searchsorted(corner_tau, u, side="right")  # next corner, strictly ahead
            for m in np.flatnonzero(moving & (corner_tau[ahead] - u < left)):
                um, lm, d, c = float(u[m]), float(left[m]), int(direction[m]), int(ahead[m])
                while corners[c] - um < lm:
                    lm -= corners[c] - um
                    c %= 4
                    if turn_rng.random() < p_turn:
                        d, c = -d, -c % 4  # the same corner, seen from the mirror frame
                    um = corners[c]
                    c += 1
                u[m], left[m], direction[m] = um, lm, d
            y = _forward(P, np.interp((u + left) % lap, tau, knots), direction)
            pos = out[j] = np.where(moving, y, pos)
    else:
        t = np.arange(1.0, rounds + 1.0)[:, None] * speed
        t += _unit_time(network, knots, tau, corner_tau, pos, direction)
        out[1:] = _forward(P, np.interp(np.remainder(t, lap, out=t), tau, knots), direction)
        np.copyto(out[1:], pos, where=~moving)
    edge_of = np.empty(out.shape, dtype=np.int64)
    # one associate call per row: perfbench/tracer.py counts handoffs there
    for j, row in enumerate(out):
        edge_of[j] = associate(network, row, float(j)).edge_of
    return out, edge_of
