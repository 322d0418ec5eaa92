"""Square-perimeter road, vehicle kinematics and vehicle-to-edge association.

Vehicles travel along the perimeter of a square whose four sides are each
covered by one edge server. Motion is integrated exactly piecewise:
within an intersection zone around each corner the speed is
max_speed * slowdown_factor, elsewhere max_speed.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import rng


@dataclass(frozen=True)
class RoadNetwork:
    side_length: float = 1000.0
    edge_count: int = 4
    intersection_zone: float = 50.0
    slowdown_factor: float = 0.5

    def __post_init__(self):
        if self.edge_count != 4:
            raise ValueError("square topology requires exactly 4 edge servers")
        if self.side_length <= 0:
            raise ValueError("side_length must be > 0")
        if not 0.0 <= self.intersection_zone < self.side_length / 2:
            raise ValueError("intersection_zone must be in [0, side_length/2)")
        if not 0.0 < self.slowdown_factor <= 1.0:
            raise ValueError("slowdown_factor must be in (0, 1]")

    @property
    def perimeter(self):
        return 4.0 * self.side_length


@dataclass
class VehicleState:
    id: int
    arc_position: float  # meters along the perimeter, in [0, 4a)
    direction: int       # +1 or -1
    max_speed: float

    def __post_init__(self):
        if self.direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")
        if self.max_speed < 0:
            raise ValueError("max_speed must be >= 0")


@dataclass
class AssociationSnapshot:
    time: float
    edge_of: np.ndarray  # (M,) edge index per vehicle, ordered by list position


def init_positions(network, vehicle_count, speed, seed, edge_assignment=None):
    """Random initial states, deterministic for a given seed.

    Without edge_assignment, arc positions are uniform over the whole
    perimeter. With it (as produced by an edge-skewed partition), each
    vehicle is placed uniformly within its assigned edge's side so the
    initial association matches the data assignment.
    """
    if vehicle_count < 1:
        raise ValueError("vehicle_count must be >= 1")
    g = rng.stream(seed, rng.MOBILITY_INIT)
    a = network.side_length
    u = g.random(vehicle_count)
    if edge_assignment is None:
        pos = u * network.perimeter
    else:
        sides = np.array([edge_assignment[m] for m in range(vehicle_count)])
        pos = (sides + u) * a
    dirs = np.where(g.random(vehicle_count) < 0.5, 1, -1)
    return [VehicleState(m, float(pos[m]), int(dirs[m]), float(speed))
            for m in range(vehicle_count)]


def _speed_boundaries(network):
    a, z = network.side_length, network.intersection_zone
    corners = np.arange(4) * a
    if z == 0.0:
        return np.array(sorted(corners))
    pts = np.concatenate([corners, (corners - z) % (4 * a), (corners + z) % (4 * a)])
    return np.unique(pts)


def _in_zone(network, pos):
    a = network.side_length
    offset = pos % a  # distance past the previous corner
    return min(offset, a - offset) < network.intersection_zone


def _advance_one(network, bounds, corners, pos, direction, v, dt, p_turn, g):
    if v * network.slowdown_factor == 0.0 or dt <= 0.0:
        return pos, direction  # stopped, or so slow the zone speed underflows to 0
    P = network.perimeter
    t = dt
    while t > 0.0:
        # next boundary strictly ahead in the travel direction
        if direction > 0:
            gaps = (bounds - pos) % P
        else:
            gaps = (pos - bounds) % P
        gaps[gaps == 0.0] = P
        i = int(np.argmin(gaps))
        gap = float(gaps[i])
        mid = (pos + direction * gap / 2.0) % P
        speed = v * network.slowdown_factor if _in_zone(network, mid) else v
        t_hit = gap / speed
        if t_hit >= t:
            pos = (pos + direction * speed * t) % P
            break
        pos = float(bounds[i])  # land exactly on the boundary
        t -= t_hit
        if p_turn > 0.0 and pos in corners and g is not None:
            if g.random() < p_turn:
                direction = -direction
    return pos % P, direction


def advance(network, states, dt, p_turn=0.0, turn_rng=None):
    """Move every vehicle for dt seconds with exact piecewise integration.

    With p_turn > 0 a vehicle reverses direction with that probability at
    each corner it crosses; turn_rng supplies the randomness (vehicles are
    processed in list order, so the outcome is deterministic).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    bounds = _speed_boundaries(network)
    corners = {0.0, network.side_length, 2 * network.side_length, 3 * network.side_length}
    out = []
    for s in states:
        pos, d = _advance_one(network, bounds, corners, s.arc_position, s.direction,
                              s.max_speed, dt, p_turn, turn_rng)
        out.append(replace(s, arc_position=pos, direction=d))
    return out


def edge_of_position(network, pos):
    """Side index containing an arc position; corner ties go to the
    lower-indexed adjacent side (corner 0 belongs to side 0)."""
    a = network.side_length
    pos = pos % network.perimeter
    k = pos / a
    if pos % a == 0.0 and pos >= a:
        return int(round(k)) - 1
    return int(k)


def associate(network, states, time=0.0):
    edges = np.array([edge_of_position(network, s.arc_position) for s in states],
                     dtype=np.int64)
    return AssociationSnapshot(time=time, edge_of=edges)


def schedule(network, states, rounds, p_turn=0.0, seed=0):
    """Arc positions and edge ids over a run, computed before it starts.

    Vehicle motion never depends on training, so the whole association
    history is data: row j of both (rounds+1, M) arrays holds the state
    after j one-second rounds (row 0 is the initial placement). With
    p_turn > 0 the corner turns draw from the (seed, MOBILITY_TURNS)
    stream, vehicles in list order at every crossing.
    """
    turn_rng = rng.stream(seed, rng.MOBILITY_TURNS) if p_turn > 0 else None
    positions = np.empty((rounds + 1, len(states)))
    edge_of = np.empty((rounds + 1, len(states)), dtype=np.int64)
    for j in range(rounds + 1):
        if j:
            states = advance(network, states, dt=1.0, p_turn=p_turn, turn_rng=turn_rng)
        positions[j] = [s.arc_position for s in states]
        edge_of[j] = associate(network, states, time=float(j)).edge_of
    return positions, edge_of
