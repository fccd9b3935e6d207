"""Straight-line flow and multitwist point actions on rectangle complexes.

Trajectories are piecewise linear in rectangle charts: a segment runs until
it leaves through a side, the gluing table transports the exit point (and,
across an orientation-reversing gluing, negates the direction), and the
next segment continues in the neighbouring chart.  A crossing that lands
within corner_tol of a corner stops the trajectory: corners are the points
of the completion where cone angle concentrates, and distinguishing true
saddle connections from near misses is exactly the corner_tol contract.
With exact coordinates the tolerance degenerates to exact incidence.
Exact flows compute on field values (an int direction or side length is
read as the rational it is).  Segments and the final direction report the
direction as given, negated across each reversing gluing.

A crossing does a constant amount of work, whatever the size of the
window.  A flow run in floats reads the complex's float table
(RectangleComplex.charts: one row per rectangle holding its width and
height as floats and the gluing of each side, built once per complex on
first use); an exact flow reads the complex's own sides and gluings
(width, height, gluings) and lands on the next chart with _land, as
canonical_point does.  The exit wall is the nearer of the E/W and the N/S
wall ahead (E/W on a tie), and segments are Segment NamedTuples, cheap to
make and still read by field name.  _walk checks the inputs, decides the
field once per launch (exact only when the sides, the start, the
direction and a QuadExt budget share one quadratic field: a Q(sqrt 13)
direction or a 3 sqrt 7 budget on a Q(sqrt 5) window flows as its float
rounding does), sets up the speed, and runs
each ray through the exact loop or, in floats, _float_walk, a loop with the
same IEEE operations in the same order (so the same results to the bit) but
no test of the number kind per crossing and the landing written out inline.
flow() is one ray; a saddle search launches once and records no segments:
it reads only the terminal, the smallest corner distance and the length.

Twists act cylinder by cylinder: inside a horizontal cylinder of
circumference c and height h with h/c = 1/lam, the point (x, y) in
unrolled coordinates moves to (x + power*lam*y mod c, y), which is the
affine Dehn twist fixing both boundary circles.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .quadfield import QuadExt, _number, quad_sqrt
from .surfaces import RectangleComplex, _END_CORNER, _off_modulus

# corner -> its chart position in units of the rectangle's width and
# height, and the quarter turns that take a ray out of it
_RAY_STARTS = {"SW": (0, 0, 0), "SE": (1, 0, 1), "NE": (1, 1, 2), "NW": (0, 1, 3)}


class SurfacePoint(NamedTuple):
    edge: int
    x: object
    y: object

    def as_floats(self) -> tuple:
        return (self.edge, float(self.x), float(self.y))


class Segment(NamedTuple):
    edge: int
    x_in: object
    y_in: object
    x_out: object
    y_out: object
    length: object  # exact when the flow's speed lies in its field, else float
    dir_in: tuple


class Trajectory(NamedTuple):
    start: SurfacePoint
    direction: tuple
    segments: tuple
    terminal: str  # budget | singular | window-exit
    terminal_detail: object
    final_point: SurfacePoint
    final_direction: tuple
    min_corner_distance: float

    @property
    def total_length(self):
        """Segment lengths added in segment order, the running sum the flow
        keeps (built-in sum() of floats is compensated on Python 3.12+)."""
        total = 0
        for s in self.segments:
            total += s.length
        return total

    def visited_edges(self) -> set:
        return {s.edge for s in self.segments}


class FlowError(ValueError):
    pass


def _validate_point(m: RectangleComplex, p: SurfacePoint):
    if p.edge not in m.width:
        raise FlowError(f"point {p} names edge {p.edge} that is not in the complex")
    w, h = m.width[p.edge], m.height[p.edge]
    if not (0 <= p.x <= w and 0 <= p.y <= h):
        raise FlowError(f"point {p} outside its rectangle")


def _is_corner(m, p) -> bool:
    w, h = m.width[p.edge], m.height[p.edge]
    return (p.x == 0 or p.x == w) and (p.y == 0 or p.y == h)


def canonical_point(m: RectangleComplex, p: SurfacePoint) -> SurfacePoint:
    """Boundary points get a canonical chart: south/west sides preferred."""
    _validate_point(m, p)
    reps = {(_side_rank(m, p), p.as_floats()): p}
    w, h = m.width[p.edge], m.height[p.edge]
    for side, coord in (("E", p.y) if p.x == w else (None, None),
                        ("W", p.y) if p.x == 0 else (None, None),
                        ("N", p.x) if p.y == h else (None, None),
                        ("S", p.x) if p.y == 0 else (None, None)):
        if side is None or (p.edge, side) not in m.gluings:
            continue
        e2, s2, rev = m.gluings[(p.edge, side)]
        q = SurfacePoint(e2, *_land(m.width[e2], m.height[e2], s2, rev, coord))
        reps[(_side_rank(m, q), q.as_floats())] = q
    return reps[min(reps)]


def _land(w2, h2, s2, rev, coord) -> tuple:
    """Chart point (x, y) on side s2 of a w2-by-h2 rectangle where a crossing
    at coord along the side it left arrives; rev reverses the coordinate.
    A zero keeps the type of the side lengths w2 and h2.  _float_walk
    writes the same landing out inline."""
    if s2 == "E":
        return w2, (h2 - coord if rev else coord)
    if s2 == "W":
        return w2 - w2, (h2 - coord if rev else coord)
    if s2 == "N":
        return (w2 - coord if rev else coord), h2
    return (w2 - coord if rev else coord), h2 - h2


def _side_rank(m, p) -> int:
    """0 when the point uses a south/west chart position, higher otherwise."""
    w, h = m.width[p.edge], m.height[p.edge]
    rank = 0
    if p.x == w and w != 0:
        rank += 1
    if p.y == h and h != 0:
        rank += 1
    return rank


_MAX_STEPS = 2_000_000  # crossings before a flow gives up
_CORNER_TOL = 1e-9  # float flows stop this close to a corner, unless flow is told otherwise
_CLOSURE_TOL = 1e-9  # closure_length: same position and direction within this


def flow(m: RectangleComplex, p0: SurfacePoint, direction, max_length,
         corner_tol: float = _CORNER_TOL, _allow_corner_start: bool = False) -> Trajectory:
    """Trace the straight-line flow from p0 with oriented direction (dx, dy).

    Exact coordinates flow exactly (corner incidence is then exact); float
    coordinates use corner_tol.  The budget max_length is metric length.
    A NaN or infinite float budget or direction component is refused
    before the first crossing.

    With exact coordinates a float budget is read as the exact rational it
    stands for (6.0 is 6).  When the speed |(dx, dy)| lies in the quadratic
    field of the coordinates (over rational coordinates: in any one
    quadratic field), segment lengths, their running sum and the cut time
    are exact, so total_length equals the budget and the final point is a
    field element.  Otherwise no point of the field lies at exactly the
    budget (direction (1, 3) on a Q(sqrt 5) window, or an irrational
    eigendirection): the final point is the exact point of the cut segment
    at time budget / s, where s is a rational found with integer square
    roots, within about 2**-64 of the speed when the speed is at least 1
    and with about 64 significant bits below 1; segment lengths are then
    floats, from the float speed.  Either way the segment holding the cut
    is decided exactly, by comparing squared lengths.

    An exact direction whose squared speed is not a normal float (a
    direction of size 1e-200 or 1e200) is flowed scaled by a power of two
    to a speed near 1.  Scaling changes the time the flow takes, not its
    crossings, points or lengths, and the segments and final direction
    report the direction as given.
    """
    terminal, detail, final_point, final_direction, min_corner, _, segments = _walk(
        m, direction, max_length, corner_tol, True, p0, _allow_corner_start)(p0, tuple(direction))
    return Trajectory(start=p0, direction=direction, segments=segments,
                      terminal=terminal, terminal_detail=detail,
                      final_point=final_point, final_direction=final_direction,
                      min_corner_distance=min_corner)


def _float_or_refuse(value, name: str) -> float:
    """float(value), or FlowError naming the input when value lies beyond float range."""
    try:
        return float(value)
    except OverflowError:
        raise FlowError(f"{name} is too large for a float") from None


def _quarter_turns(v) -> tuple:
    """v turned by 0, 1, 2 and 3 quarter turns; negations and swaps keep signed zeros."""
    x, y = v
    return ((x, y), (-y, x), (-x, -y), (y, -x))


def _walk(m, direction, max_length, corner_tol, keep, start=None, allow_corner_start=False):
    """One launch of flow()'s crossing loop: checks the budget, flow()'s start
    (a search has none) and the direction once, and returns ray(p, d_in),
    which runs from p along d_in, a quarter turn of the direction, to
    (terminal, terminal detail, final point, final direction, smallest corner
    distance, length, segments): length sums the segment lengths in segment
    order, as total_length does; segments is None unless keep is true."""
    if isinstance(max_length, float) and not math.isfinite(max_length):
        raise FlowError(f"length budget {max_length} is not finite")
    if max_length < 0:
        raise FlowError("length budget must be nonnegative")
    if start is not None:
        _validate_point(m, start)
        if _is_corner(m, start) and not allow_corner_start:
            raise FlowError("start lies on a cone corner; launch via separatrices() instead")
    coords = () if start is None else (start.x, start.y)  # a search's rays start on corners
    dx, dy = d_in = tuple(direction)  # the direction as given
    inputs = (*coords, dx, dy)
    # exact when the sides and inputs hold no float and, with the budget,
    # one irrational radicand at most
    fields = None if m.radicands is None or any(isinstance(v, float) for v in inputs) else (
        m.radicands.union(v.d for v in (*inputs, max_length) if isinstance(v, QuadExt)) - {0})
    exact = fields is not None and len(fields) < 2
    if exact:
        dx, dy = _number(dx), _number(dy)
        speed2 = dx * dx + dy * dy
        try:
            float2 = float(speed2)
        except OverflowError:
            float2 = math.inf
        if not sys.float_info.min <= float2 < math.inf:  # keep times within float range
            s = _sqrt_approx(speed2)
            scale = Fraction(2) ** (s.denominator.bit_length() - s.numerator.bit_length())
            dx, dy, speed2 = dx * scale, dy * scale, speed2 * scale * scale
            float2 = float(speed2)
    else:  # keep mixed inputs from dragging exact types through float math
        dx, dy = _float_or_refuse(dx, "direction dx"), _float_or_refuse(dy, "direction dy")
        if not (math.isfinite(dx) and math.isfinite(dy)):  # an exact direction holds no float
            raise FlowError(f"direction ({dx}, {dy}) is not finite")
    sx = (dx > 0) - (dx < 0)  # signs of the direction; a reversing gluing flips both
    sy = (dy > 0) - (dy < 0)
    if not sx and not sy:  # zero, or exact values that round to 0 beside floats
        raise FlowError("direction must be nonzero")
    # each quarter turn of the direction as given that a ray may take -> its
    # working values and signs
    if start is None:  # a search: separatrices run along every turn
        turned = {d: (*v, *s) for d, v, s in zip(
            _quarter_turns(d_in), _quarter_turns((dx, dy)), _quarter_turns((sx, sy)))}
    else:  # flow(): one ray along the direction as given
        turned = {d_in: (dx, dy, sx, sy)}
    if not exact:
        rows, budget = m.charts, _float_or_refuse(max_length, "length budget")
        return lambda p, d_in: _float_walk(
            rows, p.edge, _float_or_refuse(p.x, "start x"), _float_or_refuse(p.y, "start y"),
            *turned[d_in], d_in, budget, corner_tol, keep)
    width, height, gluings = m.width, m.height, m.gluings
    budget = max_length if isinstance(max_length, QuadExt) else Fraction(max_length)
    budget2 = budget * budget
    speed = _speed_in_field(speed2, next(iter(fields), 0))  # 0 over the rationals
    float_speed = math.sqrt(float2)
    # below t_screen the exact cut test cannot succeed; the margin covers
    # the rounding of the float conversions
    t_screen = float(budget) / float_speed * (1 - 1e-12)

    def ray(p, d_in):
        e, x, y = p
        dx, dy, sx, sy = turned[d_in]
        elapsed = 0  # exact time run so far
        # running sum of the segment lengths in segment order; exact lengths
        # start from int 0, as total_length does, so their sum stays exact
        acc = 0.0 if speed is None else 0
        segments = []
        add = segments.append
        new_tuple = tuple.__new__  # a Segment without the Python-level __new__
        min_corner = math.inf
        terminal = "budget"
        detail = None
        w, h = width[e], height[e]
        for _ in range(_MAX_STEPS):
            # exit wall: the first of the E/W and N/S walls ahead; E/W wins a tie
            if sx > 0:
                tx = (w - x) / dx
            elif sx:
                tx = -x / dx
            if sy > 0:
                ty = (h - y) / dy
            elif sy:
                ty = -y / dy
            across = not sy or (sx and not ty < tx)  # leaves through E or W
            t = tx if across else ty
            run = elapsed + t
            if float(run) >= t_screen and run * run * speed2 >= budget2:
                s = _sqrt_approx(speed2) if speed is None else speed
                t_cut = min(max(budget / s - elapsed, 0), t)
                cut_len = budget - acc  # acc is elapsed * speed when speed is exact
                x2, y2 = x + t_cut * dx, y + t_cut * dy
                acc += cut_len
                if keep:
                    add(Segment(e, x, y, x2, y2, cut_len, d_in))
                break
            seg_len = t * speed if speed is not None else float(t) * float_speed
            elapsed = run
            x2, y2 = x + t * dx, y + t * dy
            if across:
                side = "E" if sx > 0 else "W"
                coord, side_len = y2, h
            else:
                side = "N" if sy > 0 else "S"
                coord, side_len = x2, w
            if keep:
                add(new_tuple(Segment, (e, x, y, x2, y2, seg_len, d_in)))
            acc += seg_len
            # a float 0 may be a rounded near miss: the exact distance decides
            f_coord, f_side = float(coord), float(side_len)
            dist = min(f_coord, f_side - f_coord) or float(min(coord, side_len - coord))
            if dist < min_corner:
                min_corner = dist
            if dist == 0:
                end = "lo" if f_coord <= f_side / 2 else "hi"
                terminal, detail = "singular", (e, _END_CORNER[(side, end)])
                break
            glue = gluings.get((e, side))
            if glue is None:
                terminal, detail = "window-exit", (e, side)
                break
            e, s2, rev = glue
            w, h = width[e], height[e]
            x, y = _land(w, h, s2, rev, coord)
            if rev:
                dx, dy, sx, sy = -dx, -dy, -sx, -sy
                d_in = (-d_in[0], -d_in[1])
        else:
            raise FlowError(f"flow exceeded {_MAX_STEPS} crossings before the length budget")
        return (terminal, detail, SurfacePoint(e, x2, y2), d_in, min_corner,
                acc, tuple(segments) if keep else None)
    return ray


def _float_walk(rows, e, x, y, dx, dy, sx, sy, d_in, budget, corner_tol, keep):
    """_walk's crossing loop for a flow run in floats, with the same result.
    rows is the complex's float table (RectangleComplex.charts), (x, y, dx,
    dy) the float start and direction, (sx, sy) their signs, d_in the
    direction as given and budget the float length budget.  No test of the
    number kind runs per crossing, the landing on the next chart is written
    out inline, and the exit side is named only when the flow stops on it."""
    speed = math.hypot(dx, dy)
    acc = 0.0
    segments = []
    add = segments.append
    new_tuple = tuple.__new__  # a Segment without the Python-level __new__
    min_corner = math.inf
    terminal = "budget"
    w, h, glue_e, glue_w, glue_n, glue_s = rows[e]
    for _ in range(_MAX_STEPS):
        # exit wall: the first of the E/W and N/S walls ahead; E/W wins a tie
        if sx > 0:
            tx = (w - x) / dx
        elif sx:
            tx = -x / dx
        if sy > 0:
            ty = (h - y) / dy
        elif sy:
            ty = -y / dy
        across = not sy or (sx and not ty < tx)  # leaves through E or W
        t = tx if across else ty
        seg_len = t * speed
        if acc + seg_len >= budget:
            cut_len = budget - acc
            t_cut = cut_len / speed
            x2, y2 = x + t_cut * dx, y + t_cut * dy
            acc += cut_len
            if keep:
                add(Segment(e, x, y, x2, y2, cut_len, d_in))
            break
        # the crossing is pinned onto its wall to kill drift
        if across:
            if sx > 0:
                glue = glue_e
                x2 = w
            else:
                glue = glue_w
                x2 = 0.0
            y2 = coord = y + t * dy
            side_len = h
        else:
            if sy > 0:
                glue = glue_n
                y2 = h
            else:
                glue = glue_s
                y2 = 0.0
            x2 = coord = x + t * dx
            side_len = w
        if keep:
            add(new_tuple(Segment, (e, x, y, x2, y2, seg_len, d_in)))
        acc += seg_len
        dist = side_len - coord
        if not dist < coord:  # dist = min(coord, side_len - coord)
            dist = coord
        if dist < min_corner:  # every earlier dist exceeds corner_tol
            min_corner = dist
            if dist <= corner_tol:
                terminal = "singular"
                break
        if glue is None:
            terminal = "window-exit"
            break
        # land on side s2 of the next chart, as _land does
        e, s2, rev = glue
        w, h, glue_e, glue_w, glue_n, glue_s = rows[e]
        if s2 == "W":
            x = 0.0
            y = h - coord if rev else coord
        elif s2 == "S":
            x = w - coord if rev else coord
            y = 0.0
        elif s2 == "E":
            x = w
            y = h - coord if rev else coord
        else:
            x = w - coord if rev else coord
            y = h
        if rev:
            dx, dy, sx, sy = -dx, -dy, -sx, -sy
            d_in = (-d_in[0], -d_in[1])
    else:
        raise FlowError(f"flow exceeded {_MAX_STEPS} crossings before the length budget")
    detail = None
    if terminal != "budget":
        side = ("E" if sx > 0 else "W") if across else ("N" if sy > 0 else "S")
        if terminal == "singular":
            detail = (e, _END_CORNER[(side, "lo" if coord <= side_len / 2 else "hi")])
        else:
            detail = (e, side)
    return (terminal, detail, SurfacePoint(e, x2, y2), d_in, min_corner,
            acc, tuple(segments) if keep else None)


_FACTOR_LIMIT = 1 << 40  # trial division up to 2**20 stays fast


def _speed_in_field(speed2, d):
    """sqrt(speed2) when it lies in Q(sqrt d), the field of the values with
    the squarefree radicand d (0 for rationals), else None.  Only rational
    speed2 is tried.  Over rational values the speed opens the field, and
    its radicand is factored only below _FACTOR_LIMIT (trial division)."""
    if isinstance(speed2, QuadExt):
        if not speed2.is_rational():
            return None
        speed2 = speed2.a
    speed2 = Fraction(speed2)
    q = speed2.denominator
    n = speed2.numerator * q  # sqrt(speed2) = sqrt(n) / q
    root = math.isqrt(n)
    if root * root == n:
        return Fraction(root, q)
    if not d:
        return quad_sqrt(speed2) if n < _FACTOR_LIMIT else None
    root = math.isqrt(n * d)  # n*d = root**2 gives sqrt(n) = root*sqrt(d)/d
    return QuadExt(0, Fraction(root, q * d), d) if root * root == n * d else None


def _sqrt_approx(q) -> Fraction:
    """sqrt(q) for q >= 0 rational or quadratic, by integer square roots: a
    multiple of 2**-64 within about 2**-64 of it when it is at least 1, else
    one with about 64 significant bits (a multiple of 2**-(64 + k) for the
    k leading zero bits of sqrt(q))."""
    scale = 1 << 64
    if isinstance(q, QuadExt):
        q = q.a + q.b * Fraction(math.isqrt(q.d * scale * scale), scale)
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    scale <<= max(0, (d.bit_length() - n.bit_length() - 1) // 2)
    return Fraction(math.isqrt(n * scale * scale // d), scale)


def closure_length(m: RectangleComplex, p0: SurfacePoint, direction, max_length):
    """Length at which the orbit first returns to its start, or None."""
    traj = flow(m, p0, direction, max_length)
    acc = 0.0
    x0, y0 = float(p0.x), float(p0.y)
    d0 = direction
    for k, seg in enumerate(traj.segments):
        if k > 0 and seg.edge == p0.edge:
            same_pos = math.hypot(float(seg.x_in) - x0, float(seg.y_in) - y0) <= _CLOSURE_TOL
            cross = float(seg.dir_in[0]) * float(d0[1]) - float(seg.dir_in[1]) * float(d0[0])
            same_dir = abs(cross) <= _CLOSURE_TOL and float(seg.dir_in[0]) * float(d0[0]) + float(seg.dir_in[1]) * float(d0[1]) > 0
            if same_pos and same_dir:
                return acc
        acc += seg.length
    return None


class FlowStats(NamedTuple):
    visits_to_start: int
    min_corner_distance: float
    coverage_fraction: float


def coverage_stats(traj: Trajectory, window) -> FlowStats:
    """Coverage of a window of rectangles by one trajectory."""
    window = set(window)
    visits = sum(1 for s in traj.segments if s.edge == traj.start.edge)
    frac = len(traj.visited_edges() & window) / len(window) if window else 0.0
    return FlowStats(visits_to_start=visits,
                     min_corner_distance=traj.min_corner_distance,
                     coverage_fraction=frac)


def visit_lengths(traj: Trajectory, edge: int) -> list:
    """Cumulative lengths at which the trajectory re-enters a rectangle."""
    acc = 0.0
    out = []
    for seg in traj.segments:
        if seg.edge == edge:
            out.append(acc)
        acc += seg.length
    return out


def separatrices(m: RectangleComplex, index: int, direction):
    """Ray starts of the foliation leaves based at the cone point of corner
    cycle index.

    Returns [(SurfacePoint, chart_direction), ...], one ray per pi-sector
    of the cone angle: a closed corner cycle of k quarters yields k/2 rays
    (its angle is k*pi/2).  Punctured cycles carry no separatrices.
    """
    cycle = m.corner_cycles[index]
    if cycle.puncture:
        raise FlowError(f"corner cycle {cycle.index} is a puncture; no separatrices there")
    if not cycle.truncated and cycle.k % 2:
        raise FlowError(f"cone angle {cycle.k}*pi/2 is not a multiple of pi")
    dx, dy = direction
    if dx == 0 and dy == 0:
        raise FlowError("direction must be nonzero")
    # canonical foliation direction, angle in [0, pi): the direction turned
    # twice or not at all; dx == 0 puts the ray along the quarter's entry side
    half = 2 if dy < 0 or (dy == 0 and dx < 0) else 0
    base, turns = (0, half) if (-dx if half else dx) > 0 else (1, half + 3)
    turned = _quarter_turns(direction)
    rays = []
    for edge, corner in cycle.corners[base::2]:
        cx, cy, entry = _RAY_STARTS[corner]
        w, h = m.width[edge], m.height[edge]
        rays.append((SurfacePoint(edge, w * cx if cx else w - w, h * cy if cy else h - h),
                     turned[(turns + entry) % 4]))
    return rays


class SaddleSearchReport(NamedTuple):
    found: object  # None or (cycle index, ray index, hit corner, length)
    rays_launched: int
    window_exits: int
    min_corner_distance: float


def detect_saddle_connection(m: RectangleComplex, direction, length_bound) -> SaddleSearchReport:
    """Launch every separatrix in the window; report the first one that ends
    on a corner within the length bound.

    Rays go out cycle by cycle in the order of m.corner_cycles (punctured
    cycles skipped), and within a cycle in the order separatrices() returns
    them; "first" is the first singular ray in that order, and the search
    stops there.  All rays share one launch of flow()'s crossing loop and
    record no segments; the found length is the ray's total_length."""
    ray = _walk(m, direction, length_bound, _CORNER_TOL, False)
    rays = exits = 0
    min_corner = math.inf
    for cycle in m.corner_cycles:
        if cycle.puncture:
            continue
        for ridx, (pos, chart_dir) in enumerate(separatrices(m, cycle.index, direction)):
            rays += 1
            terminal, detail, _, _, dist, length, _ = ray(pos, chart_dir)
            min_corner = min(min_corner, dist)
            if terminal == "singular":
                return SaddleSearchReport((cycle.index, ridx, detail, length), rays, exits, dist)
            exits += terminal == "window-exit"
    return SaddleSearchReport(None, rays, exits, min_corner)


def twist_action(m: RectangleComplex, family: str, p: SurfacePoint, power: int,
                 support=None) -> SurfacePoint:
    """Image of a point under the multitwist along one curve family.

    family "alpha" shears inside horizontal cylinders by (x, y) ->
    (x + power*lam*y mod c, y); family "beta" inside vertical ones by
    (x, y) -> (x, y - power*lam*x mod c), matching the derivative
    [[1, 0], [-lam, 1]].  support restricts the twist to a sub-multicurve
    (a set of curve vertices); cylinder boundaries stay fixed.  Requires
    all complete cylinders to have modulus 1/lam.
    """
    if family not in ("alpha", "beta"):
        raise ValueError("family must be alpha or beta")
    if m.lam is None:
        raise ValueError("complex carries no modulus parameter")
    _validate_point(m, p)
    alpha = family == "alpha"
    bad = _off_modulus(m, "horizontal" if alpha else "vertical", 1e-12)
    if bad:
        raise ValueError(f"cylinder at vertex {bad[0].vertex} has modulus != 1/lam; "
                         "uniform-modulus complexes only")
    vertex = m.graph.edge_map()[p.edge][0 if alpha else 1]
    if support is not None and vertex not in support:
        return p
    lay = (m.h_layouts if alpha else m.v_layouts)[vertex]
    if not lay.closed:
        raise ValueError(f"cylinder at vertex {vertex} is window-truncated; twist undefined")
    # cylinder coordinates: along from the cylinder's start, across from its
    # bottom; a rotated chart (orient -1) counts both from the far side
    size = m.width if alpha else m.height
    along, across = (p.x, p.y) if alpha else (p.y, p.x)
    k = lay.edges.index(p.edge)
    if lay.orients[k] != 1:
        along, across = size[p.edge] - along, lay.transverse - across
    if across == 0 or across == lay.transverse:
        return p  # cylinder boundary is fixed pointwise
    shift = power * m.lam * across
    pos = _mod_length(lay.offsets[k] + along + (shift if alpha else -shift), lay.length)
    k = bisect_right(lay.offsets, pos) - 1
    e2 = lay.edges[k]
    along = pos - lay.offsets[k]
    if lay.orients[k] != 1:
        along, across = size[e2] - along, lay.transverse - across
    q = SurfacePoint(e2, along, across) if alpha else SurfacePoint(e2, across, along)
    return canonical_point(m, q)


def _mod_length(x, length):
    q = math.floor(float(x) / float(length))
    x = x - q * length
    while x < 0:
        x = x + length
    while x >= length:
        x = x - length
    return x


class ConvergenceReport(NamedTuple):
    """Window stabilization of a shrinking-support twist family."""

    window: tuple
    n_stable: int
    checked_up_to: int
    pointwise_verified: bool
    touching: tuple  # per n, whether the support difference meets the window


_PROBES_PER_EDGE = 2  # spot-check points per window rectangle


def compact_open_convergence_check(m: RectangleComplex, supports, limit_support,
                                   window, n_max: int) -> ConvergenceReport:
    """Least N with T_alpha T_{beta_n}^-1 == T_alpha T_{beta'}^-1 on the window
    for all n >= N; equality of point actions is exact once the support
    difference misses every window rectangle.

    supports: callable n -> set of beta-vertices.  n_max must be nonnegative.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    window = tuple(sorted(set(window)))
    limit_support = frozenset(limit_support)
    emap = m.graph.edge_map()
    window_vertices = {emap[e][1] for e in window}
    touching = []
    for n in range(n_max + 1):
        diff = frozenset(supports(n)) ^ limit_support
        touching.append(bool(diff & window_vertices))
    n_stable = n_max + 1
    for n in range(n_max, -1, -1):
        if touching[n]:
            break
        n_stable = n
    # pointwise spot check with probe points in the window rectangles
    verified = True
    probes = []
    for e in window:
        w, h = m.width[e], m.height[e]
        for k in range(1, _PROBES_PER_EDGE + 1):
            frac = Fraction(k, _PROBES_PER_EDGE + 2)
            probes.append(SurfacePoint(e, w * frac, h * frac))

    def act(p, support):
        q = twist_action(m, "beta", p, -1, support=support)
        return twist_action(m, "alpha", q, 1)

    for n in range(n_stable, n_max + 1):
        sup = frozenset(supports(n))
        for p in probes:
            if act(p, sup) != act(p, limit_support):
                verified = False
    return ConvergenceReport(window=window, n_stable=n_stable,
                             checked_up_to=n_max, pointwise_verified=verified,
                             touching=tuple(touching))
