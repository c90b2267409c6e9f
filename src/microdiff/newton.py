"""Newton polygons of positive operators.

The polygon of ``P = sum c_alpha D^alpha`` is the lower convex hull of the
points ``(n, min v(c_alpha) over |alpha| = n)``.  Its slopes are exactly the
rational weights ``mu`` at which the weighted max ``mu*n - v`` is achieved at
two different lengths, which is what drives every finiteness argument: an
operator invertible at levels ``(k, r)`` has no slope in ``[r, k]``.

For a truncated operator the hull of the stored points is exact up to a
certified ceiling: discarded points live on or above the tail line, so any
hull edge whose extension stays below that line for every discarded abscissa
is an edge of the true polygon, and every edge created by discarded points
has slope at least the minimal slope from a stored vertex to the tail line.
Queries at or above the ceiling raise instead of guessing.

Valuations are integers, so the hull is computed on integer points with an
integer cross product; only the slopes and the ceiling are fractions.  The
polygon is computed once per operator and kept on it beside
``MicroOp.term_table``: operators are immutable values, and mutating
``terms`` after construction is unsupported, as it already is for the term
table.  :func:`polygon` still checks its argument on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diffop import MicroOp, _require_terms
from .errors import InsufficientTruncation

Point = tuple[int, int]


def _lower_hull(points: list[Point]) -> list[Point]:
    """Monotone-chain lower hull; input sorted by abscissa, one per abscissa."""
    hull: list[Point] = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while the middle point is on or above the chord
            if (x2 - x1) * (p[1] - y1) <= (y2 - y1) * (p[0] - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


@dataclass(frozen=True, slots=True)
class NewtonPolygon:
    """Lower hull data of an operator's (length, valuation) cloud."""

    points: tuple[Point, ...]
    vertices: tuple[Point, ...]
    slopes: tuple[Fraction, ...]
    truncated: bool
    certified_below: Fraction | None  # None: every slope query is exact

    def certified_slopes(self) -> tuple[Fraction, ...]:
        if self.certified_below is None:
            return self.slopes
        return tuple(s for s in self.slopes if s < self.certified_below)

    def has_slope_in(self, r: Fraction | int, k: Fraction | int) -> bool:
        """True iff some slope lies in [r, k]; raises when only slopes at
        or above the certified ceiling could."""
        for s in self.certified_slopes():
            if r <= s <= k:
                return True
        if self.certified_below is not None and k >= self.certified_below:
            raise InsufficientTruncation(
                f"cannot rule out slopes in [{r}, {k}] beyond the certified "
                f"ceiling {self.certified_below}")
        return False


def _build(P: MicroOp) -> NewtonPolygon:
    """The polygon of a positive operator with stored terms; the cached
    value of ``MicroOp._polygon``."""
    minima: dict[int, int] = {}
    for _, n, _, v in P.term_table:
        if n not in minima or v < minima[n]:
            minima[n] = v
    points = sorted(minima.items())
    vertices = _lower_hull(points)
    slopes = tuple(Fraction(v2 - v1, n2 - n1)
                   for (n1, v1), (n2, v2) in zip(vertices, vertices[1:]))
    ceiling = None
    if P.tail is not None:
        t = P.tail
        anchor = t.bound_at(t.start + 1)
        from_vertices = [(anchor - v) / (t.start + 1 - n)
                         for n, v in vertices if n <= t.start]
        ceiling = min([t.t1] + from_vertices)
    return NewtonPolygon(tuple(points), tuple(vertices), slopes,
                         truncated=P.tail is not None, certified_below=ceiling)


def polygon(P: MicroOp) -> NewtonPolygon:
    if not P.positive:
        raise ValueError("Newton polygons are defined for positive operators")
    _require_terms(P)
    return P._polygon


def is_slope(P: MicroOp, mu: Fraction | int) -> bool:
    """Exact slope membership, certified against the tail."""
    mu = mu if type(mu) is int else Fraction(mu)  # as in slope_in_interval
    return polygon(P).has_slope_in(mu, mu)


def slope_in_interval(P: MicroOp, r: Fraction | int, k: Fraction | int) -> bool:
    """True iff some slope of the polygon lies in [r, k].  An int bound is
    compared as it is: it compares and prints as its Fraction does."""
    r = r if type(r) is int else Fraction(r)
    k = k if type(k) is int else Fraction(k)
    return polygon(P).has_slope_in(r, k)
