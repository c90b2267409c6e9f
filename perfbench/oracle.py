"""Reference arithmetic for checking microdiff's answers.

Nothing here imports microdiff.  Operators are plain dictionaries
``{alpha: {m: Fraction}}``: ``alpha`` is the derivation exponent (negative
entries are inverse derivations) and ``{m: c}`` the polynomial coefficient,
``m`` an exponent of the coordinates.  Products follow the Weyl-Laurent
commutation law written out directly:

    D^a x^m = sum_j C(a, j) * m^(j) * x^(m - j) * D^(a - j)

with ``m^(j)`` the falling factorial and ``C(a, j)`` the generalized binomial
(signed for a < 0).  Unit verdicts, norms, orders and Newton polygons are
computed from coefficient valuations, following the level table of the
package's paper summary.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as cartesian

# -- scalars ------------------------------------------------------------------


def valuation(q, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of 0")

    def ival(n: int) -> int:
        n = abs(n)
        if p == 2:
            return (n & -n).bit_length() - 1
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return ival(q.numerator) - ival(q.denominator)


def unit_residue(q: Fraction, p: int, digits: int) -> int:
    """Unit part of q reduced modulo p**digits."""
    q = Fraction(q) / Fraction(p) ** valuation(q, p)
    mod = p**digits
    return q.numerator * pow(q.denominator, -1, mod) % mod


def gen_binom(a: int, j: int) -> Fraction:
    """C(a, j) for any integer a and j >= 0."""
    num = 1
    for i in range(j):
        num *= a - i
    return Fraction(num, math.factorial(j))


def falling(m: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= m - i
    return out


# -- operators ----------------------------------------------------------------


def const_op(coeffs: dict, dim: int = 1) -> dict:
    """Operator with constant coefficients from ``{alpha: value}``."""
    zero = (0,) * dim
    return {tuple(a): {zero: Fraction(c)} for a, c in coeffs.items() if c != 0}


def identity(dim: int = 1) -> dict:
    return const_op({(0,) * dim: 1}, dim)


def _put(out: dict, alpha, m, c):
    row = out.setdefault(alpha, {})
    s = row.get(m, 0) + c
    if s == 0:
        row.pop(m, None)
        if not row:
            del out[alpha]
    else:
        row[m] = s


def add(P: dict, Q: dict, sign: int = 1) -> dict:
    out = {a: dict(row) for a, row in P.items()}
    for a, row in Q.items():
        for m, c in row.items():
            _put(out, a, m, sign * c)
    return out


def mul(P: dict, Q: dict) -> dict:
    """Weyl-Laurent product, exact (no degree cap, no window)."""
    out: dict = {}
    for alpha, f in P.items():
        for beta, g in Q.items():
            for mg, cg in g.items():
                # D^alpha past x^mg, axis by axis
                ranges = [range(0, mg[i] + 1) for i in range(len(alpha))]
                for j in cartesian(*ranges):
                    factor = Fraction(1)
                    for a, m, ji in zip(alpha, mg, j):
                        factor *= gen_binom(a, ji) * falling(m, ji)
                        if factor == 0:
                            break
                    if factor == 0:
                        continue
                    gamma = tuple(a + b - ji for a, b, ji in zip(alpha, beta, j))
                    mrest = tuple(m - ji for m, ji in zip(mg, j))
                    for mf, cf in f.items():
                        mono = tuple(x + y for x, y in zip(mf, mrest))
                        _put(out, gamma, mono, cf * cg * factor)
    return out


def coeff_val(row: dict, p: int) -> int:
    """Gauss valuation of a polynomial coefficient."""
    return min(valuation(c, p) for c in row.values())


def is_unit_fn(row: dict, p: int) -> bool:
    """A polynomial is a unit of the Tate algebra iff its constant term
    strictly dominates every other coefficient."""
    dim = len(next(iter(row)))
    c0 = row.get((0,) * dim)
    if c0 is None:
        return False
    v0 = valuation(c0, p)
    return all(valuation(c, p) > v0 for m, c in row.items() if any(m))


def flat(alpha) -> int:
    return sum(alpha)


def length(alpha) -> int:
    return sum(abs(a) for a in alpha)


def mixed_weight(alpha, k: int, r: int) -> int:
    f = flat(alpha)
    return k * f if f >= 0 else r * f


# -- valuation-level views ------------------------------------------------------


class Data:
    """Valuation data of an operator: ``{alpha: v}`` plus unit-function flags.

    ``finite`` is False for operators with infinitely many nonzero terms,
    which the data then lists up to a length beyond which no weighted query
    of the levels in use can change.
    """

    def __init__(self, vals: dict, units: dict | None = None,
                 finite: bool = True):
        self.vals = vals
        self.units = units if units is not None else {a: True for a in vals}
        self.finite = finite

    @classmethod
    def of(cls, P: dict, p: int) -> "Data":
        return cls({a: coeff_val(row, p) for a, row in P.items()},
                   {a: is_unit_fn(row, p) for a, row in P.items()})

    @classmethod
    def series(cls, coeff, n_max: int, p: int) -> "Data":
        """Infinite d = 1 constant-coefficient operator ``sum coeff(n) D^n``,
        listed up to n_max."""
        vals = {}
        for n in range(n_max + 1):
            c = coeff(n)
            if c != 0:
                vals[(n,)] = valuation(c, p)
        return cls(vals, None, finite=False)


def weighted_max(data: Data, wfn) -> tuple[int, list]:
    """Max of wfn(alpha) - v(alpha) and the exponents achieving it."""
    best, arg = None, []
    for a, v in data.vals.items():
        e = wfn(a) - v
        if best is None or e > best:
            best, arg = e, [a]
        elif e == best:
            arg.append(a)
    if best is None:
        raise ValueError("zero operator")
    return best, arg


def norm_exponent(data: Data, k: int) -> int:
    """e with |P|_k = p**e (positive operators, level k)."""
    return weighted_max(data, lambda a: k * length(a))[0]


def orders(data: Data, k: int) -> tuple[int, int]:
    """(largest, smallest) length achieving the level-k norm."""
    _, arg = weighted_max(data, lambda a: k * length(a))
    lens = [length(a) for a in arg]
    return max(lens), min(lens)


def ek_exponent(data: Data, k: int) -> int:
    return weighted_max(data, lambda a: k * flat(a))[0]


def fkr_exponent(data: Data, k: int, r: int) -> int:
    return weighted_max(data, lambda a: mixed_weight(a, k, r))[0]


def verdict(data: Data, tag: str, k: int | None = None,
            r: int | None = None) -> tuple[bool, tuple | None]:
    """(invertible, dominant exponent) at one ring level.

    dkq(k): unique level-k maximum at alpha = 0 with a unit coefficient.
    ek(k): unique maximum of k*fl(alpha) - v with a unit coefficient.
    fkr(k, r): some unit coefficient beta with
        weight(alpha - beta, k, r) - v(alpha) + v(beta) < 0 for all alpha.
    fir(r): finite, dominant unit top coefficient, and
        v(alpha) > v(beta) - r*(|beta| - |alpha|) below the top.
    finf: finite with a dominant unit top coefficient.
    dinf: a unit function (order 0).
    """
    vals, units = data.vals, data.units
    dim = len(next(iter(vals)))
    zero = (0,) * dim
    if tag in ("dkq", "ek"):
        wfn = (lambda a: k * length(a)) if tag == "dkq" else (lambda a: k * flat(a))
        _, arg = weighted_max(data, wfn)
        if len(arg) != 1 or not units[arg[0]]:
            return False, None
        if tag == "dkq" and arg[0] != zero:
            return False, None
        return True, arg[0]
    if tag == "fkr":
        for beta in sorted(vals):
            if not units[beta]:
                continue
            vb = vals[beta]
            if all(mixed_weight(tuple(x - y for x, y in zip(a, beta)), k, r)
                   - v + vb < 0 for a, v in vals.items() if a != beta):
                return True, beta
        return False, None
    if not data.finite:
        return False, None
    q = max(length(a) for a in vals)
    if tag == "dinf":
        return (q == 0 and units[zero]), (zero if q == 0 and units[zero] else None)
    top = [a for a in vals if length(a) == q]
    beta = min(top, key=lambda a: vals[a])
    if any(vals[a] <= vals[beta] for a in top if a != beta) or not units[beta]:
        return False, None
    if tag == "fir":
        vb = vals[beta]
        if any(v <= vb - r * (q - length(a)) for a, v in vals.items()
               if length(a) < q):
            return False, None
    return True, beta


def finf_delegate(data: Data) -> tuple[int, int]:
    """Level (k, r) at which a finite-level inverse of a finf unit is checked.

    r is the least r >= 1 for which the fir inequalities below the top are
    strict; k the least k >= r for which the top is the unique level-k max.
    """
    q = max(length(a) for a in data.vals)
    top = [a for a in data.vals if length(a) == q]
    beta = min(top, key=lambda a: data.vals[a])
    vb = data.vals[beta]
    r = 1
    for a, v in data.vals.items():
        if length(a) < q:
            gap = Fraction(vb - v, q - length(a))
            r = max(r, math.floor(gap) + 1)
    return r, r


def lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Vertices of the lower convex hull, by repeated minimal-slope steps."""
    pts = sorted(points)
    hull = [pts[0]]
    while True:
        x0, y0 = hull[-1]
        right = [(x, y) for x, y in pts if x > x0]
        if not right:
            return hull
        s = min(Fraction(y - y0, x - x0) for x, y in right)
        # the farthest point on the minimal-slope ray is the next vertex
        nxt = max((x, y) for x, y in right if Fraction(y - y0, x - x0) == s)
        hull.append(nxt)


def polygon(data: Data) -> tuple[list, list]:
    """(vertices, slopes) of the Newton polygon of a positive operator."""
    minima: dict[int, int] = {}
    for a, v in data.vals.items():
        n = length(a)
        minima[n] = min(v, minima.get(n, v))
    hull = lower_hull(list(minima.items()))
    slopes = [Fraction(y2 - y1, x2 - x1)
              for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    return hull, slopes


# -- the named infinite families ------------------------------------------------


def product_coeff(n: int, p: int, shift: int = 0) -> Fraction:
    """Coefficient of D^n in prod(m > shift, 1 - p**m D).

    The elementary symmetric sum of p**(shift+1), p**(shift+2), ... is
    p**(n*shift + n(n+1)/2) / prod(i <= n, 1 - p**i).
    """
    den = Fraction(1)
    for i in range(1, n + 1):
        den *= 1 - Fraction(p) ** i
    return (-1) ** n * Fraction(p) ** (n * shift + n * (n + 1) // 2) / den


def gauss_coeff(n: int, p: int) -> Fraction:
    return Fraction(p) ** (n * n)


def chain_prefixes(units_by_n: dict, p: int) -> list[dict]:
    """Partial products of prod over n of (1 - u_n p**n D), each as
    ``{exponent: Fraction}`` (d = 1, constant coefficients)."""
    out, acc = [], {0: Fraction(1)}
    for n, u in units_by_n.items():
        c = -u * Fraction(p) ** n
        nxt: dict = {}
        for e, a in acc.items():
            nxt[e] = nxt.get(e, 0) + a
            nxt[e + 1] = nxt.get(e + 1, 0) + a * c
        acc = {e: a for e, a in nxt.items() if a != 0}
        out.append(acc)
    return out


def finite_chain(units_by_n: dict, p: int) -> dict:
    return chain_prefixes(units_by_n, p)[-1]


# -- calibration ------------------------------------------------------------------

_CAL_UNITS = {n: (-1) ** n * (2 * n + 1) for n in range(1, 21)}
_CAL_DATA = [Data({(n,): (n * 7) % 5 - 2 for n in range(m)}) for m in range(1, 6)]


def calibration_kernel():
    """Fixed pure-Python work (bigint fractions, dicts, small objects) whose
    CPU time tracks how fast the machine runs at the moment."""
    chain_prefixes(_CAL_UNITS, 2)
    for _ in range(40):
        for data in _CAL_DATA:
            verdict(data, "fkr", 2, 1)
            polygon(data)
