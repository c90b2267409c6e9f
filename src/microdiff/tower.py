"""Unit tests and explicit inversion across the ring tower.

Six ring levels share one operator representation; what changes is which
weighted inequalities the coefficients must satisfy:

* ``dkq(k)``: positive operators with the level-k norm.  Units are the
  order-zero operators with invertible constant coefficient.
* ``ek(k)``: the one-norm localization.  Units have a unique coefficient of
  maximal level-k weighted norm, and that coefficient is a unit function.
* ``fkr(k, r)``: the transition-compatible localization.  Units are the
  operators whose recentred series contracts in the (k, r) norm; for a
  candidate exponent beta that is the family of strict inequalities
  ``weight(alpha - beta, k, r) - v(c_alpha) + v(c_beta) < 0``, which for a
  positive operator is exactly: unique level-k maximum at beta, and
  ``|c_alpha| < |c_beta| * p**(r(|beta| - |alpha|))`` below the top.
* ``fir(r)``: the projective limit over k >= r.  Units are the finite
  operators passing the fkr inequalities for every k, i.e. the r-family
  above plus strict top-order dominance and a unit top coefficient.
* ``finf``: the union over r.  Units are the finite operators with a
  dominant unit top coefficient (unique max-norm coefficient at top order).
* ``dinf``: no localization at all.  Units are the unit functions.

Verdicts carry machine-checkable witnesses: the dominant exponent for a
unit, or the violated clause and offending exponent for a non-unit.
Inversion recentres at c_beta's constant, sums the geometric series
to the certified residual target and multiplies back, the whole certificate,
on the product kernel's integer rows; it makes one operator, the inverse, on sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from . import newton
from .diffop import (DEFAULT_WINDOW_CAP, Exponent, MicroOp, _as_rows, _check_level, _degrees,
                     _drop_below, _geometric_sum, _graded_weight, _kernel_sums, _KernelTerms,
                     _level_exponent, _require_positive, _scaled, _unit_at, _window_cap_check,
                     is_finite)
from .errors import (DegreeCapOverflow, InsufficientTruncation, NotInvertible,
                     UndecidableFiniteness, WindowOverflow, ZeroOperator)
from .microop import _stored_max, tail_sup_exponent
from .padic import int_valuation


@dataclass(frozen=True)
class RingLevel:
    """Coordinate in the tower: tag plus the levels the tag takes (``diffop._LEVELS``)."""

    tag: str
    k: int | None = None
    r: int | None = None

    def __post_init__(self):
        _check_level(self.tag, self.k, self.r)

    @classmethod
    def dkq(cls, k: int) -> "RingLevel":
        return cls("dkq", k=k)

    @classmethod
    def ek(cls, k: int) -> "RingLevel":
        return cls("ek", k=k)

    @classmethod
    def fkr(cls, k: int, r: int) -> "RingLevel":
        return cls("fkr", k=k, r=r)

    @classmethod
    def fir(cls, r: int) -> "RingLevel":
        return cls("fir", r=r)

    @classmethod
    def finf(cls) -> "RingLevel":
        return cls("finf")

    @classmethod
    def dinf(cls) -> "RingLevel":
        return cls("dinf")

    def __str__(self):
        fields = ", ".join(f"{n}={v}" for n, v in (("k", self.k), ("r", self.r)) if v is not None)
        return f"{self.tag}({fields})" if fields else self.tag

    def weight(self, m: int):
        """Weight of the grading m = fl(alpha) at a finite level: k*m on
        m >= 0, and r*m below at fkr."""
        return _graded_weight(m, self.k, self.r)

    def norm_exponent(self, P: MicroOp):
        """Certified exponent e of P's norm p**e at a finite level; None for 0."""
        if self.k is None:
            raise ValueError(f"{self} has no single norm")
        if self.tag == "dkq":
            _require_positive(P, "norm_k")
        return _level_exponent(P, self.k, self.r)


@dataclass(frozen=True, slots=True, init=False)
class UnitVerdict:
    """Outcome of a unit test with its witness.

    For a unit: ``beta`` is the dominant exponent and ``delegate`` the
    concrete finite level (k, r) at which limit-level inverses are realized.
    For a non-unit: ``violated`` names the failed clause and ``alpha`` the
    offending exponent when one exists.
    """

    invertible: bool
    level: RingLevel
    beta: Exponent | None = None
    violated: str | None = None
    alpha: Exponent | None = None
    delegate: tuple[int, int] | None = None

    def __init__(self, invertible, level, beta=None, violated=None, alpha=None, delegate=None):
        # each slot set by its member descriptor, not by object.__setattr__ as frozen's own
        a, b, c, d, e, f = _SLOT_SETTERS
        a(self, invertible)
        b(self, level)
        c(self, beta)
        d(self, violated)
        e(self, alpha)
        f(self, delegate)


_SLOT_SETTERS = tuple(UnitVerdict.__dict__[f.name].__set__ for f in fields(UnitVerdict))


def _check_tail(P: MicroOp, level: RingLevel, bound, strict: bool, r=None, beta: int = 0):
    """Refuse the verdict unless the (k, r) tail sup recentred at beta stays
    below ``bound``, the stored or (with r) recentred maximum: strictly, or
    at most reaching it when not ``strict``; a refusal names the bound."""
    try:
        sup = tail_sup_exponent(P, level.k, r, beta)
    except InsufficientTruncation as e:
        reason = e
    else:
        if sup is None or (sup < bound if strict else sup <= bound):
            return
        reason = (f"tail sup p^{sup} {'reaches' if strict else 'exceeds'} the "
                  f"{'stored' if r is None else 'recentred'} maximum p^{bound}")
    raise InsufficientTruncation(f"{reason}; the {level} verdict needs a larger truncation")


def _finite_level_verdict(P: MicroOp, level: RingLevel) -> UnitVerdict:
    """dkq / ek / fkr: a unique level-k maximum at a unit coefficient (at
    order zero for dkq); at fkr the series recentred there must contract.

    A contracting beta is that maximum (k >= r), and it contracts exactly
    when it alone reaches the max of the recentred exponents
    ``weight(fl(alpha) - fl(beta)) - v(c_alpha)``, whose value there is
    ``-v(c_beta)``; the recentred tail sup must stay strictly below it.
    False verdicts from stored violations remain valid as long as the
    level-k tail cannot exceed the stored maximum (extra max-achievers only
    grow the argmax set); true dkq / ek verdicts need the tail strictly below.
    """
    best, top = _stored_max(P, level.k)
    beta, _, fl_beta, v_beta = top[0]
    unit = False
    if level.tag == "dkq" and (len(top) > 1 or top[0][1]):  # only alpha = 0 has length 0
        clause, alpha = "order_positive", max(top, key=lambda row: row[1])[0]
    elif len(top) > 1:
        clause, alpha = "max_coefficient_not_unique", max(a for a, _, _, _ in top)
    elif not _unit_at(P, beta):
        clause = "constant_not_unit" if level.tag == "dkq" else "max_coefficient_not_unit"
        alpha = beta
    elif level.tag != "fkr":
        unit = True
    else:
        recentred, rtop = _stored_max(P, level.k, level.r, fl_beta)
        if len(rtop) == 1 and rtop[0][0] == beta:
            _check_tail(P, level, recentred, True, level.r, fl_beta)
            return UnitVerdict(True, level, beta=beta)
        clause = "lower_order_too_large"
        alpha = next(a for a, _, fl, v in sorted(P.term_table)
                     if a != beta and level.weight(fl - fl_beta) - v + v_beta >= 0)
    _check_tail(P, level, best, unit)
    if unit:
        return UnitVerdict(True, level, beta=beta)
    return UnitVerdict(False, level, violated=clause, alpha=alpha)


def _limit_verdict(P: MicroOp, level: RingLevel) -> UnitVerdict:
    """fir / finf / dinf: finiteness first, then coefficient inequalities."""
    if not P.terms.kept[0] and P.is_exact:
        raise ZeroOperator("the zero operator is not a unit anywhere")
    if not is_finite(P):
        cert = P.tail or P.neg_tail
        if cert is not None and cert.infinite:
            return UnitVerdict(False, level, violated="not_finite")
        if level.tag == "fir":
            # a certified slope at or above r rules the unit out even
            # without deciding finiteness
            try:
                poly = newton.polygon(P)
                last = poly.slopes[-1] if poly.slopes else 0
                if poly.has_slope_in(level.r, max(level.r, last)):
                    return UnitVerdict(False, level, violated="slope_in_interval")
            except InsufficientTruncation:
                pass
        raise UndecidableFiniteness(
            "truncated data with no exactness or infinite-support witness")
    q, top, (beta, _, _, v_beta), ties, unit, r_min = P._limit_data
    if level.tag == "dinf" and q > 0:
        return UnitVerdict(False, level, violated="order_positive",
                           alpha=max(a for a, _, _, _ in top))
    # dominant top coefficient: strictly maximal norm among the top order (at
    # dinf the one order-0 row, at 0, whose r_min is 1)
    if ties:
        return UnitVerdict(False, level, violated="top_order_not_dominated", alpha=max(ties))
    if not unit:
        clause = "constant_not_unit" if level.tag == "dinf" else "dominant_not_unit"
        return UnitVerdict(False, level, violated=clause, alpha=beta)
    # the r-weighted inequalities v(c_alpha) > v(c_beta) - r(q - |alpha|) below
    # the top hold exactly from r_min on; fkr(r, r) then realizes the inverse
    r = level.r or r_min  # fir weighs its own r; finf and dinf take r_min
    if r < r_min:
        return UnitVerdict(False, level, violated="lower_order_too_large", alpha=next(
            a for a, n, _, v in sorted(P.term_table) if n < q and v <= v_beta - r * (q - n)))
    return UnitVerdict(True, level, beta=beta, delegate=(r, r))


def check_unit(P: MicroOp, level: RingLevel) -> UnitVerdict:
    """Decide invertibility of P at the given ring level, with witness."""
    if level.tag in ("dkq", "fir", "finf", "dinf") and not P.positive:
        raise ValueError(f"{level} applies to positive operators")
    if level.tag in ("dkq", "ek", "fkr"):
        return _finite_level_verdict(P, level)
    return _limit_verdict(P, level)


def slope_criterion_check(P: MicroOp, r: int, k: int) -> bool:
    """True iff no Newton slope lies in [r, k].

    Invertibility at fkr(k, r) implies this: a slope in the window would
    make the weighted maximum non-unique at that weight, contradicting the
    contraction inequalities.
    """
    return not newton.slope_in_interval(P, r, k)


@dataclass(frozen=True)
class Classification:
    kind: str  # 'finite' | 'infinite' | 'unknown'
    order: int | None = None


def classify_surconvergent(P: MicroOp) -> Classification:
    """Finite(q) for exact data, Infinite with a witness, else Unknown."""
    if P.is_exact:
        return Classification("finite", P.max_length())
    for cert in (P.tail, P.neg_tail):
        if cert is not None and cert.infinite:
            return Classification("infinite")
    return Classification("unknown")


# -- explicit inversion --------------------------------------------------------


def invert(P: MicroOp, level: RingLevel, window_cap: int = DEFAULT_WINDOW_CAP,
           residual_exponent: int = 20) -> MicroOp:
    """Explicit inverse with certified residual ||P * S - 1|| <= p**-target.

    Writes P = c0 (1 + R) D^beta, c0 the constant of the dominant coefficient
    c_beta, with -R = c0^-1 * rest, rest the other recentred monomials negated
    (c_beta's own among them unless their valuation sits the target above
    c0's); the geometric series for (1 + R)^{-1} is summed until the contraction
    ratio pushes the residual below the target, and S = D^-beta (1 - R + ... +
    (-R)^J) c0^-1 is multiplied back to verify, all at P's largest cap and
    precision.  Limit levels delegate to the concrete (k, r) in the verdict.

    On exact general rows each power of -R drops its monomials of level exponent
    below -(target + 2), and S those below -(target + e + 2), p^e the norm of P's
    stored terms: S moves by at most ||P^-1|| p^-target (||P||^-1 at dkq, ek) and is still
    certified exactly; where the window or the target refuses it, the whole series runs.
    """
    verdict = check_unit(P, level)
    if not verdict.invertible:
        raise NotInvertible(f"not a unit at {level}: {verdict.violated}")
    if level.tag in ("fir", "finf", "dinf"):
        k, r = verdict.delegate
        return invert(P, RingLevel.fkr(k, r), window_cap, residual_exponent)
    beta, p, zero = verdict.beta, P.prime, (0,) * P.dim
    sums, W, E, n, flat_cap = kept = P.terms.kept
    P_rows, degrees = _as_rows(kept, p), _degrees(kept)
    cap = flat_cap if flat_cap is not None else max(c for *_, c in sums.values())
    precision = n or max(abs(q) for _, _, vp, _, _ in P_rows[0] for q in vp.values())
    _, _, fl_beta, v_beta = next(row for row in P.term_table if row[0] == beta)
    # c0 D^beta - P recentred, so that -R = c0^-1 * rest; u maps c_beta's monomials
    # past c0 to their valuation relative to c0's, less than the target: the
    # others cannot reach the residual and stay out of rest
    rest = {tuple(x - y for x, y in zip(a, beta)): s for a, s in sums.items() if a != beta}
    u = {} if flat_cap is not None else {
        m: e for m, N in sums[beta][0].items() if any(m)
        and (e := W + int_valuation(N, p) - v_beta) < residual_exponent}
    if u:
        vals, vp, c = sums[beta]
        rest[zero] = [{m: vals[m] for m in u}, vp and {m: vp[m] for m in u}, c]
    deg_R = max(_degrees((rest, W, E, n, flat_cap)).values(), default=0)
    rest = _as_rows(_scaled((rest, W, E, n, flat_cap), -1, p), p)
    # the contraction ratio: the level norm of R, whose exponents are
    # weight(fl(alpha) - fl(beta)) - v(c_alpha) + v(c0) and minus u's relative
    # valuations, and of the recentred tail
    rho = [-e for e in u.values()] + [e + v_beta for e in (
        max((level.weight(fl - fl_beta) - v for a, _, fl, v in P.term_table if a != beta),
            default=None), tail_sup_exponent(P, level.k, level.r, fl_beta)) if e is not None]
    if rho and max(rho) >= 0:
        raise NotInvertible("recentred series does not contract")
    # smallest J with (J + 1) * (-rho) >= target, so the dropped tail of the
    # geometric series already sits below the residual target; a monomial
    # has no series, and S = c0^-1 D^-beta is checked like any inverse
    J = math.ceil(Fraction(residual_exponent) / -max(rho)) - 1 if rho else 0
    floor = (level.weight, residual_exponent + 2) if flat_cap is None and all(
        q > 0 for *_, vp, _, _ in P_rows[0] if vp for q in vp.values()) else None  # no residue
    g = _unit_inverse(P_rows, beta, p)
    try:
        for floor in (floor, None) if floor else (None,):
            try:
                # the series of -R = c0^-1 * rest, times D^-beta (the identity at beta
                # = 0), window-checked as mul checks it, and then c0^-1, which moves none
                S = _geometric_sum(_as_rows(_kernel_sums(g, rest, P.dim, p), p), max(J, 0),
                                   ([(zero, 1)], 0, 1, precision, cap), p, window_cap, floor)
                if any(beta):
                    S = _kernel_sums(([(tuple(-b for b in beta), 1)], 0, 1, precision, cap),
                                     _as_rows(S, p), P.dim, p)
                    _window_cap_check(S[0], window_cap)
                S = _kernel_sums(_as_rows(S, p), g, P.dim, p)
                if floor and S[4] is None:  # S's own drop; a flat S stays whole
                    e = floor[1] + _stored_max(P, level.k, level.r)[0]
                    S = _drop_below(S[0], S[1], (level.weight, e), p), *S[1:]
                # _as_rows has checked every residue of S: it is wrapped as it is
                back, S = (P_rows, _as_rows(S, p)), MicroOp(P.dim, p, _KernelTerms(P.dim, p, S))
                _verify_residual(P, S, level, residual_exponent, back)
                return S
            except (WindowOverflow, InsufficientTruncation):  # the whole series answers
                if not floor:  # or refuses as before; a degree cap the dropped one exceeds, it does
                    raise
    except DegreeCapOverflow:  # commutation only lowers x-degrees, so
        # deg P + J*deg R bounds every coefficient formed above
        needed = max(degrees.values()) + J * deg_R
        raise DegreeCapOverflow(needed, cap, f"the inverse and its multiply-back reach "
                                f"coefficient degree at most {needed}, past the degree cap") from None
    except WindowOverflow as e:  # a product lowers a D-exponent by at most its
        # right factor's coefficient degree: J*deg R over the powers of -R
        # and J*deg R more past D^-beta
        needed = max(map(abs, beta)) + J * (
            max((abs(x - y) for a in sums if a != beta for x, y in zip(a, beta)), default=0)
            + 2 * deg_R)
        raise WindowOverflow(e.reason, needed, "every exponent the inverse forms stays "
                             f"within {needed}") from None


def _unit_inverse(rows: tuple, beta: Exponent, p: int) -> tuple:
    """The rows of c0^-1 for the constant c0 = p^(W+v) unit / E of c_beta in
    P's ``rows`` over ``p^W / E``: E / unit over p^-(W+v), exactly at c0's
    precision, or modulo p^digits for a residue."""
    P_rows, W, E, n, cap = rows
    zero, row = (0,) * len(beta), next(row for row in P_rows if row[0] == beta)
    N0, q0 = row[1], n
    if cap is None:
        _, vals, vp, cap, _ = row
        N0, q0 = dict(vals)[zero], n if vp is None else vp[zero]
    v = int_valuation(N0, p)
    unit = N0 // p ** v
    if q0 > 0:
        d = math.gcd(E, unit)
        return [(zero, E // d if unit > 0 else -E // d)], -W - v, abs(unit) // d, q0, cap
    mod = p ** -q0  # balanced, as _series_sums reads a residue
    N = pow(unit, -1, mod) * E % mod
    N = N - mod if 2 * N > mod else N
    return [(zero, [(zero, N)], {zero: q0}, cap, 0)], -W - v, 1, None, None


def _verify_residual(P: MicroOp, S: MicroOp, level: RingLevel, residual_exponent: int,
                     rows: tuple):
    """Refuse unless ||P*S - 1||, with P's discarded mass times S, reaches the
    target.  On P's and S's ``rows`` P*S stays sums over ``p^W / E``, E prime
    to p: a coefficient's valuation is W + v(gcd of its integers), at most
    the least absolute precision of its residue monomials (a bound where
    their known digits cancel, named by a refusal it binds: only a larger
    ``prec`` lifts it), and 1 leaves the constant integer over ``p^min(W, 0) / E``."""
    p, zero = P.prime, (0,) * P.dim
    sums, W, E, _, cap = _kernel_sums(*rows, P.dim, p)
    coeffs = {a: ({zero: s}, None) if cap is not None else s[:2] for a, s in sums.items()}
    low = min(W, 0)
    constant, cprecs = coeffs.pop(zero, ({}, None))
    constant = {m: N * p ** (W - low) for m, N in constant.items()}
    constant[zero] = constant.get(zero, 0) - E * p ** -low

    def valuation(vals: dict, precs: dict | None, shift: int):  # (v, digits of a residue at v)
        c = math.gcd(*vals.values())
        q = max((q for q in precs.values() if q < 0), default=0) if precs else 0
        v = int_valuation(c, p) if c else None
        if q and (v is None or shift - q < v):
            return shift - q, W - q
        return v, None
    exps = [(-low, *valuation(constant, cprecs, W - low))] + [
        (level.weight(sum(a)) - W, *valuation(v, vp, 0)) for a, (v, vp) in coeffs.items()]
    bounds = [(e - v, digits) for e, v, digits in exps if v is not None]
    sup = tail_sup_exponent(P, level.k, level.r)
    if sup is not None:  # discarded mass of P also multiplies S
        bounds.append((sup + level.norm_exponent(S), None))
    # at one bound, a valuation or the tail binds before a residue's digits
    measured, digits = max(bounds, key=lambda t: (t[0], t[1] is None), default=(None, None))
    if measured is not None and measured > -residual_exponent:
        raise InsufficientTruncation(
            f"residual p-norm p^{measured} exceeds the target p^{-residual_exponent}" + (
                "" if digits is None else f"; the operand is known only to {digits} digits "
                "there, and only a larger prec in its JSON can fix that"))
