"""Differential operators with congruence-level norms.

An operator is stored by its raw coefficients: ``S = sum c_alpha * D^alpha``
with ``c_alpha`` a restricted power series and ``alpha`` an integer
multi-exponent (negative entries are inverse derivation powers; this module's
level norms and orders apply to the positive operators, the Laurent norms
live in :mod:`microdiff.microop`).

The level-k data of a term is the exponent ``k*fl(alpha) - v(c_alpha)`` where
``fl`` is the sum of the entries and ``v`` the coefficient's spectral
valuation; the level-k norm is ``p`` to the max of these.  Keeping raw
coefficients makes the inclusion between consecutive levels the identity on
data: one representation serves every level.

Truncated operators carry :class:`TailCertificate` bounds so that norm and
order queries are certified, never heuristic: a query either proves its
answer against the certificate or raises
:class:`~microdiff.errors.InsufficientTruncation`.  The constructor refuses
a coefficient that is not an exact polynomial.  One product body serves
:func:`compose`, :func:`microdiff.microop.mul` and ``*``: an integer
kernel, for exact and digit-mode scalars (read from JSON) alike.  A residue
enters it as its numerator over 1, and a monomial it reaches is known to
the least absolute precision of its products (see :func:`_add_term`).
It and the sum refuse a coefficient that would lose a monomial to the
degree cap: the loss would pass for an exact zero.

One store.  Every operator keeps the kernel's integer sums ``(sums, W, E,
n, cap)`` over ``p^W / E``, ``E`` prime to p, as its ``terms``
(:class:`_KernelTerms`; given series are converted once, on first use, by
:func:`_series_sums`).  One read rule: library code reads ``terms.kept``,
and a term's valuation as W + v(gcd of its integers); the first value read,
for text, JSON, ``coefficient()`` or ``==``, builds every ``TateSeries`` once.
One sum, :func:`_sum`, serves ``+``, ``-`` and the expression fold in the
series arithmetic's term order, precisions, caps and refusals; a residue
whose known digits all cancel is refused by the operation that forms it.
Precision: when every scalar of each operand shares one precision,
every output scalar has the smaller of the two and no per-monomial
precision is tracked; one that mixes precisions or holds a residue switches
on the per-monomial bookkeeping (:func:`_add_term`).  Constant
coefficients: when every coefficient is one exact constant at one
precision and degree cap, the sums are flat, ``{alpha: N}``: a product is
one of Laurent polynomials over Z, each output at the smaller precision
and cap, in the pair loop's term order (left terms in storage order, then
right terms, an exponent whose sum cancels dropped at once and re-inserted
at the end if formed again).  A commutation table forms each D^j(g) and
(alpha, beta) list once: a right factor's terms keep one (no module-level
cache), and one serves each call of :func:`_geometric_sum`, which adds the
powers of :func:`microdiff.tower.invert`'s series into one accumulator.

Values are immutable and every operation is pure, so operators can be shared
freely across threads: threads that race on an operator's lazily built
scalars or commutation table fill them with equal entries.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, attrgetter, ge, sub

from .errors import (DegreeCapOverflow, DivisionByZero, InsufficientTruncation,
                     NotCertifiable, PrecisionExhausted, WindowOverflow, ZeroOperator)
from .padic import DEFAULT_PRECISION, DEFAULT_PRIME, int_binomial, int_valuation
from .padic import _make as _scalar
from .tate import DEFAULT_DEGREE_CAP, TateSeries, monomial_text
from .tate import _make as _series

DEFAULT_WINDOW_CAP = 64

Exponent = tuple[int, ...]


@lru_cache(maxsize=64)
def _check_ring(dim: int, prime: int, degree_cap: int, precision: int = DEFAULT_PRECISION,
                axis: int = 0) -> None:
    """Build x_axis, or 1 for axis 0, by the checked constructors once per
    ring: a ring they refuse is refused where its operator is made."""
    build = TateSeries.coordinate if axis else TateSeries.constant
    build(axis or 1, dim, prime, degree_cap, precision)


def floor_sum(alpha: Exponent) -> int:
    """Signed sum of the entries (the grading a monomial lives in)."""
    return sum(alpha)


def length(alpha: Exponent) -> int:
    """Sum of absolute values of the entries."""
    return sum(abs(a) for a in alpha)


@dataclass(frozen=True)
class TailCertificate:
    """Linear lower bound on the valuations of discarded coefficients.

    Asserts ``v(c_alpha) >= t0 + t1 * |alpha|`` for every discarded exponent
    of the covered sector with ``|alpha| > start``.  ``infinite`` additionally
    records that infinitely many of the discarded coefficients are nonzero
    (generators of inherently infinite operators set it).
    """

    start: int
    t0: Fraction
    t1: Fraction
    infinite: bool = False

    def __post_init__(self):
        object.__setattr__(self, "t0", Fraction(self.t0))
        object.__setattr__(self, "t1", Fraction(self.t1))

    def bound_at(self, n: int) -> Fraction:
        return self.t0 + self.t1 * n


@dataclass(frozen=True)
class MicroOp:
    """Sparse Laurent differential operator with optional tail certificates.

    ``terms`` maps exponents to nonzero exact polynomials (kept as kernel sums,
    :class:`_KernelTerms`).  ``tail`` bounds the discarded part of the sector
    ``fl(alpha) >= 0``, ``neg_tail`` the sector ``fl(alpha) < 0``.  An
    operator without tails is exact: its stored terms are the whole element.
    """

    dim: int
    prime: int
    terms: Mapping[Exponent, TateSeries] = field(default_factory=dict)
    tail: TailCertificate | None = None
    neg_tail: TailCertificate | None = None

    def __post_init__(self):
        if type(self.terms) is _KernelTerms and self.terms.ring == (self.dim, self.prime):
            return  # the kernel's sums are exact, nonzero and within the cap
        for a, c in self.terms.items():
            if len(a) != self.dim:
                raise ValueError(f"exponent {a} has wrong arity for dim {self.dim}")
            if c.dim != self.dim or c.prime != self.prime:
                raise ValueError("coefficient ring mismatch")
            if c.is_zero:
                raise ValueError("stored coefficients must be nonzero")
            if not c.exact:
                raise NotCertifiable(f"coefficient of d^{list(a)}: not an exact polynomial")
        object.__setattr__(self, "terms", _KernelTerms(self.dim, self.prime, None, self.terms))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int = 1, prime: int = DEFAULT_PRIME) -> "MicroOp":
        return cls(dim, prime, {})

    @classmethod
    def identity(cls, dim: int = 1, prime: int = DEFAULT_PRIME) -> "MicroOp":
        return cls.constant(1, dim, prime)

    @classmethod
    def constant(cls, value, dim: int = 1, prime: int = DEFAULT_PRIME,
                 degree_cap: int = DEFAULT_DEGREE_CAP) -> "MicroOp":
        dim = value.dim if isinstance(value, TateSeries) else dim
        return cls.monomial((0,) * dim, value, dim, prime, degree_cap)

    @classmethod
    def monomial(cls, alpha: Iterable[int], coeff, dim: int | None = None,
                 prime: int = DEFAULT_PRIME,
                 degree_cap: int = DEFAULT_DEGREE_CAP) -> "MicroOp":
        alpha = tuple(alpha)
        d = dim if dim is not None else len(alpha)
        if not isinstance(coeff, (int, Fraction)) or not coeff or len(alpha) != d:
            # a series, a scalar or 0 goes through the checked constructors
            f = coeff if isinstance(coeff, TateSeries) else TateSeries.constant(
                coeff, d, prime, degree_cap)
            return cls.zero(d, f.prime) if f.is_zero else cls(d, f.prime, {alpha: f})
        _check_ring(d, prime, degree_cap)  # a nonzero int or Fraction is one flat sum
        return cls(d, prime, _KernelTerms(d, prime, _scaled(
            ({alpha: 1}, 0, 1, DEFAULT_PRECISION, degree_cap), coeff, prime)))

    @classmethod
    def derivation(cls, axis: int = 1, dim: int = 1,
                   prime: int = DEFAULT_PRIME) -> "MicroOp":
        """D_axis (1-based)."""
        if not 1 <= axis <= dim:
            raise ValueError(f"axis {axis} out of range for dim {dim}")
        alpha = tuple(1 if i == axis - 1 else 0 for i in range(dim))
        return cls.monomial(alpha, 1, dim, prime)

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms.kept[0] and self.tail is None and self.neg_tail is None

    @property
    def is_exact(self) -> bool:
        return self.tail is None and self.neg_tail is None

    @cached_property
    def positive(self) -> bool:
        if self.neg_tail is not None:
            return False
        return all(min(a) >= 0 for a in self.terms.kept[0])

    @cached_property
    def term_table(self) -> tuple[tuple[Exponent, int, int, int], ...]:
        """(alpha, |alpha|, fl(alpha), v(c_alpha)) per stored term, in storage order.

        Every norm, order, polygon and unit query reads these rows, so the
        valuations are computed once, off the kernel sums as W + v(gcd of integers).
        """
        sums, W, *_ = self.terms.kept
        return tuple((a, length(a), floor_sum(a), _valuation(N, W, self.prime))
                     for a, N in sums.items())

    @cached_property
    def _polygon(self):
        """The Newton polygon, built once; read it through
        :func:`microdiff.newton.polygon`, which checks the operator first."""
        from .newton import _build
        return _build(self)

    @cached_property
    def _limit_data(self) -> tuple:
        """(top order q, its rows, the dominant beta's row, beta's ties, c_beta a unit,
        r_min) of a finite operator, computed once for :func:`microdiff.tower.check_unit`."""
        rows, q = self.term_table, self.max_length()
        top = [row for row in rows if row[1] == q]
        beta, _, _, v_beta = dominant = min(top, key=lambda row: (row[3], row[0]))
        ties = [a for a, _, _, v in top if a != beta and v <= v_beta]
        r_min = max([1] + [(v_beta - v) // (q - n) + 1 for _, n, _, v in rows if n < q])
        return q, top, dominant, ties, _unit_at(self, beta), r_min

    def max_length(self) -> int:
        return max(map(length, self.terms.kept[0]), default=0)

    def coefficient(self, alpha: Iterable[int]) -> TateSeries:
        return self.terms.get(tuple(alpha), TateSeries.zero(self.dim, self.prime))

    def terms_equal(self, other: "MicroOp") -> bool:
        return self.dim == other.dim and self.prime == other.prime and self.terms == other.terms

    def __eq__(self, other):
        return (isinstance(other, MicroOp) and self.terms_equal(other)
                and self.tail == other.tail and self.neg_tail == other.neg_tail)

    # -- additive structure ----------------------------------------------

    def _check_compatible(self, other: "MicroOp"):
        if self.dim != other.dim or self.prime != other.prime:
            raise ValueError("mixed dimensions or primes")

    def __add__(self, other: "MicroOp") -> "MicroOp":
        self._check_compatible(other)
        kept = _sum(self.terms.kept, other.terms.kept, self.dim, self.prime)
        return _folded(MicroOp(self.dim, self.prime, _as_terms(self.dim, self.prime, kept)),
                       _min_tail(self.tail, other.tail), _min_tail(self.neg_tail, other.neg_tail))

    def __neg__(self) -> "MicroOp":
        terms = _as_terms(self.dim, self.prime, _scaled(self.terms.kept, -1, self.prime))
        return MicroOp(self.dim, self.prime, terms, self.tail, self.neg_tail)

    def __sub__(self, other: "MicroOp") -> "MicroOp":
        return self + (-other)

    def __mul__(self, other: "MicroOp") -> "MicroOp":
        return _product(self, other, DEFAULT_WINDOW_CAP)

    # -- printing -----------------------------------------------------------

    def __str__(self):
        parts = []
        for a, c in sorted(self.terms.items(), key=lambda t: (floor_sum(t[0]), t[0])):
            ctext, mono = str(c), monomial_text("d", a)
            ctext = f"({ctext})" if "+" in ctext or " " in ctext else ctext
            if mono:
                ctext = mono if ctext == "1" else f"{ctext}*{mono}"
            parts.append(ctext)
        return " + ".join(parts) or "0"

    def __repr__(self):
        tails = "" if self.is_exact else " (truncated)"
        return f"MicroOp({self}{tails})"


def _min_tail(a: TailCertificate | None,
              b: TailCertificate | None) -> TailCertificate | None:
    """Pointwise-min combination of two certificates for a sum.

    Beyond the smaller start one operand may still store terms while the
    other only certifies a bound there, so the sum's coefficients in that
    range are not exactly known; :func:`_fold_beyond` subsequently drops the
    stored terms of that range into the certificate.  Infinite support
    survives only against an operand without a tail in the sector: two
    infinite tails can cancel.
    """
    if a is None and b is None:
        return None
    if a is None or b is None:
        return a if b is None else b
    return TailCertificate(min(a.start, b.start), min(a.t0, b.t0),
                           min(a.t1, b.t1))


def _fold_beyond(sums: dict, cert: TailCertificate | None, positive_sector: bool,
                 W: int, p: int) -> TailCertificate | None:
    """Drop the kernel sums (over ``p^W``) of the certified-discarded range
    into the bound, deleting them from ``sums``.

    A stored value beyond the start is only a partial coefficient (discarded
    mass of the other summand or factor also lands there), so keeping it
    would claim exactness the data cannot support.  Its exact valuation still
    lower-bounds the true coefficient together with the existing bound.
    """
    if cert is None:
        return None
    t0 = cert.t0
    doomed = [a for a in sums
              if (floor_sum(a) >= 0) == positive_sector and length(a) > cert.start]
    for a in doomed:
        t0 = min(t0, _valuation(sums.pop(a), W, p) - cert.t1 * length(a))
    return TailCertificate(cert.start, t0, cert.t1, cert.infinite)


def _folded(S: MicroOp, tail: TailCertificate | None,
            neg_tail: TailCertificate | None = None) -> MicroOp:
    """S with these certificates, its stored terms past each folded into it
    off its kernel sums."""
    if tail is None and neg_tail is None:
        return S
    (sums, W, *rest), p = S.terms.kept, S.prime
    sums = dict(sums)
    tail, neg_tail = _fold_beyond(sums, tail, True, W, p), _fold_beyond(sums, neg_tail, False, W, p)
    return MicroOp(S.dim, p, _KernelTerms(S.dim, p, (sums, W, *rest)), tail, neg_tail)


def _valuation(s, W: int, p: int) -> int:
    """The valuation of a flat or general kernel sum over ``p^W``: W + v(gcd)."""
    return W + int_valuation(s if type(s) is int else math.gcd(*s[0].values()), p)


# -- multiplication ---------------------------------------------------------


def _window_cap_check(terms: Iterable, cap: int | None):
    """Refuse exponents past ``cap``, naming the first and the largest |entry|."""
    if cap is None or not terms:
        return
    needed = max(map(abs, itertools.chain.from_iterable(terms)))
    if needed > cap:
        a = next(a for a in terms if any(abs(e) > cap for e in a))
        raise WindowOverflow(f"product exponent {a} exceeds the window cap {cap}", needed)


def _series_sums(terms: Mapping[Exponent, TateSeries], p: int) -> tuple:
    """Series terms as kernel sums (sums, V, D, n, cap) over p^V / D: V the
    least valuation, D the lcm of the unit denominators, a residue its
    numerator over 1 in (-p^prec/2, p^prec/2].  Flat, {alpha: N}, when every
    coefficient is one exact constant at one precision n and cap; else each
    sum is [{m: N}, {m: precision} or None, cap], n None where precisions
    mix or a residue holds minus its absolute one (see :func:`_add_term`)."""
    scalars = [c for f in terms.values() for c in f.coeffs.values()]
    V = min((c.valuation for c in scalars), default=0)
    D = math.lcm(*{c.unit.denominator for c in scalars})
    precisions = set(map(attrgetter("precision"), scalars))
    exact = all(c.exact for c in scalars)
    n = precisions.pop() if len(precisions) == 1 and exact else None

    def scaled(c):  # c's integer over p^V / D
        u = c.unit
        if not c.exact and 2 * u > p ** c.precision:
            u -= p ** c.precision
        N, k = u.numerator * (D // u.denominator), c.valuation - V
        return N << k if p == 2 else N * p ** k
    flat = n and len(scalars) == len(terms) and not any(any(m) for f in terms.values()
                                                        for m in f.coeffs)
    caps = {f.degree_cap for f in terms.values()} if flat else ()
    if len(caps) == 1:  # one constant per coefficient, one precision, one cap
        return {alpha: scaled(c) for alpha, c in zip(terms, scalars)}, V, D, n, caps.pop()
    return ({alpha: [{m: scaled(c) for m, c in f.coeffs.items()},
                     None if n else {m: c.precision if c.exact else V - c.valuation - c.precision
                                     for m, c in f.coeffs.items()},
                     f.degree_cap] for alpha, f in terms.items()}, V, D, n, None)


def _flat_product(lrows: list, rrows: list, d1: bool) -> dict:
    """The flat pair loop: with nothing to commute, each term pair of flat
    rows adds ``x*y`` into one ``int`` per gamma, in the pair loop's order,
    and a gamma whose sum cancels leaves at once."""
    out: dict = {}
    for alpha, x in lrows:
        for beta, y in rrows:
            g = (alpha[0] + beta[0],) if d1 else tuple(map(add, alpha, beta))
            c = out.get(g)
            c = x * y + c if c else x * y
            if c:
                out[g] = c
            else:
                del out[g]
    return out


# Exponent sums and differences, picked once per product by the dimension:
# written out for d = 1 and 2, where they cost a fraction of tuple(map(...)).
_EXPONENT_OPS = {1: (lambda a, b: (a[0] + b[0],), lambda a, b: (a[0] - b[0],)),
                 2: (lambda a, b: (a[0] + b[0], a[1] + b[1]),
                     lambda a, b: (a[0] - b[0], a[1] - b[1]))}
_ANY_DIM_OPS = (lambda a, b: tuple(map(add, a, b)), lambda a, b: tuple(map(sub, a, b)))


def _commutations(alpha: Exponent, beta: Exponent, g: list, gp: dict | None,
                  table: dict, minus) -> list:
    """(alpha + beta - j, D^j(g), its precisions, its degree, C(alpha, j)) for
    each j of the commutation law D^a g = sum_j C(a, j) D^j(g) D^(a-j), valid
    axis by axis for any integer power a (it stops at j = a for a >= 0 and
    once D^j(g) vanishes), in the order of j: the first field is the target
    exponent of the entry's products.  ``table`` keeps g's derivatives under
    beta, the precisions are None when ``gp`` is, and ``minus`` subtracts
    exponents.  For d = 1, j is one integer and D^j(g) keeps g's top monomial."""
    out, cache = [], table.setdefault(beta, {})
    if len(alpha) == 1:
        (a,), t, ab = alpha, max(m for (m,), _ in g), alpha[0] + beta[0]
        for j in range(t + 1 if a < 0 else min(a, t) + 1):
            if j not in cache:
                cache[j] = ([((m - j,), N * math.perm(m, j)) for (m,), N in g if m >= j],
                            None if gp is None else {(m - j,): gp[(m,)] for (m,), _ in g if m >= j})
            h, hp = cache[j]
            out.append(((ab - j,), h, hp, t - j, int_binomial(a, j)))
        return out
    ab = tuple(map(add, alpha, beta))
    for j in itertools.product(*[range(t + 1 if a < 0 else min(a, t) + 1)
                                 for a, t in zip(alpha, map(max, zip(*[m for m, _ in g])))]):
        if j not in cache:
            g_j = [(m, N) for m, N in g if all(map(ge, m, j))]
            h = [(minus(m, j), N * math.prod(map(math.perm, m, j))) for m, N in g_j]
            hp = None if gp is None else {minus(m, j): gp[m] for m, _ in g_j}
            cache[j] = h, hp, max([sum(m) for m, _ in h], default=-1)
        h, hp, degree = cache[j]
        if degree >= 0:
            out.append((minus(ab, j), h, hp, degree, math.prod(map(int_binomial, alpha, j))))
    return out


def _meet_cap(acc: list, cap: int, degree: int):
    """Lower a sum's cap to the smaller one, refused where a monomial of the
    sum so far or of degree ``degree`` would pass it."""
    acc[2] = low = min(acc[2], cap)
    needed = max([degree, *map(sum, acc[0])])
    if needed > low:
        raise DegreeCapOverflow(needed, low)


def _general_product(lrows: list, rrows: list, n: int | None, p: int, table: dict,
                     dim: int) -> dict:
    """The general pair loop: gamma -> [{monomial: int}, precisions or None,
    cap], the precisions per monomial (see :func:`_add_term`) unless ``n`` is
    the rows' one.  A pair in which either coefficient is one monomial adds
    straight into the sum; any other is formed on its own first, as
    ``TateSeries.__mul__`` does.  ``table`` maps the right rows' beta to {j:
    D^j of its coefficient} and (alpha, beta) to :func:`_commutations`' list."""
    out: dict = {}  # gamma -> [values, precisions or None, cap]
    plus, minus = _EXPONENT_OPS.get(dim, _ANY_DIM_OPS)
    for alpha, fv, fp, fcap, fdeg in lrows:
        for beta, gv, gp, gcap, gdeg in rrows:
            cap = fcap if fcap < gcap else gcap
            if not (gdeg and any(alpha)):
                terms = ((plus(alpha, beta), gv, gp, gdeg, 1),)
            elif (terms := table.get((alpha, beta))) is None:
                terms = table[alpha, beta] = _commutations(alpha, beta, gv, gp, table, minus)
            for gamma, hv, hp, hdeg, b in terms:
                if fdeg + hdeg > cap:
                    raise DegreeCapOverflow(fdeg + hdeg, cap)
                acc = out.get(gamma)
                direct = len(fv) == 1 or len(hv) == 1  # no two of its products meet
                if not direct:  # the pair's product, as TateSeries.__mul__ forms it
                    vals, precs = {}, None if n else {}
                elif acc is None:
                    acc = out[gamma] = [{}, None if n else {}, cap]
                    vals, precs = acc[0], acc[1]
                else:
                    if acc[2] != cap:
                        _meet_cap(acc, cap, fdeg + hdeg)
                    vals, precs = acc[0], acc[1]
                for ma, ca in fv:
                    if b != 1:
                        ca *= b
                    if precs is not None:  # a product with a residue is known to its
                        for mb, cb in hv:  # valuation plus the smaller relative precision
                            x, qa, qb = ca * cb, fp[ma], hp[mb]
                            q = min(qa, qb) if qa > 0 < qb else (
                                -int_valuation(x, p) - min(abs(qa), abs(qb)))
                            _add_term(vals, precs, plus(ma, mb), x, q, p)
                        continue
                    for mb, cb in hv:
                        m = plus(ma, mb)
                        old = vals.get(m)  # stored values are nonzero
                        c = ca * cb + old if old else ca * cb
                        if c:
                            vals[m] = c
                        else:
                            del vals[m]
                if not direct:  # a product of nonzero polynomials is nonzero
                    if acc is None:
                        out[gamma] = [vals, precs, cap]
                        continue
                    if acc[2] != cap:
                        _meet_cap(acc, cap, max(map(sum, vals)))
                    _add_into(acc, vals, precs, n, 1, p)
                if not acc[0]:
                    del out[gamma]
    return out


def _add_term(total: dict, precs: dict, m, x: int, q: int, p: int):
    """Add ``x`` at precision ``q`` into monomial ``m`` of a sum.  Exact
    terms (q > 0, relative) keep the smaller precision, and a monomial they
    cancel leaves.  A residue (q < 0, minus its absolute precision) makes the
    monomial one, known to the least absolute precision of its terms (an
    exact term's is its valuation plus its precision); it stays when its
    sum cancels, as only :func:`_build_terms` can tell if a digit is left."""
    old = total.get(m)
    if old is None:
        total[m], precs[m] = x, q
        return
    qo, c = precs[m], old + x
    if qo > 0 < q:
        if c:
            total[m], precs[m] = c, min(qo, q)
        else:
            del total[m]
        return
    total[m] = c
    precs[m] = -min(-qo if qo < 0 else int_valuation(old, p) + qo,
                    -q if q < 0 else int_valuation(x, p) + q)


def _add_into(acc: list, vals: dict, precs: dict | None, n: int | None, scale: int, p: int):
    """Add ``scale`` times ``vals`` into the sum ``acc`` as ``TateSeries.__add__``
    adds: a monomial that cancels leaves, and per monomial precisions meet
    by :func:`_add_term`, a residue's absolute one raised by the scale's
    valuation."""
    total, aprec = acc[0], acc[1]
    if aprec is not None:
        for m, c in vals.items():
            q = n if precs is None else precs[m]
            _add_term(total, aprec, m, c * scale, q - int_valuation(scale, p) if q < 0 else q, p)
        return
    for m, c in vals.items():
        old = total.get(m)
        c = c * scale + old if old else c * scale
        if c:
            total[m] = c
        else:
            del total[m]


def _kernel_sums(left: tuple, right: tuple, dim: int, p: int, table: dict | None = None) -> tuple:
    """(sums, W, E, n, cap): the integer sums over ``p^W / E`` of the product
    of rows ``left`` and ``right`` (as :func:`_as_rows` gives them), flat at
    precision n and cap ``cap`` when both sides are; otherwise general, at
    the smaller precision n, or per monomial when an operand mixes them or
    holds a residue.  ``table`` is the one the caller keeps for ``right``'s
    rows (a right factor's terms keep theirs); rows rebuilt below get their own."""
    (lrows, lv, ld, ln, lcap), (rrows, rv, rd, rn, rcap) = left, right
    if lcap is not None and rcap is not None:
        sums = _flat_product(lrows, rrows, dim == 1)
        return sums, lv + rv, ld * rd, min(ln, rn), min(lcap, rcap)
    if lcap is not None or rcap is not None:  # flat rows, as general ones
        zero = (0,) * dim
        lrows, rrows = [side if cap is None else [(a, [(zero, N)], None, cap, 0) for a, N in side]
                        for side, cap in ((lrows, lcap), (rrows, rcap))]
    n = None if ln is None or rn is None else min(ln, rn)
    if n is None:  # precisions mix: every row carries one per monomial
        lrows, rrows = [[(a, v, {m: prec for m, _ in v} if vp is None else vp, cap, deg)
                         for a, v, vp, cap, deg in side]
                        for side, prec in ((lrows, ln), (rrows, rn))]
    table = {} if table is None or n is None and rn is not None else table
    return _general_product(lrows, rrows, n, p, table, dim), lv + rv, ld * rd, n, None


def _known(N: int, absolute: int, W: int, p: int) -> tuple:
    """(v(N), the digits known past it) of a residue sum over ``p^W``, known
    modulo ``p^absolute``; refused where every known digit cancels."""
    if N % p ** absolute == 0:
        raise PrecisionExhausted(
            f"sum is 0 modulo p^{W + absolute}; no digit of the result is known")
    v = int_valuation(N, p)
    return v, absolute - v


def _as_rows(kept: tuple, p: int) -> tuple:
    """Kernel sums as the product's rows (rows, W, E, n, cap): flat sums are
    flat rows [(alpha, N)] already; a general sum becomes the row (alpha,
    [(m, N)], {m: precision} or None, cap, degree), a residue's absolute
    precision turned into its relative one, negated."""
    sums, W, E, n, cap = kept
    if cap is not None:
        return list(sums.items()), W, E, n, cap
    return ([(a, list(v.items()), vp if vp is None or min(vp.values()) > 0 else {
        m: q if (q := vp[m]) > 0 else -_known(N, -q, W, p)[1] for m, N in v.items()},
        c, max(map(sum, v))) for a, (v, vp, c) in sums.items()], W, E, n, None)


def _build_terms(dim: int, p: int, kept: tuple) -> dict[Exponent, TateSeries]:
    """The one output builder: each integer sum over ``p^W / E`` becomes an
    exact scalar, its valuation extracted once, at precision n or its own;
    a residue sum becomes a digit-mode scalar, reduced modulo its absolute
    precision."""
    sums, W, E, n, cap = kept

    def scalar(N: int, precision: int):
        if precision < 0:
            v, digits = _known(N, -precision, W, p)
            mod = p ** digits
            return _scalar(p, W + v, N // p ** v * pow(E, -1, mod) % mod, digits, False)
        v = int_valuation(N, p)
        u = N >> v if p == 2 else N // p ** v if v else N
        return _scalar(p, W + v, Fraction(u) if E == 1 else Fraction(u, E), precision, True)
    if cap is not None:
        zero = (0,) * dim
        return {g: _series(dim, p, {zero: scalar(N, n)}, cap, True) for g, N in sums.items()}
    return {g: _series(dim, p, {m: scalar(N, n if aprec is None else aprec[m])
                                for m, N in vals.items()}, gcap, True)
            for g, (vals, aprec, gcap) in sums.items()}


class _KernelTerms(Mapping):
    """Terms as the kernel's sums ``(sums, W, E, n, cap)`` in the sums' order,
    every residue known to a digit (:func:`_as_terms`), or given series kept
    and converted on first use.  One read rule: ``len``, iteration and ``in``
    read ``kept``, and the first value read (``[alpha]``, ``items()``, ``==``)
    builds and keeps every ``TateSeries`` once (threads that race build or
    convert equal ones).  ``table``, made on first use and kept as long as
    the terms, is their rows' commutation table as a right factor: it grows
    by one entry per distinct left alpha and beta, and threads that race
    form equal entries."""

    __slots__ = ("ring", "_kept", "_built", "_table")

    def __init__(self, dim: int, p: int, kept: tuple | None, built: Mapping | None = None):
        self.ring, self._kept, self._built, self._table = (dim, p), kept, built, None

    @property
    def kept(self) -> tuple:
        if (kept := self._kept) is None:
            kept = self._kept = _series_sums(self._built, self.ring[1])
        return kept

    @property
    def table(self) -> dict:
        if (table := self._table) is None:
            table = self._table = {}
        return table

    def _terms(self) -> dict:
        if (built := self._built) is None:
            built = self._built = _build_terms(*self.ring, self.kept)
        return built

    def __getitem__(self, alpha):
        return self._terms()[alpha]

    def items(self):
        return self._terms().items()

    def __contains__(self, alpha):
        return alpha in self.kept[0]

    def __iter__(self):
        return iter(self.kept[0])

    def __len__(self):
        return len(self.kept[0])


def _as_terms(dim: int, p: int, kept: tuple) -> _KernelTerms:
    """Kernel sums as terms, a residue whose known digits all cancel refused here."""
    sums, W, _, n, _ = kept
    for vals, vp, _ in () if n is not None else sums.values():
        for m, N in vals.items():
            if vp[m] < 0:
                _known(N, -vp[m], W, p)
    return _KernelTerms(dim, p, kept)


def _scaled(kept: tuple, q: Fraction | int, p: int) -> tuple:
    """q times kernel sums: q's numerator scales the integers, and its
    valuation the digits a residue is known to; the p-power of q's
    denominator joins W and the rest joins E."""
    sums, W, E, n, cap = kept
    if not q:
        return {}, W, E, n, cap
    N, w = q.numerator, int_valuation(q.denominator, p)
    W, E, k = W - w, E * (q.denominator // p ** w), int_valuation(N, p)
    if cap is not None:
        return {g: N * c for g, c in sums.items()}, W, E, n, cap
    return ({g: [{m: N * c for m, c in v.items()}, vp and {m: x - k if x < 0 else x
                                                          for m, x in vp.items()}, c]
             for g, (v, vp, c) in sums.items()}, W, E, n, None)


def _sum(a: tuple, b: tuple, dim: int, p: int) -> tuple:
    """a + b on kernel sums over ``p^min(W) / lcm(E)``, as ``TateSeries`` add
    term by term: a's terms, then b's new ones, a term that cancels dropped.
    A shared term's monomials take the order of ``set(a's) | set(b's)`` and
    meet precisions by :func:`_add_term`; a residue whose known digits all
    cancel is refused there, then a monomial past the smaller cap.  Flat
    sums at one precision and cap stay flat; other pairs add as general.
    Two general sums over one ``p^W / E`` at one precision whose terms are
    disjoint join as they are, each entry copied."""
    (sa, wa, ea, na, capa), (sb, wb, eb, nb, capb) = a, b
    if capa is None and capb is None and (wa, ea, na) == (wb, eb, nb) and sa.keys().isdisjoint(sb):
        return ({g: [dict(v), None if na else dict(vp), c] for s in (sa, sb)
                 for g, (v, vp, c) in s.items()}, wa, ea, na, None)
    W, E = min(wa, wb), math.lcm(ea, eb)
    ka, kb = p ** (wa - W) * (E // ea), p ** (wb - W) * (E // eb)
    n, zero, out = na if na == nb else None, (0,) * dim, {}
    for sums, k, q, cap in ((sa, ka, na, capa), (sb, kb, nb, capb)):
        for g, s in sums.items():
            vals, precs, gcap = ({zero: s}, None, cap) if cap is not None else s
            if (entry := out.get(g)) is None:
                _add_into(out.setdefault(g, [{}, None if n else {}, gcap]), vals, precs, q, k, p)
                continue
            keys, total, aprec = set(entry[0]) | set(vals), entry[0], entry[1]
            _add_into(entry, vals, precs, q, k, p)
            entry[0] = {m: total[m] for m in keys if m in total}
            for m in entry[0] if aprec else ():
                if aprec[m] < 0:
                    _known(total[m], -aprec[m], W, p)
            if gcap != entry[2]:
                _meet_cap(entry, gcap, max(map(sum, keys)))
            if not entry[0]:
                del out[g]
    if capa is not None and capa == capb and n is not None:  # flat sums stay flat
        return {g: v[zero] for g, (v, _, _) in out.items()}, W, E, n, capa
    return out, W, E, n, None


def _degrees(kept: tuple) -> dict:
    """Each term's coefficient degree, off its kernel sum (flat sums are constants)."""
    return {a: 0 if kept[4] is not None else max(map(sum, s[0])) for a, s in kept[0].items()}


def _unit_at(P: MicroOp, alpha: Exponent) -> bool:
    """``P.terms[alpha].is_unit()``, read off the kernel sums without building:
    the constant's valuation lies strictly below every other monomial's."""
    kept = P.terms.kept
    if kept[4] is not None:  # one constant
        return True
    v = {m: int_valuation(N, P.prime) for m, N in kept[0][alpha][0].items()}
    v0 = v.pop((0,) * P.dim, None)
    return v0 is not None and min(v.values(), default=v0 + 1) > v0


def _product_terms(P: MicroOp, Q: MicroOp) -> tuple[Mapping[Exponent, TateSeries], tuple]:
    """The terms of P*Q (see :func:`_as_terms`) and their sums, by Q's commutation table."""
    sums = _kernel_sums(*(_as_rows(S.terms.kept, S.prime) for S in (P, Q)), P.dim, P.prime,
                        Q.terms.table)
    return _as_terms(P.dim, P.prime, sums), sums


def _product_tail(P: MicroOp, Q: MicroOp) -> TailCertificate | None:
    """Positive-sector certificate for a product of positive operators.

    Bounds the three sources of discarded mass: tail*tail, stored*tail and
    tail*stored.  Leibniz corrections never lower valuations (binomials are
    integers and derivations do not increase the Gauss norm) and never raise
    the output length above the sum of the factor lengths, so each source
    admits a linear bound in the output length.

    The start is the last length that tail mass provably cannot reach: a
    left-tail term of length n lands at length >= n - deg(Q coefficients)
    (differentiation in the commutation eats at most the coefficient degree)
    and a right-tail term of length n lands at length >= n.  Stored product
    terms beyond the start are only partial coefficients and are folded by
    the caller.

    Infinite support survives only multiplication by an exact nonzero
    constant; any other factor may be a unit whose inverse cancels it.
    """
    ta, tb = P.tail, Q.tail
    if ta is None and tb is None:
        return None

    def stored_floor(op: MicroOp, slope: Fraction) -> Fraction:
        return min((v - slope * n for _, n, _, v in op.term_table), default=Fraction(0))

    def is_constant(op: MicroOp) -> bool:
        return op.is_exact and _degrees(op.terms.kept) == {(0,) * op.dim: 0}

    offsets, slopes, reach, infinite = [], [], [], False
    if ta is not None and tb is not None:
        offsets.append(ta.t0 + tb.t0)
    if ta is not None:
        offsets.append(ta.t0 + stored_floor(Q, ta.t1))
        slopes.append(ta.t1)
        reach.append(ta.start + 1 + min(map(length, Q.terms.kept[0]), default=0)
                     - max(_degrees(Q.terms.kept).values(), default=0))
        infinite = infinite or (ta.infinite and is_constant(Q))
    if tb is not None:
        offsets.append(tb.t0 + stored_floor(P, tb.t1))
        slopes.append(tb.t1)
        reach.append(tb.start + 1)
        infinite = infinite or (tb.infinite and is_constant(P))
    start = max(0, min(reach) - 1)
    return TailCertificate(start, min(offsets), min(slopes), infinite)


def _product(P: MicroOp, Q: MicroOp, window_cap: int | None) -> MicroOp:
    """The one product body behind compose, microop.mul and ``*``; mixed-sector
    truncated products have no sound certificate combination and raise."""
    P._check_compatible(Q)
    if not (P.is_exact and Q.is_exact or P.positive and Q.positive):
        raise InsufficientTruncation(
            "tail certificates cannot be combined across mixed sectors")
    terms, sums = _product_terms(P, Q)
    _window_cap_check(sums[0], window_cap)
    return _folded(MicroOp(P.dim, P.prime, terms), _product_tail(P, Q))


def compose(P: MicroOp, Q: MicroOp, window_cap: int | None = DEFAULT_WINDOW_CAP) -> "MicroOp":
    """Product of two positive operators (Laurent products: microop.mul)."""
    if not (P.positive and Q.positive):
        raise ValueError("compose needs positive operators; use microop.mul")
    S = _product(P, Q, window_cap)
    vars(S)["positive"] = True  # a product of positive operators is positive: no scan
    return S


def _geometric_sum(Q: tuple, J: int, one: tuple, p: int, window_cap: int | None,
                   floor: tuple | None = None) -> tuple:
    """1 + Q + ... + Q^J as kernel sums, for Q's rows over ``p^V / D`` and
    the flat rows ``one`` of the 1 (its precision and cap): each power
    window-checked and added as :func:`_sum` adds it, but keeping a residue
    monomial whose known digits cancel (a later power may restore them).
    The powers stay kernel sums, each the next one's left rows, added into
    one accumulator over ``p^min(0, J*V) / D^J``: for flat Q at the 1's cap
    and at least its precision, one ``int`` per gamma; for any other Q,
    through one commutation table of Q's, with no precision per monomial
    when Q's scalars share one no smaller than the 1's (every power then does).
    A ``floor`` drops :func:`_drop_below`'s monomials from each power before it is added."""
    zero, (_, V, D, n, cap) = one[0][0][0], Q
    base, DJ = min(0, J * V), D ** J
    scale = p ** -base * DJ  # the 1 over p^base / D^J
    if cap is not None and cap == one[4] and n >= one[3]:
        acc, items, d1 = {zero: scale}, one[0], len(zero) == 1
        up, down = (p ** V, D) if V >= 0 else (1, D * p ** -V)
        for _ in range(J):
            power = _flat_product(items, Q[0], d1)
            _window_cap_check(power, window_cap)
            scale, items = scale * up // down, list(power.items())
            for gamma, N in items:
                acc[gamma] = c = acc.get(gamma, 0) + N * scale
                if not c:
                    del acc[gamma]
        return (acc, base, DJ, one[3], cap) if acc else ({}, base, DJ, one[3], None)
    left, table, shared = one, {}, n is not None and n >= one[3]
    acc = {zero: [{zero: scale}, None if shared else {zero: one[3]}, one[4]]}
    for _ in range(J):
        sums, W, E, n, flat_cap = _kernel_sums(left, Q, len(zero), p, table)
        _window_cap_check(sums, window_cap)
        if floor:
            sums = _drop_below(sums, W, floor, p)
        scale = p ** (W - base) * (DJ // E)
        for gamma, s in sums.items():
            vals, precs, gcap = ({zero: s}, None, flat_cap) if flat_cap is not None else s
            entry = acc.get(gamma)
            if entry is None:
                entry = acc[gamma] = [{}, None if shared else {}, gcap]
            elif entry[2] != gcap:
                _meet_cap(entry, gcap, max(map(sum, vals)))
            _add_into(entry, vals, precs, n, scale, p)
            if not entry[0]:
                del acc[gamma]
        left = _as_rows((sums, W, E, n, flat_cap), p)
    return _flat((acc, base, DJ, one[3] if shared else None, None), zero)


def _drop_below(sums: dict, W: int, floor: tuple, p: int) -> dict:
    """Exact general sums over ``p^W`` without each N whose level exponent
    weight(fl(gamma)) - (W + v(N)) lies below -bound, ``floor = (weight,
    bound)``; a term that empties leaves, one that loses nothing stays as it is."""
    weight, bound = floor
    base, out = bound + 1 - W, {}
    for gamma, s in sums.items():
        if (e := weight(sum(gamma)) + base) > 0:
            q = p ** e
            for N in s[0].values():
                if not N % q:
                    break
            else:
                out[gamma] = s
                continue
            if kept := {m: N for m, N in s[0].items() if N % q}:
                out[gamma] = [kept, s[1] and {m: s[1][m] for m in kept}, s[2]]
    return out


def _flat(kept: tuple, zero: Exponent) -> tuple:
    """General sums, flat where each is one exact constant at one precision and cap."""
    sums, W, E, n, _ = kept
    if all(len(v) == 1 and zero in v for v, _, _ in sums.values()):
        precs = {n} if n is not None else {vp[zero] for _, vp, _ in sums.values()}
        caps = {c for *_, c in sums.values()}
        if len(precs) == 1 == len(caps) and min(precs) > 0:
            return {a: v[zero] for a, (v, _, _) in sums.items()}, W, E, precs.pop(), caps.pop()
    return kept


# -- level norms and orders ---------------------------------------------------


def _require_positive(P: MicroOp, what: str):
    if not P.positive:
        raise ValueError(f"{what} is defined for positive operators")


def _graded_weight(m: int, k, r=None):
    """Weight of the grading m = fl(alpha): k*m for m >= 0, r*m below.

    ``r=None`` charges k on both sectors.  Every ring level weights its terms
    this way; only (k, r) change with the level.
    """
    return k * m if m >= 0 or r is None else r * m


# each ring level's least k and least r; None where the tag takes no such level
_LEVELS = {"dkq": (0, None), "ek": (1, None), "fkr": (1, 1), "fir": (None, 1),
           "finf": (None, None), "dinf": (None, None)}


def _check_level(tag: str, k=None, r=None):
    """Refuse, with ValueError, a level the table does not hold: an unknown tag,
    a stray, missing or non-int field, one below its least value, k < r at fkr."""
    if tag not in _LEVELS:
        raise ValueError(f"unknown ring level {tag!r}")
    _check_field(tag, "k", k, _LEVELS[tag][0])
    _check_field(tag, "r", r, _LEVELS[tag][1])
    if tag == "fkr" and k < r:
        raise ValueError(f"fkr needs k >= r, got k={k}, r={r}")


def _check_field(tag: str, name: str, value, least):
    if least is None:
        if value is not None:
            raise ValueError(f"{tag} takes no {name}, got {name}={value!r}")
    elif not isinstance(value, int):
        raise ValueError(f"{tag} needs {name}" if value is None
                         else f"levels must be integers, got {name}={value!r}")
    elif value < least:
        raise ValueError(f"{tag} needs {name} >= {least}, got {name}={value}")


def _require_terms(P: MicroOp):
    """The exact zero operator has no maximum, polygon or order; an operator
    storing nothing but a tail has none the data can pin, and is refused."""
    if not P.term_table:
        if P.is_exact:
            raise ZeroOperator("zero operator")
        raise InsufficientTruncation(
            "no stored terms: the tail alone pins nothing; increase the truncation")


def _stored_max(P: MicroOp, k, r=None, shift: int = 0, scale: int = 1, sup=None) -> tuple:
    """Max of w(fl(alpha) - shift) - scale * v(c_alpha) over the stored terms,
    the integer weight w(m) being k*m, or r*m for m < 0 when r is given.

    Returns the max and the term-table rows reaching it; each row is weighed
    inline.  With ``sup``, a certified sup of the exponent over the discarded
    terms, the stored max must lie strictly above it or the query is
    refused.  A ``scale`` b keeps a rational weight a/b in integers: k = a
    gives b times the exponent's max, and ``sup`` is compared at that scale.
    """
    _require_terms(P)
    best = top = None
    for row in P.term_table:
        m = row[2] - shift
        e = (k * m if m >= 0 or r is None else r * m) - scale * row[3]
        if best is None or e > best:
            best, top = e, [row]
        elif e == best:
            top.append(row)
    if sup is not None and sup * scale >= best:
        raise InsufficientTruncation(
            f"tail bound p^{sup} reaches the stored max p^{Fraction(best, scale)}; "
            "increase the truncation")
    return best, top


def tail_sup_exponent(P: MicroOp, k, r=None, beta: int = 0) -> Fraction | None:
    """Certified sup over discarded terms of weight(fl(alpha) - beta) - v(c_alpha).

    The weight is :func:`_graded_weight` at (k, r); ``beta`` is the grading
    of the exponent a unit test recentres at.  At length n a sector's top
    grading is n (fl >= 0), -n (fl < 0 and d = 1) or at most -1 (fl < 0 and
    d >= 2).  Against the linear certificate the exponent is then convex in
    n, so its sup over n > start is the value at start + 1 when its last
    slope is <= 0 and +infinity otherwise, which raises.  None when the
    operator is exact.
    """
    if P.tail is None and P.neg_tail is None:
        return None
    sups = []
    for cert, positive_sector in ((P.tail, True), (P.neg_tail, False)):
        if cert is None:
            continue
        n = cert.start + 1
        if positive_sector:
            top, rise = n, k
        elif P.dim == 1:
            top, rise = -n, -(k if r is None else r)
        else:
            top, rise = -1, 0
        if rise > cert.t1:
            raise InsufficientTruncation(
                f"tail slope {cert.t1} does not dominate the weight slope {rise}")
        sups.append(_graded_weight(top - beta, k, r) - cert.bound_at(n))
    return max(sups)


def _level_max(P: MicroOp, k, r=None) -> tuple:
    """Certified (max, rows reaching it) of the (k, r)-weighted exponents."""
    return _stored_max(P, k, r, sup=tail_sup_exponent(P, k, r))


def _level_exponent(P: MicroOp, k, r=None):
    """Certified exponent e of the (k, r)-weighted max norm p**e; None for 0."""
    try:
        return _level_max(P, k, r)[0]
    except ZeroOperator:
        return None


def _power(P: MicroOp, e: int | None) -> Fraction:
    """The norm value p**e for an exponent from :func:`_level_exponent`."""
    if e is None:
        return Fraction(0)
    return Fraction(P.prime ** e) if e >= 0 else Fraction(1, P.prime ** -e)


def norm_k(P: MicroOp, k: int) -> Fraction:
    """Level-k norm of a positive operator, as an exact power of p.

    Returns 0 for the zero operator and raises InsufficientTruncation when
    the tail certificate cannot pin the max.
    """
    _check_level("dkq", k)
    _require_positive(P, "norm_k")
    return _power(P, _level_exponent(P, k))


def order_Nk(P: MicroOp, k: int) -> int:
    """Largest |alpha| whose coefficient achieves the level-k norm."""
    _check_level("dkq", k)
    _require_positive(P, "order_Nk")
    return max(n for _, n, _, _ in _level_max(P, k)[1])


def order_nk(P: MicroOp, k: int) -> int:
    """Smallest |alpha| whose coefficient achieves the level-k norm."""
    _check_level("dkq", k)
    _require_positive(P, "order_nk")
    return min(n for _, n, _, _ in _level_max(P, k)[1])


def _mu_max(P: MicroOp, mu: Fraction) -> tuple:
    """Certified (b * max, rows reaching it) of mu*n - v at mu = a/b: the
    max of a*n - b*v over the stored terms, in integers."""
    a, b = mu.numerator, mu.denominator
    if a < 0:
        raise ValueError("weight must be >= 0")
    return _stored_max(P, a, scale=b, sup=tail_sup_exponent(P, mu))


def norm_mu(P: MicroOp, mu: Fraction | int) -> Fraction:
    """Exponent e with |P|_mu = p**e for a rational weight mu >= 0.

    Reported as an exponent because rational weights produce fractional
    powers of p.  Coincides with the level norm at integer mu.
    """
    _require_positive(P, "norm_mu")
    mu = mu if type(mu) in (int, Fraction) else Fraction(mu)
    e, b = _mu_max(P, mu)[0], mu.denominator
    return Fraction(e) if b == 1 else Fraction(e, b)  # Fraction(e) takes no gcd


def order_Nmu(P: MicroOp, mu: Fraction | int) -> int:
    _require_positive(P, "order_Nmu")
    return max(n for _, n, _, _ in _mu_max(P, Fraction(mu))[1])


def order_nmu(P: MicroOp, mu: Fraction | int) -> int:
    _require_positive(P, "order_nmu")
    return min(n for _, n, _, _ in _mu_max(P, Fraction(mu))[1])


def _defect_exponent(P: MicroOp, Q: MicroOp, k: int):
    """Exponent of :func:`quasi_abelian_defect`; None when P and Q commute."""
    _check_level("ek", k)  # the bound p**-k holds from k = 1
    _require_positive(P, "quasi_abelian_defect")
    _require_positive(Q, "quasi_abelian_defect")
    ep, eq = _level_exponent(P, k), _level_exponent(Q, k)
    if ep is None or eq is None:
        raise DivisionByZero("defect against the zero operator")
    e = _level_exponent(compose(P, Q) - compose(Q, P), k)
    return None if e is None else e - ep - eq


def quasi_abelian_defect(P: MicroOp, Q: MicroOp, k: int) -> Fraction:
    """|PQ - QP|_k / (|P|_k |Q|_k); always <= p**-k for k >= 1."""
    return _power(P, _defect_exponent(P, Q, k))


def is_finite(P: MicroOp) -> bool:
    """True when nothing was discarded: the stored support is the operator."""
    return P.is_exact


def finite_order(P: MicroOp) -> int:
    if not is_finite(P):
        raise ValueError("finite_order needs an exact operator")
    if not P.terms.kept[0]:
        raise ZeroOperator("zero operator has no order")
    return P.max_length()
