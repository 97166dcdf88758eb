"""Exact truncated formal power series over the rationals.

A :class:`Series` stores the coefficients ``c0..cN`` of a power series known
modulo ``t**(N+1)``.  The coefficient field is `fractions.Fraction`, so no
rounding ever occurs.  Every operation is closed at the common truncation
order: combining series of different orders raises
:class:`OrderMismatchError` instead of silently re-truncating.  Instances are
immutable and hashable, hence safe to share across threads and to use as
cache keys.

Exponential-generating-function (EGF) coefficients ``a_n = n! * c_n`` are
read with :meth:`Series.egf` / :func:`coeff_egf`.

:meth:`Series.log1p` is every degenerate logarithm in the package:
``f.log1p(lam)`` = ((1 + f)**lam - 1) / lam, and log(1 + f) at lam = 0.

Storage is a tuple of ``Fraction``, but the inner loops of multiplication,
division, ``exp``, ``log1p``, ``pow``, ``compose`` and ``revert`` run on
Python ``int`` numerators over a common denominator (:func:`_scaled`), so
each result coefficient is normalised by one ``Fraction(num, den)``
instead of one gcd per product and sum.  The recurrences (division, the
transcendental operations, reversion) keep the coefficients found so far
over the lcm of their denominators, widened as it grows, rather than over
a power of the input's denominator, which would grow much faster.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, update_wrapper
from inspect import signature
from itertools import repeat
from math import factorial, gcd, lcm
from operator import add, index, mul
from typing import Iterable, Union

__all__ = [
    "OrderMismatchError",
    "Series",
    "as_delta",
    "cache_stats",
    "clear_caches",
    "coeff_egf",
    "lagrange_extract",
    "memo",
]

Scalar = Union[Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Bound of every memo cache in the package.
CACHE_BOUND = 4096


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


def _rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational (int or Fraction), got {value!r}")


def _same(value):
    return value


# annotation -> (the type a memo key keeps as it is, the normaliser of any
# other value).  Annotations are read as strings: every module of the package
# postpones their evaluation (from __future__ import annotations).
_KEY_RULES = {"Scalar": (Fraction, _rat), "Fraction": (Fraction, _rat), "int": (int, index)}
_PASS = (object, _same)

_CACHES = {}


def memo(fn):
    """Memoise `fn` in a least-recently-used cache of `CACHE_BOUND` entries.

    Each positional argument is normalised by its annotation before the
    lookup, and `fn` receives the normalised values: `Scalar` and `Fraction`
    through `_rat`, so a float raises TypeError and 0 shares an entry with
    Fraction(0); `int` through `operator.index`, so an integral Fraction
    raises TypeError; anything else unchanged.  A call's result or exception
    therefore never depends on what is cached.  Keyword calls are bound
    through the signature.  The cache is registered under
    ``module.qualname`` for `cache_stats` and `clear_caches`.
    """
    sig = signature(fn)
    params = sig.parameters.values()
    if any(p.kind not in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params):
        raise TypeError(f"memo keys positional parameters only: {fn.__qualname__}")
    kept = tuple(_KEY_RULES.get(p.annotation, _PASS)[0] for p in params)
    rules = tuple(_KEY_RULES.get(p.annotation, _PASS)[1] for p in params)
    arity = len(rules)
    cached = lru_cache(maxsize=CACHE_BOUND)(fn)
    _CACHES[f"{fn.__module__}.{fn.__qualname__}"] = cached

    def wrapper(*args, **kwargs):
        if kwargs or len(args) != arity:
            args = sig.bind(*args, **kwargs).args
        if all(map(isinstance, args, kept)):
            return cached(*args)
        return cached(*[rule(a) for rule, a in zip(rules, args)])

    return update_wrapper(wrapper, fn)


def cache_stats() -> dict:
    """Hits, misses, bound and size of every memo cache, by ``module.qualname``."""
    return {name: cache.cache_info() for name, cache in _CACHES.items()}


def clear_caches() -> None:
    """Empty every memo cache."""
    for cache in _CACHES.values():
        cache.cache_clear()


def _scaled(coeffs) -> tuple:
    """Integer numerators over one common denominator: coeffs[i] = ints[i] / d.

    d is the lcm of the denominators, the smallest denominator that works.
    """
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def _widen(nums: list, den: int, other: int) -> int:
    """Rescale the integer numerators `nums` over `den`, in place, to a
    denominator that `other` divides: `den` itself if possible, else the lcm
    of the two.  Returns the denominator now in use.
    """
    if den % other:
        wider = lcm(den, other)
        scale = wider // den
        nums[:] = [x * scale for x in nums]
        den = wider
    return den


def _push(nums: list, den: int, value: Fraction) -> int:
    """Append `value` to the integer numerators `nums` over `den`; returns
    the denominator now in use."""
    den = _widen(nums, den, value.denominator)
    nums.append(value.numerator * (den // value.denominator))
    return den


def _ode_solve(f: list, y0: Fraction, alpha: int, beta: int, gamma: int,
               r: list = None) -> list:
    """y_0..y_N with y_0 given and, for n >= 1,

        n gamma y_n = n r_n + sum_{m=1..n} (alpha m - beta n) f_m y_{n-m},

    for integer f and r (r = 0 when omitted).  The prefix y_0..y_{n-1} is
    kept as integer numerators over one denominator, so each y_n costs at
    most two integer dot products and one normalisation.
    """
    n_max = len(f) - 1
    mf = [m * c for m, c in enumerate(f)]
    rf, rmf = f[:0:-1], mf[:0:-1]  # f_N..f_1, so rf[N - n:] starts at f_n
    out = [y0]
    nums, den = [y0.numerator], y0.denominator
    for n in range(1, n_max + 1):
        # sum_{m=1..n} f_m y_{n-m} pairs nums[0..n-1] with f_n..f_1
        acc = alpha * sum(map(mul, nums, rmf[n_max - n:])) if alpha else 0
        if beta:
            acc -= beta * n * sum(map(mul, nums, rf[n_max - n:]))
        if r is not None:
            acc += n * r[n] * den
        y = Fraction(acc, n * gamma * den)
        out.append(y)
        den = _push(nums, den, y)
    return out


class Series:
    """Power series truncated at a fixed order, with exact coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(_rat(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = cs

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([_ZERO] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([_ONE] + [_ZERO] * order)

    @classmethod
    def t(cls, order: int) -> "Series":
        """The series of the formal variable itself (zero when order = 0)."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order == 0:
            return cls([_ZERO])
        return cls([_ZERO, _ONE] + [_ZERO] * (order - 1))

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Series":
        return cls([_rat(value)] + [_ZERO] * order)

    @classmethod
    def from_egf(cls, egf_values: Iterable[Scalar]) -> "Series":
        """Build a series from EGF coefficients a_n, i.e. c_n = a_n / n!."""
        return cls(
            _rat(a) / factorial(n) for n, a in enumerate(egf_values)
        )

    # -- basic accessors ------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        """Raw coefficient c_n."""
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} out of range 0..{self.order}")
        return self._coeffs[n]

    def egf(self, n: int) -> Fraction:
        """EGF coefficient a_n = n! * c_n."""
        return self.coeff(n) * factorial(n)

    def _check_order(self, other: "Series") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series(a + b for a, b in zip(self._coeffs, other._coeffs))

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series(a - b for a, b in zip(self._coeffs, other._coeffs))

    def __neg__(self):
        return Series(-c for c in self._coeffs)

    def scale(self, value: Scalar) -> "Series":
        v = _rat(value)
        return Series(v * c for c in self._coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        n = self.order
        a, da = _scaled(self._coeffs)
        b, db = _scaled(other._coeffs)
        rb = b[::-1]
        den = da * db
        # out[m] = sum_i a[i] b[m - i]; rb[n - m:] runs b[m], b[m-1], ..., b[0]
        return Series(
            Fraction(sum(map(mul, a[: m + 1], rb[n - m:])), den) for m in range(n + 1)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(_ONE / _rat(other))
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        if other._coeffs[0] == 0:
            raise ValueError("division by a series with zero constant term")
        a, da = _scaled(self._coeffs)
        b, db = _scaled(other._coeffs)
        # b_0 q_n = a_n - sum_{m=1..n} b_m q_{n-m}, times n da db
        q0 = Fraction(a[0] * db, da * b[0])
        return Series(_ode_solve(b, q0, 0, da, da * b[0], [db * x for x in a]))

    # -- structural operations ------------------------------------------------

    def truncate(self, order: int) -> "Series":
        """Forget coefficients above `order` (deliberate precision drop)."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {order}")
        return Series(self._coeffs[: order + 1])

    def shift_down(self, k: int = 1) -> "Series":
        """Divide by t**k; the first k coefficients must vanish.

        The result is known only to order N - k.
        """
        if k < 0 or k > self.order:
            raise ValueError("shift amount out of range")
        if any(self._coeffs[i] for i in range(k)):
            raise ValueError("cannot divide by t**%d: low-order coefficients nonzero" % k)
        return Series(self._coeffs[k:])

    def diff(self) -> "Series":
        """Formal derivative, known to order N - 1."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 series")
        return Series(i * self._coeffs[i] for i in range(1, self.order + 1))

    def compose(self, inner: "Series") -> "Series":
        """Substitute `inner` (which must have zero constant term) into self.

        Sums f_k * g**k over ascending powers of g = `inner`.  g is scaled
        once to integers G over one denominator, and g**k is kept as integer
        numerators over one gcd-reduced denominator: one integer convolution
        of g**(k-1) with G, which starts at t**(k*v), v the valuation of g.
        That costs O(N**3) integer products, about a third of Horner's rule;
        powers with k*v > N vanish and are never formed.  The sum is widened
        as the power denominators grow, and each result coefficient is one
        ``Fraction``.  No ``Series`` is built on the way and ``__mul__`` is
        never called: this power loop is deliberately its own, shared with
        neither :meth:`revert` nor ``special.triangle_from_base``, because
        those routes check each other.  Its one caller is the round trip
        compose(f, revert(f)) = t in `prob.bundle`, the check on `revert`.
        """
        self._check_order(inner)
        if inner._coeffs[0] != 0:
            raise ValueError("composition requires an inner series with zero constant term")
        n = self.order
        f, df = _scaled(self._coeffs)
        g, dg = _scaled(inner._coeffs)
        rg = g[::-1]  # g_N..g_0, so rg[n - m] = g_m
        # valuation of g; n + 1 for g = 0 leaves only the constant term
        val = next((i for i, c in enumerate(g) if c), n + 1)
        # sum_k f_k g**k as integer numerators over one denominator
        acc, acc_den = [0] * (n + 1), 1
        # g**k = power[m] / den, zero below t**(k * val)
        power, den = [1] + [0] * n, 1
        for k in range(1, n // val + 1):
            lo, start = (k - 1) * val, k * val
            # [t^m] g**k = sum_{i=lo..m-val} power[i] g_{m-i}
            power = [0] * start + [
                sum(map(mul, power[lo:m - val + 1], rg[n - m + lo:n - val + 1]))
                for m in range(start, n + 1)
            ]
            den *= dg
            common = gcd(den, *power)
            if common > 1:
                power = [x // common for x in power]
                den //= common
            if f[k]:
                acc_den = _widen(acc, acc_den, den)
                fk = f[k] * (acc_den // den)
                for m in range(start, n + 1):
                    acc[m] += fk * power[m]
        acc[0] = f[0] * acc_den
        return Series(Fraction(x, df * acc_den) for x in acc)

    def revert(self) -> "Series":
        """Compositional inverse of a delta series.

        Solves compose(self, h) = t one coefficient at a time.  With
        pw[k][n] = [t**n] h**k, the coefficient of t**n (n >= 2) in f(h) is
        f_1 h_n + sum_{k=2..n} f_k pw[k][n] = 0, and for k >= 2

            pw[k][n] = sum_{i=1..n-k+1} h_i pw[k-1][n-i]

        needs only h_1..h_{n-1}.  Filling the table one column n at a time
        therefore gives h_n = -(sum_{k=2..n} f_k pw[k][n]) / f_1 in O(N**3)
        coefficient products.

        Those products are integer ones.  Each column n of the table is held
        as integer numerators over one denominator, the lcm of the
        denominators its terms h_i pw[k-1][n-i] can have, and h_n is
        normalised once.  A column denominator grows like the coefficients'
        own; one denominator for the whole table would grow like its n-th
        power.

        This route must stay independent of :meth:`compose`, ``__mul__`` and
        :func:`lagrange_extract`: the round trip compose(f, h) = t and the
        Lagrange formulas are the checks on it, and would stop checking
        anything if they shared its code.
        """
        as_delta(self)
        n_max = self.order
        f, d = _scaled(self._coeffs)
        rf = f[:1:-1]  # f_N..f_2
        h = [_ZERO, Fraction(d, f[1])]
        # cols[m] holds pw[m][m], ..., pw[1][m] as numerators over den[m]:
        # k descending, so that pw[1][m] = h_m goes on last
        cols = [None, [h[1].numerator]]
        den = [1, h[1].denominator]
        for n in range(2, n_max + 1):
            # h_i pw[k-1][n-i] lies over h_i.denominator * den[n-i]
            col = lcm(*(h[i].denominator * den[n - i] for i in range(1, n)))
            # s = pw[n][n], ..., pw[2][n]; h_i times column n - i adds to
            # pw[n-i+1][n], ..., pw[2][n], the last n - i entries of s
            s = [0] * (n - 1)
            for i in range(1, n):
                w = h[i].numerator * (col // (h[i].denominator * den[n - i]))
                s[i - 1:] = map(add, s[i - 1:], map(mul, repeat(w), cols[n - i]))
            # f_1 h_n = -sum_{k>=2} f_k pw[k][n], and with f = F/d the d cancels
            h.append(Fraction(-sum(map(mul, rf[n_max - n:], s)), f[1] * col))
            den.append(_push(s, col, h[n]))
            cols.append(s)
        return Series(h)

    # -- transcendental operations --------------------------------------------

    def exp(self) -> "Series":
        """exp(f) for a series with zero constant term."""
        f = self._coeffs
        if f[0] != 0:
            raise ValueError("exp requires zero constant term")
        f, d = _scaled(f)
        # n e_n = sum_m m f_m e_{n-m}, and f = F/d
        return Series(_ode_solve(f, _ONE, 1, 0, d))

    def log1p(self, lam: Scalar = 0) -> "Series":
        """log_lam(1 + f) = ((1 + f)**lam - 1) / lam for a series f with zero
        constant term and rational lam; log(1 + f) at lam = 0."""
        lam = _rat(lam)
        f = self._coeffs
        if f[0] != 0:
            raise ValueError("log1p requires zero constant term")
        f, d = _scaled(f)
        # (1 + f) y' = (1 + lam y) f' gives, for every lam with no case at 0,
        # n y_n = n f_n + sum_{m=1..n} ((lam + 1) m - n) f_m y_{n-m}; times
        # q d, with lam = p/q and f = F/d, every coefficient is an integer
        p, q = lam.numerator, lam.denominator
        return Series(_ode_solve(f, _ZERO, p + q, q, q * d, [q * x for x in f]))

    def pow(self, gamma: Scalar) -> "Series":
        """f**gamma for rational gamma.

        Any integer gamma works whenever it keeps the result a power series
        (nonnegative for zero constant term, arbitrary otherwise).  A
        non-integer gamma requires constant term 1, since c0**gamma would be
        irrational in general.
        """
        g = _rat(gamma)
        f = self._coeffs
        if f[0] == 0:
            if g.denominator != 1 or g < 0:
                raise ValueError(
                    "a series with zero constant term only admits nonnegative integer powers"
                )
            return self._int_pow_delta(int(g))
        if g.denominator != 1 and f[0] != 1:
            raise ValueError(
                "non-integer power requires constant term 1 (result would be irrational)"
            )
        p0 = f[0] ** g if g.denominator == 1 else _ONE
        # y = f**gamma solves n f_0 y_n = sum_m (gamma m - (n - m)) f_m y_{n-m}
        # from y_0 = p0; times q d, with gamma = p/q and f = F/d, every
        # coefficient of that recurrence is an integer.
        big_f, _ = _scaled(f)
        p, q = g.numerator, g.denominator
        return Series(_ode_solve(big_f, p0, p + q, q, q * big_f[0]))

    __pow__ = pow

    def _int_pow_delta(self, g: int) -> "Series":
        n_max = self.order
        if g == 0:
            return Series.one(n_max)
        val = next((i for i, c in enumerate(self._coeffs) if c), None)
        if val is None or val * g > n_max:
            return Series.zero(n_max)
        unit = self.shift_down(val)
        powered = unit.pow(g).truncate(n_max - val * g)
        return Series(([_ZERO] * (val * g)) + list(powered._coeffs))

    # -- dunder plumbing --------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Series) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self._coeffs[:5])
        if self.order >= 5:
            shown += ", ..."
        return f"Series([{shown}], order={self.order})"


def as_delta(f: Series) -> Series:
    """Validate that f is a delta series (c0 = 0, c1 != 0) and return it."""
    if f.order < 1:
        raise ValueError("expected a delta series: order must be >= 1")
    if f.coeffs[0] != 0:
        raise ValueError("expected a delta series: constant term must vanish")
    if f.coeffs[1] == 0:
        raise ValueError("expected a delta series: linear coefficient must be nonzero")
    return f


def coeff_egf(f: Series, n: int) -> Fraction:
    """EGF coefficient a_n = n! * c_n of f."""
    return f.egf(n)


def lagrange_extract(g, f: Series, n: int, k=None, formula: str = "C") -> Fraction:
    """Coefficient extraction for the compositional inverse of f, without reverting.

    With fbar the compositional inverse of the delta series f, the three
    variants compute

        "A":  [t^n] g(fbar(t))   = (1/n) [t^(n-1)] g'(t) (t/f(t))^n
        "B":  [t^n] (fbar(t))^k  = (k/n) [t^(n-k)] (t/f(t))^n
        "C":  [t^n] fbar(t)      = (1/n) [t^(n-1)] (t/f(t))^n

    evaluated from the right-hand sides only (derivative, reciprocal and
    powers of t/f(t)); ``Series.revert`` is never called, which makes this
    the independent oracle for it.
    """
    as_delta(f)
    if n > f.order:
        raise ValueError(f"requested coefficient {n} exceeds series order {f.order}")
    if formula == "A":
        if g is None:
            raise ValueError("formula A needs the outer series g")
        if n < 0:
            raise ValueError("formula A requires n >= 0")
        if n == 0:
            return g.coeff(0)
        f._check_order(g)
        t_over_f = Series.one(f.order - 1) / f.shift_down(1)
        prod = g.diff() * t_over_f.pow(n)
        return prod.coeff(n - 1) / n
    if formula == "B":
        if k is None or k < 1:
            raise ValueError("formula B requires a positive integer k")
        if n < k:
            raise ValueError("formula B requires n >= k")
        t_over_f = Series.one(f.order - 1) / f.shift_down(1)
        return Fraction(k, n) * t_over_f.pow(n).coeff(n - k)
    if formula == "C":
        if n < 1:
            raise ValueError("formula C requires n >= 1")
        t_over_f = Series.one(f.order - 1) / f.shift_down(1)
        return t_over_f.pow(n).coeff(n - 1) / n
    raise ValueError(f"unknown extraction formula {formula!r}")
