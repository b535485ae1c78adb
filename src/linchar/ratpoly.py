"""Exact univariate polynomials over Q and the shift-operator calculus.

A `RatPoly` is the named tuple ``(nums, den)`` of integer numerators over
one positive common denominator: ``nums[j] / den`` multiplies ``t**j``,
stored ascending, in canonical form (gcd(den, *nums) = 1, top numerator
nonzero; the zero polynomial is ``nums == ()`` over ``den == 1``).  Every
routine computes on these integers and returns through `RatPoly.over`, the
normalising constructor; ``RatPoly(coeffs, den=1)``, which takes ints or
Fractions, ends there too, and so do `_replace`, pickle and copy.
``coeffs`` is the `fractions.Fraction` view for callers.  Floating point
never enters here.  A shift operator f(S) is a `RatPoly` read in S:
``coeffs[i]`` multiplies S**i, where (S g)(t) = g(t - 1), and
`shift_constituents` is the one kernel that applies it.  Root location,
exact and numeric, lives in `linchar.verify`; this module imports nothing
from the rest of linchar.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import islice, zip_longest
from operator import add, mul


def _exact(x: int | Fraction) -> int | Fraction:
    """x itself, an exact scalar whose ``numerator`` and ``denominator`` the
    integer routines read; anything else, a float included, is refused."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"exact scalar expected (int or Fraction), got {type(x).__name__}")


class RatPoly(namedtuple("RatPoly", "nums den")):
    """Dense polynomial over Q in one variable (conventionally t), stored as
    ``nums`` over ``den`` in canonical form (see the module docstring).

    ``RatPoly(coeffs, den=1)`` has coefficients ``coeffs[j] / den``, with
    each ``coeffs[j]`` an int or a Fraction and ``den`` a nonzero int."""

    __slots__ = ()
    __mul__ = __rmul__ = None  # a polynomial times an int is no repeated tuple

    def __new__(cls, coeffs: Iterable[int | Fraction] = (), den: int = 1):
        cs = [_exact(c) for c in coeffs]
        lcm = math.lcm(*(c.denominator for c in cs))
        return cls.over([c.numerator * (lcm // c.denominator) for c in cs], lcm * den)

    @classmethod
    def _make(cls, fields):
        # what `_replace` builds with: canonical form for the new fields too
        return cls(*fields)

    # -- constructors ------------------------------------------------------

    @classmethod
    def over(cls, nums: Iterable[int], den: int = 1) -> "RatPoly":
        """The polynomial with coefficients nums[j] / den, in canonical form."""
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        if not den:
            raise ZeroDivisionError("polynomial with denominator 0")
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        return tuple.__new__(cls, (tuple(nums), den))

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Ascending coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        pairs = zip_longest(self.nums, other.nums, fillvalue=0)
        return RatPoly.over([x * other.den + y * self.den for x, y in pairs], self.den * other.den)

    def scale(self, s: int | Fraction) -> "RatPoly":
        s = _exact(s)
        return RatPoly.over([x * s.numerator for x in self.nums], self.den * s.denominator)

    # -- evaluation and substitution ----------------------------------------

    def scaled_value(self, x: int) -> int:
        """den * p(x) at an integer x: Horner over the numerators, in Z."""
        v = 0
        for c in reversed(self.nums):
            v = v * x + c
        return v

    def compose_affine(self, a: int | Fraction, b: int | Fraction) -> "RatPoly":
        """Exact substitution t -> a*t + b, as one integer Taylor shift.

        With a = an/ad and b = bn/bd, a*t + b = (A*t + B)/c for A = an*bd,
        B = bn*ad and c = ad*bd, so the result is
        sum_k nums_k * c^(n-k) * (A*t + B)^k over den * c^n: scale
        coefficient k by c^(n-k), shift by B in place (n passes of
        ``nums[j] += B * nums[j+1]``, j descending), then scale coefficient
        k by A^k.  No `Fraction` is built.
        """
        a, b = _exact(a), _exact(b)
        if self.is_zero:
            return self
        A, B = a.numerator * b.denominator, b.numerator * a.denominator
        c = a.denominator * b.denominator
        nums = list(self.nums)
        n = len(nums) - 1
        power = 1
        for k in range(n - 1, -1, -1):
            power *= c
            nums[k] *= power
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                nums[j] += B * nums[j + 1]
        power = 1
        for k in range(1, n + 1):
            power *= A
            nums[k] *= power
        return RatPoly.over(nums, self.den * c**n)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """Canonical JSON form: {"coeffs": [["num","den"], ...]} in lowest terms, ascending."""
        den = self.den
        pairs = ((x, math.gcd(x, den)) for x in self.nums)
        return {"coeffs": [[str(x // g), str(den // g)] for x, g in pairs]}

    def pretty(self, var: str = "t") -> str:
        terms = []
        for j, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                pw = var if j == 1 else f"{var}^{j}"
                body = pw if mag == 1 else f"{mag}*{pw}"
            if not terms:
                terms.append(f"-{body}" if c < 0 else body)
            else:
                terms.append(f"{'-' if c < 0 else '+'} {body}")
        return " ".join(terms) or "0"


# -- shift-operator action ----------------------------------------------------


def _layers(nums: tuple[tuple[int, ...], ...]) -> tuple:
    """The columns (coefficients of t^k) of a table split by least period
    into layers (period, columns, rows), in the order of their first column,
    found from the data alone.

    Column k, with a short row read as 0, has period p when its entries
    repeat every p rows; the least such p divides the table period.  In an
    Ehrhart quasi-polynomial the period of t^k shrinks as k grows (McMullen,
    Arch. Math. 31, 1978), so the high powers of t land in small layers.
    ``rows[r]`` lists the terms (q, k - q, C(k, q) * nums[r][k]) of row
    r = 0..period-1, for each column k of the layer with nums[r][k] != 0 and
    each q = 0..k; equal rows share one tuple.
    """
    period = len(nums)
    cols = list(zip_longest(*nums, fillvalue=0))
    divisors = [p for p in range(1, period) if period % p == 0]
    by_period: dict[int, list[int]] = {}
    for k, col in enumerate(cols):
        for p in divisors:
            if col[p] == col[0] and col[p:] == col[: period - p]:
                break
        else:
            p = period
        by_period.setdefault(p, []).append(k)
    layers = []
    for p, ks in by_period.items():
        values = list(islice(zip(*map(cols.__getitem__, ks)), p))
        terms = dict.fromkeys(values)  # equal rows share one tuple of terms
        for row in terms:
            row_terms = []
            for k, x in zip(ks, row):
                if x:
                    w = x  # C(k, q) * x, carried along q exactly
                    for q in range(k + 1):
                        row_terms.append((q, k - q, w))
                        w = w * (k - q) // (q + 1)
            terms[row] = tuple(row_terms)
        layers.append((p, tuple(ks), tuple(map(terms.__getitem__, values))))
    return tuple(layers)


class IntegerTable(namedtuple("IntegerTable", "den nums layers")):
    """Polynomials over one common denominator: ``polys[r] = nums[r] / den``,
    with ``nums[r]`` the ascending integer coefficients, and ``layers``, the
    columns split by least period (`_layers`), as the shift kernel reads
    them.  `from_rows` makes the split once per table."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, den: int, nums: tuple[tuple[int, ...], ...]) -> "IntegerTable":
        """The rows ``nums`` over ``den`` as given, with no reduction."""
        return cls(den, nums, _layers(nums))


# Entries kept by the `_class_sums` cache.  The acceptance matrix makes 125
# keys; one exceptional system has at most two operators times its period
# (E8: 120), and a classical sweep two per system.
_CLASS_SUMS_CACHE_SIZE = 512


@lru_cache(maxsize=_CLASS_SUMS_CACHE_SIZE)
def _class_sums(f: RatPoly, step: int, period: int, size: int, /) -> tuple:
    """The terms of f grouped by class c = (-step*i) mod period, for a step
    taken mod period: pairs (c, (sum_i f.nums[i] * i^j for j < size)) over
    the i of class c, in the order of their first i.  The class of i, and so
    each sum, depends on step mod period alone, so consecutive m share one
    entry; `shift_constituents` turns entry j into the moment of (-step*i)^j
    by one product with (-step)^j."""
    sums: dict[int, list[int]] = {}
    for i, x in enumerate(f.nums):
        if x:
            c = -step * i % period
            acc = sums.get(c)
            if acc is None:
                acc = sums[c] = [0] * size
            for j in range(size):
                acc[j] += x
                x *= i
    return tuple((c, tuple(acc)) for c, acc in sums.items())


def shift_constituents(
    f: RatPoly, step: int, constituents: IntegerTable, residues: Iterable[int]
) -> tuple[RatPoly, ...]:
    """Constituents d in `residues` of f(S**step) applied to a
    quasi-polynomial whose residue-r constituent is
    g_r = constituents.nums[r] / constituents.den:

        sum_i f_i * g_{(d - step*i) mod period}(t - step*i).

    The i are grouped by class c = (-step*i) mod period, and each class
    keeps the integer moments mu_j = sum_i f.nums[i] * (-step*i)^j, which
    are (-step)^j times the sums of `_class_sums`, cached per operator and
    step mod period.  So [t^q] of the result is sum_c sum_k C(k, q)
    nums[(d + c) % period][k] mu_c[k - q], over f.den * den.  The sum over k
    runs layer by layer (`IntegerTable.layers`).  A layer of period p reads
    row (d + c) mod p, so its classes are folded mod p and its share of the
    result depends on d mod p alone: it is convolved once per d mod p, and
    every residue with that d mod p reuses it.  The folds run down the
    layers: a layer whose period divides the last one's folds that layer's
    classes (E8: 60, 12, 6, 2, 1), any other folds the classes mod the
    period again.  Each result is the sum of its layers' shares, normalised
    once per distinct sum, so equal results are one object.  Exact
    throughout; one result per entry of `residues`, in order, residues taken
    mod period.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    nums = constituents.nums
    period = len(nums)
    size = max(map(len, nums), default=0)
    powers = [1] * size  # (-step)^j
    for j in range(1, size):
        powers[j] = powers[j - 1] * -step
    moments = {c: list(map(mul, sums, powers))
               for c, sums in _class_sums(f, step % period, period, size)}
    plan = []  # per layer: its period and rows, its folded classes, its shares by d mod p
    last, source = period, moments  # the classes the next layer folds, and their period
    for p, _, rows in constituents.layers:
        if last % p:
            source = moments
        folded = {}  # may share lists with `source`, and never writes one in place
        for c, mu in source.items():
            acc = folded.get(c % p)
            folded[c % p] = mu if acc is None else list(map(add, acc, mu))
        plan.append((p, rows, folded, {}))
        last, source = p, folded
    out_den = f.den * constituents.den
    made: dict[tuple[int, ...], RatPoly] = {}  # one normalised result per distinct sum
    results = []
    for d in residues:
        shares = []
        for p, rows, folded, memo in plan:
            share = memo.get(d % p)
            if share is None:
                share = memo[d % p] = [0] * size
                for e, mu in folded.items():
                    for q, j, w in rows[(d + e) % p]:
                        share[q] += w * mu[j]
            shares.append(share)
        total = tuple(map(sum, zip(*shares)))
        result = made.get(total)
        if result is None:
            result = made[total] = RatPoly.over(total, out_den)
        results.append(result)
    return tuple(results)


def apply_shift(f: RatPoly, step: int, g: RatPoly) -> RatPoly:
    """Apply f(S**step) to g: sum_i f_i * g(t - step*i), exactly."""
    return shift_constituents(f, step, IntegerTable.from_rows(g.den, (g.nums,)), (0,))[0]
