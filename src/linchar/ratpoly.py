"""Exact univariate polynomials over Q, the shift-operator calculus, and
the two exact root-location verdicts, both read from the one primitive
remainder sequence over Z (`_remainders`) at its two ends: a Sturm chain
through its signs at -inf and at 0 (every root real and <= 0), the Routh
rows through their leading coefficients (every root with Re < 0).

A `RatPoly` is integer numerators over one positive common denominator:
``nums[j] / den`` multiplies ``t**j``, stored ascending, in canonical form
(gcd(den, *nums) = 1, top numerator nonzero; the zero polynomial is
``nums == ()`` over ``den == 1``).  Every routine computes on these integers
and returns through `RatPoly.over`, the one normalising constructor;
``coeffs``, ``coeff(j)`` and ``leading`` are `fractions.Fraction` views for
callers.  Floating point never enters here.  A shift operator f(S) is a
`RatPoly` read in S: ``coeffs[i]`` multiplies S**i, where
(S g)(t) = g(t - 1).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import islice, zip_longest
from operator import add

from .errors import InexactDivision


def _frac(x: int | Fraction) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact scalar expected (int or Fraction), got {type(x).__name__}")


def _pseudo_divrem(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division over Z: (q, r, mult) with mult * a == q * b + r,
    deg r < deg b and mult = |lc b|**k for the k elimination steps.  The
    multiplier is positive whatever the sign of lc b, so r is a positive
    multiple of the remainder over Q.  ``a`` and ``b`` carry no trailing
    zeros, and ``b`` is nonzero; ``r`` comes back the same way."""
    db = len(b) - 1
    lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    lower = b[:-1]
    r = list(a)
    q = [0] * max(0, len(r) - db)
    mult = 1
    while len(r) > db:
        c = sign * r[-1]
        if lead != 1:
            r = [lead * x for x in r]
            q = [lead * x for x in q]
            mult *= lead
        k = len(r) - 1 - db
        q[k] += c
        r.pop()
        for j, x in enumerate(lower):
            r[k + j] -= c * x
        while r and not r[-1]:
            r.pop()
    return q, r, mult


def _primitive(a: Sequence[int]) -> list[int]:
    """a divided by the (positive) gcd of its coefficients."""
    g = math.gcd(*a)
    return [x // g for x in a]


def _remainders(a: Sequence[int], b: Sequence[int]) -> list[Sequence[int]]:
    """The primitive remainder sequence a, b, -pp(prem(a, b)), ... over Z,
    up to its last nonzero element, which is gcd(a, b) up to a factor in Q
    (Brown, JACM 18, 1971).  ``a`` is nonzero; a zero ``b`` gives [a].  The
    pseudo-division multiplier is positive, so each element is a positive
    multiple of the matching element of a, b, -rem, ... over Q."""
    seq = [a]
    while b:
        seq.append(b)
        if len(b) == 1:
            break
        b = [-x for x in _primitive(_pseudo_divrem(seq[-2], b)[1])]
    return seq


def _quotient(a: Sequence[int], g: Sequence[int]) -> list[int]:
    """pp(a / g) for a nonzero g that divides a over Q, else `InexactDivision`.
    A positive multiple of a / g, because the pseudo-division multiplier is."""
    q, r, _ = _pseudo_divrem(a, g)
    if r:
        raise InexactDivision("division was not exact")
    return _primitive(q)


#: The prime of the square-free witness, 2**61 - 1.
WITNESS_PRIME = (1 << 61) - 1


def _squarefree_mod_prime(a: Sequence[int]) -> bool:
    """True if q = `WITNESS_PRIME` does not divide lc(a) and a, a' are
    coprime over GF(q).

    Then a is square-free over Q (Brown, JACM 18, 1971): a common factor of
    a and a' of positive degree can be taken primitive in Z[t], its leading
    coefficient divides lc(a), so it keeps its degree mod q and divides both
    images there.  False proves nothing.  ``a`` carries no trailing zeros
    and has degree below q.
    """
    q = WITNESS_PRIME
    if a[-1] % q == 0:
        return False
    u = [x % q for x in a]
    v = [j * x % q for j, x in enumerate(a)][1:]  # lc is deg(a) * lc(a), nonzero mod q
    while len(v) > 1:
        inv = pow(v[-1], -1, q)
        while len(u) >= len(v):
            c = u[-1] * inv % q
            k = len(u) - len(v)
            for j, x in enumerate(v):
                u[k + j] = (u[k + j] - c * x) % q
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    return len(v) == 1


class RatPoly:
    """Dense polynomial over Q in one variable (conventionally t), stored as
    ``nums`` over ``den`` in canonical form (see the module docstring)."""

    __slots__ = ("nums", "den")

    def __new__(cls, coeffs: Iterable[int | Fraction] = ()):
        cs = [_frac(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        return cls.over([c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through `over`, not through __setattr__
        return RatPoly.over, (self.nums, self.den)

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
        p = object.__new__(cls)
        object.__setattr__(p, "nums", tuple(nums))
        object.__setattr__(p, "den", den)
        return p

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def one(cls) -> "RatPoly":
        return cls.over((1,))

    @classmethod
    def monomial(cls, exponent: int, coeff: int | Fraction = 1) -> "RatPoly":
        return cls([0] * exponent + [coeff])

    @classmethod
    def from_roots(cls, roots: Iterable[int | Fraction], leading: int | Fraction = 1) -> "RatPoly":
        p = cls((leading,))
        for r in roots:
            p = p * cls((-_frac(r), 1))
        return p

    @classmethod
    def from_json(cls, obj: dict) -> "RatPoly":
        return cls(Fraction(int(n), int(d)) for n, d in obj["coeffs"])

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

    @property
    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def coeff(self, j: int) -> Fraction:
        return Fraction(self.nums[j], self.den) if 0 <= j < len(self.nums) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash(("RatPoly", self.den, self.nums))

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        pairs = zip_longest(self.nums, other.nums, fillvalue=0)
        return RatPoly.over([x * other.den + y * self.den for x, y in pairs], self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly.over([-x for x in self.nums], self.den)

    def __sub__(self, other) -> "RatPoly":
        return self + (-other if isinstance(other, RatPoly) else RatPoly((-_frac(other),)))

    def __rsub__(self, other) -> "RatPoly":
        return (-self) + other

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatPoly()
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return RatPoly.over(out, self.den * other.den)

    def __rmul__(self, other) -> "RatPoly":
        return self.scale(other)

    def scale(self, s: int | Fraction) -> "RatPoly":
        s = _frac(s)
        return RatPoly.over([x * s.numerator for x in self.nums], self.den * s.denominator)

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise ValueError("negative power")
        result, base = RatPoly.one(), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, x: int | Fraction) -> Fraction:
        """Exact Horner evaluation at an int or Fraction x."""
        x = _frac(x)
        # homogenized Horner over Z: v = sum nums_k u^k w^(deg - k)
        u, w = x.numerator, x.denominator
        v, wpow = 0, 1
        for c in reversed(self.nums):
            v = v * u + c * wpow
            wpow *= w
        return Fraction(v * w, self.den * wpow)

    def scaled_value(self, x: int) -> int:
        """den * p(x) at an integer x: Horner over the numerators, in Z."""
        v = 0
        for c in reversed(self.nums):
            v = v * x + c
        return v

    def compose_affine(self, a: int | Fraction, b: int | Fraction) -> "RatPoly":
        """Exact substitution t -> a*t + b.

        With a = an/ad and b = bn/bd, integer Horner forms
        sum_k nums_k * c^(n-k) * (A*t + B)^k for A = an*bd, B = bn*ad,
        c = ad*bd, and the result is that over den * c^n.
        """
        if self.is_zero:
            return self
        a, b = _frac(a), _frac(b)
        nums = self.nums
        A, B = a.numerator * b.denominator, b.numerator * a.denominator
        c = a.denominator * b.denominator
        acc = [nums[-1]]
        cpow = 1
        for coeff in reversed(nums[:-1]):
            cpow *= c
            nxt = [B * x for x in acc]
            nxt.append(0)
            for i, x in enumerate(acc):
                nxt[i + 1] += A * x
            nxt[0] += coeff * cpow
            acc = nxt
        return RatPoly.over(acc, self.den * cpow)

    def derivative(self) -> "RatPoly":
        return RatPoly.over([j * x for j, x in enumerate(self.nums)][1:], self.den)

    # -- square-free structure --------------------------------------------------

    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return RatPoly.over(self.nums, self.nums[-1])

    def squarefree_factors(self) -> list[tuple["RatPoly", int]]:
        """Square-free decomposition: [(f_1, 1), (f_2, 2), ...] with
        self = leading * prod f_i**i, each f_i monic square-free, deg f_i > 0.

        A prime witness answers first: when `_squarefree_mod_prime` proves
        self square-free, the result is [(self.monic(), 1)] with no gcd over
        Z taken.  Otherwise Musser's split decides, in integers: g_0 = pp(self)
        and g_k = gcd(g_(k-1), g_(k-1)'), the last element of their remainder
        sequence, until g_k is constant; h_k = g_(k-1) / g_k is the product of
        the f_i with i >= k, so f_k = h_k / h_(k+1)."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        if self.degree == 0:
            return []
        if _squarefree_mod_prime(self.nums):
            return [(self.monic(), 1)]
        gs = [_primitive(self.nums)]
        while len(gs[-1]) > 1:
            g = gs[-1]
            gs.append(_remainders(g, _primitive([j * x for j, x in enumerate(g)][1:]))[-1])
        hs = [_quotient(a, g) for a, g in zip(gs, gs[1:])]
        factors = []
        for k, (h, h_next) in enumerate(zip(hs, hs[1:] + [[1]]), 1):
            f = _quotient(h, h_next)
            if len(f) > 1:
                factors.append((RatPoly.over(f, f[-1]), k))
        return factors

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
                    for q in range(k + 1):
                        row_terms.append((q, k - q, math.comb(k, q) * x))
            terms[row] = tuple(row_terms)
        layers.append((p, tuple(ks), tuple(map(terms.__getitem__, values))))
    return tuple(layers)


class IntegerTable(namedtuple("IntegerTable", "den nums layers")):
    """Polynomials over one common denominator: ``polys[r] = nums[r] / den``,
    with ``nums[r]`` the ascending integer coefficients, and ``layers``, the
    columns split by least period (`_layers`), as the shift kernel reads
    them.  `of` and `from_rows` make the split once per table."""

    __slots__ = ()

    @classmethod
    def of(cls, polys: Sequence[RatPoly]) -> "IntegerTable":
        den = math.lcm(*(p.den for p in polys))
        nums = tuple(
            p.nums if p.den == den else tuple(x * (den // p.den) for x in p.nums) for p in polys
        )
        return cls.from_rows(den, nums)

    @classmethod
    def from_rows(cls, den: int, nums: tuple[tuple[int, ...], ...]) -> "IntegerTable":
        """The rows ``nums`` over ``den`` as given, with no reduction."""
        return cls(den, nums, _layers(nums))


def shift_constituents(
    f: RatPoly, step: int, constituents: IntegerTable, residues: Iterable[int]
) -> tuple[RatPoly, ...]:
    """Constituents d in `residues` of f(S**step) applied to a
    quasi-polynomial whose residue-r constituent is
    g_r = constituents.nums[r] / constituents.den:

        sum_i f_i * g_{(d - step*i) mod period}(t - step*i).

    The i are grouped once per call by class c = (-step*i) mod period, and
    each class keeps the integer moments mu_j = sum_i f.nums[i] * (-step*i)^j,
    so that [t^q] of the result is sum_c sum_k C(k, q) nums[(d + c) % period][k]
    mu_c[k - q], over f.den * den.  The sum over k runs layer by layer
    (`IntegerTable.layers`).  A layer of period p reads row (d + c) mod p,
    so its classes are folded mod p and its share of the result depends on
    d mod p alone: it is convolved once per d mod p, and every residue with
    that d mod p reuses it.  Each result is the sum of its layers' shares.
    Exact throughout; one result per entry of `residues`, in order, residues
    taken mod period.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    nums = constituents.nums
    period = len(nums)
    size = max(map(len, nums), default=0)
    moments: dict[int, list[int]] = {}
    if size:
        for i, x in enumerate(f.nums):
            if x:
                shift = -step * i
                mu = moments.get(shift % period)
                if mu is None:
                    mu = moments[shift % period] = [0] * size
                mu[0] += x
                for j in range(1, size):
                    x *= shift
                    mu[j] += x
    folds = {period: moments}  # the classes folded mod p, for each p met so far
    plan = []  # per layer: its period and rows, its folded classes, its shares by d mod p
    for p, _, rows in constituents.layers:
        if p not in folds:
            # from the coarsest fold so far that p divides; lists may be
            # shared between folds, and are never written in place
            finer = moments
            for q, fold in folds.items():
                if q % p == 0 and len(fold) < len(finer):
                    finer = fold
            folded = folds[p] = {}
            for c, mu in finer.items():
                acc = folded.get(c % p)
                folded[c % p] = mu if acc is None else list(map(add, acc, mu))
        plan.append((p, rows, folds[p], {}))
    out_den = f.den * constituents.den
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
        results.append(RatPoly.over(map(sum, zip(*shares)), out_den))
    return tuple(results)


def apply_shift(f: RatPoly, step: int, g: RatPoly) -> RatPoly:
    """Apply f(S**step) to g: sum_i f_i * g(t - step*i), exactly."""
    return shift_constituents(f, step, IntegerTable.of((g,)), (0,))[0]


# -- Sturm sequences -----------------------------------------------------------


def _sturm_chain(p: RatPoly) -> tuple[list[list[int]], int]:
    """Sturm chain over Z of the square-free part of p, and deg gcd(p, p').

    The chain is `_remainders` of p and p', a positive multiple, element by
    element, of the chain p, p', -rem, ... over Q; it ends in g = gcd(p, p').
    When g is not constant, every element is divided exactly by g, again up
    to a positive factor: the result is a Sturm chain of p/g that is valid
    at every point, the roots of p included.
    """
    a = _primitive(p.nums)
    chain = _remainders(a, _primitive([j * x for j, x in enumerate(a)][1:]))
    g = chain[-1]
    if len(g) > 1:
        chain = [_quotient(q, g) for q in chain]
    return chain, len(g) - 1


def _variations(values: Sequence[int]) -> int:
    """Sign variations of a list of integers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def all_roots_real_nonpositive(p: RatPoly) -> bool:
    """True iff every complex root of p is real and <= 0 (with multiplicity):
    the distinct real roots in (-inf, 0] number deg p - deg gcd(p, p').

    The count is the Sturm chain read at its two ends: each element q has
    the sign of q[-1] * (-1)^deg q at -inf and the sign of q[0] at 0."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    chain, deg_g = _sturm_chain(p)
    at_neg_inf = [q[-1] if len(q) % 2 else -q[-1] for q in chain]
    at_zero = [q[0] for q in chain]
    return _variations(at_neg_inf) - _variations(at_zero) == p.degree - deg_g


# -- Routh-Hurwitz --------------------------------------------------------------


def routh_hurwitz_all_roots_left(p: RatPoly) -> bool:
    """Exact Routh test: True iff all roots of p satisfy Re < 0.

    Decisive in every case.  With the leading coefficient of p made
    positive, the rows are `_remainders` of p's two parity parts: row 0
    holds the terms of p with the parity of deg p, row 1 the other terms.
    `_remainders` negates each remainder, so row k is a positive multiple of
    row k of the Routh array times (-1)^(k // 2).  p is strictly Hurwitz iff
    no coefficient is negative, there are deg p + 1 rows (the degrees fall
    by exactly one from deg p to 0) and every Routh row has a positive
    leading coefficient (the first column of the array), that is, the signs
    of the rows' leading coefficients run + + - - + + ....  Fewer rows mean
    a zero pivot or a zero row of the array: that proves a root with
    Re >= 0.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    nums = p.nums if p.nums[-1] > 0 else [-x for x in p.nums]
    if any(x < 0 for x in nums):
        return False
    n = p.degree
    parts = ([x if (n - j) % 2 == k else 0 for j, x in enumerate(nums)] for k in (0, 1))
    rows = _remainders(*(RatPoly.over(part).nums for part in parts))  # trailing zeros dropped
    return len(rows) == n + 1 and all((row[-1] > 0) == (k % 4 < 2) for k, row in enumerate(rows))
