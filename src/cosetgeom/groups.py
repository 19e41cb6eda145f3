"""Exact element arithmetic for the four supported group families.

Families
--------
free:k      free group on x1..xk; elements are reduced words
abelian:k   free abelian group on x1..xk; elements are integer vectors
bs:m,n      one-relator group <x, t | t^-1 x^m t = x^n>; elements are
            reduced syllable forms with a fixed coset transversal
hnn:k,M     ascending extension of Z^k by an injective integer matrix M,
            with relation t^-1 x^v t = x^(M v); elements are reduced
            triples (p, v, q) meaning t^p * x^v * t^-q

Elements are immutable tuples of arbitrary-precision ints: flat for free,
abelian and bs, and the nested triple (p, v, q) for hnn.  Byte equality of
canonical keys coincides with equality in the group.  Words are tuples of
signed 1-based generator indices (+i for the generator, -i for its inverse).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from operator import add
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import ConfigError
from .intmat import (
    IntMatrix,
    adjugate,
    column_hnf,
    determinant,
    mat_pow,
    mat_vec,
    reduce_mod_lattice,
    solve_exact,
)

Letter = int
Word = Tuple[int, ...]
Element = tuple

FAMILY_FREE = "free"
FAMILY_ABELIAN = "abelian"
FAMILY_BS = "bs"
FAMILY_HNN = "hnn"

#: Canonical key of the identity in every family.
IDENTITY_KEY = b""


class GroupSpec(namedtuple("GroupSpec", "family rank m n matrix", defaults=(1, 0, 0, ()))):
    """Immutable description of one group instance.

    Fields: family (str), rank (int), the bs exponents m and n (int), and
    the hnn matrix (IntMatrix).  Specs compare and hash by their fields.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family in (FAMILY_FREE, FAMILY_ABELIAN):
            if self.rank < 1:
                raise ConfigError("rank must be >= 1")
        elif self.family == FAMILY_BS:
            if self.m == 0 or self.n == 0:
                raise ConfigError("bs requires nonzero m and n")
        elif self.family == FAMILY_HNN:
            if self.rank < 1 or len(self.matrix) != self.rank:
                raise ConfigError("hnn requires a rank x rank matrix")
            if any(len(row) != self.rank for row in self.matrix):
                raise ConfigError("hnn matrix is not square")
            if determinant(self.matrix) == 0:
                raise ConfigError("hnn matrix must have nonzero determinant")
        else:
            raise ConfigError(f"unknown family {self.family!r}")
        return self

    @cached_property
    def generators(self) -> Tuple[str, ...]:
        """Generator names in canonical order, built once per spec."""
        if self.family == FAMILY_BS:
            return ("x", "t")
        base = tuple(f"x{i + 1}" for i in range(self.rank))
        if self.family == FAMILY_HNN:
            return base + ("t",)
        return base

    @property
    def stable_letter(self) -> Optional[int]:
        """1-based index of the stable letter t, if the family has one."""
        if self.family == FAMILY_BS:
            return 2
        if self.family == FAMILY_HNN:
            return self.rank + 1
        return None

    @property
    def letters(self) -> Tuple[int, ...]:
        """All signed letters in canonical order: +1, -1, +2, -2, ..."""
        out: List[int] = []
        for i in range(1, len(self.generators) + 1):
            out.extend((i, -i))
        return tuple(out)

    def describe(self) -> str:
        """Canonical text form, parseable by parse_group_spec."""
        if self.family == FAMILY_FREE:
            return f"free:{self.rank}"
        if self.family == FAMILY_ABELIAN:
            return f"abelian:{self.rank}"
        if self.family == FAMILY_BS:
            return f"bs:{self.m},{self.n}"
        rows = ";".join(" ".join(str(x) for x in row) for row in self.matrix)
        return f"hnn:{self.rank},{rows}"


def free_group(rank: int) -> GroupSpec:
    return GroupSpec(family=FAMILY_FREE, rank=rank)


def free_abelian_group(rank: int) -> GroupSpec:
    return GroupSpec(family=FAMILY_ABELIAN, rank=rank)


def baumslag_solitar(m: int, n: int) -> GroupSpec:
    return GroupSpec(family=FAMILY_BS, rank=1, m=m, n=n)


def ascending_hnn(matrix: Iterable[Iterable[int]]) -> GroupSpec:
    rows = tuple(tuple(int(x) for x in row) for row in matrix)
    return GroupSpec(family=FAMILY_HNN, rank=len(rows), matrix=rows)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse group strings like free:2, abelian:3, bs:2,3, hnn:2,2 0;0 2."""
    try:
        family, _, rest = text.strip().partition(":")
        family = family.strip().lower()
        if family == "free":
            return free_group(int(rest))
        if family == "abelian":
            return free_abelian_group(int(rest))
        if family == "bs":
            m_text, n_text = rest.split(",")
            return baumslag_solitar(int(m_text), int(n_text))
        if family == "hnn":
            rank_text, _, rows_text = rest.partition(",")
            rows = [
                [int(x) for x in row.split()] for row in rows_text.split(";")
            ]
            spec = ascending_hnn(rows)
            if spec.rank != int(rank_text):
                raise ConfigError(
                    f"hnn rank {rank_text} does not match matrix size {spec.rank}"
                )
            return spec
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad group string {text!r}: {exc}") from None
    raise ConfigError(f"unknown group family in {text!r}")


class Group:
    """Family-specific exact arithmetic behind a shared interface."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec

    def identity(self) -> Element:
        raise NotImplementedError

    def multiply(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def invert(self, a: Element) -> Element:
        raise NotImplementedError

    def apply_letter(self, a: Element, letter: Letter) -> Element:
        """Right-multiply a by one signed generator letter."""
        raise NotImplementedError

    def evaluate_word(self, word: Iterable[Letter], start: Element = None) -> Element:
        """Left-to-right product of letters with incremental renormalization."""
        a = self.identity() if start is None else start
        for letter in word:
            a = self.apply_letter(a, letter)
        return a

    def canonical_key(self, a: Element) -> bytes:
        raise NotImplementedError

    def render(self, a: Element) -> str:
        raise NotImplementedError

    def is_canonical(self, a: Element) -> bool:
        raise NotImplementedError


class FreeGroup(Group):
    """Reduced words over x1..xk."""

    def identity(self) -> Element:
        return ()

    def multiply(self, a: Element, b: Element) -> Element:
        out = list(a)
        for letter in b:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def invert(self, a: Element) -> Element:
        return tuple(-letter for letter in reversed(a))

    def apply_letter(self, a: Element, letter: Letter) -> Element:
        if a and a[-1] == -letter:
            return a[:-1]
        return a + (letter,)

    def canonical_key(self, a: Element) -> bytes:
        return ",".join(str(x) for x in a).encode()

    def render(self, a: Element) -> str:
        return render_word(self.spec, a)

    def is_canonical(self, a: Element) -> bool:
        if any(x == 0 or abs(x) > self.spec.rank for x in a):
            return False
        return all(a[i] != -a[i + 1] for i in range(len(a) - 1))


class FreeAbelianGroup(Group):
    """Integer vectors of length k."""

    def identity(self) -> Element:
        return (0,) * self.spec.rank

    def multiply(self, a: Element, b: Element) -> Element:
        return tuple(x + y for x, y in zip(a, b))

    def invert(self, a: Element) -> Element:
        return tuple(-x for x in a)

    def apply_letter(self, a: Element, letter: Letter) -> Element:
        i = abs(letter) - 1
        return a[:i] + (a[i] + (1 if letter > 0 else -1),) + a[i + 1 :]

    def canonical_key(self, a: Element) -> bytes:
        if not any(a):
            return IDENTITY_KEY
        return ",".join(str(x) for x in a).encode()

    def render(self, a: Element) -> str:
        parts = [
            f"x{i + 1}" + (f"^{v}" if v != 1 else "")
            for i, v in enumerate(a)
            if v != 0
        ]
        return ".".join(parts) if parts else "1"

    def is_canonical(self, a: Element) -> bool:
        return len(a) == self.spec.rank


class BaumslagSolitarGroup(Group):
    """Reduced syllable forms for <x, t | t^-1 x^m t = x^n>.

    An element is one flat int tuple (head, s1, e1, ..., sj, ej), with each
    sign si = +-1, encoding

        x^head * t^s1 x^e1 * t^s2 x^e2 * ... * t^sj x^ej.

    Every exponent that precedes a stable letter is reduced into the coset
    transversal {0..|m|-1} (before t) or {0..|n|-1} (before t^-1), carrying
    the quotient across the stable letter via x^(m c) t = t x^(n c) and
    x^(n c) t^-1 = t^-1 x^(m c).  No pinch t^-1 x^(m c) t or t x^(n c) t^-1
    survives, so two elements are equal in the group iff their forms are
    byte-identical.  The trailing exponent, always the last entry, is
    unconstrained, which is what makes right cosets of <x> legible directly
    from the form.
    """

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        # stable letter -> (div, mul, |div|, sign) with
        # x^(div c) t^sign = t^sign x^(mul c)
        self._t_rules = {
            2: (spec.m, spec.n, abs(spec.m), 1),
            -2: (spec.n, spec.m, abs(spec.n), -1),
        }

    def identity(self) -> Element:
        return (0,)

    def _x_power(self, a: Element, c: int) -> Element:
        """Right-multiply a by x^c: only the trailing exponent changes."""
        return a[:-1] + (a[-1] + c,) if c else a

    def _t_step(self, a: Element, letter: Letter) -> Element:
        """Right-multiply a by t^(+-1); only the last syllable is rewritten."""
        div, mul, mod, sign = self._t_rules[letter]
        e = a[-1]
        if len(a) > 1 and a[-2] == -sign and e % mod == 0:
            # pinch: t^-1 x^(m c) t = x^(n c) or t x^(n c) t^-1 = x^(m c)
            return self._x_power(a[:-2], mul * (e // div))
        r = e % mod
        return a[:-1] + (r, sign, mul * ((e - r) // div))

    def multiply(self, a: Element, b: Element) -> Element:
        a = self._x_power(a, b[0])
        for i in range(1, len(b), 2):
            a = self._x_power(self._t_step(a, 2 * b[i]), b[i + 1])
        return a

    def invert(self, a: Element) -> Element:
        # x^h t^s1 x^e1 ... t^sj x^ej inverts to x^-ej t^-sj ... t^-s1 x^-h
        b = (-a[-1],)
        for i in range(len(a) - 2, 0, -2):
            b = self._x_power(self._t_step(b, -2 * a[i]), -a[i - 1])
        return b

    def apply_letter(self, a: Element, letter: Letter) -> Element:
        # The x-step of _x_power, inlined: the ball builder's hot path.
        if letter == 1 or letter == -1:
            return a[:-1] + (a[-1] + letter,)
        return self._t_step(a, letter)

    def canonical_key(self, a: Element) -> bytes:
        if a == (0,):
            return IDENTITY_KEY
        text = str(a[0])
        for i in range(1, len(a), 2):
            text += ("|+" if a[i] > 0 else "|-") + str(a[i + 1])
        return text.encode()

    def render(self, a: Element) -> str:
        parts: List[str] = []
        if a[0]:
            parts.append(f"x^{a[0]}" if a[0] != 1 else "x")
        for i in range(1, len(a), 2):
            parts.append("t" if a[i] > 0 else "t^-1")
            exp = a[i + 1]
            if exp:
                parts.append(f"x^{exp}" if exp != 1 else "x")
        return ".".join(parts) if parts else "1"

    def is_canonical(self, a: Element) -> bool:
        exps, signs = a[0::2], a[1::2]
        if len(a) % 2 == 0 or any(s not in (1, -1) for s in signs):
            return False
        m, n = self.spec.m, self.spec.n
        for i, sign in enumerate(signs):
            bound = abs(m) if sign > 0 else abs(n)
            if not 0 <= exps[i] < bound:
                return False
        for i in range(len(signs) - 1):
            if signs[i] == -signs[i + 1] and exps[i + 1] == 0:
                return False
        return True


class AscendingHNNGroup(Group):
    """Reduced triples (p, v, q) = t^p x^v t^-q for Z^k *_M.

    The defining relation is t^-1 x^v t = x^(M v).  A triple with p > 0 and
    q > 0 reduces while v lies in the lattice M Z^k, via
    t x^(M w) t^-1 = x^w; reduced triples are unique.
    """

    def __init__(self, spec: GroupSpec):
        super().__init__(spec)
        self.k = spec.rank
        self.M = spec.matrix
        self.det = determinant(self.M)
        self.adj = adjugate(self.M)
        self._hnf_cache: Dict[int, IntMatrix] = {}
        self._step_cache: Dict[Tuple[int, Letter], Tuple[int, ...]] = {}

    def identity(self) -> Element:
        return (0, (0,) * self.k, 0)

    def _reduce(self, p: int, v: Tuple[int, ...], q: int) -> Element:
        while p > 0 and q > 0:
            w = solve_exact(self.M, v, self.det, self.adj)
            if w is None:
                break
            p -= 1
            q -= 1
            v = w
        return (p, v, q)

    def _mat_pow_vec(self, e: int, v: Tuple[int, ...]) -> Tuple[int, ...]:
        for _ in range(e):
            v = mat_vec(self.M, v)
        return v

    def multiply(self, a: Element, b: Element) -> Element:
        p1, v1, q1 = a
        p2, v2, q2 = b
        if p2 <= q1:
            j = q1 - p2
            v = tuple(x + y for x, y in zip(v1, self._mat_pow_vec(j, v2)))
            return self._reduce(p1, v, j + q2)
        j = p2 - q1
        v = tuple(x + y for x, y in zip(self._mat_pow_vec(j, v1), v2))
        return self._reduce(p1 + j, v, q2)

    def invert(self, a: Element) -> Element:
        p, v, q = a
        return (q, tuple(-x for x in v), p)

    def _step(self, q: int, letter: Letter) -> Tuple[int, ...]:
        """M^q applied to the unit vector of an x-letter, cached per (q, letter)."""
        step = [0] * self.k
        step[abs(letter) - 1] = 1 if letter > 0 else -1
        self._step_cache[(q, letter)] = self._mat_pow_vec(q, tuple(step))
        return self._step_cache[(q, letter)]

    def apply_letter(self, a: Element, letter: Letter) -> Element:
        p, v, q = a
        if abs(letter) <= self.k:
            moved = self._step_cache.get((q, letter))
            if moved is None:
                moved = self._step(q, letter)
            return (p, tuple(map(add, v, moved)), q)
        # a is reduced, so with p > 0 and q > 0 its v is outside M Z^k and
        # only a step from q = 0 to q = 1 can cancel a t against a t^-1.
        if letter > 0:
            if q > 0:
                return (p, v, q - 1)
            return (p + 1, mat_vec(self.M, v), 0)
        if q > 0:
            return (p, v, q + 1)
        return self._reduce(p, v, 1)

    def lattice_hnf(self, power: int) -> IntMatrix:
        """Column Hermite form of M^power, cached per power."""
        if power not in self._hnf_cache:
            self._hnf_cache[power] = column_hnf(mat_pow(self.M, power))
        return self._hnf_cache[power]

    def reduce_mod_image(self, v: Tuple[int, ...], power: int) -> Tuple[int, ...]:
        """Canonical representative of v modulo M^power Z^k."""
        if power == 0:
            return (0,) * self.k
        return reduce_mod_lattice(self.lattice_hnf(power), v)

    def canonical_key(self, a: Element) -> bytes:
        p, v, q = a
        if p == 0 and q == 0 and not any(v):
            return IDENTITY_KEY
        vec = ",".join(str(x) for x in v)
        return f"{p}|{vec}|{q}".encode()

    def render(self, a: Element) -> str:
        p, v, q = a
        parts: List[str] = []
        if p:
            parts.append("t" if p == 1 else f"t^{p}")
        parts.extend(
            f"x{i + 1}" + (f"^{x}" if x != 1 else "")
            for i, x in enumerate(v)
            if x != 0
        )
        if q:
            parts.append(f"t^{-q}")
        return ".".join(parts) if parts else "1"

    def is_canonical(self, a: Element) -> bool:
        p, v, q = a
        if p < 0 or q < 0 or len(v) != self.k:
            return False
        if p > 0 and q > 0:
            return solve_exact(self.M, v, self.det, self.adj) is None
        return True


@lru_cache(maxsize=None)
def group_for(spec: GroupSpec) -> Group:
    """Arithmetic object for a spec, cached so per-group caches live with it."""
    if spec.family == FAMILY_FREE:
        return FreeGroup(spec)
    if spec.family == FAMILY_ABELIAN:
        return FreeAbelianGroup(spec)
    if spec.family == FAMILY_BS:
        return BaumslagSolitarGroup(spec)
    return AscendingHNNGroup(spec)


def evaluate_word(spec: GroupSpec, word: Iterable[Letter], start: Element = None) -> Element:
    return group_for(spec).evaluate_word(word, start)


def inverse_word(word: Iterable[Letter]) -> Word:
    return tuple(-letter for letter in reversed(tuple(word)))


def parse_word(spec: GroupSpec, text: str) -> Word:
    """Parse dot-joined power tokens such as x^3.t^-1.x into a letter word."""
    text = text.strip()
    if not text or text == "1":
        return ()
    names = {name: i + 1 for i, name in enumerate(spec.generators)}
    out: List[int] = []
    for token in text.split("."):
        name, _, exp_text = token.partition("^")
        name = name.strip()
        if name not in names:
            raise ConfigError(f"unknown generator {name!r} in {text!r}")
        try:
            exp = int(exp_text) if exp_text else 1
        except ValueError:
            raise ConfigError(f"bad exponent in token {token!r}") from None
        letter = names[name] if exp > 0 else -names[name]
        out.extend([letter] * abs(exp))
    return tuple(out)


def render_word(spec: GroupSpec, word: Word) -> str:
    """Inverse of parse_word, grouping runs of equal letters into powers."""
    if not word:
        return "1"
    names = spec.generators
    parts: List[str] = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        exp = run if word[i] > 0 else -run
        name = names[abs(word[i]) - 1]
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return ".".join(parts)
