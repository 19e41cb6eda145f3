"""Subgroup descriptions, membership tests, left-coset keys and Q-walks.

Two modes are supported.  A vertex subgroup is the distinguished base
subgroup of the family (the x-generators; for free and free abelian
groups, <x1>), where membership and coset identity are exact and read
directly off canonical forms.  A word-generated subgroup is given by
arbitrary generator words; it has no membership test or coset key, and a
coset patch built for it merges ball vertices joined by generator words
inside the ball, so it under-merges near the rim.  Q-letter walks step on
normal forms; transfer_walk is the one search that lifts and ladders use
to cross into a neighbouring coset.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, List, Optional, Tuple

from .cayley import first_hit
from .errors import SubgroupModeError
from .groups import (
    FAMILY_ABELIAN,
    FAMILY_BS,
    FAMILY_FREE,
    FAMILY_HNN,
    IDENTITY_KEY,
    Element,
    GroupSpec,
    group_for,
)
from .intmat import IntVector, identity_matrix

VERTEX = "vertex"
WORDS = "words"


class SubgroupSpec(namedtuple("SubgroupSpec", "mode words", defaults=((),))):
    """Q as a mode (VERTEX or WORDS) and, in words mode, its generator words."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in (VERTEX, WORDS):
            raise SubgroupModeError(f"unknown subgroup mode {self.mode!r}")
        if self.mode == WORDS and not self.words:
            raise SubgroupModeError("word-generated subgroup needs generator words")
        return self


def vertex_subgroup() -> SubgroupSpec:
    return SubgroupSpec(mode=VERTEX)


def word_subgroup(words) -> SubgroupSpec:
    return SubgroupSpec(mode=WORDS, words=tuple(tuple(w) for w in words))


def q_letters(spec: GroupSpec, q: SubgroupSpec) -> Tuple[int, ...]:
    """Signed generator letters of the ambient group that lie in Q.

    Empty for word-generated subgroups whose generators are not single
    letters; the sub-generating set there is the given words themselves.
    """
    if q.mode == VERTEX:
        if spec.family in (FAMILY_FREE, FAMILY_ABELIAN, FAMILY_BS):
            return (1, -1)
        return tuple(l for i in range(1, spec.rank + 1) for l in (i, -i))
    letters = []
    for w in q.words:
        if len(w) == 1:
            letters.extend((w[0], -w[0]))
    return tuple(sorted(set(letters), key=lambda l: (abs(l), -l)))


def k_letters(spec: GroupSpec, q: SubgroupSpec) -> Tuple[int, ...]:
    """Signed letters of the ambient generating set outside Q."""
    inside = set(q_letters(spec, q))
    return tuple(l for l in spec.letters if l not in inside)


def is_member(spec: GroupSpec, q: SubgroupSpec, a: Element) -> bool:
    """Exact test of a in Q, read off the normal form (vertex mode only)."""
    if q.mode != VERTEX:
        raise SubgroupModeError("is_member requires a vertex subgroup")
    if spec.family == FAMILY_BS:
        return len(a) == 1
    if spec.family == FAMILY_HNN:
        return a[0] == 0 and a[2] == 0
    if spec.family == FAMILY_ABELIAN:
        return not any(a[1:])
    return all(abs(l) == 1 for l in a)


def q_norm(spec: GroupSpec, a: Element) -> int:
    """Length of a in Q's own word metric, for a in the vertex subgroup Q."""
    if spec.family in (FAMILY_BS, FAMILY_ABELIAN):
        return abs(a[0])
    if spec.family == FAMILY_HNN:
        return sum(map(abs, a[1]))
    return len(a)


def q_element(spec: GroupSpec, v: IntVector) -> Element:
    """The element of the vertex subgroup Q = Z^k with coordinates v."""
    word = tuple(
        letter
        for i, c in enumerate(v)
        for letter in ((i + 1) if c > 0 else -(i + 1),) * abs(c)
    )
    return group_for(spec).evaluate_word(word)


def transfer_basis(
    spec: GroupSpec, q: SubgroupSpec, letter: int
) -> Tuple[IntVector, ...]:
    """Generators of T_s = Q ∩ sQs^-1 for the letter s, in Q's coordinates.

    Q = Z^k (k the rank for hnn, else 1) and T_s holds the q in Q with
    s^-1 q s in Q again.  For s in Q or Q normal it is all of Q.  For bs:m,n,
    t^-1 x^m t = x^n gives T_t = <x^|m|> and T_{t^-1} = <x^|n|>; for hnn,
    t^-1 x^v t = x^(M v) gives T_t = Z^k and T_{t^-1} = M Z^k.  In a free
    group T_s is trivial for s outside Q.  (Vertex mode only.)
    """
    if q.mode != VERTEX:
        raise SubgroupModeError("transfer_basis requires a vertex subgroup")
    qlets = q_letters(spec, q)
    whole = identity_matrix(len(qlets) // 2)
    if letter in qlets or spec.family == FAMILY_ABELIAN:
        return whole
    if spec.family == FAMILY_BS:
        return ((abs(spec.m if letter > 0 else spec.n),),)
    if spec.family == FAMILY_HNN:
        if letter > 0:
            return whole
        return tuple(zip(*group_for(spec).lattice_hnf(1)))
    return ()


def coset_label(spec: GroupSpec, q: SubgroupSpec, a: Element) -> Tuple:
    """Hashable label of the left coset a*Q, read off the normal form.

    Labels agree exactly when the cosets agree, and Q itself gets ().  A
    label is the part of the normal form that right multiplication by Q
    leaves alone: for bs the flat form without its trailing exponent, so
    (head, s1, e1, ..., sj); for hnn (p, v mod M^q Z^k, q); for free the
    word stripped of its trailing x1-letters; for abelian the coordinates
    after the first.
    (Vertex mode only.)
    """
    if q.mode != VERTEX:
        raise SubgroupModeError("coset_label requires a vertex subgroup")
    family = spec.family
    if family == FAMILY_BS:
        return a[:-1]
    if family == FAMILY_HNN:
        p, v, qq = a
        if p == 0 and qq == 0:
            return ()
        return (p, group_for(spec).reduce_mod_image(v, qq), qq)
    if family == FAMILY_ABELIAN:
        rest = a[1:]
        return rest if any(rest) else ()
    end = len(a)
    while end and abs(a[end - 1]) == 1:
        end -= 1
    return a[:end]


def coset_key(spec: GroupSpec, q: SubgroupSpec, a: Element) -> bytes:
    """Canonical byte key of the left coset a*Q (vertex mode only).

    The byte encoding of coset_label: keys agree exactly when the cosets
    agree, and the base coset Q maps to the identity key.
    """
    label = coset_label(spec, q, a)
    if not label:
        return IDENTITY_KEY
    if spec.family == FAMILY_BS:
        text = str(label[0])
        for i in range(1, len(label) - 1, 2):
            text += ("|+" if label[i] > 0 else "|-") + str(label[i + 1])
        return (text + ("|+" if label[-1] > 0 else "|-")).encode()
    if spec.family == FAMILY_HNN:
        p, residue, qq = label
        vec = ",".join(str(x) for x in residue)
        return f"{p}|{vec}|{qq}".encode()
    return ",".join(str(x) for x in label).encode()


def base_coset_key(spec: GroupSpec, q: SubgroupSpec) -> bytes:
    return coset_key(spec, q, group_for(spec).identity())


def q_steps(spec: GroupSpec, q: SubgroupSpec) -> Callable[[Element], List]:
    """Search edges (letter, element) of Q-letter walks on normal forms,
    letters ascending.  Right multiplication by Q fixes the left coset, so
    a Q-walk never leaves its start's coset and no ball bounds it."""
    apply_letter = group_for(spec).apply_letter
    ordered = sorted(q_letters(spec, q))
    return lambda a: [(letter, apply_letter(a, letter)) for letter in ordered]


def transfer_walk(
    spec: GroupSpec,
    q: SubgroupSpec,
    start: Element,
    crossing: int,
    target: Optional[Tuple],
    max_len: int,
) -> Optional[Tuple[Tuple[int, ...], Element]]:
    """The first Q-walk from start, of length at most max_len, whose end's
    crossing edge lands in the coset labelled target (any coset when target
    is None): (walk, landing element), or None.

    The walk is a shortest one with the earliest letters first.  F_s bounds
    it: from any element, some Q-walk shorter than F_s reaches every coset
    that the coset's s-edges lead to.  (Vertex mode only.)
    """
    apply_letter = group_for(spec).apply_letter

    def crosses(w: Element) -> Optional[Element]:
        b = apply_letter(w, crossing)
        return b if target is None or coset_label(spec, q, b) == target else None

    found, _ = first_hit(start, q_steps(spec, q), crosses, max_len)
    return found
