"""Membership tests, left-coset labels and keys, and Q-walks.

Q is the distinguished base subgroup of the group spec's family (the
x-generators; for free and free abelian groups, <x1>), so every function
here reads Q off the spec: membership and coset identity are exact and read
directly off canonical forms.  There is no subgroup object: a
word-generated subgroup (``words:...``) is only a tuple of generator words
passed to cosetgraph.build_coset_patch, whose patch merges ball vertices
joined by those words inside the ball and so under-merges near the rim; it
has no membership test or coset key.  Q-letter walks step on normal forms;
transfer_walk is the one search that lifts and ladders use to cross into a
neighbouring coset.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, List, Optional, Tuple

from .cayley import first_hit
from .groups import (
    FAMILY_ABELIAN,
    FAMILY_BS,
    FAMILY_FREE,
    FAMILY_HNN,
    Element,
    GroupSpec,
    group_for,
)
from .intmat import IntVector, identity_matrix


def q_letters(spec: GroupSpec) -> Tuple[int, ...]:
    """Signed generator letters of the ambient group that lie in Q."""
    if spec.family in (FAMILY_FREE, FAMILY_ABELIAN, FAMILY_BS):
        return (1, -1)
    return tuple(l for i in range(1, spec.rank + 1) for l in (i, -i))


def k_letters(spec: GroupSpec) -> Tuple[int, ...]:
    """Signed letters of the ambient generating set outside Q."""
    inside = set(q_letters(spec))
    return tuple(l for l in spec.letters if l not in inside)


def is_member(spec: GroupSpec, a: Element) -> bool:
    """Exact test of a in Q, read off the normal form."""
    if spec.family == FAMILY_BS:
        return len(a) == 1
    if spec.family == FAMILY_HNN:
        return a[0] == 0 and a[-1] == 0
    if spec.family == FAMILY_ABELIAN:
        return not any(a[1:])
    return all(abs(l) == 1 for l in a)


def q_norm(spec: GroupSpec, a: Element) -> int:
    """Length of a in Q's own word metric, for a in the vertex subgroup Q."""
    if spec.family in (FAMILY_BS, FAMILY_ABELIAN):
        return abs(a[0])
    if spec.family == FAMILY_HNN:
        return sum(map(abs, a[1:-1]))
    return len(a)


def q_element(spec: GroupSpec, v: IntVector) -> Element:
    """The element of the vertex subgroup Q = Z^k with coordinates v."""
    word = tuple(
        letter
        for i, c in enumerate(v)
        for letter in ((i + 1) if c > 0 else -(i + 1),) * abs(c)
    )
    return group_for(spec).evaluate_word(word)


def transfer_basis(spec: GroupSpec, letter: int) -> Tuple[IntVector, ...]:
    """Generators of T_s = Q ∩ sQs^-1 for the letter s, in Q's coordinates.

    Q = Z^k (k the rank for hnn, else 1) and T_s holds the q in Q with
    s^-1 q s in Q again.  For s in Q or Q normal it is all of Q.  For bs:m,n,
    t^-1 x^m t = x^n gives T_t = <x^|m|> and T_{t^-1} = <x^|n|>; for hnn,
    t^-1 x^v t = x^(M v) gives T_t = Z^k and T_{t^-1} = M Z^k.  In a free
    group T_s is trivial for s outside Q.
    """
    qlets = q_letters(spec)
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


def coset_labeller(spec: GroupSpec) -> Callable[[Element], Tuple]:
    """The label function of left cosets of the vertex subgroup Q.

    A label is hashable and read off the normal form: labels agree exactly
    when the cosets agree, and Q itself gets ().  It is the part of the
    normal form that right multiplication by Q leaves alone: for bs the form
    without its trailing exponent, so (head, s1, e1, ..., sj); for hnn the
    form (p, v1, ..., vk, q) with v taken mod M^q Z^k, itself a reduced hnn
    form; for free the word stripped of its trailing
    x1-letters; for abelian the coordinates after the first.  Bind it once
    and call it per element.
    """
    family = spec.family
    if family == FAMILY_BS:
        return itemgetter(slice(-1))
    if family == FAMILY_HNN:
        reduce_mod_image = group_for(spec).reduce_mod_image

        def label(a: Element) -> Tuple:
            p, qq = a[0], a[-1]
            if p == 0 and qq == 0:
                return ()
            return (p, *reduce_mod_image(a[1:-1], qq), qq)

        return label
    if family == FAMILY_ABELIAN:

        def drop_x1(a: Element) -> Tuple:
            rest = a[1:]
            return rest if any(rest) else ()

        return drop_x1

    def strip_x1(a: Element) -> Tuple:
        end = len(a)
        while end and abs(a[end - 1]) == 1:
            end -= 1
        return a[:end]

    return strip_x1


def coset_key(spec: GroupSpec, a: Element) -> bytes:
    """Canonical byte key of the left coset a*Q.

    The group's canonical_key of the coset_labeller label, so the byte
    format is defined only in groups: keys agree exactly when the cosets
    agree, and the base coset Q maps to the identity key.
    """
    label, key = coset_labeller(spec)(a), group_for(spec).canonical_key
    if spec.family == FAMILY_BS:
        # a bs label is a form less its trailing exponent: key the form
        # with exponent 0 and drop that digit
        return key((*label, 0))[:-1]
    return key(label)


def q_steps(spec: GroupSpec) -> Callable[[Element], List]:
    """Search edges (letter, element) of Q-letter walks on normal forms,
    letters ascending.  Right multiplication by Q fixes the left coset, so
    a Q-walk never leaves its start's coset and no ball bounds it."""
    apply_letter = group_for(spec).apply_letter
    ordered = sorted(q_letters(spec))
    return lambda a: [(letter, apply_letter(a, letter)) for letter in ordered]


def transfer_walk(
    spec: GroupSpec,
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
    that the coset's s-edges lead to.
    """
    apply_letter, label = group_for(spec).apply_letter, coset_labeller(spec)

    def crosses(w: Element) -> Optional[Element]:
        b = apply_letter(w, crossing)
        return b if target is None or label(b) == target else None

    found, _ = first_hit(start, q_steps(spec), crosses, max_len)
    return found
