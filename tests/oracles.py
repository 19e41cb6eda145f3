"""Independent oracles used to cross-check the package's arithmetic.

Nothing in this file imports from cosetgeom's element representations.
The two BS word-problem oracles are deliberately different in kind: one is
an exact affine representation (a homomorphism of every bs:m,n, faithful
only when |m| = 1), the other is a purely syntactic rewriting closure
(available for any bs:m,n but only at bounded word length).  The ascending
HNN groups get an affine representation too, faithful on all of them, and
their integer kernel is pinned by plain loops and solutions over Q.  The reference ball
builder pins the production builder's numbering and adjacency using only Group.multiply.
The coset sweep pins a patch's labelling (in words mode over classes that a
queue search of generator-word translations finds), and the key formatter
pins the bytes of every coset key, written straight from the normal form.
The per-vertex greedy rays pin the ray systems built shell by shell.  The
brute-force Hausdorff distances in Z^2 and F_2 use arithmetic of their own,
and the whole-ball profile pins the searches that stop at their targets.
The parent-map route search pins the letters of escape routes, and the
walk-carrying Q-walk those of lifts and ladders, which the package reads
off BFS layers instead; a ladder built from it on ball slots pins the
package's ladders, which walk on normal forms, wherever its searches stay
clear of the rim.  The set-based star pins the one the package takes
from the first BFS layers.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# Affine representation of bs:m,n
# ---------------------------------------------------------------------------
#
# x maps to y -> y + 1 and t to y -> (m/n) y, affine maps of the line stored
# as the pair (a, b) of y -> a*y + b; a word maps to the composite of its
# letters' maps, the first letter outermost.  The relation t^-1 x^m t = x^n
# holds, so this is a homomorphism of every bs:m,n, and it is faithful when
# |m| = 1.  Equal elements always have equal images.


def affine_identity() -> Tuple[Fraction, Fraction]:
    return (Fraction(1), Fraction(0))


def affine_letter(letter: int, n: int, m: int = 1) -> Tuple[Fraction, Fraction]:
    if letter == 1:
        return (Fraction(1), Fraction(1))
    if letter == -1:
        return (Fraction(1), Fraction(-1))
    if letter == 2:
        return (Fraction(m, n), Fraction(0))
    if letter == -2:
        return (Fraction(n, m), Fraction(0))
    raise ValueError(f"bad letter {letter}")


def affine_evaluate(word: Iterable[int], n: int, m: int = 1) -> Tuple[Fraction, Fraction]:
    a, b = affine_identity()
    for letter in word:
        a2, b2 = affine_letter(letter, n, m)
        a, b = a * a2, a * b2 + b
    return (a, b)


# ---------------------------------------------------------------------------
# Affine representation of Z^k *_M
# ---------------------------------------------------------------------------
#
# The letter x_i translates Q^k by the i-th unit vector, t maps y -> M^-1 y
# and t^-1 maps y -> M y; maps are pairs (A, b) of y -> A y + b with exact
# Fraction entries, composed the first letter outermost as above.  Then
# t^-1 x^v t maps y -> y + M v, so the relation t^-1 x^v t = x^(M v) holds.
# The element t^p x^v t^-q maps y -> M^(q-p) y + M^-p v; when no power of M
# but M^0 is the identity (det M != +-1 suffices), equal images force equal
# p - q and M^-p v, which for reduced triples forces equal triples, so the
# action is faithful and equal images mean equal elements.

AffineMap = Tuple[Tuple[Tuple[Fraction, ...], ...], Tuple[Fraction, ...]]


def _fraction_inverse(rows: Sequence[Sequence[int]]) -> Tuple[Tuple[Fraction, ...], ...]:
    """Inverse of an integer matrix by Gauss-Jordan elimination over Q."""
    k = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
        for i, row in enumerate(rows)
    ]
    for col in range(k):
        pivot = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[k:]) for row in aug)


# ---------------------------------------------------------------------------
# Integer matrix kernel
# ---------------------------------------------------------------------------
#
# The HNN normal forms step through matrix-vector products and exact
# solutions of A w = v.  Here the product is a plain loop over the entries
# and the solution is read off the inverse over Q, with no adjugate and no
# determinant.


def reference_mat_vec(A: Sequence[Sequence[int]], v: Sequence[int]) -> Tuple[int, ...]:
    out = []
    for row in A:
        total = 0
        for j in range(len(v)):
            total += row[j] * v[j]
        out.append(total)
    return tuple(out)


def reference_solve(A: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """The integer w with A w = v for a nonsingular A, or None when the
    rational solution is not integral."""
    w = [sum(x * y for x, y in zip(row, v)) for row in _fraction_inverse(A)]
    if any(x.denominator != 1 for x in w):
        return None
    return tuple(int(x) for x in w)


class HNNAffine:
    """The affine action of Z^k *_M on Q^k, for the matrix given as rows."""

    def __init__(self, matrix: Sequence[Sequence[int]]):
        self.k = len(matrix)
        k = self.k
        unit = tuple(tuple(Fraction(int(i == j)) for j in range(k)) for i in range(k))
        zero = (Fraction(0),) * k
        self.letter_maps: Dict[int, AffineMap] = {
            k + 1: (_fraction_inverse(matrix), zero),
            -(k + 1): (tuple(tuple(Fraction(x) for x in row) for row in matrix), zero),
        }
        for i in range(1, k + 1):
            self.letter_maps[i] = (unit, unit[i - 1])
            self.letter_maps[-i] = (unit, tuple(-x for x in unit[i - 1]))
        self.identity: AffineMap = (unit, zero)

    @staticmethod
    def compose(f: AffineMap, g: AffineMap) -> AffineMap:
        """f after g: y -> A_f (A_g y + b_g) + b_f."""
        (a_f, b_f), (a_g, b_g) = f, g
        cols = list(zip(*a_g))
        product = tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a_f
        )
        shift = tuple(sum(x * y for x, y in zip(row, b_g)) + c for row, c in zip(a_f, b_f))
        return (product, shift)

    def evaluate(self, word: Iterable[int]) -> AffineMap:
        out = self.identity
        for letter in word:
            out = self.compose(out, self.letter_maps[letter])
        return out


# ---------------------------------------------------------------------------
# Relator-closure equality oracle for bs:m,n
# ---------------------------------------------------------------------------
#
# Words over the four letters x, x^-1, t, t^-1 are encoded as base-4 digit
# strings (digit 0 = x, 1 = x^-1, 2 = t, 3 = t^-1).  Two words of length at
# most max_len are declared equal when they are connected by a chain of
# moves with every intermediate word staying within max_len.  The moves are
# free cancellation of an adjacent inverse pair and relation splices: if a
# substring u equals a prefix of some cyclic rotation r of the relator
# t^-1 x^m t x^-n or of its inverse, then u may be replaced by the inverse
# of the remaining suffix of r, since u and that replacement represent the
# same group element.  Splices keep intermediate words short (length grows
# by at most the relator length), so the closure is complete for modest
# word lengths while remaining a sound under-approximation of equality.

INVERSE_DIGIT = (1, 0, 3, 2)


def digits_to_letters(word: Sequence[int]) -> Tuple[int, ...]:
    table = (1, -1, 2, -2)
    return tuple(table[d] for d in word)


def relator_digits(m: int, n: int) -> Tuple[int, ...]:
    word: List[int] = [3]
    word.extend([0 if m > 0 else 1] * abs(m))
    word.append(2)
    word.extend([1 if n > 0 else 0] * abs(n))
    return tuple(word)


def _rotations(word: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    return [word[i:] + word[:i] for i in range(len(word))]


def _invert_digits(word: Sequence[int]) -> Tuple[int, ...]:
    return tuple(INVERSE_DIGIT[d] for d in reversed(word))


class RelatorClosure:
    """Union-find over all words of length <= max_len."""

    def __init__(self, m: int, n: int, max_len: int):
        self.max_len = max_len
        self.offsets = [0]
        for length in range(max_len + 1):
            self.offsets.append(self.offsets[-1] + 4**length)
        self.parent = list(range(self.offsets[-1]))
        rel = relator_digits(m, n)
        rotations = set(_rotations(rel)) | set(_rotations(_invert_digits(rel)))
        self.rotations = sorted(rotations)
        self._build()

    def index(self, word: Sequence[int]) -> int:
        value = 0
        for d in word:
            value = value * 4 + d
        return self.offsets[len(word)] + value

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def _union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)

    def same(self, w1: Sequence[int], w2: Sequence[int]) -> bool:
        return self.find(self.index(w1)) == self.find(self.index(w2))

    def _build(self) -> None:
        inv = INVERSE_DIGIT
        max_len = self.max_len
        union = self._union
        index = self.index
        by_first: Dict[int, List[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]]] = {}
        for rho in self.rotations:
            swaps = [_invert_digits(rho[j:]) for j in range(1, len(rho) + 1)]
            by_first.setdefault(rho[0], []).append((rho, swaps))
        empty: Tuple = ()
        for length in range(1, max_len + 1):
            base = self.offsets[length]
            for counter, word in enumerate(
                itertools.product((0, 1, 2, 3), repeat=length)
            ):
                idx = base + counter
                for i in range(length - 1):
                    if word[i + 1] == inv[word[i]]:
                        union(idx, index(word[:i] + word[i + 2 :]))
                for i in range(length):
                    for rho, swaps in by_first.get(word[i], empty):
                        rho_len = len(rho)
                        upper = min(rho_len, length - i)
                        j = 1
                        while True:
                            if length + rho_len - 2 * j <= max_len:
                                union(
                                    idx,
                                    index(word[:i] + swaps[j - 1] + word[i + j :]),
                                )
                            if j >= upper or word[i + j] != rho[j]:
                                break
                            j += 1


def all_words(max_len: int) -> Iterable[Tuple[int, ...]]:
    for length in range(max_len + 1):
        yield from itertools.product((0, 1, 2, 3), repeat=length)


# ---------------------------------------------------------------------------
# Reference ball builder
# ---------------------------------------------------------------------------
#
# The straightforward two-pass breadth-first search: first discover every
# vertex up to the radius, expanding each layer in id order and the letters
# in the given order, then give every vertex one adjacency row by applying
# each letter again.  Letter steps go through group.multiply with the
# one-letter elements, not through apply_letter on arbitrary elements, so a
# fast letter step or a one-pass builder is checked against independent
# arithmetic.


class ReferenceOverflow(Exception):
    """The reference builder passed its vertex budget."""

    def __init__(self, layer: int, count: int):
        super().__init__(f"layer {layer}, count {count}")
        self.layer = layer
        self.count = count


def reference_ball(
    group, letters: Sequence[int], radius: int, max_vertices: Optional[int] = None
):
    """(elements, dist, adj) of the radius ball, numbered in BFS order."""
    step = {letter: group.evaluate_word((letter,)) for letter in letters}
    elements = [group.identity()]
    index = {elements[0]: 0}
    dist = [0]
    layer_start = 0
    for d in range(1, radius + 1):
        layer_end = len(elements)
        for vid in range(layer_start, layer_end):
            a = elements[vid]
            for letter in letters:
                b = group.multiply(a, step[letter])
                if b not in index:
                    index[b] = len(elements)
                    elements.append(b)
                    dist.append(d)
                    if max_vertices is not None and len(elements) > max_vertices:
                        raise ReferenceOverflow(d, len(elements))
        layer_start = layer_end
        if layer_start == len(elements):
            break
    adj = []
    for a in elements:
        row = []
        for letter in letters:
            other = index.get(group.multiply(a, step[letter]))
            if other is not None:
                row.append((letter, other))
        adj.append(tuple(row))
    return elements, dist, adj


#: One group per family, plus negative BS exponents and HNN matrices whose
#: image lattice is not diagonal.
REFERENCE_GROUPS = (
    "free:1",
    "free:2",
    "abelian:1",
    "abelian:3",
    "bs:1,2",
    "bs:2,3",
    "bs:-2,3",
    "bs:3,-2",
    "hnn:1,3",
    "hnn:2,0 1;2 1",
    "hnn:2,2 1;0 2",
)


# ---------------------------------------------------------------------------
# Coset labelling by a direct sweep
# ---------------------------------------------------------------------------
#
# One coset key per ball vertex, cosets numbered in order of their first
# vertex: the labelling each analysis once recomputed for itself, and which
# a coset patch now holds once for all of them.


def coset_sweep(keys: Sequence) -> Tuple[List, List[int]]:
    """(distinct keys in order of first vertex, coset id of every vertex)."""
    ids: Dict = {}
    coset_of = [ids.setdefault(key, len(ids)) for key in keys]
    return list(ids), coset_of


def reference_word_classes(ball, group, words) -> List[int]:
    """Per ball vertex, the least vertex of its class: the classes join a
    and a*w for each generator word w or its inverse whose every prefix
    stays in the ball, and are read off a queue search per class."""
    step = {l: group.evaluate_word((l,)) for l in ball.letters}
    moves = [tuple(w) for w in words] + [tuple(-l for l in reversed(w)) for w in words]
    index = {a: v for v, a in enumerate(ball.elements)}

    def translates(v: int) -> Iterable[int]:
        for word in moves:
            a = ball.elements[v]
            for letter in word:
                a = group.multiply(a, step[letter])
                if a not in index:
                    break
            else:
                yield index[a]

    joined: Dict[int, List[int]] = {}
    for v in range(ball.n_vertices):
        for w in translates(v):
            joined.setdefault(v, []).append(w)
            joined.setdefault(w, []).append(v)
    least = [-1] * ball.n_vertices
    for v in range(ball.n_vertices):
        if least[v] < 0:
            least[v] = v
            queue = deque([v])
            while queue:
                for w in joined.get(queue.popleft(), ()):
                    if least[w] < 0:
                        least[w] = v
                        queue.append(w)
    return least


# ---------------------------------------------------------------------------
# Rays by a greedy walk from every vertex
# ---------------------------------------------------------------------------
#
# Shells are queue-search distances from the base (-1 where unreached).
# From each vertex, step to the least neighbour one shell deeper until the
# horizon or a vertex with no deeper neighbour: each ray walked on its own.


def reference_rays(neighbors, n: int, base: int) -> Tuple[List[int], List[Tuple[int, ...]]]:
    """(shell, rays) of the graph on vertices 0..n-1."""
    shell = [-1] * n
    shell[base] = 0
    queue = deque([base])
    while queue:
        v = queue.popleft()
        for w in neighbors(v):
            if shell[w] < 0:
                shell[w] = shell[v] + 1
                queue.append(w)
    horizon = max(shell)
    rays = []
    for v in range(len(shell)):
        path = [v]
        u = v
        while shell[u] < horizon:
            outward = [w for w in neighbors(u) if shell[w] == shell[u] + 1]
            if not outward:
                break
            u = min(outward)
            path.append(u)
        rays.append(tuple(path))
    return shell, rays


# ---------------------------------------------------------------------------
# Coset graphs from a walk over every ball edge
# ---------------------------------------------------------------------------
#
# Each ball edge (v, letter, w) whose letter is not a Q-letter and whose ends
# lie in different cosets gives the coset edge (coset of v, letter, coset of
# w); the coset graph is the set of these, each coset's row sorted by letter,
# then coset.


class ReferenceCosetGraph:
    """Per coset, its (letter, coset) edges; ``edges`` as on a ball."""

    def __init__(self, triples: Iterable[Tuple[int, int, int]]):
        self.rows: Dict[int, List[Tuple[int, int]]] = {}
        for c, letter, d in sorted(triples):
            self.rows.setdefault(c, []).append((letter, d))

    def edges(self, c: int) -> List[Tuple[int, int]]:
        return self.rows.get(c, [])

    def neighbors(self, c: int) -> List[int]:
        return sorted({d for _, d in self.edges(c)})


def reference_coset_graph(ball, coset_of: Sequence[int], q_letters) -> ReferenceCosetGraph:
    inside = set(q_letters)
    triples = set()
    for v in range(ball.n_vertices):
        for letter, w in ball.edges(v):
            if letter not in inside and coset_of[v] != coset_of[w]:
                triples.add((coset_of[v], letter, coset_of[w]))
    return ReferenceCosetGraph(triples)


# ---------------------------------------------------------------------------
# Coset keys formatted from the normal form
# ---------------------------------------------------------------------------
#
# The byte key of a*Q written family by family from a's normal form, with no
# intermediate label: a free word loses its trailing x1-letters, an abelian
# vector its first coordinate; a bs form keeps its head, every syllable but
# the last and the last t-sign; an hnn form (p, v1, ..., vk, q) keeps v
# modulo M^q Z^k, for which the caller passes the reducer.  Q gets the empty key.


def formatted_coset_key(family: str, a, reduce_mod_image=None) -> bytes:
    if family == "free":
        end = len(a)
        while end and abs(a[end - 1]) == 1:
            end -= 1
        return ",".join(str(letter) for letter in a[:end]).encode()
    if family == "abelian":
        rest = a[1:]
        return ",".join(str(x) for x in rest).encode() if any(rest) else b""
    if family == "bs":
        # a = (head, s1, e1, ..., sj, ej); Q is the forms with no syllable
        if len(a) == 1:
            return b""
        parts = [str(a[0])]
        for i in range(1, len(a), 2):
            mark = "+" if a[i] > 0 else "-"
            parts.append(f"{mark}{a[i + 1]}" if i < len(a) - 2 else mark)
        return "|".join(parts).encode()
    p, v, q = a[0], a[1:-1], a[-1]
    if p == 0 and q == 0:
        return b""
    residue = ",".join(str(x) for x in reduce_mod_image(v, q))
    return f"{p}|{residue}|{q}".encode()


# ---------------------------------------------------------------------------
# Hausdorff profiles from whole-ball searches
# ---------------------------------------------------------------------------
#
# A queue search over the ball's edges from every vertex of one coset, run
# until the ball is exhausted, gives each vertex's distance from that coset
# inside the ball.  The value at radius r is the largest such distance over
# the other coset's vertices within r.  The two cosets come from the caller
# as vertex lists, so no coset labelling is trusted here.


def queue_distances(ball, sources: Iterable[int]) -> Dict[int, int]:
    """Distance inside the ball (or any graph with ``edges``) from the
    sources to every vertex reached."""
    depth: Dict[int, int] = {}
    queue = deque()
    for s in sources:
        if s not in depth:
            depth[s] = 0
            queue.append(s)
    while queue:
        v = queue.popleft()
        for _, w in ball.edges(v):
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    return depth


def reference_profile(ball, q_members, g_members, radii):
    """[(r, k_forward, k_backward)] per radius, or the reason there is none.

    The reason is "trusted" when gQ has no vertex off the rim, "radius r"
    when it has none within r, and "disconnected" when a search misses a
    vertex it should measure.
    """
    if not g_members or min(ball.dist[v] for v in g_members) > ball.radius - 1:
        return "trusted"
    to_g = queue_distances(ball, g_members)
    to_q = queue_distances(ball, q_members)
    values = []
    for r in radii:
        forward = [to_g.get(v) for v in q_members if ball.dist[v] <= r]
        backward = [to_q.get(v) for v in g_members if ball.dist[v] <= r]
        if not backward:
            return f"radius {r}"
        if None in forward or None in backward:
            return "disconnected"
        values.append((r, max(forward), max(backward)))
    return values


# ---------------------------------------------------------------------------
# Brute-force Hausdorff distances in Z^2 and F_2
# ---------------------------------------------------------------------------
#
# Each group gets its own arithmetic here: Z^2 as integer pairs with the l1
# word length, F_2 as freely reduced words over the letters +-1, +-2, whose
# word length is their length.  Q is the cyclic subgroup of the first
# generator.  The distance from a to a coset is the least word length of
# a^-1 b over the coset's elements b of a ball large enough to hold a nearest
# one, and the Hausdorff values are maxima of such distances.


class Z2:
    @staticmethod
    def evaluate(word: Iterable[int]) -> Tuple[int, int]:
        a = [0, 0]
        for letter in word:
            a[abs(letter) - 1] += 1 if letter > 0 else -1
        return (a[0], a[1])

    @staticmethod
    def mul(a: Tuple[int, int], b: Tuple[int, int]) -> Tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    @staticmethod
    def inv(a: Tuple[int, int]) -> Tuple[int, int]:
        return (-a[0], -a[1])

    @staticmethod
    def length(a: Tuple[int, int]) -> int:
        return abs(a[0]) + abs(a[1])


class F2:
    @staticmethod
    def evaluate(word: Iterable[int]) -> Tuple[int, ...]:
        out: List[int] = []
        for letter in word:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    @classmethod
    def mul(cls, a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
        return cls.evaluate(a + b)

    @staticmethod
    def inv(a: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(-letter for letter in reversed(a))

    @staticmethod
    def length(a: Tuple[int, ...]) -> int:
        return len(a)


def coset_elements(model, g, radius: int) -> List:
    """The elements g * x1^n of word length at most radius."""
    bound = radius + model.length(g)  # |g x1^n| >= |n| - |g|
    out = []
    for n in range(-bound, bound + 1):
        b = model.mul(g, model.evaluate((1 if n > 0 else -1,) * abs(n)))
        if model.length(b) <= radius:
            out.append(b)
    return out


def brute_hausdorff(model, g, r: int, reach: int) -> Tuple[int, int]:
    """(k_forward, k_backward) between Q and gQ at radius r.

    Points of either coset within radius r are measured against the other
    coset's elements within radius reach.
    """

    def gap(a, coset) -> int:
        a_inv = model.inv(a)
        return min(model.length(model.mul(a_inv, b)) for b in coset)

    ident = model.evaluate(())
    gq_far = coset_elements(model, g, reach)
    q_far = coset_elements(model, ident, reach)
    k_forward = max(gap(a, gq_far) for a in coset_elements(model, ident, r))
    k_backward = max(gap(b, q_far) for b in coset_elements(model, g, r))
    return k_forward, k_backward


# ---------------------------------------------------------------------------
# Shortest routes by a forward parent map
# ---------------------------------------------------------------------------
#
# Each vertex records the vertex and letter that discovered it, and the
# search stops at the first target it discovers.  The package finds the same
# route from the BFS layers up to the target's, stepping back through the
# first vertex of each earlier layer with an edge to the current one.


def reference_route(
    ball,
    start: int,
    allowed: Callable[[int], bool],
    is_target: Callable[[int], bool],
) -> Optional[Tuple[int, ...]]:
    """Letters of a shortest allowed path from start to a target, or None."""
    if is_target(start):
        return ()
    parent: dict = {start: (-1, 0)}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for letter, w in ball.edges(v):
                if w in parent or not allowed(w):
                    continue
                parent[w] = (v, letter)
                if is_target(w):
                    letters: List[int] = []
                    u = w
                    while u != start:
                        u, letter_in = parent[u]
                        letters.append(letter_in)
                    return tuple(reversed(letters))
                nxt.append(w)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# Q-walks that carry their walks, and stars grown as sets
# ---------------------------------------------------------------------------
#
# The Q-walk extends each vertex's walk by one letter as it discovers a
# neighbour, trying Q-letters in sorted order from each vertex of a layer in
# turn, and never expands a rim vertex.  The ladder and the lift string such
# walks together on ball slots.  The star grows a vertex set one frontier at a time.


def reference_q_walk(
    ball,
    qlets: Sequence[int],
    start: int,
    hit: Callable[[int], Optional[int]],
    max_len: int,
) -> Tuple[Optional[Tuple[Tuple[int, ...], int]], bool]:
    """((walk, result vertex) of the first hit, or None; saw_rim)."""
    ordered = sorted(qlets)
    seen = {start}
    layer: List[Tuple[int, Tuple[int, ...]]] = [(start, ())]
    saw_rim = False
    depth = 0
    while True:
        for w, walk in layer:
            if not ball.complete(w):
                saw_rim = True
            end = hit(w)
            if end is not None:
                return (walk, end), saw_rim
        depth += 1
        if depth > max_len:
            return None, saw_rim
        nxt: List[Tuple[int, Tuple[int, ...]]] = []
        for w, walk in layer:
            if not ball.complete(w):
                continue
            for letter in ordered:
                nb = ball.neighbor(w, letter)
                if nb is None or nb in seen:
                    continue
                seen.add(nb)
                nxt.append((nb, walk + (letter,)))
        if not nxt:
            return None, saw_rim
        layer = nxt


def reference_ladder(
    ball,
    qlets: Sequence[int],
    prefix: Sequence[int],
    crossing: int,
    f_bound: int,
    m: int,
    key: Callable,
) -> Tuple[Optional[Dict[str, tuple]], bool]:
    """(the ladder's fields, or None where the ball refuses; touched_rim).

    The ladder is walked on ball slots: the prefix from vertex 0, from each
    of its vertices a transfer Q-walk of length < f_bound to a crossing edge
    whose far end shares the first landing's coset key (key maps an element
    to its key), and between consecutive landings a Q-walk of length <= m.
    touched_rim says the prefix left the ball or some search tested a rim
    vertex, which may change its walk.
    """
    vids = [0]
    for letter in prefix:
        nb = ball.neighbor(vids[-1], letter)
        if nb is None:
            return None, True
        vids.append(nb)
    elements = ball.elements
    target = None

    def crosses(w: int) -> Optional[int]:
        nb = ball.neighbor(w, crossing)
        if nb is None or (target is not None and key(elements[nb]) != target):
            return None
        return nb

    touched = False
    alphas, transfer_ends, rung_ends = [], [], []
    for v in vids:
        found, rim = reference_q_walk(ball, qlets, v, crosses, f_bound - 1)
        touched |= rim
        if found is None:
            return None, touched
        alpha, landing = found
        if target is None:
            target = key(elements[landing])
        w = v
        for letter in alpha:
            w = ball.neighbor(w, letter)
        alphas.append(alpha)
        transfer_ends.append(elements[w])
        rung_ends.append(landing)
    rungs = []
    for here, goal in zip(rung_ends, rung_ends[1:]):
        found, rim = reference_q_walk(
            ball, qlets, here, lambda w: w if w == goal else None, m
        )
        touched |= rim
        if found is None:
            return None, touched
        rungs.append(found[0])
    fields = {
        "target_key": target,
        "prefix_elements": tuple(elements[v] for v in vids),
        "transfer_ends": tuple(transfer_ends),
        "rung_ends": tuple(elements[v] for v in rung_ends),
        "alphas": tuple(alphas),
        "rungs": tuple(rungs),
    }
    return fields, touched


def reference_lift(
    ball,
    coset_of: Sequence[int],
    qlets: Sequence[int],
    lpath,
    base: int,
    f: Dict[int, int],
) -> Tuple[Optional[Dict[str, tuple]], bool]:
    """(the lift's fields, or None where the ball refuses; touched_rim).

    The lift is walked on ball slots: from base, before each letter s of the
    coset-graph path, a transfer Q-walk of length < f[s] to a vertex whose
    s-edge lands in the path's next coset (coset_of maps a vertex to its
    coset).  touched_rim says some search tested a rim vertex, which may
    change its walk.
    """
    touched = False
    u = base
    blocks = []
    for s, target in zip(lpath.letters, lpath.cosets[1:]):

        def crosses(w: int) -> Optional[int]:
            nb = ball.neighbor(w, s)
            return nb if nb is not None and coset_of[nb] == target else None

        found, rim = reference_q_walk(ball, qlets, u, crosses, f[s] - 1)
        touched |= rim
        if found is None:
            return None, touched
        alpha, u = found
        blocks.append(alpha)
    fields = {
        "blocks": tuple(blocks),
        "letters": tuple(lpath.letters),
        "end": ball.elements[u],
    }
    return fields, touched


def reference_star(ball, seeds: Iterable[int], n: int) -> Tuple[frozenset, bool]:
    """(vertices within n of the seeds, whether a vertex closer than n is on the rim)."""
    current = set(seeds)
    frontier = set(current)
    clipped = False
    for _ in range(n):
        next_frontier = set()
        for v in frontier:
            if not ball.complete(v):
                clipped = True
            for _, other in ball.edges(v):
                if other not in current:
                    next_frontier.add(other)
        current |= next_frontier
        frontier = next_frontier
        if not frontier:
            break
    return frozenset(current), clipped


# ---------------------------------------------------------------------------
# Annulus components by one search per annulus
# ---------------------------------------------------------------------------
#
# The end counts as the package first took them: for each annulus
# r <= dist <= R on its own, the components reached by a queue search that
# stays inside the annulus, counted when they hold a vertex at dist == R.
# The package instead grows one union-find per outer radius inward.


def reference_annulus_counts(
    dist: Sequence[int], neighbors: Callable[[int], Iterable[int]], schedule
) -> Tuple[int, ...]:
    counts = []
    for r, R in schedule:
        seen = set()
        touching = 0
        for start, d in enumerate(dist):
            if not r <= d <= R or start in seen:
                continue
            seen.add(start)
            queue = deque([start])
            on_sphere = False
            while queue:
                v = queue.popleft()
                on_sphere = on_sphere or dist[v] == R
                for w in neighbors(v):
                    if w not in seen and r <= dist[w] <= R:
                        seen.add(w)
                        queue.append(w)
            touching += on_sphere
        counts.append(touching)
    return tuple(counts)
