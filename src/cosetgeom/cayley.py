"""Finite-radius balls in the word metric, with deterministic numbering.

A Ball is the induced subgraph on all elements of word length at most R.
Vertex ids follow breadth-first discovery order: frontier vertices are
expanded in increasing id and letters are applied in the group spec's
canonical order, so two builds of the same scenario are identical byte for
byte.
Vertices at distance exactly R have incomplete adjacency; everything
strictly inside is complete.

Adjacency is one flat int array with a slot per (vertex, letter): slot
``vid * n_letters + i`` holds the neighbour across the i-th letter of
``spec.letters``, or NO_EDGE where that neighbour lies outside the ball.
Distances are one byte each while the radius stays below 256.

A built ball keeps the list and the dict its BFS filled as its elements
and vertex index.  A ball loaded from a cache file keeps its normal forms
packed in one int arena and decodes a form when it is read (PackedForms);
every family's form is one flat int tuple, so the arena holds the forms
exactly as the group makes them, and a decoded form is the element itself.
It builds its vertex index on its first lookup, so a run that never
looks an element up never pays for it.
"""

from __future__ import annotations

import gc
import json
import marshal
import os
import sys
import threading
from array import array
from contextlib import contextmanager
from functools import cached_property
from itertools import accumulate, chain, islice
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .errors import BallOverflowError, ConfigError, InsufficientRadiusError
from .groups import (
    FAMILY_ABELIAN,
    FAMILY_BS,
    FAMILY_HNN,
    Element,
    GroupSpec,
    Word,
    group_for,
    parse_group_spec,
)

# _blake2 is imported by the cache-file functions only (_digest), so a run
# without a cache directory never loads it; struct and mmap only by a load.

#: Sentinel distance for vertices a BFS never reached.
UNREACHED = -1

#: Adjacency slot of a rim vertex whose neighbour lies outside the ball.
NO_EDGE = -1

DEFAULT_VERTEX_BUDGET = 5_000_000

BALL_FORMAT = "cosetgeom.ball.v4"

#: Typecodes of a packed form arena, narrowest first.
FORM_TYPECODES = ("h", "i", "q")


def _dist_array(radius: int) -> array:
    return array("B" if radius < 256 else "i")


class PackedForms:
    """The normal forms of a loaded ball, decoded from one packed int arena.

    Vertex v's form is the next lengths[v] ints of the arena, whose array
    typecode is typecode.  The sequence offers len, [v] and iteration only,
    and each read decodes with one struct per form length, so it makes a
    tuple per form read and keeps none.  heads() reads the forms less their
    last int as undecoded bytes.
    """

    def __init__(self, typecode: str, lengths: bytes, arena: bytes):
        import struct

        self.typecode = typecode
        self.lengths = lengths
        self.arena = arena
        self.itemsize = struct.calcsize(typecode)
        self._structs = {n: struct.Struct(f"{n}{typecode}") for n in set(lengths)}

    def __len__(self) -> int:
        return len(self.lengths)

    @cached_property
    def _starts(self) -> array:
        """The arena offset of each form, in ints, built on first random read."""
        return array("q", accumulate(self.lengths, initial=0))

    def __getitem__(self, v: int) -> Element:
        if not 0 <= v < len(self.lengths):
            raise IndexError(f"vertex {v} not in ball")
        n = self.lengths[v]
        start = v * n if len(self._structs) == 1 else self._starts[v]
        return self._structs[n].unpack_from(self.arena, start * self.itemsize)

    def __iter__(self) -> Iterator[Element]:
        # iter_unpack reads forms of one length in C, but refuses length 0
        if len(self._structs) == 1 and 0 not in self._structs:
            (fixed,) = self._structs.values()
            return fixed.iter_unpack(self.arena)
        return self._walk()

    def heads(self) -> Iterator[bytes]:
        """Each form less its last int, as the arena's bytes, in vertex order."""
        arena, size, start = self.arena, self.itemsize, 0
        for n in self.lengths:
            yield arena[start : start + (n - 1) * size]
            start += n * size

    def _walk(self) -> Iterator[tuple]:
        arena, size, start = self.arena, self.itemsize, 0
        unpack = {n: s.unpack_from for n, s in self._structs.items()}
        for n in self.lengths:
            yield unpack[n](arena, start)
            start += n * size


class Ball:
    """The ball B(radius) of a group: elements in discovery order, their
    ids in index, their distances in dist and the adjacency slots in adj.

    elements is the BFS list of a built ball and the PackedForms of a
    loaded one.  index may be passed in, as a build does; otherwise it is
    built from elements on first read, as for a loaded ball.
    """

    def __init__(
        self,
        spec: GroupSpec,
        radius: int,
        elements: Sequence[Element],
        dist: array,
        adj: array,
        index: Optional[Dict[Element, int]] = None,
    ):
        self.spec = spec
        self.radius = radius
        self.elements = elements
        self.dist = dist
        self.adj = adj
        self.letters: Tuple[int, ...] = spec.letters
        self._slot = {letter: i for i, letter in enumerate(self.letters)}
        if index is not None:
            self.index = index

    @cached_property
    def index(self) -> Dict[Element, int]:
        return dict(zip(self.elements, range(len(self.elements))))

    @property
    def n_vertices(self) -> int:
        return len(self.elements)

    def sphere_sizes(self) -> List[int]:
        sizes = [0] * (self.radius + 1)
        for d in self.dist:
            sizes[d] += 1
        return sizes

    def complete(self, vid: int) -> bool:
        """True when every group neighbor of the vertex is inside the ball."""
        return self.dist[vid] < self.radius

    def vertex(self, a: Element) -> Optional[int]:
        return self.index.get(a)

    def neighbor(self, vid: int, letter: int) -> Optional[int]:
        other = self.adj[vid * len(self.letters) + self._slot[letter]]
        return None if other == NO_EDGE else other

    def neighbors(self, vid: int) -> List[int]:
        """The vertex's in-ball neighbours, in letter order."""
        k = len(self.letters)
        return [other for other in self.adj[vid * k : vid * k + k] if other != NO_EDGE]

    def edges(self, vid: int) -> Iterator[Tuple[int, int]]:
        """(letter, neighbour) for each in-ball edge, in letter order."""
        k = len(self.letters)
        start = vid * k
        for letter, other in zip(self.letters, self.adj[start : start + k]):
            if other != NO_EDGE:
                yield letter, other


@contextmanager
def _collector_paused():
    """Pause the cyclic collector, then put it back as it was.

    Building, writing and reading a ball allocate one container or more per
    vertex and free none of them, so a collection meanwhile could only
    rescan what was just made.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def build_ball(
    spec: GroupSpec, radius: int, max_vertices: int = DEFAULT_VERTEX_BUDGET
) -> Ball:
    """The ball of the given radius; raises BallOverflowError past the budget."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if max_vertices < 1:
        raise ValueError("vertex budget must be at least 1")
    with _collector_paused():
        return _bfs_ball(spec, radius, max_vertices)


def _bfs_ball(spec: GroupSpec, radius: int, max_vertices: int) -> Ball:
    g = group_for(spec)
    apply_letter = g.apply_letter
    letters = spec.letters
    k = len(letters)
    slot_of = {letter: i for i, letter in enumerate(letters)}
    back = [slot_of[-letter] for letter in letters]
    elements: List[Element] = [g.identity()]
    index: Dict[Element, int] = {g.identity(): 0}
    dist = _dist_array(radius)
    dist.append(0)
    blank = array("i", [NO_EDGE]) * k
    adj = array("i", blank)
    count = 1
    layer_start = 0
    # Layer d-1 is expanded at step d, the rim (d = radius + 1) without
    # adding vertices.  An edge v -l-> w found from v is written at both
    # ends, since w.l^-1 = v, so a slot already set needs no group step;
    # skipping only known vertices keeps the discovery order.  An expanded
    # vertex has all its neighbours in layers d-2..d, so its slots are
    # complete once its letters are applied.
    for d in range(1, radius + 2):
        layer_end = count
        for vid in range(layer_start, layer_end):
            a = elements[vid]
            base = vid * k
            for i, letter in enumerate(letters):
                if adj[base + i] != NO_EDGE:
                    continue
                b = apply_letter(a, letter)
                other = index.get(b)
                if other is None:
                    if d > radius:
                        continue  # the rim keeps only its edges inside the ball
                    other = index[b] = count
                    elements.append(b)
                    dist.append(d)
                    adj.extend(blank)
                    count += 1
                    if count > max_vertices:
                        raise BallOverflowError(d, count, max_vertices)
                adj[base + i] = other
                adj[other * k + back[i]] = vid
        layer_start = layer_end
        if layer_start == count:
            break  # no vertex left to expand: the rim, or the whole group, is done
    return Ball(spec=spec, radius=radius, elements=elements, index=index, dist=dist, adj=adj)


def bfs_layers(
    neighbors: Callable[[Hashable], Iterable[Hashable]], sources: Iterable[Hashable]
) -> Iterator[list]:
    """Vertices reached from the sources, one list per edge distance.

    Vertices are any hashable values: ball ids, coset ids or normal forms.
    Layer 0 holds the sources in the order given, and each later layer its
    vertices in discovery order.  Each layer is yielded before the next is
    searched, so a caller that stops asking stops the search.  neighbors
    may yield NO_EDGE, which is skipped, so a ball's adjacency slots can be
    passed as stored.  Callers restrict the search inside neighbors.
    """
    seen = {NO_EDGE}
    layer = []
    for v in sources:
        if v not in seen:
            seen.add(v)
            layer.append(v)
    while layer:
        yield layer
        nxt = []
        for v in layer:
            for w in neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        layer = nxt


def walk_back(
    layers: Sequence[list],
    w: Hashable,
    edges: Callable[[Hashable], Iterable[Tuple[int, Hashable]]],
) -> Tuple[int, ...]:
    """Letters of the search walk from layer 0 to w, a vertex of the last layer.

    edges(u) yields u's search edges as (letter, vertex) in search order.
    Each step back goes to the first vertex of the layer before with a
    search edge to the current vertex, which is the vertex that discovered
    it, across that vertex's first such edge.
    """
    letters = []
    for layer in reversed(layers[:-1]):
        letter, w = next((l, u) for u in layer for l, x in edges(u) if x == w)
        letters.append(letter)
    return tuple(reversed(letters))


def first_hit(
    start: Hashable,
    steps: Callable[[Hashable], Sequence[Tuple[int, Hashable]]],
    hit: Callable[[Hashable], Optional[Hashable]],
    max_len: int,
) -> Tuple[Optional[Tuple[Tuple[int, ...], Hashable]], List[list]]:
    """The first hit in discovery order of a search from start, with its walk.

    steps(u) gives u's search edges as (letter, vertex) in search order, so
    the walk is a shortest one with the earliest letters first.  hit(w)
    names the result vertex at w (w itself for a goal, the landing vertex
    across a crossing edge) or None.  The walk has length at most max_len.
    Returns ((walk, result vertex) or None, the layers searched).
    """
    layers: List[list] = []
    for layer in bfs_layers(lambda u: [w for _, w in steps(u)], [start]):
        layers.append(layer)
        for w in layer:
            end = hit(w)
            if end is not None:
                return (walk_back(layers, w, steps), end), layers
        if len(layers) > max_len:
            break
    return None, layers


def bfs_distances(
    neighbors: Callable[[int], Iterable[int]], n: int, sources: Iterable[int]
) -> List[int]:
    """Edge distance from the sources of each vertex, UNREACHED if never reached.

    Vertex ids lie in 0..n-1; neighbors and sources are as for bfs_layers.
    """
    out = [UNREACHED] * n
    for d, layer in enumerate(bfs_layers(neighbors, sources)):
        for v in layer:
            out[v] = d
    return out


class StarResult(NamedTuple):
    vertices: frozenset
    clipped: bool


def star(ball: Ball, seeds: Iterable[int], n: int) -> StarResult:
    """Vertices within edge distance n of the seed set, clipped to the ball.

    clipped says a vertex closer than n to the seeds lies on the rim, so
    the star may miss vertices outside the ball.
    """
    if n < 0:
        raise ValueError("star radius must be nonnegative")
    seeds = list(seeds)
    for v in seeds:
        if not (0 <= v < ball.n_vertices):
            raise InsufficientRadiusError(f"seed vertex {v} not in ball")
    layers = list(islice(bfs_layers(ball.neighbors, seeds), n + 1))
    return StarResult(
        vertices=frozenset(v for layer in layers for v in layer),
        clipped=any(not ball.complete(v) for layer in layers[:n] for v in layer),
    )


class PathInBall(NamedTuple):
    """An edge path given by a start vertex and a letter word."""

    base: int
    word: Word


def walk_path(ball: Ball, path: PathInBall) -> List[int]:
    """Vertex ids visited by the path; raises if it leaves the ball."""
    if not (0 <= path.base < ball.n_vertices):
        raise InsufficientRadiusError(f"base vertex {path.base} not in ball")
    g = group_for(ball.spec)
    vids = [path.base]
    a = ball.elements[path.base]
    for letter in path.word:
        a = g.apply_letter(a, letter)
        vid = ball.vertex(a)
        if vid is None:
            raise InsufficientRadiusError(
                f"path leaves the radius-{ball.radius} ball"
            )
        vids.append(vid)
    return vids


# ---------------------------------------------------------------------------
# Serialization and caching
# ---------------------------------------------------------------------------


def _digest(data) -> str:
    """The 256-bit BLAKE2b digest of data, in hex.

    It comes from CPython's built-in _blake2, not hashlib, whose import
    maps OpenSSL's libcrypto (about 3.4 MB of every cached run's peak) for
    this one hash.
    """
    try:
        from _blake2 import blake2b
    except ImportError:  # an interpreter built without the module
        from hashlib import blake2b
    return blake2b(data, digest_size=32).hexdigest()


@contextmanager
def _replacing(path: str, mode: str):
    """A file object on a temp file beside path, renamed onto path when the
    block ends and removed if it raises, so a reader sees either the old
    file or the whole new one, even when runs race or one is interrupted.
    A symlink is followed, so the file it names is the one replaced.  A path
    that exists but is no regular file, such as a pipe or /dev/stdout, is
    written through, since a rename would replace it."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        fh = open(tmp, mode)
    except OSError as exc:  # name the file asked for, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _packed_forms(ball: Ball) -> Tuple[str, bytes, array]:
    """(typecode, lengths, arena) of the ball's normal forms, as saved.

    The arena takes the narrowest typecode of FORM_TYPECODES that holds
    every value.  Raises OverflowError when none does, or when a form has
    more than 255 ints.
    """
    elements = ball.elements
    if isinstance(elements, PackedForms):
        return elements.typecode, elements.lengths, elements.arena
    try:
        lengths = bytes(map(len, elements))
    except ValueError:
        raise OverflowError("a normal form has more than 255 ints") from None

    # one pass into a list, which array() converts faster than an iterator
    flat = list(chain.from_iterable(elements))
    for typecode in FORM_TYPECODES:
        try:
            return typecode, lengths, array(typecode, flat)
        except OverflowError:
            pass  # widen
    raise OverflowError("a normal form holds an int wider than 64 bits")


def save_ball(ball: Ball, path: str) -> None:
    """Write the ball to a temp file beside path, then rename it into place.

    The file is one ASCII JSON header line, then the body
    ``marshal.dumps((typecode, lengths, arena, dist, adj), 2)``, whose last
    four fields marshal writes as bytes: each form's int count, the forms
    packed one after the other (_packed_forms), the distances and the
    adjacency slots.  Version 2 has no shared-object references, whose
    placement in later versions depends on reference counts, so a ball
    always gives the same bytes.  The header names the format, byte order,
    group, radius and vertex count, and holds the body's 256-bit BLAKE2b
    digest (_digest).  Raises OverflowError, and writes nothing, for a ball
    whose forms do not pack.
    """
    with _collector_paused():
        typecode, lengths, arena = _packed_forms(ball)
        with _replacing(path, "wb") as fh:
            body = marshal.dumps((typecode, lengths, arena, ball.dist, ball.adj), 2)
            header = {
                "blake2b": _digest(body),
                "byteorder": sys.byteorder,
                "format": BALL_FORMAT,
                "group": ball.spec.describe(),
                "n": ball.n_vertices,
                "radius": ball.radius,
            }
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
            fh.write(b"\n")
            fh.write(body)


def _check_forms(spec: GroupSpec, radius: int, forms: PackedForms) -> None:
    """Raise ValueError unless every form length suits the family, the
    lengths add up to the arena and no two forms share their bytes.

    Repeats are found through an open-addressing table keyed by each form's
    hash and at most half full, whose slots hold a form's offset and length
    in one int, so the check keeps 16 to 32 bytes per vertex, not a bytes
    object and a set entry.
    """
    lengths, arena, size = forms.lengths, forms.arena, forms.itemsize
    widths = set(lengths)
    if spec.family in (FAMILY_ABELIAN, FAMILY_HNN):  # fixed width, the identity's
        valid = widths <= {len(group_for(spec).identity())}
    elif spec.family == FAMILY_BS:
        valid = all(n % 2 for n in widths)
    else:  # a reduced word is as long as its distance
        valid = max(widths, default=0) <= radius
    if not valid:
        raise ValueError("ball file form length does not suit its group")
    if sum(lengths) * size != len(arena):
        raise ValueError("ball file form lengths do not add up to the arena")
    mask = (1 << (2 * len(lengths)).bit_length()) - 1
    slots, start = array("q", [-1]) * (mask + 1), 0
    for n in lengths:
        end = start + n * size
        row = arena[start:end]
        h = hash(row) & mask
        while slots[h] != -1:  # a slot holds offset << 8 | length
            at, width = divmod(slots[h], 256)
            if width == n and arena[at : at + n * size] == row:
                raise ValueError("ball file repeats a vertex")
            h = (h + 1) & mask
        slots[h] = start << 8 | n
        start = end


def load_ball(path: str) -> Ball:
    """Read a ball file; raises ValueError for a file of the wrong shape.

    The body is hashed before it is unmarshalled, so a truncated or corrupt
    file never reaches marshal.  It is read through a read-only mapping, not
    copied onto the heap; save_ball only renames whole files into place, so
    a mapped file never shrinks under its reader.  The forms stay packed in
    the arena the file holds, and the vertex index is left to the ball to
    build on its first lookup.
    """
    import mmap

    with open(path, "rb") as fh, _collector_paused():
        header = json.loads(fh.readline())
        if not isinstance(header, dict) or header.get("format") != BALL_FORMAT:
            raise ValueError("not a ball file of format " + BALL_FORMAT)
        if header.get("byteorder") != sys.byteorder:
            raise ValueError("ball file written in another byte order")
        radius, n = header.get("radius"), header.get("n")
        # type, not isinstance: a JSON true or false is an int subclass
        if not (type(radius) is int and type(n) is int):
            raise ValueError("ball file radius or size is not an integer")
        try:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                with memoryview(mapped)[fh.tell() :] as body:
                    if header.get("blake2b") != _digest(body):
                        raise ValueError("ball file body does not match its digest")
                    typecode, lengths, arena, dist_bytes, adj_bytes = marshal.loads(body)
            spec = parse_group_spec(header.get("group"))
        except (ConfigError, EOFError, TypeError) as exc:
            raise ValueError(f"malformed ball file: {exc!r}") from None
        fields = (lengths, arena, dist_bytes, adj_bytes)
        if typecode not in FORM_TYPECODES or {type(f) for f in fields} != {bytes}:
            raise ValueError("ball file fields are not a typecode and four byte strings")
        dist, adj = _dist_array(radius), array("i")
        dist.frombytes(dist_bytes)
        adj.frombytes(adj_bytes)
        del fields, dist_bytes, adj_bytes  # dropped once copied, to lower the peak
        k = len(spec.letters)
        if not n == len(lengths) == len(dist) or len(adj) != n * k:
            raise ValueError("ball file fields disagree")
        forms = PackedForms(typecode, lengths, arena)
        _check_forms(spec, radius, forms)
        if min(dist) < 0 or max(dist) > radius or min(adj) < NO_EDGE or max(adj) >= n:
            raise ValueError("ball file distance or vertex id out of range")
    return Ball(spec=spec, radius=radius, elements=forms, dist=dist, adj=adj)


def ball_cache_name(spec: GroupSpec, radius: int) -> str:
    digest = _digest(f"{BALL_FORMAT}|{spec.describe()}|{radius}".encode())[:16]
    return f"ball-{digest}-r{radius}.ball"


def cached_ball(
    spec: GroupSpec,
    radius: int,
    cache_dir: Optional[str],
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
) -> Ball:
    """Build a ball, reusing a cache file when its header matches.

    A ball whose forms do not pack (save_ball) is built and served, and no
    file is written.

    A cached ball larger than the budget raises the BallOverflowError a
    cold build would: ids are in discovery order, so that build fails on
    adding vertex max_vertices, in that vertex's layer.
    """
    if max_vertices < 1:
        raise ValueError("vertex budget must be at least 1")
    if not cache_dir:
        return build_ball(spec, radius, max_vertices)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, ball_cache_name(spec, radius))
    if os.path.exists(path):
        try:
            ball = load_ball(path)
            if ball.spec == spec and ball.radius == radius:
                if max_vertices < ball.n_vertices:
                    raise BallOverflowError(
                        ball.dist[max_vertices], max_vertices + 1, max_vertices
                    )
                return ball
        except ValueError:
            pass  # fall through and rebuild a corrupt or stale file
    ball = build_ball(spec, radius, max_vertices)
    try:
        save_ball(ball, path)
    except OverflowError:
        pass  # served uncached: its forms do not pack into 64-bit ints
    return ball
