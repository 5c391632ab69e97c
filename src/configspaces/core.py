"""Configurations: a finite vertex set with a downward closed independence family.

A configuration is stored by its nubs, the minimal dependent sets; they
determine the family completely.  Every singleton is independent, so a
nub always has at least two vertices, and the nubs form an antichain.

Vertex sets are plain Python ints used as bitmasks: bit i is vertex i.
The family is enumerated depth first, adding vertices in increasing
order, by extension bitsets: with y = x | a, a the top vertex of y,

    ext(y) = (ext(x) | next(a)) & ~excluded(a) & ~tops(y)
             & AND over u in x topping its class in y of (ext(y - u) | next(u)),

so no nub is scanned per member.  Given the twin classes
(``_twin_classes``) the walk yields the least member of each independent
orbit, a vertex following its class predecessor next(.); without them
each vertex is its own class; ``_orbit_family`` sets this quotient up
for every family command.  When every nub is a pair only the current
branch is kept; otherwise ext is memoised, one mask per set the memo
reaches, walked or not (see ``enumerate_independence_sets``).  Every
object built from the independence family costs work in proportion to
its size, so enumeration stops past ``MEMBER_BUDGET`` sets, yielded or
memoised, rather than at a vertex count.  The restrictions the Mobius
polynomial is eliminated over, links, deletions and nub-connected
components, are built here on bare nub masks, so that ``mobius`` needs
nothing from ``structure``: ``_link`` and ``_split`` find their vertices
and nubs, and ``_compact`` alone re-indexes them onto 0..k-1.
``relative_configuration`` and ``components`` add the labels through
``Restriction.of``.
Configurations are immutable after construction and all queries are
read-only (the label tables of ``labels_of`` are a write-once cache), so
they are safe to share across threads.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from collections.abc import Collection, Iterable, Iterator, Sequence
from fractions import Fraction

__all__ = [
    "Configuration",
    "Valuation",
    "Restriction",
    "ConfigurationError",
    "SingletonNub",
    "VertexOutOfRange",
    "NotDownwardClosed",
    "MissingSingleton",
    "NotIndependent",
    "NonPositiveWeight",
    "TooLarge",
    "MAX_VERTICES",
    "MEMBER_BUDGET",
    "check_vertex_count",
    "mask_from_indices",
    "indices_of",
    "default_labels",
    "from_nubs",
    "from_independence_list",
    "is_right_angled",
    "components",
    "enumerate_independence_sets",
    "relative_configuration",
    "valuation_of",
    "canonical_key",
]

#: Hard limit imposed by the bitmask representation.
MAX_VERTICES = 64
#: Most independence sets any enumeration produces (see the module docstring).
MEMBER_BUDGET = 2**17


class ConfigurationError(ValueError):
    """Base class for configuration model errors."""


class SingletonNub(ConfigurationError):
    """A listed nub has fewer than two vertices."""


class VertexOutOfRange(ConfigurationError):
    """A vertex index falls outside 0..n-1 (or n exceeds the mask width)."""


class NotDownwardClosed(ConfigurationError):
    """An independence list is missing a subset of one of its members."""


class MissingSingleton(ConfigurationError):
    """An independence list does not contain every singleton."""


class NotIndependent(ConfigurationError):
    """An operation required an independence set but got a dependent one."""


class NonPositiveWeight(ConfigurationError):
    """Valuation weights must be strictly positive."""


class TooLarge(ConfigurationError):
    """An independence family (or a star's nub list) exceeds MEMBER_BUDGET."""


def mask_from_indices(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def indices_of(mask: int) -> list[int]:
    """The vertices of mask in increasing order, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def default_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:n])
    return tuple(f"v{i}" for i in range(n))


@functools.lru_cache(maxsize=64)
def _byte_table(labels: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """The labels of each subset of up to eight vertices, by mask: the
    table doubles once per vertex, the new half adding its label.
    Shared by every configuration with the same eight labels."""
    table: list[tuple[str, ...]] = [()]
    for label in labels:
        table += [entry + (label,) for entry in table]
    return tuple(table)


class _Record:
    """Base of the package's immutable records.

    A record names its fields once, in ``__slots__`` (plus ``"__dict__"``
    when it has a ``functools.cached_property``).  It is built from its
    fields by position or keyword, then ``_check`` validates them;
    assigning to it raises ``AttributeError``; it compares, hashes and
    prints by its field values, as a tuple in field order, leaving fields
    named with a leading underscore out of the repr; it pickles and
    copies by its field values.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs:
            try:
                args += tuple(kwargs.pop(name) for name in fields[len(args) :])
            except KeyError as missing:
                raise TypeError(f"{type(self).__name__}() lacks field {missing}") from None
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes exactly the fields {fields}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Raise if the fields are inconsistent; records may override."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_")
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __reduce__(self) -> tuple:
        # Rebuilt through __init__, as slots refuse pickle's assignments.
        return type(self), self._values()


class Configuration(_Record):
    """Vertex count ``n``, ``labels`` (a tuple of n strings), and the
    antichain of ``nubs`` (a tuple of bitmasks)."""

    __slots__ = ("n", "labels", "nubs", "__dict__")

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def label_of(self, index: int) -> str:
        return self.labels[index]

    @functools.cached_property
    def _label_tables(self) -> tuple[tuple[tuple[str, ...], ...], ...]:
        """Per byte of a mask, the labels of each of its values."""
        return tuple(_byte_table(self.labels[i : i + 8]) for i in range(0, self.n, 8))

    def labels_of(self, mask: int) -> list[str]:
        """The labels of mask's vertices in increasing order, read a byte
        at a time from tables built on first use."""
        out: list[str] = []
        tables = self._label_tables
        byte = 0
        while mask:
            out += tables[byte][mask & 255]
            mask >>= 8
            byte += 1
        return out

    def labels_of_each(self, masks: Collection[int]) -> list[tuple[str, ...]]:
        """``labels_of`` for each mask of vertices 0..n-1, as tuples, read
        a byte of every mask at a time: no Python call per mask."""
        low, *high = self._label_tables or [((),)]  # n = 0: only the empty set
        out = map(low.__getitem__, map((255).__and__, masks))
        for byte, table in enumerate(high, 1):
            column = map((255).__and__, map((8 * byte).__rrshift__, masks))
            out = map(operator.add, out, map(table.__getitem__, column))
        return list(out)

    def word(self, mask: int) -> str:
        """Word notation for a vertex set (empty set prints as 'e')."""
        return "".join(self.labels_of(mask)) or "e"

    def mask_of_labels(self, names: Iterable[str]) -> int:
        """The vertex set of the labels; each is named once."""
        lookup = {label: i for i, label in enumerate(self.labels)}
        mask = 0
        for name in names:
            if name not in lookup:
                raise VertexOutOfRange(f"unknown vertex label {name!r}")
            if mask >> lookup[name] & 1:
                raise ConfigurationError(f"vertex label {name!r} given twice")
            mask |= 1 << lookup[name]
        return mask

    def is_independent(self, x: int) -> bool:
        """True iff no nub is contained in x."""
        if x & ~self.vertex_mask:
            raise VertexOutOfRange("vertex set uses bits outside 0..n-1")
        return all(nub & x != nub for nub in self.nubs)

    def __str__(self) -> str:
        nub_words = ", ".join(self.word(nub) for nub in self.nubs)
        return f"Configuration({self.n} vertices; nubs: [{nub_words}])"


class Valuation(_Record):
    """Positive weight per vertex (``weights``, a tuple of Fractions),
    extended multiplicatively to sets."""

    __slots__ = ("weights",)

    def _check(self) -> None:
        for w in self.weights:
            if w <= 0:
                raise NonPositiveWeight(f"weight {w} is not positive")

    @classmethod
    def uniform(cls, n: int) -> "Valuation":
        return cls((Fraction(1),) * n)

    def of(self, mask: int) -> Fraction:
        value = Fraction(1)
        for i in indices_of(mask):
            value *= self.weights[i]
        return value

    def restrict(self, kept_indices: Sequence[int]) -> "Valuation":
        return Valuation(tuple(self.weights[i] for i in kept_indices))


class Restriction(_Record):
    """A configuration on a subset of the vertices, as one of its own.

    ``vertices`` is the subset in original indices; ``config`` re-indexes
    it as 0..k-1 under the original labels, with ``index_map[i]`` the
    original index of vertex i.  An anchor's link
    (``relative_configuration``) and each nub-connected component
    (``components``) are restrictions.
    """

    __slots__ = ("vertices", "config", "index_map")

    @classmethod
    def of(cls, config: Configuration, vertices: int, nubs: Iterable[int]) -> "Restriction":
        """Restrict config to vertices, on which its nubs are ``nubs``
        (original indices, an antichain in (size, mask) order)."""
        index_map = tuple(indices_of(vertices))
        labels = tuple(config.labels[i] for i in index_map)
        compact = Configuration(len(index_map), labels, _compact(vertices, nubs))
        return cls(vertices, compact, index_map)


def _compact(vertices: int, nubs: Iterable[int]) -> tuple[int, ...]:
    """Re-index nubs inside vertices onto 0..k-1, the i-th lowest vertex
    becoming vertex i.  The map is increasing, so nubs that are an
    antichain in (size, mask) order stay one: nothing is reduced or
    re-sorted here."""
    position = {v: i for i, v in enumerate(indices_of(vertices))}
    return tuple(mask_from_indices(position[v] for v in indices_of(nub)) for nub in nubs)


def _neighbourhoods(n: int, nubs: Iterable[int]) -> tuple[list[int], list[int]]:
    """Per vertex v of 0..n-1, its closed neighbourhood N[v], v with
    every nub containing it, and the number of those nubs: one pass
    over the vertices of each nub."""
    near = [1 << v for v in range(n)]
    count = [0] * n
    for nub in nubs:
        rest = nub
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            near[v] |= nub
            count[v] += 1
            rest ^= low
    return near, count


def _split(n: int, nubs: Sequence[int]) -> dict[int, list[int]]:
    """The nub-connected parts of 0..n-1 by least vertex, each with its
    nubs in original indices and (size, mask) order.  Each part is
    flood-filled over the neighbourhoods (``_neighbourhoods``) from the
    least vertex not yet placed, so a vertex in no nub is a part of its
    own.  A nub goes to the part of its least vertex."""
    reach, _ = _neighbourhoods(n, nubs)
    parts, left = [], (1 << n) - 1
    while left:
        part = grown = left & -left
        while grown:
            near = 0
            for v in indices_of(grown):
                near |= reach[v]
            grown = near & ~part
            part |= grown
        parts.append(part)
        left ^= part
    if len(parts) == 1:
        return {parts[0]: list(nubs)}
    owner = [0] * n
    split: dict[int, list[int]] = {}
    for part in parts:
        split[part] = []
        for v in indices_of(part):
            owner[v] = part
    for nub in nubs:
        split[owner[(nub & -nub).bit_length() - 1]].append(nub)
    return split


def _twin_classes(n: int, nubs: Sequence[int], weights: Sequence[object]) -> list[int] | None:
    """The twin classes of the configuration on 0..n-1 with these nubs,
    in (size, mask) order, and these weights: vertex masks by least
    vertex, every vertex in one; None when no class has two vertices.

    Vertices u and v are twins when their weights are equal and swapping
    them maps the nubs onto the nubs.  A group of vertices lies in one
    class iff every permutation of it maps the nubs onto the nubs
    (``symmetric``): the nubs meeting it in c vertices, with one part
    outside it, are then every c-subset of it with that part.  On all n
    vertices that asks for every k-subset, so a star is certified by its
    nub count.  Otherwise twins lie in as many nubs, and twins sharing a
    nub have equal closed neighbourhoods N[v] (``_neighbourhoods``), twins
    sharing none equal open ones N[v] - v; each group of equal weight,
    nub count and neighbourhood is certified as a whole, or else pair by
    pair against the first vertex of each class.  The count splits the
    one group that full closed neighbourhoods make on dense inputs.
    """
    full = (1 << n) - 1
    distinct = len(set(weights))
    if distinct == n:
        return None

    def symmetric(group: int) -> bool:
        if group == full:
            k = nubs[0].bit_count() if nubs else 0
            return not nubs or nubs[-1].bit_count() == k and len(nubs) == math.comb(n, k)
        inside = map(int.bit_count, map(group.__and__, nubs))
        counts = collections.Counter(zip(map((full ^ group).__and__, nubs), inside))
        return all(count == math.comb(group.bit_count(), c) for (_, c), count in counts.items())

    if distinct == 1 and symmetric(full):
        return [full]
    near, count = _neighbourhoods(n, nubs)
    classes, placed = [], 0
    for keys in (
        list(zip(weights, count, near)),
        list(zip(weights, count, [m ^ 1 << v for v, m in enumerate(near)])),
    ):
        if len(set(keys)) == n:
            continue
        keyed: dict[tuple[object, int, int], int] = {}
        for v, key in enumerate(keys):
            keyed[key] = keyed.get(key, 0) | 1 << v
        for group in keyed.values():
            group &= ~placed
            if not group & (group - 1):
                continue
            found = [group]
            if not symmetric(group):
                found = []
                for v in indices_of(group):
                    for i, twins in enumerate(found):
                        if symmetric(twins & -twins | 1 << v):
                            found[i] |= 1 << v
                            break
                    else:
                        found.append(1 << v)
            for twins in found:
                if twins & (twins - 1):
                    classes.append(twins)
                    placed |= twins
    if not classes:
        return None
    return sorted(classes + [1 << v for v in indices_of(full & ~placed)], key=lambda c: c & -c)


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count the bitmask representation cannot hold."""
    if n < 0 or n > MAX_VERTICES:
        raise VertexOutOfRange(f"vertex count {n} outside 0..{MAX_VERTICES}")


def _validate_nub_masks(n: int, masks: Iterable[int]) -> list[int]:
    check_vertex_count(n)
    full = (1 << n) - 1
    out = []
    for mask in masks:
        if mask & ~full:
            raise VertexOutOfRange(f"nub {bin(mask)} uses vertices outside 0..{n - 1}")
        if mask.bit_count() < 2:
            raise SingletonNub("a nub needs at least two vertices")
        out.append(mask)
    return out


def _antichain_minimal(masks: Iterable[int]) -> tuple[int, ...]:
    """The minimal sets among masks, in (size, mask) order.

    A mask is tested only against kept sets of strictly smaller size:
    distinct sets of equal size never contain one another.  It looks its
    proper subsets up among the kept sets when it has fewer subsets than
    there are smaller kept sets, and scans those sets otherwise, so a
    wide mask never walks its subsets.
    """
    unique = sorted(set(masks))
    unique.sort(key=int.bit_count)  # stable, so in (size, mask) order
    kept: list[int] = []
    smaller: frozenset[int] = frozenset()
    size = -1
    for mask in unique:
        if mask.bit_count() != size:
            size, smaller = mask.bit_count(), frozenset(kept)
        if 1 << size < len(smaller):
            # Walk the proper subsets down to the empty set.
            sub = mask
            while sub and sub not in smaller:
                sub = (sub - 1) & mask
            covered = sub in smaller
        else:
            covered = any(small & mask == small for small in smaller)
        if not covered:
            kept.append(mask)
    return tuple(kept)


def from_nubs(
    n: int,
    nub_sets: Iterable[Iterable[int] | int] = (),
    labels: Sequence[str] | None = None,
) -> Configuration:
    """Build a configuration from its (to-be-reduced) nub list.

    Sets may be given as bitmasks or iterables of vertex indices.  Sets
    containing another listed set are dropped; duplicates collapse.
    """
    masks = [m if isinstance(m, int) else mask_from_indices(m) for m in nub_sets]
    masks = _validate_nub_masks(n, masks)
    if labels is None:
        labels = default_labels(n)
    else:
        labels = tuple(labels)
        if len(labels) != n:
            raise ConfigurationError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise ConfigurationError("vertex labels must be unique")
    return Configuration(n=n, labels=labels, nubs=_antichain_minimal(masks))


def from_independence_list(
    n: int,
    independent_sets: Iterable[Iterable[int] | int],
    labels: Sequence[str] | None = None,
) -> Configuration:
    """Build a configuration whose independence family is exactly the list.

    The list must be downward closed and contain the empty set and every
    singleton; violations raise with the offending set named.  Nubs are
    recovered as the minimal non-members: a nub N minus its top vertex
    is a member x, so each nub is found once, as x | a with a above
    top(x), outside the family, and with every x | a - v inside it.
    """
    check_vertex_count(n)
    family = set()
    for item in independent_sets:
        mask = item if isinstance(item, int) else mask_from_indices(item)
        if mask & ~((1 << n) - 1):
            raise VertexOutOfRange("independence set uses vertices outside 0..n-1")
        family.add(mask)
    if 0 not in family:
        raise NotDownwardClosed("the empty set is missing")
    for i in range(n):
        if (1 << i) not in family:
            raise MissingSingleton(f"singleton {{{i}}} is missing")
    for mask in family:
        for i in indices_of(mask):
            if mask ^ (1 << i) not in family:
                raise NotDownwardClosed(
                    f"set {sorted(indices_of(mask))} present but subset without {i} is not"
                )
    nubs = []
    for x in family:
        for a in range(x.bit_length(), n):
            y = x | (1 << a)
            if y not in family and all(y ^ (1 << i) in family for i in indices_of(x)):
                nubs.append(y)
    return from_nubs(n, nubs, labels)


def is_right_angled(config: Configuration) -> bool:
    """True iff every nub has exactly two vertices (vacuous if none)."""
    return all(nub.bit_count() == 2 for nub in config.nubs)


def components(config: Configuration) -> tuple[Restriction, ...]:
    """Connected components of the nub hypergraph, by least vertex (see
    ``_split``).

    Vertices sharing a nub are connected; vertices in no nub form
    singleton components.  Independence in the whole configuration is
    equivalent to independence of the restriction to every part.
    """
    parts = _split(config.n, config.nubs)
    return tuple(Restriction.of(config, part, nubs) for part, nubs in parts.items())


def _over_budget() -> str:
    return f"the independence family exceeds the member budget of {MEMBER_BUDGET}"


def enumerate_independence_sets(
    config: Configuration, twins: Sequence[int] | None = None
) -> Iterator[int]:
    """Yield every independence set exactly once, as bitmasks; given the
    twin classes ``twins`` (see ``_twin_classes``), only the least member
    of each independent orbit: the lowest c_i vertices of each class i.

    The walk is depth first and adds vertices in increasing order, so
    each set is yielded after the set without its top vertex, and that
    set is still on the current branch.  Each set x carries ext(x), the
    vertices b above top(x) with x | b yielded, and its children are
    x | a for a in ext(x).  A vertex may only follow its class
    predecessor: next(a) is the vertex after a in its class, and
    ext(empty set) is the least vertex of each class.  Without classes
    each vertex is a class of its own, with no next.  With tops(s) the
    vertices b such that s | b is a nub, and excluded(a) every vertex up
    to a and every b with {a, b} a nub, y = x | a gets

        ext(y) = (ext(x) | next(a)) & ~excluded(a) & ~tops(y)
                 & AND over u in x topping its class in y
                   of (ext(y - u) | next(u)),

    the Apriori candidate test (a set is independent iff it is not a
    nub and its subsets one smaller are) run as bitset intersection over
    class tops, and no nub is scanned.  Class tops are enough: if a nub
    inside y | b misses a vertex w, and u tops w's class in y | b,
    swapping w and u maps the nubs onto the nubs and carries that nub
    into (y | b) - u.  u = b would put it inside y, u = a is the
    parent's term, and b = next(u) leaves u no top.  A nub missing no
    vertex is y | b itself, in tops(y), so where some nub has three or
    more vertices only the nubs that are least members are read.

    When every nub is a pair, tops(y) is empty for |y| > 1 and the
    subsets add nothing: ext(y) is (rest | next(a)) & ~excluded(a), rest
    the parent's vertices not yet walked, and only the branch is kept.
    Otherwise each y - u comes later in the walk, so its ext is computed
    on demand, recursively, and memoised.  The memo can run far ahead of
    the walk (on a branch 0..k it may hold every subset of that branch
    containing k), but its keys are distinct sets the walk yields.

    :class:`TooLarge` is raised when the walk is about to yield a set
    past ``MEMBER_BUDGET``, or as soon as the memo holds more masks than
    that, before any caller has stored or summed the excess.  On a
    right-angled configuration that is always set ``MEMBER_BUDGET + 1``;
    with wider nubs the memo can reach it with fewer yielded.
    """
    n, nubs = config.n, config.nubs
    wide = not is_right_angled(config)
    after = None
    if twins is not None:
        after = {}  # per vertex, as a bit, next(vertex), 0 for a class's top
        for twin in twins:
            if wide and twin & (twin - 1):
                # Keep the nubs that meet the class in its lowest vertices;
                # those of a class of every vertex, as a star's, are prefixes.
                prefixes = {0} | {twin & ((2 << v) - 1) for v in indices_of(twin)}
                if twin == (1 << n) - 1:
                    nubs = prefixes.intersection(nubs)
                else:
                    nubs = [nub for nub in nubs if nub & twin in prefixes]
            while twin:
                low = twin & -twin
                twin ^= low
                after[low] = twin & -twin
    tops: dict[int, int] = {}
    for nub in nubs:
        top = 1 << (nub.bit_length() - 1)
        tops[nub ^ top] = tops.get(nub ^ top, 0) | top
    # excluded[a]: every vertex up to a, and every b with {a, b} a nub.
    excluded = [((2 << a) - 1) | tops.get(1 << a, 0) for a in range(n)]
    start = (1 << n) - 1 if twins is None else sum(twin & -twin for twin in twins)
    memo = {0: start}

    def ext_of(y: int) -> int:
        found = memo.get(y)
        if found is None:
            top = y.bit_length() - 1
            x = y ^ (1 << top)
            found = ext_of(x)
            if after is not None:
                found |= after[1 << top]
            found &= ~(excluded[top] | tops.get(y, 0))
            # For |x| = 1, ext(y - u) = ext({top}) adds nothing.
            if x & (x - 1):
                while x and found:
                    u = x & -x
                    x ^= u
                    if after is None:
                        found &= ext_of(y ^ u)
                    elif not y & after[u]:
                        found &= ext_of(y ^ u) | after[u]
            memo[y] = found
            # Memo keys are distinct sets, walked or not: past the
            # budget the family is too, however few have been yielded.
            if len(memo) > MEMBER_BUDGET:
                raise TooLarge(_over_budget())
        return found

    def walk() -> Iterator[int]:
        produced = 0
        # Per branch set x: the vertices of ext(x) not yet walked.
        branch: list[int] = []
        rests: list[int] = []
        y, ext = 0, start
        while True:
            produced += 1
            if produced > MEMBER_BUDGET:
                raise TooLarge(_over_budget())
            yield y
            if ext:
                branch.append(y)
                rests.append(ext)
            elif not rests:
                return
            rest = rests[-1]
            low = rest & -rest
            rest ^= low
            y = branch[-1] | low
            if rest:
                rests[-1] = rest
            else:
                branch.pop()
                rests.pop()
            if wide:
                ext = ext_of(y)
            else:
                if after is not None:
                    rest |= after[low]
                ext = rest & ~excluded[low.bit_length() - 1]

    return walk()


def _in_size_order(sets: Iterable[int]) -> list[int]:
    """The sets in (size, mask) order: sorted as plain ints, then stably
    by size."""
    out = sorted(sets)
    out.sort(key=int.bit_count)
    return out


def _orbit_family(
    config: Configuration, weights: Sequence[Fraction]
) -> tuple[list[int], list[int], list[int]]:
    """The twin classes (``_twin_classes``), each vertex its own class
    where it has no twin; the least members of the independent orbits,
    in (size, mask) order; and each orbit's member count prod_i C(s_i,
    c_i).  Raises :class:`TooLarge` once the members, not the orbits,
    number more than ``MEMBER_BUDGET``."""
    # Weights as integer pairs, which hash faster than fractions.
    pairs = list(map(Fraction.as_integer_ratio, weights))
    twins = _twin_classes(config.n, config.nubs, pairs)
    orbits = _in_size_order(enumerate_independence_sets(config, twins))
    sizes = [1] * len(orbits)
    for twin in twins or ():
        if twin & (twin - 1):
            s = twin.bit_count()
            members = [math.comb(s, c) for c in range(s + 1)]
            counts = map(int.bit_count, map(twin.__and__, orbits))
            sizes = list(map(operator.mul, sizes, map(members.__getitem__, counts)))
    if sum(sizes) > MEMBER_BUDGET:
        raise TooLarge(_over_budget())
    return twins or [1 << v for v in range(config.n)], orbits, sizes


def _link(n: int, nubs: Iterable[int], x: int) -> tuple[int, tuple[int, ...]] | None:
    """The link of x in the configuration on 0..n-1 with these nubs: its
    vertices and nubs, in original indices; None when x is dependent.

    One pass over the nubs reads each trace nub - x.  An empty trace is
    a nub inside x, so x is dependent; a one-vertex trace {a} makes
    x | a dependent, so a is not parallel to x.  A set of the remaining
    vertices, those parallel to x, is relatively independent iff its
    union with x is independent, that is iff it contains no trace; so
    the link's nubs are the minimal traces inside those vertices.
    """
    blocked = x
    traces = []
    for nub in nubs:
        trace = nub & ~x
        if not trace:
            return None
        if trace & (trace - 1):
            traces.append(trace)
        else:
            blocked |= trace
    inside = (trace for trace in traces if not trace & blocked)
    return ((1 << n) - 1) & ~blocked, _antichain_minimal(inside)


def relative_configuration(config: Configuration, x: int) -> Restriction:
    """The link of the independence set x (see ``_link``), labelled."""
    if x & ~config.vertex_mask:
        raise VertexOutOfRange("vertex set uses bits outside 0..n-1")
    link = _link(config.n, config.nubs, x)
    if link is None:
        raise NotIndependent(f"{','.join(config.labels_of(x))} is not an independence set")
    return Restriction.of(config, *link)


def valuation_of(config: Configuration, weights: Iterable[Fraction | int | str]) -> Valuation:
    """Make a valuation from one weight per vertex."""
    values = tuple(Fraction(w) for w in weights)
    if len(values) != config.n:
        raise ConfigurationError(f"expected {config.n} weights, got {len(values)}")
    return Valuation(values)


def canonical_key(config: Configuration) -> str:
    """Identity key on (n, nubs); not an isomorphism invariant."""
    return f"{config.n}:" + ",".join(str(m) for m in config.nubs)
