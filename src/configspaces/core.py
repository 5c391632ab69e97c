"""Configurations: a finite vertex set with a downward closed independence family.

A configuration is stored by its nubs, the minimal dependent sets; they
determine the family completely.  Every singleton is independent, so a
nub always has at least two vertices, and the nubs form an antichain.

Vertex sets are plain Python ints used as bitmasks: bit i is vertex i.
The family is enumerated depth first, adding vertices in increasing
order, by extension bitsets: a child's set of extending vertices is the
intersection of its parent's, those of its subsets one smaller, and the
complement of the vertices that top a nub over it, so no nub is scanned
per member.  When every nub is a pair the parent's set suffices and only
the current branch is kept; otherwise the subsets' sets are memoised,
one mask per member the memo reaches, walked or not (see
``enumerate_independence_sets``).  Every object built from the
independence family costs work in proportion to its size, so
enumeration stops past ``MEMBER_BUDGET`` members, yielded or memoised,
rather than at a vertex count.  The restrictions the Mobius polynomial
is eliminated over, links, deletions and nub-connected components, are
built here on bare nub masks, so that ``mobius`` needs nothing from
``structure``: ``_link`` and ``_split`` find their vertices and nubs,
and ``_compact`` alone re-indexes them onto 0..k-1.
``relative_configuration`` and ``components`` add the labels through
``Restriction.of``.
Configurations are immutable after construction and all queries are
read-only (the label tables of ``labels_of`` are a write-once cache), so
they are safe to share across threads.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence
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


def _split(n: int, nubs: Sequence[int]) -> dict[int, list[int]]:
    """The nub-connected parts of 0..n-1 by least vertex, each with its
    nubs in original indices and (size, mask) order.  Each nub merges the
    parts it meets; a vertex in no nub is a part of its own."""
    parts: list[int] = []
    for nub in nubs:
        met = [part for part in parts if part & nub]  # disjoint, so their sum is their union
        parts = [part for part in parts if not part & nub] + [nub | sum(met)]
    parts += [1 << v for v in indices_of(((1 << n) - 1) & ~sum(parts))]
    parts.sort(key=lambda part: part & -part)
    return {part: [nub for nub in nubs if nub & part] for part in parts}


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


def enumerate_independence_sets(config: Configuration) -> Iterator[int]:
    """Yield every independence set exactly once, as bitmasks.

    The walk is depth first and adds vertices in increasing order, so
    each set is yielded after the set without its top vertex, and that
    set is still on the current branch.  Each member x carries ext(x):
    the vertices b above top(x) with x | b independent.  Its children
    are x | a for a in ext(x), and no nub is scanned.  A set is
    independent iff it is not a nub and every subset one smaller is
    independent (the Apriori candidate test, here run as bitset
    intersection).  With tops(s) the vertices b that top a nub N with
    N - b = s, a child y = x | a gets

        ext(y) = ext(x) & above(a) & ~tops({a}) & ~tops(y)
                 & AND over v in x of ext(y - v),

    because a nub inside y | b either is {a, b}, or is y | b, or misses
    some v in x.  When every nub is a pair, tops(y) is empty for
    |y| > 1 and the subsets add nothing, so the walk needs only the
    parent and keeps nothing but its branch.  When some nub has three
    or more vertices, each y - v comes later in the walk, so its ext is
    computed on demand, recursively, and memoised.  The memo can then
    run far ahead of the walk: on a branch 0..k it may hold every subset
    of that branch containing k.  Its keys are distinct members, though,
    so it holds at most one mask per member.

    :class:`TooLarge` is raised when the walk is about to yield a member
    past ``MEMBER_BUDGET``, or as soon as the memo holds more masks than
    that, before any caller has stored or summed the excess.  On a
    right-angled configuration that is always member ``MEMBER_BUDGET +
    1``; with wider nubs the memo can reach it with fewer yielded.
    """
    n = config.n
    tops: dict[int, int] = {}
    for nub in config.nubs:
        top = 1 << (nub.bit_length() - 1)
        tops[nub ^ top] = tops.get(nub ^ top, 0) | top
    # excluded[a]: every vertex up to a, and every b with {a, b} a nub.
    excluded = [((2 << a) - 1) | tops.get(1 << a, 0) for a in range(n)]
    wide = not is_right_angled(config)
    memo = {0: (1 << n) - 1}

    def ext_of(y: int) -> int:
        found = memo.get(y)
        if found is None:
            top = y.bit_length() - 1
            x = y ^ (1 << top)
            found = ext_of(x) & ~(excluded[top] | tops.get(y, 0))
            # For |x| = 1, ext(y - v) = ext({top}) adds nothing.
            if x & (x - 1):
                while x and found:
                    v = x & -x
                    found &= ext_of(y ^ v)
                    x ^= v
            memo[y] = found
            # Memo keys are distinct members, walked or not: past
            # the budget the family is too, however few have been yielded.
            if len(memo) > MEMBER_BUDGET:
                raise TooLarge(_over_budget())
        return found

    def walk() -> Iterator[int]:
        produced = 0
        # Per branch member x: the vertices of ext(x) not yet walked.
        branch: list[int] = []
        rests: list[int] = []
        y, ext = 0, (1 << n) - 1
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
            ext = ext_of(y) if wide else rest & ~excluded[low.bit_length() - 1]

    return walk()


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
