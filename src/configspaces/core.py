"""Configurations: a finite vertex set with a downward closed independence family.

A configuration is stored by its nubs, the minimal dependent sets; they
determine the family completely.  Every singleton is independent, so a
nub always has at least two vertices, and the nubs form an antichain.

Vertex sets are plain Python ints used as bitmasks: bit i is vertex i.
Every object built from the independence family costs work in
proportion to its size, so enumeration stops past ``MEMBER_BUDGET``
members rather than at a vertex count.
Configurations are immutable after construction and all queries are
read-only, so they are safe to share across threads.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Configuration",
    "Valuation",
    "RelativeView",
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
    out = []
    i = 0
    while mask >> i:
        if (mask >> i) & 1:
            out.append(i)
        i += 1
    return out


def default_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    return tuple(f"v{i}" for i in range(n))


def _nub_sort_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


@dataclass(frozen=True)
class Configuration:
    """Vertex count, labels, and the antichain of nubs (bitmasks)."""

    n: int
    labels: tuple[str, ...]
    nubs: tuple[int, ...]

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def label_of(self, index: int) -> str:
        return self.labels[index]

    def labels_of(self, mask: int) -> list[str]:
        return [self.labels[i] for i in indices_of(mask)]

    def word(self, mask: int) -> str:
        """Word notation for a vertex set (empty set prints as 'e')."""
        return "".join(self.labels_of(mask)) or "e"

    def mask_of_labels(self, names: Iterable[str]) -> int:
        lookup = {label: i for i, label in enumerate(self.labels)}
        mask = 0
        for name in names:
            if name not in lookup:
                raise VertexOutOfRange(f"unknown vertex label {name!r}")
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


@dataclass(frozen=True)
class Valuation:
    """Positive weight per vertex, extended multiplicatively to sets."""

    weights: tuple[Fraction, ...]

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


@dataclass(frozen=True)
class RelativeView:
    """The configuration relative to an independent anchor set.

    ``vertices`` collects, in original indices, the vertices parallel to
    the anchor; ``relative_nubs`` are the minimal sets (again in original
    indices) whose union with the anchor is dependent.  ``standalone``
    re-indexes those vertices as 0..k-1, the anchor's link as a
    configuration of its own, with ``index_map[i]`` giving the original
    index of standalone vertex i.
    """

    base: Configuration
    anchor: int
    vertices: int
    relative_nubs: tuple[int, ...]
    standalone: Configuration
    index_map: tuple[int, ...]


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
    distinct sets of equal size never contain one another.
    """
    unique = sorted(set(masks), key=_nub_sort_key)
    kept: list[int] = []
    smaller: tuple[int, ...] = ()
    size = -1
    for mask in unique:
        if mask.bit_count() != size:
            size, smaller = mask.bit_count(), tuple(kept)
        if all(small & mask != small for small in smaller):
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


def enumerate_independence_sets(config: Configuration) -> Iterator[int]:
    """Yield every independence set exactly once, as bitmasks.

    Backtracking never extends a dependent set: a vertex is added only
    when no nub becomes contained, so the cost is proportional to the
    family size times n rather than 2**n.  The walk is depth first and
    adds vertices in increasing order, so each set is yielded after the
    set without its top vertex, and that set is still on the current
    branch.  A nub inside x | a that x does not contain holds a and
    nothing above it, so each extension checks only the nubs whose top
    vertex is a.  Producing a member past ``MEMBER_BUDGET`` raises
    :class:`TooLarge`, before any caller has stored or summed it.
    """
    n = config.n
    nubs_topped_by = [[] for _ in range(n)]
    for nub in config.nubs:
        nubs_topped_by[nub.bit_length() - 1].append(nub)
    produced = 0

    def walk(x: int, start: int) -> Iterator[int]:
        nonlocal produced
        produced += 1
        if produced > MEMBER_BUDGET:
            raise TooLarge(f"the independence family exceeds the member budget of {MEMBER_BUDGET}")
        yield x
        for a in range(start, n):
            y = x | (1 << a)
            if all(nub & y != nub for nub in nubs_topped_by[a]):
                yield from walk(y, a + 1)

    return walk(0, 0)


def relative_configuration(config: Configuration, x: int) -> RelativeView:
    """The configuration relative to the independence set x.

    Vertices are those parallel to x; a subset is relatively independent
    iff its union with x is independent in the base.  The relative nubs
    are the traces nub-minus-x of base nubs that land inside the kept
    vertex set (other nubs cannot be triggered by any kept subset).
    """
    if not config.is_independent(x):
        raise NotIndependent(f"{config.word(x)} is not an independence set")
    kept = 0
    for a in range(config.n):
        bit = 1 << a
        if bit & x:
            continue
        if config.is_independent(x | bit):
            kept |= bit
    traces = []
    for nub in config.nubs:
        trace = nub & ~x
        if trace and trace & ~kept == 0:
            traces.append(trace)
    relative_nubs = _antichain_minimal(traces)
    index_map = tuple(indices_of(kept))
    position = {orig: i for i, orig in enumerate(index_map)}
    # The increasing re-indexing keeps the antichain and its (size, mask) order.
    compact_nubs = tuple(
        mask_from_indices(position[i] for i in indices_of(nub)) for nub in relative_nubs
    )
    standalone = Configuration(
        n=len(index_map),
        labels=tuple(config.labels[i] for i in index_map),
        nubs=compact_nubs,
    )
    return RelativeView(
        base=config,
        anchor=x,
        vertices=kept,
        relative_nubs=relative_nubs,
        standalone=standalone,
        index_map=index_map,
    )


def valuation_of(
    config: Configuration, weights: Iterable[Fraction | int | str] | None = None
) -> Valuation:
    """Make a valuation; None gives the uniform one."""
    if weights is None:
        return Valuation.uniform(config.n)
    values = tuple(Fraction(w) for w in weights)
    if len(values) != config.n:
        raise ConfigurationError(f"expected {config.n} weights, got {len(values)}")
    for w in values:
        if w <= 0:
            raise NonPositiveWeight(f"weight {w} is not positive")
    return Valuation(values)


def canonical_key(config: Configuration) -> str:
    """Identity key on (n, nubs); not an isomorphism invariant."""
    return f"{config.n}:" + ",".join(str(m) for m in config.nubs)
