"""The twin-class quotient: detection against an all-pairs swap oracle,
and the orbit route against the member route it replaces."""

import itertools
import json
import math
from fractions import Fraction

import pytest

import configspaces.core as core_module
from configspaces import cli
from configspaces.core import TooLarge, Valuation, from_nubs
from configspaces.mobius import MobiusFamily, _enumerated_mu, _orbits, mobius_polynomial
from configspaces.poly import Polynomial
from configspaces.structure import builtin, random_configuration, random_valuation, star

from conftest import brute_independence_family, brute_twin_classes, powerset_mobius


def blown_up(rng):
    """A random base configuration, at most six vertices with pair and
    triple nubs, each vertex blown up into a class of one to four
    copies: a nub becomes every nub taking one copy of each of its
    vertices, and a class may also be tied by all its pairs or triples.
    Weights are equal within a class, uniform or random across classes."""
    base = rng.randint(1, 6)
    nubs = [c for c in itertools.combinations(range(base), 2) if rng.random() < 0.3]
    nubs += [c for c in itertools.combinations(range(base), 3) if rng.random() < 0.15]
    groups, n = [], 0
    for _ in range(base):
        size = rng.randint(1, min(4, 12 // base))
        groups.append(range(n, n + size))
        n += size
    blown = [pick for nub in nubs for pick in itertools.product(*(groups[v] for v in nub))]
    for group in groups:
        tie = rng.choice((0, 2, 3))
        if tie and len(group) >= tie:
            blown += itertools.combinations(group, tie)
    if rng.random() < 0.5:
        weights = [Fraction(1)] * base
    else:
        weights = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(base)]
    valuation = Valuation(tuple(weights[v] for v, group in enumerate(groups) for _ in group))
    return from_nubs(n, blown), valuation


@pytest.fixture
def inputs(rng):
    return [blown_up(rng) for _ in range(60)]


def test_classes_match_the_swap_oracle(inputs, rng):
    drawn = [random_configuration(7, rng) for _ in range(20)]
    others = [(config, random_valuation(config, rng)) for config in drawn]
    names = ("fig1-left", "path-2", "path-3", "path-9", "star-6-2")
    uniform = [(builtin(name), Valuation.uniform(builtin(name).n)) for name in names]
    for config, valuation in inputs + others + uniform:
        found = core_module._twin_classes(config.n, config.nubs, valuation.weights)
        assert found == brute_twin_classes(config, valuation.weights), config


def test_orbits_partition_the_family(inputs):
    for config, valuation in inputs:
        twins = core_module._twin_classes(config.n, config.nubs, valuation.weights)
        if twins is None:
            continue
        orbits = _orbits(config.nubs, twins, True)
        family = MobiusFamily(config, valuation)
        family._anchor_ids()
        assert list(orbits) == sorted(orbits, key=lambda x: (x.bit_count(), x))
        members = brute_independence_family(config)
        assert {family._orbit_of(z) for z in members} == set(orbits)
        assert sum(count for _, count, _ in orbits.values()) == len(members)
        assert sorted(family._members_of(orbits)) == sorted(members)


def report(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def by_route(config, valuation, path, capsys):
    """Whether the family found twins, and everything the two routes
    must agree on: each member's shape, the critical root with its
    printed interval, the attaining anchors, and the classify and
    right-angled reports."""
    family = MobiusFamily(config, valuation)
    root, attained = family.critical_root()
    shapes = {z: family._shapes[i] for z, i in family._shape_ids().items()}
    commands = ("classify", "right-angled")
    payloads = [report(capsys, command, "--input", str(path)) for command in commands]
    return family._twins is not None, (shapes, root, cli._root_json(root), attained, payloads)


def test_orbit_route_matches_the_member_route(inputs, monkeypatch, capsys, tmp_path):
    with_twins = 0
    for k, (config, valuation) in enumerate(inputs):
        path = tmp_path / f"twins{k}.json"
        path.write_text(json.dumps(cli.config_to_json(config, valuation)))
        twins, orbits = by_route(config, valuation, path, capsys)
        with monkeypatch.context() as patch:
            # No configuration has twins: every family walks its members.
            patch.setattr(core_module, "_twin_classes", lambda n, nubs, weights: None)
            walked, members = by_route(config, valuation, path, capsys)
        assert not walked
        assert orbits == members, config
        with_twins += twins
    assert with_twins > len(inputs) // 2


def test_orbit_leaf_matches_the_walk(inputs):
    for config, valuation in inputs:
        mu = mobius_polynomial(config, valuation)
        assert mu == _enumerated_mu(config, valuation.weights) == powerset_mobius(config, valuation)


def test_family_budget_counts_members(monkeypatch):
    # star(10, 4): one class, five orbits, 386 members.
    family_size = sum(math.comb(10, k) for k in range(5))
    monkeypatch.setattr(core_module, "MEMBER_BUDGET", family_size)
    MobiusFamily(star(10, 4)).critical_root()
    monkeypatch.setattr(core_module, "MEMBER_BUDGET", family_size - 1)
    with pytest.raises(TooLarge, match=f"member budget of {family_size - 1}$"):
        MobiusFamily(star(10, 4)).critical_root()


def test_bipartite_dependence_by_orbits(capsys, tmp_path):
    # K_{20,20} as a dependence graph: 400 pair nubs, 2^21 - 1 members,
    # two twin classes and 41 independent orbits.
    left, right = [f"l{i}" for i in range(20)], [f"r{i}" for i in range(20)]
    path = tmp_path / "k20.json"
    nubs = [[a, b] for a in left for b in right]
    path.write_text(json.dumps({"vertices": left + right, "nubs": nubs}))
    code, out = report(capsys, "mobius", "--input", str(path))
    mu = Polynomial([(-1) ** k * math.comb(20, k) * 2 for k in range(21)]) - Polynomial([1])
    assert (code, json.loads(out)["payload"]["mu"]) == (0, [str(c) for c in mu.coefficients])
    code = cli.main(["classify", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: the independence family exceeds the member budget of 131072\n"
