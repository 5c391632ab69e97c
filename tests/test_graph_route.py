"""Dependence graphs: classify and critical-root by the eliminated
route (``mobius.connected_graph_root``) against the family route it
replaces, mu by the mask kernel (``mobius._graph_mu``) against the
enumeration and the brute force, and both against closed forms and a
transfer matrix past the member budget."""

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from configspaces import cli, core
from configspaces.core import Valuation, from_nubs
from configspaces.mobius import _enumerated_mu, _graph_mu, mobius_polynomial
from configspaces.poly import Polynomial, _integer
from configspaces.structure import random_valuation

from conftest import (
    brute_twin_classes,
    cycle_mu,
    grid_edges,
    grid_mu,
    path_mu,
    powerset_mobius,
)


def connected_graph(rng, n, density):
    """A random connected graph on n vertices: each pair an edge with
    the given probability, drawn again until it is connected."""
    while True:
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        reach, grown = 1, 1
        while grown:
            near = 0
            for a, b in edges:
                near |= (reach >> a & 1) << b | (reach >> b & 1) << a
            grown = near & ~reach
            reach |= grown
        if reach == (1 << n) - 1:
            return edges


def bipartite(m, n):
    """K_{m,n} as a dependence graph: two twin classes."""
    left, right = [f"l{i}" for i in range(m)], [f"r{i}" for i in range(n)]
    return left + right, [[a, b] for a in left for b in right]


def graph_inputs(tmp_path):
    rng = random.Random(31)
    documents = []
    for k in range(330):
        n, density = rng.randint(1, 11), (0.15, 0.3, 0.5)[k % 3]
        labels = [f"v{i}" for i in range(n)]
        edges = connected_graph(rng, n, density)
        document = {"vertices": labels, "nubs": [[labels[a], labels[b]] for a, b in edges]}
        if k % 2:
            weights = random_valuation(from_nubs(n, []), rng).weights
            document["weights"] = {v: str(w) for v, w in zip(labels, weights)}
        documents.append(document)
    for m, n in [(1, 1), (1, 5), (2, 2), (2, 7), (3, 4), (5, 5), (4, 8)]:
        labels, nubs = bipartite(m, n)
        documents.append({"vertices": labels, "nubs": nubs})
        weights = {v: "1/3" if v[0] == "l" else "2" for v in labels}
        documents.append({"vertices": labels, "nubs": nubs, "weights": weights})
    argvs = []
    for k, document in enumerate(documents):
        path = tmp_path / f"graph{k}.json"
        path.write_text(json.dumps(document))
        argvs.append(("--input", str(path)))
    names = [f"path-{n}" for n in range(1, 21)] + [f"complete-{n}" for n in range(1, 16)]
    return argvs + [("--name", name) for name in names + ["dodecahedron", "fig1-right"]]


def reports(capsys, argvs):
    out = []
    for argv in argvs:
        for command in ("classify", "critical-root"):
            code = cli.main([command, *argv])
            captured = capsys.readouterr()
            out.append((command, argv, code, captured.out, captured.err))
    return out


def test_graph_route_matches_the_family(capsys, monkeypatch, tmp_path):
    argvs = graph_inputs(tmp_path)
    routed = []
    original = cli.connected_graph_root

    def counting(config, valuation):
        found = original(config, valuation)
        routed.append(found is not None)
        return found

    monkeypatch.setattr(cli, "connected_graph_root", counting)
    eliminated = reports(capsys, argvs)
    assert len(routed) == 2 * len(argvs) and all(routed)
    monkeypatch.setattr(cli, "connected_graph_root", lambda config, valuation: None)
    assert reports(capsys, argvs) == eliminated
    assert {code for _, _, code, _, _ in eliminated} == {0}


def sign_at(coeffs, value):
    """The sign of the integer polynomial at the rational printed as
    "num/den", in integers: sum c_k num^k den^(d - k)."""
    num, _, den = value.partition("/")
    num, den, d = _integer(num), _integer(den or "1"), len(coeffs) - 1
    total = sum(c * num**k * den ** (d - k) for k, c in enumerate(coeffs))
    return (total > 0) - (total < 0)


def classified(capsys, *argv):
    code = cli.main(["classify", *argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return json.loads(captured.out, parse_int=_integer)["payload"]


@pytest.mark.parametrize("n", [25, 30, 40, 64])
def test_path_classify_past_the_budget(capsys, n):
    # path-25 has 196,418 independence sets, path-64 about 2.8e13; the
    # expected values come from the closed forms, not from the program.
    payload = classified(capsys, "--name", f"path-{n}")
    assert payload["mu"] == path_mu(n)
    assert (payload["type"], payload["attained_at"]) == ("I", [[]])
    coeffs, t0 = list(map(int, path_mu(n))), payload["t0"]
    assert sign_at(coeffs, t0["lo"]) * sign_at(coeffs, t0["hi"]) == -1
    assert payload["rest"]["sign"] == "zero"
    # The first root of the path, in floats: it may differ from the
    # 2**-128-wide interval by its last bits only.
    lo, hi = (float(Fraction(t0[end])) for end in ("lo", "hi"))
    assert lo - 1e-12 <= 1 / (4 * math.cos(math.pi / (n + 2)) ** 2) <= hi + 1e-12


def test_no_family_on_a_connected_graph_past_the_budget(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a family was built on a connected graph")

    monkeypatch.setattr(cli.MobiusFamily, "__init__", refuse)
    for command in ("classify", "critical-root"):
        assert cli.main([command, "--name", "path-64"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["attained_at"] == [[]]



def as_polynomial(printed):
    return Polynomial(map(Fraction, printed))


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def test_oracles_match_the_brute_force():
    for n in range(3, 11):
        assert powerset_mobius(from_nubs(n, cycle_edges(n))) == as_polynomial(cycle_mu(n))
        assert powerset_mobius(from_nubs(n, path_edges(n))) == as_polynomial(path_mu(n))
    for rows, cols in [(1, 1), (1, 5), (2, 2), (2, 5), (3, 3), (3, 4)]:
        grid = from_nubs(rows * cols, grid_edges(rows, cols))
        assert powerset_mobius(grid) == as_polynomial(grid_mu(rows, cols))


def graph_document(n, edges, shuffle):
    """An --input document of the graph on vertices v0..v{n-1}, listed
    in a shuffled order when shuffle is a seed, so vertex indices are
    not the graph's own."""
    labels = [f"v{i}" for i in range(n)]
    order = list(labels)
    if shuffle is not None:
        random.Random(shuffle).shuffle(order)
    return {"vertices": order, "nubs": [[labels[a], labels[b]] for a, b in edges]}


# Every one has more independence sets than the member budget: the
# 30-cycle about 1.9e6, the 6x6 grid about 5.6e6.  The expected mu
# comes from the closed forms and the transfer matrix, not from the
# program.
PAST_THE_BUDGET = {
    "cycle-30": (30, cycle_edges(30), None, cycle_mu(30)),
    "cycle-40": (40, cycle_edges(40), None, cycle_mu(40)),
    "grid-6x6": (36, grid_edges(6, 6), None, grid_mu(6, 6)),
    "grid-8x8": (64, grid_edges(8, 8), None, grid_mu(8, 8)),
    "grid-7x7-shuffled": (49, grid_edges(7, 7), 7, grid_mu(7, 7)),
    "path-40-shuffled": (40, path_edges(40), 40, path_mu(40)),
}


@pytest.mark.parametrize("name", list(PAST_THE_BUDGET))
def test_mobius_on_graphs_past_the_budget(capsys, tmp_path, name):
    n, edges, shuffle, expected = PAST_THE_BUDGET[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(graph_document(n, edges, shuffle)))
    code = cli.main(["mobius", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert json.loads(captured.out)["payload"]["mu"] == expected


def small_graph(rng, kind):
    """A random weighted graph of at most 12 vertices, as (n, edges,
    weights): kind 0 one draw, 1 two draws side by side, 2 a draw with
    isolated vertices added, 3 a draw whose vertices are blown up into
    twin classes of up to three equal-weight copies, adjacent to each
    other or not."""

    def draw(n):
        density = rng.choice((0.1, 0.3, 0.5, 0.8))
        return [e for e in itertools.combinations(range(n), 2) if rng.random() < density]

    def weights(n):
        return [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]

    if kind == 0:
        n = rng.randint(0, 12)
        return n, draw(n), weights(n)
    if kind == 1:
        m = rng.randint(1, 6)
        n = m + rng.randint(1, 6)
        return n, draw(m) + [(a + m, b + m) for a, b in draw(n - m)], weights(n)
    if kind == 2:
        m = rng.randint(1, 10)
        n = rng.randint(m + 1, 12)
        return n, draw(m), weights(n)
    base = rng.randint(1, 5)
    sizes = [rng.randint(1, 3) for _ in range(base)]
    while sum(sizes) > 12:
        sizes[sizes.index(max(sizes))] -= 1
    start = list(itertools.accumulate(sizes, initial=0))
    members = [range(start[i], start[i + 1]) for i in range(base)]
    edges = [(u, v) for a, b in draw(base) for u in members[a] for v in members[b]]
    for copies in members:
        if rng.random() < 0.5:
            edges += itertools.combinations(copies, 2)
    values = weights(base)
    return start[-1], edges, [values[i] for i in range(base) for _ in members[i]]


def test_graph_kernel_matches_the_enumeration_and_the_brute_force():
    rng = random.Random(32)
    seen = set()
    for k in range(240):
        n, edges, weights = small_graph(rng, k % 4)
        config = from_nubs(n, edges)
        mu = _graph_mu(n, config.nubs, weights)
        assert mu == _enumerated_mu(config, weights) == powerset_mobius(config, Valuation(tuple(weights)))
        assert mobius_polynomial(config, Valuation(tuple(weights))) == mu
        if len(core._split(n, config.nubs)) > 1:
            seen.add("disconnected")
        if any(not any(nub >> v & 1 for nub in config.nubs) for v in range(n)) and n > 1:
            seen.add("isolated")
        if brute_twin_classes(config, weights) is not None:
            seen.add("twins")
    assert seen == {"disconnected", "isolated", "twins"}


def test_graph_memo_refusal_is_bounded(capsys, monkeypatch, tmp_path):
    # A sparse random graph on 64 vertices, 206 edges, needs more than
    # 4,096 masks.  The refusal is one line, and the peak stays under
    # 1 MiB (0.7 MB measured): the memo takes 150-180 bytes a mask, the
    # packed integer of its sums included.  The parser is built first,
    # outside the trace.
    rng = random.Random(64)
    edges = [e for e in itertools.combinations(range(64), 2) if rng.random() < 0.1]
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(graph_document(64, edges, None)))
    cli.main(["builtin", "--name", "fig1-left"])
    capsys.readouterr()
    monkeypatch.setattr(core, "MEMBER_BUDGET", 4096)
    tracemalloc.start()
    try:
        code = cli.main(["mobius", "--input", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: the elimination memo exceeds the member budget of 4096\n"
    assert peak < 2**20
