"""classify and critical-root on connected dependence graphs: the
eliminated route (``mobius.connected_graph_root``) against the family
route it replaces, and against closed forms past the member budget."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from configspaces import cli
from configspaces.core import from_nubs
from configspaces.poly import _integer
from configspaces.structure import random_valuation

from conftest import path_mu


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
