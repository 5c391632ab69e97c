import argparse
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from configspaces import cli, core, mobius, probspace
from configspaces.cli import (
    COMMANDS,
    ParseError,
    config_to_json,
    main,
    parse_config,
)
from configspaces.core import components, valuation_of
from configspaces.mobius import MobiusFamily
from configspaces.poly import Polynomial, _integer, poly_to_strings
from configspaces.structure import (
    builtin,
    random_configuration,
    random_valuation,
    trace_series,
)

from conftest import path_mu, shift_masses

TEXT_CONFIG = """
# three vertices, one triple nub
vertices: a b c
nub: a b c
weight: a 1/2
"""

JSON_CONFIG = json.dumps(
    {
        "vertices": ["a", "b", "c"],
        "nubs": [["a", "b"], ["b", "c"]],
        "weights": {"a": "1/2"},
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out):
    # Integers read whatever the interpreter's limit on their digits.
    report = json.loads(out, parse_int=_integer)
    assert report["schema_version"] == "1"
    assert set(report) == {"schema_version", "command", "input_digest", "payload"}
    return report["payload"]


def test_parse_text_config():
    config, valuation = parse_config(TEXT_CONFIG)
    assert config.n == 3
    assert config.nubs == (0b111,)
    assert str(valuation.weights[0]) == "1/2"
    assert valuation.weights[1] == 1


def test_parse_json_config():
    config, valuation = parse_config(JSON_CONFIG)
    assert config.nubs == (0b011, 0b110)
    assert str(valuation.weights[0]) == "1/2"


def test_parse_errors_carry_line():
    with pytest.raises(ParseError) as excinfo:
        parse_config("vertices: a b\nnub a b\n")
    assert excinfo.value.line == 2
    with pytest.raises(ParseError):
        parse_config("nub: a b\n")
    with pytest.raises(ParseError):
        parse_config('{"vertices": ["a"], "weights": {"a": 0.5}}')


def test_config_json_roundtrip():
    config, valuation = parse_config(JSON_CONFIG)
    data = config_to_json(config, valuation)
    again, again_val = parse_config(json.dumps(data))
    assert again == config and again_val == valuation


def test_classify_star32(capsys):
    code, out, _ = run(capsys, "classify", "--name", "star-3-2")
    assert code == 0
    payload = payload_of(out)
    assert payload["type"] == "II"
    assert payload["t0"] == "1/2"
    assert payload["rest"] == "1/4"
    assert payload["mu"] == ["1", "-3", "3"]


def test_mobius_fig1_left(capsys):
    code, out, _ = run(capsys, "mobius", "--name", "fig1-left")
    assert code == 0
    assert payload_of(out)["mu"] == ["1", "-5", "7", "-1"]


def test_relative_command(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c", "d"], "nubs": [["a", "b", "c", "d"]]}))
    code, out, _ = run(capsys, "relative", "--input", str(path), "--set", "d")
    assert code == 0
    payload = payload_of(out)
    assert payload["mu_relative"] == ["1", "-3", "3"]
    assert payload["vertices"] == ["a", "b", "c"]
    # The refusal spells the set as --set does: "12" is one vertex.
    code, out, err = run(capsys, "relative", "--name", "path-12", "--set", "1,2")
    assert (code, out, err) == (2, "", "error: 1,2 is not an independence set\n")
    code, out, _ = run(capsys, "relative", "--name", "path-12", "--set", "12")
    assert (code, payload_of(out)["set"]) == (0, ["12"])


@pytest.mark.parametrize(
    "anchor, message",
    [
        ("a,b,c", "error: a,b,c is not an independence set"),
        ("zz", "error: unknown vertex label 'zz'"),
        ("a,b,a", "error: vertex label 'a' given twice"),
        ("a,,c", "error: --set 'a,,c' has an empty entry"),
        (",", "error: --set ',' has an empty entry"),
        ("a,", "error: --set 'a,' has an empty entry"),
    ],
)
def test_relative_bad_anchor(capsys, anchor, message):
    code, out, err = run(capsys, "relative", "--name", "star-4-2", "--set", anchor)
    assert (code, out, err) == (2, "", message + "\n")


def test_relative_empty_anchor(capsys):
    code, out, _ = run(capsys, "relative", "--name", "star-4-2", "--set", "")
    assert code == 0
    payload = payload_of(out)
    whole = builtin("star-4-2")
    assert payload["set"] == []
    assert payload["vertices"] == list(whole.labels)
    assert payload["nubs"] == [whole.labels_of(nub) for nub in whole.nubs]
    assert payload["mu_relative"] == ["1", "-4", "6"]


def test_critical_root_command(capsys):
    code, out, _ = run(capsys, "critical-root", "--name", "star-5-3")
    assert code == 0
    payload = payload_of(out)
    assert payload["t0"] == "1/3"
    assert payload["attained_at"] == [["a", "b"], ["a", "c"], ["b", "c"], ["a", "d"],
                                      ["b", "d"], ["c", "d"], ["a", "e"], ["b", "e"],
                                      ["c", "e"], ["d", "e"]]


def test_critical_root_irrational(capsys):
    code, out, _ = run(capsys, "critical-root", "--name", "fig1-right")
    assert code == 0
    t0 = payload_of(out)["t0"]
    assert t0["witness"] == ["1", "-5", "6", "-1"]
    assert 0.3 < t0["approx"] < 0.31


def test_space_and_verify(capsys):
    code, out, _ = run(capsys, "space", "--name", "star-4-3", "--t", "1/2")
    assert code == 0
    payload = payload_of(out)
    assert payload["covering"] is True
    masses = {tuple(a["x"]): a["mass"] for a in payload["atoms"]}
    assert masses[()] == "0"
    assert masses[("a",)] == "1/8"
    code, out, _ = run(capsys, "verify", "--name", "star-4-3", "--t", "1/2")
    assert code == 0
    payload = payload_of(out)
    assert payload["routes_agree"] and payload["marginals_ok"]


def test_space_out_of_range(capsys):
    code, out, _ = run(capsys, "space", "--name", "star-3-2", "--t", "5/8")
    assert code == 1
    payload = payload_of(out)
    assert payload["error"] == "out-of-range"
    assert payload["witness"] in (["a"], ["b"], ["c"])


def test_space_negative_t_payload(capsys):
    code, out, _ = run(capsys, "space", "--name", "star-3-2", "--t=-1/2")
    assert code == 1
    assert out == (
        '{"command":"space","input_digest":"eaabc0830d2eb3b4","payload":'
        '{"error":"out-of-range","t":"-1/2","value":"-1/2","witness":[]},'
        '"schema_version":"1"}\n'
    )


def test_verify_and_sample_commands_read_no_atoms(capsys, monkeypatch):
    def refuse(space):
        raise AssertionError("atoms read")

    monkeypatch.setattr(probspace.ConfiguredSpace, "atoms", property(refuse))
    code, out, _ = run(capsys, "verify", "--name", "path-7", "--t", "1/8")
    assert (code, payload_of(out)["routes_agree"]) == (0, True)
    code, out, _ = run(capsys, "sample", "--name", "path-7", "--t", "1/8", "--count", "100")
    assert code == 0 and sum(entry["n"] for entry in payload_of(out)["counts"]) == 100


def test_sample_deterministic(capsys):
    args = ("sample", "--name", "star-4-3", "--t", "1/2", "--count", "500", "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    total = sum(entry["n"] for entry in payload_of(out1)["counts"])
    assert total == 500


def test_decompose_command(capsys, tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("vertices: a b c d\nnub: a b\nnub: c d\n")
    code, out, _ = run(capsys, "decompose", "--input", str(path))
    assert code == 0
    payload = payload_of(out)
    assert len(payload["components"]) == 2
    assert payload["irreducible"] is False
    assert payload["product_check"] is True


def test_right_angled_command(capsys):
    code, out, _ = run(capsys, "right-angled", "--name", "fig1-right")
    assert code == 0
    payload = payload_of(out)
    assert payload["right_angled"] and payload["type_one"]
    code, out, _ = run(capsys, "right-angled", "--name", "star-4-3")
    assert code == 0
    assert payload_of(out) == {"right_angled": False}


def test_series_and_cf_count(capsys):
    code, out, _ = run(capsys, "series", "--name", "fig1-right", "--order", "6")
    assert code == 0
    coeffs = payload_of(out)["coefficients"]
    assert coeffs == ["1", "5", "19", "66", "221", "728", "2380"]
    code, out, _ = run(capsys, "cf-count", "--name", "fig1-right", "--length", "6")
    assert code == 0
    assert payload_of(out)["count"] == 2380


def test_cf_count_long_length(capsys):
    # One DP step per clique must not grow the call stack with the length.
    code, out, _ = run(capsys, "cf-count", "--name", "path-3", "--length", "3000")
    assert code == 0
    count = payload_of(out)["count"]
    assert isinstance(count, int)
    assert count == trace_series(builtin("path-3"), order=3000)[3000]
    for name in ("fig1-right", "path-6"):
        code, out, _ = run(capsys, "series", "--name", name, "--order", "12")
        assert code == 0
        coefficients = payload_of(out)["coefficients"]
        for length in range(13):
            argv = ("cf-count", "--name", name, "--length", str(length))
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert str(payload_of(out)["count"]) == coefficients[length]


def test_series_rejects_non_right_angled(capsys):
    code, out, err = run(capsys, "series", "--name", "star-4-3")
    assert code == 2
    assert "error" in err


def test_symmetric_counts_command(capsys):
    code, out, _ = run(capsys, "symmetric-counts", "--name", "dodecahedron")
    assert code == 0
    payload = payload_of(out)
    assert payload["counts"] == [1, 20, 30]
    assert payload["eta"] == [20, 3, 0]
    assert payload["formula_ok"] is True


def test_builtin_command(capsys):
    code, out, _ = run(capsys, "builtin", "--name", "fig1-left")
    assert code == 0
    payload = payload_of(out)
    assert payload["vertices"] == ["1", "2", "3", "4", "5"]
    assert ["2", "4", "5"] in payload["nubs"]


def test_check_identities(capsys):
    code, out, _ = run(
        capsys, "check-identities", "--n", "6", "--trials", "8", "--seed", "3"
    )
    assert code == 0
    payload = payload_of(out)
    assert payload["failures"] == []
    assert payload["trials"] == 8


def test_check_identities_deterministic(capsys):
    args = ("check-identities", "--n", "5", "--trials", "5", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_check_identities_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "check-identities", "--trials", "-1")
    assert (code, out, err) == (2, "", "error: trials must be nonnegative\n")
    code, out, _ = run(capsys, "check-identities", "--trials", "0")
    assert code == 0
    assert payload_of(out)["trials"] == 0 and payload_of(out)["failures"] == []


@pytest.mark.parametrize("flag, value", [("--input", "/nonexistent"), ("--name", "star-3-2")])
def test_check_identities_takes_no_configuration(capsys, flag, value):
    code, out, err = run(capsys, "check-identities", flag, value, "--n", "4", "--trials", "1")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 2
    code, _, err = run(capsys, "classify", "--name", "nonsense")
    assert code == 2
    code, out, err = run(capsys, "builtin", "--name", "path-03")
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    code, _, err = run(capsys, "space", "--name", "star-3-2")  # missing --t
    assert code == 2
    code, _, err = run(capsys, "nonsense-command")
    assert code == 2


def test_validation_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("vertices: a b\nnub: a\n")
    code, _, err = run(capsys, "classify", "--input", str(path))
    assert code == 2
    assert "nub" in err


@pytest.mark.parametrize(
    "document",
    [
        {"vertices": ["a", "b"], "weights": {"a": [1]}},
        {"vertices": ["a", "b"], "weights": ["a"]},
        {"vertices": ["a", "b"], "nubs": [[["a"], "b"]]},
        {"vertices": ["a", "b"], "nubs": 5},
        {"vertices": ["a", "b"], "weights": {"a": True}},
    ],
    ids=["list-weight", "weights-list", "nested-nub", "nubs-number", "bool-weight"],
)
def test_malformed_json_fields_are_input_errors(capsys, tmp_path, document):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "mobius", "--input", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "internal" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertices: a b\nweight: a 1/2\nweight: a 3\n", "line 3: second weight for vertex 'a'"),
        ('{"vertices": ["a", "b"], "weights": {"a": "1/2", "a": "3"}}', "repeated key 'a'"),
        ('{"vertices": ["a"], "vertices": ["a", "b"]}', "repeated key 'vertices'"),
        ('{"vertices": ["a", "b"], "nubs": [], "nubs": [["a", "b"]]}', "repeated key 'nubs'"),
        ("vertices: a b c\nnub: a b a\n", "line 2: nub mentions vertex 'a' twice"),
        ('{"vertices": ["a", "b", "c"], "nubs": [["a", "a", "b"]]}', "nub mentions vertex 'a' twice"),
    ],
    ids=["text-weight", "json-weight", "json-vertices", "json-nubs", "text-nub", "json-nub"],
)
def test_repeated_entries_are_input_errors(capsys, tmp_path, text, message):
    # Raw text: json.dumps cannot write a repeated key.
    path = tmp_path / "cfg"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "mobius", "--input", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {message}") and "Traceback" not in err


@pytest.mark.parametrize(
    "document, key",
    [
        ({"vertices": ["a", "b"], "nub": [["a", "b"]]}, "nub"),
        ({"vertices": ["a", "b"], "nubs": [["a", "b"]], "weight": {"a": "1/2"}}, "weight"),
        ({"vertices": ["a"], "nubs": [], "canonical_key": "1:"}, "canonical_key"),
    ],
    ids=["nub", "weight", "builtin-payload"],
)
def test_unknown_json_keys_are_input_errors(capsys, tmp_path, document, key):
    # Read as absent, "nub" would give t0 = 1 where the nub gives 1/2.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: unknown key {key!r}\n")


@pytest.mark.parametrize("text", [JSON_CONFIG, TEXT_CONFIG], ids=["json", "text"])
def test_leading_byte_order_mark_is_ignored(capsys, tmp_path, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for command in ("mobius", "classify"):
        expected = run(capsys, command, "--input", str(plain))
        assert expected[0] == 0
        assert run(capsys, command, "--input", str(marked)) == expected


def _child_env(**extra):
    """The environment of a CLI child process that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _run_under_latin1(*argv, stdin=b""):
    """The CLI in a child process whose standard streams are latin-1."""
    env = _child_env(PYTHONIOENCODING="latin-1")
    command = [sys.executable, "-m", "configspaces.cli", *argv]
    return subprocess.run(command, input=stdin, capture_output=True, env=env, timeout=120)


def test_stdin_is_read_as_utf8_whatever_the_locale(tmp_path):
    # A byte order mark and a label outside ASCII: the same bytes give
    # the same report through stdin as from a file.
    data = {"vertices": ["\u00e9", "b", "c"], "nubs": [["\u00e9", "b"]], "weights": {"b": "1/3"}}
    raw = b"\xef\xbb\xbf" + json.dumps(data, ensure_ascii=False).encode("utf-8")
    path = tmp_path / "marked.json"
    path.write_bytes(raw)
    for command in ("mobius", "classify"):
        piped = _run_under_latin1(command, "--input", "-", stdin=raw)
        read = _run_under_latin1(command, "--input", str(path))
        assert (read.returncode, read.stderr) == (0, b"")
        assert (piped.returncode, piped.stdout, piped.stderr) == (0, read.stdout, b"")


def _run_under_digit_limit(limit, *argv, stdin=b""):
    """The CLI in a child process that may convert integers of at most
    ``limit`` decimal digits to and from strings (0: any)."""
    env = _child_env(PYTHONINTMAXSTRDIGITS=str(limit))
    command = [sys.executable, "-m", "configspaces.cli", *argv]
    return subprocess.run(command, input=stdin, capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "argv, stdin",
    [
        # A t of 1,101 digits and atom masses of about 4,400.
        pytest.param(("space", "--name", "path-8", "--t", "1/1" + "0" * 1100), b"", id="space"),
        # Coefficients of about 840 digits, and a count of 8,418.
        pytest.param(("series", "--name", "path-3", "--order", "2000"), b"", id="series"),
        pytest.param(("cf-count", "--name", "path-3", "--length", "20000"), b"", id="cf-count"),
        # A JSON weight written as an integer of 701 digits.
        pytest.param(
            ("mobius", "--input", "-"),
            b'{"vertices":["a","b"],"nubs":[["a","b"]],"weights":{"a":1' + b"0" * 700 + b"}}",
            id="mobius",
        ),
        # A seed of 701 digits, echoed in the report.
        pytest.param(
            ("sample", "--name", "path-3", "--t", "1/8", "--count", "3", "--seed", "7" * 701),
            b"",
            id="sample",
        ),
    ],
)
def test_reports_whatever_the_int_digit_limit(argv, stdin):
    # 640 is the least limit CPython allows; 0 lifts it.
    least, lifted = (_run_under_digit_limit(limit, *argv, stdin=stdin) for limit in (640, 0))
    assert (least.returncode, least.stderr) == (0, b"")
    assert (least.returncode, least.stdout) == (lifted.returncode, lifted.stdout)


def test_closed_stdout_is_one_error_line():
    # About 2 MB of report: the reader closes the pipe after 20 bytes,
    # while the writer is still blocked on a full pipe.
    command = [sys.executable, "-m", "configspaces.cli", "series", "--name", "path-3"]
    child = subprocess.Popen(
        [*command, "--order", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    head = child.stdout.read(20)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (head, child.wait(timeout=120)) == (b'{"command":"series",', 3)
    assert b"Traceback" not in err and b"Exception ignored" not in err
    assert err.startswith(b"error: ") and err.count(b"\n") == 1


def test_stdin_that_is_not_utf8_is_an_input_error():
    bad = _run_under_latin1("mobius", "--input", "-", stdin=b"vertices: a \xff\n")
    assert (bad.returncode, bad.stdout) == (2, b"")
    assert bad.stderr.startswith(b"error: ") and bad.stderr.count(b"\n") == 1
    assert b"Traceback" not in bad.stderr


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _script_target(name):
    """The target of one ``[project.scripts]`` entry, read line by line:
    Python 3.10 has no ``tomllib``."""
    section = None
    for raw in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and line.partition("=")[0].strip() == name:
            return line.partition("=")[2].strip().strip('"')
    raise AssertionError(f"pyproject.toml has no script {name!r}")


def test_installed_script_target(capsys, monkeypatch):
    # The script that installing the package writes imports this target
    # and calls it with no arguments.
    module_name, _, attr = _script_target("configspaces").partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    assert callable(entry)
    monkeypatch.setattr(sys, "argv", ["configspaces", "builtin", "--name", "fig1-left"])
    with pytest.raises(SystemExit) as stopped:
        entry()
    assert stopped.value.code == 0
    assert payload_of(capsys.readouterr().out)["vertices"] == ["1", "2", "3", "4", "5"]


def test_parser_built_once(capsys, monkeypatch):
    assert run(capsys, "mobius", "--name", "fig1-left")[0] == 0
    built = []
    original_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "classify", "--name", "star-3-2")[0] == 0
    assert run(capsys, "space", "--name", "star-4-3", "--t", "1/2")[0] == 0
    assert len(built) == 0


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(args, config, valuation):
        raise RuntimeError("handler broke")

    monkeypatch.setitem(cli._HANDLERS, "mobius", broken)
    code, out, err = run(capsys, "mobius", "--name", "fig1-left")
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: internal: RuntimeError: handler broke"]
    assert "Traceback" not in err


def test_one_family_per_configuration(capsys, monkeypatch, tmp_path):
    built = []
    original_init = MobiusFamily.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(MobiusFamily, "__init__", counting_init)
    # mobius, relative and series eliminate mu with no family; decompose
    # sums the whole by enumeration, an irreducible configuration is its
    # own one component, and a split one eliminates its parts.  space,
    # verify and sample transform the orbits in canonical_space itself,
    # and symmetric-counts reads them in symmetric_counts.  classify and
    # critical-root eliminate mu on a connected dependence graph and
    # build the family elsewhere: a triple nub or a split graph.
    path = tmp_path / "cfg.txt"
    path.write_text("vertices: a b c d e\nnub: a b\nnub: c d\n")
    assert len(components(parse_config(path.read_text())[0])) == 3
    commands = [
        (0, "mobius", "--name", "fig1-left"),
        (0, "relative", "--name", "star-4-3", "--set", "a"),
        (0, "series", "--name", "fig1-right"),
        (0, "decompose", "--name", "star-9-4"),
        (0, "decompose", "--input", str(path)),
        (1, "critical-root", "--name", "star-5-3"),
        (0, "critical-root", "--name", "path-6"),
        (0, "classify", "--name", "fig1-right"),
        (1, "classify", "--name", "fig1-left"),
        (1, "classify", "--input", str(path)),
        (0, "space", "--name", "star-4-3", "--t", "1/2"),
        (0, "verify", "--name", "star-5-3", "--t", "1/4"),
        (0, "sample", "--name", "path-6", "--t", "1/8", "--count", "50"),
        (1, "right-angled", "--name", "path-6"),
        (0, "symmetric-counts", "--name", "fig1-left"),
    ]
    for families, *argv in commands:
        built.clear()
        code, _, _ = run(capsys, *argv)
        assert (argv, code, len(built)) == (argv, 0, families)


def test_verify_enumerates_the_family_once(capsys, monkeypatch):
    # verify sums mu(t) over the members its space already expanded from
    # one walk of the orbits (of the members, where there are no twins)
    walks = []
    original = core.enumerate_independence_sets

    def counting(config, twins=None):
        walks.append(config)
        return original(config, twins)

    monkeypatch.setattr(core, "enumerate_independence_sets", counting)
    monkeypatch.setattr(mobius, "enumerate_independence_sets", counting)
    for argv in (
        ("verify", "--name", "star-5-3", "--t", "1/4"),
        ("verify", "--name", "path-10", "--t", "1/8"),
        ("verify", "--name", "path-12", "--t", "1/2"),
    ):
        walks.clear()
        code, out, _ = run(capsys, *argv)
        assert (argv, len(walks)) == (argv, 1), out


def test_verify_multiplies_out_the_products_once(capsys, monkeypatch):
    # verify_realization reuses the products canonical_space built; the
    # dense route keeps its own recurrence.  Masses off the family are
    # checked against products over their closure, made anew.
    calls = []
    original = probspace._scaled_products

    def counting(members, valuation, t):
        calls.append(t)
        return original(members, valuation, t)

    monkeypatch.setattr(probspace, "_scaled_products", counting)
    code, out, _ = run(capsys, "verify", "--name", "path-13", "--t", "1/8")
    assert (code, payload_of(out)["routes_agree"], calls) == (0, True, [Fraction(1, 8)])
    space = probspace.canonical_space(builtin("path-4"), None, Fraction(1, 8))
    moved = shift_masses(space, {0b11: Fraction(1, 64), 0: Fraction(-1, 64)})
    calls.clear()
    assert probspace.verify_realization(space).ok and calls == []
    assert not probspace.verify_realization(moved).exclusivity_ok and calls == [Fraction(1, 8)]


def test_dense_dependence_indicator(rng):
    for _ in range(40):
        config = random_configuration(rng.randint(0, 9), rng)
        dependent = cli._dependence_indicator(config)
        assert len(dependent) == 1 << config.n
        assert [not cell for cell in dependent] == [
            config.is_independent(mask) for mask in range(1 << config.n)
        ]


def refused_within_a_mebibyte(capsys, *argv):
    """Run a command that must exit 2 with one stderr line; return that line."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


def test_verify_dense_check_bound(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify built a table past the dense bound")

    for name in (
        "canonical_space",
        "verify_realization",
        "atoms_from_intersections",
        "_intersection_masses",
    ):
        monkeypatch.setattr(cli.probspace, name, refuse)
    monkeypatch.setattr(cli, "_dependence_indicator", refuse)
    # One byte per subset would already be 2 MiB.
    err = refused_within_a_mebibyte(capsys, "verify", "--name", "star-21-1", "--t", "1/40")
    assert "dense cross-check" in err and "21 vertices" in err


def test_verify_dense_check_bound_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_DENSE_CHECK_MAX_N", 5)
    code, out, _ = run(capsys, "verify", "--name", "star-5-3", "--t", "1/4")
    assert code == 0 and payload_of(out)["routes_agree"] is True
    code, out, err = run(capsys, "verify", "--name", "star-6-3", "--t", "1/4")
    assert code == 2 and out == "" and "dense cross-check" in err


def test_dense_route_matches_full_table_and_canonical_atoms(rng):
    # The route over the independent masks against the dense route over
    # all 2^n masks and against the canonical space.
    nub_sizes = set()
    for _ in range(60):
        config = random_configuration(
            rng.randint(1, 9), rng, include_probability=rng.choice((0.08, 0.15, 0.25))
        )
        valuation = random_valuation(config, rng)
        nub_sizes.update(nub.bit_count() for nub in config.nubs)
        root = MobiusFamily(config, valuation).critical_root()[0]
        ts = [Fraction(0), (root.value if root.is_rational else root.lo) / 2]
        if root.is_rational:
            ts.append(root.value)
        for t in ts:
            q = {
                mask: (
                    valuation.of(mask) * t ** mask.bit_count()
                    if config.is_independent(mask)
                    else Fraction(0)
                )
                for mask in range(1 << config.n)
            }
            dense = probspace.atoms_from_intersections(config.n, q)
            space = probspace.canonical_space(config, valuation, t)
            scale, masses = cli._dense_route_atoms(config, valuation, t)
            assert all(masses.values())
            route = {x: Fraction(mass, scale) for x, mass in masses.items()}
            assert route == {word.positives: mass for word, mass in dense.items() if mass}
            assert route == {x: mass for x, mass in space.atoms.items() if mass}
    assert nub_sizes == {2, 3, 4}


@pytest.mark.parametrize("share", [Fraction(1, 2), Fraction(1)])
def test_routes_disagree_when_mass_moves(capsys, monkeypatch, share):
    canonical_space = probspace.canonical_space

    def moved(config, valuation, t):
        space = canonical_space(config, valuation, t)
        donor, receiver = 0b0001, 0b0100
        amount = space.mass(donor) * share
        return shift_masses(space, {donor: -amount, receiver: amount})

    monkeypatch.setattr(cli.probspace, "canonical_space", moved)
    code, out, _ = run(capsys, "verify", "--name", "path-7", "--t", "1/8")
    assert (code, payload_of(out)["routes_agree"]) == (1, False)


def test_routes_agree_over_another_denominator(capsys, monkeypatch):
    # The same masses over three times the denominator: the comparison
    # must cross-multiply, not compare numerators.
    canonical_space = probspace.canonical_space

    def rescaled(config, valuation, t):
        space = canonical_space(config, valuation, t)
        masses = {x: 3 * mass for x, mass in space.masses.items()}
        return probspace.ConfiguredSpace(
            space.config, space.valuation, space.t, 3 * space.scale, masses, space._products
        )

    monkeypatch.setattr(cli.probspace, "canonical_space", rescaled)
    code, out, _ = run(capsys, "verify", "--name", "path-7", "--t", "1/8")
    payload = payload_of(out)
    assert (code, payload["routes_agree"], payload["violations"]) == (0, True, [])


def test_verify_dense_route_memory(capsys):
    # The route keeps one byte per subset and nothing else dense: a
    # Fraction per subset would peak near 60 MiB here.
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "--name", "complete-18", "--t", "1/40")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, payload_of(out)["routes_agree"]) == (0, True)
    assert peak < 8 * 2**20


def test_pretty_flag(capsys):
    code, out, err = run(capsys, "classify", "--name", "star-3-2", "--pretty")
    assert code == 0
    assert "type II" in err
    payload_of(out)  # stdout still machine readable


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--name", "path-20"),  # 17,711 independence sets
        ("mobius", "--name", "path-20"),  # eliminated: leaves of at most 377
        ("relative", "--name", "path-20", "--set", "1"),  # a link of 6,765
    ],
    ids=lambda argv: argv[0],
)
def test_member_budget(capsys, monkeypatch, argv):
    # The budget bounds enumerations and memo keys: mobius and relative
    # eliminate down to small leaves, and so does classify on a connected
    # dependence graph, which builds no family.
    _, unpatched, _ = run(capsys, *argv)
    monkeypatch.setattr(cli.core, "MEMBER_BUDGET", 4096)
    assert run(capsys, *argv) == (0, unpatched, "")


@pytest.mark.parametrize("command", ["classify", "critical-root"])
def test_member_budget_family_refusal(capsys, monkeypatch, command):
    # star-14-12, one class of 14 twins and 14 nubs of 13 vertices, is
    # not right angled, so both commands build its family: 16,369
    # members, counted from 13 orbits.
    monkeypatch.setattr(cli.core, "MEMBER_BUDGET", 4096)
    err = refused_within_a_mebibyte(capsys, command, "--name", "star-14-12")
    assert "member budget of 4096" in err


def test_elimination_past_the_budget(capsys, tmp_path):
    # path-64 has about 2.8e13 independence sets, DEEP_TRIPLE 7 * 2^37.
    code, out, _ = run(capsys, "mobius", "--name", "path-64")
    assert (code, payload_of(out)["mu"]) == (0, path_mu(64))
    code, out, _ = run(capsys, "relative", "--name", "path-64", "--set", "1")
    payload = payload_of(out)
    assert (code, payload["mu_relative"]) == (0, path_mu(62))
    assert payload["vertices"] == [str(i) for i in range(3, 65)]
    path = tmp_path / "deep.json"
    path.write_text(DEEP_TRIPLE)
    code, out, _ = run(capsys, "mobius", "--input", str(path))
    expected = Polynomial((-1) ** k * math.comb(37, k) for k in range(38)) * Polynomial([1, -3, 3])
    assert (code, payload_of(out)["mu"]) == (0, poly_to_strings(expected))
    # classify eliminates mu on a connected dependence graph ...
    code, out, _ = run(capsys, "classify", "--name", "path-25")
    payload = payload_of(out)
    assert (code, payload["mu"], payload["attained_at"]) == (0, path_mu(25), [[]])
    # ... and still enumerates the whole family of a split one: two
    # 13-vertex paths, 610^2 = 372,100 members.
    labels = [f"{side}{i}" for side in "pq" for i in range(13)]
    nubs = [[f"{side}{i}", f"{side}{i + 1}"] for side in "pq" for i in range(12)]
    path = tmp_path / "two-paths.json"
    path.write_text(json.dumps({"vertices": labels, "nubs": nubs}))
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: the independence family exceeds the member budget of 131072\n"


def test_wide_star_past_the_budget(capsys):
    # star-30-28: about 2^30 members, 30 nubs of 29 vertices.  mobius
    # eliminates it to (1 - t)^30 without its top two terms; classify
    # still enumerates the whole family and is refused.
    code, out, _ = run(capsys, "mobius", "--name", "star-30-28")
    expected = [str((-1) ** k * math.comb(30, k)) for k in range(29)]
    assert (code, payload_of(out)["mu"]) == (0, expected)
    code, out, err = run(capsys, "classify", "--name", "star-30-28")
    assert (code, out) == (2, "")
    assert err == "error: the independence family exceeds the member budget of 131072\n"


def cyclic_triples(copies):
    """Disjoint copies of the 13 triples {i, i + 1, i + 3} mod 13, which
    have no twins (2,276 members a copy), as input JSON."""
    labels = [f"c{c}v{i}" for c in range(copies) for i in range(13)]
    nubs = [
        [f"c{c}v{i}", f"c{c}v{(i + 1) % 13}", f"c{c}v{(i + 3) % 13}"]
        for c in range(copies)
        for i in range(13)
    ]
    return json.dumps({"vertices": labels, "nubs": nubs})


@pytest.mark.parametrize(
    "name", ["star-19-8", "star-30-28", "star-64-63", "deep-triple", "two-copies", "three-copies"]
)
def test_mobius_past_the_budget(capsys, tmp_path, name):
    # Every family here is past the member budget; the expected bytes come
    # from closed forms and products, not from the program's route.  A
    # star is one twin class, walked as one leaf of n + 1 orbits: its mu is
    # the sum over j <= k of C(n, j) (-t)^j.  The deep triple has two
    # classes, 38 * 4 count vectors: (1 - t)^37 (1 - 3t + 3t^2).  A copy
    # of the cyclic triples has 2^13 count vectors and is eliminated; the
    # copies multiply, so the union's mu is a power of one copy's.
    if name.startswith("star-"):
        n, k = map(int, name.split("-")[1:])
        argv = ("mobius", "--name", name)
        expected = [str((-1) ** j * math.comb(n, j)) for j in range(k + 1)]
    else:
        path = tmp_path / "input.json"
        argv = ("mobius", "--input", str(path))
        if name == "deep-triple":
            path.write_text(DEEP_TRIPLE)
            mu = Polynomial((-1) ** j * math.comb(37, j) for j in range(38)) * Polynomial([1, -3, 3])
        else:
            copies = ["two-copies", "three-copies"].index(name) + 2
            path.write_text(cyclic_triples(copies))
            one, _ = parse_config(cyclic_triples(1))
            mu = math.prod([mobius._enumerated_mu(one, [Fraction(1)] * one.n)] * copies)
        expected = poly_to_strings(mu)
    code, out, err = run(capsys, *argv)
    assert (code, payload_of(out)["mu"], err) == (0, expected, "")


def test_product_check_catches_wrong_elimination(capsys, monkeypatch, tmp_path):
    # path-13 and a disjoint pair: both components are dependence graphs,
    # eliminated by the graph kernel.  Widen the path's first nub by a far
    # vertex and that component is eliminated by links instead.  Each
    # product is compared with an enumeration of the whole.
    labels = [f"p{i}" for i in range(13)] + ["x", "y"]
    pairs = [[f"p{i}", f"p{i + 1}"] for i in range(12)] + [["x", "y"]]
    graph, linked = tmp_path / "graph.json", tmp_path / "linked.json"
    graph.write_text(json.dumps({"vertices": labels, "nubs": pairs}))
    linked.write_text(json.dumps({"vertices": labels, "nubs": [["p0", "p1", "p6"]] + pairs[1:]}))

    def checked(path):
        code, out, _ = run(capsys, "decompose", "--input", str(path))
        assert code == 0
        return payload_of(out)["product_check"]

    assert (checked(graph), checked(linked)) == (True, True)
    kernel, link = mobius._graph_mu, core._link
    # The graph kernel misses the last edge it is given.
    monkeypatch.setattr(mobius, "_graph_mu", lambda n, edges, weights: kernel(n, edges[:-1], weights))
    assert checked(graph) is False
    monkeypatch.setattr(mobius, "_graph_mu", kernel)
    # The link of the next vertex in place of the link of vertex 0:
    # only the widened path takes a link.
    monkeypatch.setattr(core, "_link", lambda n, nubs, x: link(n, nubs, x << 1))
    assert (checked(graph), checked(linked)) == (True, False)


# 40 vertices and the one nub {37, 38, 39}: 2^40 - 2^37 members, and a
# branch 37 deep before the walk first meets the nub.
DEEP_TRIPLE = json.dumps(
    {"vertices": [f"v{i}" for i in range(40)], "nubs": [["v37", "v38", "v39"]]}
)


def wide_nub_argv(name, tmp_path):
    if name != "deep-triple":
        return ("classify", "--name", name)
    path = tmp_path / "deep.json"
    path.write_text(DEEP_TRIPLE)
    return ("classify", "--input", str(path))


# star-19-8: 169,766 members and nubs of nine vertices; star-30-28: nubs
# of 29 vertices.  The walk memoises extension sets of members it has not
# yet reached, so it must stop once the memo, not only the count of
# members yielded, passes the budget.
WIDE_NUBS = ["star-19-8", "star-30-28", "deep-triple"]


@pytest.mark.parametrize("name", WIDE_NUBS)
def test_member_budget_wide_nubs(capsys, tmp_path, name):
    code, out, err = run(capsys, *wide_nub_argv(name, tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: the independence family exceeds the member budget of 131072\n"


# star-19-8's 92,378 nubs would trip the star guard under this budget.
@pytest.mark.parametrize("name", ["star-30-28", "deep-triple"])
def test_member_budget_wide_nubs_memory(capsys, monkeypatch, tmp_path, name):
    monkeypatch.setattr(cli.core, "MEMBER_BUDGET", 4096)
    err = refused_within_a_mebibyte(capsys, *wide_nub_argv(name, tmp_path))
    assert "member budget of 4096" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("builtin", "--name", "star-40-20"),
        ("classify", "--name", "complete-100000"),
        ("mobius", "--name", "path-1000000000"),
        ("check-identities", "--n", "100000"),
    ],
    ids=lambda argv: argv[-1],
)
def test_sizes_refused_before_generation(capsys, argv):
    refused_within_a_mebibyte(capsys, *argv)


def test_no_vertex_cap(capsys):
    code, out, _ = run(capsys, "classify", "--name", "complete-30")  # 31 members
    assert code == 0
    assert payload_of(out)["mu"] == ["1", "-30"]
    code, _, _ = run(capsys, "mobius", "--name", "path-8", "--max-n", "30")
    assert code == 2


def test_readme_flags_match_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("\nFlags:") :].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z-]+)", paragraph))
    subparsers = next(
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        option
        for command in subparsers.choices.values()
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert documented == options


def test_readme_commands_match_cli():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("\nCommands:") :].split("\n\n", 1)[0]
    assert re.findall(r"`([a-z-]+)`", paragraph) == list(COMMANDS)
