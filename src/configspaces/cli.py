"""Command line interface: parse a configuration, run one operation,
emit a deterministic JSON report on stdout.

The argument parser is built once, on the first ``main`` call.  Each
input format checks only its own syntax and shape; ``_assemble`` turns
labels, nubs and weights into the configuration for both.  Each format
refuses what it does not know: the text format an unknown directive,
JSON a key other than ``vertices``, ``nubs`` and ``weights``.
``check-identities`` draws its own configurations and takes no
``--input`` or ``--name``.

``mobius`` and ``relative`` call ``mobius_polynomial``, which
eliminates and enumerates small leaves only; ``relative`` calls it on
the anchor's link, the relative configuration.  A handler that reads the
enumerated family builds one ``MobiusFamily`` per configuration it
analyses and reads every reported quantity from it; ``space``,
``verify`` and ``sample`` get theirs through ``canonical_space``.  Every
enumeration stops past ``core.MEMBER_BUDGET`` independence sets, and
every elimination past that many memoised polynomials (exit 2), before
anything built from the family is stored.  ``decompose`` and
``check-identities`` compare the product of the components' eliminated
mu with an enumerated mu of the whole, so the check does not repeat the
split it tests.
``verify`` reports ``routes_agree``: whether the dense sign-word route
reproduces the canonical atoms.  That route takes independence from the
nubs, closed upward over all 2^n masks, not from the enumerated family,
and builds the intersection probabilities q in integers over its own
denominator.  It runs the kernel of ``atoms_from_intersections`` over
the independent masks only: q is 0 on the dependent masks, which are
closed upward, and a superset Mobius step only moves value from a set
to its subsets, so those cells stay 0 at every step and walking them
would change nothing.  The 2^n indicator is bounded at n <= 20,
and ``verify`` refuses larger configurations (exit 2) before allocating
anything.

Exit codes: 0 on success, 1 when a verification command found a
violation (or the requested t is out of range), 2 on usage, parse, or
validation errors (malformed input fields included), 3 on an internal
error or when the reader closed stdout (each on one stderr line, never
as a traceback).  Integers are read by ``poly._integer`` and written by
``poly._decimal``, whatever the interpreter's limit on their digits.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import core, probspace, structure
from .core import Configuration, Restriction, Valuation
from .mobius import MobiusFamily, RestBound, _enumerated_mu, mobius_polynomial
from .poly import (
    AlgebraicRoot,
    Polynomial,
    _decimal,
    _integer,
    format_rational,
    parse_rational,
    poly_to_strings,
)

SCHEMA_VERSION = "1"

#: verify's dense cross-check builds a one-byte indicator over all 2^n
#: vertex subsets; larger configurations are refused before anything is
#: allocated.
_DENSE_CHECK_MAX_N = 20


class ParseError(ValueError):
    """Input file could not be parsed; carries line information."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _assemble(labels, nubs, weights) -> tuple[Configuration, Valuation]:
    """The configuration and valuation that either input format describes.

    Nubs come as (line, labels) and weights as (line, label, value); the
    line, None for JSON, is reported in errors about that entry.
    """
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        raise ParseError("vertex labels must be unique")
    masks = []
    for line, names in nubs:
        mask = 0
        for name in names:
            if name not in index:
                raise ParseError(f"nub mentions unknown vertex {name!r}", line)
            if mask >> index[name] & 1:
                raise ParseError(f"nub mentions vertex {name!r} twice", line)
            mask |= 1 << index[name]
        masks.append(mask)
    config = core.from_nubs(len(labels), masks, labels)
    values = [Fraction(1)] * len(labels)
    weighted: set[str] = set()
    for line, name, value in weights:
        if name not in index:
            raise ParseError(f"weight for unknown vertex {name!r}", line)
        if name in weighted:
            raise ParseError(f"second weight for vertex {name!r}", line)
        weighted.add(name)
        try:
            values[index[name]] = Fraction(value) if type(value) is int else parse_rational(value)
        except ValueError as exc:
            raise ParseError(f"weight for {name!r}: {exc}", line) from exc
    return config, core.valuation_of(config, values)


def _is_label_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """One JSON object; a repeated key is ambiguous, so it is refused."""
    data: dict[str, object] = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"repeated key {key!r} in a JSON object")
        data[key] = value
    return data


def parse_config_json(text: str) -> tuple[Configuration, Valuation]:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_integer)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), exc.lineno) from exc
    if not isinstance(data, dict):
        raise ParseError("expected an object with a 'vertices' list")
    # A misspelt key would otherwise be read as an absent one.
    for key in data:
        if key not in ("vertices", "nubs", "weights"):
            raise ParseError(f"unknown key {key!r}")
    if "vertices" not in data:
        raise ParseError("expected an object with a 'vertices' list")
    if not _is_label_list(data["vertices"]):
        raise ParseError("'vertices' must be a list of strings")
    nubs = data.get("nubs", [])
    if not isinstance(nubs, list) or not all(_is_label_list(nub) for nub in nubs):
        raise ParseError("'nubs' must be a list of label lists")
    weights = data.get("weights", {})
    # Exact types: a bool is an int subclass and a float is inexact.
    if not isinstance(weights, dict) or any(
        type(w) not in (int, str) for w in weights.values()
    ):
        raise ParseError("'weights' must map labels to integers or rational strings")
    return _assemble(
        data["vertices"],
        [(None, nub) for nub in nubs],
        [(None, label, value) for label, value in weights.items()],
    )


def parse_config_text(text: str) -> tuple[Configuration, Valuation]:
    labels: list[str] | None = None
    nubs: list[tuple[int, list[str]]] = []
    weights: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"expected 'directive: arguments', got {line!r}", lineno)
        directive, _, rest = line.partition(":")
        directive = directive.strip()
        args = rest.split()
        if directive == "vertices":
            if labels is not None:
                raise ParseError("duplicate 'vertices' line", lineno)
            labels = args
        elif directive == "nub":
            nubs.append((lineno, args))
        elif directive == "weight":
            if len(args) != 2:
                raise ParseError("'weight' needs a vertex and a rational", lineno)
            weights.append((lineno, args[0], args[1]))
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)
    if labels is None:
        raise ParseError("missing 'vertices' line")
    return _assemble(labels, nubs, weights)


def parse_config(text: str) -> tuple[Configuration, Valuation]:
    """Parse the JSON or the line-oriented text format; one leading
    byte order mark (U+FEFF) is ignored."""
    text = text.removeprefix("\ufeff")
    if text.lstrip().startswith("{"):
        return parse_config_json(text)
    return parse_config_text(text)


def config_to_json(config: Configuration, valuation: Valuation) -> dict:
    data: dict[str, object] = {
        "vertices": list(config.labels),
        "nubs": [config.labels_of(nub) for nub in config.nubs],
    }
    weights = {
        config.label_of(i): format_rational(w)
        for i, w in enumerate(valuation.weights)
        if w != 1
    }
    if weights:
        data["weights"] = weights
    return data


class _Numeral:
    """An integer that ``_canonical_json`` writes as the digits of
    ``poly._decimal``: json would convert it under the interpreter's
    limit on the digits of an integer."""

    __slots__ = ("digits",)

    def __init__(self, value: int):
        self.digits = _decimal(value)


#: Where a numeral goes until json has written the rest.
_HOLE = "\ufffe numeral"


def _canonical_json(data: object) -> str:
    """Compact JSON with sorted keys; a ``_Numeral`` is written bare."""
    numerals: list[str] = []

    def hold(numeral: _Numeral) -> str:
        numerals.append(numeral.digits)
        return _HOLE

    line = json.dumps(data, sort_keys=True, separators=(",", ":"), default=hold)
    for digits in numerals:
        line = line.replace(json.dumps(_HOLE), digits, 1)
    return line


def _digest(config: Configuration, valuation: Valuation) -> str:
    blob = _canonical_json(config_to_json(config, valuation))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _root_json(root: AlgebraicRoot) -> object:
    if root.is_rational:
        return format_rational(root.value)
    return {
        "witness": poly_to_strings(root.witness),
        "lo": format_rational(root.lo),
        "hi": format_rational(root.hi),
        "approx": root.approx(),
    }


def _rest_json(rest: Fraction | RestBound) -> object:
    if isinstance(rest, Fraction):
        return format_rational(rest)
    return {
        "sign": rest.sign,
        "lo": format_rational(rest.lo),
        "hi": format_rational(rest.hi),
    }


def _load(args: argparse.Namespace) -> tuple[Configuration, Valuation]:
    if args.name and args.input:
        raise ParseError("give either --input or --name, not both")
    if args.name:
        config = structure.builtin(args.name)
        return config, Valuation.uniform(config.n)
    if not args.input:
        raise ParseError("an input configuration is required (--input or --name)")
    if args.input == "-":
        # Decoded as UTF-8, as a file is, whatever the locale says.
        text = sys.stdin.buffer.read().decode("utf-8")
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from exc
    return parse_config(text)


def _cmd_mobius(args, config, valuation) -> tuple[dict, int]:
    return {"mu": poly_to_strings(mobius_polynomial(config, valuation))}, 0


def _cmd_relative(args, config, valuation) -> tuple[dict, int]:
    if args.set is None:
        raise ParseError("the relative command needs --set")
    # An empty --set is the empty anchor; an empty entry is a typo.
    names = args.set.split(",") if args.set else []
    if "" in names:
        raise ParseError(f"--set {args.set!r} has an empty entry")
    anchor = config.mask_of_labels(names)
    view = core.relative_configuration(config, anchor)
    # mu^{|x} is the Mobius polynomial of the link: only it is eliminated.
    poly = mobius_polynomial(view.config, valuation.restrict(view.index_map))
    return {
        "set": config.labels_of(anchor),
        "vertices": config.labels_of(view.vertices),
        "nubs": [view.config.labels_of(nub) for nub in view.config.nubs],
        "mu_relative": poly_to_strings(poly),
    }, 0


def _cmd_critical_root(args, config, valuation) -> tuple[dict, int]:
    root, attained = MobiusFamily(config, valuation).critical_root()
    return {
        "t0": _root_json(root),
        "attained_at": [config.labels_of(x) for x in attained],
    }, 0


def _cmd_classify(args, config, valuation) -> tuple[dict, int]:
    family = MobiusFamily(config, valuation)
    result = family.classify()
    return {
        "mu": poly_to_strings(family.relative(0)),
        "t0": _root_json(result.critical_root),
        "type": result.config_type,
        "rest": _rest_json(result.rest_at_t0),
        "attained_at": [config.labels_of(x) for x in result.attained_at],
    }, 0


def _space(args, config, valuation) -> probspace.ConfiguredSpace:
    """The canonical space at ``--t``; ``main`` reports OutOfRange."""
    if args.t is None:
        raise ParseError(f"the {args.command} command needs --t")
    return probspace.canonical_space(config, valuation, parse_rational(args.t))


def _out_of_range_payload(config, exc: probspace.OutOfRange) -> dict:
    return {
        "error": "out-of-range",
        "t": format_rational(exc.t),
        "witness": config.labels_of(exc.witness),
        "value": format_rational(exc.value),
    }


def _cmd_space(args, config, valuation) -> tuple[dict, int]:
    space = _space(args, config, valuation)
    atoms = [
        {"x": config.labels_of(x), "mass": format_rational(mass)}
        for x, mass in space.atoms.items()
    ]
    return {
        "t": format_rational(space.t),
        "atoms": atoms,
        "rest": format_rational(space.rest()),
        "covering": space.rest() == 0,
    }, 0


def _dependence_indicator(config: Configuration) -> bytes:
    """One byte per subset of the vertices: 1 where it contains a nub.

    The nubs are closed upward one vertex at a time over the whole 2^n
    table at once: the bytes are the digits of one integer, and adding
    vertex i copies every cell without i onto the cell 2^i bytes above.
    """
    size = 1 << config.n
    cells = bytearray(size)
    for nub in config.nubs:
        cells[nub] = 1
    table = int.from_bytes(cells, "little")
    for i in range(config.n):
        half = 1 << i
        pattern = (b"\x01" * half + b"\x00" * half) * (size // (2 * half))
        table |= (table & int.from_bytes(pattern, "little")) << (8 * half)
    return table.to_bytes(size, "little")


_INDEPENDENT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _dense_route_atoms(
    config: Configuration, valuation: Valuation, t: Fraction
) -> tuple[int, dict[int, int]]:
    """A denominator D and, as integers over D, the nonzero atom masses
    that the intersections q(x) = f(x) t^|x| on the independent masks,
    and 0 on the dependent ones, force.

    Independence is read from the nubs over all 2^n masks; the
    independent masks are picked out at C level and q is built on them
    alone, by its own top-vertex recurrence.  Walking only those cells
    is exact (see the module docstring).
    """
    factors = [(c.numerator, c.denominator) for c in (w * t for w in valuation.weights)]
    independent = _dependence_indicator(config).translate(_INDEPENDENT)
    keys = list(itertools.compress(range(1 << config.n), independent))
    scale = math.prod(den for _, den in factors)
    q = {0: scale}
    for mask in itertools.islice(keys, 1, None):
        top = mask.bit_length() - 1
        num, den = factors[top]
        q[mask] = q[mask ^ (1 << top)] * num // den
    probspace._intersection_masses(keys, q, scale)
    return scale, {x: value for x, value in q.items() if value}


def _cmd_verify(args, config, valuation) -> tuple[dict, int]:
    if config.n > _DENSE_CHECK_MAX_N:
        raise core.TooLarge(
            f"verify's dense cross-check covers all 2^n subsets; {config.n} "
            f"vertices exceeds its limit of {_DENSE_CHECK_MAX_N}"
        )
    space = _space(args, config, valuation)
    report = probspace.verify_realization(space)
    # Independent cross-check through the dense sign-word route:
    # prescribing the intersection probabilities must reproduce the
    # canonical atom masses, the nonzero ones on the same sets.
    route_scale, route = _dense_route_atoms(config, valuation, space.t)
    scale, masses = space.scale, space.masses
    # Cross-multiplied by the cofactors of the two denominators.
    common = math.gcd(scale, route_scale)
    route_factor, space_factor = scale // common, route_scale // common
    routes_agree = route.keys() == {x for x, mass in masses.items() if mass} and all(
        mass * route_factor == masses[x] * space_factor for x, mass in route.items()
    )
    payload = {
        "t": format_rational(space.t),
        "marginals_ok": report.marginals_ok,
        "independence_ok": report.independence_ok,
        "exclusivity_ok": report.exclusivity_ok,
        "routes_agree": routes_agree,
        "covering": report.covering,
        "rest": format_rational(report.rest),
        "violations": report.violations,
    }
    ok = report.ok and routes_agree
    return payload, 0 if ok else 1


def _cmd_sample(args, config, valuation) -> tuple[dict, int]:
    space = _space(args, config, valuation)
    tallies = probspace.sample(space, args.count, args.seed)
    counts = [{"x": config.labels_of(x), "n": n} for x, n in tallies.items()]
    return {
        "t": format_rational(space.t),
        "count": args.count,
        "seed": _Numeral(args.seed),
        "counts": counts,
    }, 0


def _component_product(
    parts: tuple[Restriction, ...], valuation: Valuation, whole: Polynomial
) -> Polynomial:
    """Product of the Mobius polynomials of the nub-connected components.

    An irreducible configuration is its one component, so its product is
    ``whole``, the Mobius polynomial already enumerated; only a split
    configuration eliminates its parts' polynomials.  ``whole`` must
    come from an enumeration of the whole: ``mobius_polynomial`` itself
    multiplies components, so comparing with it would check nothing.
    """
    if len(parts) == 1:
        return whole
    product = Polynomial([1])
    for part in parts:
        product = product * mobius_polynomial(part.config, valuation.restrict(part.index_map))
    return product


def _cmd_decompose(args, config, valuation) -> tuple[dict, int]:
    parts = core.components(config)
    whole = _enumerated_mu(config, valuation.weights)
    return {
        "components": [
            {
                "vertices": config.labels_of(part.vertices),
                "nubs": [part.config.labels_of(nub) for nub in part.config.nubs],
            }
            for part in parts
        ],
        "irreducible": len(parts) <= 1,
        "product_check": _component_product(parts, valuation, whole) == whole,
    }, 0


def _cmd_right_angled(args, config, valuation) -> tuple[dict, int]:
    if not core.is_right_angled(config):
        return {"right_angled": False}, 0
    report = structure.right_angled_properties(config, valuation)
    payload = {
        "right_angled": True,
        "type_one": report.type_one,
        "irreducible": report.irreducible,
        "t0": _root_json(report.critical_root),
        "simple_root": report.simple_root,
        "relative_positive": report.relative_positive,
        "monotone": report.monotone,
    }
    ok = (
        report.type_one
        and report.monotone
        and report.simple_root is not False
        and report.relative_positive is not False
    )
    return payload, 0 if ok else 1


def _cmd_series(args, config, valuation) -> tuple[dict, int]:
    series = structure.trace_series(config, valuation, args.order)
    return {
        "order": args.order,
        "coefficients": [format_rational(c) for c in series],
    }, 0


def _cmd_cf_count(args, config, valuation) -> tuple[dict, int]:
    weighted = any(w != 1 for w in valuation.weights)
    count = structure.trace_count_cf(config, args.length, valuation if weighted else None)
    value = format_rational(Fraction(count)) if weighted else _Numeral(count)
    return {"length": args.length, "count": value}, 0


def _cmd_symmetric_counts(args, config, valuation) -> tuple[dict, int]:
    report = structure.symmetric_counts(config)
    return {
        "counts": list(report.counts),
        "eta": list(report.eta),
        "formula_ok": report.formula_ok,
        "failed_level": report.failed_level,
    }, 0


def _cmd_builtin(args, config, valuation) -> tuple[dict, int]:
    payload = config_to_json(config, valuation)
    payload["canonical_key"] = core.canonical_key(config)
    return payload, 0


def _cmd_check_identities(args) -> tuple[dict, int]:
    import random as _random

    if args.trials < 0:
        raise ValueError("trials must be nonnegative")
    rng = _random.Random(args.seed)
    failures: list[str] = []
    for trial in range(args.trials):
        config = structure.random_configuration(args.n, rng)
        valuation = structure.random_valuation(config, rng)
        family = MobiusFamily(config, valuation)
        if not family.derivative_identity_residual().is_zero:
            failures.append(f"trial {trial}: derivative identity residual nonzero")
        if not family.inversion_check():
            failures.append(f"trial {trial}: inversion identity failed")
        # relative(0) reads the packed transform of the enumerated family.
        mu = family.relative(0)
        if _component_product(core.components(config), valuation, mu) != mu:
            failures.append(f"trial {trial}: decomposition product mismatch")
        rebuilt = core.from_independence_list(config.n, family.members(), config.labels)
        if rebuilt.nubs != config.nubs:
            failures.append(f"trial {trial}: independence-list round trip changed nubs")
    payload = {
        "n": args.n,
        "trials": args.trials,
        "seed": _Numeral(args.seed),
        "checks": [
            "derivative_identity",
            "inversion",
            "decomposition_product",
            "independence_roundtrip",
        ],
        "failures": failures,
    }
    return payload, 0 if not failures else 1


def _pretty_summary(command: str, payload: dict) -> str:
    if command == "classify":
        return (
            f"type {payload['type']}, t0 = {payload['t0']}, rest = {payload['rest']}"
        )
    if command == "mobius":
        return "mu = [" + ", ".join(payload["mu"]) + "]"
    if command == "verify":
        status = "ok" if not payload.get("violations") else "VIOLATIONS"
        return f"verify at t = {payload.get('t')}: {status}"
    if command == "check-identities":
        return f"{payload['trials']} trials, {len(payload['failures'])} failures"
    return _canonical_json(payload)


def _integer_option(text: str) -> int:
    """``int(text)``, but [-]digits of any length are read by
    ``poly._integer``; refused with the message of ``type=int``."""
    digits = text.removeprefix("-")
    try:
        return _integer(text) if digits.isascii() and digits.isdigit() else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="configspaces",
        description="Exact computations on configurations and their Mobius polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        # check-identities draws its own configurations.
        if name != "check-identities":
            cmd.add_argument("--input", help="configuration file (JSON or text), '-' for stdin")
            cmd.add_argument("--name", help="built-in dataset name")
        cmd.add_argument("--pretty", action="store_true", help="human summary on stderr")
        if name == "relative":
            cmd.add_argument("--set", help="comma separated vertex labels")
        if name in ("space", "verify", "sample"):
            cmd.add_argument("--t", help="rational event probability, e.g. 1/2")
        if name == "sample":
            cmd.add_argument("--count", type=int, default=10000)
            cmd.add_argument("--seed", type=_integer_option, default=0)
        if name == "series":
            cmd.add_argument("--order", type=int, default=8)
        if name == "cf-count":
            cmd.add_argument("--length", type=int, default=6)
        if name == "check-identities":
            cmd.add_argument("--n", type=int, default=8)
            cmd.add_argument("--trials", type=int, default=50)
            cmd.add_argument("--seed", type=_integer_option, default=0)
    return parser


_HANDLERS = {
    "mobius": _cmd_mobius,
    "relative": _cmd_relative,
    "critical-root": _cmd_critical_root,
    "classify": _cmd_classify,
    "space": _cmd_space,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
    "decompose": _cmd_decompose,
    "right-angled": _cmd_right_angled,
    "series": _cmd_series,
    "cf-count": _cmd_cf_count,
    "symmetric-counts": _cmd_symmetric_counts,
    "builtin": _cmd_builtin,
}

COMMANDS = (*_HANDLERS, "check-identities")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "check-identities":
            payload, code = _cmd_check_identities(args)
            digest_blob = f"n={args.n};trials={args.trials};seed={_decimal(args.seed)}"
            digest = hashlib.sha256(digest_blob.encode()).hexdigest()[:16]
        else:
            config, valuation = _load(args)
            digest = _digest(config, valuation)
            try:
                payload, code = _HANDLERS[args.command](args, config, valuation)
            except probspace.OutOfRange as exc:
                payload, code = _out_of_range_payload(config, exc), 1
        line = _canonical_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "input_digest": digest,
                "payload": payload,
            }
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        print(line, flush=True)
    except OSError as exc:
        # Say, BrokenPipeError: the rest goes to os.devnull, so the exit flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 3
    if args.pretty:
        print(_pretty_summary(args.command, payload), file=sys.stderr)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
