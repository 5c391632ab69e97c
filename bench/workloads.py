"""The three benchmark workloads: their command lists and correctness gates.

Every input is made here from the workload seed; the program sees only
the command lines and the files they name.

* classify-uniform: classify, critical-root, right-angled and mobius on
  uniform-weight built-in stars and paths.  Many anchors share a
  relative configuration (high sharing).  Stars stress
  ``core.relative_configuration``; paths stress the Fraction sums in
  ``MobiusFamily.relative`` and root isolation.  The seed only orders
  the commands, so the work per pass does not depend on it.
* weighted-sweep: random weighted configurations from :func:`random_config`,
  each with ``mobius``, ``classify`` and ``verify`` at half of ``t0``.
  Almost every relative polynomial is distinct (almost no sharing), so
  ``poly.first_positive_root`` dominates, and the commands are short,
  so parse, digest and JSON costs show.  ``mobius`` costs little beyond
  those; with it the cheap third, the median latency falls inside the
  ``verify`` samples rather than on the gap between ``verify`` and
  ``classify``.  Each pass gets fresh configurations.
* space-verify: space, verify and sample on uniform built-ins at fixed
  rationals, plus two t above t0 (exit 1).  ``probspace`` does the work
  and root isolation does none, so a root-isolation change should not
  move it.  The seed orders the commands and seeds ``sample``.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

NAMES = ("classify-uniform", "weighted-sweep", "space-verify")

DEFAULT_SEED = 1

# Latency percentiles over a fixed command list are steady only when the
# commands near the quantile cost about the same.  Each uniform list has
# 15 commands, so in a sample of whole passes the median falls in the
# middle of the 8th cheapest command's samples and the 90th percentile
# in the middle of the 14th's; the commands ranked near 8 and near 14
# have similar costs.

# Uniform built-ins; stars and paths each take about half a pass.
CLASSIFY_UNIFORM = (
    "right-angled --name star-14-1",
    "mobius --name path-16",
    "classify --name path-8",
    "right-angled --name path-8",
    "classify --name star-9-4",
    "critical-root --name star-9-4",
    "right-angled --name path-10",
    "classify --name star-10-4",
    "classify --name path-12",
    "classify --name path-13",
    "mobius --name star-12-6",
    "critical-root --name path-12",
    "critical-root --name star-10-5",
    "classify --name star-11-4",
    "mobius --name path-20",
)

# (command, expected exit code).  complete-15 is a large-n sparse family:
# the dense 2^n cross-check dominates its verify.  star-10-5 and path-13
# are large families, where the O(|F|^2) verify_realization and the
# per-atom transforms cost most; star-11-5, star-16-2 and path-14 are
# large families for space and sample.
SPACE_VERIFY = (
    ("verify --name path-12 --t 1/2", 1),
    ("space --name star-10-5 --t 1/4", 1),
    ("verify --name path-10 --t 1/8", 0),
    ("verify --name star-12-2 --t 1/40", 0),
    ("space --name star-16-2 --t 1/40", 0),
    ("sample --name star-16-2 --t 1/40 --count 20000", 0),
    ("space --name path-14 --t 1/8", 0),
    ("verify --name complete-13 --t 1/16", 0),
    ("verify --name star-9-4 --t 1/20", 0),
    ("sample --name path-14 --t 1/8 --count 20000", 0),
    ("verify --name path-12 --t 1/8", 0),
    ("verify --name path-13 --t 1/8", 0),
    ("verify --name star-10-5 --t 1/20", 0),
    ("space --name star-11-5 --t 1/20", 0),
    ("verify --name complete-15 --t 1/32", 0),
)

# weighted-sweep: each configuration's independence family size is
# drawn from WEIGHTED_FAMILY, and a pass takes configurations until
# their family sizes add up to WEIGHTED_MEMBERS.  The cost of a
# configuration grows with its family size, so a pass costs about the
# same on every seed.
WEIGHTED_FAMILY = (64, 160)
WEIGHTED_MEMBERS = 600


class Command:
    """One CLI invocation and what its output must satisfy."""

    __slots__ = ("argv", "code", "check", "data")

    def __init__(self, line: str, code: int = 0, check: str = "exit", data=None):
        self.argv = line.split()
        self.code = code
        self.check = check
        self.data = data

    @property
    def line(self) -> str:
        return " ".join(self.argv)


def random_config(rng: random.Random) -> tuple[dict, list[int], list[Fraction]]:
    """A random weighted configuration and its brute-force family.

    n is 6 to 10, nubs have 2 or 3 vertices, weights are rationals p/q
    with 1 <= p, q <= 9.  Draws are repeated until the independence
    family size lies in WEIGHTED_FAMILY.
    """
    while True:
        n = rng.randint(6, 10)
        labels = [chr(ord("a") + i) for i in range(n)]
        nubs = [c for c in combinations(range(n), 2) if rng.random() < 0.2]
        nubs += [c for c in combinations(range(n), 3) if rng.random() < 0.05]
        masks = [sum(1 << i for i in nub) for nub in nubs]
        family = [x for x in range(1 << n) if all(m & x != m for m in masks)]
        if WEIGHTED_FAMILY[0] <= len(family) <= WEIGHTED_FAMILY[1]:
            break
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    data = {
        "vertices": labels,
        "nubs": [[labels[i] for i in nub] for nub in nubs],
        "weights": {labels[i]: f"{w.numerator}/{w.denominator}" for i, w in enumerate(weights)},
    }
    return data, family, weights


def brute_force_mu(n: int, family: list[int], weights: list[Fraction]) -> list[str]:
    """Coefficients of mu: alternating sum of f(x) t^|x| over the family."""
    coeffs = [Fraction(0)] * (n + 1)
    for x in family:
        value = Fraction(1)
        for i in range(n):
            if x >> i & 1:
                value *= weights[i]
        k = x.bit_count()
        coeffs[k] += -value if k % 2 else value
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return [str(c) for c in coeffs]


def build_pass(workload: str, seed: int, index: int, workdir: Path) -> list[Command]:
    """Commands of pass ``index``.  weighted-sweep writes its inputs to
    ``workdir``; its verify commands get their t after the classify that
    precedes them has run (see :func:`bind_verify`)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "classify-uniform":
        lines = list(CLASSIFY_UNIFORM)
        rng.shuffle(lines)
        return [Command(line) for line in lines]
    if workload == "space-verify":
        entries = list(SPACE_VERIFY)
        rng.shuffle(entries)
        sample_seed = rng.randrange(1 << 16)
        commands = []
        for line, code in entries:
            kind = line.split()[0]
            if kind == "sample":
                line += f" --seed {sample_seed}"
            check = kind if code == 0 else "out-of-range"
            commands.append(Command(line, code, check))
        return commands
    if workload == "weighted-sweep":
        rng = random.Random(f"{workload}/{seed}/{index}")
        workdir.mkdir(parents=True, exist_ok=True)
        commands = []
        members = 0
        while members < WEIGHTED_MEMBERS:
            data, family, weights = random_config(rng)
            i = len(commands) // 3
            members += len(family)
            path = workdir / f"weighted-s{seed}-p{index}-c{i}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            rel = path.as_posix()
            mu = brute_force_mu(len(data["vertices"]), family, weights)
            commands.append(Command(f"mobius --input {rel}", 0, "mu", mu))
            commands.append(Command(f"classify --input {rel}", 0, "mu", mu))
            commands.append(Command(f"verify --input {rel}", 0, "verify"))
        return commands
    raise ValueError(f"unknown workload {workload!r}")


def bind_verify(command: Command, classify_stdout: str) -> None:
    """Set verify's t to half the t0 the preceding classify reported
    (half of the isolating interval's lo when t0 is irrational)."""
    t0 = json.loads(classify_stdout)["payload"]["t0"]
    value = Fraction(t0) if isinstance(t0, str) else Fraction(t0["lo"])
    half = value / 2
    command.argv = command.argv[:3] + ["--t", f"{half.numerator}/{half.denominator}"]


def check(
    command: Command, code, stdout: str, stderr: str, pins: dict, require_pin: bool
) -> str | None:
    """Why the command's result is wrong, or None when it is right.

    ``pins`` maps a command line to its pinned [exit code, sha256 of
    stdout]; a pinned command must match it on every seed, and with
    ``require_pin`` an unpinned command fails."""
    if code is None:
        return "raised an exception"
    if code != command.code:
        return f"exit code {code}, expected {command.code}: {stderr.strip()[:200]}"
    pinned = pins.get(command.line)
    if pinned is not None and pinned != [code, digest(stdout)]:
        return "stdout or exit code differs from the pinned output"
    if require_pin and pinned is None:
        return "no pinned output for this command"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    payload = report.get("payload", {})
    if report.get("command") != command.argv[0]:
        return "report names another command"
    if command.check == "mu" and payload.get("mu") != command.data:
        return f"mu {payload.get('mu')} differs from the brute-force sum {command.data}"
    if command.check == "verify":
        flags = ("marginals_ok", "independence_ok", "exclusivity_ok", "routes_agree")
        if not all(payload.get(flag) is True for flag in flags) or payload.get("violations"):
            return "verify reported a violation"
    if command.check == "sample":
        count = int(command.argv[command.argv.index("--count") + 1])
        if sum(entry["n"] for entry in payload.get("counts", [])) != count:
            return "sample tallies do not add up to --count"
    if command.check == "out-of-range" and payload.get("error") != "out-of-range":
        return "expected an out-of-range report"
    return None


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()
