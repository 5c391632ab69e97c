import bisect
import itertools
import tracemalloc
from fractions import Fraction

import pytest

from configspaces.core import Valuation, from_nubs
from configspaces.mobius import MobiusFamily
from configspaces.probspace import (
    _BLOCK,
    InfeasibleIntersections,
    ConfiguredSpace,
    MissingEntry,
    OutOfRange,
    SignedWord,
    SplitMix64,
    atoms_from_intersections,
    canonical_space,
    event_probability,
    sample,
    verify_realization,
)
from configspaces.structure import builtin, random_configuration, random_valuation, star

from conftest import binary_search_sample, direct_transform, shift_masses

H = Fraction(1, 2)


def _uniform_star_intersections(n, k, t):
    c = star(n, k)
    return {
        mask: (t ** mask.bit_count() if c.is_independent(mask) else Fraction(0))
        for mask in range(1 << n)
    }


def test_star53_critical_root_by_dense_route():
    # Every intersection probability of a uniform star is forced, so the
    # dense route alone decides feasibility: t0 = 1/3 for star(5,3) and
    # 1/4 for star(6,3), and the empty word keeps mass mu(t0) = 2/27 and
    # 1/8 > 0 there, so both are type II.  This is the proof behind the
    # (5,3) and (6,3) cells of criterion 3's star type table.
    for n, k, t0, rest in ((5, 3, Fraction(1, 3), Fraction(2, 27)),
                           (6, 3, Fraction(1, 4), Fraction(1, 8))):
        atoms = atoms_from_intersections(n, _uniform_star_intersections(n, k, t0))
        assert atoms[SignedWord(0, (1 << n) - 1)] == rest
        with pytest.raises(InfeasibleIntersections):
            atoms_from_intersections(
                n, _uniform_star_intersections(n, k, t0 + Fraction(1, 10**6))
            )


def test_atoms_single_event():
    atoms = atoms_from_intersections(1, {0: Fraction(1), 1: Fraction(1, 3)})
    assert atoms[SignedWord(1, 0)] == Fraction(1, 3)
    assert atoms[SignedWord(0, 1)] == Fraction(2, 3)


def test_atoms_star32_at_half():
    atoms = atoms_from_intersections(3, _uniform_star_intersections(3, 2, H))
    full = 0b111
    table = {word.positives: mass for word, mass in atoms.items()}
    assert table[0] == Fraction(1, 4)
    for singleton in (1, 2, 4):
        assert table[singleton] == 0
    for pair in (0b011, 0b101, 0b110):
        assert table[pair] == Fraction(1, 4)
    assert table[full] == 0
    assert sum(table.values()) == 1


def test_atoms_product_measure():
    t = Fraction(1, 3)
    q = {0: Fraction(1), 1: t, 2: t, 3: t * t}
    atoms = atoms_from_intersections(2, q)
    assert atoms[SignedWord(0b11, 0)] == t * t
    assert atoms[SignedWord(0b01, 0b10)] == t * (1 - t)
    assert atoms[SignedWord(0b10, 0b01)] == t * (1 - t)
    assert atoms[SignedWord(0, 0b11)] == (1 - t) * (1 - t)


def test_atoms_missing_entry():
    with pytest.raises(MissingEntry):
        atoms_from_intersections(2, {0: Fraction(1), 1: Fraction(1, 2)})


def test_atoms_infeasible():
    q = {0: Fraction(1), 1: Fraction(2)}
    with pytest.raises(InfeasibleIntersections) as excinfo:
        atoms_from_intersections(1, q)
    assert excinfo.value.negatives == [(0, Fraction(-1))]


def test_event_probability():
    atoms = atoms_from_intersections(3, _uniform_star_intersections(3, 2, H))
    assert event_probability(atoms, SignedWord(0, 0)) == 1
    assert event_probability(atoms, SignedWord(0b001, 0)) == H
    assert event_probability(atoms, SignedWord(0b001, 0b110)) == 0


def test_canonical_space_star43():
    space = canonical_space(star(4, 3), None, H)
    assert space.mass(0) == 0
    for a in range(4):
        assert space.mass(1 << a) == Fraction(1, 8)
    for x, mass in space.atoms.items():
        if x.bit_count() == 2:
            assert mass == 0
        if x.bit_count() == 3:
            assert mass == Fraction(1, 8)
    assert sum(space.atoms.values()) == 1


def test_canonical_space_star32():
    space = canonical_space(star(3, 2), None, H)
    assert space.rest() == Fraction(1, 4)
    assert all(space.mass(1 << a) == 0 for a in range(3))
    assert all(space.mass(p) == Fraction(1, 4) for p in (0b011, 0b101, 0b110))


def test_canonical_space_at_zero():
    space = canonical_space(builtin("fig1-left"), None, Fraction(0))
    assert space.mass(0) == 1
    assert all(mass == 0 for x, mass in space.atoms.items() if x)


def test_canonical_space_out_of_range():
    with pytest.raises(OutOfRange) as excinfo:
        canonical_space(star(3, 2), None, Fraction(5, 8))
    exc = excinfo.value
    assert exc.witness.bit_count() == 1
    assert exc.value < 0
    with pytest.raises(OutOfRange):
        canonical_space(star(3, 2), None, Fraction(-1, 2))


def test_negative_t_is_reported_as_negative():
    # Every relative polynomial is positive at t < 0 (alternating
    # coefficients, constant term 1), so the error names no polynomial.
    with pytest.raises(OutOfRange) as excinfo:
        canonical_space(star(3, 2), None, Fraction(-1, 2))
    exc = excinfo.value
    assert str(exc) == "t = -1/2 is outside the probabilistic range: it is negative"
    assert (exc.t, exc.witness, exc.value) == (Fraction(-1, 2), 0, Fraction(-1, 2))


def test_space_views_follow_the_integer_masses():
    space = canonical_space(builtin("fig1-left"), None, Fraction(1, 10))
    members = MobiusFamily(builtin("fig1-left")).members()
    assert list(space.masses) == members
    assert sum(space.masses.values()) == space.scale
    assert space.atoms is space.atoms
    assert space.atoms == {x: Fraction(m, space.scale) for x, m in space.masses.items()}
    assert list(space.atoms) == members
    assert space.rest() == space.mass(0) == space.atoms[0]
    with pytest.raises(TypeError):
        space.atoms[0] = Fraction(0)


def test_verify_and_sample_read_only_the_integer_masses(monkeypatch):
    def refuse(space):
        raise AssertionError("atoms read")

    spaces = [
        canonical_space(builtin("path-7"), None, Fraction(1, 8)),
        canonical_space(star(3, 1), None, Fraction(1, 4)),
    ]
    spaces.append(shift_masses(spaces[1], {0b111: Fraction(1, 8), 0: Fraction(-1, 8)}))
    monkeypatch.setattr(ConfiguredSpace, "atoms", property(refuse))
    for space in spaces:
        verify_realization(space)
        sample(space, 5000, 3)


def test_verify_star43_covering():
    report = verify_realization(canonical_space(star(4, 3), None, H))
    assert report.ok and report.covering and report.rest == 0
    assert report.violations == []


def test_verify_star32():
    report = verify_realization(canonical_space(star(3, 2), None, H))
    assert report.ok and not report.covering and report.rest == Fraction(1, 4)
    quarter = verify_realization(canonical_space(star(3, 2), None, Fraction(1, 4)))
    assert quarter.ok and quarter.rest == Fraction(7, 16)


def test_verify_detects_tampering():
    space = canonical_space(star(3, 2), None, H)
    space = shift_masses(space, {0b011: Fraction(1, 8), 0: Fraction(-1, 8)})
    report = verify_realization(space)
    assert not report.ok
    assert report.violations


def test_probabilistic_range_examples():
    assert MobiusFamily(star(3, 2)).critical_root()[0].value == H
    assert MobiusFamily(from_nubs(2, [])).critical_root()[0].value == 1
    root = MobiusFamily(builtin("fig1-right")).critical_root()[0]
    assert not root.is_rational
    assert root.witness.coefficients == (1, -5, 6, -1)
    assert Fraction(3, 10) < root.lo and root.hi < Fraction(31, 100)


def test_two_routes_agree(rng):
    for _ in range(20):
        c = random_configuration(rng.randint(1, 7), rng)
        f = random_valuation(c, rng)
        root = MobiusFamily(c, f).critical_root()[0]
        t = (root.value if root.is_rational else root.lo) / 2
        space = canonical_space(c, f, t)
        q = {
            mask: (
                f.of(mask) * t ** mask.bit_count()
                if c.is_independent(mask)
                else Fraction(0)
            )
            for mask in range(1 << c.n)
        }
        word_atoms = atoms_from_intersections(c.n, q)
        for word, mass in word_atoms.items():
            if c.is_independent(word.positives):
                assert mass == space.mass(word.positives)
            else:
                assert mass == 0


def test_exclusivity_upward_closure(rng):
    # checking nubs only is equivalent to checking every dependent set
    for _ in range(20):
        c = random_configuration(rng.randint(1, 6), rng)
        root = MobiusFamily(c).critical_root()[0]
        t = (root.value if root.is_rational else root.lo) / 2
        space = canonical_space(c, None, t)
        for mask in range(1 << c.n):
            if not c.is_independent(mask):
                assert event_probability(space, SignedWord(mask, 0)) == 0


def test_mass_conservation_random(rng):
    for _ in range(20):
        c = random_configuration(rng.randint(1, 8), rng)
        f = random_valuation(c, rng)
        root = MobiusFamily(c, f).critical_root()[0]
        ts = [Fraction(0)]
        top = root.value if root.is_rational else root.lo
        ts += [top * Fraction(k, 3) for k in (1, 2)]
        if root.is_rational:
            ts.append(root.value)
        for t in ts:
            space = canonical_space(c, f, t)
            assert sum(space.atoms.values()) == 1
            assert all(mass >= 0 for mass in space.atoms.values())


def test_splitmix_reference_values():
    # published known-answer vector for seed 0
    rng = SplitMix64(0)
    words = [rng.next_word() for _ in range(4)]
    assert words == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_splitmix_words_match_next_word(rng):
    # The bulk words against successive next_word calls, across block
    # edges and from a state left by an earlier bulk call.
    for seed in (0, -3, 2**63 + 5, 2**64 + 9, rng.getrandbits(64)):
        bulk, reference = SplitMix64(seed), SplitMix64(seed)
        for count in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
            assert bulk.words(count) == [reference.next_word() for _ in range(count)]
            assert bulk.state == reference.state
    with pytest.raises(ValueError):
        SplitMix64(0).words(-1)


def test_sample_stream_is_next_word(rng):
    # sample computes its words in bulk, a block of lanes at a time.
    # Draw k is the atom whose tally grows from count k - 1 to count k;
    # it must be the atom that next_word's k-th word lands in.
    space = canonical_space(builtin("path-7"), None, Fraction(1, 8))
    atoms = list(space.atoms.items())
    cumulative = itertools.accumulate(mass for _, mass in atoms)
    boundaries = [(c.numerator << 64) // c.denominator for c in cumulative]
    for seed in (0, 1, 7, -3, 2**63 + 5, rng.getrandbits(64)):
        generator = SplitMix64(seed)
        previous = sample(space, 0, seed)
        for count in range(1, 41):
            tallies = sample(space, count, seed)
            drawn = [mask for mask, tally in tallies.items() if tally != previous[mask]]
            word = generator.next_word()
            assert drawn == [atoms[bisect.bisect_right(boundaries, word)][0]]
            previous = tallies


def test_sample_zero_count():
    space = canonical_space(star(4, 3), None, H)
    assert all(v == 0 for v in sample(space, 0, 42).values())


def test_sample_deterministic():
    space = canonical_space(star(4, 3), None, H)
    assert sample(space, 2000, 7) == sample(space, 2000, 7)
    assert sample(space, 2000, 7) != sample(space, 2000, 8)


def test_sample_star43_five_sigma():
    space = canonical_space(star(4, 3), None, H)
    tallies = sample(space, 100000, 20250810)
    # eight atoms of mass 1/8; sigma = sqrt(N p (1-p)) ~ 104.6
    for x, mass in space.atoms.items():
        if mass == Fraction(1, 8):
            assert abs(tallies[x] - 12500) <= 523
        else:
            assert tallies[x] == 0
    assert sum(tallies.values()) == 100000


def test_sample_bisect_matches_binary_search(rng):
    # The block tallies against one-draw-at-a-time placement, at counts
    # around the block size, which is the atom count when that is larger.
    spaces = [
        canonical_space(star(4, 3), None, H),  # seven atoms of mass 0
        canonical_space(builtin("path-7"), None, Fraction(1, 8)),
        canonical_space(builtin("fig1-left"), None, Fraction(1, 10)),
        canonical_space(builtin("path-18"), None, Fraction(1, 8)),  # 6,765 atoms
    ]
    for _ in range(6):
        c = random_configuration(rng.randint(1, 7), rng)
        f = random_valuation(c, rng)
        root = MobiusFamily(c, f).critical_root()[0]
        spaces.append(canonical_space(c, f, root.value if root.is_rational else root.lo))
    assert sum(0 in space.atoms.values() for space in spaces) > 1
    assert len(spaces[3].atoms) > _BLOCK
    for space in spaces:
        size = max(_BLOCK, len(space.atoms))
        counts = (0, 1, 3000, size - 1, size, size + 1, 3 * size + 7)
        for seed in (0, 5, -3, 20250810, 2**63 + 5, 2**64 + 9):
            for count in counts:
                tallies = sample(space, count, seed)
                assert tallies == binary_search_sample(space, count, seed)
                assert list(tallies) == list(space.atoms)


def test_sample_memory_bounded():
    space = canonical_space(builtin("path-14"), None, Fraction(1, 8))
    tracemalloc.start()
    try:
        tallies = sample(space, 10**6, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(tallies.values()) == 10**6
    assert peak < 2_000_000


def test_sample_rejects_bad_masses():
    space = canonical_space(builtin("path-4"), None, Fraction(1, 8))
    with pytest.raises(ValueError, match="sum to 7/8, not 1"):
        sample(shift_masses(space, {0: Fraction(-1, 8)}), 2000, 1)
    space = shift_masses(space, {0b0010: Fraction(-13, 32) - space.mass(0b0010)})
    with pytest.raises(ValueError, match="atom 2 has negative mass -13/32"):
        sample(space, 2000, 1)


def test_canonical_space_matches_direct_transform(rng):
    # The sparse transform against the brute-force oracle, and the
    # out-of-range witness against the relative polynomials.
    for _ in range(50):
        c = random_configuration(rng.randint(1, 8), rng)
        f = random_valuation(c, rng)
        family = MobiusFamily(c, f)
        root = family.critical_root()[0]
        top = root.value if root.is_rational else root.lo
        ts = [Fraction(0), top / 3] + ([root.value] if root.is_rational else [])
        oracle = {x: direct_transform(c, f, x) for x in family.members()}
        for t in ts:
            space = canonical_space(c, f, t)
            assert list(space.atoms) == family.members()
            for x, poly in oracle.items():
                assert space.atoms[x] == poly(t)
        above = root.value if root.is_rational else root.hi
        for t in (above * Fraction(11, 10), above * 2):
            with pytest.raises(OutOfRange) as excinfo:
                canonical_space(c, f, t)
            witness = next(x for x in family.members() if family.relative(x)(t) < 0)
            assert excinfo.value.witness == witness
            assert excinfo.value.value == family.relative(witness)(t)


def _plain_dense_transform(n, q):
    """The superset Mobius transform on Fractions, one bit at a time."""
    table = [Fraction(q[mask]) for mask in range(1 << n)]
    for i in range(n):
        for mask in range(1 << n):
            if not mask & (1 << i):
                table[mask] -= table[mask | (1 << i)]
    return table


def test_atoms_from_intersections_mixed_denominators():
    weights = (Fraction(2, 3), Fraction(5, 7), Fraction(9, 4))
    t = Fraction(1, 11)
    c = from_nubs(3, [0b011])
    f = Valuation(weights)
    q = {
        mask: (f.of(mask) * t ** mask.bit_count() if c.is_independent(mask) else Fraction(0))
        for mask in range(8)
    }
    q[0] = 1  # int entry
    q[0b011] = "0"  # str entries
    q[0b100] = "9/44"
    atoms = atoms_from_intersections(3, q)
    plain = _plain_dense_transform(3, q)
    assert {word.positives: mass for word, mass in atoms.items()} == dict(enumerate(plain))
    assert all(word.negatives == 0b111 ^ word.positives for word in atoms)
    assert all(isinstance(mass, Fraction) for mass in atoms.values())
    assert sum(atoms.values()) == 1
    assert atoms[SignedWord(0b101, 0b010)] == Fraction(2, 3) * Fraction(9, 4) * t * t


def test_atoms_from_intersections_negatives_in_mask_order():
    q = {0: 1, 1: "1/2", 2: Fraction(2, 3), 3: Fraction(5, 7), 4: "3/4", 5: 0, 6: 0, 7: 0}
    plain = _plain_dense_transform(3, q)
    expected = [(mask, mass) for mask, mass in enumerate(plain) if mass < 0]
    assert len(expected) > 1
    with pytest.raises(InfeasibleIntersections) as excinfo:
        atoms_from_intersections(3, q)
    assert excinfo.value.negatives == expected
    assert all(isinstance(mass, Fraction) for _, mass in excinfo.value.negatives)


def test_atoms_from_intersections_errors_unchanged():
    with pytest.raises(MissingEntry, match="no intersection probability for mask 3"):
        atoms_from_intersections(2, {0: 1, 1: "1/2", 2: "1/3"})
    with pytest.raises(ValueError, match="the empty intersection must have probability 1"):
        atoms_from_intersections(1, {0: "1/2", 1: "1/4"})


def _violations_by_event_probability(space):
    """The realization checks summed atom by atom, as a reference."""
    config, f, t = space.config, space.valuation, space.t
    out = []
    for a in range(config.n):
        got = event_probability(space, SignedWord(1 << a, 0))
        if got != t * f.weights[a]:
            out.append(f"marginal of {config.label_of(a)}: {got} != {t * f.weights[a]}")
    for x in space.atoms:
        got = event_probability(space, SignedWord(x, 0))
        want = f.of(x) * t ** x.bit_count()
        if got != want:
            out.append(f"joint probability of {config.word(x)}: {got} != {want}")
    for nub in config.nubs:
        got = event_probability(space, SignedWord(nub, 0))
        if got != 0:
            out.append(f"nub {config.word(nub)} has joint probability {got}")
    return out


def test_verify_zeta_matches_atom_sums(rng):
    # Tampered spaces, including mass on a dependent set none of whose
    # two-element subsets is an atom (the zeta runs over the closure).
    space = canonical_space(star(3, 1), None, Fraction(1, 4))
    space = shift_masses(space, {0b111: Fraction(1, 8), 0: Fraction(-1, 8)})
    report = verify_realization(space)
    assert report.violations[-1].startswith("rest ")
    assert report.violations[:-1] == _violations_by_event_probability(space)
    assert not report.marginals_ok and not report.exclusivity_ok
    for _ in range(20):
        c = random_configuration(rng.randint(1, 7), rng)
        f = random_valuation(c, rng)
        root = MobiusFamily(c, f).critical_root()[0]
        t = (root.value if root.is_rational else root.lo) / 2
        space = canonical_space(c, f, t)
        assert verify_realization(space).violations == []
        x = rng.choice([x for x in space.masses if x])
        space = shift_masses(space, {x: Fraction(1, 7), 0: Fraction(-1, 7)})
        report = verify_realization(space)
        assert report.violations[-1].startswith("rest ")
        assert report.violations[:-1] == _violations_by_event_probability(space)
        assert not (report.marginals_ok and report.independence_ok)
