import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from packinglab import _matrix, catalog, cli, geometry, integrality, orbit
from packinglab._matrix import as_matrix, identity, mat_inverse, mat_mul
from packinglab.exactnum import QNum, sqrt
from packinglab.geometry import as_vector, gram, hyperplane, is_wall, reflection_matrix, sphere
from packinglab.integrality import (
    BoundedRationalReport,
    IntegralityCertificate,
    certificate_from_json,
    certificate_to_json,
    check_bounded_rational,
    denominator_growth_probe,
    find_integral_rescaling,
    prove_integral,
    prove_nonintegral,
)

R2 = sqrt(2)
R17 = sqrt(17)
R34 = sqrt(34)

BI1 = (
    (QNum(0), QNum(0), QNum(0), QNum(-1)),
    (QNum(2), QNum(0), QNum(0), QNum(1)),
    (QNum(0), QNum(2), QNum(0), QNum(1)),
    (QNum(2), QNum(2), QNum(2), QNum(1)),
)

# the 6x4 overdetermined matrix for the Bi(17) {4,8} superpacking study:
# the two cluster circles plus four orbit rows
BI17 = (
    (R17, QNum(0), QNum(0), QNum(1)),
    (2 * R34, R34, R34 / 2, 11 * R2 / 2),
    (R17, QNum(0), QNum(0), QNum(-1)),
    (QNum(0), R17, QNum(0), QNum(1)),
    (5 * R17, 4 * R17, R17, QNum(18)),
    (39 * R17, 16 * R17, QNum(0), QNum(103)),
)


def rescale(rows, factor):
    """Conformal dilation: (co-bend, bend, centers) -> (f*co-bend, bend/f, centers).

    An oracle kept in the tests: norms and the whole Gram matrix are
    preserved, and every bend is divided by the factor.
    """
    factor = QNum(factor)
    if factor.sign() <= 0:
        raise ValueError("rescale factor must be positive")
    rows = tuple(as_vector(r) for r in rows)
    inv = factor.inverse()
    return tuple((r[0] * factor, r[1] * inv) + r[2:] for r in rows)


@given(
    st.sampled_from([1, 2, 3, 5, 6, 17, 34]),
    st.lists(st.fractions(max_denominator=60).filter(lambda q: abs(q) < 10**6), min_size=1, max_size=6),
)
def test_every_bend_over_the_rescaling_factor_is_an_integer(radicand, rationals):
    # f = sqrt(m) / L, L the lcm of the rational parts' denominators, so
    # q sqrt(m) / f = q L: prove_integral has no non-integral case to refuse
    bends = [q * sqrt(radicand) for q in rationals]
    factor = find_integral_rescaling(bends)
    assert factor.sign() > 0
    assert all((b / factor).is_integer() for b in bends)


def test_bi17_rows_are_walls():
    assert all(is_wall(r) for r in BI17)


def test_rescale_identity_and_unit():
    rows = (sphere((QNum(0), QNum(0)), QNum(1)),)
    assert rescale(rows, 1) == rows
    out = rescale(rows, 2)[0]
    assert out == (QNum(-2), QNum("1/2"), QNum(0), QNum(0))
    assert is_wall(out)


def test_rescale_preserves_gram():
    rows = BI1
    lam = (1 + R2) / 3
    scaled = rescale(rows, lam)
    assert gram(scaled) == gram(rows)
    assert all(is_wall(r) for r in scaled)
    # bends divide by the factor exactly
    assert scaled[3][1] == QNum(2) / lam


def test_rescale_two_inversion_factor():
    # factor a^2 realizes concentric double inversion: radius r -> a^2 r
    rows = (sphere((QNum(0), QNum(0)), QNum(1)),)
    a = QNum(3)
    out = rescale(rows, a * a)
    assert out[0][1] == Fraction(1, 9)  # radius 9 = a^2 * 1


def test_rescale_configuration_round_trip():
    assert rescale(rescale(BI1, QNum(2)), QNum("1/2")) == BI1
    with pytest.raises(ValueError, match="positive"):
        rescale(BI1, QNum(-1))
    with pytest.raises(ValueError, match="positive"):
        rescale(BI1, QNum(0))


def test_find_integral_rescaling_cases():
    assert find_integral_rescaling([QNum(2), QNum(4), QNum(6)]) == 1
    lam = find_integral_rescaling([R2 / 2, 3 * R2])
    assert lam == R2 / 2
    assert [(b / lam) for b in (R2 / 2, 3 * R2)] == [QNum(1), QNum(6)]
    assert find_integral_rescaling([R34, R17]) is None
    assert find_integral_rescaling([QNum(0), QNum(0)]) == 1
    assert find_integral_rescaling([1 + R2]) is None
    assert find_integral_rescaling([QNum("2/3"), QNum("1/2")]) == Fraction(1, 6)
    with pytest.raises(ValueError):
        find_integral_rescaling([])


def test_prove_integral_bi1():
    cert = prove_integral(BI1, cluster_rows=[3], mirror_rows=[1, 2, 4])
    assert cert.verdict == "integral-proven"
    assert cert.rescale_factor == 1
    assert len(cert.witnesses) == 3
    # witnesses replay: B.V = V.R exactly
    v = as_matrix(BI1)
    for b, i in zip(cert.witnesses, [1, 2, 4]):
        r = reflection_matrix(BI1[i - 1])
        assert mat_mul(b, v) == mat_mul(v, r)


def test_prove_integral_self_reflections():
    cert = prove_integral(BI1, cluster_rows=[3], mirror_rows=[1, 2, 3, 4])
    assert cert.verdict == "integral-proven"


def test_prove_integral_scaled_basis():
    scaled = rescale(BI1, sqrt(3))
    cert = prove_integral(scaled, cluster_rows=[3], mirror_rows=[1, 2, 4])
    assert cert.verdict == "integral-proven"
    assert cert.rescale_factor == sqrt(3) / 3
    base = prove_integral(BI1, cluster_rows=[3], mirror_rows=[1, 2, 4])
    assert cert.witnesses == base.witnesses


def test_prove_integral_inconclusive_on_mixed_bends():
    rows = (
        (R17, QNum(0), QNum(0), QNum(1)),
        (QNum(0), R17, QNum(0), QNum(1)),
        (-R34 / 34, R34, QNum(0), QNum(0)),
        (QNum(0), QNum(0), QNum(1), QNum(0)),
    )
    assert all(is_wall(r) for r in rows)
    cert = prove_integral(rows, cluster_rows=[2, 3], mirror_rows=[1])
    assert cert.verdict == "inconclusive"
    assert "radical" in cert.detail


def test_prove_integral_errors():
    with pytest.raises(ValueError, match="out of range"):
        prove_integral(BI1, cluster_rows=[9], mirror_rows=[1])
    singular = (BI1[0], BI1[0], BI1[2], BI1[3])
    with pytest.raises(ValueError, match="singular"):
        prove_integral(singular, cluster_rows=[3], mirror_rows=[1])


def test_prove_integral_refuses_an_empty_basis(monkeypatch):
    # it has no row to read a width off: refused before the rescaling and
    # any bend matrix
    monkeypatch.setattr(integrality, "find_integral_rescaling", None)
    monkeypatch.setattr(integrality, "bend_matrices", None)
    with pytest.raises(ValueError, match="^basis must have at least one row$"):
        prove_integral((), [], [])


def test_prove_nonintegral_bi17():
    cert = prove_nonintegral(BI17)
    assert cert.verdict == "nonintegral-proven"
    # witnesses replay: g.V = 0 exactly, column by column
    for g in cert.witnesses:
        for col in range(4):
            assert sum((gi * BI17[i][col] for i, gi in enumerate(g)), QNum(0)) == 0
    # the paper-style relation rows live in the computed nullspace:
    # gA = (3, sqrt2, -2, 2, -1, 0) and gB = (-63, 0, 24, -16, 0, 1)
    ga = (QNum(3), R2, QNum(-2), QNum(2), QNum(-1), QNum(0))
    gb = (QNum(-63), QNum(0), QNum(24), QNum(-16), QNum(0), QNum(1))
    for g in (ga, gb):
        for col in range(4):
            assert sum((gi * BI17[i][col] for i, gi in enumerate(g)), QNum(0)) == 0
    assert len(cert.witnesses) == 2


def test_prove_nonintegral_rational_combination_inconclusive():
    # extra rows that are integer combinations of an integral basis
    from packinglab.geometry import reflect

    extra1 = reflect(BI1[2], BI1[3])
    extra2 = reflect(BI1[2], BI1[1])
    rows = BI1 + (extra1, extra2)
    cert = prove_nonintegral(rows)
    assert cert.verdict == "inconclusive"
    assert all(
        e.is_rational() for g in cert.witnesses for e in g
    )


def test_prove_nonintegral_synthetic_irrational_cokernel():
    # four independent walls plus two dependents, one depending irrationally
    r1 = sphere((QNum(0), QNum(0)), QNum(1))
    r2 = sphere((R2, QNum(0)), QNum(1))
    r3 = sphere((QNum(0), R2), QNum(1))
    r4 = sphere((R2, R2), QNum(1))  # equals r2 + r3 - r1
    r5 = hyperplane((QNum(1), QNum(0)), 0)
    r6 = hyperplane((QNum(0), QNum(1)), 0)  # sqrt2/2 combination of the others
    cert = prove_nonintegral((r1, r2, r3, r4, r5, r6))
    assert cert.verdict == "nonintegral-proven"
    assert "irrational" in cert.detail


def test_prove_nonintegral_errors():
    with pytest.raises(ValueError, match="more rows"):
        prove_nonintegral(BI1)
    rank_deficient = BI1 + (BI1[0], BI1[1])
    # rows 5,6 duplicate rows 1,2 -> still rank 4, fine; build a real
    # deficiency instead: five copies of one wall plus one other
    thin = (BI1[0],) * 5 + (BI1[1],)
    with pytest.raises(ValueError, match="rank"):
        prove_nonintegral(thin)
    assert prove_nonintegral(rank_deficient).verdict == "inconclusive"


def test_growth_probe_diagonal():
    p = ((QNum("1/5"), QNum(0)), (QNum(0), QNum(1)))
    cert = denominator_growth_probe([p], [1], iterations=6)
    assert cert.verdict == "growth-evidence"
    assert cert.witnesses == (5, 25, 125, 625, 3125, 15625)


def test_growth_probe_integral_inconclusive():
    p = ((QNum(1), QNum(1)), (QNum(0), QNum(1)))
    cert = denominator_growth_probe([p], [1], iterations=5)
    assert cert.verdict == "inconclusive"
    assert cert.witnesses == (1, 1, 1, 1, 1)


def test_growth_probe_word_pair():
    # a two-matrix word whose product has 25^n denominators
    m1 = ((QNum("1/5"), QNum(0)), (QNum(0), QNum(5)))
    m2 = ((QNum("1/5"), QNum(0)), (QNum(0), QNum(5)))
    cert = denominator_growth_probe([m1, m2], [1, 2], iterations=12)
    assert cert.verdict == "growth-evidence"
    # direct powering oracle
    product = ((Fraction(1, 25), Fraction(0)), (Fraction(0), Fraction(25)))
    power = product
    for k in range(12):
        assert cert.witnesses[k] == max(e.denominator for row in power for e in row)
        power = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*product))
            for row in power
        )
    assert cert.witnesses[-1] == 25**12


def test_growth_probe_validation():
    p = ((QNum("1/5"), QNum(0)), (QNum(0), QNum(1)))
    with pytest.raises(ValueError, match="iterations"):
        denominator_growth_probe([p], [1], iterations=1)
    with pytest.raises(ValueError, match="rational"):
        denominator_growth_probe([((R2, QNum(0)), (QNum(0), QNum(1)))], [1])
    with pytest.raises(ValueError, match="out of range"):
        denominator_growth_probe([p], [2])
    with pytest.raises(ValueError, match="empty"):
        denominator_growth_probe([p], [])


def test_bounded_rational_bi1():
    report = check_bounded_rational(BI1, BI1, word_count=12, word_length=5, seed=5)
    assert report.observed_max_denominator == 1
    assert report.ok
    assert report.derived_bound == 2  # V inverse has halves; B still integral


def test_bounded_rational_bound_is_the_product_of_the_lcms():
    # dilated by 3, V has thirds and V^-1 sixths: lcm(3, 6) = 6 < 3 * 6,
    # and a word reaches denominator 9, above the lcm and within the product
    basis = rescale(BI1, 3)
    v_inv = integrality.mat_inverse(basis)
    l1 = math.lcm(*(e.denominator for row in basis for e in row))
    l2 = math.lcm(*(e.denominator for row in v_inv for e in row))
    assert (l1, l2) == (3, 6)
    report = check_bounded_rational(basis, BI1, word_count=6, word_length=5, seed=1)
    assert report.derived_bound == l1 * l2 == 18
    assert report.observed_max_denominator == 9 > math.lcm(l1, l2)
    assert report.ok


def test_bounded_rational_rejects_non_integral_reflection():
    rows = (sphere((QNum(0), QNum(0)), R2),) + BI1[:3]
    with pytest.raises(ValueError, match="non-integral reflection"):
        check_bounded_rational(BI1, rows)


@pytest.mark.parametrize("word_count, word_length", [(20, 5), (0, 5), (3, 0)])
def test_bounded_rational_needs_a_mirror(word_count, word_length):
    # a cluster of every row leaves no mirror: refused before any letter is
    # drawn, whatever the word count
    with pytest.raises(ValueError, match="need at least one mirror to draw words from"):
        check_bounded_rational(BI1, (), word_count, word_length)




@pytest.mark.parametrize(
    "matrices",
    [
        [identity(2), identity(3)],
        [((QNum(1), QNum(0), QNum(0)), (QNum(0), QNum(1), QNum(0)))],
    ],
    ids=["two sizes", "not square"],
)
def test_growth_probe_refuses_matrices_of_mixed_shape(matrices):
    with pytest.raises(ValueError, match="^dimension mismatch among bend matrices$"):
        denominator_growth_probe(matrices, [1], iterations=4)


def test_certificate_json_round_trip():
    for cert in (
        prove_integral(BI1, cluster_rows=[3], mirror_rows=[1, 2, 4]),
        prove_nonintegral(BI17),
        denominator_growth_probe(
            [((QNum("1/5"), QNum(0)), (QNum(0), QNum(1)))], [1], iterations=4
        ),
    ):
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert back == cert
        assert certificate_to_json(back) == text
    with pytest.raises(ValueError, match="verdict"):
        certificate_from_json('{"verdict": "nope", "rescale_factor": null, "witnesses": [], "detail": ""}')


# -- the bend-matrix route against the earlier routes ---------------------
#
# Oracles: copies of the routes the certificates took before every bend
# matrix came from geometry.bend_matrices.  prove_integral rescaled the
# whole basis and inverted it once per mirror; check_bounded_rational
# multiplied reflection matrices from the identity and conjugated each
# word's product by the basis, the identity word included.


def one_bend_matrix(basis, mirror):
    v = tuple(tuple(row) for row in basis)
    if any(len(row) != len(v) for row in v):
        raise ValueError(f"basis must be square, got {len(v)} rows")
    r = reflection_matrix(mirror)
    return mat_mul(mat_mul(v, r), mat_inverse(v))


def rescaled_prove_integral(basis, cluster_rows, mirror_rows):
    rows = orbit._checked_rows(basis, "basis")
    if len(rows) != len(rows[0]):
        raise ValueError("basis must be square")
    for idx in list(cluster_rows) + list(mirror_rows):
        if not 1 <= idx <= len(rows):
            raise ValueError("row index %d out of range" % idx)
    factor = find_integral_rescaling([rows[i - 1][1] for i in cluster_rows])
    if factor is None:
        return IntegralityCertificate(
            "inconclusive", None, (),
            "cluster bends mix radical parts; no integral rescaling exists",
        )
    scaled = rescale(rows, factor)
    if not all(scaled[i - 1][1].is_integer() for i in cluster_rows):
        return IntegralityCertificate(
            "inconclusive", factor, (), "cluster bends not integral after rescaling"
        )
    matrices = []
    for i in mirror_rows:
        b = one_bend_matrix(scaled, scaled[i - 1])
        if not all(e.is_integer() for row in b for e in row):
            return IntegralityCertificate(
                "inconclusive", factor, (),
                "bend matrix of mirror row %d has a non-integral entry" % i,
            )
        matrices.append(b)
    return IntegralityCertificate(
        "integral-proven", factor, tuple(matrices),
        "mirror rows %s give integral bend matrices; cluster bends %s"
        % (list(mirror_rows), [str(scaled[i - 1][1]) for i in cluster_rows]),
    )


def conjugated_bounded_rational(basis, mirrors, word_count, word_length, seed):
    rows = orbit._checked_rows(basis, "basis")
    if len(rows) != len(rows[0]):
        raise ValueError("basis must be square")
    v = as_matrix(rows)
    v_inv = mat_inverse(v)
    reflections = []
    for k, m in enumerate(orbit._checked_rows(mirrors, "mirror")):
        r = reflection_matrix(m)
        if not all(e.is_integer() for row in r for e in row):
            raise ValueError("mirror %d has a non-integral reflection matrix" % (k + 1))
        reflections.append(r)
    bound = math.lcm(*(e.denominator for row in v for e in row)) * math.lcm(
        *(e.denominator for row in v_inv for e in row)
    )
    rng = (orbit._word(seed, k) for k in itertools.count())
    observed = 1
    words = [[]] + [
        [next(rng) % len(reflections) for _ in range(word_length)]
        for _ in range(word_count)
    ]
    for letters in words:
        r_word = identity(len(rows))
        for i in letters:
            r_word = mat_mul(r_word, reflections[i])
        b = mat_mul(mat_mul(v, r_word), v_inv)
        observed = max(observed, *(e.denominator for row in b for e in row))
    return BoundedRationalReport(bound, observed, word_count, word_length, seed)


BI1_CONFIG = catalog.get_builtin("bi1-cluster3").configuration
# (basis, mirrors): bi1-cluster3 with its cocluster {1, 2, 4}; the strip
# basis with all four walls; and a rational, non-integral basis (thirds
# and fifths) with the integral walls
SPOT_CASES = {
    "bi1-cluster3": (BI1_CONFIG.rows, BI1_CONFIG.split(["3"])[1]),
    "strip": (BI1, BI1),
    "rational": (rescale(BI1, QNum("3/5")), BI1),
}


@pytest.mark.parametrize("case", sorted(SPOT_CASES))
@pytest.mark.parametrize("word_length", range(1, 7))
def test_bounded_rational_matches_conjugation_oracle(case, word_length):
    basis, mirrors = SPOT_CASES[case]
    for seed in range(50):
        want = conjugated_bounded_rational(basis, mirrors, 3, word_length, seed)
        assert check_bounded_rational(basis, mirrors, 3, word_length, seed) == want


@pytest.mark.parametrize("word_count, word_length", [(0, 5), (4, 0)])
def test_bounded_rational_empty_words_match_oracle(word_count, word_length):
    # no word, or only empty words: the identity's denominators are 1
    for basis, mirrors in SPOT_CASES.values():
        want = conjugated_bounded_rational(basis, mirrors, word_count, word_length, 3)
        got = check_bounded_rational(basis, mirrors, word_count, word_length, 3)
        assert got == want
        assert got.observed_max_denominator == 1


@pytest.mark.parametrize("word_count, word_length", [(-2, -3), (-1, 4), (20, -2)])
def test_bounded_rational_refuses_negative_word_counts(word_count, word_length):
    # refused before the basis is read; word_count is checked first
    name, value = ("word_count", word_count) if word_count < 0 else ("word_length", word_length)
    for basis, mirrors in SPOT_CASES.values():
        with pytest.raises(ValueError, match="^%s must be nonnegative, got %d$" % (name, value)):
            check_bounded_rational(basis, mirrors, word_count, word_length)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_bounded_rational_refuses_seeds_outside_the_stream(monkeypatch, seed):
    # refused before the basis is read and before any draw
    monkeypatch.setattr(integrality, "_word", None)
    monkeypatch.setattr(integrality, "_checked_rows", None)
    with pytest.raises(ValueError) as err:
        check_bounded_rational(BI1, BI1, 3, 4, seed)
    assert str(err.value) == "seed must be in 0 <= seed < 2**64, got %d" % seed


def test_bounded_rational_refuses_an_empty_basis(monkeypatch):
    # refused before any inverse, bend matrix or draw
    for name in ("mat_inverse", "bend_matrices", "_word"):
        monkeypatch.setattr(integrality, name, None)
    with pytest.raises(ValueError, match="^basis must have at least one row$"):
        check_bounded_rational((), (), 1, 1, 0)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_bounded_rational_takes_the_stream_end_seeds(seed):
    for basis, mirrors in SPOT_CASES.values():
        want = conjugated_bounded_rational(basis, mirrors, 3, 4, seed)
        assert check_bounded_rational(basis, mirrors, 3, 4, seed) == want


def test_bounded_rational_seeds_observe_the_rational_basis():
    # the oracle comparison means something: the rational basis reaches
    # denominators above 1 on some seed
    basis, mirrors = SPOT_CASES["rational"]
    seen = {check_bounded_rational(basis, mirrors, 3, 4, seed).observed_max_denominator
            for seed in range(10)}
    assert max(seen) > 1


def cluster_choices(rows):
    # every nonempty proper subset as the cluster, the rest as mirrors
    k = len(rows)
    for size in range(1, k):
        for cluster in itertools.combinations(range(1, k + 1), size):
            yield list(cluster), [i for i in range(1, k + 1) if i not in cluster]


@pytest.mark.parametrize("factor", [None, QNum(2), QNum("1/5"), sqrt(2)])
def test_prove_integral_matches_rescaled_oracle(factor):
    verdicts = []
    for entry_id in ("bi1-cluster3", "d1n3-base"):
        rows = catalog.get_builtin(entry_id).configuration.rows
        if factor is not None:
            rows = rescale(rows, factor)
        for cluster, mirrors in cluster_choices(rows):
            want = rescaled_prove_integral(rows, cluster, mirrors)
            got = prove_integral(rows, cluster, mirrors)
            assert certificate_to_json(got) == certificate_to_json(want)
            verdicts.append(got.verdict)
    assert len(verdicts) == 28
    if factor is None:
        assert verdicts.count("integral-proven") == 15
        assert verdicts.count("inconclusive") == 13


@pytest.fixture
def counted(monkeypatch):
    """Counts of mat_mul and mat_inverse calls, through every name the
    library calls them by."""
    counts = {"mat_mul": 0, "mat_inverse": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        fn = getattr(_matrix, name)
        monkeypatch.setattr(_matrix, name, counting(name, fn))
        monkeypatch.setattr(integrality, name, counting(name, fn))
    return counts


def test_bounded_rational_multiplies_bend_matrices(counted):
    # bi1-cluster3 {3}: 3 bend matrices from one product and 20 words of
    # 4 products; the conjugation route took 142, conjugating each letter 86
    basis, mirrors = SPOT_CASES["bi1-cluster3"]
    check_bounded_rational(basis, mirrors, word_count=20, word_length=5, seed=0)
    assert counted["mat_mul"] == 1 + 20 * 4 == 81


def test_bounded_rational_inverts_for_the_bound_and_the_letters(monkeypatch, counted):
    # one V^-1 for the bound's L2 and one in bend_matrices for the letters;
    # each mirror's R_m is built once, for the integral-R precondition
    built = []
    reflection_matrix = geometry.reflection_matrix

    def counting_reflection(m):
        built.append(m)
        return reflection_matrix(m)

    monkeypatch.setattr(geometry, "reflection_matrix", counting_reflection)
    monkeypatch.setattr(integrality, "reflection_matrix", counting_reflection)
    for case in sorted(SPOT_CASES):
        basis, mirrors = SPOT_CASES[case]
        want = conjugated_bounded_rational(basis, mirrors, 4, 3, 0)
        for key in ("mat_inverse", "mat_mul"):
            counted[key] = 0
        built.clear()
        assert check_bounded_rational(basis, mirrors, 4, 3, 0) == want
        assert counted["mat_inverse"] == 2
        # 1 for all the bend matrices, then 2 per word of 3 letters
        assert counted["mat_mul"] == 1 + 4 * 2
        assert built == list(mirrors)


def test_prove_integral_takes_one_inverse(counted):
    cert = prove_integral(BI1, cluster_rows=[3], mirror_rows=[1, 2, 4])
    assert cert.verdict == "integral-proven"
    assert counted["mat_inverse"] == 1


def test_prove_integral_without_mirrors_takes_no_inverse(counted):
    # as before the bend-matrix route: no mirror, no inverse, so even a
    # singular basis is proved integral on its cluster bends alone
    singular = (BI1[0], BI1[0], BI1[2], BI1[3])
    for basis in (BI1, singular):
        got = prove_integral(basis, cluster_rows=[3], mirror_rows=[])
        assert got == rescaled_prove_integral(basis, [3], [])
        assert got.verdict == "integral-proven" and got.witnesses == ()
    assert counted["mat_inverse"] == 0


def test_growth_probe_takes_one_inverse(counted, capsys):
    argv = ["growth-probe", "--config", "builtin:bi1-cluster3", "--word", "2.1"]
    assert cli.run(argv) == 0
    assert counted["mat_inverse"] == 1
    assert capsys.readouterr().out.startswith("{")
