"""Radial measures, weight sequences, and exact norms."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from besovball.poly import SparsePoly, factorial_ratio
from besovball.scalars import ComplexRational, abs_sq
from besovball.spaces import (
    BetaDensity,
    ConstantDensity,
    GeneralQuadrature,
    NormalizedVolume,
    PointMassAtOne,
    SpaceSpec,
    besov_da_ratio,
    dilation_contraction_gap,
    hardy_sphere_norm_sq,
    homogeneous_norms_sq,
    inner_product,
    measure_from_json,
    monomial_norm_sq,
    norm_sq,
    slice_norm_gap,
    space_from_json,
)
from besovball import certify, embeddings, spaces

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def _p(dim, terms):
    return SparsePoly(dim, terms)


def test_moment_anchors():
    assert PointMassAtOne().moment(7) == 1
    assert NormalizedVolume(2).moment(3) == Fraction(2, 5)
    assert ConstantDensity(1).moment(4) == Fraction(1, 5)
    # (1-r)^beta density: 2 (2n+1)! beta! / (2n+2+beta)!
    assert BetaDensity(0).moment(1) == Fraction(1, 2)
    assert BetaDensity(2).moment(1) == Fraction(
        2 * math.factorial(3) * 2, math.factorial(6)
    )


def _density_rule(u):
    """The 256-node Gauss-Legendre rule on [0, 1] for dmu = u(r) 2r dr, as
    explicit nodes and weights."""
    x, w = np.polynomial.legendre.leggauss(256)
    r = 0.5 * (x + 1.0)
    return GeneralQuadrature(r, 0.5 * w * np.array([float(u(ri)) for ri in r]) * 2.0 * r)


def test_moment_oracle_quadrature():
    # numeric moments of the constant density against the exact formula
    gq = _density_rule(lambda r: np.ones_like(r))
    for n in range(0, 12):
        assert abs(gq.moment(n) - 1.0 / (n + 1)) < 1e-12
    gq2 = _density_rule(lambda r: (1.0 - r) ** 2)
    for n in range(0, 8):
        exact = float(BetaDensity(2).moment(n))
        assert abs(gq2.moment(n) - exact) < 1e-12


def test_quadrature_admissibility():
    nodes = np.array([0.1, 0.5])
    weights = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        GeneralQuadrature(nodes, weights)  # no mass near r = 1
    ok = GeneralQuadrature(np.array([0.5, 0.995]), np.array([0.5, 0.5]))
    assert ok.moment(0) == pytest.approx(1.0)


def test_weight_anchors():
    besov = SpaceSpec.besov(2, 1, PointMassAtOne())
    assert besov.weight(0) == 1  # total mass of sigma
    assert besov.weight(1) == Fraction(1, 2)  # 1^2 * (1! 1! / 2!)
    alpha4 = SpaceSpec.alpha_scale(1, 4)
    assert alpha4.weight(1) == 16
    assert alpha4.weight(0) == 1
    da = SpaceSpec.drury_arveson(3)
    assert all(da.weight(n) == 1 for n in range(6))


def test_weight_positive():
    spaces = [
        SpaceSpec.drury_arveson(2),
        SpaceSpec.alpha_scale(1, 4),
        SpaceSpec.alpha_scale(2, -1),
        SpaceSpec.besov(2, 1, PointMassAtOne()),
        SpaceSpec.besov(3, 2, NormalizedVolume(3)),
        SpaceSpec.besov(2, 1, BetaDensity(1)),
        SpaceSpec.besov(1, 0, ConstantDensity(1)),
    ]
    for sp in spaces:
        for n in range(0, 40):
            assert sp.weight(n) > 0


def test_monomial_norm_anchors():
    da2 = SpaceSpec.drury_arveson(2)
    assert monomial_norm_sq(da2, (1, 1)) == Fraction(1, 2)
    assert monomial_norm_sq(da2, (0, 0)) == 1
    besov = SpaceSpec.besov(2, 1, PointMassAtOne())
    assert monomial_norm_sq(besov, (0, 0)) == 1
    assert monomial_norm_sq(besov, (1, 0)) == Fraction(1, 2)


def test_inner_product_anchors():
    da2 = SpaceSpec.drury_arveson(2)
    f = _p(2, {(0, 0): 1, (1, 0): -1})
    assert inner_product(da2, f, SparsePoly.one(2)) == ComplexRational(1)
    g = _p(2, {(0, 0): 1, (1, 1): -2})
    assert inner_product(da2, g, g) == ComplexRational(3)
    assert inner_product(da2, _p(2, {(1, 0): 1}), _p(2, {(0, 1): 1})) == ComplexRational(0)
    assert norm_sq(da2, f) == Fraction(2)
    assert norm_sq(da2, SparsePoly.zero(2)) == 0
    d1 = SpaceSpec.alpha_scale(1, 1)
    assert norm_sq(d1, _p(1, {(0,): 1, (1,): -1})) == Fraction(3)


def test_hardy_sphere_norm_anchors():
    assert hardy_sphere_norm_sq(_p(2, {(1, 1): 1})) == Fraction(1, 6)
    assert hardy_sphere_norm_sq(SparsePoly.one(2)) == 1
    assert hardy_sphere_norm_sq(_p(2, {(2, 0): 1})) == Fraction(1, 3)
    with pytest.raises(ValueError):
        hardy_sphere_norm_sq(_p(2, {(0, 0): 1, (1, 0): 1}))


def test_parallelogram_law_exact():
    da3 = SpaceSpec.drury_arveson(3)
    f = _p(3, {(0, 0, 0): 1, (1, 1, 0): ComplexRational(Fraction(2, 3), Fraction(1, 5))})
    g = _p(3, {(2, 0, 0): -1, (1, 1, 0): ComplexRational(Fraction(1, 2))})
    lhs = norm_sq(da3, f + g) + norm_sq(da3, f - g)
    rhs = 2 * norm_sq(da3, f) + 2 * norm_sq(da3, g)
    assert lhs == rhs


def test_besov_da_ratio_closed_form():
    rats = besov_da_ratio(3, 200)
    assert rats[0] == 1
    assert rats[1] == Fraction(1, 3)
    for n in range(1, 201):
        assert rats[n] == Fraction(2 * n * n, (n + 1) * (n + 2))
        assert Fraction(1, 3) <= rats[n] <= 2
    ones = besov_da_ratio(1, 20)
    assert all(r == 1 for r in ones)


def test_besov_da_ratio_rejects_even():
    with pytest.raises(ValueError):
        besov_da_ratio(2, 10)


def test_homogeneous_norms_decompose():
    da2 = SpaceSpec.drury_arveson(2)
    f = _p(2, {(0, 0): 1, (1, 0): 2, (1, 1): -3})
    blocks = homogeneous_norms_sq(da2, f)
    assert sum(blocks.values()) == norm_sq(da2, f)
    assert blocks[0] == 1 and blocks[1] == 4 and blocks[2] == Fraction(9, 2)


def test_homogeneous_norms_equal_the_norms_of_the_parts():
    # one pass over the terms gives the values, types and key order of
    # norm_sq on each homogeneous part, also when only some parts are exact
    rng = np.random.default_rng(3)
    spaces_ = [SpaceSpec.drury_arveson(3), SpaceSpec.alpha_scale(2, -1), SpaceSpec.alpha_scale(2, 0.5),
               SpaceSpec.besov(2, 1, NormalizedVolume(2)), SpaceSpec.besov(2, 1, _density_rule(lambda r: 1.0))]
    for space in spaces_:
        terms = {}
        for _ in range(20):
            beta = tuple(int(b) for b in rng.integers(0, 5, size=space.d))
            terms[beta] = ComplexRational(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))), int(rng.integers(-3, 4)))
        f = _p(space.d, terms)
        mixed = SparsePoly(space.d, {b: complex(c) if sum(b) % 2 else c for b, c in f.terms.items()})
        for g in (f, f.to_float(), mixed):
            want = {n: norm_sq(space, part) for n, part in g.homogeneous_parts().items()}
            got = homogeneous_norms_sq(space, g)
            assert list(got) == list(want)
            assert [(type(v), v) for v in got.values()] == [(type(v), v) for v in want.values()]


def test_homogeneous_norms_of_a_long_float_series_keep_their_bits():
    # terms of one degree far apart in term order, with magnitudes that make
    # each degree's float sum depend on its order
    rng = np.random.default_rng(11)
    space = SpaceSpec.besov(3, 1, PointMassAtOne())
    terms = {}
    for k in rng.permutation(40 * 25):
        a, b = divmod(int(k), 25)
        terms[(a, b, int(k) % 3)] = complex(*rng.standard_normal(2)) * 10.0 ** int(rng.integers(-8, 9))
    f = _p(3, terms)
    # every fifth coefficient made exact: most components mix exact and float terms
    mixed = _p(3, {b: ComplexRational(Fraction(c.real), Fraction(c.imag)) if i % 5 == 0 else c
                   for i, (b, c) in enumerate(terms.items())})
    for g in (f, mixed):
        want = {n: norm_sq(space, part) for n, part in g.homogeneous_parts().items()}
        got = homogeneous_norms_sq(space, g)
        assert list(got) == list(want)
        assert all(_same(got[n], want[n]) for n in want)


def test_dilation_contraction_exact_anchor():
    # degree-1 polynomials give exact equality, higher degrees a positive gap
    sp = SpaceSpec.besov(2, 1, PointMassAtOne())
    f1 = _p(2, {(1, 0): 1})
    assert dilation_contraction_gap(sp, f1, Fraction(1, 2)) == 0
    f2 = _p(2, {(2, 0): 1})
    gap = dilation_contraction_gap(sp, f2, Fraction(1, 2))
    assert gap > 0
    # hand check: (1-r)^2 W_2^(1) - (1-r^2)^2 W_2^(0), W via sphere factor
    W2_1 = Fraction(4) * Fraction(2 * 1, math.factorial(3))  # n^2 * n!(d-1)!/(n+d-1)!
    W2_0 = Fraction(2 * 1, math.factorial(3))
    expect = Fraction(1, 4) * W2_1 - Fraction(9, 16) * W2_0
    assert gap == expect


def test_slice_norm_gap_nonnegative():
    f = _p(3, {(0, 0, 0): 1, (1, 1, 0): -2, (0, 0, 2): 0.5})
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        z = z / np.linalg.norm(z)
        assert slice_norm_gap(f, tuple(z)) >= -1e-10


def test_space_json_round_trip():
    # the JSON of each measure kind and of alpha parses to the space it
    # names, with its weights; an integral alpha such as 4.0 is exact
    besov = '{"d":%d,"kind":"besov","N":%d,"measure":%s}'
    cases = [
        ('{"d":4,"kind":"alpha","alpha":0}', SpaceSpec.drury_arveson(4), True),
        ('{"d":1,"kind":"alpha","alpha":4}', SpaceSpec.alpha_scale(1, 4), True),
        ('{"d":1,"kind":"alpha","alpha":4.0}', SpaceSpec.alpha_scale(1, 4), True),
        ('{"d":1,"kind":"alpha","alpha":0.5}', SpaceSpec.alpha_scale(1, 0.5), False),
        (besov % (2, 1, '{"type":"point_mass_one"}'), SpaceSpec.besov(2, 1, PointMassAtOne()), True),
        (besov % (3, 2, '{"type":"volume","dim":3}'), SpaceSpec.besov(3, 2, NormalizedVolume(3)), True),
        (besov % (2, 1, '{"type":"beta_density","beta":2}'), SpaceSpec.besov(2, 1, BetaDensity(2)), True),
        (besov % (2, 1, '{"type":"constant_density","c":[1,2]}'),
         SpaceSpec.besov(2, 1, ConstantDensity(Fraction(1, 2))), True),
        (besov % (2, 1, '{"type":"quadrature","nodes":[0.5,1.0],"weights":[0.25,0.5]}'),
         SpaceSpec.besov(2, 1, GeneralQuadrature([0.5, 1.0], [0.25, 0.5])), False),
    ]
    for blob, sp, exact in cases:
        back = space_from_json(json.loads(blob))
        assert back == sp and back.is_exact is exact, blob
        for n in range(8):
            assert back.weight(n) == sp.weight(n) and type(back.weight(n)) is type(sp.weight(n))


def test_measure_json_quadrature():
    gq = _density_rule(lambda r: np.ones_like(r))
    back = measure_from_json({"type": "quadrature", "nodes": gq.nodes.tolist(), "weights": gq.weights.tolist()})
    assert back == gq
    assert abs(back.moment(3) - gq.moment(3)) < 1e-15
    # JSON integers read as floats, and a subnormal weight keeps its bits
    blob = '{"type":"quadrature","nodes":[0.5,0.9,0.99,1],"weights":[0.1,0.2,0.3,4e-320]}'
    rule, raw = measure_from_json(blob), json.loads(blob)
    for key in ("nodes", "weights"):
        assert getattr(rule, key).tobytes() == np.array(raw[key], dtype=float).tobytes()


def test_alpha_weights_exact_for_int():
    spm = SpaceSpec.alpha_scale(2, -2)
    assert spm.weight(3) == Fraction(1, 16)
    assert spm.is_exact


def test_integral_float_alpha_shares_no_cached_weight_with_the_exact_space():
    # alpha = 2.0 runs on the float path, alpha = 2 on the exact one
    floaty, exact = SpaceSpec.alpha_scale(2, 2.0), SpaceSpec.alpha_scale(2, 2)
    assert floaty != exact
    for space in (floaty, exact, floaty):
        assert type(space.weight(7)) is (Fraction if space.is_exact else float)
        assert type(monomial_norm_sq(space, (3, 4))) is (Fraction if space.is_exact else float)


if HAVE_HYPOTHESIS:
    coeff_st = st.builds(
        ComplexRational,
        st.fractions(min_value=-5, max_value=5, max_denominator=9),
        st.fractions(min_value=-5, max_value=5, max_denominator=9),
    )
    exponent_st = st.tuples(st.integers(0, 3), st.integers(0, 3))
    poly_st = st.builds(
        lambda terms: SparsePoly(2, terms),
        st.dictionaries(exponent_st, coeff_st, max_size=4),
    )

    @given(poly_st, poly_st)
    @settings(max_examples=40, deadline=None)
    def test_inner_product_sesquilinear(f, g):
        sp = SpaceSpec.drury_arveson(2)
        c = ComplexRational(Fraction(2, 3), Fraction(-1, 2))
        lhs = inner_product(sp, f * SparsePoly(2, {(0, 0): c}), g)
        rhs = c * inner_product(sp, f, g)
        assert lhs == rhs
        assert inner_product(sp, f, g) == inner_product(sp, g, f).conjugate()

    @given(poly_st, st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)]))
    @settings(max_examples=40, deadline=None)
    def test_dilation_contraction_property(f, r):
        sp = SpaceSpec.besov(2, 2, NormalizedVolume(2))
        assert dilation_contraction_gap(sp, f, r) >= 0


def test_weight_caches_are_bounded():
    caches = [spaces._weight, spaces._sphere_factor, spaces._monomial_norm_sq, certify._falling_sq_in_shifted_basis,
              embeddings.tkd_monomial_norm_sq]
    assert all(c.cache_info().maxsize == spaces.CACHE_MAXSIZE for c in caches)
    # every quadrature space is a new cache key that holds its own arrays;
    # more (space, degree) keys than the cache keeps must evict, not pile up
    nodes = np.linspace(0.5, 1.0, 8)
    for k in range(spaces.CACHE_MAXSIZE // 64 + 2):
        space = SpaceSpec.besov(2, 1, GeneralQuadrature(nodes, np.full(8, 1.0 + k)))
        for n in range(64):
            space.weight(n)
    info = spaces._weight.cache_info()
    assert 0 < info.currsize <= info.maxsize


# -- one norm formula: the earlier formulas as oracles -------------------------


def _oracle_weighted_abs_sq_sum(terms, norm_sq_of, exact):
    total = Fraction(0) if exact else 0.0
    for beta, c in terms:
        w = norm_sq_of(beta)
        total = total + abs_sq(c) * (w if exact else float(w))
    return total


def _oracle_norm_sq(space, f):
    return _oracle_weighted_abs_sq_sum(f.terms.items(), lambda beta: monomial_norm_sq(space, beta),
                                       space.is_exact and f.is_exact())


def _oracle_hardy_sphere_norm_sq(f):
    sphere = lambda beta: spaces._sphere_factor(f.dim, sum(beta)) * factorial_ratio(beta)  # noqa: E731
    return _oracle_weighted_abs_sq_sum(f.terms.items(), sphere, f.is_exact())


def _oracle_homogeneous_norms_sq(space, f):
    parts: dict = {}
    for beta, c in f.terms.items():
        parts.setdefault(sum(beta), []).append((beta, c))
    return {n: _oracle_weighted_abs_sq_sum(terms, lambda beta: monomial_norm_sq(space, beta),
                                           space.is_exact and all(isinstance(c, ComplexRational) for _, c in terms))
            for n, terms in sorted(parts.items())}


def _same(got, want):
    """== and the same type for Fractions; the same bits for floats."""
    if type(got) is not type(want):
        return False
    return got == want if isinstance(got, Fraction) else got.hex() == want.hex()


ORACLE_SPACES = (
    [SpaceSpec.drury_arveson(d) for d in (1, 2, 3)]
    + [SpaceSpec.alpha_scale(2, a) for a in (-1, 2, Fraction(3), Fraction(1, 2), 0.5, 2.0)]
    + [SpaceSpec.besov(2, N, mu) for N in (0, 1, 2)
       for mu in (PointMassAtOne(), NormalizedVolume(2), ConstantDensity(Fraction(1, 3)), BetaDensity(2))]
    + [SpaceSpec.besov(2, 1, _density_rule(lambda r: 1.0 - r))]
)


def test_exact_norm_sq_equals_the_term_by_term_fraction_sum():
    # norm_sq's one integer sum over the lcm of the d^2 q against a Fraction
    # sum, term by term, of |c|^2 times the weight p / q: ==, and a Fraction
    # also for an empty sum
    rng = random.Random(11)

    def rational():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 60))

    spaces_ = [sp for sp in ORACLE_SPACES if sp.is_exact] + [SpaceSpec.drury_arveson(4)]
    for space in spaces_:
        for size in (0, 1, 5, 12):
            terms = {tuple(rng.randint(0, 6) for _ in range(space.d)): ComplexRational(rational(), rational())
                     for _ in range(size)}
            f = SparsePoly(space.d, terms)
            want = Fraction(0)
            for beta, c in f.terms.items():
                want += (c.re ** 2 + c.im ** 2) * Fraction(monomial_norm_sq(space, beta))
            got = norm_sq(space, f)
            assert type(got) is Fraction and got == want, (space, f.terms)
    # the DA_4 target of the paper's example: 1 + 256 ||z1z2z3z4||^2 = 1 + 256/24
    assert norm_sq(SpaceSpec.drury_arveson(4), SparsePoly(4, {(0,) * 4: 1, (1,) * 4: -16})) == Fraction(35, 3)


def test_to_json_of_alpha_is_unchanged():
    # a space is written out as the JSON it was read from: the alpha a spec
    # gives reaches its manifest with its value and type, and parses to the
    # space the earlier SpaceSpec.to_json wrote that JSON for
    from besovball.experiments import ExperimentSpec

    for a, want in [(4, 4), (Fraction(4), 4), (Fraction(1, 2), 0.5), (0.5, 0.5)]:
        # the earlier rule, written out
        old = int(a) if isinstance(a, (int, Fraction)) and Fraction(a).denominator == 1 else float(a)
        blob = json.dumps({"name": "s", "kind": "profile", "space": {"d": 1, "kind": "alpha", "alpha": old}})
        got = ExperimentSpec.from_json(json.loads(blob)).to_json()["space"]
        assert got == {"d": 1, "kind": "alpha", "alpha": want}
        assert type(got["alpha"]) is type(old) is type(want) and got["alpha"] == old
        back, sp = space_from_json(got), SpaceSpec.alpha_scale(1, a)
        assert back.is_exact is sp.is_exact
        for n in range(8):
            assert back.weight(n) == sp.weight(n) and type(back.weight(n)) is type(sp.weight(n))


if HAVE_HYPOTHESIS:
    mixed_coeff_st = st.one_of(
        coeff_st,
        st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_norms_equal_the_earlier_formulas(data):
        space = data.draw(st.sampled_from(ORACLE_SPACES))
        exps = st.tuples(*[st.integers(0, 4)] * space.d)
        f = SparsePoly(space.d, data.draw(st.dictionaries(exps, mixed_coeff_st, max_size=6)))
        exact_part = SparsePoly(space.d, {b: c for b, c in f.terms.items() if isinstance(c, ComplexRational)})
        for g in (f, exact_part, f.to_float()):
            assert _same(norm_sq(space, g), _oracle_norm_sq(space, g))
            got, want = homogeneous_norms_sq(space, g), _oracle_homogeneous_norms_sq(space, g)
            assert list(got) == list(want)
            assert all(_same(got[n], want[n]) for n in want)
            if space.is_exact and g.is_exact():
                assert sum(got.values()) == norm_sq(space, g)
            for part in g.homogeneous_parts().values():
                assert _same(hardy_sphere_norm_sq(part), _oracle_hardy_sphere_norm_sq(part))


# -- input checks ----------------------------------------------------------------


def test_space_spec_refuses_non_integral_d_and_non_finite_alpha():
    with pytest.raises(ValueError, match="d must be an integer >= 1, got 2.5"):
        SpaceSpec.drury_arveson(2.5)
    with pytest.raises(ValueError, match="got 2.5"):
        space_from_json({"d": 2.5, "kind": "alpha", "alpha": 0})
    with pytest.raises(ValueError, match="got 0"):
        space_from_json({"d": 0, "kind": "alpha", "alpha": 0})
    with pytest.raises(ValueError, match="the order N must be an integer >= 0, got 1.5"):
        space_from_json({"d": 2, "kind": "besov", "N": 1.5, "measure": {"type": "point_mass_one"}})
    # a whole JSON number is read as the integer it is
    assert space_from_json({"d": 2.0, "kind": "alpha", "alpha": 0}) == SpaceSpec.drury_arveson(2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite alpha"):
            SpaceSpec.alpha_scale(1, bad)
    with pytest.raises(ValueError, match="finite alpha"):
        space_from_json('{"d": 1, "kind": "alpha", "alpha": NaN}')


def test_quadrature_without_positive_weights_is_inadmissible():
    with pytest.raises(ValueError, match="no mass near r = 1"):
        GeneralQuadrature([0.5, 1], [0, 0])
    with pytest.raises(ValueError, match="weights must be non-negative"):
        GeneralQuadrature([0.5, 1], [0, math.nan])
    with pytest.raises(ValueError, match=r"nodes must lie in \[0,1\]"):
        GeneralQuadrature([math.nan, 1], [1, 1])


def test_quadrature_refuses_an_infinite_weight():
    # the rule was accepted, and every norm over it read inf
    for nodes, weights in [([1.0], [math.inf]), ([0.5, 1.0], [0.25, math.inf]), ([0.5, 1.0], [math.inf, 1.0])]:
        with pytest.raises(ValueError, match="weights must be finite"):
            GeneralQuadrature(nodes, weights)
    rule = GeneralQuadrature([0.5, 1.0], [0.25, 1e300])
    assert rule.weights.tolist() == [0.25, 1e300]


def test_constant_density_refuses_non_positive_c():
    for bad in (-1, 0, Fraction(-1, 2), math.nan):
        with pytest.raises(ValueError, match="c must be > 0"):
            ConstantDensity(bad)
    assert SpaceSpec.besov(2, 1, ConstantDensity(Fraction(1, 2))).weight(1) == Fraction(1, 8)


def test_constant_density_json_reads_c_as_two_integers():
    def read(c):
        return measure_from_json({"type": "constant_density", "c": c})

    assert read([3, 2]) == ConstantDensity(Fraction(3, 2))
    assert read([3.0, 2.0]) == ConstantDensity(Fraction(3, 2))  # whole JSON numbers
    assert measure_from_json({"type": "constant_density"}) == ConstantDensity(Fraction(1))
    with pytest.raises(ValueError, match="numerator of c must be an integer >= 1, got 1.5"):
        read([1.5, 1])
    with pytest.raises(ValueError, match="denominator of c must be an integer >= 1, got 0"):
        read([1, 0])
    with pytest.raises(ValueError, match="numerator of c must be an integer >= 1, got -1"):
        read([-1, 1])
    with pytest.raises(ValueError, match="numerator, denominator"):
        read([1, 2, 3])
