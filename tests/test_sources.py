import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harmonicdisk.errors import (
    SourceParseError,
    SourceValidationError,
    UnknownFigureError,
)
from harmonicdisk.geometry import PolarRectangle
from harmonicdisk.quadrature import integrate_polar
from harmonicdisk.sources import (
    AbsLogAbsPhi,
    AbsPhi,
    AngularCos,
    AngularOne,
    AngularSin,
    BoundarySum,
    GaussianBump,
    OnArc,
    PhiSquared,
    PowerOfOneMinusRho,
    RadialOne,
    RhoPower,
    SeparableOnRect,
    SourceSum,
    _indicator,
    catalog_q_sources,
    figure_case,
    parse_source_config,
    serialize_config,
)

PI = math.pi


class TestEvaluateSource:
    def test_characteristic_disk(self):
        disk = _indicator(PolarRectangle(0.0, 0.25, -PI, PI))
        assert disk.values(0.1, 2.0) == 1.0
        assert disk.values(0.3, 2.0) == 0.0

    def test_gaussian_bump_peak(self):
        src = figure_case(15).source
        assert src.values(0.5, 0.0) == pytest.approx(10.0, abs=1e-12)

    def test_singular_point_is_infinite(self):
        # the rim factor (1 - rho)^(-1/4) of figure 6
        assert figure_case(6).source.values(1.0, 0.0) == math.inf

    def test_characteristic_rect_membership(self):
        rect = _indicator(PolarRectangle(0.25, 0.5, 0.0, PI / 4))
        assert rect.values(0.3, 0.3) == 1.0
        assert rect.values(0.3, -0.1) == 0.0
        assert rect.values(0.6, 0.3) == 0.0


class TestValidation:
    def test_beta_limit(self):
        PowerOfOneMinusRho(0.49)
        with pytest.raises(SourceValidationError):
            PowerOfOneMinusRho(0.5)
        with pytest.raises(SourceValidationError):
            PowerOfOneMinusRho(-0.1)

    def test_bad_arcs(self):
        with pytest.raises(SourceValidationError):
            OnArc(AngularOne(), 0.5, 0.2)
        with pytest.raises(SourceValidationError):
            OnArc(AngularOne(), -4.0, 0.0)

    def test_empty_sum(self):
        with pytest.raises(SourceValidationError):
            SourceSum(())

    def test_gaussian_width(self):
        with pytest.raises(SourceValidationError):
            GaussianBump(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("factor, args", [
        (RhoPower, (math.nan,)), (RhoPower, (math.inf,)),
        (GaussianBump, (1.0, 0.5, math.nan)), (GaussianBump, (1.0, 0.5, math.inf)),
        (GaussianBump, (math.inf, 0.5, 1.0)), (GaussianBump, (1.0, math.nan, 1.0))])
    def test_non_finite_radial_factors(self, factor, args):
        with pytest.raises(SourceValidationError):
            factor(*args)

    @pytest.mark.parametrize("coef", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients(self, coef):
        with pytest.raises(SourceValidationError):
            SourceSum(((1.0, figure_case(4).source), (coef, figure_case(4).source)))
        with pytest.raises(SourceValidationError):
            BoundarySum(((coef, OnArc(AngularOne())),))


class TestFigureCatalog:
    def test_ids_complete(self):
        for fig_id in range(1, 16):
            case = figure_case(fig_id)
            assert case.id == fig_id
            assert case.description

    def test_unknown_ids(self):
        for bad in (0, 16, -3):
            with pytest.raises(UnknownFigureError):
                figure_case(bad)

    def test_figure_4_payload(self):
        case = figure_case(4)
        assert (case.boundary, case.kernel) == (None, None)
        assert case.source == _indicator(PolarRectangle(0.0, 0.25, -PI, PI))
        assert case.prefactor == 1.0

    def test_figure_9_payload(self):
        case = figure_case(9)
        assert case.source == _indicator(PolarRectangle(0.9, 1.0, -PI / 6, PI / 6))
        assert case.prefactor == pytest.approx(2.0 / PI)
        assert case.boundary == figure_case(8).boundary

    def test_figure_8_payload(self):
        case = figure_case(8)
        assert case.source is None
        assert case.boundary == OnArc(AngularOne(), -PI / 6, PI / 6)

    def test_kernel_figures(self):
        for fig_id in (1, 2):
            case = figure_case(fig_id)
            assert (case.boundary, case.source) == (None, None)
        assert (figure_case(1).kernel, figure_case(1).radii) == ("poisson", (0.5, 0.75, 0.85))
        assert (figure_case(2).kernel, figure_case(2).radii) == ("q", (0.5, 0.75))

    def test_paired_figures(self):
        both = {i for i in range(1, 16)
                if figure_case(i).boundary is not None and figure_case(i).source is not None}
        assert both == {3, 9, 11, 12, 13, 14}
        assert figure_case(11).boundary == figure_case(10).boundary == OnArc(AbsPhi())

    def test_figure_6_is_singular(self):
        pieces = figure_case(6).source.pieces()
        assert len(pieces) == 1
        assert pieces[0].weight == (1.0, -0.25)

    def test_figure_7_combines_two_layers(self):
        pieces = figure_case(7).source.pieces()
        assert [p.weight for p in pieces] == [(1.0, -0.25), (1.0, -0.375)]

    def test_boundary_layer_figures_carry_extra_rho(self):
        # the 11..14 integrands include the displayed rho beyond the Jacobian
        for fig_id in (11, 12, 13, 14):
            assert figure_case(fig_id).source.radial == RhoPower(1)


def separable(radial, angular):
    return {"type": "separable", "radial": radial, "angular": angular,
            "rect": {"r": [0.25, 0.5], "theta": [0.0, 1.0]}}


class TestConfigParsing:
    def test_char_rect_example(self):
        doc = {"type": "char_rect", "r": [0.25, 0.5], "theta": [0, 0.7853981633974483]}
        src = parse_source_config(json.dumps(doc))
        assert src == _indicator(PolarRectangle(0.25, 0.5, 0.0, 0.7853981633974483))

    def test_separable_example_matches_catalog(self):
        doc = {
            "type": "separable",
            "radial": {"pow_one_minus_rho": 0.25},
            "angular": {"cos": 1},
            "rect": {"r": [0.75, 1.0], "theta": [-PI / 6, PI / 6]},
        }
        assert parse_source_config(doc) == figure_case(6).source

    def test_inverted_bounds_rejected(self):
        doc = {"type": "char_rect", "r": [0.5, 0.25], "theta": [0.0, 1.0]}
        with pytest.raises(SourceValidationError):
            parse_source_config(doc)

    def test_beta_too_large_rejected(self):
        doc = {
            "type": "separable",
            "radial": {"pow_one_minus_rho": 0.6},
            "angular": "one",
            "rect": {"r": [0.5, 1.0], "theta": [0.0, 1.0]},
        }
        with pytest.raises(SourceValidationError):
            parse_source_config(doc)

    def test_unknown_type(self):
        with pytest.raises(SourceParseError):
            parse_source_config({"type": "mystery"})

    def test_unknown_field(self):
        with pytest.raises(SourceParseError):
            parse_source_config({"type": "char_disk", "radius": 0.2, "extra": 1})

    def test_invalid_json_reports_line(self):
        with pytest.raises(SourceParseError, match="line"):
            parse_source_config("{broken")

    def test_mixed_sum_rejected(self):
        doc = {
            "type": "weighted_sum",
            "terms": [
                {"coef": 1.0, "term": {"type": "char_disk", "radius": 0.2}},
                {"coef": 1.0, "term": {"type": "abs_theta"}},
            ],
        }
        with pytest.raises(SourceValidationError):
            parse_source_config(doc)

    @pytest.mark.parametrize("doc, error", [
        ({"type": "char_disk", "radius": "abc"}, SourceParseError),
        ({"type": "char_disk", "radius": None}, SourceParseError),
        ({"type": "char_disk", "radius": 10**400}, SourceParseError),
        ({"type": "char_disk", "radius": 1.5}, SourceValidationError),
        ({"type": "char_disk", "radius": math.nan}, SourceValidationError),
        ({"type": "char_rect", "r": [0.1, "x"], "theta": [0.0, 1.0]}, SourceParseError),
        (separable({"rho_power": "x"}, "one"), SourceParseError),
        (separable({"rho_power": math.nan}, "one"), SourceValidationError),
        (separable({"gaussian_bump": {"amp": 1.0, "center": 0.5, "width": None}}, "one"),
         SourceParseError),
        (separable({"gaussian_bump": 1.0}, "one"), SourceParseError),
        (separable("one", {"cos": 1.5}), SourceParseError),
        (separable("one", {"sin": 1.9}), SourceParseError),
        (separable("one", "cos"), SourceParseError),
        (separable("one", {"abs_phi": 1}), SourceParseError),
        ({"type": "cos", "n": 2.7}, SourceParseError),
        ({"type": "weighted_sum", "terms": [{"coef": "x", "term": {"type": "one"}}]},
         SourceParseError),
        ({"type": "weighted_sum", "terms": [{"coef": math.nan, "term": {"type": "one"}}]},
         SourceValidationError),
        ({"type": ["char_disk"], "radius": 0.5}, SourceParseError),
    ], ids=["radius_text", "radius_null", "radius_overflows", "radius_too_large", "radius_nan", "rect_text",
            "rho_power_text", "rho_power_nan", "bump_width_null", "bump_not_an_object",
            "cos_fractional", "sin_fractional", "cos_without_order", "abs_phi_with_a_value",
            "boundary_cos_fractional", "coef_text", "coef_nan", "type_not_a_name"])
    def test_bad_numeric_fields(self, doc, error):
        with pytest.raises(error):
            parse_source_config(doc)

    def test_integral_orders_are_integers(self):
        src = parse_source_config(separable("one", {"cos": 2.0}))
        assert src.angular == AngularCos(2)
        assert serialize_config(src).startswith('{"angular": {"cos": 2}')
        assert parse_source_config({"type": "cos", "n": 3.0}) == OnArc(AngularCos(3))

    def test_boundary_types(self):
        assert parse_source_config({"type": "cos", "n": 2}) == OnArc(AngularCos(2))
        assert parse_source_config(
            {"type": "abs_log_abs_on_arc", "arc": [0.0, PI]}
        ) == OnArc(AbsLogAbsPhi(), 0.0, PI)

    def test_round_trip_whole_catalog(self):
        for fig_id in range(1, 16):
            case = figure_case(fig_id)
            for obj in (case.boundary, case.source):
                if obj is not None:
                    assert parse_source_config(serialize_config(obj)) == obj


# One instance of every config type and its canonical JSON text, so that a
# changed to_config shows even where a round trip would still hold.
SEPARABLE_ONES = '{"type": "separable", "radial": "one", "angular": "one", ' \
    '"rect": {"r": %s, "theta": %s}}'
CONFIG_TEXTS = [
    (OnArc(AngularOne(), -0.5, 0.5), '{"arc": [-0.5, 0.5], "type": "char_arc"}'),
    (OnArc(AbsPhi()), '{"type": "abs_theta"}'),
    (OnArc(PhiSquared(), -0.5, 0.5), '{"arc": [-0.5, 0.5], "type": "theta_squared_on_arc"}'),
    (OnArc(AngularSin(1), 0.0, 1.5), '{"arc": [0.0, 1.5], "type": "sin_on_arc"}'),
    (OnArc(AbsLogAbsPhi(), 0.0, 2.0), '{"arc": [0.0, 2.0], "type": "abs_log_abs_on_arc"}'),
    (OnArc(AngularCos(3)), '{"n": 3, "type": "cos"}'),
    (OnArc(AngularOne()), '{"type": "one"}'),
    (_indicator(PolarRectangle(0.0, 0.25, -PI, PI)), '{"radius": 0.25, "type": "char_disk"}'),
    (_indicator(PolarRectangle(0.25, 0.5, 0.0, 1.0)),
     '{"r": [0.25, 0.5], "theta": [0.0, 1.0], "type": "char_rect"}'),
    # a separable document of the factors "one" is written as an indicator
    (parse_source_config(SEPARABLE_ONES % ([0.0, 0.5], [-PI, PI])),
     '{"radius": 0.5, "type": "char_disk"}'),
    (parse_source_config(SEPARABLE_ONES % ([0.0, 0.5], [-PI, 0.0])),
     f'{{"r": [0.0, 0.5], "theta": [{-PI!r}, 0.0], "type": "char_rect"}}'),
    (SeparableOnRect(GaussianBump(10.0, 0.5, 10.0), AngularSin(2),
                     PolarRectangle(0.3, 0.7, -1.0, 1.0)),
     '{"angular": {"sin": 2}, "radial": {"gaussian_bump": {"amp": 10.0, "center": 0.5, '
     '"width": 10.0}}, "rect": {"r": [0.3, 0.7], "theta": [-1.0, 1.0]}, "type": "separable"}'),
    (SourceSum(((2.0, _indicator(PolarRectangle(0.0, 0.5, -PI, PI))),
                (-1.0, SeparableOnRect(PowerOfOneMinusRho(0.25), AbsLogAbsPhi(),
                                       PolarRectangle(0.75, 1.0, 0.0, 3.0))))),
     '{"terms": [{"coef": 2.0, "term": {"radius": 0.5, "type": "char_disk"}}, '
     '{"coef": -1.0, "term": {"angular": "abs_log_abs_phi", "radial": {"pow_one_minus_rho": '
     '0.25}, "rect": {"r": [0.75, 1.0], "theta": [0.0, 3.0]}, "type": "separable"}}], '
     '"type": "weighted_sum"}'),
]


# a case's id is its class, but the seven boundary documents share one,
# OnArc, and are told apart by their JSON type; the char_disk and char_rect
# documents keep the ids of the classes that held them before SeparableOnRect
# took them in, and the two separable documents of ones are told apart by shape
CONFIG_IDS = ["char_arc", "abs_theta", "theta_squared_on_arc", "sin_on_arc",
              "abs_log_abs_on_arc", "cos", "one", "CharacteristicDisk", "CharacteristicRect",
              "separable_ones_on_a_disk", "separable_ones_on_a_rect", "SeparableOnRect",
              "SourceSum"]


@pytest.mark.parametrize("obj, text", CONFIG_TEXTS, ids=CONFIG_IDS)
def test_config_text_is_pinned(obj, text):
    assert serialize_config(obj) == text
    assert parse_source_config(text) == obj


# an arc [a, b] with -pi <= a < b <= pi, as the documents of the arc types take it
arcs = st.tuples(st.floats(-PI, PI), st.floats(-PI, PI)).filter(
    lambda ab: ab[0] < ab[1]).map(list)
boundary_docs = st.one_of(
    st.just({"type": "one"}),
    st.just({"type": "abs_theta"}),
    st.builds(lambda n: {"type": "cos", "n": n}, st.integers(0, 50)),
    *(st.builds(lambda arc, kind=kind: {"type": kind, "arc": arc}, arcs)
      for kind in ("char_arc", "theta_squared_on_arc", "sin_on_arc", "abs_log_abs_on_arc")),
)


class TestOnArc:
    """One boundary class, OnArc, for the seven boundary JSON types."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(boundary_docs)
    def test_documents_round_trip(self, doc):
        obj = parse_source_config(doc)
        if doc == {"type": "char_arc", "arc": [-PI, PI]}:
            doc = {"type": "one"}  # the indicator of the full circle is the constant one
        assert serialize_config(obj) == json.dumps(doc, sort_keys=True)
        assert parse_source_config(serialize_config(obj)) == obj

    def test_full_circle_char_arc_is_one(self):
        full = parse_source_config({"type": "char_arc", "arc": [-PI, PI]})
        assert full == OnArc(AngularOne()) == parse_source_config({"type": "one"})
        assert serialize_config(full) == '{"type": "one"}'
        # a factor without a full-circle type keeps its arc type there
        assert serialize_config(OnArc(PhiSquared())) == json.dumps(
            {"arc": [-PI, PI], "type": "theta_squared_on_arc"}, sort_keys=True)

    @pytest.mark.parametrize("angular, arc", [(AbsPhi(), (0.0, 1.0)),
                                              (AngularCos(2), (-1.0, 1.0)),
                                              (AngularSin(2), (-PI, PI))],
                             ids=["abs_phi_on_an_arc", "cos_2_on_an_arc", "sin_2"])
    def test_refuses_a_factor_without_a_type(self, angular, arc):
        with pytest.raises(SourceValidationError):
            OnArc(angular, *arc)


class TestSquareIntegrability:
    @pytest.mark.parametrize("fig_id", sorted(catalog_q_sources()))
    def test_catalog_square_norms_finite(self, fig_id):
        source = catalog_q_sources()[fig_id].source
        total = 0.0
        for piece in source.pieces():
            # |f|^2 carries (1 - rho)^(-2 beta); 2 beta < 1 keeps it integrable
            weight = piece.weight and (piece.weight[0], 2.0 * piece.weight[1])
            res = integrate_polar(
                lambda rho, phi, fn=piece.fn: fn(rho, phi) ** 2, piece.rect, weight=weight
            )
            total += piece.coef**2 * res.value
        assert math.isfinite(total)
        assert total > 0.0

    def test_singular_square_matches_substituted_midpoint(self):
        # independent midpoint rule on the integrand substituted by
        # t = (1 - rho)^(1 - 2 beta)
        piece = figure_case(6).source.pieces()[0]
        beta_sq = -2.0 * piece.weight[1]
        res = integrate_polar(
            lambda rho, phi, fn=piece.fn: fn(rho, phi) ** 2, piece.rect, weight=(1.0, -beta_sq)
        )
        n_t, n_p = 4000, 200
        one_minus = 1.0 - beta_sq
        t_hi = (1.0 - piece.rect.r_lo) ** one_minus
        dt = t_hi / n_t
        dp = (piece.rect.theta_hi - piece.rect.theta_lo) / n_p
        t = (np.arange(n_t) + 0.5) * dt
        p = piece.rect.theta_lo + (np.arange(n_p) + 0.5) * dp
        rho = 1.0 - t ** (1.0 / one_minus)
        brute = np.sum(
            np.cos(p)[None, :] ** 2 * (rho / one_minus)[:, None]
        ) * dt * dp
        assert res.value == pytest.approx(brute, rel=1e-4)


class TestVectorizedValues:
    def test_weighted_sum_linearity(self):
        a = _indicator(PolarRectangle(0.0, 0.5, -PI, PI))
        b = _indicator(PolarRectangle(0.2, 0.8, -1.0, 1.0))
        combo = SourceSum(((2.0, a), (-0.5, b)))
        rho = np.linspace(0.05, 0.95, 7)[:, None]
        phi = np.linspace(-PI, PI, 9)[None, :]
        expected = 2.0 * a.values(rho, phi) - 0.5 * b.values(rho, phi)
        assert np.array_equal(combo.values(rho, phi), expected)

    def test_separable_values(self):
        src = SeparableOnRect(
            RhoPower(2), AngularCos(1), PolarRectangle(0.0, 1.0, -PI, PI)
        )
        assert src.values(0.5, 0.0) == pytest.approx(0.25)
        assert src.values(0.5, PI / 2) == pytest.approx(0.0, abs=1e-16)

    def test_abs_phi_factor(self):
        f = AbsPhi()
        assert np.array_equal(f(np.array([-1.0, 2.0])), np.array([1.0, 2.0]))


class TestDeclaredBreaks:
    """Kinks are declared by the factors, and pieces and arcs are cut at
    them."""

    ANNULUS = PolarRectangle(0.9, 1.0, -PI, PI)

    def test_smooth_pieces_declare_no_breaks(self):
        for rect in (PolarRectangle(0.0, 0.5, -PI, PI), self.ANNULUS):
            assert _indicator(rect).pieces()[0].factors == (RadialOne(), AngularOne())
        bump, cos2 = GaussianBump(1.0, 0.5, 10.0), AngularCos(2)
        (piece,) = SeparableOnRect(bump, cos2, self.ANNULUS).pieces()
        assert (piece.rect, piece.factors) == (self.ANNULUS, (bump, cos2))

    def test_abs_phi_break_only_inside_the_rectangle(self):
        pieces = SeparableOnRect(RhoPower(1), AbsPhi(), self.ANNULUS).pieces()
        assert [(p.rect.theta_lo, p.rect.theta_hi) for p in pieces] == [(-PI, 0.0), (0.0, PI)]
        assert all(p.factors == (RhoPower(1), AbsPhi()) and p.log_end is None for p in pieces)
        right = PolarRectangle(0.9, 1.0, 0.0, PI)
        (piece,) = SeparableOnRect(RhoPower(1), AbsPhi(), right).pieces()
        assert (piece.rect, piece.factors) == (right, (RhoPower(1), AbsPhi()))

    def test_declared_radial_weights(self):
        assert [f.weight for f in (RadialOne(), RhoPower(2), GaussianBump(1.0, 0.5, 10.0))] \
            == [None] * 3
        assert (RhoPower(0.5).weight, PowerOfOneMinusRho(0.25).weight) == ((0.0, 0.5),
                                                                          (1.0, -0.25))
        # a piece that reaches the weighted end takes the weight and RadialOne;
        # on any other the factor is smooth and stays
        cos1 = AngularCos(1)
        for radial, r_lo, r_hi, weight in ((RhoPower(0.5), 0.5, 0.9, None),
                                           (RhoPower(0.5), 0.0, 0.9, (0.0, 0.5)),
                                           (PowerOfOneMinusRho(0.25), 0.5, 0.9, None),
                                           (PowerOfOneMinusRho(0.25), 0.5, 1.0, (1.0, -0.25))):
            rect = PolarRectangle(r_lo, r_hi, -1.0, 1.0)
            (piece,) = SeparableOnRect(radial, cos1, rect).pieces()
            factors = (radial if weight is None else RadialOne(), cos1)
            assert (piece.rect, piece.factors, piece.weight) == (rect, factors, weight)

    def test_log_point_becomes_a_piece_end(self):
        rect = PolarRectangle(0.5, 0.9, -1.0, 1.0)
        pieces = SeparableOnRect(RhoPower(1), AbsLogAbsPhi(), rect).pieces()
        assert [(p.rect.theta_lo, p.rect.theta_hi) for p in pieces] == [(-1.0, 0.0), (0.0, 1.0)]
        factors = (RhoPower(1), AbsLogAbsPhi())
        assert [(p.factors, p.log_end, p.weight) for p in pieces] == [(factors, 0.0, None)] * 2
        assert all(p.rect.r_lo == 0.5 and p.rect.r_hi == 0.9 for p in pieces)

    def test_log_factor_away_from_its_log_point_is_one_smooth_piece(self):
        rect = PolarRectangle(0.5, 0.9, 2.0, 3.0)
        (piece,) = SeparableOnRect(RhoPower(1), AbsLogAbsPhi(), rect).pieces()
        assert (piece.rect, piece.factors, piece.log_end) == (rect, (RhoPower(1), AbsLogAbsPhi()),
                                                              None)

    def test_log_end_composes_with_singular_radial(self):
        rect = PolarRectangle(0.75, 1.0, 0.0, PI)
        pieces = SeparableOnRect(PowerOfOneMinusRho(0.25), AbsLogAbsPhi(), rect).pieces()
        assert [(p.rect.theta_lo, p.rect.theta_hi) for p in pieces] == [(0.0, 1.0), (1.0, PI)]
        # the singular factor is the radial rule's weight, so the piece's own is one
        factors = (RadialOne(), AbsLogAbsPhi())
        assert [(p.weight, p.log_end, p.factors) for p in pieces] == [
            ((1.0, -0.25), 0.0, factors), ((1.0, -0.25), None, factors)]

    def test_sum_keeps_breaks(self):
        a = SeparableOnRect(RhoPower(1), AbsPhi(), self.ANNULUS)
        b = SeparableOnRect(RhoPower(1), AbsLogAbsPhi(), self.ANNULUS)
        pieces = SourceSum(((2.0, a), (1.0, b))).pieces()
        assert [p.rect.theta_lo for p in pieces] == [-PI, 0.0, -PI, -1.0, 0.0, 1.0]
        assert [p.log_end for p in pieces] == [None, None, None, 0.0, 0.0, None]
        assert [p.coef for p in pieces] == [2.0, 2.0, 1.0, 1.0, 1.0, 1.0]
        arcs = BoundarySum(((2.0, OnArc(AbsPhi())),
                            (-0.5, OnArc(AbsLogAbsPhi(), 0.0, PI)))).pieces()
        assert [arc.log_end for arc in arcs] == [None, None, 0.0, None]
        assert [arc.coef for arc in arcs] == [2.0, 2.0, -0.5, -0.5]
        assert [arc.factors for arc in arcs] == [(RadialOne(), AbsPhi())] * 2 + [
            (RadialOne(), AbsLogAbsPhi())] * 2

    def test_log_arc_splits_at_declared_breaks(self):
        arcs = OnArc(AbsLogAbsPhi(), -2.0, 2.0).pieces()
        assert [(arc.lo, arc.hi) for arc in arcs] == [(-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)]
        assert [arc.log_end for arc in arcs] == [None, 0.0, 0.0, None]
        assert AbsLogAbsPhi.breaks == (-1.0, 0.0, 1.0)
        assert AbsLogAbsPhi.log_points == (0.0,)
