import json
import math

import numpy as np
import pytest

from harmonicdisk.errors import (
    SourceParseError,
    SourceValidationError,
    UnknownFigureError,
)
from harmonicdisk.geometry import PolarRectangle
from harmonicdisk.quadrature import integrate_polar
from harmonicdisk.sources import (
    AbsLogAbsOnArc,
    AbsLogAbsPhi,
    AbsPhi,
    AbsTheta,
    BoundarySum,
    AngularCos,
    AngularOne,
    AngularSin,
    CharacteristicArc,
    CharacteristicDisk,
    CharacteristicRect,
    ConstantOne,
    Cosine,
    GaussianBump,
    PowerOfOneMinusRho,
    RadialOne,
    RhoPower,
    SeparableOnRect,
    SinOnArc,
    SourceSum,
    ThetaSquaredOnArc,
    catalog_q_sources,
    figure_case,
    parse_source_config,
    serialize_config,
)

PI = math.pi


class TestEvaluateSource:
    def test_characteristic_disk(self):
        disk = CharacteristicDisk(0.25)
        assert disk.values(0.1, 2.0) == 1.0
        assert disk.values(0.3, 2.0) == 0.0

    def test_gaussian_bump_peak(self):
        src = figure_case(15).source
        assert src.values(0.5, 0.0) == pytest.approx(10.0, abs=1e-12)

    def test_singular_point_is_infinite(self):
        # the rim factor (1 - rho)^(-1/4) of figure 6
        assert figure_case(6).source.values(1.0, 0.0) == math.inf

    def test_characteristic_rect_membership(self):
        rect = CharacteristicRect(PolarRectangle(0.25, 0.5, 0.0, PI / 4))
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
            CharacteristicArc(0.5, 0.2)
        with pytest.raises(SourceValidationError):
            CharacteristicArc(-4.0, 0.0)

    def test_empty_sum(self):
        with pytest.raises(SourceValidationError):
            SourceSum(())

    def test_gaussian_width(self):
        with pytest.raises(SourceValidationError):
            GaussianBump(1.0, 0.5, 0.0)


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
        assert case.source == CharacteristicDisk(0.25)
        assert case.prefactor == 1.0

    def test_figure_9_payload(self):
        case = figure_case(9)
        assert case.source == CharacteristicRect(PolarRectangle(0.9, 1.0, -PI / 6, PI / 6))
        assert case.prefactor == pytest.approx(2.0 / PI)
        assert case.boundary == figure_case(8).boundary

    def test_figure_8_payload(self):
        case = figure_case(8)
        assert case.source is None
        assert case.boundary == CharacteristicArc(-PI / 6, PI / 6)

    def test_kernel_figures(self):
        for fig_id in (1, 2):
            case = figure_case(fig_id)
            assert (case.boundary, case.source) == (None, None)
        assert (figure_case(1).kernel.tag, figure_case(1).radii) == ("poisson", (0.5, 0.75, 0.85))
        assert (figure_case(2).kernel.tag, figure_case(2).radii) == ("q", (0.5, 0.75))

    def test_paired_figures(self):
        both = {i for i in range(1, 16)
                if figure_case(i).boundary is not None and figure_case(i).source is not None}
        assert both == {3, 9, 11, 12, 13, 14}
        assert figure_case(11).boundary == figure_case(10).boundary == AbsTheta()

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


class TestConfigParsing:
    def test_char_rect_example(self):
        doc = {"type": "char_rect", "r": [0.25, 0.5], "theta": [0, 0.7853981633974483]}
        src = parse_source_config(json.dumps(doc))
        assert src == CharacteristicRect(PolarRectangle(0.25, 0.5, 0.0, 0.7853981633974483))

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

    def test_boundary_types(self):
        assert parse_source_config({"type": "cos", "n": 2}) == Cosine(2)
        assert parse_source_config(
            {"type": "abs_log_abs_on_arc", "arc": [0.0, PI]}
        ) == AbsLogAbsOnArc(0.0, PI)

    def test_round_trip_whole_catalog(self):
        for fig_id in range(1, 16):
            case = figure_case(fig_id)
            for obj in (case.boundary, case.source):
                if obj is not None:
                    assert parse_source_config(serialize_config(obj)) == obj


# One instance of every config type and its canonical JSON text, so that a
# changed to_config shows even where a round trip would still hold.
CONFIG_TEXTS = [
    (CharacteristicArc(-0.5, 0.5), '{"arc": [-0.5, 0.5], "type": "char_arc"}'),
    (AbsTheta(), '{"type": "abs_theta"}'),
    (ThetaSquaredOnArc(-0.5, 0.5), '{"arc": [-0.5, 0.5], "type": "theta_squared_on_arc"}'),
    (SinOnArc(0.0, 1.5), '{"arc": [0.0, 1.5], "type": "sin_on_arc"}'),
    (AbsLogAbsOnArc(0.0, 2.0), '{"arc": [0.0, 2.0], "type": "abs_log_abs_on_arc"}'),
    (Cosine(3), '{"n": 3, "type": "cos"}'),
    (ConstantOne(), '{"type": "one"}'),
    (CharacteristicDisk(0.25), '{"radius": 0.25, "type": "char_disk"}'),
    (CharacteristicRect(PolarRectangle(0.25, 0.5, 0.0, 1.0)),
     '{"r": [0.25, 0.5], "theta": [0.0, 1.0], "type": "char_rect"}'),
    (SeparableOnRect(GaussianBump(10.0, 0.5, 10.0), AngularSin(2),
                     PolarRectangle(0.3, 0.7, -1.0, 1.0)),
     '{"angular": {"sin": 2}, "radial": {"gaussian_bump": {"amp": 10.0, "center": 0.5, '
     '"width": 10.0}}, "rect": {"r": [0.3, 0.7], "theta": [-1.0, 1.0]}, "type": "separable"}'),
    (SourceSum(((2.0, CharacteristicDisk(0.5)),
                (-1.0, SeparableOnRect(PowerOfOneMinusRho(0.25), AbsLogAbsPhi(),
                                       PolarRectangle(0.75, 1.0, 0.0, 3.0))))),
     '{"terms": [{"coef": 2.0, "term": {"radius": 0.5, "type": "char_disk"}}, '
     '{"coef": -1.0, "term": {"angular": "abs_log_abs_phi", "radial": {"pow_one_minus_rho": '
     '0.25}, "rect": {"r": [0.75, 1.0], "theta": [0.0, 3.0]}, "type": "separable"}}], '
     '"type": "weighted_sum"}'),
]


@pytest.mark.parametrize("obj, text", CONFIG_TEXTS,
                         ids=[type(obj).__name__ for obj, _ in CONFIG_TEXTS])
def test_config_text_is_pinned(obj, text):
    assert serialize_config(obj) == text
    assert parse_source_config(text) == obj


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
        a = CharacteristicDisk(0.5)
        b = CharacteristicRect(PolarRectangle(0.2, 0.8, -1.0, 1.0))
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
        assert CharacteristicDisk(0.5).pieces()[0].factors == (RadialOne(), AngularOne())
        assert CharacteristicRect(self.ANNULUS).pieces()[0].factors == (RadialOne(), AngularOne())
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
        arcs = BoundarySum(((2.0, AbsTheta()), (-0.5, AbsLogAbsOnArc(0.0, PI)))).arcs()
        assert [arc.log_end for arc in arcs] == [None, None, 0.0, None]
        assert [arc.coef for arc in arcs] == [2.0, 2.0, -0.5, -0.5]
        assert [arc.fn for arc in arcs] == [AbsPhi(), AbsPhi(), AbsLogAbsPhi(), AbsLogAbsPhi()]

    def test_log_arc_splits_at_declared_breaks(self):
        arcs = AbsLogAbsOnArc(-2.0, 2.0).arcs()
        assert [(arc.lo, arc.hi) for arc in arcs] == [(-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0), (1.0, 2.0)]
        assert [arc.log_end for arc in arcs] == [None, 0.0, 0.0, None]
        assert AbsLogAbsPhi.breaks == (-1.0, 0.0, 1.0)
        assert AbsLogAbsPhi.log_points == (0.0,)
