"""Binning, null-model fitting, Z-scores, and expression labels."""

from __future__ import annotations

import random

import pytest

from threadmotifs.expression_stats import (
    BinSpec,
    REASON_EMPTY_BASELINE,
    REASON_EMPTY_FOCUS,
    REASON_ZERO_VARIANCE,
    ZCell,
    ZReport,
    assign_bins,
    classify_expression,
    fit_null_model,
    z_scores,
)
from threadmotifs.motif_census import MotifCensus, get_class_table

from support import exact_moments

N_CLASSES = 36


def census_of(n_users, **named_counts):
    """A census with the given counts planted at fixed class slots."""
    counts = [0] * N_CLASSES
    for slot, value in named_counts.items():
        counts[int(slot.removeprefix("c"))] = value
    return MotifCensus(tuple(counts), n_users)


CLASS_NAMES = get_class_table().names


def random_sample(rng, size=None):
    """Up to 250 censuses of 1 to 40 users, each class count drawn up to 2, 40 or 900."""
    return [
        census_of(
            rng.randint(1, 40),
            **{f"c{i}": rng.randint(0, rng.choice((2, 40, 900))) for i in range(N_CLASSES)},
        )
        for _ in range(size or rng.randint(1, 250))
    ]


class TestBinSpec:
    def test_default_boundaries(self):
        spec = BinSpec()
        assert spec.bin_of(5) == 0
        assert spec.bin_of(6) == 1
        assert spec.bin_of(40) == 7
        assert spec.bin_of(41) is None

    def test_labels(self):
        assert BinSpec().labels[:2] == ("1-5", "6-10")

    def test_parse_round_trip(self):
        spec = BinSpec.parse("1-5,6-10,11-15")
        assert spec.ranges == ((1, 5), (6, 10), (11, 15))

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            BinSpec.parse("1..5")
        with pytest.raises(ValueError):
            BinSpec.parse("five-ten")

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ValueError):
            BinSpec(((1, 5), (5, 10)))

    def test_descending_ranges_rejected(self):
        with pytest.raises(ValueError):
            BinSpec(((6, 10), (1, 5)))

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            BinSpec(((5, 1),))

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="^bin spec needs at least one range$"):
            BinSpec(())


class TestAssignBins:
    def test_placement_and_unbinned(self):
        censuses = [census_of(5), census_of(6), census_of(41), census_of(40)]
        binned = assign_bins(censuses, BinSpec())
        assert binned.groups[0] == (censuses[0],)
        assert binned.groups[1] == (censuses[1],)
        assert binned.groups[7] == (censuses[3],)
        assert binned.unbinned == (censuses[2],)


class TestNullModel:
    def test_constant_sample(self):
        binned = assign_bins([census_of(3, c0=2)] * 3, BinSpec())
        null = fit_null_model(binned)
        assert null.sizes[0] == 3
        assert null.mu[0][0] == 2.0
        assert null.sigma[0][0] == 0.0

    def test_population_sigma(self):
        binned = assign_bins([census_of(3, c0=0), census_of(3, c0=4)], BinSpec())
        null = fit_null_model(binned)
        # population sigma: sqrt(((0-2)^2 + (4-2)^2) / 2) = 2
        assert null.mu[0][0] == 2.0
        assert null.sigma[0][0] == 2.0

    def test_empty_bins_marked(self):
        null = fit_null_model(assign_bins([census_of(3)], BinSpec()))
        assert null.sizes[1] == 0
        assert null.mu[1] is None


class TestZScores:
    def test_direct_formula(self):
        baseline = assign_bins([census_of(3, c0=0), census_of(3, c0=4)], BinSpec())
        focus = assign_bins([census_of(3, c0=4), census_of(3, c0=8)], BinSpec())
        report = z_scores(fit_null_model(focus), fit_null_model(baseline))
        cell = next(c for c in report.cells if c.class_name == CLASS_NAMES[0])
        assert cell.z == pytest.approx((6 - 2) / 2, abs=1e-12)
        assert cell.mean_focus == 6.0
        assert cell.m_baseline == 2
        assert cell.n_focus == 2
        # standard errors: sigma / sqrt(count)
        assert cell.se_null == pytest.approx(2 / 2**0.5, abs=1e-12)
        assert cell.se_focus == pytest.approx(2 / 2**0.5, abs=1e-12)

    def test_cells_name_the_table_classes_in_column_order(self):
        binned = assign_bins([census_of(3, c0=1), census_of(7, c5=2)], BinSpec())
        report = z_scores(fit_null_model(binned), fit_null_model(binned))
        assert report.class_names == CLASS_NAMES
        assert [c.class_name for c in report.cells] == [*CLASS_NAMES, *CLASS_NAMES]
        planted = [(c.bin_label, c.class_name) for c in report.cells if c.mean_focus]
        assert planted == [("1-5", CLASS_NAMES[0]), ("6-10", CLASS_NAMES[5])]

    def test_self_comparison_is_zero(self):
        rng = random.Random(83)
        censuses = [
            census_of(rng.randint(1, 40), c0=rng.randint(0, 30), c5=rng.randint(0, 9))
            for _ in range(120)
        ]
        binned = assign_bins(censuses, BinSpec())
        report = z_scores(fit_null_model(binned), fit_null_model(binned))
        for cell in report.cells:
            if cell.reason == REASON_ZERO_VARIANCE:
                assert cell.z is None
            else:
                assert cell.z == 0.0

    def test_zero_variance_reason(self):
        baseline = assign_bins([census_of(3, c0=2)] * 2, BinSpec())
        focus = assign_bins([census_of(3, c0=5)], BinSpec())
        report = z_scores(fit_null_model(focus), fit_null_model(baseline))
        cell = report.cells[0]
        assert cell.z is None
        assert cell.reason == REASON_ZERO_VARIANCE

    def test_empty_side_reasons(self):
        baseline = assign_bins([census_of(3, c0=1), census_of(3, c0=3)], BinSpec())
        focus = assign_bins([census_of(8, c0=1), census_of(8, c0=2)], BinSpec())
        report = z_scores(fit_null_model(focus), fit_null_model(baseline))
        assert {c.reason for c in report.cells if c.bin_label == "1-5"} == {
            REASON_EMPTY_FOCUS
        }
        assert {c.reason for c in report.cells if c.bin_label == "6-10"} == {
            REASON_EMPTY_BASELINE
        }

    def test_bins_empty_in_both_corpora_are_omitted(self):
        baseline = assign_bins([census_of(3, c0=1), census_of(3, c0=3)], BinSpec())
        report = z_scores(fit_null_model(baseline), fit_null_model(baseline))
        assert {c.bin_label for c in report.cells} == {"1-5"}

    def test_mismatched_bin_specs_rejected(self):
        small = BinSpec(((1, 10),))
        baseline = assign_bins([census_of(3, c0=1)], BinSpec())
        focus = assign_bins([census_of(3, c0=1)], small)
        with pytest.raises(ValueError):
            z_scores(fit_null_model(focus), fit_null_model(baseline))

    def test_shift_invariance(self):
        # Adding the same constant to every count of a class in both corpora
        # moves both means together and leaves sigma, hence Z, unchanged.
        rng = random.Random(19)
        base = [census_of(4, c3=rng.randint(0, 10)) for _ in range(30)]
        foc = [census_of(4, c3=rng.randint(5, 20)) for _ in range(30)]

        def shifted(cs, delta):
            return [
                MotifCensus(
                    tuple(v + delta if i == 3 else v for i, v in enumerate(c.counts)),
                    c.n_users,
                )
                for c in cs
            ]

        z0 = z_scores(
            fit_null_model(assign_bins(foc, BinSpec())),
            fit_null_model(assign_bins(base, BinSpec())),
        )
        z1 = z_scores(
            fit_null_model(assign_bins(shifted(foc, 7), BinSpec())),
            fit_null_model(assign_bins(shifted(base, 7), BinSpec())),
        )
        c0 = next(c for c in z0.cells if c.class_name == CLASS_NAMES[3])
        c1 = next(c for c in z1.cells if c.class_name == CLASS_NAMES[3])
        assert c1.z == pytest.approx(c0.z, abs=1e-9)

    def test_scale_invariance(self):
        rng = random.Random(23)
        base = [census_of(4, c3=rng.randint(0, 10)) for _ in range(30)]
        foc = [census_of(4, c3=rng.randint(5, 20)) for _ in range(30)]

        def scaled(cs, factor):
            return [
                MotifCensus(
                    tuple(v * factor if i == 3 else v for i, v in enumerate(c.counts)),
                    c.n_users,
                )
                for c in cs
            ]

        z0 = z_scores(
            fit_null_model(assign_bins(foc, BinSpec())),
            fit_null_model(assign_bins(base, BinSpec())),
        )
        z1 = z_scores(
            fit_null_model(assign_bins(scaled(foc, 5), BinSpec())),
            fit_null_model(assign_bins(scaled(base, 5), BinSpec())),
        )
        c0 = next(c for c in z0.cells if c.class_name == CLASS_NAMES[3])
        c1 = next(c for c in z1.cells if c.class_name == CLASS_NAMES[3])
        assert c1.z == pytest.approx(c0.z, abs=1e-9)

    def test_single_census_bin_has_zero_sigma(self):
        baseline = assign_bins([census_of(3, c0=7)], BinSpec())
        focus = assign_bins([census_of(3, c0=9)], BinSpec())
        report = z_scores(fit_null_model(focus), fit_null_model(baseline))
        assert all(c.reason == REASON_ZERO_VARIANCE for c in report.cells)

    def test_matches_an_exact_rational_oracle(self):
        rng = random.Random(2024)
        for _ in range(30):
            baseline = assign_bins(random_sample(rng), BinSpec())
            focus = assign_bins(random_sample(rng), BinSpec())
            report = z_scores(fit_null_model(focus), fit_null_model(baseline))
            expected = {}
            for side, binned in (("null", baseline), ("focus", focus)):
                for b, group in enumerate(binned.groups):
                    for i, stats in enumerate(exact_moments([c.counts for c in group])):
                        expected[side, b, i] = stats
            for cell in report.cells:
                i = CLASS_NAMES.index(cell.class_name)
                for side, got in (
                    ("null", (cell.mu_null, cell.sigma_null, cell.se_null)),
                    ("focus", (cell.mean_focus, cell.sigma_focus, cell.se_focus)),
                ):
                    assert got == expected.get((side, cell.bin_index, i), (None,) * 3)

    def test_fit_does_not_depend_on_row_order(self):
        rng = random.Random(7)
        for _ in range(5):
            binned = assign_bins(random_sample(rng, 200), BinSpec())
            shuffled = binned._replace(
                groups=tuple(tuple(rng.sample(group, len(group))) for group in binned.groups)
            )
            assert fit_null_model(shuffled) == fit_null_model(binned)


def hand_report(rows):
    """ZReport from (bin_label, class_name, mu_null, mean_focus, z) tuples."""
    cells = []
    for bin_label, name, mu, mean_focus, z in rows:
        cells.append(
            ZCell(
                bin_index=0,
                bin_label=bin_label,
                class_name=name,
                m_baseline=10,
                mu_null=mu,
                sigma_null=1.0,
                se_null=0.1,
                n_focus=10,
                mean_focus=mean_focus,
                sigma_focus=1.0,
                se_focus=0.1,
                z=z,
                reason=None if z is not None else REASON_ZERO_VARIANCE,
            )
        )
    names = tuple(dict.fromkeys(cell.class_name for cell in cells))
    return ZReport(names, tuple(cells))


class TestClassifyExpression:
    def test_rare_class(self):
        report = hand_report(
            [("1-5", "x", 3.0, 2.0, 5.0), ("6-10", "x", 1.0, 4.0, -9.0)]
        )
        labeled = classify_expression(report)
        assert labeled.class_labels["x"] == frozenset({"rare"})
        assert labeled.cell_labels == ("rare", "rare")

    def test_over_expressed(self):
        report = hand_report(
            [("1-5", "x", 12.0, 13.0, 1.5), ("6-10", "x", 20.0, 20.5, 0.5)]
        )
        labeled = classify_expression(report)
        assert labeled.class_labels["x"] == frozenset({"over"})
        assert labeled.cell_labels == ("over", "equal")

    def test_under_expressed(self):
        report = hand_report([("1-5", "x", 12.0, 1.0, -11.0)])
        assert classify_expression(report).class_labels["x"] == frozenset({"under"})

    def test_equal_when_z_in_band(self):
        report = hand_report(
            [("1-5", "x", 12.0, 12.5, 0.5), ("6-10", "x", 30.0, 29.0, -1.0)]
        )
        labeled = classify_expression(report)
        assert labeled.class_labels["x"] == frozenset({"equal"})

    def test_boundary_z_exactly_one_is_equal(self):
        report = hand_report([("1-5", "x", 12.0, 13.0, 1.0)])
        assert classify_expression(report).class_labels["x"] == frozenset({"equal"})

    def test_mixed_over_and_under(self):
        report = hand_report(
            [("1-5", "x", 12.0, 15.0, 3.0), ("6-10", "x", 30.0, 10.0, -2.0)]
        )
        labeled = classify_expression(report)
        assert labeled.class_labels["x"] == frozenset({"over", "under"})

    def test_focus_mean_can_rescue_from_rarity(self):
        # Baseline mean below threshold, focus mean above: class is populated.
        report = hand_report([("1-5", "x", 2.0, 11.0, 9.0)])
        assert classify_expression(report).class_labels["x"] == frozenset({"over"})

    def test_threshold_is_strict(self):
        report = hand_report([("1-5", "x", 10.0, 10.0, 2.0)])
        assert classify_expression(report).class_labels["x"] == frozenset({"rare"})
        assert classify_expression(report, rarity_threshold=9.5).class_labels[
            "x"
        ] == frozenset({"over"})

    def test_undefined_cells_of_populated_class_get_blank_label(self):
        report = hand_report(
            [("1-5", "x", 12.0, 13.0, None), ("6-10", "x", 20.0, 24.0, 2.0)]
        )
        labeled = classify_expression(report)
        assert labeled.cell_labels == ("", "over")
        assert labeled.class_labels["x"] == frozenset({"over"})
