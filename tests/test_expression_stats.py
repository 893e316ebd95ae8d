"""Binning, null-model fitting, Z-scores, and expression labels."""

from __future__ import annotations

import math
import random

import pytest

from threadmotifs.expression_stats import (
    BinSpec,
    REASON_EMPTY_BASELINE,
    REASON_EMPTY_FOCUS,
    REASON_ZERO_VARIANCE,
    assign_bins,
    classify_expression,
    fit_null_model,
    z_scores,
)
from threadmotifs.motif_census import MotifCensus, get_class_table

from support import exact_moments, hand_cells, rounded_moments

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


# One bin for the graphs of up to 2**40 users.
LARGE_BINS = BinSpec(((1, 2**40),))


def large_sample(rng, n_users):
    """Up to 60 censuses of ``n_users`` users, each class count either drawn up
    to 900 or a few below C(n_users - 1, 2), so that two means of the big
    counts differ by far less than a float's spacing at their size."""
    big = math.comb(n_users - 1, 2)
    kinds = [rng.random() < 0.5 for _ in range(N_CLASSES)]
    return [
        census_of(
            n_users,
            **{f"c{i}": big - rng.randint(0, 6) if near else rng.randint(0, 900)
               for i, near in enumerate(kinds)},
        )
        for _ in range(rng.randint(1, 60))
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
        assert (null.sums[0][0], null.squares[0][0]) == (6, 12)
        assert all(type(s) is int for row in (*null.sums, *null.squares) for s in row)

    def test_population_sigma(self):
        binned = assign_bins([census_of(3, c0=0), census_of(3, c0=4)], BinSpec())
        null = fit_null_model(binned)
        assert (null.sums[0][0], null.squares[0][0]) == (4, 16)
        # population sigma: sqrt(((0-2)^2 + (4-2)^2) / 2) = 2
        cell = z_scores(null, null)[0]
        assert (cell.mu_null, cell.sigma_null) == (2.0, 2.0)

    def test_empty_bins_marked(self):
        null = fit_null_model(assign_bins([census_of(3)], BinSpec()))
        assert null.sizes[1] == 0
        assert null.sums[1] == null.squares[1] == (0,) * N_CLASSES


class TestZScores:
    def test_direct_formula(self):
        baseline = assign_bins([census_of(3, c0=0), census_of(3, c0=4)], BinSpec())
        focus = assign_bins([census_of(3, c0=4), census_of(3, c0=8)], BinSpec())
        cells = z_scores(fit_null_model(focus), fit_null_model(baseline))
        cell = next(c for c in cells if c.class_name == CLASS_NAMES[0])
        assert cell.z == pytest.approx((6 - 2) / 2, abs=1e-12)
        assert cell.mean_focus == 6.0
        assert cell.m_baseline == 2
        assert cell.n_focus == 2
        # standard errors: sigma / sqrt(count)
        assert cell.se_null == pytest.approx(2 / 2**0.5, abs=1e-12)
        assert cell.se_focus == pytest.approx(2 / 2**0.5, abs=1e-12)

    def test_cells_name_the_table_classes_in_column_order(self):
        binned = assign_bins([census_of(3, c0=1), census_of(7, c5=2)], BinSpec())
        cells = z_scores(fit_null_model(binned), fit_null_model(binned))
        assert type(cells) is tuple
        assert [c.class_name for c in cells] == [*CLASS_NAMES, *CLASS_NAMES]
        planted = [(c.bin_label, c.class_name) for c in cells if c.mean_focus]
        assert planted == [("1-5", CLASS_NAMES[0]), ("6-10", CLASS_NAMES[5])]

    def test_self_comparison_is_zero(self):
        rng = random.Random(83)
        censuses = [
            census_of(rng.randint(1, 40), c0=rng.randint(0, 30), c5=rng.randint(0, 9))
            for _ in range(120)
        ]
        binned = assign_bins(censuses, BinSpec())
        cells = z_scores(fit_null_model(binned), fit_null_model(binned))
        for cell in cells:
            if cell.reason == REASON_ZERO_VARIANCE:
                assert cell.z is None
            else:
                assert cell.z == 0.0

    def test_zero_variance_reason(self):
        baseline = assign_bins([census_of(3, c0=2)] * 2, BinSpec())
        focus = assign_bins([census_of(3, c0=5)], BinSpec())
        cells = z_scores(fit_null_model(focus), fit_null_model(baseline))
        cell = cells[0]
        assert cell.z is None
        assert cell.reason == REASON_ZERO_VARIANCE

    def test_empty_side_reasons(self):
        baseline = assign_bins([census_of(3, c0=1), census_of(3, c0=3)], BinSpec())
        focus = assign_bins([census_of(8, c0=1), census_of(8, c0=2)], BinSpec())
        cells = z_scores(fit_null_model(focus), fit_null_model(baseline))
        assert {c.reason for c in cells if c.bin_label == "1-5"} == {
            REASON_EMPTY_FOCUS
        }
        assert {c.reason for c in cells if c.bin_label == "6-10"} == {
            REASON_EMPTY_BASELINE
        }

    def test_bins_empty_in_both_corpora_are_omitted(self):
        baseline = assign_bins([census_of(3, c0=1), census_of(3, c0=3)], BinSpec())
        cells = z_scores(fit_null_model(baseline), fit_null_model(baseline))
        assert {c.bin_label for c in cells} == {"1-5"}

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
        c0 = next(c for c in z0 if c.class_name == CLASS_NAMES[3])
        c1 = next(c for c in z1 if c.class_name == CLASS_NAMES[3])
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
        c0 = next(c for c in z0 if c.class_name == CLASS_NAMES[3])
        c1 = next(c for c in z1 if c.class_name == CLASS_NAMES[3])
        assert c1.z == pytest.approx(c0.z, abs=1e-9)

    def test_single_census_bin_has_zero_sigma(self):
        baseline = assign_bins([census_of(3, c0=7)], BinSpec())
        focus = assign_bins([census_of(3, c0=9)], BinSpec())
        cells = z_scores(fit_null_model(focus), fit_null_model(baseline))
        assert all(c.reason == REASON_ZERO_VARIANCE for c in cells)

    def test_matches_an_exact_rational_oracle(self):
        """Means, sigmas and standard errors equal the exact ones rounded, and
        Z has the exact Z's sign and its square within 1e-12, also where the
        counts near C(n - 1, 2) of graphs of up to 2**40 users put the means
        far past 2**53."""
        rng = random.Random(2024)
        cases = [(BinSpec(), random_sample(rng), random_sample(rng)) for _ in range(30)]
        for _ in range(30):
            n_users = rng.randint(3, 2**40)
            cases.append((LARGE_BINS, large_sample(rng, n_users), large_sample(rng, n_users)))
        for spec, baseline_sample, focus_sample in cases:
            baseline, focus = assign_bins(baseline_sample, spec), assign_bins(focus_sample, spec)
            cells = z_scores(fit_null_model(focus), fit_null_model(baseline))
            exact = {}
            for side, binned in (("null", baseline), ("focus", focus)):
                for b, group in enumerate(binned.groups):
                    for i, moments in enumerate(exact_moments([c.counts for c in group])):
                        exact[side, b, i] = (*moments, len(group))
            for cell in cells:
                b, i = spec.labels.index(cell.bin_label), CLASS_NAMES.index(cell.class_name)
                exact_null = exact.get(("null", b, i))
                exact_focus = exact.get(("focus", b, i))
                for moments, got in (
                    (exact_null, (cell.mu_null, cell.sigma_null, cell.se_null)),
                    (exact_focus, (cell.mean_focus, cell.sigma_focus, cell.se_focus)),
                ):
                    assert got == (rounded_moments(*moments) if moments else (None,) * 3)
                if cell.z is not None:
                    difference = exact_focus[0] - exact_null[0]
                    assert (cell.z > 0) - (cell.z < 0) == (difference > 0) - (difference < 0)
                    z_squared = difference * difference / exact_null[1]
                    assert cell.z * cell.z == pytest.approx(float(z_squared), rel=1e-12, abs=0)

    def test_fit_does_not_depend_on_row_order(self):
        rng = random.Random(7)
        for _ in range(5):
            binned = assign_bins(random_sample(rng, 200), BinSpec())
            shuffled = binned._replace(
                groups=tuple(tuple(rng.sample(group, len(group))) for group in binned.groups)
            )
            assert fit_null_model(shuffled) == fit_null_model(binned)


class TestClassifyExpression:
    def test_rare_class(self):
        cells = hand_cells(
            [("1-5", "003", 3.0, 2.0, 5.0), ("6-10", "003", 1.0, 4.0, -9.0)]
        )
        labeled = classify_expression(cells)
        assert labeled.class_labels["003"] == frozenset({"rare"})
        assert labeled.cell_labels == ("rare", "rare")

    def test_over_expressed(self):
        cells = hand_cells(
            [("1-5", "003", 12.0, 13.0, 1.5), ("6-10", "003", 20.0, 20.5, 0.5)]
        )
        labeled = classify_expression(cells)
        assert labeled.class_labels["003"] == frozenset({"over"})
        assert labeled.cell_labels == ("over", "equal")

    def test_under_expressed(self):
        cells = hand_cells([("1-5", "003", 12.0, 1.0, -11.0)])
        assert classify_expression(cells).class_labels["003"] == frozenset({"under"})

    def test_equal_when_z_in_band(self):
        cells = hand_cells(
            [("1-5", "003", 12.0, 12.5, 0.5), ("6-10", "003", 30.0, 29.0, -1.0)]
        )
        labeled = classify_expression(cells)
        assert labeled.class_labels["003"] == frozenset({"equal"})

    def test_boundary_z_exactly_one_is_equal(self):
        cells = hand_cells([("1-5", "003", 12.0, 13.0, 1.0)])
        assert classify_expression(cells).class_labels["003"] == frozenset({"equal"})

    def test_mixed_over_and_under(self):
        cells = hand_cells(
            [("1-5", "003", 12.0, 15.0, 3.0), ("6-10", "003", 30.0, 10.0, -2.0)]
        )
        labeled = classify_expression(cells)
        assert labeled.class_labels["003"] == frozenset({"over", "under"})

    def test_focus_mean_can_rescue_from_rarity(self):
        # Baseline mean below threshold, focus mean above: class is populated.
        cells = hand_cells([("1-5", "003", 2.0, 11.0, 9.0)])
        assert classify_expression(cells).class_labels["003"] == frozenset({"over"})

    def test_threshold_is_strict(self):
        cells = hand_cells([("1-5", "003", 10.0, 10.0, 2.0)])
        assert classify_expression(cells).class_labels["003"] == frozenset({"rare"})
        assert classify_expression(cells, rarity_threshold=9.5).class_labels[
            "003"
        ] == frozenset({"over"})

    def test_undefined_cells_of_populated_class_get_blank_label(self):
        cells = hand_cells(
            [("1-5", "003", 12.0, 13.0, None), ("6-10", "003", 20.0, 24.0, 2.0)]
        )
        labeled = classify_expression(cells)
        assert labeled.cell_labels == ("", "over")
        assert labeled.class_labels["003"] == frozenset({"over"})

    def test_summary_covers_every_table_class_in_table_order(self):
        # Cells of two classes, out of table order; no other class has a cell.
        cells = hand_cells([("1-5", "012-a", 12.0, 15.0, 3.0), ("1-5", "003", 12.0, 12.5, 0.5)])
        labeled = classify_expression(cells)
        assert tuple(labeled.class_labels) == CLASS_NAMES
        assert labeled.class_labels["012-a"] == frozenset({"over"})
        assert labeled.class_labels["003"] == frozenset({"equal"})
        assert {labeled.class_labels[name] for name in CLASS_NAMES[2:]} == {frozenset({"rare"})}
