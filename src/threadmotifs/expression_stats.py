"""Bin censused graphs by user count, fit a baseline null model, and score.

``fit_null_model`` folds one corpus into exact per-bin sums of each class
count and of its square, so ``compare`` reads, bins and fits one census file
at a time, and ``z_scores`` compares the focus corpus's fit with the
baseline's, the null model: a self-comparison gives equal columns and Z = 0.
Per bin b and class i, with m_k the count in the k-th of N focus graphs:

    Z_i = (1/N) * sum_k (m_k - mu_null) / sigma_null
        = (mean_focus - mu_null) / sigma_null

Sigmas are population ones (no Bessel correction). Only ``z_scores`` rounds:
each mean and variance once, and Z from the exact difference of the means,
so results do not depend on row order and stay exact at any count size.
Cells with an empty bin on either side, or zero baseline variance, carry an
explicit reason instead of a Z.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from .motif_census import MotifCensus, get_class_table

DEFAULT_BIN_RANGES = (
    (1, 5), (6, 10), (11, 15), (16, 20), (21, 25), (26, 30), (31, 35), (36, 40),
)
DEFAULT_RARITY_THRESHOLD = 10.0

REASON_EMPTY_BASELINE = "empty baseline bin"
REASON_EMPTY_FOCUS = "empty focus bin"
REASON_ZERO_VARIANCE = "zero baseline variance"


class _BinSpec(NamedTuple):
    ranges: tuple[tuple[int, int], ...] = DEFAULT_BIN_RANGES


class BinSpec(_BinSpec):
    """Ordered, disjoint, inclusive node-count ranges; larger graphs are unbinned."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.ranges:
            raise ValueError("bin spec needs at least one range")
        prev_hi = None
        for lo, hi in self.ranges:
            if lo > hi:
                raise ValueError(f"bin range {lo}-{hi} is inverted")
            if prev_hi is not None and lo <= prev_hi:
                raise ValueError("bin ranges must be disjoint and ascending")
            prev_hi = hi
        return self

    @classmethod
    def parse(cls, text: str) -> "BinSpec":
        """Parse a spec like "1-5,6-10,11-15"."""
        ranges = []
        for part in text.split(","):
            lo, sep, hi = part.strip().partition("-")
            if not sep:
                raise ValueError(f"bad bin range {part!r}, expected lo-hi")
            try:
                ranges.append((int(lo), int(hi)))
            except ValueError as err:
                raise ValueError(f"bad bin range {part!r}: {err}") from None
        return cls(tuple(ranges))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"{lo}-{hi}" for lo, hi in self.ranges)

    def bin_of(self, n_users: int) -> int | None:
        for i, (lo, hi) in enumerate(self.ranges):
            if lo <= n_users <= hi:
                return i
        return None


class BinnedCensuses(NamedTuple):
    """Censuses grouped by bin; graphs beyond the last range sit in unbinned."""

    spec: BinSpec
    groups: tuple[tuple[MotifCensus, ...], ...]
    unbinned: tuple[MotifCensus, ...]


def assign_bins(censuses: Iterable[MotifCensus], spec: BinSpec) -> BinnedCensuses:
    """Place each census into the unique range containing its user count."""
    groups: list[list[MotifCensus]] = [[] for _ in spec.ranges]
    unbinned: list[MotifCensus] = []
    for census in censuses:
        i = spec.bin_of(census.n_users)
        if i is None:
            unbinned.append(census)
        else:
            groups[i].append(census)
    return BinnedCensuses(spec, tuple(tuple(g) for g in groups), tuple(unbinned))


class NullModel(NamedTuple):
    """Per-bin graph count and per-class exact sums of the counts of one corpus
    and of their squares; ``z_scores`` compares two of them."""

    spec: BinSpec
    sizes: tuple[int, ...]  # graphs per bin
    sums: tuple[tuple[int, ...], ...]  # per bin, per class: sum of the counts
    squares: tuple[tuple[int, ...], ...]  # per bin, per class: sum of their squares


def fit_null_model(binned: BinnedCensuses) -> NullModel:
    """Fold each bin's censuses into exact int sums of every class count and of
    its square, 0 in an empty bin, so row order cannot change them."""
    width = len(get_class_table().names)
    sums, squares = [], []
    for group in binned.groups:
        columns = tuple(zip(*(c.counts for c in group))) or ((),) * width
        sums.append(tuple(map(sum, columns)))
        squares.append(tuple(sum(m * m for m in column) for column in columns))
    return NullModel(binned.spec, tuple(map(len, binned.groups)), tuple(sums), tuple(squares))


def _moments(total: int, squares: int, k: int) -> tuple[float | None, ...]:
    """Mean, population sigma and standard error of k counts from exact sums."""
    if not k:
        return (None,) * 3
    sigma = math.sqrt((k * squares - total * total) / (k * k))
    return total / k, sigma, sigma / math.sqrt(k)


class ZCell(NamedTuple):
    """Null-model comparison of one class in one bin."""

    bin_label: str
    class_name: str
    m_baseline: int
    mu_null: float | None
    sigma_null: float | None
    se_null: float | None
    n_focus: int
    mean_focus: float | None
    sigma_focus: float | None
    se_focus: float | None
    z: float | None
    reason: str | None  # set exactly when z is None


def z_scores(focus: NullModel, null: NullModel) -> tuple[ZCell, ...]:
    """Standardize the focus corpus's fit against the baseline's, the null model:
    one cell per class of each bin populated on either side, in bin then class
    order. Count column i is the class table's class i, which names its cells."""
    if focus.spec != null.spec:
        raise ValueError("focus binning and null model use different bin specs")
    class_names = get_class_table().names
    cells = []
    for b, label in enumerate(focus.spec.labels):
        n, m = focus.sizes[b], null.sizes[b]
        if n == 0 and m == 0:
            continue  # bin empty in both corpora: nothing to report
        for i, name in enumerate(class_names):
            # (mean, sigma, standard error) of the baseline, then of the focus corpus
            (mu, sigma, se_null), (mean_f, sigma_f, se_f) = (
                _moments(s.sums[b][i], s.squares[b][i], k) for s, k in ((null, m), (focus, n))
            )
            z = reason = None
            if m == 0:
                reason = REASON_EMPTY_BASELINE
            elif n == 0:
                reason = REASON_EMPTY_FOCUS
            elif sigma == 0.0:
                reason = REASON_ZERO_VARIANCE
            else:
                # (sum_f/n - sum_b/m) / sigma, from the exact difference of the means
                sum_f, sum_b = focus.sums[b][i], null.sums[b][i]
                z = (sum_f * m - sum_b * n) / n / math.sqrt(m * null.squares[b][i] - sum_b**2)
            cells.append(
                ZCell(
                    bin_label=label,
                    class_name=name,
                    m_baseline=m,
                    mu_null=mu,
                    sigma_null=sigma,
                    se_null=se_null,
                    n_focus=n,
                    mean_focus=mean_f,
                    sigma_focus=sigma_f,
                    se_focus=se_f,
                    z=z,
                    reason=reason,
                )
            )
    return tuple(cells)


LABEL_RARE = "rare"
LABEL_OVER = "over"
LABEL_UNDER = "under"
LABEL_EQUAL = "equal"


class ExpressionReport(NamedTuple):
    """Per-cell labels, and a summary for every class of the class table.

    A class is rare when no bin's mean count (in either corpus) clears the
    rarity threshold; its cells are all labeled rare, and so is a class with
    no cell. Otherwise each defined cell is over (Z > 1), under (Z < -1), or
    equal, and the class summary is the set of over/under labels seen in any
    bin, or {equal} if none. Undefined non-rare cells carry an empty label.
    """

    cell_labels: tuple[str, ...]  # parallel to the cells of z_scores
    class_labels: Mapping[str, frozenset[str]]  # in class table order


def classify_expression(
    cells: tuple[ZCell, ...], rarity_threshold: float = DEFAULT_RARITY_THRESHOLD
) -> ExpressionReport:
    """Apply the rarity and |Z| > 1 rules to the cells of ``z_scores``."""
    populated: set[str] = set()
    for cell in cells:
        for mean in (cell.mu_null, cell.mean_focus):
            if mean is not None and mean > rarity_threshold:
                populated.add(cell.class_name)
    class_labels: dict[str, set[str]] = {
        name: set() if name in populated else {LABEL_RARE} for name in get_class_table().names
    }
    cell_labels = []
    for cell in cells:
        if cell.class_name not in populated:
            label = LABEL_RARE
        elif cell.z is None:
            label = ""
        elif cell.z > 1.0:
            label = LABEL_OVER
        elif cell.z < -1.0:
            label = LABEL_UNDER
        else:
            label = LABEL_EQUAL
        if label in (LABEL_OVER, LABEL_UNDER):
            class_labels[cell.class_name].add(label)
        cell_labels.append(label)
    summary = {name: frozenset(labels or {LABEL_EQUAL}) for name, labels in class_labels.items()}
    return ExpressionReport(tuple(cell_labels), summary)
