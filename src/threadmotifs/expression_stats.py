"""Bin censused graphs by user count, fit a baseline null model, and score.

``fit_null_model`` reduces one corpus to its per-bin class-count means and
sigmas, so ``compare`` reads, bins and fits one census file at a time, and
``z_scores`` compares the focus corpus's fit with the baseline's, the null
model: a self-comparison gives equal columns and Z = 0. Per bin b and class
i, with m_k the count in the k-th of N focus graphs:

    Z_i = (1/N) * sum_k (m_k - mu_null) / sigma_null
        = (mean_focus - mu_null) / sigma_null

Sigmas are population ones (no Bessel correction). Each mean and variance
comes from exact integer sums, rounded once, so results are reproducible bit
for bit in any row order. Cells with an empty bin on either side, or zero
baseline variance, carry an explicit reason instead of a Z.
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
    """Per-bin, per-class mean and population sigma of one corpus; ``z_scores``
    compares the focus corpus's fit with the baseline's, the null model."""

    spec: BinSpec
    sizes: tuple[int, ...]  # graphs per bin
    mu: tuple[tuple[float, ...] | None, ...]  # None marks an empty bin
    sigma: tuple[tuple[float, ...] | None, ...]


def fit_null_model(binned: BinnedCensuses) -> NullModel:
    """Mean and population sigma of every class count, per bin.

    Counts are integers, so each column's sum and sum of squares are exact
    ints, and the variance (n * squares - total**2) / n**2 is exact until
    int division rounds it once, as it does the mean. So the fit does not
    depend on the order of the graphs.
    """
    mus, sigmas = [], []
    for group in binned.groups:
        n = len(group)
        means, sds = [], []
        for column in zip(*(c.counts for c in group)):
            total = sum(column)
            squares = sum(m * m for m in column)
            means.append(total / n)
            sds.append(math.sqrt((n * squares - total * total) / (n * n)))
        mus.append(tuple(means) if n else None)
        sigmas.append(tuple(sds) if n else None)
    return NullModel(binned.spec, tuple(map(len, binned.groups)), tuple(mus), tuple(sigmas))


class ZCell(NamedTuple):
    """Null-model comparison of one class in one bin."""

    bin_index: int
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


class ZReport(NamedTuple):
    """All cells for the bins populated in either corpus, in bin/class order."""

    class_names: tuple[str, ...]
    cells: tuple[ZCell, ...]


def z_scores(focus: NullModel, null: NullModel) -> ZReport:
    """Standardize the focus corpus's fit against the baseline's, the null model;
    count column i is the class table's class i, whose name labels its cells."""
    if focus.spec != null.spec:
        raise ValueError("focus binning and null model use different bin specs")
    class_names = get_class_table().names
    cells = []
    for b, label in enumerate(focus.spec.labels):
        n = focus.sizes[b]
        m = null.sizes[b]
        if n == 0 and m == 0:
            continue  # bin empty in both corpora: nothing to report
        for i, name in enumerate(class_names):
            # (mean, sigma, standard error) of the baseline, then of the focus corpus
            (mu, sigma, se_null), (mean_f, sigma_f, se_f) = (
                (s.mu[b][i], s.sigma[b][i], s.sigma[b][i] / math.sqrt(k)) if k else (None,) * 3
                for s, k in ((null, m), (focus, n))
            )
            z = reason = None
            if m == 0:
                reason = REASON_EMPTY_BASELINE
            elif n == 0:
                reason = REASON_EMPTY_FOCUS
            elif sigma == 0.0:
                reason = REASON_ZERO_VARIANCE
            else:
                z = (mean_f - mu) / sigma
            cells.append(
                ZCell(
                    bin_index=b,
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
    return ZReport(class_names, tuple(cells))


LABEL_RARE = "rare"
LABEL_OVER = "over"
LABEL_UNDER = "under"
LABEL_EQUAL = "equal"


class ExpressionReport(NamedTuple):
    """Per-cell labels and a per-class summary for a Z-report.

    A class is rare when no bin's mean count (in either corpus) clears the
    rarity threshold; its cells are all labeled rare. Otherwise each defined
    cell is over (Z > 1), under (Z < -1), or equal, and the class summary is
    the set of over/under labels seen in any bin, or {equal} if none.
    Undefined non-rare cells carry an empty label.
    """

    cell_labels: tuple[str, ...]  # parallel to the Z-report's cells
    class_labels: Mapping[str, frozenset[str]]


def classify_expression(
    report: ZReport, rarity_threshold: float = DEFAULT_RARITY_THRESHOLD
) -> ExpressionReport:
    """Apply the rarity and |Z| > 1 rules to a computed Z-report."""
    populated: set[str] = set()
    for cell in report.cells:
        for mean in (cell.mu_null, cell.mean_focus):
            if mean is not None and mean > rarity_threshold:
                populated.add(cell.class_name)
    class_labels: dict[str, set[str]] = {
        name: set() if name in populated else {LABEL_RARE} for name in report.class_names
    }
    cell_labels = []
    for cell in report.cells:
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
