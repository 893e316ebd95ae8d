"""Command-line pipelines: corpus dumps in, CSV reports out.

Subcommands: macro, census, compare, timing, degrees, classes. Every
command is a file-to-file batch step; diagnostics (parse errors, skipped
threads) go to stderr, never into data files. Exit codes: 0 success,
1 input error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
from collections import Counter
from dataclasses import astuple, dataclass, field
from functools import partial
from multiprocessing import Pool
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CorpusParseError, ThreadMotifsError
from .expression_stats import (
    BinSpec,
    DEFAULT_RARITY_THRESHOLD,
    assign_bins,
    classify_expression,
    fit_null_model,
    z_scores,
)
from .graphs import build_reply_graph, build_user_graph, degree_sequences
from .macro_metrics import ecdf, lower_median, macro_record
from .motif_census import (
    MotifCensus,
    census_fast,
    completion_fractions,
    get_class_table,
    motif_instances,
)
from .thread_model import (
    DELETED_SENTINEL,
    FilterPolicy,
    ThreadRecord,
    filter_corpus,
    parse_numbered,
    thread_lifetime,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2

MACRO_HEADER = (
    "thread_id,n_posts,n_users,responsiveness_median_s,"
    "reciprocity,op_betweenness,branching_factor"
).split(",")
ECDF_METRICS = (
    "responsiveness_median_s",
    "reciprocity",
    "op_betweenness",
    "branching_factor",
)
COMPARE_HEADER = (
    "bin,class,M,mu_null,sigma_null,se_null,N,mean_focus,sigma_focus,se_focus,"
    "z,label,reason"
).split(",")
# Corpus bytes per batch. Each batch of lines is parsed, filtered and turned
# into rows in one step (in a worker at --jobs > 1), so no process ever holds
# more than one batch of threads, and a batch is big enough that shipping it
# costs little next to parsing it.
BATCH_BYTES = 64 * 1024


@dataclass
class RunConfig:
    """Everything one pipeline run needs, resolved from CLI flags."""

    input_path: Path | None
    out_dir: Path | None
    policy: FilterPolicy = field(default_factory=FilterPolicy)
    bins: BinSpec = field(default_factory=BinSpec)
    branching_mode: str = "internal"
    rarity_threshold: float = DEFAULT_RARITY_THRESHOLD
    jobs: int = 1


def _fmt(value) -> str:
    """Fixed 6-decimal rendering for reals; empty field for undefined."""
    return "" if value is None else f"{value:.6f}"


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the CSV whole or not at all.

    Rows go to a temporary file beside ``path`` that replaces it only once
    every row is written, so a failed run leaves any earlier file in place.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _usable_cpus() -> int:
    """The number of processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


def _line_batches(path: Path) -> Iterator[tuple[int, list[bytes]]]:
    """Cut the corpus into (first line number, lines) batches of ~BATCH_BYTES."""
    first_line, lines, size = 1, [], 0
    with open(path, "rb") as fh:
        for chunk in fh:
            # splitlines() ends lines where text mode would: \n, \r\n or a lone \r,
            # so a chunk may hold many lines and the size is checked per line.
            for line in chunk.splitlines():
                lines.append(line)
                size += len(line) + 1
                if size >= BATCH_BYTES:
                    yield first_line, lines
                    first_line, lines, size = first_line + len(lines), [], 0
    if lines:
        yield first_line, lines


def _batch_rows(
    row_fn: Callable[[ThreadRecord], list],
    policy: FilterPolicy,
    batch: tuple[int, list[bytes]],
) -> list:
    """Parse, filter and compute the rows of one (first line number, lines) batch.

    Returns one item per non-blank line, in input order: the text of the
    line's parse or validation error (which names the line), or a (line
    number, thread id, rows) triple for a valid thread, with rows None when
    the filter drops it.
    """
    first_line, lines = batch
    events: list = []  # errors and (line number, thread) pairs, in input order
    for numbered in parse_numbered(lines, events.append, first_line):
        events.append(numbered)
    threads = [e[1] for e in events if isinstance(e, tuple)]
    kept = {id(t) for t in filter_corpus(threads, policy)}
    return [
        (e[0], e[1].thread_id, row_fn(e[1]) if id(e[1]) in kept else None)
        if isinstance(e, tuple)
        else str(e)
        for e in events
    ]


def _thread_rows(config: RunConfig, row_fn: Callable[[ThreadRecord], list]) -> Iterator:
    """Yield row_fn's rows for each kept thread of the corpus, in input order.

    Line batches go through _batch_rows, on a pool of up to ``config.jobs``
    workers (never more than the usable processors) when the corpus spans
    more than one batch. Problems go to stderr as the batches come back; a
    thread whose id an earlier valid thread already has is skipped, whatever
    the filter makes of either.
    """
    rest = _line_batches(config.input_path)
    head = list(itertools.islice(rest, 2))
    batches = itertools.chain(head, rest)
    batch_fn = partial(_batch_rows, row_fn, config.policy)
    workers = min(config.jobs, _usable_cpus())
    if workers <= 1 or len(head) < 2:
        yield from _merge_batches(map(batch_fn, batches))
        return
    with Pool(processes=workers) as pool:
        yield from _merge_batches(pool.imap(batch_fn, batches, chunksize=1))


def _merge_batches(results: Iterable[list]) -> Iterator:
    """Report _batch_rows results on stderr, drop duplicate ids and yield rows."""
    skipped = parsed = kept = 0
    first_line_of: dict[str, int] = {}
    for items in results:
        for item in items:
            if isinstance(item, str):
                _diag(f"warning: skipped {item}")
                skipped += 1
                continue
            line_no, thread_id, rows = item
            first = first_line_of.setdefault(thread_id, line_no)
            if first != line_no:
                _diag(
                    f"warning: skipped line {line_no}: duplicate thread_id "
                    f"{thread_id!r} (first on line {first})"
                )
                skipped += 1
                continue
            parsed += 1
            if rows is not None:
                kept += 1
                yield from rows
    if skipped:
        _diag(f"warning: {skipped} malformed line(s)/thread(s) skipped")
    if parsed > kept:
        _diag(f"info: filter dropped {parsed - kept} of {parsed} threads")
    if not kept:
        _diag("warning: no threads remain after filtering")


# Row functions live at module level so they pickle for the pool. Each maps
# one thread to its output rows; reals stay unformatted for the caller.

def _macro_rows(thread: ThreadRecord, branching_mode: str) -> list[tuple]:
    # MacroRecord's fields are the macro_metrics.csv columns, in order.
    return [astuple(macro_record(thread, branching_mode))]


def _census_rows(thread: ThreadRecord, bins: BinSpec) -> list[list]:
    census = census_fast(build_user_graph(thread), get_class_table())
    bin_index = bins.bin_of(census.n_users)
    label = "" if bin_index is None else bins.labels[bin_index]
    return [[thread.thread_id, thread.source, census.n_users, label, *census.counts]]


def _timing_rows(thread: ThreadRecord, class_name: str) -> list[tuple]:
    cls = get_class_table().named(class_name)
    graph = build_user_graph(thread)
    t0, t1 = thread_lifetime(thread)
    pairs = motif_instances(graph, cls)
    fractions = completion_fractions(graph, cls, t0, t1)
    return [
        ("instance", thread.thread_id, graph.users[v], graph.users[w], frac)
        for (v, w), frac in zip(pairs, fractions)
    ]


def _degree_rows(thread: ThreadRecord) -> list[tuple]:
    user, reply = build_user_graph(thread), build_reply_graph(thread)
    return [
        (r.kind, f"{thread.thread_id}:{node}", din, dout)
        for r in (degree_sequences(user), degree_sequences(reply))
        for node, din, dout in zip(r.nodes, r.in_degrees, r.out_degrees)
    ]


def cmd_macro(config: RunConfig) -> int:
    """Write macro_metrics.csv and one ECDF CSV per metric."""
    row_fn = partial(_macro_rows, branching_mode=config.branching_mode)
    rows = list(_thread_rows(config, row_fn))
    _write_csv(
        config.out_dir / "macro_metrics.csv",
        MACRO_HEADER,
        [(*r[:3], *map(_fmt, r[3:])) for r in rows],
    )
    for column, metric in enumerate(ECDF_METRICS, start=3):
        samples = [r[column] for r in rows if r[column] is not None]
        points = []
        if samples:
            curve = ecdf(samples)
            points = [(_fmt(v), _fmt(f)) for v, f in zip(curve.values, curve.fractions)]
        else:
            _diag(f"warning: no defined values for {metric}, ECDF is empty")
        path = config.out_dir / f"ecdf_{metric}.csv"
        _write_csv(path, ("value", "cum_fraction"), points)
    return EXIT_OK


def census_header(class_names: Sequence[str]) -> list[str]:
    return ["thread_id", "source", "n_users", "bin"] + list(class_names)


def cmd_census(config: RunConfig) -> int:
    """Write census.csv: per-thread anchored class counts plus bin label."""
    rows = _thread_rows(config, partial(_census_rows, bins=config.bins))
    header = census_header(get_class_table().names)
    _write_csv(config.out_dir / "census.csv", header, rows)
    return EXIT_OK


def read_census_csv(
    path: Path, class_names: Sequence[str], source: str | None = None
) -> list[MotifCensus]:
    """Load censuses back from a census.csv, enforcing the exact schema.

    Every row's counts must be non-negative and sum to C(n_users - 1, 2), as
    a census's do.
    When ``source`` is given, one warning on stderr counts the rows whose
    source column differs from it; those rows are still loaded.
    """
    expected = census_header(class_names)
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            got = header or []
            for i, want in enumerate(expected):
                have = got[i] if i < len(got) else "<missing>"
                if have != want:
                    raise CorpusParseError(
                        1,
                        f"{path}: census schema mismatch at column {i + 1}: "
                        f"found {have!r}, expected {want!r}",
                    )
            raise CorpusParseError(1, f"{path}: census schema has extra columns")
        censuses = []
        strays = 0
        for line_no, row in enumerate(reader, start=2):
            try:
                n_users = int(row[2])
                counts = tuple(int(c) for c in row[4:])
            except (IndexError, ValueError) as err:
                raise CorpusParseError(line_no, f"{path}: bad census row ({err})")
            if len(counts) != len(class_names):
                raise CorpusParseError(line_no, f"{path}: bad census row width")
            if any(c < 0 for c in counts):
                raise CorpusParseError(line_no, f"{path}: negative class count")
            if n_users < 1 or sum(counts) != math.comb(n_users - 1, 2):
                raise CorpusParseError(
                    line_no,
                    f"{path}: census counts sum to {sum(counts)}, "
                    f"not C(n_users - 1, 2) for n_users = {n_users}",
                )
            censuses.append(MotifCensus(counts, n_users))
            if source is not None and row[1] != source:
                strays += 1
    if strays:
        _diag(
            f"warning: {strays} of {len(censuses)} row(s) in the {source} census "
            f"have another source"
        )
    return censuses


def cmd_compare(focus_path: Path, baseline_path: Path, config: RunConfig) -> int:
    """Standardize a focus census file against a baseline one."""
    table = get_class_table()
    focus = read_census_csv(focus_path, table.names, "focus")
    baseline = read_census_csv(baseline_path, table.names, "baseline")
    binned_baseline = assign_bins(baseline, config.bins)
    binned_focus = assign_bins(focus, config.bins)
    for side, binned in (("focus", binned_focus), ("baseline", binned_baseline)):
        if binned.unbinned:
            _diag(
                f"warning: {len(binned.unbinned)} {side} graph(s) "
                "outside every bin left unbinned"
            )
    null = fit_null_model(binned_baseline)
    report = z_scores(binned_focus, null, table.names)
    expression = classify_expression(report, config.rarity_threshold)
    rows = [
        (
            cell.bin_label,
            cell.class_name,
            cell.m_baseline,
            *map(_fmt, (cell.mu_null, cell.sigma_null, cell.se_null)),
            cell.n_focus,
            *map(_fmt, (cell.mean_focus, cell.sigma_focus, cell.se_focus, cell.z)),
            label,
            cell.reason or "",
        )
        for cell, label in zip(report.cells, expression.cell_labels)
    ]
    _write_csv(config.out_dir / "compare.csv", COMPARE_HEADER, rows)
    summary_rows = [
        (name, "+".join(sorted(expression.class_labels[name])))
        for name in table.names
    ]
    _write_csv(
        config.out_dir / "expression_summary.csv", ("class", "labels"), summary_rows
    )
    return EXIT_OK


def cmd_timing(config: RunConfig, class_name: str) -> int:
    """Write timing.csv: per-instance completion fractions plus their median."""
    fractions = []

    def rows():
        for row in _thread_rows(config, partial(_timing_rows, class_name=class_name)):
            fractions.append(row[4])
            yield (*row[:4], _fmt(row[4]))
        if fractions:
            yield ("median", "", "", "", _fmt(lower_median(fractions)))
        else:
            _diag(f"warning: no instances of {class_name} found, median undefined")

    _write_csv(
        config.out_dir / "timing.csv",
        ("kind", "thread_id", "v_user", "w_user", "fraction"),
        rows(),
    )
    return EXIT_OK


def cmd_degrees(config: RunConfig) -> int:
    """Write per-node degrees and corpus-wide degree histograms."""
    hist = Counter()

    def rows():
        for row in _thread_rows(config, _degree_rows):
            kind, _, din, dout = row
            hist[kind, "in", din] += 1
            hist[kind, "out", dout] += 1
            yield row

    _write_csv(
        config.out_dir / "degrees.csv",
        ("graph", "node", "in_degree", "out_degree"),
        rows(),
    )
    _write_csv(
        config.out_dir / "degree_hist.csv",
        ("graph", "degree_kind", "degree", "count"),
        [(g, k, d, c) for (g, k, d), c in sorted(hist.items())],
    )
    return EXIT_OK


def cmd_classes(out=None) -> int:
    """Print the full class table: name, member configs, and M/A/N counts."""
    out = out if out is not None else sys.stdout
    table = get_class_table()
    print("class,config1,config2,M,A,N", file=out)
    for cls in table.classes:
        configs = ["".join(c) for c in cls.configs]
        config2 = configs[1] if len(configs) == 2 else ""
        m, a, n = cls.man_counts
        print(f"{cls.name},{configs[0]},{config2},{m},{a},{n}", file=out)
    return EXIT_OK


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="line-delimited corpus dump")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--min-extra-posts",
        type=int,
        default=5,
        help="keep threads with at least this many posts besides the root",
    )
    parser.add_argument(
        "--keep-deleted-root",
        action="store_true",
        help="keep threads whose root author matches the deleted sentinel",
    )
    parser.add_argument(
        "--deleted-sentinel",
        default=DELETED_SENTINEL,
        help="author marker for deleted accounts",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes (default 0: all processors)",
    )


def _add_bins_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bins",
        default=None,
        help='node-count bin ranges, e.g. "1-5,6-10,11-15" (default: 1-5 .. 36-40)',
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadmotifs",
        description="Thread-structure metrics and anchored triadic motif census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("macro", help="per-thread macroscopic metrics and ECDFs")
    _add_corpus_args(p)
    p.add_argument(
        "--branching-mode",
        choices=("internal", "all"),
        default="internal",
        help="average replies over replied-to posts, or over all posts",
    )

    p = sub.add_parser("census", help="anchored triadic motif census per thread")
    _add_corpus_args(p)
    _add_bins_arg(p)

    p = sub.add_parser("compare", help="Z-scores of a focus census vs a baseline")
    p.add_argument("--focus", required=True, help="focus census.csv")
    p.add_argument("--baseline", required=True, help="baseline census.csv")
    p.add_argument("--out", required=True, help="output directory")
    _add_bins_arg(p)
    p.add_argument(
        "--rarity-threshold",
        type=float,
        default=DEFAULT_RARITY_THRESHOLD,
        help="mean count a class must exceed in some bin to be non-rare",
    )

    p = sub.add_parser("timing", help="completion fractions for one class")
    p.add_argument("class_name", help="anchored class name, e.g. 201-b")
    _add_corpus_args(p)

    p = sub.add_parser("degrees", help="degree sequences and histograms")
    _add_corpus_args(p)

    sub.add_parser("classes", help="print the 36-class table")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Turn parsed flags into a RunConfig; raises ValueError on bad values."""
    policy = FilterPolicy(
        min_extra_posts=getattr(args, "min_extra_posts", 5),
        drop_deleted_root=not getattr(args, "keep_deleted_root", False),
        deleted_sentinel=getattr(args, "deleted_sentinel", DELETED_SENTINEL),
    )
    bins_text = getattr(args, "bins", None)
    bins = BinSpec.parse(bins_text) if bins_text is not None else BinSpec()
    jobs = getattr(args, "jobs", 0) or _usable_cpus()
    if jobs < 0:
        raise ValueError("--jobs must be non-negative (0 means all processors)")
    rarity = getattr(args, "rarity_threshold", DEFAULT_RARITY_THRESHOLD)
    if not (math.isfinite(rarity) and rarity >= 0):
        raise ValueError("rarity threshold must be a finite non-negative number")
    return RunConfig(
        input_path=Path(args.input) if getattr(args, "input", None) else None,
        out_dir=Path(args.out) if getattr(args, "out", None) else None,
        policy=policy,
        bins=bins,
        branching_mode=getattr(args, "branching_mode", "internal"),
        rarity_threshold=rarity,
        jobs=jobs,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "classes":
        return cmd_classes()
    try:
        config = _resolve_config(args)
    except ValueError as err:
        _diag(f"error: {err}")
        return EXIT_CONFIG
    if args.command == "timing":
        # Validate the class before touching the input: bad names and the
        # edge-free class are configuration errors.
        try:
            cls = get_class_table().named(args.class_name)
        except KeyError as err:
            _diag(f"error: {err.args[0]}")
            return EXIT_CONFIG
        if not cls.has_edges:
            _diag(f"error: {cls.name} is an edge-free class, timing is undefined")
            return EXIT_CONFIG
    try:
        if config.out_dir is not None:
            os.makedirs(config.out_dir, exist_ok=True)
        if args.command == "macro":
            return cmd_macro(config)
        if args.command == "census":
            return cmd_census(config)
        if args.command == "compare":
            return cmd_compare(Path(args.focus), Path(args.baseline), config)
        if args.command == "timing":
            return cmd_timing(config, args.class_name)
        if args.command == "degrees":
            return cmd_degrees(config)
    except (OSError, ThreadMotifsError) as err:
        _diag(f"error: {err}")
        return EXIT_INPUT
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
