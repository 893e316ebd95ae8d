"""Command-line pipelines: corpus dumps in, CSV reports out.

Subcommands: macro, census, compare, timing, degrees, classes. Every
command but classes is a file-to-file batch step that yields its CSVs,
and ``main`` writes each command's files as one set; diagnostics (parse
errors, skipped threads) go to stderr, never into data files. The
argument parser holds each flag's default and check, so every
configuration error is its usage line plus ``error: argument --flag:
<reason>``. ``main`` returns the exit code of every outcome, ``--help``
included: 0 success, 1 input error, 2 configuration error.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import sys
from collections import Counter
from functools import partial
from operator import itemgetter
from argparse import ArgumentParser, ArgumentTypeError, Namespace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CorpusParseError, ThreadMotifsError
from .expression_stats import (
    BinSpec,
    DEFAULT_RARITY_THRESHOLD,
    NullModel,
    assign_bins,
    classify_expression,
    fit_null_model,
    z_scores,
)
from .graphs import build_user_graph, degree_sequences
from .macro_metrics import BRANCHING_MODES, MacroRecord, ecdf, lower_median, macro_record
from .motif_census import (
    AnchoredTriadClass, MotifCensus, census_fast, completion_fractions, get_class_table
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

# MacroRecord's fields are the macro_metrics.csv columns; each metric gets an ECDF.
MACRO_HEADER = list(MacroRecord._fields)
ECDF_METRICS = MACRO_HEADER[3:]
COMPARE_HEADER = (
    "bin,class,M,mu_null,sigma_null,se_null,N,mean_focus,sigma_focus,se_focus,"
    "z,label,reason"
).split(",")
# Corpus bytes per batch. Each line of a batch is parsed, filtered and turned
# into rows before the next (in a worker at --jobs > 1), so a process holds one
# parsed thread at a time, and a batch is big enough that sending its rows
# costs little next to parsing it.
BATCH_BYTES = 64 * 1024


def _fmt(value) -> str:
    """Fixed 6-decimal rendering for reals; empty field for undefined."""
    return "" if value is None else f"{value:.6f}"


def _write_csvs(out: Path, files: Iterable[tuple[str, Sequence[str], Iterable]]) -> None:
    """Write a command's (file name, header, rows) CSVs into ``out`` as one set.

    Each file's rows go to a temporary file beside its path. Only once
    ``files`` is exhausted, after the command's last row and last warning,
    does every temporary file replace its path; on any failure every one is
    unlinked, so a failed run leaves each earlier file of the set as it was.
    The first row is drawn before the directory is made, so rows that fail
    at once, as a missing input does, leave nothing behind.
    """
    written = []  # (temporary file, path) of every file begun
    try:
        for name, header, rows in files:
            rows = iter(rows)
            first = list(itertools.islice(rows, 1))
            out.mkdir(parents=True, exist_ok=True)
            tmp = out / f".{name}.{os.getpid()}.tmp"
            written.append((tmp, out / name))
            with open(tmp, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(first)
                writer.writerows(rows)
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            tmp.unlink(missing_ok=True)
        raise


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _line_batches(path: Path) -> Iterator[tuple[int, bytes]]:
    r"""Cut the corpus into batches of whole lines, about BATCH_BYTES each.

    Yields (first line number, bytes) per batch. The batches follow each
    other with no gap, join back to the whole input, and each ends where a
    line ends (at \n, \r\n or a lone \r, as in text mode), except that the
    last one may end without a line end. Text mode with newline="" does the
    cutting, and latin-1 maps each byte to one character and back.
    """
    first_line = 1
    with open(path, encoding="latin-1", newline="") as fh:
        while lines := fh.readlines(BATCH_BYTES):
            yield first_line, "".join(lines).encode("latin-1")
            first_line += len(lines)


def _batch_rows(
    row_fn: Callable[[ThreadRecord], list],
    policy: FilterPolicy,
    first_line: int,
    data: bytes,
) -> list:
    """Parse, filter and compute the rows of one batch of lines.

    Returns one item per non-blank line, in input order: the text of the
    line's parse or validation error (which names the line), or a (line
    number, thread id, rows) triple for a valid thread, with rows None when
    the filter drops it.
    """
    items: list = []
    for line_no, thread in parse_numbered(
        data.splitlines(), lambda err: items.append(str(err)), first_line
    ):
        rows = row_fn(thread) if filter_corpus([thread], policy) else None
        items.append((line_no, thread.thread_id, rows))
    return items


def _thread_rows(
    args: Namespace, row_fn: Callable[[ThreadRecord], list]
) -> Iterator[list]:
    """Yield row_fn's rows, one list per kept thread of ``args.input``, in input order.

    The main process cuts the input into line batches as it reads it, and
    _ordered_map decides whether it or up to ``args.jobs`` worker processes
    run _batch_rows on them. Problems go to stderr as the batches come back;
    a thread whose id an earlier valid thread already has is skipped,
    whatever the filter makes of either.
    """
    policy = FilterPolicy(
        args.min_extra_posts, args.drop_deleted_root, args.deleted_sentinel
    )
    batch_rows = partial(_batch_rows, row_fn, policy)
    skipped = parsed = kept = 0
    first_line_of: dict[str, int] = {}
    for items in _ordered_map(batch_rows, _line_batches(args.input), args.jobs):
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
                yield rows
    if skipped:
        _diag(f"warning: {skipped} malformed line(s)/thread(s) skipped")
    if parsed > kept:
        _diag(f"info: filter dropped {parsed - kept} of {parsed} threads")
    if not kept:
        _diag("warning: no threads remain after filtering")


def _serve(fn: Callable, conn, parent_ends: list) -> None:
    """Worker loop: reply to each item the parent sends with fn(*item).

    An exception in fn ends the worker with its traceback and exit code 1.
    Under fork the worker inherits the parent's end of every worker's pipe,
    its own included. It closes them, so once the parent is gone ``recv``
    reads EOF, or ``send`` fails, and the worker exits instead of waiting
    forever.
    """
    for end in parent_ends:
        end.close()
    try:
        while True:
            conn.send(fn(*conn.recv()))
    except (EOFError, ConnectionError):  # the parent closed its end or is gone
        return


def _ordered_map(fn: Callable, items: Iterator[tuple], jobs: int) -> Iterator:
    """Yield fn(*item) for each item, in input order.

    If the first ``jobs`` items are fewer than two, this process computes
    every item: one is not worth a worker. Otherwise one worker process per
    such item starts before the first send, and each item goes to an idle
    worker over that worker's own pipe, so a worker holds one item at a time
    and no item or result size can fill both ends of a pipe. A result that
    comes back before an earlier item's waits here, so a slow item holds up
    no worker. The parent runs no threads: it sleeps in ``wait`` until a
    worker replies or is gone. A gone worker, one that raised included,
    reads EOF there (a send to it fails quietly), and the run stops with
    its exit code. Workers are daemonic, or an exception that leaves the
    program holding this generator, as a failed stderr write can, would
    leave the exit handler joining workers that wait forever. They start by
    the start method the program has set, else by ``fork`` where the platform
    has it: Python 3.14's Linux default, ``forkserver``, made ``--jobs 2``
    slower than ``--jobs 1`` for census, degrees and timing.
    """
    head = list(itertools.islice(items, jobs))
    if len(head) < 2:
        yield from itertools.starmap(fn, itertools.chain(head, items))
        return
    import multiprocessing  # here, so serial runs never load multiprocessing
    from multiprocessing.connection import wait

    method = multiprocessing.get_start_method(allow_none=True)
    if method is None and "fork" in multiprocessing.get_all_start_methods():
        method = "fork"
    context = multiprocessing.get_context(method)  # None: the default context
    todo = enumerate(itertools.chain(head, items))
    workers = {}  # parent end -> its worker process
    held = {}  # parent end -> index of the item its worker holds
    done = {}  # index -> result of items finished but not yet yielded
    yielded = 0
    try:
        for _ in head:
            conn, child_end = context.Pipe()
            worker = context.Process(
                target=_serve, args=(fn, child_end, [*workers, conn])
            )
            worker.daemon = True
            worker.start()
            # Now only the worker holds its end, so its exit reads as EOF.
            child_end.close()
            workers[conn] = worker
        idle = list(workers)  # parent ends whose worker holds no item
        while True:
            # Send items out before yielding, so workers compute while the
            # caller consumes a result.
            for index, item in itertools.islice(todo, len(idle)):
                conn = idle.pop()
                with contextlib.suppress(OSError):  # a gone worker reads EOF below
                    conn.send(item)
                held[conn] = index
            if yielded in done:
                yield done.pop(yielded)
                yielded += 1
            elif not held:
                return
            else:
                for conn in wait(list(held)):
                    try:
                        done[held.pop(conn)] = conn.recv()
                    except (EOFError, OSError):  # the worker is gone
                        worker = workers[conn]
                        worker.join()
                        raise ThreadMotifsError(
                            f"worker process exited unexpectedly (exit code {worker.exitcode})"
                        ) from None
                    idle.append(conn)
    finally:
        for conn, worker in workers.items():
            conn.close()
            worker.terminate()
        for worker in workers.values():
            worker.join()


# Row functions live at module level so they pickle for the workers. Each maps
# one thread to its output rows; reals stay unformatted for the caller.

def _macro_rows(thread: ThreadRecord, branching_mode: str) -> list[tuple]:
    return [macro_record(thread, branching_mode)]


def _census_rows(thread: ThreadRecord, bins: BinSpec, labels: Sequence[str]) -> list[list]:
    census = census_fast(build_user_graph(thread), get_class_table())
    bin_index = bins.bin_of(census.n_users)
    label = "" if bin_index is None else labels[bin_index]
    return [[thread.thread_id, thread.source, census.n_users, label, *census.counts]]


def _timing_rows(thread: ThreadRecord, cls: AnchoredTriadClass) -> list[tuple]:
    graph = build_user_graph(thread)
    t0, t1 = thread_lifetime(thread)
    return [
        ("instance", thread.thread_id, graph.users[v], graph.users[w], frac)
        for (v, w), frac in completion_fractions(graph, cls, t0, t1)
    ]


def _degree_rows(thread: ThreadRecord) -> list[tuple]:
    return [
        (r.kind, f"{thread.thread_id}:{node}", din, dout)
        for r in (degree_sequences(build_user_graph(thread)), degree_sequences(thread))
        for node, din, dout in zip(r.nodes, r.in_degrees, r.out_degrees)
    ]


def cmd_macro(args: Namespace) -> Iterator[tuple]:
    """Yield macro_metrics.csv and one ECDF CSV per metric."""
    row_fn = partial(_macro_rows, branching_mode=args.branching_mode)
    rows = list(itertools.chain.from_iterable(_thread_rows(args, row_fn)))
    yield "macro_metrics.csv", MACRO_HEADER, [(*r[:3], *map(_fmt, r[3:])) for r in rows]
    for column, metric in enumerate(ECDF_METRICS, start=3):
        samples = [r[column] for r in rows if r[column] is not None]
        points = []
        if samples:
            curve = ecdf(samples)
            points = [(_fmt(v), _fmt(f)) for v, f in zip(curve.values, curve.fractions)]
        else:
            _diag(f"warning: no defined values for {metric}, ECDF is empty")
        yield f"ecdf_{metric}.csv", ("value", "cum_fraction"), points


def census_header() -> list[str]:
    return ["thread_id", "source", "n_users", "bin", *get_class_table().names]


def cmd_census(args: Namespace) -> Iterator[tuple]:
    """Yield census.csv: per-thread anchored class counts plus bin label."""
    row_fn = partial(_census_rows, bins=args.bins, labels=args.bins.labels)
    rows = itertools.chain.from_iterable(_thread_rows(args, row_fn))
    yield "census.csv", census_header(), rows


def read_census_csv(path: Path, source: str) -> list[MotifCensus]:
    """Load censuses back from a census.csv, enforcing the exact schema.

    Every row must have the header's width, and its counts must be
    non-negative and sum to C(n_users - 1, 2), as a census's do. ``n_users``
    must be at least 1, and below 2**63 as the corpus timestamps are, so
    every count and every square of one is a finite float. A fault, text
    that is not UTF-8 or not CSV included, names the line its row starts on,
    where a newline quoted in a field counts as a line.
    One warning on stderr counts the rows whose source column differs from
    ``source``; those rows are still loaded.
    """
    csv.field_size_limit(2**31 - 1)  # census writes ids of any length; process-wide
    expected = census_header()
    censuses = []
    strays = 0
    line_no = 1  # the line the next row starts on
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header != expected:
                for i, want in enumerate(expected):
                    have = header[i] if i < len(header) else "<missing>"
                    if have != want:
                        raise CorpusParseError(
                            line_no,
                            f"{path}: census schema mismatch at column {i + 1}: "
                            f"found {have!r}, expected {want!r}",
                        )
                raise CorpusParseError(line_no, f"{path}: census schema has extra columns")
            line_no = reader.line_num + 1
            for row in reader:
                if len(row) != len(expected):
                    raise CorpusParseError(line_no, f"{path}: bad census row width")
                try:
                    n_users = int(row[2])
                    counts = tuple(map(int, row[4:]))
                except ValueError as err:
                    raise CorpusParseError(line_no, f"{path}: bad census row ({err})")
                if min(counts) < 0:
                    raise CorpusParseError(line_no, f"{path}: negative class count")
                if n_users < 1:
                    raise CorpusParseError(line_no, f"{path}: n_users must be at least 1")
                if n_users >= 2**63:
                    raise CorpusParseError(line_no, f"{path}: n_users must be below 2**63")
                if sum(counts) != math.comb(n_users - 1, 2):
                    raise CorpusParseError(
                        line_no,
                        f"{path}: census counts sum to {sum(counts)}, "
                        f"not C(n_users - 1, 2) for n_users = {n_users}",
                    )
                censuses.append(MotifCensus(counts, n_users))
                if row[1] != source:
                    strays += 1
                line_no = reader.line_num + 1
        except UnicodeDecodeError as err:
            where = f"{path}: invalid UTF-8 ({err.reason}) on this line or a later one"
            raise CorpusParseError(line_no, where) from None
        except csv.Error as err:
            raise CorpusParseError(line_no, f"{path}: bad CSV ({err})") from None
    if strays:
        _diag(
            f"warning: {strays} of {len(censuses)} row(s) in the {source} census "
            f"have another source"
        )
    return censuses


def _fit_census(path: Path, bins: BinSpec, side: str) -> tuple[NullModel, int]:
    """Fit one census file and count its unbinned rows; the rows are freed on return."""
    binned = assign_bins(read_census_csv(path, side), bins)
    return fit_null_model(binned), len(binned.unbinned)


def cmd_compare(args: Namespace) -> Iterator[tuple]:
    """Yield the Z-scores of a focus census file against a baseline one."""
    focus, focus_unbinned = _fit_census(args.focus, args.bins, "focus")
    null, baseline_unbinned = _fit_census(args.baseline, args.bins, "baseline")
    for side, unbinned in (("focus", focus_unbinned), ("baseline", baseline_unbinned)):
        if unbinned:
            _diag(f"warning: {unbinned} {side} graph(s) outside every bin left unbinned")
    report = z_scores(focus, null)
    expression = classify_expression(report, args.rarity_threshold)
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
    yield "compare.csv", COMPARE_HEADER, rows
    summary_rows = [
        (name, "+".join(sorted(expression.class_labels[name])))
        for name in report.class_names
    ]
    yield "expression_summary.csv", ("class", "labels"), summary_rows


def cmd_timing(args: Namespace) -> Iterator[tuple]:
    """Yield timing.csv: per-instance completion fractions plus their median."""
    fractions = []
    cls = args.class_name  # the flag type resolved the name to its class
    row_fn = partial(_timing_rows, cls=cls)

    def rows():
        for thread_rows in _thread_rows(args, row_fn):
            for row in thread_rows:
                fractions.append(row[4])
                yield (*row[:4], _fmt(row[4]))
        if fractions:
            yield ("median", "", "", "", _fmt(lower_median(fractions)))
        else:
            _diag(f"warning: no instances of {cls.name} found, median undefined")

    yield "timing.csv", ("kind", "thread_id", "v_user", "w_user", "fraction"), rows()


def cmd_degrees(args: Namespace) -> Iterator[tuple]:
    """Yield per-node degrees, then corpus-wide degree histograms."""
    in_hist, out_hist = Counter(), Counter()  # (graph kind, degree) -> nodes

    def counted(rows: list[tuple]) -> list[tuple]:
        in_hist.update(map(itemgetter(0, 2), rows))
        out_hist.update(map(itemgetter(0, 3), rows))
        return rows

    rows = itertools.chain.from_iterable(map(counted, _thread_rows(args, _degree_rows)))
    yield "degrees.csv", ("graph", "node", "in_degree", "out_degree"), rows
    # The writer has drawn every degrees.csv row, so the histograms are whole.
    hist_rows = [(g, "in", d, c) for (g, d), c in in_hist.items()]
    hist_rows += [(g, "out", d, c) for (g, d), c in out_hist.items()]
    yield "degree_hist.csv", ("graph", "degree_kind", "degree", "count"), sorted(hist_rows)


def cmd_classes(args: Namespace) -> None:
    """Print the full class table: name, member configs, and M/A/N counts."""
    print("class,config1,config2,M,A,N")
    for cls in get_class_table().classes:
        configs = ["".join(c) for c in cls.configs]
        config2 = configs[1] if len(configs) == 2 else ""
        m, a, n = cls.man_counts
        print(f"{cls.name},{configs[0]},{config2},{m},{a},{n}")


# Flag types: each converts and checks one flag value. argparse reports an
# ArgumentTypeError as "argument --flag: <message>" and exits with 2.

def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _jobs(text: str) -> int:
    """Worker processes: 0 means every usable processor, and more is capped there."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cpus = os.cpu_count() or 1
    return min(_count(text) or cpus, cpus)


def _bins(text: str) -> BinSpec:
    try:
        return BinSpec.parse(text)
    except ValueError as err:
        raise ArgumentTypeError(str(err)) from None


def _rarity_threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise ArgumentTypeError("rarity threshold must be finite and non-negative")
    return value


def _timing_class(name: str) -> AnchoredTriadClass:
    """A known class with edges: an edge-free class never completes."""
    try:
        cls = get_class_table().named(name)
    except KeyError as err:
        raise ArgumentTypeError(err.args[0]) from None
    if not cls.has_edges:
        raise ArgumentTypeError(f"{name} is an edge-free class, timing is undefined")
    return cls


def _add_corpus_args(parser: ArgumentParser) -> None:
    parser.add_argument(
        "--input", type=Path, required=True, help="line-delimited corpus dump"
    )
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    parser.add_argument(
        "--min-extra-posts",
        type=_count,
        default=FilterPolicy().min_extra_posts,
        help="keep threads with at least this many posts besides the root",
    )
    parser.add_argument(
        "--keep-deleted-root",
        dest="drop_deleted_root",
        action="store_false",
        help="keep threads whose root author matches the deleted sentinel",
    )
    parser.add_argument(
        "--deleted-sentinel",
        default=DELETED_SENTINEL,
        help="author marker for deleted accounts",
    )
    # A string default goes through type=, so it resolves like a typed "0".
    parser.add_argument(
        "--jobs",
        type=_jobs,
        default="0",
        help="worker processes; 0 means all usable processors (default: %(default)s)",
    )


def _add_bins_arg(parser: ArgumentParser) -> None:
    default = BinSpec()
    parser.add_argument(
        "--bins",
        type=_bins,
        default=default,
        help=f"node-count bin ranges (default: {','.join(default.labels)})",
    )


def _build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="threadmotifs",
        description="Thread-structure metrics and anchored triadic motif census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("macro", help="per-thread macroscopic metrics and ECDFs")
    _add_corpus_args(p)
    p.add_argument(
        "--branching-mode",
        choices=BRANCHING_MODES,
        default=BRANCHING_MODES[0],
        help="average replies over replied-to posts, or over all posts",
    )
    p.set_defaults(run=cmd_macro)

    p = sub.add_parser("census", help="anchored triadic motif census per thread")
    _add_corpus_args(p)
    _add_bins_arg(p)
    p.set_defaults(run=cmd_census)

    p = sub.add_parser("compare", help="Z-scores of a focus census vs a baseline")
    p.add_argument("--focus", type=Path, required=True, help="focus census.csv")
    p.add_argument("--baseline", type=Path, required=True, help="baseline census.csv")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    _add_bins_arg(p)
    p.add_argument(
        "--rarity-threshold",
        type=_rarity_threshold,
        default=DEFAULT_RARITY_THRESHOLD,
        help="mean count a class must exceed in some bin to be non-rare",
    )
    p.set_defaults(run=cmd_compare)

    p = sub.add_parser("timing", help="completion fractions for one class")
    p.add_argument("class_name", type=_timing_class, help="anchored class name, e.g. 201-b")
    _add_corpus_args(p)
    p.set_defaults(run=cmd_timing)

    p = sub.add_parser("degrees", help="degree sequences and histograms")
    _add_corpus_args(p)
    p.set_defaults(run=cmd_degrees)

    p = sub.add_parser("classes", help="print the 36-class table")
    p.set_defaults(run=cmd_classes)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand, write the CSVs it yields, and return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse: 0 after --help, 2 after a bad flag
        return stop.code
    try:
        files = args.run(args)
        if files is not None:  # classes prints; every other command yields its CSVs
            _write_csvs(args.out, files)
    except (OSError, ThreadMotifsError) as err:
        with contextlib.suppress(OSError):  # stderr may be what failed
            _diag(f"error: {err}")
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
