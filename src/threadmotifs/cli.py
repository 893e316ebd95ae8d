"""Command-line pipelines: corpus dumps in, CSV reports out.

Subcommands: macro, census, compare, timing, degrees, classes. Every
command is a file-to-file batch step; diagnostics (parse errors, skipped
threads) go to stderr, never into data files. The argument parser holds
each flag's default and check, so every configuration error is its usage
line plus ``error: argument --flag: <reason>``. ``main`` returns the exit
code of every outcome, ``--help`` included: 0 success, 1 input error,
2 configuration error.
"""

from __future__ import annotations

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
    assign_bins,
    classify_expression,
    fit_null_model,
    z_scores,
)
from .graphs import build_user_graph, degree_sequences
from .macro_metrics import BRANCHING_MODES, MacroRecord, ecdf, lower_median, macro_record
from .motif_census import MotifCensus, census_fast, completion_fractions, get_class_table
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
# Corpus bytes per batch. Each batch of lines is parsed, filtered and turned
# into rows in one step (in a worker at --jobs > 1), so no process ever holds
# more than one batch of threads, and a batch is big enough that sending its
# rows costs little next to parsing it.
BATCH_BYTES = 64 * 1024


def _fmt(value) -> str:
    """Fixed 6-decimal rendering for reals; empty field for undefined."""
    return "" if value is None else f"{value:.6f}"


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the CSV whole or not at all.

    Rows go to a temporary file beside ``path`` that replaces it only once
    every row is written, so a failed run leaves any earlier file in place.
    The first row is drawn before the directory is made, so rows that fail
    at once, as a missing corpus does, leave nothing behind.
    """
    rows = iter(rows)
    first = list(itertools.islice(rows, 1))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(first)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _line_batches(path: Path) -> Iterator[tuple[int, bytes]]:
    r"""Cut the corpus into batches of whole lines, about BATCH_BYTES each.

    Yields (first line number, bytes) per batch. The batches follow each
    other with no gap, join back to the whole input, and each ends where a
    line ends (at \n, \r\n or a lone \r, as in text mode), except that the
    last one may end without a line end.
    """
    first_line, held = 1, []  # held: blocks of lines not yet ended
    with open(path, "rb") as fh:
        while block := fh.read(BATCH_BYTES):
            # Cut after the last \n or a lone \r after it, but not after a \r
            # that ends the block: the next block may begin with its \n.
            nl = block.rfind(b"\n")
            cut = max(nl, block.rfind(b"\r", nl + 1, len(block) - 1)) + 1
            if cut:  # else a line longer than the block: join its blocks once
                data = b"".join([*held, block[:cut]])
                yield first_line, data
                # Without a \r every line ends in \n: count them without a list.
                first_line += len(data.splitlines()) if b"\r" in data else data.count(b"\n")
                held = []
            held.append(block[cut:])
    data = b"".join(held)
    if data:
        yield first_line, data


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
    events: list = []  # errors and (line number, thread) pairs, in input order
    for numbered in parse_numbered(data.splitlines(), events.append, first_line):
        events.append(numbered)
    threads = [e[1] for e in events if isinstance(e, tuple)]
    kept = {id(t) for t in filter_corpus(threads, policy)}
    return [
        (e[0], e[1].thread_id, row_fn(e[1]) if id(e[1]) in kept else None)
        if isinstance(e, tuple)
        else str(e)
        for e in events
    ]


def _thread_rows(
    args: Namespace, row_fn: Callable[[ThreadRecord], list]
) -> Iterator[list]:
    """Yield row_fn's rows, one list per kept thread of ``args.input``, in input order.

    The main process cuts the input into line batches as it reads it. When
    ``args.jobs`` > 1 and the input gives at least two batches, up to
    ``args.jobs`` worker processes run _batch_rows on them; otherwise the
    main process does. Problems go to stderr as the batches come back; a
    thread whose id an earlier valid thread already has is skipped, whatever
    the filter makes of either.
    """
    policy = FilterPolicy(
        args.min_extra_posts, args.drop_deleted_root, args.deleted_sentinel
    )
    batch_rows = partial(_batch_rows, row_fn, policy)
    batches = _line_batches(args.input)
    head = list(itertools.islice(batches, 2))  # one batch is not worth a worker
    batches = itertools.chain(head, batches)
    if args.jobs > 1 and len(head) > 1:
        results = _ordered_map(batch_rows, batches, args.jobs)
    else:
        results = itertools.starmap(batch_rows, batches)
    yield from _merge_batches(results)


def _serve(fn: Callable, conn, parent_ends: list) -> None:
    """Worker loop: reply to each item the parent sends with (ok, fn(*item) or error).

    Under fork the worker inherits the parent's end of every worker's pipe,
    its own included. It closes them, so once the parent is gone ``recv``
    reads EOF, or ``send`` fails, and the worker exits instead of waiting
    forever.
    """
    for end in parent_ends:
        end.close()
    try:
        while True:
            item = conn.recv()
            try:
                reply = True, fn(*item)
            except Exception as err:  # the parent re-raises it in input order
                from multiprocessing.pool import ExceptionWithTraceback

                reply = False, ExceptionWithTraceback(err, err.__traceback__)
            conn.send(reply)
    except (EOFError, OSError):  # the parent closed its end or is gone
        return


def _exited(worker) -> ThreadMotifsError:
    """The error for a worker process that is gone before the run is done."""
    worker.join()
    return ThreadMotifsError(f"worker process exited unexpectedly (exit code {worker.exitcode})")


def _ordered_map(fn: Callable, items: Iterable[tuple], jobs: int) -> Iterator:
    """Yield fn(*item) for each item, in input order, computed in worker processes.

    The parent sends each item to an idle worker, over that worker's own
    pipe, and starts a worker only when none is idle and fewer than ``jobs``
    run. Each worker holds one item at a time and the parent sends only to
    an idle one, so no item or result size can fill both ends of a pipe. A
    result that comes back before an earlier item's waits in the parent, so
    a slow item holds up no worker. The parent runs no threads: it sleeps in
    ``wait`` until a worker replies or exits, and a worker that exits is an
    error, not a hang.
    """
    import multiprocessing  # here, so serial runs never load multiprocessing
    from multiprocessing.connection import wait

    todo = enumerate(items)
    workers = {}  # parent end -> its worker process
    idle = []  # parent ends of the workers that hold no item
    held = {}  # parent end -> index of the item its worker holds
    done = {}  # index -> (ok, result) of items finished but not yet yielded
    yielded = 0
    try:
        while True:
            # Send items out before yielding, so workers compute while the
            # caller consumes a result.
            while idle or len(workers) < jobs:
                index, item = next(todo, (None, None))
                if index is None:
                    break
                if not idle:
                    conn, child_end = multiprocessing.Pipe()
                    worker = multiprocessing.Process(
                        target=_serve, args=(fn, child_end, [*workers, conn])
                    )
                    worker.start()
                    # Now only the worker holds its end, so its exit reads as EOF.
                    child_end.close()
                    workers[conn] = worker
                    idle.append(conn)
                conn = idle.pop()
                try:
                    conn.send(item)
                except OSError:  # the worker is gone
                    raise _exited(workers[conn]) from None
                held[conn] = index
            if yielded in done:
                ok, result = done.pop(yielded)
                yielded += 1
                if not ok:
                    raise result
                yield result
            elif not held:
                return
            else:
                for conn in wait(list(held)):
                    try:
                        done[held.pop(conn)] = conn.recv()
                    except (EOFError, OSError):  # the worker is gone
                        raise _exited(workers[conn]) from None
                    idle.append(conn)
    finally:
        for conn, worker in workers.items():
            conn.close()
            worker.terminate()
        for worker in workers.values():
            worker.join()


def _merge_batches(results: Iterable[list]) -> Iterator[list]:
    """Report _batch_rows results on stderr, drop duplicate ids and yield each
    kept thread's rows."""
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
                yield rows
    if skipped:
        _diag(f"warning: {skipped} malformed line(s)/thread(s) skipped")
    if parsed > kept:
        _diag(f"info: filter dropped {parsed - kept} of {parsed} threads")
    if not kept:
        _diag("warning: no threads remain after filtering")


# Row functions live at module level so they pickle for the workers. Each maps
# one thread to its output rows; reals stay unformatted for the caller.

def _macro_rows(thread: ThreadRecord, branching_mode: str) -> list[tuple]:
    return [macro_record(thread, branching_mode)]


def _census_rows(thread: ThreadRecord, bins: BinSpec, labels: Sequence[str]) -> list[list]:
    census = census_fast(build_user_graph(thread), get_class_table())
    bin_index = bins.bin_of(census.n_users)
    label = "" if bin_index is None else labels[bin_index]
    return [[thread.thread_id, thread.source, census.n_users, label, *census.counts]]


def _timing_rows(thread: ThreadRecord, class_name: str) -> list[tuple]:
    cls = get_class_table().named(class_name)
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


def cmd_macro(args: Namespace) -> None:
    """Write macro_metrics.csv and one ECDF CSV per metric."""
    row_fn = partial(_macro_rows, branching_mode=args.branching_mode)
    rows = list(itertools.chain.from_iterable(_thread_rows(args, row_fn)))
    _write_csv(
        args.out / "macro_metrics.csv",
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
        path = args.out / f"ecdf_{metric}.csv"
        _write_csv(path, ("value", "cum_fraction"), points)


def census_header(class_names: Sequence[str]) -> list[str]:
    return ["thread_id", "source", "n_users", "bin"] + list(class_names)


def cmd_census(args: Namespace) -> None:
    """Write census.csv: per-thread anchored class counts plus bin label."""
    row_fn = partial(_census_rows, bins=args.bins, labels=args.bins.labels)
    rows = itertools.chain.from_iterable(_thread_rows(args, row_fn))
    header = census_header(get_class_table().names)
    _write_csv(args.out / "census.csv", header, rows)


def _csv_rows(path: Path, fh) -> Iterator[list[str]]:
    """The rows of an open CSV file; text not UTF-8 or not CSV is an input error."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as err:
        where = f"{path}: invalid UTF-8 ({err.reason}) on this line or a later one"
        raise CorpusParseError(reader.line_num + 1, where) from None
    except csv.Error as err:
        raise CorpusParseError(reader.line_num, f"{path}: bad CSV ({err})") from None


def read_census_csv(path: Path, class_names: Sequence[str], source: str) -> list[MotifCensus]:
    """Load censuses back from a census.csv, enforcing the exact schema.

    Every row's counts must be non-negative and sum to C(n_users - 1, 2), as
    a census's do. ``n_users`` must be below 2**63, as the corpus timestamps
    are, so every count and every square of one is a finite float.
    One warning on stderr counts the rows whose source column differs from
    ``source``; those rows are still loaded.
    """
    expected = census_header(class_names)
    with open(path, encoding="utf-8") as fh:
        rows = _csv_rows(path, fh)
        header = next(rows, None)
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
        for line_no, row in enumerate(rows, start=2):
            try:
                n_users = int(row[2])
                counts = tuple(map(int, row[4:]))
            except (IndexError, ValueError) as err:
                raise CorpusParseError(line_no, f"{path}: bad census row ({err})")
            if len(counts) != len(class_names):
                raise CorpusParseError(line_no, f"{path}: bad census row width")
            if min(counts) < 0:
                raise CorpusParseError(line_no, f"{path}: negative class count")
            if n_users >= 2**63:
                raise CorpusParseError(line_no, f"{path}: n_users must be below 2**63")
            if n_users < 1 or sum(counts) != math.comb(n_users - 1, 2):
                raise CorpusParseError(
                    line_no,
                    f"{path}: census counts sum to {sum(counts)}, "
                    f"not C(n_users - 1, 2) for n_users = {n_users}",
                )
            censuses.append(MotifCensus(counts, n_users))
            if row[1] != source:
                strays += 1
    if strays:
        _diag(
            f"warning: {strays} of {len(censuses)} row(s) in the {source} census "
            f"have another source"
        )
    return censuses


def cmd_compare(args: Namespace) -> None:
    """Standardize a focus census file against a baseline one."""
    table = get_class_table()
    focus = read_census_csv(args.focus, table.names, "focus")
    baseline = read_census_csv(args.baseline, table.names, "baseline")
    binned_baseline = assign_bins(baseline, args.bins)
    binned_focus = assign_bins(focus, args.bins)
    for side, binned in (("focus", binned_focus), ("baseline", binned_baseline)):
        if binned.unbinned:
            _diag(
                f"warning: {len(binned.unbinned)} {side} graph(s) "
                "outside every bin left unbinned"
            )
    null = fit_null_model(binned_baseline)
    report = z_scores(binned_focus, null, table.names)
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
    _write_csv(args.out / "compare.csv", COMPARE_HEADER, rows)
    summary_rows = [
        (name, "+".join(sorted(expression.class_labels[name])))
        for name in table.names
    ]
    _write_csv(args.out / "expression_summary.csv", ("class", "labels"), summary_rows)


def cmd_timing(args: Namespace) -> None:
    """Write timing.csv: per-instance completion fractions plus their median."""
    fractions = []

    row_fn = partial(_timing_rows, class_name=args.class_name)

    def rows():
        for thread_rows in _thread_rows(args, row_fn):
            for row in thread_rows:
                fractions.append(row[4])
                yield (*row[:4], _fmt(row[4]))
        if fractions:
            yield ("median", "", "", "", _fmt(lower_median(fractions)))
        else:
            _diag(f"warning: no instances of {args.class_name} found, median undefined")

    _write_csv(
        args.out / "timing.csv",
        ("kind", "thread_id", "v_user", "w_user", "fraction"),
        rows(),
    )


def cmd_degrees(args: Namespace) -> None:
    """Write per-node degrees and corpus-wide degree histograms."""
    in_hist, out_hist = Counter(), Counter()  # (graph kind, degree) -> nodes

    def counted(rows: list[tuple]) -> list[tuple]:
        in_hist.update(map(itemgetter(0, 2), rows))
        out_hist.update(map(itemgetter(0, 3), rows))
        return rows

    _write_csv(
        args.out / "degrees.csv",
        ("graph", "node", "in_degree", "out_degree"),
        itertools.chain.from_iterable(map(counted, _thread_rows(args, _degree_rows))),
    )
    hist_rows = [(g, "in", d, c) for (g, d), c in in_hist.items()]
    hist_rows += [(g, "out", d, c) for (g, d), c in out_hist.items()]
    _write_csv(
        args.out / "degree_hist.csv",
        ("graph", "degree_kind", "degree", "count"),
        sorted(hist_rows),
    )


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


def _timing_class(name: str) -> str:
    """The name of a known class with edges: an edge-free class never completes."""
    try:
        cls = get_class_table().named(name)
    except KeyError as err:
        raise ArgumentTypeError(err.args[0]) from None
    if not cls.has_edges:
        raise ArgumentTypeError(f"{name} is an edge-free class, timing is undefined")
    return name


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
    """Run one subcommand and return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse: 0 after --help, 2 after a bad flag
        return stop.code
    try:
        args.run(args)
    except (OSError, ThreadMotifsError) as err:
        _diag(f"error: {err}")
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
