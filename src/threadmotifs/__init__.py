"""Thread-structure metrics and anchored triadic motif census.

Reconstructs conversation graphs from line-delimited thread dumps,
computes macroscopic structure metrics, runs an anchored triad census
over user interaction graphs, and scores a focus corpus against a
baseline null model.
"""

from .errors import (
    CorpusParseError,
    InvalidLifetimeError,
    InvalidPairError,
    ThreadMotifsError,
    ThreadValidationError,
    UndefinedMetricError,
)
from .expression_stats import (
    BinSpec,
    BinnedCensuses,
    ExpressionReport,
    NullModel,
    ZCell,
    ZReport,
    assign_bins,
    classify_expression,
    fit_null_model,
    z_scores,
)
from .graphs import (
    DegreeReport,
    ReplyGraph,
    UserGraph,
    build_reply_graph,
    build_user_graph,
    degree_sequences,
)
from .macro_metrics import (
    Ecdf,
    MacroRecord,
    branching_factor,
    ecdf,
    macro_record,
    op_betweenness,
    reciprocity,
    responsiveness_median,
)
from .motif_census import (
    AnchoredTriadClass,
    ClassTable,
    MotifCensus,
    build_class_table,
    census_fast,
    census_naive,
    completion_fractions,
    dyad_code,
    get_class_table,
    motif_instances,
)
from .thread_model import (
    FilterPolicy,
    PostRecord,
    ThreadRecord,
    filter_corpus,
    parse_numbered,
    parse_thread_line,
    thread_lifetime,
    to_json_line,
)

__version__ = "0.1.0"
