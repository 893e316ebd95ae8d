"""The public records: field names and order, defaults, immutability, pickling."""

from __future__ import annotations

import pickle

import pytest

import threadmotifs as tm

FIELDS = {
    tm.PostRecord: "id parent author t",
    tm.ThreadRecord: "thread_id source post_ids parent_of author_of timestamps users root",
    tm.FilterPolicy: "min_extra_posts drop_deleted_root deleted_sentinel",
    tm.UserGraph: "users anchor edges",
    tm.DegreeReport: "kind nodes in_degrees out_degrees",
    tm.MacroRecord: (
        "thread_id n_posts n_users responsiveness_median_s reciprocity op_betweenness "
        "branching_factor"
    ),
    tm.Ecdf: "values fractions",
    tm.AnchoredTriadClass: "index name base configs man_counts",
    tm.ClassTable: "classes config_index name_index",
    tm.MotifCensus: "counts n_users",
    tm.BinSpec: "ranges",
    tm.BinnedCensuses: "spec groups unbinned",
    tm.NullModel: "spec sizes mu sigma",
    tm.ZCell: (
        "bin_index bin_label class_name m_baseline mu_null sigma_null se_null n_focus "
        "mean_focus sigma_focus se_focus z reason"
    ),
    tm.ZReport: "class_names cells",
    tm.ExpressionReport: "cell_labels class_labels",
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_fields_in_order_and_read_only(record):
    assert record._fields == tuple(FIELDS[record].split())
    value = record._make(range(len(record._fields)))
    assert value == tuple(range(len(record._fields)))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_defaults_and_pickling():
    assert tm.FilterPolicy() == (5, True, "[deleted]")
    assert tm.BinSpec().ranges[0] == (1, 5) and len(tm.BinSpec().ranges) == 8
    # The workers receive these two; unpickling goes through their checking __new__.
    for value in (tm.FilterPolicy(2, False), tm.BinSpec.parse("1-2,5-9")):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value)
