"""Span recording, self time and the layer wrappers."""

import numpy as np
import pytest

from layers import traced_layers
from spans import NO_PARENT, Tracer, self_times
from spdc import core, datamat, sampling, variants


def _table(rows):
    """rows: (parent, start, end, overhead)."""
    cols = np.array(rows, dtype=np.float64)
    return {"name": np.zeros(len(rows), dtype=np.int32),
            "solve": np.zeros(len(rows), dtype=np.int32),
            "parent": cols[:, 0].astype(np.int64),
            "start": cols[:, 1], "end": cols[:, 2], "overhead": cols[:, 3]}


def test_self_time_subtracts_direct_children_only():
    table = _table([
        (NO_PARENT, 0.0, 10.0, 0.0),  # root
        (0, 1.0, 3.0, 0.0),           # child A
        (0, 4.0, 8.0, 0.0),           # child B
        (2, 5.0, 6.0, 0.0),           # grandchild under B
    ])
    np.testing.assert_allclose(self_times(table), [4.0, 2.0, 3.0, 1.0])


def test_self_time_excludes_child_bookkeeping_from_parent():
    table = _table([
        (NO_PARENT, 0.0, 10.0, 0.0),
        (0, 1.0, 3.0, 0.5),
    ])
    np.testing.assert_allclose(self_times(table), [7.5, 2.0])


def test_recorded_spans_nest_and_partition_the_root():
    tr = Tracer()
    tr.solve = 3
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(1000))
        with tr.span("inner"):
            with tr.span("leaf"):
                sum(range(1000))
    table = tr.table()
    assert [tr.names[i] for i in table["name"]] == ["outer", "inner", "inner", "leaf"]
    assert list(table["parent"]) == [NO_PARENT, 0, 0, 2]
    assert set(table["solve"]) == {3}
    own = self_times(table)
    assert np.all(own >= 0)
    root = table["end"][0] - table["start"][0]
    assert own.sum() + table["overhead"][1:].sum() == pytest.approx(root, rel=1e-9)


def test_closing_out_of_order_is_an_error():
    tr = Tracer()
    outer = tr.open(tr.name_id("outer"))
    tr.open(tr.name_id("inner"))
    with pytest.raises(RuntimeError):
        tr.close(outer, tr.now())


def test_traced_layers_restores_every_function():
    before = {(m, k): v for m in (core, datamat, sampling, variants)
              for k, v in vars(m).items() if callable(v)}
    copy_before = core.SolverState.copy
    with traced_layers(Tracer()):
        assert core._dual_pass is not before[core, "_dual_pass"]
        assert core.SolverState.copy is not copy_before
    after = {(m, k): v for m in (core, datamat, sampling, variants)
             for k, v in vars(m).items() if callable(v)}
    assert after == before
    assert core.SolverState.copy is copy_before
