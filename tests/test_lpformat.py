import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reluopt import LinearProgram, MilpModel, Relation, write_lp_text

from conftest import read_lp_with_highs

NAMES = ("x0", "x1", "z", "d0")


def _milp(names, rows, lower, upper, objective, binary=(), maximize=True):
    """A MilpModel from dense rows `(coeffs, relation, rhs)` over `names`."""
    lp = LinearProgram.from_rows(rows, lower, upper, objective, maximize)
    return MilpModel(lp, tuple(names), np.isin(names, binary))


def _model():
    return _milp(
        NAMES,
        rows=(
            ([1.0, -2.5, 0.0, 0.0], Relation.LE, 1.0),
            ([0.0, 0.0, 1.0, -4.0], Relation.LE, 0.0),
            ([1.0, 0.0, 1.0, 0.0], Relation.EQ, 0.5),
            ([0.0, 1.0, 0.0, 0.0], Relation.GE, -3.0),
        ),
        lower=[-2.0, -np.inf, 0.0, 0.0],
        upper=[3.0, np.inf, np.inf, 1.0],
        objective=[1.0, 0.0, -0.75, 0.0],
        binary=("d0",),
    )


def test_round_trip():
    model = _model()
    read = read_lp_with_highs(write_lp_text(model), model.names)
    lp = model.lp
    assert read.maximize == lp.maximize
    assert read.cost == pytest.approx(lp.objective)
    assert [n for n, b in zip(read.names, read.integer) if b] == model.binaries()
    assert read.row_names == ["c0", "c1", "c2", "c3"]
    np.testing.assert_array_equal(read.row_lower, lp.row_lower)
    np.testing.assert_array_equal(read.row_upper, lp.row_upper)
    assert read.matrix == pytest.approx(lp.matrix.toarray())
    np.testing.assert_array_equal(read.lower, lp.lower)
    np.testing.assert_array_equal(read.upper, lp.upper)


def test_sections_in_text():
    text = write_lp_text(_model())
    for section in ("Maximize", "Subject To", "Bounds", "Binary", "End"):
        assert section in text
    assert "-infinity <= x1 <= +infinity" in text
    assert " c0: 1 x0 - 2.5 x1 <= 1\n" in text


def test_minimize_direction():
    model = _milp(("a",), rows=(), lower=[0.0], upper=[1.0], objective=[1.0], maximize=False)
    text = write_lp_text(model)
    assert text.startswith("Minimize")
    assert not read_lp_with_highs(text).maximize


def test_feasibility_helper():
    model = _model()
    ok = {"x0": 0.5, "x1": 0.0, "z": 0.0, "d0": 0.0}
    assert model.feasible(np.array([ok[n] for n in NAMES]))
    bad = dict(ok, z=5.0, d0=1.0)  # violates c2
    assert not model.feasible(np.array([bad[n] for n in NAMES]))


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ).filter(lambda v: v == 0.0 or abs(v) > 1e-9),
        min_size=1,
        max_size=5,
    ),
    rhs=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    relation=st.sampled_from(list(Relation)),
)
def test_row_coefficients_survive_round_trip(coeffs, rhs, relation):
    assume(any(c != 0.0 for c in coeffs))  # an all-zero row has no terms to keep
    names = [f"v{i}" for i in range(len(coeffs))]
    objective = np.zeros(len(coeffs))
    objective[0] = 1.0
    free = np.full(len(coeffs), np.inf)
    model = _milp(names, ((coeffs, relation, rhs),), -free, free, objective)
    text = write_lp_text(model)
    read = read_lp_with_highs(text)
    (row,) = model.lp.rows
    assert row.relation is relation
    side = read.row_upper[0] if relation is Relation.LE else read.row_lower[0]
    assert side == pytest.approx(rhs, abs=1e-12)
    if relation is Relation.EQ:
        assert read.row_upper[0] == read.row_lower[0]
    for name, c in zip(names, coeffs):
        if c != 0.0:
            assert read.matrix[0, read.names.index(name)] == pytest.approx(c)
        else:
            assert f" {name} " not in text.split("\n")[3]  # zero terms are dropped on write
