"""Dataset loading, validation, and groups."""

import numpy as np
import pytest

from confscreen import (
    Dataset,
    GroupSpec,
    MissingColumnError,
    ParseError,
    ValidationError,
    load_csv,
    load_groups,
    write_csv,
)

SIX_ROWS = "O,E,C\n1,1,1\n0,1,1\n1,0,1\n0,0,0\n1,1,0\n0,0,1\n"


@pytest.fixture
def six_csv(tmp_path):
    path = tmp_path / "six.csv"
    path.write_text(SIX_ROWS)
    return path


def test_load_six_rows(six_csv):
    ds = load_csv(six_csv, "O", "E")
    assert ds.n == 6 and ds.p == 1
    assert ds.column_names == ("C",)
    assert ds.exposure.tolist() == [1, 1, 0, 0, 1, 0]


def test_missing_column(six_csv):
    with pytest.raises(MissingColumnError, match="nope"):
        load_csv(six_csv, "nope", "E")


def test_non_numeric_cell_names_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("O,E,C\n1,1,x\n0,0,2\n")
    with pytest.raises(ParseError, match="row 2.*'C'"):
        load_csv(path, "O", "E")


def test_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("O,E,C\n1,1,1\n0,0\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path, "O", "E")


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_csv(path, "O", "E")


def test_non_binary_exposure(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("O,E,C\n1,2,1\n0,0,2\n")
    with pytest.raises(ValidationError, match="0/1"):
        load_csv(path, "O", "E")


def test_constant_exposure_rejected():
    with pytest.raises(ValidationError, match="constant"):
        Dataset(
            outcome=np.zeros(3),
            exposure=np.ones(3, dtype=int),
            covariates=np.zeros((3, 1)),
            column_names=("c",),
        )


def test_nonfinite_rejected():
    with pytest.raises(ValidationError, match="finite"):
        Dataset(
            outcome=np.array([0.0, np.nan]),
            exposure=np.array([0, 1]),
            covariates=np.zeros((2, 1)),
            column_names=("c",),
        )


def test_duplicate_column_names_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        Dataset(
            outcome=np.zeros(2),
            exposure=np.array([0, 1]),
            covariates=np.zeros((2, 2)),
            column_names=("c", "c"),
        )


def test_bounded_rescale_records_affine(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("O,E,C\n10,1,0.1\n20,0,0.2\n30,1,0.3\n15,0,0.4\n")
    ds = load_csv(path, "O", "E", outcome_kind="bounded")
    assert ds.outcome.min() == 0.0 and ds.outcome.max() == 1.0
    assert ds.outcome_scale == 20.0 and ds.outcome_offset == 10.0
    np.testing.assert_allclose(ds.outcome_original(), [10, 20, 30, 15])


def test_bounded_already_in_unit_interval(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("O,E,C\n0.2,1,1\n0.8,0,2\n")
    ds = load_csv(path, "O", "E", outcome_kind="bounded")
    assert ds.outcome_scale == 1.0 and ds.outcome_offset == 0.0


def test_write_read_roundtrip(tmp_path, six_csv):
    ds = load_csv(six_csv, "O", "E")
    out = tmp_path / "copy.csv"
    write_csv(ds, out, outcome_col="O", exposure_col="E")
    ds2 = load_csv(out, "O", "E")
    np.testing.assert_array_equal(ds.outcome, ds2.outcome)
    np.testing.assert_array_equal(ds.exposure, ds2.exposure)
    np.testing.assert_array_equal(ds.covariates, ds2.covariates)


def test_dataset_arrays_read_only(six_csv):
    ds = load_csv(six_csv, "O", "E")
    with pytest.raises(ValueError):
        ds.outcome[0] = 99.0


def _dataset_pq(p):
    rng = np.random.default_rng(0)
    return Dataset(
        outcome=rng.normal(size=10),
        exposure=np.tile([0, 1], 5),
        covariates=rng.normal(size=(10, p)),
        column_names=tuple(f"c{j}" for j in range(p)),
    )


def test_groups_validate_and_indices(tmp_path):
    ds = _dataset_pq(4)
    path = tmp_path / "g.json"
    path.write_text('{"g1": ["c0", "c2"], "g2": ["c3"]}')
    spec = load_groups(path, ds)
    assert spec.member_indices(ds) == [("g1", (0, 2)), ("g2", (3,))]


def test_groups_unknown_column(tmp_path):
    ds = _dataset_pq(2)
    path = tmp_path / "g.json"
    path.write_text('{"g1": ["zz"]}')
    with pytest.raises(MissingColumnError, match="zz"):
        load_groups(path, ds)


def test_groups_duplicate_membership():
    ds = _dataset_pq(2)
    spec = GroupSpec(groups=(("a", ("c0",)), ("b", ("c0",))))
    with pytest.raises(ValidationError, match="more than one group"):
        spec.validate(ds)


def test_groups_empty_group():
    ds = _dataset_pq(2)
    spec = GroupSpec(groups=(("a", ()),))
    with pytest.raises(ValidationError, match="empty"):
        spec.validate(ds)


def test_groups_bad_json(tmp_path):
    ds = _dataset_pq(2)
    path = tmp_path / "g.json"
    path.write_text("not json")
    with pytest.raises(ParseError):
        load_groups(path, ds)
