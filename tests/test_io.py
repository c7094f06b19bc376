import json
import math
import re

import numpy as np
import pytest

from matconvex.convexity import builtin, jensen_test
from matconvex.entropy import bell_state
from matconvex.errors import HermiticityError, ValidationError
from matconvex.io import (
    bound_record,
    density_from_dict,
    density_to_dict,
    kubo_ando_from_dict,
    kubo_ando_to_dict,
    load_json,
    matrix_from_dict,
    matrix_to_dict,
    pick_from_dict,
    pick_to_dict,
    report_from_dict,
    report_to_dict,
    save_json,
    serialize_witness,
    tuple_from_list,
    tuple_to_list,
    window_from_dict,
    window_to_dict,
)
from matconvex.jointconcavity import KuboAndoRepresentation
from matconvex.linalg import SpectrumWindow
from matconvex.rand import RandomSpec
from matconvex.resolvent import PickRepresentation


def test_matrix_roundtrip_complex():
    mat = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 2.0]])
    back, dims = matrix_from_dict(matrix_to_dict(mat))
    np.testing.assert_array_equal(back, mat)
    assert dims is None


def test_matrix_dict_strictness():
    doc = matrix_to_dict(np.eye(2))
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="unknown fields"):
        matrix_from_dict(doc)
    with pytest.raises(ValidationError, match="missing fields"):
        matrix_from_dict({"dim": 2})
    bad = matrix_to_dict(np.eye(2))
    bad["entries"] = [[[1, 0]]]
    with pytest.raises(ValidationError, match="2x2"):
        matrix_from_dict(bad)


def test_matrix_dims_consistency():
    doc = matrix_to_dict(np.eye(4), dims=(2, 3))
    with pytest.raises(ValidationError, match="multiply"):
        matrix_from_dict(doc)


def test_density_roundtrip_and_mandatory_dims():
    bell = bell_state()
    back = density_from_dict(density_to_dict(bell))
    np.testing.assert_allclose(back.matrix, bell.matrix, atol=1e-15)
    assert back.dims == (2, 2)
    with pytest.raises(ValidationError, match="dims"):
        density_from_dict(matrix_to_dict(np.eye(4) / 4.0))


def test_density_with_nan_entry_is_rejected():
    for n in (2, 4):
        mat = np.eye(n) / n
        mat[0, 0] = math.nan
        with pytest.raises(HermiticityError, match="non-finite"):
            density_from_dict(matrix_to_dict(mat, (n,)))


def test_tuple_roundtrip():
    mats = [np.eye(2), 2.0 * np.eye(2)]
    back = tuple_from_list(tuple_to_list(mats))
    for a, b in zip(mats, back):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValidationError):
        tuple_from_list([])


def test_window_roundtrip_with_infinities():
    w = SpectrumWindow(0.0, math.inf)
    back = window_from_dict(window_to_dict(w))
    assert back == w
    assert window_to_dict(w)["b"] is None


def test_pick_roundtrip_and_validation():
    rep = PickRepresentation(
        0.5, -0.2, 0.3, 1.0, SpectrumWindow(0.1, 5.0),
        atoms=((-1.0, 0.4), (7.0, 0.2)),
    )
    assert pick_from_dict(pick_to_dict(rep)) == rep
    bad = pick_to_dict(rep)
    bad["gamma"] = -1.0
    with pytest.raises(ValidationError, match="gamma"):
        pick_from_dict(bad)
    extra = pick_to_dict(rep)
    extra["atoms"][0]["q"] = 1
    with pytest.raises(ValidationError, match="unknown"):
        pick_from_dict(extra)


def test_kubo_ando_roundtrip():
    rep = KuboAndoRepresentation(0.3, 0.2, atoms=((1.0, 0.5),))
    assert kubo_ando_from_dict(kubo_ando_to_dict(rep)) == rep
    bad = kubo_ando_to_dict(rep)
    bad["atoms"][0]["t"] = -1.0
    with pytest.raises(ValidationError):
        kubo_ando_from_dict(bad)


# ---------------------------------------------------------------------------
# The representation codec: one atoms reader, one atoms writer and one
# construction guard serve Pick representations and Kubo-Ando means.

#: the representations and means that the other test modules build, and 16 atoms
PICKS = [
    PickRepresentation(0.5, -0.2, 0.3, 1.0, SpectrumWindow(0.1, 5.0), ((-1.0, 0.4), (7.0, 0.2))),
    PickRepresentation(0.5, 0.1, 0.3, 1.0, SpectrumWindow(0.1, 5.0), ((-1.0, 0.4), (7.0, 0.2))),
    PickRepresentation(0.5, -0.2, 0.3, 1.0, SpectrumWindow(0.1, 5.0), ((-1.0, 0.4), (7.0, 0.25))),
    PickRepresentation(0.5, 1.0, 0.25, 1.0, SpectrumWindow(0.1, 2.0), ((-1.0, 0.5), (7.0, 2.0))),
    PickRepresentation(0.0, 0.0, 0.0, 1.0, SpectrumWindow(0.1, 5.0)),
    PickRepresentation(0.0, 0.0, 1.5, 1.0, SpectrumWindow(0.1, 5.0)),
    PickRepresentation(0.0, 1.0, 0.0, 1.0, SpectrumWindow(0.0, math.inf)),
    PickRepresentation(0.5, -0.2, 0.3, 1.0, SpectrumWindow(0.1, 5.0), tuple(
        (-1.0 - 0.1 * j if j % 2 else 6.0 + 0.1 * j, 0.1 + 0.01 * j) for j in range(16))),
]
MEANS = [
    KuboAndoRepresentation(0.3, 0.2, ((1.0, 0.5),)),
    KuboAndoRepresentation(0.3, 0.2),
    KuboAndoRepresentation(0.2, 0.1, ((0.5, 0.3), (2.0, 0.7))),
    KuboAndoRepresentation(0.1, 0.2, ((1.0, 0.5),)),
    KuboAndoRepresentation(0.3, 0.2, ((1.0, 0.5), (4.0, 0.25))),
    KuboAndoRepresentation(0.5, 0.5),
    KuboAndoRepresentation(0.0, 0.0, ((1.0, 1.0),)),
]


@pytest.mark.parametrize("rep", PICKS)
def test_a_representation_survives_the_round_trip_through_a_file(rep):
    assert pick_from_dict(pick_to_dict(rep)) == rep
    assert pick_from_dict(json.loads(json.dumps(pick_to_dict(rep)))) == rep


@pytest.mark.parametrize("mean", MEANS)
def test_a_mean_survives_the_round_trip_through_a_file(mean):
    assert kubo_ando_from_dict(kubo_ando_to_dict(mean)) == mean
    assert kubo_ando_from_dict(json.loads(json.dumps(kubo_ando_to_dict(mean)))) == mean


def test_the_writers_emit_each_field_in_schema_order():
    assert json.dumps(pick_to_dict(PICKS[0])) == (
        '{"alpha": 0.5, "beta": -0.2, "gamma": 0.3, "c": 1.0, "window": {"a": 0.1, "b": 5.0}, '
        '"atoms": [{"u": -1.0, "w": 0.4}, {"u": 7.0, "w": 0.2}]}')
    assert json.dumps(pick_to_dict(PICKS[6])["window"]) == '{"a": 0.0, "b": null}'
    assert json.dumps(kubo_ando_to_dict(MEANS[2])) == (
        '{"a": 0.2, "b": 0.1, "atoms": [{"t": 0.5, "nu": 0.3}, {"t": 2.0, "nu": 0.7}]}')


def _edited(doc: dict, path: tuple, value) -> dict:
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``, or
    removed when ``value`` is ``_DROP``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    owner = doc
    for key in parents:
        owner = owner[key]
    if value is _DROP:
        del owner[last]
    else:
        owner[last] = value
    return doc


_DROP = object()

#: (path, value, error type, full message) of one bad field in a PICKS[0] file
PICK_ERRORS = [
    (("extra",), 1, ValidationError, "representation: unknown fields ['extra']"),
    (("c",), _DROP, ValidationError, "representation: missing fields ['c']"),
    (("window",), {"a": 5.0, "b": 0.1}, ValidationError,
     "representation: window requires a < b, got (5.0, 0.1)"),
    (("window", "b"), _DROP, ValidationError, "representation: window: missing fields ['b']"),
    (("window",), 3, ValidationError, "representation: window: expected a JSON object, got int"),
    (("window", "b"), "5", TypeError, "expected a JSON number, got '5'"),
    (("gamma",), -1.0, ValidationError, "representation: gamma must be nonnegative, got -1.0"),
    (("c",), 9.0, ValidationError, "representation: center c=9.0 must lie inside the window"),
    (("atoms", 0, "w"), 0.0, ValidationError,
     "representation: atom weight must be positive, got 0.0"),
    (("atoms", 0, "u"), 2.0, ValidationError,
     "representation: atom location u=2.0 lies inside the window"),
    (("alpha",), math.nan, ValidationError, "representation: alpha must be finite, got nan"),
    (("atoms", 1, "u"), math.nan, ValidationError, "representation: u must be finite, got nan"),
    (("alpha",), "0.5", TypeError, "expected a JSON number, got '0.5'"),
    (("gamma",), True, TypeError, "expected a JSON number, got True"),
    (("atoms", 0, "u"), "1", TypeError, "expected a JSON number, got '1'"),
    (("atoms", 0, "q"), 1, ValidationError, "representation atom: unknown fields ['q']"),
    (("atoms", 1, "w"), _DROP, ValidationError, "representation atom: missing fields ['w']"),
    (("atoms",), {"u": 1.0, "w": 1.0}, ValidationError,
     "representation atom: expected a JSON object, got str"),
    (("atoms",), [3], ValidationError, "representation atom: expected a JSON object, got int"),
    (("atoms",), 5, TypeError, "'int' object is not iterable"),
]

#: the same for a MEANS[0] file
MEAN_ERRORS = [
    (("extra",), 1, ValidationError, "mean representation: unknown fields ['extra']"),
    (("b",), _DROP, ValidationError, "mean representation: missing fields ['b']"),
    (("atoms", 0, "t"), 0.0, ValidationError,
     "mean representation: atom location must be positive, got t=0.0"),
    (("atoms", 0, "nu"), 0.0, ValidationError,
     "mean representation: atom weight must be positive, got nu=0.0"),
    (("a",), math.nan, ValidationError, "mean representation: a must be finite, got nan"),
    (("atoms", 0, "nu"), math.inf, ValidationError,
     "mean representation: nu must be finite, got inf"),
    (("b",), "x", TypeError, "expected a JSON number, got 'x'"),
    (("atoms", 0, "t"), "1", TypeError, "expected a JSON number, got '1'"),
    (("atoms", 0, "q"), 1, ValidationError, "mean atom: unknown fields ['q']"),
    (("atoms", 0, "t"), _DROP, ValidationError, "mean atom: missing fields ['t']"),
    (("atoms",), {"t": 1.0, "nu": 1.0}, ValidationError,
     "mean atom: expected a JSON object, got str"),
    (("atoms",), 5, TypeError, "'int' object is not iterable"),
]


@pytest.mark.parametrize("path, value, error, message", PICK_ERRORS,
                         ids=[m for *_, m in PICK_ERRORS])
def test_a_bad_representation_field_gives_its_full_message(path, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        pick_from_dict(_edited(pick_to_dict(PICKS[0]), path, value))
    assert type(caught.value) is error


@pytest.mark.parametrize("path, value, error, message", MEAN_ERRORS,
                         ids=[m for *_, m in MEAN_ERRORS])
def test_a_bad_mean_field_gives_its_full_message(path, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        kubo_ando_from_dict(_edited(kubo_ando_to_dict(MEANS[0]), path, value))
    assert type(caught.value) is error


def test_the_readers_refuse_a_document_that_is_not_an_object():
    with pytest.raises(ValidationError, match=r"^representation: expected a JSON object, got int$"):
        pick_from_dict(3)
    with pytest.raises(ValidationError,
                       match=r"^mean representation: expected a JSON object, got list$"):
        kubo_ando_from_dict([])


def test_the_atoms_are_read_before_the_scalar_fields():
    doc = _edited(_edited(pick_to_dict(PICKS[0]), ("alpha",), "0.5"), ("atoms", 1, "q"), 1)
    with pytest.raises(ValidationError, match=r"^representation atom: unknown fields \['q'\]$"):
        pick_from_dict(doc)
    doc = _edited(_edited(kubo_ando_to_dict(MEANS[0]), ("a",), math.nan), ("atoms", 0, "t"), "1")
    with pytest.raises(TypeError, match="^expected a JSON number, got '1'$"):
        kubo_ando_from_dict(doc)


def test_report_schema_strict():
    checks = [{"name": "x", "status": "pass", "margin": 0.5, "timing": 0.1}]
    doc = report_to_dict("run-suite", {"seed": 1}, checks, "pass")
    assert report_from_dict(doc) == doc
    doc2 = dict(doc)
    doc2["surprise"] = True
    with pytest.raises(ValidationError, match="unknown fields"):
        report_from_dict(doc2)
    doc3 = dict(doc)
    doc3["schema_version"] = 99
    with pytest.raises(ValidationError, match="schema_version"):
        report_from_dict(doc3)


@pytest.mark.parametrize("values", [2.5, [0.5, 2.5, 1.0], np.array([[0.5], [2.5]])],
                         ids=["scalar", "list", "array"])
def test_bound_record_takes_the_worst_value_against_each_op(values):
    upper = bound_record("x", {"top": (values, "<=", 3.0)}, tolerance=3.0)
    assert (upper["status"], upper["margin"], upper["detail"]) == (
        "pass", 0.5, {"top": 2.5, "tolerance": 3.0})
    lower = bound_record("x", {"low": (values, ">=", 3.0)})
    assert (lower["status"], lower["detail"]["low"]) == ("fail", float(np.min(values)))
    assert lower["margin"] == float(np.min(values)) - 3.0


def test_bound_record_margin_is_the_least_distance_to_a_bound():
    rec = bound_record("x", {"a": ([0.2, 0.7], "<=", 1.0), "b": ([0.4, 0.9], ">=", 0.3)},
                       trials=2)
    assert rec["margin"] == min(1.0 - 0.7, 0.4 - 0.3)
    assert rec["detail"] == {"a": 0.7, "b": 0.4, "trials": 2}
    assert "witness" not in rec
    # a bound at the worst value passes with margin 0
    assert bound_record("x", {"a": ([0.2, 1.0], "<=", 1.0)})["status"] == "pass"


@pytest.mark.parametrize("op", ["<=", ">="])
def test_bound_record_fails_on_a_nan_row(op):
    rec = bound_record("x", {"ok": ([0.0], "<=", 1.0), "v": ([0.1, math.nan, 0.2], op, 0.0)})
    assert rec["status"] == "fail"
    assert math.isnan(rec["margin"]) and math.isnan(rec["detail"]["v"])


def test_bound_record_reproduces_the_hand_written_margins_bit_for_bit():
    rng = np.random.default_rng(16)
    for _ in range(200):
        slacks, devs = rng.normal(size=7) * 1e-9, np.abs(rng.normal(size=7)) * 1e-10
        worst_slack, worst_dev = float(np.min(slacks)), float(np.max(devs))
        rec = bound_record("x", {"s": (slacks, ">=", -1e-9), "d": (devs, "<=", 1e-10)})
        assert rec["margin"] == float(np.min([worst_slack + 1e-9, 1e-10 - worst_dev]))
        top = float(np.max(slacks))  # the parallel-sum battery wrote -top + 1e-8
        assert bound_record("x", {"e": (slacks, "<=", 1e-8)})["margin"] == -top + 1e-8


@pytest.mark.parametrize("bound", [math.inf, -math.inf, math.nan])
def test_bound_record_refuses_a_non_finite_bound(bound):
    with pytest.raises(ValueError, match="not a finite"):
        bound_record("x", {"v": ([0.0], ">=", bound)})


def test_bound_record_refuses_an_unknown_op():
    with pytest.raises(ValueError, match="not a finite <= or >= bound"):
        bound_record("x", {"v": ([0.0], "<", 1.0)})


def test_serialize_witness_handles_arrays():
    witness = {
        "kind": "definition",
        "A0": np.eye(2),
        "sites": np.array([0.1, 0.9]),
        "matrices": [np.eye(2), np.eye(2)],
        "margin": np.float64(-0.5),
        "lam": 0.3,
    }
    out = serialize_witness(witness)
    assert out["A0"]["dim"] == 2
    assert out["sites"] == [0.1, 0.9]
    assert isinstance(out["margin"], float)
    assert len(out["matrices"]) == 2
    assert serialize_witness(None) is None


def test_serialize_witness_handles_a_list_of_matrices():
    v = jensen_test(builtin("x4"), SpectrumWindow(0.1, 2.0), 2, 3, 500, RandomSpec(2024))
    assert v.status == "violated"
    out = json.loads(json.dumps(serialize_witness(v.witness)))
    assert out["matrices"] == [matrix_to_dict(m) for m in v.witness["matrices"]]
    assert out["weights"] == [float(w) for w in v.witness["weights"]]


def test_load_json_error_reporting(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="line 1"):
        load_json(str(path))
    good = tmp_path / "ok.json"
    save_json(str(good), {"a": 1})
    assert load_json(str(good)) == {"a": 1}
    with pytest.raises(ValidationError):
        load_json(str(tmp_path / "missing.json"))
