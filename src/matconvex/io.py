"""JSON file formats.

One matrix schema is shared by every command:

    {"dim": n, "dims": [d1, d2, ...] (optional), "entries": [[[re, im], ...]]}

`entries` is an n x n array of [re, im] pairs.  States add a mandatory `dims`
factorization.  Tuples of matrices are a plain JSON list of matrix documents.
Representation files and the versioned report schema are documented next to
their readers below.  Readers are strict: unknown fields are rejected so that
typos fail loudly instead of being silently ignored, and nothing is coerced:
a size (``dim``, ``dims``) is a JSON integer and every other number a JSON
number, so a bool, a string or a fractional size raises TypeError.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable

import numpy as np

from .entropy import DensityOperator
from .errors import ValidationError
from .jointconcavity import KuboAndoRepresentation
from .linalg import SpectrumWindow, hermitian
from .resolvent import PickRepresentation

SCHEMA_VERSION = 1


def _require_keys(doc: dict, required: set[str], optional: set[str], what: str):
    if not isinstance(doc, dict):
        raise ValidationError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    missing = required - doc.keys()
    if missing:
        raise ValidationError(f"{what}: missing fields {sorted(missing)}")
    unknown = doc.keys() - required - optional
    if unknown:
        raise ValidationError(f"{what}: unknown fields {sorted(unknown)}")


def _num(value: Any, size: bool = False):
    """A JSON number as a float, or, for a ``size``, a JSON integer as an int."""
    if isinstance(value, bool) or not isinstance(value, int if size else (int, float)):
        raise TypeError(f"expected a JSON {'integer' if size else 'number'}, got {value!r}")
    return int(value) if size else float(value)


# ---------------------------------------------------------------------------
# Matrices and states.


def matrix_to_dict(mat: np.ndarray, dims: tuple[int, ...] | None = None) -> dict:
    mat = np.asarray(mat, dtype=complex)
    doc: dict[str, Any] = {
        "dim": mat.shape[0],
        "entries": [[[z.real, z.imag] for z in row] for row in mat],
    }
    if dims is not None:
        doc["dims"] = list(dims)
    return doc


def matrix_from_dict(doc: dict) -> tuple[np.ndarray, tuple[int, ...] | None]:
    _require_keys(doc, {"dim", "entries"}, {"dims"}, "matrix")
    n = _num(doc["dim"], size=True)
    entries = doc["entries"]
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValidationError(f"matrix: entries are not a {n}x{n} array")
    try:
        mat = np.array(
            [[complex(_num(re), _num(im)) for re, im in row] for row in entries], dtype=complex
        )
    except ValueError as err:
        raise ValidationError(f"matrix: malformed [re, im] pair ({err})") from err
    dims = None
    if "dims" in doc:
        dims = tuple(_num(d, size=True) for d in doc["dims"])
        if int(np.prod(dims)) != n:
            raise ValidationError(f"matrix: dims {dims} do not multiply to dim {n}")
    return mat, dims


def density_to_dict(rho: DensityOperator) -> dict:
    return matrix_to_dict(rho.matrix, rho.dims)


def density_from_dict(doc: dict) -> DensityOperator:
    mat, dims = matrix_from_dict(doc)
    if dims is None:
        raise ValidationError("state: the dims factorization field is mandatory")
    return DensityOperator(mat, dims)


def tuple_to_list(mats: list[np.ndarray]) -> list[dict]:
    return [matrix_to_dict(m) for m in mats]


def tuple_from_list(docs: list) -> list[np.ndarray]:
    if not isinstance(docs, list) or not docs:
        raise ValidationError("tuple: expected a nonempty JSON list of matrices")
    return [hermitian(matrix_from_dict(d)[0]) for d in docs]


# ---------------------------------------------------------------------------
# Windows and representations.


def window_to_dict(w: SpectrumWindow) -> dict:
    return {
        "a": None if math.isinf(w.a) else w.a,
        "b": None if math.isinf(w.b) else w.b,
    }


def window_from_dict(doc: dict) -> SpectrumWindow:
    _require_keys(doc, {"a", "b"}, set(), "window")
    a = -math.inf if doc["a"] is None else _num(doc["a"])
    b = math.inf if doc["b"] is None else _num(doc["b"])
    return SpectrumWindow(a, b)


def _atoms_from_list(docs, keys: tuple[str, str], what: str) -> tuple:
    """The atoms of a representation file: JSON objects with exactly ``keys``."""
    atoms = []
    for atom in docs:
        _require_keys(atom, set(keys), set(), what)
        atoms.append(tuple(_num(atom[key]) for key in keys))
    return tuple(atoms)


def _built(build: Callable[[], Any], what: str):
    """``build()``, a ValueError re-raised as a ValidationError prefixed ``what``."""
    try:
        return build()
    except ValueError as err:
        raise ValidationError(f"{what}: {err}") from err


def pick_to_dict(rep: PickRepresentation) -> dict:
    return {"alpha": rep.alpha, "beta": rep.beta, "gamma": rep.gamma, "c": rep.c,
            "window": window_to_dict(rep.window),
            "atoms": [dict(zip(("u", "w"), atom)) for atom in rep.atoms]}


def pick_from_dict(doc: dict) -> PickRepresentation:
    _require_keys(doc, {"alpha", "beta", "gamma", "c", "window", "atoms"}, set(), "representation")
    atoms = _atoms_from_list(doc["atoms"], ("u", "w"), "representation atom")
    return _built(lambda: PickRepresentation(
        *(_num(doc[key]) for key in ("alpha", "beta", "gamma", "c")),
        window_from_dict(doc["window"]), atoms), "representation")


def kubo_ando_to_dict(rep: KuboAndoRepresentation) -> dict:
    return {"a": rep.a, "b": rep.b, "atoms": [dict(zip(("t", "nu"), atom)) for atom in rep.atoms]}


def kubo_ando_from_dict(doc: dict) -> KuboAndoRepresentation:
    _require_keys(doc, {"a", "b", "atoms"}, set(), "mean representation")
    atoms = _atoms_from_list(doc["atoms"], ("t", "nu"), "mean atom")
    return _built(lambda: KuboAndoRepresentation(_num(doc["a"]), _num(doc["b"]), atoms),
                  "mean representation")


# ---------------------------------------------------------------------------
# Reports.

_REPORT_FIELDS = {"schema_version", "command", "config", "checks", "overall_status"}
_CHECK_REQUIRED = {"name", "status", "margin", "timing"}
_CHECK_OPTIONAL = {"witness", "detail"}


def serialize_witness(witness: dict | None) -> dict | None:
    """Inline witness payload: a numpy matrix becomes a matrix document, a 1-D
    array (weights, sites) a list of floats, and a list of matrices (a Jensen
    witness's atoms) a list of matrix documents."""
    if witness is None:
        return None
    return {key: _jsonable(val) for key, val in witness.items()}


def witness_from_dict(witness: dict) -> dict:
    """A witness as :func:`serialize_witness` wrote it, with each matrix
    document (a lone one, or a Jensen witness's list of them) read back by
    :func:`matrix_from_dict`, bit for bit; every other value, an in-memory
    matrix included, is kept as it is."""
    return {key: _matrices(val) for key, val in witness.items()}


def _matrices(val):
    if isinstance(val, dict):
        return matrix_from_dict(val)[0]
    if isinstance(val, list) and val and all(isinstance(v, dict) for v in val):
        return [matrix_from_dict(v)[0] for v in val]
    return val


def _jsonable(val):
    if isinstance(val, np.ndarray):
        return matrix_to_dict(val) if val.ndim == 2 else [float(x) for x in val]
    if isinstance(val, (list, tuple)) and val and isinstance(val[0], np.ndarray):
        return [_jsonable(v) for v in val]
    if isinstance(val, (np.floating, np.integer)):
        return val.item()
    return val


def check_record(
    name: str, margin: float, detail: dict, witness: dict | None = None,
    status: str | None = None,
) -> dict:
    """One check record of a report, with ``timing`` left for the caller to set.

    ``status`` defaults to "pass" when ``margin >= 0`` and "fail" otherwise,
    so a NaN margin fails; verdict records pass the verdict's own status.
    """
    rec = {
        "name": name,
        "status": status or ("pass" if margin >= 0.0 else "fail"),
        "margin": float(margin),
        "detail": detail,
        "timing": 0.0,
    }
    if witness is not None:
        rec["witness"] = serialize_witness(witness)
    return rec


#: op -> the NaN-propagating worst case of the values bounded that way
_WORST = {"<=": np.max, ">=": np.min}


def bound_record(name: str, bounds: dict, **extra) -> dict:
    """The check record of one-sided bounds: ``bounds`` maps each detail key
    to ``(values, op, bound)``, op ``"<="`` or ``">="``.  The detail holds each
    key's worst value (NaN if any value is NaN), then ``extra``; the margin is
    the least distance to a bound, ``bound - worst`` or ``worst - bound``, so
    the record passes iff every bound holds.  Raises ValueError on an unknown
    op or a non-finite bound, which would pass or fail any values."""
    detail, terms = {}, []
    for key, (values, op, bound) in bounds.items():
        if op not in _WORST or not math.isfinite(bound):
            raise ValueError(f"{name}: {key} {op} {bound} is not a finite <= or >= bound")
        detail[key] = worst = float(_WORST[op](values))
        terms.append(bound - worst if op == "<=" else worst - bound)
    return check_record(name, np.min(terms), {**detail, **extra})


def report_to_dict(
    command: str, config: dict, checks: list[dict], overall_status: str
) -> dict:
    for check in checks:
        _require_keys(check, _CHECK_REQUIRED, _CHECK_OPTIONAL, "check record")
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "checks": checks,
        "overall_status": overall_status,
    }


def report_from_dict(doc: dict) -> dict:
    _require_keys(doc, _REPORT_FIELDS, set(), "report")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"report: schema_version {doc['schema_version']} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    for check in doc["checks"]:
        _require_keys(check, _CHECK_REQUIRED, _CHECK_OPTIONAL, "check record")
    return doc


# ---------------------------------------------------------------------------
# File helpers.


def load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}: invalid JSON at line {err.lineno}, "
                              f"column {err.colno}: {err.msg}") from err
    except OSError as err:
        raise ValidationError(f"{path}: {err.strerror}") from err


def save_json(path: str, doc: Any):
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as err:
        raise ValidationError(f"{path}: {err.strerror}") from err


def load(path: str, reader: Callable[[Any], Any]) -> Any:
    """``reader`` (``density_from_dict``, ``pick_from_dict``, ...) applied to the
    JSON document at ``path``.  A field of the wrong JSON type (a TypeError or
    OverflowError in the reader) is a ValidationError naming the file."""
    doc = load_json(path)
    try:
        return reader(doc)
    except (TypeError, OverflowError) as err:
        raise ValidationError(f"{path}: {err}") from err
