"""JSON serialization of channels, states, dilations, and reports.

All files are UTF-8 JSON with ``format_version: 1``, from one encoder,
``_jsonable``: complex matrices become nested lists of ``[re, im]`` pairs,
NumPy scalars Python numbers, and floats their shortest round-trip text, so
re-reading is bit-exact. ``save_json`` writes a file only once it is encoded.
Each loader reads only its writers' ``kind``; a mislabelled file is
malformed. Validation of loaded objects uses a looser tolerance (1e-8) than
internal construction, to absorb decimal round-trips of files produced
elsewhere.
"""

from __future__ import annotations

import dataclasses
import json
from numbers import Real

import numpy as np

from .channels import Channel, ChoiMatrix, KrausSet
from .dilation import Dilation
from .linalg import _is_integer
from .states import validate_density_matrix
from .tolerances import FILE

FORMAT_VERSION = 1


def matrix_to_pairs(m) -> list:
    """Encode a complex matrix as nested lists of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_pairs(obj) -> np.ndarray:
    """Decode a matrix written by :func:`matrix_to_pairs`. Entries must be
    real numbers within float range; booleans, a ``Real`` subclass, are
    rejected.

    Raises:
        ValueError: "malformed matrix" on any structural problem.
    """
    if not isinstance(obj, list) or not obj:
        raise ValueError("malformed matrix")
    rows = []
    width = None
    for row in obj:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ValueError("malformed matrix")
        width = len(row)
        entries = []
        for pair in row:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(
                    isinstance(x, Real) and not isinstance(x, bool) for x in pair
                )
            ):
                raise ValueError("malformed matrix")
            try:
                entries.append(complex(pair[0], pair[1]))
            except OverflowError as exc:  # an integer too large for a float
                raise ValueError("malformed matrix") from exc
        rows.append(entries)
    if width == 0:
        raise ValueError("malformed matrix")
    return np.array(rows, dtype=complex)


def _check_header(data: dict, *kinds: str) -> str:
    """The file's ``kind``, after checking its version and that the kind
    is one of ``kinds``, its writers' ("malformed file" if not)."""
    if not isinstance(data, dict):
        raise ValueError("malformed file")
    version = data.get("format_version")
    # 1.0 == 1 and true == 1, so the type is checked first.
    if not _is_integer(version) or version != FORMAT_VERSION:
        raise ValueError("unsupported format version")
    kind = data.get("kind")
    if kind not in kinds:
        raise ValueError("malformed file")
    return kind


def _dimension(data: dict, key: str) -> int:
    """An integer dimension field; booleans are not integers here.

    Raises:
        ValueError: "malformed file" if the field is missing or not an int.
    """
    value = data.get(key)
    if not _is_integer(value):
        raise ValueError("malformed file")
    return value


def _jsonable(value):
    """Encode a file or report field: dataclasses become dicts in field
    order without their None fields, tuples lists, real arrays nested
    lists, complex arrays [re, im] pairs, and NumPy scalars ``.item()``."""
    if dataclasses.is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        return {name: _jsonable(v) for name, v in items if v is not None}
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return matrix_to_pairs(value) if np.iscomplexobj(value) else value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _envelope(kind: str, **fields) -> dict:
    """The header every written file and report starts with, then
    ``fields`` in the order given, each encoded by ``_jsonable``."""
    body = {name: _jsonable(value) for name, value in fields.items()}
    return {"format_version": FORMAT_VERSION, "kind": kind, **body}


def channel_to_dict(ch: Channel) -> dict:
    """ChannelFile payload: the Kraus representation."""
    return _envelope("channel", d_in=ch.d_in, d_out=ch.d_out, kraus=ch.kraus.operators)


def choi_to_dict(ch: Channel) -> dict:
    """ChannelFile payload: the Choi representation."""
    return _envelope("choi", d_in=ch.d_in, d_out=ch.d_out, choi=ch.choi.matrix)


def channel_from_dict(data: dict) -> Channel:
    """Load a channel from either representation, validating at file
    tolerance: ``kraus`` of a "channel" file, ``choi`` of a "choi" file.

    Raises:
        ValueError: "unsupported format version", "malformed file" (a
            ``kind`` other than those two included), "malformed matrix",
            or a validation message from the representation constructors.
    """
    kind = _check_header(data, "channel", "choi")
    d_in, d_out = _dimension(data, "d_in"), _dimension(data, "d_out")
    if kind == "channel":
        ops = data.get("kraus")
        if not isinstance(ops, list) or not ops:
            raise ValueError("malformed file")
        operators = tuple(matrix_from_pairs(op) for op in ops)
        if any(op.shape != (d_out, d_in) for op in operators):
            raise ValueError("shape mismatch")
        return Channel(KrausSet(operators, atol=FILE))
    if "choi" not in data:
        raise ValueError("malformed file")
    matrix = matrix_from_pairs(data["choi"])
    return Channel.from_choi(ChoiMatrix(d_in, d_out, matrix, atol=FILE))


def state_to_dict(rho) -> dict:
    return _envelope("state", dim=len(rho), matrix=np.asarray(rho, dtype=complex))


def state_from_dict(data: dict) -> np.ndarray:
    _check_header(data, "state")
    matrix = matrix_from_pairs(data.get("matrix"))
    dim = _dimension(data, "dim")
    if matrix.shape != (dim, dim):
        raise ValueError("shape mismatch")
    return validate_density_matrix(matrix, atol=FILE)


def dilation_to_dict(d: Dilation) -> dict:
    return _envelope(
        "dilation", d_in=d.d_in, d_fin=d.d_fin, d_env=d.d_env,
        unitary=d.unitary, env_state=d.env_state,
    )


def dilation_from_dict(data: dict) -> Dilation:
    _check_header(data, "dilation")
    return Dilation(
        d_in=_dimension(data, "d_in"),
        d_fin=_dimension(data, "d_fin"),
        d_env=_dimension(data, "d_env"),
        unitary=matrix_from_pairs(data.get("unitary")),
        env_state=matrix_from_pairs(data.get("env_state")),
        atol=FILE,
    )


def save_json(data: dict, path: str) -> None:
    text = json.dumps(data, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError as exc:  # nesting deeper than the parser allows
            raise ValueError("malformed file") from exc
    if not isinstance(data, dict):
        raise ValueError("malformed file")
    return data
