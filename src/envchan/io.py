"""JSON serialization of channels, states, dilations, and reports.

All files are UTF-8 JSON with ``format_version: 1``. Complex matrices are
written as nested lists of ``[re, im]`` pairs; floats use Python's shortest
round-trip representation, so writing and re-reading is bit-exact.
Validation of loaded objects uses a looser tolerance (1e-8) than internal
construction, to absorb decimal round-trips of files produced elsewhere.
"""

from __future__ import annotations

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


def _check_version(data: dict) -> None:
    if not isinstance(data, dict):
        raise ValueError("malformed file")
    version = data.get("format_version")
    # bool is an int subclass: true == 1 would otherwise pass.
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ValueError("unsupported format version")


def _dimension(data: dict, key: str) -> int:
    """An integer dimension field; booleans are not integers here.

    Raises:
        ValueError: "malformed file" if the field is missing or not an int.
    """
    value = data.get(key)
    if not _is_integer(value):
        raise ValueError("malformed file")
    return value


def channel_to_dict(ch: Channel) -> dict:
    """ChannelFile payload: the Kraus representation."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "channel",
        "d_in": ch.d_in,
        "d_out": ch.d_out,
        "kraus": [matrix_to_pairs(op) for op in ch.kraus.operators],
    }


def choi_to_dict(ch: Channel) -> dict:
    """ChannelFile payload: the Choi representation."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "choi",
        "d_in": ch.d_in,
        "d_out": ch.d_out,
        "choi": matrix_to_pairs(ch.choi.matrix),
    }


def channel_from_dict(data: dict) -> Channel:
    """Load a channel from either representation, validating at file
    tolerance.

    Raises:
        ValueError: "unsupported format version", "malformed file",
            "malformed matrix", or a validation message from the
            representation constructors.
    """
    _check_version(data)
    d_in, d_out = _dimension(data, "d_in"), _dimension(data, "d_out")
    if "kraus" in data:
        ops = data["kraus"]
        if not isinstance(ops, list) or not ops:
            raise ValueError("malformed file")
        operators = tuple(matrix_from_pairs(op) for op in ops)
        if any(op.shape != (d_out, d_in) for op in operators):
            raise ValueError("shape mismatch")
        return Channel(KrausSet(operators, atol=FILE))
    if "choi" in data:
        matrix = matrix_from_pairs(data["choi"])
        return Channel.from_choi(ChoiMatrix(d_in, d_out, matrix, atol=FILE))
    raise ValueError("malformed file")


def state_to_dict(rho) -> dict:
    rho = np.asarray(rho, dtype=complex)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "state",
        "dim": rho.shape[0],
        "matrix": matrix_to_pairs(rho),
    }


def state_from_dict(data: dict) -> np.ndarray:
    _check_version(data)
    matrix = matrix_from_pairs(data.get("matrix"))
    dim = _dimension(data, "dim")
    if matrix.shape != (dim, dim):
        raise ValueError("shape mismatch")
    return validate_density_matrix(matrix, atol=FILE)


def dilation_to_dict(d: Dilation) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "dilation",
        "d_in": d.d_in,
        "d_fin": d.d_fin,
        "d_env": d.d_env,
        "unitary": matrix_to_pairs(d.unitary),
        "env_state": matrix_to_pairs(d.env_state),
    }


def dilation_from_dict(data: dict) -> Dilation:
    _check_version(data)
    return Dilation(
        d_in=_dimension(data, "d_in"),
        d_fin=_dimension(data, "d_fin"),
        d_env=_dimension(data, "d_env"),
        unitary=matrix_from_pairs(data.get("unitary")),
        env_state=matrix_from_pairs(data.get("env_state")),
    )


def save_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError as exc:  # nesting deeper than the parser allows
            raise ValueError("malformed file") from exc
    if not isinstance(data, dict):
        raise ValueError("malformed file")
    return data
