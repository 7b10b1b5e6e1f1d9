"""JSON and CSV (de)serialization for models, certificates, grids and reports.

JSON artifacts are written compactly (no indentation, so the json module's C
encoder runs) with sorted keys; floats go through Python's shortest round-trip
repr in both JSON and CSV, so write-then-read is exact and byte-deterministic.
Most rows of floats in a model or policy file repeat, so their writers fill %s
templates with _row_texts, which spells each distinct row once.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .errors import CtsgError, SchemaError
from .model import (
    CERTIFICATE_CHECKS, CERTIFICATE_CONSTANTS, GameModel, LyapunovCertificate, ValidationReport,
    _count, _state_ids,
)
from .shapley import PolicyPair, TimeGrid, ValueGrid
from .simulate import McEstimate
from .truncation import LadderReport


def _dump_json(obj: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True) + "\n")


def _load_json(path: str | Path, from_dict: Callable[[dict], Any]) -> Any:
    """from_dict of the JSON object in path; every error it raises names the file.

    SchemaError if the top level is another JSON value, if a field is missing
    (a KeyError in from_dict) or if a nested field has the wrong JSON type
    (say null or a number where a list or an object belongs), which from_dict
    meets as a TypeError. A ValueError (a field that is not a number, or an
    array that is ragged or holds a non-number) stays a ValueError, and any
    other CtsgError (a StructureError from GameModel on tensors whose shapes
    do not fit) keeps its type.
    """
    obj = json.loads(Path(path).read_text())
    try:
        if not isinstance(obj, dict):
            raise SchemaError(f"the top level must be a JSON object, not {type(obj).__name__}")
        return from_dict(obj)
    except KeyError as exc:
        raise SchemaError(f"{path}: missing field {exc}") from None
    except CtsgError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except TypeError as exc:
        raise SchemaError(f"{path}: a field has the wrong JSON type: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _number(d: dict, key: str, array: str = "", index: int = 0) -> int:
    """d[key], an integer field, by the count rule _count (ValueError; never a boolean).

    The message calls the value key, or array[index].key when d is entry
    index of the JSON array named array. (Float fields go to their containers as read.)
    """
    return _count(d[key], f"{array}[{index}].{key}" if array else key)


def _floats(value: Any, name: str) -> np.ndarray:
    """value as a float array; ValueError naming the field if it is ragged or holds a non-number.

    A JSON string, boolean or null is refused even where numpy would read it
    (a string that spells a number, true as 1.0, null as NaN), as _number
    refuses one.
    """
    try:
        array = np.array(value)
        numeric = array.dtype.kind not in "UO"  # numbers or booleans, with no null
        floats = array.astype(float, copy=False) if numeric else np.array(value, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{name} is not an array of numbers: {exc}") from None
    if numeric and not np.count_nonzero((floats == 0.0) | (floats == 1.0)):
        return floats  # a boolean reads as 0.0 or 1.0, so none is here
    leaves = value if array.ndim else [value]
    for _ in range(array.ndim - 1):
        leaves = chain.from_iterable(leaves)
    types = set(map(type, leaves))
    for kind, spelled in ((str, "a string"), (bool, "a boolean"), (type(None), "null")):
        if kind in types:
            raise ValueError(f"{name} is not an array of numbers: it holds {spelled}")
    return floats


def _row_texts(stack: np.ndarray) -> np.ndarray:
    """``json.dumps(row.tolist())`` of each row of a float stack (rows along the last axis).

    An object array over the other axes. Each distinct row is spelled once, keyed by its
    bytes (so -0.0 stays apart from 0.0), in one call of the json encoder.
    """
    stack = np.ascontiguousarray(stack, dtype=float)
    *shape, width = stack.shape
    keys = stack.view(f"V{8 * width}").ravel().tolist()
    distinct = list(dict.fromkeys(keys))
    floats = np.frombuffer(b"".join(distinct)).reshape(len(distinct), width)
    spelled = json.dumps(floats.tolist())[2:-2].split("], [")  # the rows' texts less their brackets
    texts = dict(zip(distinct, map("[{}]".format, spelled)))
    return np.array(list(map(texts.__getitem__, keys)), dtype=object).reshape(shape)


# -- model ---------------------------------------------------------------


def model_from_dict(d: dict) -> GameModel:
    states = d["states"]
    has_coord = ["coord" in s for s in states]
    coords = None
    if any(has_coord):
        if not all(has_coord):
            raise SchemaError(
                f"states[{has_coord.index(False)}] has no coord, "
                f"but states[{has_coord.index(True)}] has one"
            )
        coords = _floats([s["coord"] for s in states], "coord")
    return GameModel(
        actions_p1=[list(a) for a in d["actions_p1"]],
        actions_p2=[list(b) for b in d["actions_p2"]],
        payoff=[_floats(m, f"payoff[{x}]") for x, m in enumerate(d["payoff"])],
        generator=[_floats(g, f"generator[{x}]") for x, g in enumerate(d["generator"])],
        terminal=_floats(d["terminal"], "terminal"),
        theta=d["theta"],
        horizon=d["horizon"],
        coords=coords,
        state_ids=[_number(s, "id", "states", i) for i, s in enumerate(states)],
    )


def save_model(model: GameModel, path: str | Path) -> None:
    """Write the bytes of ``json.dumps(..., sort_keys=True)`` on the model as nested lists.

    The lists are not built: %s templates nest the rows that _row_texts spells.
    """
    generator, payoff = [""] * model.n_states, [""] * model.n_states
    for group in model._shape_groups:
        _, na, nb = group.payoff.shape
        for out, stack, shape in ((generator, group.generator, (na, nb)), (payoff, group.payoff, (na,))):
            template = json.dumps(np.full(shape, "%s").tolist()).replace('"', "")  # [[%s, %s], ...]
            for x, rows in zip(group.states.tolist(), _row_texts(stack).tolist()):
                out[x] = template % tuple(rows)
    ids = [{"id": sid} for sid in model.state_ids]
    states = ids if model.coords is None else [{**e, "coord": c} for e, c in zip(ids, model.coords.tolist())]
    fields = {  # no field but the two "%s" holds a %: the rest are numbers and fixed keys
        "states": states, "terminal": model.terminal.tolist(), "generator": "%s", "payoff": "%s",
        "actions_p1": [list(map(int, a)) for a in model.actions_p1],
        "actions_p2": [list(map(int, b)) for b in model.actions_p2],
        "theta": model.theta, "horizon": model.horizon,
    }
    template = json.dumps(fields, sort_keys=True).replace('"%s"', "[%s]") + "\n"
    Path(path).write_text(template % (", ".join(generator), ", ".join(payoff)))


def load_model(path: str | Path) -> GameModel:
    return _load_json(path, model_from_dict)


# -- certificate ----------------------------------------------------------


def certificate_to_dict(cert: LyapunovCertificate) -> dict:
    constants = {name: getattr(cert, name) for name in CERTIFICATE_CONSTANTS}
    return {"v0": cert.v0.tolist(), "v1": cert.v1.tolist(), **constants}


def certificate_from_dict(d: dict) -> LyapunovCertificate:
    return LyapunovCertificate(
        v0=_floats(d["v0"], "v0"),
        v1=_floats(d["v1"], "v1"),
        **{name: d[name] for name in CERTIFICATE_CONSTANTS},
    )


def save_certificate(cert: LyapunovCertificate, path: str | Path) -> None:
    _dump_json(certificate_to_dict(cert), path)


def load_certificate(path: str | Path) -> LyapunovCertificate:
    return _load_json(path, certificate_from_dict)


# -- value grid CSV --------------------------------------------------------


def value_grid_to_csv(grid: ValueGrid, state_ids: Sequence[int]) -> str:
    # No field holds a comma, quote or line break, so csv.writer would write
    # these lines unquoted; each time node is formatted once per row.
    state_ids = _state_ids(state_ids, grid.values.shape[1])
    lines = ["t,x_id,value"]
    for t, row in zip(grid.grid.nodes.tolist(), grid.values.tolist()):
        t_str = repr(t)
        lines.extend(f"{t_str},{sid},{v!r}" for sid, v in zip(state_ids, row))
    return "\n".join(lines) + "\n"


def save_value_grid(grid: ValueGrid, state_ids: Sequence[int], path: str | Path) -> None:
    Path(path).write_text(value_grid_to_csv(grid, state_ids))


def load_value_grid(path: str | Path) -> tuple[ValueGrid, list[int]]:
    """The value grid and state ids of a value CSV, as value_grid_to_csv writes it.

    The first time node's rows give the state ids. Raises ValueError naming
    the file, and the line where there is one, on a header other than
    t,x_id,value, a file with no rows, a row that is not a time, an integer
    id and a value, a first node that lists an id twice, and a row that is
    not the next of the grid: each node of the uniform grid to the last
    time, exactly, with the first node's ids in their order, a last node cut
    short included.
    """
    rows = list(csv.reader(Path(path).read_text().splitlines()))
    if not rows:
        raise ValueError(f"{path}: no rows")
    if rows[0] != ["t", "x_id", "value"]:
        raise ValueError(f"{path}: line 1: unexpected value-grid header {rows[0]}")
    if len(rows) == 1:
        raise ValueError(f"{path}: no rows after the header on line 1")
    cells = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            t, sid, v = row
            cells.append((float(t), int(sid), float(v)))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    ts, sids, values = zip(*cells)
    n_x = next((k for k in range(1, len(ts)) if ts[k] != ts[0]), len(ts))
    try:
        ids = _state_ids(sids[:n_x], n_x)
        grid = TimeGrid(horizon=ts[-1], n_steps=-(-len(ts) // n_x) - 1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    nodes = grid.nodes.tolist()
    # Row k (line k + 2) is (node k // n_x, the first node's id k mod n_x); the writer spells nodes by repr
    for k in range(len(nodes) * n_x):
        want = (nodes[k // n_x], sids[k % n_x])
        if k == len(ts) or (ts[k], sids[k]) != want:
            found = f"t={ts[k]}, x_id {sids[k]}" if k < len(ts) else "the end of the file"
            raise ValueError(
                f"{path}: line {k + 2}: {found}, where the grid needs t={want[0]}, x_id {want[1]}"
            )
    return ValueGrid(grid, np.reshape(values, (-1, n_x))), list(ids)


# -- matrix game CSV ----------------------------------------------------------


def _load_matrix_csv(path: str | Path) -> np.ndarray:
    """The payoff matrix of a CSV file, one row per nonblank line.

    Raises ValueError, naming the file and the row's line, on an entry that
    is not a number or a row whose length is not the first row's; and on a
    file with no rows.
    """
    rows: list[list[float]] = []
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}: row on line {n}: {exc}") from None
        if not rows:
            first = n
        elif len(row) != len(rows[0]):
            raise ValueError(
                f"{path}: row on line {n} has length {len(row)}, "
                f"the first row (line {first}) has length {len(rows[0])}"
            )
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no rows")
    return np.array(rows)


# -- policies ---------------------------------------------------------------


def policies_from_dict(d: dict) -> tuple[PolicyPair, list[int]]:
    """Policies from a policy-file dict; records may come in any order.

    Raises ValueError naming the state and ``t_index`` of a duplicate record,
    of one past ``n_steps`` or of one missing from ``0..n_steps``, and
    naming the record, its state and its ``t_index`` where a record lacks a
    row (SchemaError) or holds one that does not stack with the state's
    other rows.
    """
    grid = TimeGrid(horizon=d["horizon"], n_steps=d["n_steps"])
    n_steps = grid.n_steps
    by_state: dict[int, dict[int, tuple[list[float], list[float]]]] = {}
    for j, rec in enumerate(d["records"]):
        sid = _number(rec, "x_id", "records", j)
        t = _number(rec, "t_index", "records", j)
        rows = by_state.setdefault(sid, {})
        if t in rows:
            raise ValueError(f"policy file has two records for state {sid} at t_index {t}")
        if not 0 <= t <= n_steps:
            raise ValueError(
                f"policy file has a record for state {sid} at t_index {t}, "
                f"outside 0..n_steps = {n_steps}"
            )
        try:
            rows[t] = (rec["pi1"], rec["pi2"])
        except KeyError as exc:
            raise SchemaError(
                f"missing field {exc} in records[{j}] (state {sid}, t_index {t})"
            ) from None
    for sid, rows in by_state.items():
        if len(rows) <= n_steps:
            t = next(i for i in range(n_steps + 1) if i not in rows)
            raise ValueError(f"policy file has no record for state {sid} at t_index {t}")
    records = d["records"]
    pi1, pi2 = ([_policy_rows(records, rows, j, sid) for sid, rows in by_state.items()] for j in (0, 1))
    return PolicyPair(grid, pi1, pi2), list(by_state)


def _policy_rows(records: list, rows: dict, player: int, sid: int) -> np.ndarray:
    """One player's rows of state sid, rows[t][player] for t = 0, 1, ..., as a float array.

    On failure the ValueError names the first record whose row is not a
    flat list of numbers as long as most of the state's rows; the records
    are searched for its index only then.
    """
    table = [rows[t][player] for t in range(len(rows))]
    try:
        return _floats(table, f"pi{player + 1} of state {sid}")
    except ValueError:
        lengths = [len(row) if isinstance(row, list) else -1 for row in table]
        width = max(lengths, key=lengths.count)  # -1 if most rows are not lists
        index = {(r["x_id"], r["t_index"]): j for j, r in enumerate(records)}
        names = [
            f"pi{player + 1} of records[{index[sid, t]}] (state {sid}, t_index {t})"
            for t in range(len(table))
        ]
        # the table failed, so some row does: _floats raises for one holding a non-number
        t = next(
            t for t, row in enumerate(table)
            if lengths[t] != width or _floats(row, names[t]).shape != (width,)
        )
        numbers = f"{width} numbers" if width >= 0 else "numbers"
        raise ValueError(f"{names[t]} is not a list of {numbers}: {json.dumps(table[t])}") from None


def save_policies(policies: PolicyPair, state_ids: Sequence[int], path: str | Path) -> None:
    """Write ``{horizon, n_steps, records}``, one record per (t_index, state).

    The bytes are those of ``json.dumps(..., sort_keys=True)`` on a dict per record, which is
    not built: one ``%`` fills a template per record with the _row_texts of its rows, its
    t_index and its id. ValueError unless state_ids keeps the model's id rule, _state_ids.
    """
    n_rows = policies.grid.n_steps + 1
    n_x = sum(len(states) for states, _, _ in policies._stacks)
    state_ids = _state_ids(state_ids, n_x)
    fills = np.empty((n_rows, n_x, 4), dtype=object)  # each record's pi1, pi2, t_index and x_id
    for states, *pair in policies._stacks:
        for j, p in enumerate(pair):
            fills[:, states, j] = _row_texts(p).T
    fills[:, :, 2] = np.arange(n_rows)[:, None]
    fills[:, :, 3] = state_ids
    record = '{"pi1": %s, "pi2": %s, "t_index": %s, "x_id": %s}'
    head = {"horizon": policies.grid.horizon, "n_steps": policies.grid.n_steps, "records": []}
    template = json.dumps(head, sort_keys=True)[:-2] + ", ".join([record] * (n_rows * n_x)) + "]}\n"
    Path(path).write_text(template % tuple(fills.ravel().tolist()))


def load_policies(path: str | Path) -> tuple[PolicyPair, list[int]]:
    return _load_json(path, policies_from_dict)


# -- reports ---------------------------------------------------------------


def _lists_for_arrays(items: list[tuple[str, Any]]) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items}


def as_json_dict(obj: Any) -> dict:
    """dataclasses.asdict(obj) with every array field written as a list."""
    return asdict(obj, dict_factory=_lists_for_arrays)


def estimate_to_dict(est: McEstimate) -> dict:
    return {
        "mean": est.mean,
        "std_error": est.std_error,
        "paths": est.paths,
        "confidence_level": 0.9973,  # the three-sigma convention
    }


def validation_report_to_dict(report: ValidationReport) -> dict:
    return {**as_json_dict(report), "is_valid": report.is_valid}


def certificate_checks_to_dict(cert: LyapunovCertificate) -> dict:
    flags = {f"{name}_ok": getattr(cert, f"{name}_ok") for name in CERTIFICATE_CHECKS}
    return {**flags, "residuals": dict(cert.residuals)}


def ladder_to_csv(report: LadderReport, state_ids: Sequence[int]) -> str:
    # Unquoted lines, as in value_grid_to_csv.
    lines = ["level,x_id,value_t0"]
    for entry in report.levels:
        state_ids = _state_ids(state_ids, len(entry.values_t0))
        lines.extend(
            f"{entry.level},{sid},{v!r}" for sid, v in zip(state_ids, entry.values_t0.tolist())
        )
    return "\n".join(lines) + "\n"


def ladder_summary_to_dict(report: LadderReport) -> dict:
    """The report without each level's values_t0, which ladder_to_csv writes."""
    summary = asdict(report)
    for level in summary["levels"]:
        del level["values_t0"]
    return summary
