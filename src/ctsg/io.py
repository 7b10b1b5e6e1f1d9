"""JSON and CSV (de)serialization for models, certificates, grids and reports.

JSON artifacts are written compactly (no indentation, so the json module's
C encoder runs) with sorted keys; floats go through Python's
shortest round-trip repr in both JSON and CSV, so write-then-read is exact
and byte-deterministic.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from .model import GameModel, LyapunovCertificate, ValidationReport
from .shapley import PolicyPair, TimeGrid, ValueGrid
from .simulate import McEstimate
from .solver import SolverReport
from .truncation import LadderReport


def _dump_json(obj: Any, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True) + "\n")


def _load_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text())


# -- model ---------------------------------------------------------------


def model_to_dict(model: GameModel) -> dict:
    states = []
    for i, sid in enumerate(model.state_ids):
        entry: dict[str, Any] = {"id": int(sid)}
        if model.coords is not None:
            entry["coord"] = float(model.coords[i])
        states.append(entry)
    return {
        "states": states,
        "actions_p1": [list(map(int, a)) for a in model.actions_p1],
        "actions_p2": [list(map(int, b)) for b in model.actions_p2],
        "payoff": [m.tolist() for m in model.payoff],
        "generator": [g.tolist() for g in model.generator],
        "terminal": model.terminal.tolist(),
        "theta": float(model.theta),
        "horizon": float(model.horizon),
    }


def model_from_dict(d: dict) -> GameModel:
    states = d["states"]
    coords = None
    if states and "coord" in states[0]:
        coords = np.array([s["coord"] for s in states], dtype=float)
    return GameModel(
        actions_p1=[list(a) for a in d["actions_p1"]],
        actions_p2=[list(b) for b in d["actions_p2"]],
        payoff=[np.array(m, dtype=float) for m in d["payoff"]],
        generator=[np.array(g, dtype=float) for g in d["generator"]],
        terminal=np.array(d["terminal"], dtype=float),
        theta=float(d["theta"]),
        horizon=float(d["horizon"]),
        coords=coords,
        state_ids=[int(s["id"]) for s in states],
    )


def save_model(model: GameModel, path: str | Path) -> None:
    _dump_json(model_to_dict(model), path)


def load_model(path: str | Path) -> GameModel:
    return model_from_dict(_load_json(path))


# -- certificate ----------------------------------------------------------


def certificate_to_dict(cert: LyapunovCertificate) -> dict:
    return {
        "v0": cert.v0.tolist(),
        "v1": cert.v1.tolist(),
        "rho0": cert.rho0,
        "l0": cert.l0,
        "m0": cert.m0,
        "rho1": cert.rho1,
        "b1": cert.b1,
        "m1": cert.m1,
    }


def certificate_from_dict(d: dict) -> LyapunovCertificate:
    return LyapunovCertificate(
        v0=np.array(d["v0"], dtype=float),
        v1=np.array(d["v1"], dtype=float),
        rho0=float(d["rho0"]),
        l0=float(d["l0"]),
        m0=float(d["m0"]),
        rho1=float(d["rho1"]),
        b1=float(d["b1"]),
        m1=float(d["m1"]),
    )


def save_certificate(cert: LyapunovCertificate, path: str | Path) -> None:
    _dump_json(certificate_to_dict(cert), path)


def load_certificate(path: str | Path) -> LyapunovCertificate:
    return certificate_from_dict(_load_json(path))


# -- value grid CSV --------------------------------------------------------


def value_grid_to_csv(grid: ValueGrid, state_ids: list[int]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x_id", "value"])
    nodes = grid.grid.nodes
    for i in range(grid.grid.n_steps + 1):
        for x, sid in enumerate(state_ids):
            writer.writerow([repr(float(nodes[i])), sid, repr(float(grid.values[i, x]))])
    return buf.getvalue()


def save_value_grid(grid: ValueGrid, state_ids: list[int], path: str | Path) -> None:
    Path(path).write_text(value_grid_to_csv(grid, state_ids))


def load_value_grid(path: str | Path) -> tuple[ValueGrid, list[int]]:
    rows = list(csv.reader(Path(path).read_text().splitlines()))
    if rows[0] != ["t", "x_id", "value"]:
        raise ValueError(f"unexpected value-grid header {rows[0]}")
    ts: list[float] = []
    ids: list[int] = []
    for t_str, x_str, _ in rows[1:]:
        t = float(t_str)
        if not ts or t != ts[-1]:
            ts.append(t)
        if len(ts) == 1:
            ids.append(int(x_str))
    n_t = len(ts) - 1
    grid = TimeGrid(horizon=ts[-1], n_steps=n_t)
    values = np.empty((n_t + 1, len(ids)))
    for k, (_, _, v_str) in enumerate(rows[1:]):
        values[k // len(ids), k % len(ids)] = float(v_str)
    return ValueGrid(grid, values), ids


# -- policies ---------------------------------------------------------------


def policies_to_dict(policies: PolicyPair, state_ids: list[int]) -> dict:
    records = []
    for i in range(policies.grid.n_steps + 1):
        for x, sid in enumerate(state_ids):
            records.append(
                {
                    "t_index": i,
                    "x_id": int(sid),
                    "pi1": policies.pi1[x][i].tolist(),
                    "pi2": policies.pi2[x][i].tolist(),
                }
            )
    return {
        "horizon": policies.grid.horizon,
        "n_steps": policies.grid.n_steps,
        "records": records,
    }


def policies_from_dict(d: dict) -> tuple[PolicyPair, list[int]]:
    grid = TimeGrid(horizon=float(d["horizon"]), n_steps=int(d["n_steps"]))
    by_state: dict[int, dict[int, tuple[list[float], list[float]]]] = {}
    order: list[int] = []
    for rec in d["records"]:
        sid = int(rec["x_id"])
        if sid not in by_state:
            by_state[sid] = {}
            order.append(sid)
        by_state[sid][int(rec["t_index"])] = (rec["pi1"], rec["pi2"])
    pi1 = []
    pi2 = []
    for sid in order:
        rows = by_state[sid]
        pi1.append(np.array([rows[i][0] for i in range(grid.n_steps + 1)], dtype=float))
        pi2.append(np.array([rows[i][1] for i in range(grid.n_steps + 1)], dtype=float))
    return PolicyPair(grid, pi1, pi2), order


def save_policies(policies: PolicyPair, state_ids: list[int], path: str | Path) -> None:
    _dump_json(policies_to_dict(policies, state_ids), path)


def load_policies(path: str | Path) -> tuple[PolicyPair, list[int]]:
    return policies_from_dict(_load_json(path))


# -- reports ---------------------------------------------------------------


def solver_report_to_dict(report: SolverReport) -> dict:
    return asdict(report)


def estimate_to_dict(est: McEstimate) -> dict:
    return {
        "mean": est.mean,
        "std_error": est.std_error,
        "paths": est.paths,
        "confidence_level": est.confidence_level,
    }


def validation_report_to_dict(report: ValidationReport) -> dict:
    return {
        "is_valid": report.is_valid,
        "tolerance": report.tolerance,
        "max_abs_rate": report.max_abs_rate,
        "q_star": report.q_star.tolist(),
        "violations": [asdict(v) for v in report.violations],
    }


def certificate_checks_to_dict(cert: LyapunovCertificate) -> dict:
    return {
        "drift0_ok": cert.drift0_ok,
        "rate_bound_ok": cert.rate_bound_ok,
        "payoff_bound_ok": cert.payoff_bound_ok,
        "drift1_ok": cert.drift1_ok,
        "squeeze_ok": cert.squeeze_ok,
        "residuals": dict(cert.residuals),
    }


def ladder_to_csv(report: LadderReport, state_ids: list[int]) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["level", "x_id", "value_t0"])
    for entry in report.levels:
        for x, sid in enumerate(state_ids):
            writer.writerow([entry.level, sid, repr(float(entry.values_t0[x]))])
    return buf.getvalue()


def ladder_summary_to_dict(report: LadderReport) -> dict:
    return {
        "kind": report.kind,
        "shift": report.shift,
        "monotone_ok": report.monotone_ok,
        "monotone_slack": report.monotone_slack,
        "worst_monotone_violation": report.worst_monotone_violation,
        "diffs_decreasing": report.diffs_decreasing,
        "levels": [
            {
                "level": e.level,
                "converged": e.converged,
                "iterations": e.iterations,
                "threshold": e.threshold,
                "sup_diff_prev": e.sup_diff_prev,
            }
            for e in report.levels
        ],
    }
