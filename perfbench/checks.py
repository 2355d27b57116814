"""Output checks, run after the timed phase.

Each check compares the program's answers with a computation made apart
from the tensor engines (the game's own cost function and prior, or the
reference engine), or with a property every answer must have.  Every
check returns a list of failure messages; an empty list means it passed.
``perfbench/selftest.py`` shows each one rejecting a corrupted value.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Mapping, Sequence

from repro.core import engine_override
from repro.core.measures import IgnoranceReport
from repro.core.session import GameSession, query

#: The full bundle both service workloads ask for.
BUNDLE = [
    query("ignorance_report"),
    query("opt_p"),
    query("eq_p"),
    query("eq_c"),
]

#: The reference engine evaluates about 5,000 profiles per second, so
#: only games up to this many profiles are re-evaluated on it.
REFERENCE_MAX_PROFILES = 20_000


def _leq(a: float, b: float) -> bool:
    return a <= b + 1e-9 * max(1.0, abs(a), abs(b))


def order_failures(report: Mapping[str, float], where: str) -> List[str]:
    """Observation 2.2 (optC <= optP <= best-eqP <= worst-eqP) and the
    sandwich optC <= best-eqC <= worst-eqC, over a report's six values."""
    chain_p = ("optC", "optP", "best-eqP", "worst-eqP")
    chain_c = ("optC", "best-eqC", "worst-eqC")
    failures = []
    for chain in (chain_p, chain_c):
        for low, high in zip(chain, chain[1:]):
            if not _leq(report[low], report[high]):
                failures.append(
                    f"{where}: {low}={report[low]!r} > {high}={report[high]!r}"
                )
    return failures


def report_values(report: IgnoranceReport) -> Dict[str, float]:
    return {
        "optP": report.opt_p,
        "best-eqP": report.best_eq_p,
        "worst-eqP": report.worst_eq_p,
        "optC": report.opt_c,
        "best-eqC": report.best_eq_c,
        "worst-eqC": report.worst_eq_c,
    }


def bundle_failures(values: Sequence[Any], where: str) -> List[str]:
    """A bundle ``[report, opt_p, eq_p, eq_c]``: the orderings hold and the
    separately answered ``opt_p`` / ``eq_p`` / ``eq_c`` equal the report's."""
    report, opt_p, eq_p, eq_c = values
    if not isinstance(report, IgnoranceReport):
        return [f"{where}: first bundle value is not a report: {report!r}"]
    failures = order_failures(report_values(report), where)
    if opt_p != report.opt_p:
        failures.append(f"{where}: opt_p {opt_p!r} != report {report.opt_p!r}")
    if tuple(eq_p) != (report.best_eq_p, report.worst_eq_p):
        failures.append(f"{where}: eq_p {eq_p!r} disagrees with the report")
    if tuple(eq_c) != (report.best_eq_c, report.worst_eq_c):
        failures.append(f"{where}: eq_c {eq_c!r} disagrees with the report")
    return failures


def reference_bundle_failures(game, values: Sequence[Any], where: str) -> List[str]:
    """The same bundle recomputed on the reference engine, exactly equal."""
    with engine_override("reference"):
        expected = GameSession(game, engine="reference").evaluate(BUNDLE)
    if list(expected) != list(values):
        return [f"{where}: reference engine gives {expected!r}, service {values!r}"]
    return []


def equilibrium_failures(game, strategies, where: str) -> List[str]:
    """No positive type of any agent gains strictly by deviating, with
    interim costs taken from the game's cost function and prior."""
    failures = []
    for agent in range(game.num_agents):
        for ti in game.prior.positive_types(agent):
            current = game.interim_cost(agent, ti, strategies)
            for action in game.feasible_actions(agent, ti):
                cost = game.interim_cost_of_action(agent, ti, action, strategies)
                if cost < current - 1e-9 * max(1.0, abs(current)):
                    failures.append(
                        f"{where}: agent {agent} type {ti!r} gains by "
                        f"{action!r} ({cost!r} < {current!r})"
                    )
                    break
    return failures


def argmin_failures(game, agent: int, ti, strategies, answer, where: str) -> List[str]:
    """``answer`` is ``(action, cost)`` of the first argmin, over the
    agent's feasible actions, of the interim cost computed directly."""
    best_action, best_cost = None, math.inf
    for action in game.feasible_actions(agent, ti):
        cost = game.interim_cost_of_action(agent, ti, action, strategies)
        if cost < best_cost:
            best_action, best_cost = action, cost
    if answer is None or answer[0] != best_action or not math.isclose(
        answer[1], best_cost, rel_tol=1e-12, abs_tol=1e-12
    ):
        return [
            f"{where}: answer {answer!r}, direct argmin "
            f"{(best_action, best_cost)!r}"
        ]
    return []


def census_failures(
    expected_addresses: Sequence[str],
    states: Mapping[str, str],
    rows: Mapping[str, Any],
    cells: Sequence[Any],
) -> List[str]:
    """Every unit has a done row and a result; each reduced cell accounts
    for every member; each evaluated member's report keeps the orderings,
    and its ``eq_c`` pair equals the report's."""
    failures = []
    for address in expected_addresses:
        if states.get(address) != "done" or address not in rows:
            failures.append(
                f"unit {address[:12]} has no done result row "
                f"(state {states.get(address)!r})"
            )
    for cell in cells:
        census = cell.extra["census"]
        if census["evaluated"] + census["error_members"] != census["members"]:
            failures.append(f"{cell.experiment_id}: members unaccounted for")
    for address, value in rows.items():
        report = value.get("ignorance_report") if isinstance(value, dict) else None
        if not isinstance(report, dict) or "error" in report:
            continue
        six = {name: _number(report[name]) for name in (
            "optP", "best-eqP", "worst-eqP", "optC", "best-eqC", "worst-eqC"
        )}
        failures.extend(order_failures(six, f"unit {address[:12]}"))
        eq_c = value.get("eq_c")
        if isinstance(eq_c, list) and [_number(v) for v in eq_c] != [
            six["best-eqC"], six["worst-eqC"]
        ]:
            failures.append(f"unit {address[:12]}: eq_c {eq_c!r} != report")
    return failures


def _number(value: Any) -> float:
    """A census value cell: a float, or a tagged non-finite float."""
    if isinstance(value, dict) and value.get("t") == "float":
        return float(value["v"])
    return float(value)


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)
