"""Show that every output check passes on a true value and rejects a
corrupted one.

    python3 perfbench/selftest.py

Exits 0 when each check accepts the program's own answer and rejects
its corruption: optP nudged above best-eqP, an answer that disagrees
with the reference engine, a profile that is not an equilibrium, a
wrong argmin, and a missing census unit.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import lazy_churn  # noqa: E402
import service  # noqa: E402
from repro.analysis.census import census_scenario, reduce_census_cell  # noqa: E402
from repro.core.session import GameSession  # noqa: E402
from repro.runtime.executor import UnitResult  # noqa: E402


def case(name, good, bad) -> bool:
    ok = not good and bool(bad)
    print(f"{'ok ' if ok else 'BAD'} {name}: true value -> {good or 'accepted'}; "
          f"corrupted -> {bad[:1] or 'ACCEPTED'}")
    return ok


def main() -> int:
    results = []
    game = next(service.ncs_games(np.random.default_rng(11), (200, 2_000)))
    values = GameSession(game).evaluate(checks.BUNDLE)
    report = values[0]
    nudged = dataclasses.replace(report, opt_p=report.best_eq_p + 1.0)
    results.append(case(
        "Observation 2.2 on a bundle",
        checks.bundle_failures(values, "true"),
        checks.bundle_failures([nudged, nudged.opt_p, values[2], values[3]], "nudged"),
    ))
    shifted = [values[0], values[1] + 1e-9, values[2], values[3]]
    results.append(case(
        "reference engine re-evaluation",
        checks.reference_bundle_failures(game, values, "true"),
        checks.reference_bundle_failures(game, shifted, "shifted"),
    ))

    fixed = GameSession(game).best_response_dynamics()
    rng = np.random.default_rng(12)
    profile = fixed
    while not checks.equilibrium_failures(game, profile, "probe"):
        profile = service.random_profile(game, rng)
    results.append(case(
        "Bayesian equilibrium of a dynamics fixed point",
        checks.equilibrium_failures(game, fixed, "true"),
        checks.equilibrium_failures(game, profile, "not an equilibrium"),
    ))

    small = lazy_churn.congestion_game(8, 4)
    lowered = lazy_churn.lower_game_lazy(small)
    strategies = (tuple(0 for _ in range(8)), (1,), (2,))
    answer = lowered.interim_best_response(0, 3, strategies)
    wrong = ((answer[0] + 1) % 4, answer[1])
    results.append(case(
        "first argmin of a lazy interim query",
        checks.argmin_failures(small, 0, 3, strategies, answer, "true"),
        checks.argmin_failures(small, 0, 3, strategies, wrong, "wrong argmin"),
    ))

    spec = census_scenario("tabular", 2, 2, 2, 2, 6, prefix="SELFTEST")
    units = spec.expand()
    rows = {unit.address(): unit.run() for unit in units}
    cells = reduce_census_cell(
        spec,
        [UnitResult(unit.task, unit.kwargs, rows[unit.address()], False, 0.0) for unit in units],
    )
    addresses = [unit.address() for unit in units]
    states = {address: "done" for address in addresses}
    missing = dict(rows)
    del missing[addresses[2]]
    results.append(case(
        "every census unit has a done result row",
        checks.census_failures(addresses, states, rows, cells),
        checks.census_failures(addresses, states, missing, cells),
    ))
    print("selftest " + ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
