"""The perf ledger's fixture builds against the tree: its ``ServiceTuning``
keywords, its Ferret scale and its model's plan.  The benchmark is the
only other thing that constructs them, so without this a field the
fixture still passes would first fail there, on every ``infer_single``
op."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"))

import fixture  # noqa: E402

from repro.ppml.plan import plan_graph  # noqa: E402
from repro.runtime.recipes import BY_KIND, expand  # noqa: E402


def test_fixture_builds_and_plans_on_recipe_kinds():
    fixture.service_tuning()
    fixture.ferret_config()
    plan = plan_graph(fixture.build_model(1).graph, bits=16, fx=fixture.FX)
    kinds = {kind for kind, _ in plan.demand.draws}
    assert kinds and kinds <= set(BY_KIND)
    # Per request: the 37 152 COTs of the ring-triple B2A, less its 192
    # ring triples at 16 bits x 2 directions, plus the 192 forward COTs
    # of the Gilboa B2A that replaced it.
    assert plan.demand.total_cots(16) == 37_152 - 192 * 32 + 192 == 31_200
    # Per direction: consumer draws (3 648 forward, 96 reverse), the
    # 5 280 bit triples' one COT each way, and both matrix triples'
    # (m k + k n) x 16 COTs -- 10 752 at 4x24x24, 6 144 at 4x24x12 --
    # from the forward direction only.
    wanted = expand(plan.demand.drawn(), 16)
    assert wanted["cot/fwd"] == 3_648 + 5_280 + 10_752 + 6_144 == 25_824
    assert wanted["cot/rev"] == 96 + 5_280 == 5_376
