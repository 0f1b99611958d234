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
    # Per request: 768 bit triples (4 per element for each of the ReLU's
    # 15-bit comparison and the Rescale's 16-bit wrap comparison; its
    # 4-bit borrow comparison is one digit leaf and needs none) at one
    # COT each way, the comparisons' 4 COTs per digit, and both matrix
    # triples.
    assert plan.demand.total_cots(16) == 22_272
    # Per direction: consumer draws (3 744 forward: 96 x (16 + 1) for the
    # ReLU, 96 x 22 for the Rescale; 96 reverse), the 768 bit triples'
    # one COT each way, and both matrix triples' (m k + k n) x 16 COTs
    # -- 10 752 at 4x24x24, 6 144 at 4x24x12 -- from the forward
    # direction only.
    wanted = expand(plan.demand.drawn(), 16)
    assert wanted["cot/fwd"] == 3_744 + 768 + 10_752 + 6_144 == 21_408
    assert wanted["cot/rev"] == 96 + 768 == 864
