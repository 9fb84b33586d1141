"""Quick tests of the benchmark itself on a 20-mass chain (order 40).

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
import warnings

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import harness  # noqa: E402
from harness import Workload  # noqa: E402
from icmor import experiment, gramians, reduction  # noqa: E402
from tracer import Tracer, layer_totals, union_length  # noqa: E402

TINY_ONLINE = Workload(20, 40)
TINY_CASE = Workload(20, 40, ("augbt", "bt-bt", "bt-irka"), irka_max_iters=3)


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    for w in spec["workloads"]:
        assert w["name"] in harness.WORKLOADS
        assert w["name"] in harness.load_reference()["workloads"]


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_children_and_skips_recursive_totals():
    spans = [
        ("outer", 0.0, 10.0, -1, False),
        ("a", 1.0, 3.0, 0, False),
        ("a", 2.0, 2.5, 1, True),      # a inside a: counted once in "s"
        ("b", 5.0, 6.0, 0, False),
    ]
    totals = layer_totals(spans)
    assert totals["outer"] == {"calls": 1, "s": pytest.approx(10.0), "self_s": pytest.approx(7.0)}
    assert totals["a"]["calls"] == 2
    assert totals["a"]["s"] == pytest.approx(2.0)
    assert totals["a"]["self_s"] == pytest.approx(1.5 + 0.5)
    assert totals["b"]["self_s"] == pytest.approx(1.0)


def test_tracer_wraps_every_binding_site_and_restores_them():
    original = gramians.gramian_factors
    assert reduction.gramian_factors is original and experiment.gramian_factors is original
    with Tracer() as tracer:
        sites = tracer.wrap_function("gramians.gramian_factors", gramians, "gramian_factors")
        assert sites >= 3
        assert tracer.originals_left([original]) == []
        M = harness.model.build_msd(10, m_inputs=2)
        reduction.bt_reduce(M, reduction.OrderSelection.fixed(4))
    assert gramians.gramian_factors is original and reduction.gramian_factors is original
    assert layer_totals(tracer.spans)["gramians.gramian_factors"]["calls"] == 1


def _reference_of(workload):
    state = harness.set_up(workload)
    with Tracer() as tracer, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        harness.instrument(tracer, workload, False)
        rep = experiment.run_experiment(state["cfg"])
    methods = {m: {k: r[k] for k in ("orders", "rel_l2", "bound_ok")}
               for m, r in rep.report["methods"].items()}
    return state, {"methods": methods}, rep.report


def test_check_report_counts_orders_accuracy_and_bounds():
    _, ref, report = _reference_of(TINY_CASE)
    assert harness.check_report(report, ref)[0] == []

    worse = json.loads(json.dumps(ref))
    worse["methods"]["bt-bt"]["rel_l2"] /= 1.5
    worse["methods"]["augbt"]["orders"] = {"r_aug": 99}
    failures, _, _ = harness.check_report(report, worse)
    assert len(failures) == 2

    better = json.loads(json.dumps(ref))
    better["methods"]["bt-bt"]["rel_l2"] *= 1.5
    assert harness.check_report(report, better)[0] == []

    assert ref["methods"]["bt-bt"]["bound_ok"]
    violated = json.loads(json.dumps(report))
    violated["methods"]["bt-bt"]["bound_ok"] = False
    failures, violations, _ = harness.check_report(violated, ref)
    assert "bt-bt" in violations and len(failures) == 1
    known = json.loads(json.dumps(ref))
    known["methods"]["bt-bt"]["bound_ok"] = False
    failures, violations, _ = harness.check_report(violated, known)
    assert "bt-bt" in violations and failures == []


def test_traced_experiment_passes_the_coverage_check():
    state, ref, _ = _reference_of(TINY_CASE)
    rng = harness.np.random.default_rng(0)
    rec = harness.run_op(TINY_CASE, state, ref, rng, False, True)
    assert rec.failures == []
    assert rec.layers["reduction.irka_reduce"]["calls"] == 1
    assert rec.counts["reduction.irka_reduce.shift_solves"] > 0
    assert harness.coverage_problems(TINY_CASE, [rec]) == []
    # the cap reached irka_reduce: at most 3 scored iterates
    assert rec.counts["reduction.irka_reduce.h2_scorings"] <= 3


def test_online_loop_metrics_and_checks(monkeypatch):
    monkeypatch.setattr(harness, "MIN_ONLINE_CALLS", 6)
    monkeypatch.setattr(harness, "ONLINE_CHECK_POOL", 6)
    monkeypatch.setattr(harness, "ONLINE_CHECKS", 2)
    state = harness.set_up(TINY_ONLINE)
    ref = {"orders": state["orders"]}
    untraced, traced, _ = harness.measure(TINY_ONLINE, state, ref, 0.0, False, 3)
    assert len(untraced) == 6 and traced == []
    values = harness.end_to_end(TINY_ONLINE, untraced, 0.5, [state["offline_s"]])
    assert set(values) == set(harness.END_TO_END)
    assert all(v > 0 for v in values.values())
    failures, violations, rels = harness.check_online(state, untraced, ref)
    assert failures == [] and violations == [] and len(rels) == 2

    _, traced, _ = harness.measure(TINY_ONLINE, state, ref, 0.0, True, 3)
    layers = harness.per_layer(traced, untraced)
    assert set(layers) == set(harness.PER_LAYER)
    assert layers["simulation.online_phase.calls"] == 1
    assert harness.coverage_problems(TINY_ONLINE, traced) == []


def test_failures_are_counted_not_raised():
    state = harness.set_up(TINY_ONLINE)
    state["S"] = None
    rng = harness.np.random.default_rng(0)
    rec = harness.run_op(TINY_ONLINE, state, {}, rng, False, False)
    assert len(rec.failures) == 1 and "Traceback" in rec.failures[0]

    state = harness.set_up(TINY_ONLINE)
    failures, _, _ = harness.check_online(state, [], {"orders": {"r_u": -1, "r_x0": -1}})
    assert len(failures) == 1


def test_coverage_check_flags_misplaced_work():
    rec = harness.OpRecord(wall=1.0, offline=0.0, online_s=[])
    rec.layers = {"linalg.solve_lyapunov": {"calls": 1, "s": 0.1, "self_s": 0.1},
                  "reduction.irka_reduce": {"calls": 1, "s": 0.1, "self_s": 0.1}}
    problems = harness.coverage_problems(TINY_ONLINE, [rec])
    assert len(problems) == 2
