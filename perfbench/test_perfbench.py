"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import run  # noqa: E402
from run import call_cli  # noqa: E402
from srdepth import cli, homology  # noqa: E402
from srdepth import verify as srdepth_verify  # noqa: E402


def test_self_times_on_nested_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert list(tracing.self_times(starts, ends, parents)) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_count_overlap_once_and_clip_to_parent():
    # siblings [1, 5] and [4, 8] cover [1, 8]; a child running past its
    # parent's end only covers up to that end
    starts = [0.0, 1.0, 4.0, 9.0]
    ends = [10.0, 5.0, 8.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(2.0)


def test_host_speed_scales_by_the_loop_time_nearby():
    ref = hostspeed.REFERENCE_MS * 1e-3
    speed = hostspeed.HostSpeed()
    speed.times, speed.costs = [0.0, 0.5, 1.0, 9.0, 10.0], [2 * ref, 2 * ref, 2 * ref, ref, ref]
    assert speed.scale(0.1, 0.3) == pytest.approx(0.1)  # the loop ran at half speed
    assert speed.scale(9.2, 9.4) == pytest.approx(0.2)
    speed.sample(force=True)
    assert len(speed.costs) == 6 and speed.times[-1] > 10.0


def test_every_cycle_has_the_same_slots():
    for name, spec in workloads.WORKLOADS.items():
        cycle = workloads.slot_count(spec)
        assert spec.pool % cycle == 0
        inputs = workloads.make_inputs(name, 3)
        shape = [(i.n, len(i.edges), i.field) for i in inputs[:cycle]]
        assert [(i.n, len(i.edges), i.field) for i in inputs[-cycle:]] == shape
    fields = [i.field for i in workloads.make_inputs("betti_table", 3)[:21]]
    assert fields.count(3) == 7


def test_inputs_depend_only_on_seed():
    a = workloads.make_inputs("powers", 7)
    assert a == workloads.make_inputs("powers", 7)
    assert a != workloads.make_inputs("powers", 8)
    assert workloads.EDGE_PROBABILITIES == srdepth_verify.EDGE_PROBABILITIES


@pytest.mark.parametrize("name", ["figure1", "c6", "k5,5", "jc5"])
def test_named_graphs_match_the_cli(name):
    n, edges = workloads.named_graph(name)
    g = cli.resolve_example(name)
    assert (n, sorted(tuple(sorted(e)) for e in edges)) == (g.n, sorted(g.edges()))


def test_wrong_betti_table_is_caught(tmp_path: Path):
    inp = workloads.make_inputs("betti_table", 1)[0]
    workloads.write_inputs([inp], tmp_path)
    rc, out, _ = call_cli(cli, workloads.argv_for("betti_table", inp, tmp_path))
    assert checks.check("betti_table", inp, rc, out) is None
    table = json.loads(out)
    table["1,2"] += 1
    assert checks.check("betti_table", inp, rc, json.dumps(table)) is not None
    assert checks.check("betti_table", inp, 2, out) == "exit status 2"


def test_tracer_restores_every_binding():
    before = homology.boundary_rank, sys.modules["srdepth.betti"].boundary_rank
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sys.modules["srdepth.betti"].boundary_rank is not before[1]
    finally:
        tracer.uninstall()
    assert (homology.boundary_rank, sys.modules["srdepth.betti"].boundary_rank) == before


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_operation_smoke(workload, tmp_path: Path):
    """One operation per workload, untraced and traced, with the output
    checks and the metric names BENCHMARK.json promises."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    inputs = workloads.make_inputs(workload, workloads.DEFAULT_SEED)[:1]
    recorded = checks.load_recorded(workload, workloads.DEFAULT_SEED,
                                    workloads.digest(workloads.make_inputs(workload, workloads.DEFAULT_SEED)))
    workloads.write_inputs(inputs, tmp_path)
    argvs = [workloads.argv_for(workload, inputs[0], tmp_path)]

    attempted, failed, metrics, _ = run.end_to_end(cli, workload, argvs, inputs, recorded, seconds=0,
                                                   cycle=1)
    assert (attempted, failed) == (run.REPEATS, 0)
    assert ["setup_s", *metrics] == [m["name"] for m in spec["end_to_end"]]

    attempted, failed, metrics, _ = run.traced(cli, workload, argvs, inputs, recorded, seconds=0,
                                               seed=workloads.DEFAULT_SEED)
    assert (attempted, failed) == (2, 0)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == \
        [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert metrics["cli.main.calls"][0] == 1
    spans = tracing.read_spans(workloads.WORK / f"spans-{workload}-seed{workloads.DEFAULT_SEED}.bin")
    assert [s for s in spans if s[3] < 0] == [("cli.main", *spans[0][1:3], -1, 0)]
    assert metrics["trace.self_ms"][0] == pytest.approx(metrics["trace.op_ms"][0], rel=0.05)
    if workload == "betti_table":
        assert metrics["homology.boundary_rank.calls"][0] > 0
