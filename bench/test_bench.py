"""Benchmark self-tests: seeded plans are reproducible and seed-dependent,
BENCHMARK.json lists exactly the metrics the benchmark prints, and the
benchmark's verify gates are those of `mhstools verify`.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import plans  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def _inputs(ops):
    """Every seeded value of a plan: everything but the fixed structure."""
    return [{k: v for k, v in op.items() if k not in ("op", "expect")} for op in ops]


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_same_seed_gives_identical_operation_list(workload):
    for r in (0, 1):
        assert plans.round_ops(workload, 7, r) == plans.round_ops(workload, 7, r)


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_two_seeds_give_different_inputs_with_the_same_structure(workload):
    a, b = plans.round_ops(workload, 1, 0), plans.round_ops(workload, 2, 0)
    assert [op["op"] for op in a] == [op["op"] for op in b]
    assert _inputs(a) != _inputs(b)
    assert plans.round_ops(workload, 1, 1) != a


def test_generators_preserve_z_coefficients():
    for seed in range(20):
        for op in plans.round_ops("orbit-transport", seed, 0):
            assert op["a"][2] == 0.0 and op["b"][:2] == [0.0, 0.0]
            norm = sum(v * v for v in op["a"] + op["b"]) ** 0.5
            assert norm == pytest.approx(plans.GENERATOR_NORM)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(plans.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_verify_gates_match_the_cli():
    sys.path.insert(0, str(HERE.parent / "src"))
    from mhstools import cli

    assert plans.BELTRAMI_GATES == cli.BELTRAMI_GATES
    assert plans.PRESSURE_GATES == cli.PRESSURE_GATES
