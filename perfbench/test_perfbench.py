"""Self-tests of the benchmark: its inputs, its checks and its tracer.

Run from the repository root with `python -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import franklin_forge as ff
import franklin_forge.cli  # noqa: F401  (binds ff.cli for the workloads and the tracer)
from perfbench import inputs, tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
ORDERS = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (5, 3)]


def _square(p, r, seed):
    entries = inputs.most_perfect_entries(p, r, inputs.digit_offset(p, r, random.Random(seed)))
    return entries, ff.NaturalSquare(ff.Grid(entries)), ff.TypeParams.for_power(p, r)


@pytest.mark.parametrize("p,r", ORDERS)
@pytest.mark.parametrize("seed", range(4))
def test_generator_yields_most_perfect_and_theta_franklin(p, r, seed):
    entries, square, params = _square(p, r, seed)
    assert ff.verify_all(square, params).classification == "most_perfect_type_p"
    assert inputs.most_perfect_defects(entries, p) == []
    franklin = ff.theta(square, params)
    assert ff.verify_all(franklin, params).classification == "pandiagonal_franklin_type_p"
    assert (franklin.entries == inputs.theta_entries(entries, p)).all()


def test_seed_changes_the_square():
    assert not (_square(3, 4, 0)[0] == _square(3, 4, 1)[0]).all()


def test_independent_check_finds_defects():
    entries, _, _ = _square(3, 4, 2)
    broken = entries.copy()
    broken[0, 0], broken[0, 1] = broken[0, 1], broken[0, 0]
    assert inputs.most_perfect_defects(broken, 3)
    rng = np.random.default_rng(0)
    shuffled = rng.permutation(entries.ravel()).reshape(entries.shape)
    assert set(inputs.most_perfect_defects(shuffled, 3)) >= {"semi_magic", "pxp"}
    duplicated = entries.copy()
    duplicated[1, 1] = duplicated[0, 0]
    assert inputs.most_perfect_defects(duplicated, 3) == ["natural"]


def test_witness_resum_detects_a_wrong_actual():
    entries, square, params = _square(3, 3, 1)
    failing = [v for v in ff.verify_all(square, params).to_json_dict()["verdicts"] if not v["passed"]]
    assert failing
    for verdict in failing:
        assert inputs.witness_resums(entries, verdict)
        verdict["witness"]["actual"] += 1
        assert not inputs.witness_resums(entries, verdict)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_op_matches_untraced(name, tmp_path):
    workload = WORKLOADS[name]
    state = workload.setup(ff, 3, tmp_path, warm=True)
    indices = range(min(len(state), 12)) if name == "patterns" else [0]
    plain = [workload.digest(state, workload.op(ff, state, i)) for i in indices]
    originals = {(path, attr): tracing._resolve(ff, path).__dict__[attr] for path, attr, _ in tracing.BINDINGS}
    tracer = tracing.Tracer(ff)
    tracer.install()
    try:
        outs = [workload.op(ff, state, i) for i in indices]
    finally:
        tracer.uninstall()
    assert [workload.digest(state, out) for out in outs] == plain
    assert all(workload.check(state, i, out) for i, out in zip(indices, outs))
    for (path, attr), original in originals.items():
        assert tracing._resolve(ff, path).__dict__[attr] is original
    stats = tracer.metrics(len(indices))
    for stat in ("calls", "s", "self_s", "errors"):
        assert {f"{layer}.{stat}" for layer in tracing.LAYERS} <= stats.keys()
    busy = {layer for layer in tracing.LAYERS if stats[f"{layer}.calls"] > 0}
    expected = {
        "construct": {"construct.generate_most_perfect", "construct.is_invertible_mod",
                      "construct.verify_all", "properties.check_pxp", "core.NaturalSquare"},
        "certify": {"involution.theta", "properties.verify_all", "properties.check_franklin_patterns",
                    "patterns.franklin_cells", "core.Grid"},
        "cli": {"cli.main", "cli.parse_square", "cli.emit_square", "involution.theta", "properties.verify_all"},
        "patterns": {"patterns.franklin_cells", "patterns.select_blocks", "patterns.block_intersection"},
    }[name]
    assert expected <= busy
    assert all(stats[f"{layer}.self_s"] <= stats[f"{layer}.s"] + 1e-9 for layer in tracing.LAYERS)


def test_tracer_counts_errors():
    tracer = tracing.Tracer(ff)
    tracer.install()
    try:
        with pytest.raises(ValueError):
            ff.core.NaturalSquare(ff.core.Grid([[0, 0], [1, 2]]))
    finally:
        tracer.uninstall()
    assert tracer.stats["core.NaturalSquare"][3] == 1


def test_invertible_ratio_counts_each_candidate_once():
    # At (2, 4) the sweep tries 85 candidates; only the last is invertible, and it
    # passes the screen. candidate_to_square tests it for invertibility a second time.
    tracer = tracing.Tracer(ff)
    tracer.install()
    try:
        ff.construct.generate_most_perfect(ff.construct.GeneratorConfig(2, 4, 0))
    finally:
        tracer.uninstall()
    stats = tracer.metrics(1)
    assert stats["construct.is_invertible_mod.calls"] == 86
    assert stats["construct.invertible_ratio"] == 1 / 85
    assert stats["construct.screen_yield"] == 1.0


def _bench(cwd, workload, trace, seconds="0.5"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "4",
           "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_benchmark_json(trace):
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = _bench(ROOT, "patterns", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = config["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert not (ROOT / ".perfbench_work").exists()


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "patterns", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
