"""Self-test of the benchmark: a tiny seed end to end on every workload.

Run from the repository root with ``python3 -m pytest perfbench -q`` (about
a minute; the repository's own test run does not collect this directory).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    detail = json.loads(
        (HERE / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json").read_text()
    )
    assert detail["reference_checks"] > 0
    assert detail["determinism_checked"] > 0
    for stats in detail["command_latency"].values():
        assert stats["samples"] == 0 or stats["tail_percentile"] > 50
    assert detail["environment"]["kernel_backend"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "real_poly":
        assert metrics["linalg.sym_eig.calls"] == 0
        assert metrics["linalg.psd_check.calls"] == 0
        assert metrics["linalg.pencil_extremes.calls"] == 0
        assert metrics["polynomials.mul.calls"] > 0 and metrics["moments.apply.calls"] > 0
    if trace and workload == "operator_disc":
        assert metrics["semigroup.psd_kernel_check.calls_per_disc"] == 2
        assert metrics["spectral.nodes_recovered_ratio"] > 0
    if trace and workload == "real_psd":
        assert metrics["bounds.archimedean_bound.eigensolves_per_call"] > 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "real_poly", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_self_time_subtracts_children():
    spans = tracer.Tracer()

    def inner():
        return sum(range(20000))

    traced_inner = spans.wrap("inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    spans.wrap("outer", outer)()
    summary = spans.summarize()
    outer_row, inner_row = summary["outer"], summary["inner"]
    assert inner_row["calls"] == 2 and outer_row["calls"] == 1
    assert outer_row["self_s"] == pytest.approx(outer_row["total_s"] - inner_row["total_s"])
    assert [s[3] for s in spans.spans] == [-1, 0, 0]


def spectral_verdict(step, nodes, weights, passed=True, pencil=0.0):
    """Write a spectral report with the given rule and run the step's check on
    it; return the disagreement kind, or None when the check holds."""
    matrix = np.array(json.loads(Path(step.argv[1]).read_text())["matrix"])
    eigenvalues = np.linalg.eigvalsh(matrix)
    report = {"passed": passed, "results": {
        "rayleigh_interval": [float(eigenvalues[0]), float(eigenvalues[-1])],
        "nodes": [float(x) for x in nodes], "weights": [float(w) for w in weights],
        "pencil_agreement_residual": pencil}}
    Path(step.out).write_text(json.dumps(report))
    try:
        step.check(0 if passed else 1, "", workloads.Reference())
    except workloads.Disagreement as exc:
        return exc.kind
    return None


def test_spectral_check_accepts_only_the_gauss_rule(tmp_path):
    step = workloads.spectral_step(np.random.default_rng(5), str(tmp_path / "op"))
    doc = json.loads(Path(step.argv[1]).read_text())
    eigenvalues, vectors = np.linalg.eigh(np.array(doc["matrix"]))
    start = np.array(doc["vector"]) / np.linalg.norm(doc["vector"])
    weights = (vectors.T @ start) ** 2
    assert spectral_verdict(step, eigenvalues, weights) is None
    assert spectral_verdict(step, eigenvalues, weights, passed=False) == "wrong_verdict"
    assert spectral_verdict(step, eigenvalues, weights, passed=False,
                            pencil=1e-5) == "spectral_inaccurate"
    nudged = eigenvalues.copy()
    nudged[-1] += 1e-3
    assert spectral_verdict(step, nudged, weights) == "wrong_quadrature"
    assert spectral_verdict(step, eigenvalues, weights[::-1]) == "wrong_quadrature"
    short_nodes, short_weights = workloads.gauss_rule(eigenvalues, weights, 12)
    assert spectral_verdict(step, short_nodes, short_weights) == "spectral_node_loss"
    assert spectral_verdict(step, eigenvalues[2:], weights[2:] / weights[2:].sum()) == (
        "wrong_quadrature")


def test_gauss_rule_of_full_count_is_the_measure():
    rng = np.random.default_rng(3)
    eigenvalues = np.sort(rng.uniform(-2.0, 2.0, 9))
    weights = rng.uniform(0.1, 1.0, 9)
    nodes, got = workloads.gauss_rule(eigenvalues, weights, 9)
    assert np.allclose(nodes, eigenvalues, atol=1e-12)
    assert np.allclose(got, weights, atol=1e-12)
    nodes, got = workloads.gauss_rule(eigenvalues, weights, 4)
    for j in range(8):
        assert np.isclose(got @ nodes**j, weights @ eigenvalues**j, rtol=1e-11)
