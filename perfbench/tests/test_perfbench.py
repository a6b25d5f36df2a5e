"""Tests of the benchmark itself: every workload at tiny size prints every
metric of BENCHMARK.json with its unit, failures are counted rather than
passed, and the comparison applies its rule.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from steinalg import cylinder, steinberg  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for m in declared:
        line = next(x for x in proc.stdout.splitlines() if " %s = " % m["name"] in x)
        assert line.split(" = ", 1)[1].split()[1] == m["unit"]
    if trace == "0":
        assert "  failed_ops_ratio = 0.0 ratio" in proc.stdout


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.REPORTED)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()


def test_wrong_product_counts_as_failed(monkeypatch):
    assert run.measure(workloads.dense_mul(5, "tiny", None).ops, 0).failed == 0
    real = steinberg.convolve
    probes, missed = [], []

    def one_coefficient_off(f, h):
        # Add one to the coefficient of the term that holds one of the op's
        # probes.  In canonical form no other term holds that probe, so the
        # product is off by one there.
        product = real(f, h)
        pair = next((p for p, _ in product.sorted_terms()
                     if any(cylinder.pair_contains(p, probe) for probe in probes)), None)
        if pair is None:
            missed.append(product)
            return product
        terms = dict(product.terms)
        terms[pair] = product.ring.add(terms[pair], product.ring.one())
        return steinberg.from_terms(product.graph, product.ring, list(terms.items()))

    monkeypatch.setattr(steinberg, "convolve", one_coefficient_off)
    # Fresh ops hold no reference product, so only the oracle judges them.
    ops = workloads.dense_mul(5, "tiny", None).ops
    m = run.Measurement()
    for op in ops:
        probes[:] = op.probes
        m.absorb(run.measure([op], 0))
    assert not missed
    assert m.failed == m.attempted == len(ops)
    values, _ = run.end_to_end(m, [0.1], 75.0)
    assert values["failed_ops_ratio"] == 1.0


def test_nonzero_exit_and_exception_count_as_failed(tmp_path):
    missing = str(tmp_path / "missing.txt")
    bad_exit = workloads.cli_op("validate", ["validate", "--graph", missing, "--format", "kv"],
                                workloads.validate_check(2))
    assert bad_exit.run()[0] == 2

    def boom():
        raise RuntimeError("op raised")

    good = workloads.cli_op("validate", ["validate", "--graph", missing], lambda out: True)
    m = run.measure([bad_exit, workloads.Op("raises", boom, lambda out: True), good], 0)
    assert (m.attempted, m.failed) == (3, 2)
    values, _ = run.end_to_end(m, [0.1], 75.0)
    assert values["failed_ops_ratio"] == pytest.approx(2 / 3)


def test_calibrated_latencies_are_scaled_to_the_reference_speed():
    ref = run.REFERENCE_CALIBRATION_S
    assert run.speed_scale(ref, ref) == 1.0
    # Calibration loops twice as slow as the reference: the machine runs at
    # half speed, so a measured time counts half.
    assert run.speed_scale(2 * ref, 2 * ref) == 0.5
    op = workloads.Op("noop", lambda: None, lambda out: True)
    m = run.measure([op, op], 0, calibrated=True)
    assert len(m.scales[0]) == 2 and all(k > 0 for k in m.scales[0])
    assert m.latencies() == [x * k for x, k in zip(m.rounds[0], m.scales[0])]
    assert run.measure([op], 0).scales == [[1.0]]


def test_closed_form_checks_reject_one_changed_coefficient():
    x = ["a", "b", "a"]
    check = workloads.grade_check("ab", x)
    good = ("1 * Z(b,b) + 1 * Z(a.a,a.a) + 1 * Z(a.b.b,a.b.b) + 2 * Z(a.b.a,a.b.a)")
    report = "[report]\ntitle = grade\nok = true\n[element]\ncanonical = %s\n" \
             "components-sum-back = pass\n"
    assert check((0, report % good))
    assert not check((0, report % good.replace("2 * ", "3 * ")))
    assert not check((3, report % good))


def test_tracer_restores_every_entry_point():
    import steinalg.cli
    import steinalg.morita

    before = (steinalg.cli.main, steinalg.morita.compose_pairs,
              steinberg.SteinbergElement.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert steinalg.morita.compose_pairs is not before[1]
        code, _ = workloads.call_cli(["validate", "--graph", os.devnull])
    finally:
        tracer.uninstall()
    assert code == 2
    assert tracer.layer_metrics(1)["cli.main.calls"] == 1
    assert tracer.layer_metrics(1)["graph.load_graph.errors"] == 1
    assert (steinalg.cli.main, steinalg.morita.compose_pairs,
            steinberg.SteinbergElement.__init__) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".work-*"))
    proc = run_bench(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_judge_applies_the_rule():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.judge(parent, [x - 20 for x in parent], "lower", 0.1)["verdict"] == "gain"
    assert compare.judge(parent, [x - 20 for x in parent], "lower", 0.1,
                         more_failures=True)["verdict"] != "gain"
    assert compare.judge(parent, [x + 20 for x in parent], "lower", 0.1)["verdict"] == \
        "regressed"
    assert compare.judge(parent, [x + 1 for x in parent], "lower", 0.1)["verdict"] == \
        "within bound"
    noisy = [100.0, 140.0] * 5
    assert compare.judge(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    # Eight wins in ten pairs are not enough for a gain.
    change = [x - 20 for x in parent[:8]] + [x + 1 for x in parent[8:]]
    assert compare.judge(parent, change, "lower", 0.25)["verdict"] != "gain"


def test_report_needs_ten_pairs(capsys):
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                          for m in SPEC["end_to_end"]}}
    records = [{"workload": "certify", "pair": i, "side": side, "result": result}
               for i in range(9) for side in ("parent", "change")]
    assert not compare.report(records, SPEC)
    assert "only 9 complete pairs" in capsys.readouterr().out
    records += [{"workload": "certify", "pair": 9, "side": side, "result": result}
                for side in ("parent", "change")]
    assert compare.report(records, SPEC)
