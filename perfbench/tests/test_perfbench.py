"""Tests of the benchmark itself: generators, the correctness gate and the
tracer.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import collections
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import golden  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, aggregate  # noqa: E402

from linchar import linial  # noqa: E402
from linchar.ratpoly import RatPoly  # noqa: E402


@pytest.fixture(scope="module")
def gold():
    return golden.load()


# -- generators -------------------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    assert workloads.cli_run(7, 20) == workloads.cli_run(7, 20)
    assert workloads.sweep_run(7, 20) == workloads.sweep_run(7, 20)
    assert workloads.cli_run(7, 20) != workloads.cli_run(8, 20)
    assert workloads.sweep_run(7, 20) != workloads.sweep_run(8, 20)


def test_run_length_and_known_failures_do_not_depend_on_the_seed(gold):
    lengths, failures = set(), set()
    for seed in range(1, 21):
        ops = workloads.sweep_run(seed, 20)
        lengths.add((len(workloads.cli_run(seed, 20)), len(ops)))
        failures.add(sum(gold["classical-sweep"][golden.sweep_key(n, m)]["outcome"] != "ok" for n, m in ops))
    assert lengths == {(104, 160)}
    assert len(failures) == 1 and 0 < failures.pop() < 160
    assert workloads.verify_all_runs(20) == 1
    assert workloads.cli_run(1, 1) == workloads.cli_run(1, 20)  # never below MIN_QUERIES


def test_cli_blocks_have_fixed_composition_and_stay_in_the_pool(gold):
    pool = {golden.cli_key(argv) for argv in workloads.all_cli_queries()}
    assert pool == set(gold["cli-exceptional"])
    cli_pool = workloads.cli_pool()
    for seed in range(5):
        builds = collections.Counter()
        for block in workloads.cli_blocks(seed, workloads.CLI_ROUND_BLOCKS):
            assert len(block) == 26
            assert sum(argv[1] == "E8" and argv[0] in ("check-line", "charquasi") for argv in block) == 4
            builds.update((argv[1], int(argv[3])) for argv in block
                          if argv[0] in ("check-line", "charquasi") and argv[1] != "G2")
            for argv in block:
                assert golden.cli_key(argv) in pool
        # every round builds each pooled m of each system once
        assert builds == {(name, entry[0]): 1 for name in ("E6", "E7", "E8", "F4") for entry in cli_pool[name]}


def test_generator_caps():
    pool = workloads.cli_pool()
    h = workloads.EXCEPTIONAL["G2"][1]
    for m, q in pool["oracle"]:
        assert 1 <= m and m * h < q <= workloads.ORACLE_Q_MAX
    for name in workloads.EXCEPTIONAL:
        for m, d_adm, _d in pool[name]:
            assert 1 <= m <= workloads.CLI_M_MAX
            assert d_adm in workloads.admissible(name)
    for name, m in workloads.all_sweep_ops():
        assert 12 <= int(name[1:]) <= 28 and 1 <= m <= workloads.SWEEP_M_MAX


def test_golden_covers_every_pooled_sweep_operation(gold):
    keys = {golden.sweep_key(name, m) for name, m in workloads.all_sweep_ops()}
    assert keys == set(gold["classical-sweep"])
    for block in workloads.sweep_blocks(11, 8):
        assert {golden.sweep_key(name, m) for name, m in block} <= keys


def test_admissible_residues_match_the_program():
    from linchar.rootdata import RootSystemId

    for name in workloads.EXCEPTIONAL:
        want = linial.admissible_residues(RootSystemId.parse(name)).residues
        assert tuple(workloads.admissible(name)) == want


def test_sweep_runs_are_consecutive_in_m():
    for block in workloads.sweep_blocks(3, 2):
        for i in range(0, len(block), workloads.SWEEP_RUN):
            run_ = block[i:i + workloads.SWEEP_RUN]
            assert len({name for name, _m in run_}) == 1
            assert [m for _n, m in run_] == list(range(run_[0][1], run_[0][1] + workloads.SWEEP_RUN))


# -- correctness gate ----------------------------------------------------------------


def cheap_query(kind):
    pool = workloads.cli_pool()
    return workloads.cli_argv(kind, "G2", pool["G2"][3])


@pytest.mark.parametrize("kind", ["full", "constituent", "check-line", "toy"])
def test_checker_rejects_one_altered_coefficient(gold, kind):
    argv = cheap_query(kind)
    envelope = json.loads(workloads.cli_query(argv)["stdout"])
    assert golden.cli_problems(gold, argv, envelope) == []
    altered = json.loads(json.dumps(envelope))
    pairs = golden.cli_record(argv, altered)["polys"][0]  # lists inside `altered`
    pairs[0] = [str(int(pairs[0][0]) + 1), pairs[0][1]]
    assert altered != envelope
    assert golden.cli_problems(gold, argv, altered)


def test_sweep_checker_rejects_one_altered_coefficient(gold):
    name, m = workloads.all_sweep_ops()[0]
    poly, line, roots = workloads.sweep_op(name, m)
    assert golden.sweep_problems(gold, golden.sweep_record(name, m, poly, line, roots)) == []
    coeffs = list(poly.coeffs)
    coeffs[0] += 1
    bad = golden.sweep_record(name, m, RatPoly(coeffs), line, roots)
    assert golden.sweep_problems(gold, bad)


def test_checker_rejects_a_moved_root(gold):
    argv = ["limit-roots", "G2", "--json"]
    envelope = json.loads(workloads.cli_query(argv)["stdout"])
    assert golden.cli_problems(gold, argv, envelope) == []
    envelope["result"]["roots"]["roots"][0][0] += 1e-3
    assert golden.cli_problems(gold, argv, envelope)


def test_digest_ignores_envelope_fields(gold):
    argv = cheap_query("full")
    envelope = json.loads(workloads.cli_query(argv)["stdout"])
    envelope["timings_s"] = {"total": 0.1}
    envelope["linchar_version"] = "9.9"
    assert golden.cli_problems(gold, argv, envelope) == []


# -- tracing ---------------------------------------------------------------------------


def test_traced_and_untraced_runs_give_identical_digests():
    queries = [cheap_query(kind) for kind in ("full", "check-line", "toy")]
    queries.append(["oracle", "modq", "G2", "-m", "2", "-q", "40", "--json"])
    sweep = workloads.all_sweep_ops()[:2]

    def digests():
        out = [golden.cli_record(a, json.loads(workloads.cli_query(a)["stdout"]))["digest"] for a in queries]
        out += [golden.sweep_record(n, m, *workloads.sweep_op(n, m))["digest"] for n, m in sweep]
        return out

    plain = digests()
    tracer = Tracer()
    tracer.install()
    try:
        traced = digests()
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "linial.char_quasi", "verify.check_on_line_exact", "verify.find_roots"} <= names
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_tracer_counts_constituents_built_and_read():
    from linchar.rootdata import RootSystemId

    tracer = Tracer()
    tracer.install()
    try:
        qp = linial.char_quasi(RootSystemId.parse("G2"), 7777)  # m used nowhere else
        qp.constituent(1)
        qp.constituent(7)  # the same residue mod 6
        qp.value(2)
    finally:
        tracer.uninstall()
    assert tracer.counts["linial.constituents_built"] == 6
    assert tracer.constituents_read == 2
    assert "ehrhart.apply_shift_qp" in {s[0] for s in tracer.spans}


def test_uninstall_restores_every_binding():
    import linchar
    from linchar import acceptance, verify
    from linchar.ehrhart import QuasiPoly

    before = (linial.char_quasi, verify.char_quasi, linchar.char_quasi, acceptance.ALL_CHECKS,
              QuasiPoly.constituent)
    tracer = Tracer()
    tracer.install()
    assert verify.char_quasi is not before[1] and linchar.char_quasi is not before[2]
    tracer.uninstall()
    after = (linial.char_quasi, verify.char_quasi, linchar.char_quasi, acceptance.ALL_CHECKS,
             QuasiPoly.constituent)
    assert after == before


def test_self_time_subtracts_direct_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["b", 2.0, 4.0, 1, 0],
        ["a", 7.0, 8.0, 0, 0],
        ["a", 7.2, 7.5, 3, 0],  # recursion: counted once in inclusive time
    ]
    self_s, incl_s = aggregate(spans)
    assert self_s == pytest.approx({"op": 4.0, "a": 4.0, "b": 2.0})
    assert incl_s == pytest.approx({"op": 10.0, "a": 6.0, "b": 2.0})
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    measured = run.Measured()
    measured.latencies = measured.walls = [0.5, 1.5]
    measured.refs = [0.01, 0.01]
    measured.bits = [10, 20]
    measured.rss_kb = 1024
    measured.traces = [{"spans": [["op", 0.0, 1.0, -1, 0]], "counts": {}, "read": 0}]
    e2e = run.end_to_end(measured, 0.5)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert all(value > 0 for value, _unit in e2e.values())
    layers, _notes = run.per_layer(measured, measured, {f"cli.import_{p}_s": 0.1 for p in ("numpy", "scipy", "linchar")})
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert (e2e.get(m["name"]) or layers[m["name"]])[1] == m["unit"]


def test_reference_window_and_sampler():
    samples = [1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    refs = reference.windowed(samples, len(samples) - 1)
    assert len(refs) == 9 and refs[0] == 1.0 and refs[-1] == 2.0  # one outlier sample does not count
    with reference.Sampler() as sampler:
        time.sleep(reference.SAMPLE_INTERVAL_S * 2.5)
    assert len(sampler.samples) >= 3 and 0 < sampler.during < sum(sampler.samples)
    assert sampler.ref > 0


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "verify-all", "--seed", "1", "--seconds", "1"]) == 2
