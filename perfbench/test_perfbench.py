"""Tests of the benchmark itself, on small inputs.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import RegressWorkload, SampleWorkload, VerifyWorkload  # noqa: E402

sys.path.insert(0, str(run.SRC))
import volsample.cli as cli  # noqa: E402


def small_sample():
    return SampleWorkload(n=400, d=4, s=6)


def small_regress():
    return RegressWorkload(n=300, d=4, s=8, replicates=2)


def op(tmp_path, workload, ctx, op_seed=7, tracer=None):
    report = tmp_path / "report.json"
    if tracer is None:
        rec = run.run_op(cli, workload, ctx, op_seed, report)
    else:
        with tracer.installed(op_id=0):
            rec = run.run_op(cli, workload, ctx, op_seed, report)
    return rec, json.loads(report.read_text())


def test_good_ops_pass_their_checks(tmp_path):
    for workload in (small_sample(), small_regress()):
        ctx = workload.setup(tmp_path, seed=3)
        rec, _ = op(tmp_path, workload, ctx)
        assert rec["ok"], rec["problems"]


@pytest.mark.parametrize("corrupt", [
    lambda r: r["results"]["indices"].__setitem__(0, r["results"]["indices"][1]),
    lambda r: r["results"]["indices"].__setitem__(0, 400),
    lambda r: r["results"]["indices"].pop(),
    lambda r: r["results"].__setitem__("rejection_trials", 3),
    lambda r: r.__setitem__("error", {"code": "parse_error", "message": "x"}),
])
def test_corrupted_sample_output_fails_its_check(tmp_path, corrupt):
    workload = small_sample()
    ctx = workload.setup(tmp_path, seed=3)
    _, report = op(tmp_path, workload, ctx)
    assert workload.check(ctx, report) == []
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert workload.check(ctx, bad)


def test_rank_deficient_sample_fails_its_check(tmp_path):
    workload = small_sample()
    ctx = workload.setup(tmp_path, seed=3)
    _, report = op(tmp_path, workload, ctx)
    ctx["X"][report["results"]["indices"], 0] = 0.0
    assert any("rank" in p for p in workload.check(ctx, report))


@pytest.mark.parametrize("key", ["mean_total_loss", "averaged_total_loss"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_corrupted_regress_output_fails_its_check(tmp_path, key, value):
    workload = small_regress()
    ctx = workload.setup(tmp_path, seed=3)
    _, report = op(tmp_path, workload, ctx)
    bad = copy.deepcopy(report)
    bad["results"]["leverage"]["1.0"][key] = value
    assert workload.check(ctx, bad)


def test_corrupted_verify_output_fails_its_check():
    workload = VerifyWorkload()
    rows = [{"check": name, "pass": True} for name in workload.checks]
    good = {"results": {"checks": rows, "failures": 0}}
    assert workload.check({}, good) == []
    bad = copy.deepcopy(good)
    bad["results"]["checks"][1]["pass"] = False
    assert workload.check({}, bad)
    bad = copy.deepcopy(good)
    del bad["results"]["checks"][2]
    assert workload.check({}, bad)


def test_failing_op_counts_as_failed(tmp_path):
    workload = small_sample()
    ctx = workload.setup(tmp_path, seed=3)
    ctx["input"] = tmp_path / "missing.csv"
    rec = run.run_op(cli, workload, ctx, 1, tmp_path / "report.json")
    assert not rec["ok"]


def current_targets():
    found = []
    for module, attr, _, _ in tracing.TARGETS:
        owner, name = tracing.resolve(module, attr)
        found.append(owner.__dict__[name])
    return found


def test_wrappers_restore_the_original_functions():
    originals = current_targets()
    tracer = tracing.Tracer()
    with tracer.installed(op_id=0):
        assert all(p is not o for p, o in zip(current_targets(), originals))
    assert all(r is o for r, o in zip(current_targets(), originals))
    with pytest.raises(RuntimeError):
        with tracer.installed(op_id=1):
            raise RuntimeError("op failed")
    assert all(r is o for r, o in zip(current_targets(), originals))


def traced_metrics(tmp_path, workload, seed=3, op_seed=7):
    ctx = workload.setup(tmp_path, seed=seed)
    tracer = tracing.Tracer()
    rec, _ = op(tmp_path, workload, ctx, op_seed, tracer)
    assert rec["ok"], rec["problems"]
    return tracer.layer_metrics()


def test_removals_equal_n_minus_s_per_volume_draw(tmp_path):
    sample = small_sample()
    m = traced_metrics(tmp_path, sample)
    assert m["sampling.removals"] == sample.n - sample.s
    regress = small_regress()
    m = traced_metrics(tmp_path, regress)
    volume_draws = 2 * regress.replicates  # regvol and fastregvol
    assert m["sampling.removals"] == volume_draws * (regress.n - regress.s)


def test_inv_spd_calls_repeat_exactly(tmp_path):
    workload = SampleWorkload(n=2000, d=4, s=6)
    first = traced_metrics(tmp_path, workload, seed=3, op_seed=7)
    second = traced_metrics(tmp_path, workload, seed=4, op_seed=8)
    assert first["linalg.inv_spd.calls"] == second["linalg.inv_spd.calls"]
    # one initial inverse plus a refresh every 64 removals
    assert first["sampling.refreshes"] == (2000 - 6) // 64
    assert first["linalg.inv_spd.calls"] == 1 + first["sampling.refreshes"]


def test_one_seed_gives_identical_indices_twice(tmp_path):
    workload = small_sample()
    picks = []
    for sub in ("a", "b"):
        work = tmp_path / sub
        work.mkdir()
        ctx = workload.setup(work, seed=11)
        _, report = op(work, workload, ctx, op_seed=5)
        picks.append((ctx["input"].read_bytes(), report["results"]["indices"]))
    assert picks[0] == picks[1]


def test_every_per_layer_metric_is_reported(tmp_path):
    m = traced_metrics(tmp_path, small_regress())
    m.update({k: 0.0 for k in ("trace.op_p50_s", "trace.untraced_op_p50_s",
                               "trace.overhead")})
    assert set(run.metric_units("per_layer")) == set(m)


def test_probe_samples_during_the_block_and_restores_the_alarm():
    def mine(signum, frame):
        pass

    previous = signal.signal(signal.SIGALRM, mine)
    try:
        speed = probe.SpeedProbe()
        with speed.sampling():
            end = time.perf_counter() + 10 * probe.INTERVAL_S
            while time.perf_counter() < end:
                pass
        assert signal.getsignal(signal.SIGALRM) is mine
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert len(speed.samples) >= 2 + 5
        assert speed.in_block == pytest.approx(sum(speed.samples[1:-1]))
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_reference_seconds_scale_by_the_trimmed_kernel_mean():
    speed = probe.SpeedProbe()
    ref = probe.REFERENCE_KERNEL_S
    # a machine at half the reference speed, one preempted sample
    speed.samples = [2 * ref] * 9 + [1000 * ref]
    speed.in_block = 0.5
    assert speed.speed_factor() == pytest.approx(0.5)
    assert speed.reference_seconds(4.5) == pytest.approx(2.0)


def test_probed_op_reports_wall_and_reference_time(tmp_path):
    workload = small_sample()
    ctx = workload.setup(tmp_path, seed=3)
    speed = probe.SpeedProbe()
    rec = run.run_op(cli, workload, ctx, 7, tmp_path / "report.json", speed)
    assert rec["ok"], rec["problems"]
    assert rec["seconds"] == pytest.approx(speed.reference_seconds(rec["wall_s"]))
    assert 0 < rec["seconds"] < 100 * rec["wall_s"]
