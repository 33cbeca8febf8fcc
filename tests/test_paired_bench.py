"""The summary and the run environment of tools/paired_bench.py, on fixed
values; no benchmark runs."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "tools" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

OTHER = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


def test_quartiles_interpolate_between_sorted_values():
    assert paired_bench.quartiles(OTHER[::-1]) == pytest.approx((1.225, 1.45, 1.675))
    assert paired_bench.quartiles([0.3]) == (0.3, 0.3, 0.3)


def test_gain_needs_nine_tenths_of_ten_pairs_and_a_gap_past_the_iqr():
    # the other side's IQR is 0.45: a gap of 0.5 clears it, 0.4 does not
    s = paired_bench.summary(OTHER, [x - 0.5 for x in OTHER], "lower")
    assert (s["wins"], s["pairs"], s["gain"]) == (10, 10, True)
    assert s["here"] == pytest.approx((0.725, 0.95, 1.175))
    assert not paired_bench.summary(OTHER, [x - 0.4 for x in OTHER], "lower")["gain"]
    # a large gap with 8 wins of 10, the other two pairs a loss and a tie
    here = [x - 1.0 for x in OTHER[:8]] + [OTHER[8] + 0.1, OTHER[9]]
    s = paired_bench.summary(OTHER, here, "lower")
    assert (s["wins"], s["gain"]) == (8, False)
    # 9 wins and a tie are enough
    s = paired_bench.summary(OTHER, here[:8] + [OTHER[8] - 1.0, OTHER[9]], "lower")
    assert (s["wins"], s["gain"]) == (9, True)


def test_fewer_than_ten_pairs_claim_no_gain():
    s = paired_bench.summary(OTHER[:9], [x - 1.0 for x in OTHER[:9]], "lower")
    assert (s["wins"], s["gain"]) == (9, False)


def test_higher_is_better_reverses_wins_and_gap():
    s = paired_bench.summary(OTHER, [x + 0.5 for x in OTHER], "higher")
    assert (s["wins"], s["gain"]) == (10, True)
    s = paired_bench.summary(OTHER, [x - 0.5 for x in OTHER], "higher")
    assert (s["wins"], s["gain"]) == (0, False)


def test_bench_env_drops_only_the_no_bytecode_switch(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = paired_bench.bench_env()
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env == {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def _stdout(cpu, correct=True, failed=0):
    """bench/run.py's output with the given CPU seconds per pass."""
    summary = {"workload": "stage-reduce", "passes": len(cpu), "cpu_s_per_pass": cpu}
    result = {"correct": correct, "failed": failed,
              "metrics": {"wall_s": {"value": 0.1, "unit": "s"}, "setup_s": {"value": 0.2, "unit": "s"}}}
    return "\n".join(["a line before", json.dumps(summary), json.dumps(result)]) + "\n"


def test_run_values_read_the_metrics_and_the_median_cpu_per_pass():
    assert paired_bench.run_values(_stdout([0.3, 0.1, 0.2])) == {"wall_s": 0.1, "setup_s": 0.2, "cpu_s_per_pass": 0.2}
    assert paired_bench.run_values(_stdout([0.3, 0.1]))["cpu_s_per_pass"] == pytest.approx(0.2)
    assert paired_bench.run_values(_stdout([0.1], correct=False)) is None
    assert paired_bench.run_values(_stdout([0.1], failed=1)) is None
    assert paired_bench.run_values(_stdout([0.1]).splitlines()[-1]) is None


def test_cpu_line_is_marked_evidence_only():
    line = paired_bench.cpu_line([0.3, 0.1, 0.2], [0.05, 0.15, 0.1])
    assert line == "cpu_s_per_pass (evidence only, no gain rule): median 0.2000 -> 0.1000"


def test_a_side_with_a_git_entry_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """Either checkout holding .git (a working tree, not a git archive copy)
    stops the run before any benchmark, with exit 2."""
    here, other = tmp_path / "here", tmp_path / "other"
    for side in (here, other):
        (side / "bench").mkdir(parents=True)
        (side / "bench" / "run.py").write_text("")
    monkeypatch.setattr(paired_bench, "HERE", here)

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(paired_bench, "bench", no_run)
    for side in (other, here):
        (side / ".git").mkdir()
        with pytest.raises(SystemExit) as exit_:
            paired_bench.main([str(other), "--workload", "stage-reduce", "--pairs", "1"])
        assert exit_.value.code == 2
        assert f"{side} holds .git" in capsys.readouterr().err
        (side / ".git").rmdir()
    # a .git file, as a worktree or submodule has, counts too
    (other / ".git").write_text("gitdir: elsewhere\n")
    with pytest.raises(SystemExit):
        paired_bench.main([str(other), "--workload", "stage-reduce", "--pairs", "1"])
