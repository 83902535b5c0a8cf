"""Tests for the command-line interface."""

import pytest

from repro._cli import build_parser, main
from repro.workloads import get_workload


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])

    def test_scale_parsed(self):
        args = build_parser().parse_args(["--scale", "0.5", "list"])
        assert args.scale == 0.5

    def test_port_bounds_parsed(self):
        args = build_parser().parse_args(
            ["serve", "--host", "127.0.0.1", "--port", "65535"]
        )
        assert args.port == 65535
        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.port == 0

    def test_profile_flag_parsed(self):
        args = build_parser().parse_args(["--profile", "list"])
        assert args.profile is True
        assert args.profile_limit == 30
        args = build_parser().parse_args(["list"])
        assert args.profile is False


#: Command lines that are usage errors: each must exit 2 through the
#: parser, before any work starts and without a traceback.
USAGE_ERRORS = {
    "scale-zero": ["--scale", "0", "list"],
    "scale-nan": ["--scale", "nan", "list"],
    "scaling-scales-zero": ["scaling", "stream", "--scales", "0"],
    "run-task-timeout-zero": ["--task-timeout", "0", "run", "stream"],
    "breakdown-task-timeout-zero": ["--task-timeout", "0", "breakdown", "stream"],
    "scale-inf": ["--scale", "inf", "list"],
    "headline-unknown-kernel": ["headline", "nosuch"],
    "breakdown-unknown-kernel": ["breakdown", "stream", "nosuch"],
    "sensitivity-unknown-kernel": ["sensitivity", "nosuch"],
    "simulate-launch-out-of-range": [
        "--scale", "0.02", "simulate", "stream", "--launch", "999",
    ],
    "serve-degrade-after-zero": ["serve", "--degrade-after", "0"],
    "serve-hang-timeout-negative": ["serve", "--hang-timeout", "-2"],
    "serve-port-out-of-range": ["serve", "--host", "127.0.0.1", "--port", "99999"],
    "serve-port-negative": ["serve", "--host", "127.0.0.1", "--port", "-1"],
    "request-port-out-of-range": [
        "request", "ping", "--host", "127.0.0.1", "--port", "70000",
    ],
    "request-port-without-host": ["request", "ping", "--port", "5"],
    "request-host-without-port": ["request", "ping", "--host", "127.0.0.1"],
    "resume-no-cache": [
        "--resume", "--no-cache", "--scale", "0.02", "headline", "stream",
    ],
    "run-resume": ["--resume", "--scale", "0.02", "run", "stream"],
    "scaling-clamped-scales": ["scaling", "stream", "--scales", "0.02", "0.03"],
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_errors_exit_2(case, capsys):
    with pytest.raises(SystemExit) as exc:
        main(USAGE_ERRORS[case])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err


def test_scaling_clamp_names_scales_and_blocks(capsys):
    blocks = get_workload("stream", scale=0.02).num_blocks
    assert get_workload("stream", scale=0.03).num_blocks == blocks
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "stream", "--scales", "0.02", "0.03"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "scales 0.02 and 0.03" in err
    assert f"({blocks} blocks)" in err


def test_scaling_distinct_scales_reach_the_sweep(monkeypatch):
    import repro.analysis.scaling

    swept = []
    monkeypatch.setattr(
        repro.analysis.scaling, "run_scaling",
        lambda kernel, scales, **kw: swept.append((kernel, scales)) or [],
    )
    assert main(["scaling", "lbm", "--scales", "0.03", "0.0625"]) == 0
    assert swept == [("lbm", (0.03, 0.0625))]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "convolutionSeparable" in out
        assert "202752" in out  # Table VI conv block count

    def test_model(self, capsys):
        assert main(["model"]) == 0
        out = capsys.readouterr().out
        assert "p0.05M100N4" in out

    def test_profile_wraps_command(self, capsys):
        assert main(["--profile", "--profile-limit", "5", "list"]) == 0
        captured = capsys.readouterr()
        assert "convolutionSeparable" in captured.out
        assert "cProfile" in captured.err
        assert "cumulative" in captured.err

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "NB" in out and "slowdown" in out

    def test_run_small_kernel(self, capsys):
        # stream is the cheapest benchmark end to end.
        assert main(["--scale", "0.02", "run", "stream"]) == 0
        out = capsys.readouterr().out
        assert "err(tbp)" in out and "stream" in out

    def test_headline_prints_geomean_rows(self, capsys):
        assert main(
            ["--jobs", "1", "--no-cache", "--scale", "0.02", "headline", "stream"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figs. 9-10 headline geometric means" in out
        lines = out.splitlines()
        kernel = next(l.split() for l in lines if l.startswith("stream "))
        errors, sizes = kernel[3:6], kernel[6:9]  # random, simpoint, tbpoint
        geomeans = {
            l.split()[0]: l.split()[1:]
            for l in lines
            if l.split()[:1] in (["random"], ["ideal-simpoint"], ["tbpoint"])
        }
        # The geomean of one kernel is that kernel's own figure.
        for i, technique in enumerate(("random", "ideal-simpoint", "tbpoint")):
            assert geomeans[technique] == [errors[i], sizes[i]], technique

    @pytest.mark.parametrize(
        "command", [["headline", "stream"], ["scaling", "stream", "--scales", "0.02"]],
        ids=["headline", "scaling"],
    )
    def test_no_cache_sweep_leaves_cache_root_empty(self, command, tmp_path):
        # The autouse fixture makes tmp_path the default cache root.
        assert main(["--jobs", "1", "--no-cache", "--scale", "0.02", *command]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_breakdown_subset(self, capsys):
        assert main(["--scale", "0.02", "breakdown", "stream"]) == 0
        out = capsys.readouterr().out
        assert "intra-launch" in out

    def test_simulate_basic(self, capsys):
        assert main(["--scale", "0.02", "simulate", "stream"]) == 0
        out = capsys.readouterr().out
        assert "issued warp insts" in out
        assert "wall cycles" in out
        assert "warp IPC" in out
        assert "block regenerations" in out
        # Memory statistics only appear with --mem-stats.
        assert "L1 hit rate" not in out

    def test_simulate_mem_stats_output_shape(self, capsys):
        assert main(
            ["--scale", "0.02", "simulate", "stream", "--mem-stats"]
        ) == 0
        out = capsys.readouterr().out
        for field in (
            "L1 hit rate",
            "L2 hit rate",
            "DRAM requests",
            "DRAM row-hit rate",
            "DRAM mean queue delay",
        ):
            assert field in out, field
        # Rates render as percentages, delays in cycles.
        assert "%" in out and "cycles" in out

    def test_cache_info_reports_journals(self, capsys, tmp_path):
        from repro.exec import SweepJournal

        journal = SweepJournal.for_sweep(
            "serve", ("p",), tmp_path / "journals"
        )
        journal.record("stream", 1)
        assert main(["--cache-dir", str(tmp_path), "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "journals directory" in out
        assert str(tmp_path / "journals") in out
        assert "newest sweep key" in out
        assert journal.path.stem in out

    def test_request_needs_kernel_for_compute(self):
        with pytest.raises(SystemExit) as exc:
            main(["request", "simulate"])
        assert exc.value.code == 2

    def test_request_rejects_kernel_for_stats(self):
        with pytest.raises(SystemExit) as exc:
            main(["request", "stats", "stream"])
        assert exc.value.code == 2

    def test_request_against_absent_server_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["request", "ping", "--socket", str(tmp_path / "no.sock")]
            )
