"""CLI smoke tests."""

import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

from repro.cli import main
from repro.experiments import figures


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "table4" in out


def test_query_command(capsys):
    code = main([
        "query", "q1", "--protocol", "coor", "--parallelism", "2",
        "--rate", "200", "--duration", "10", "--warmup", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "protocol=coor" in out
    assert "checkpoints" in out
    # the summary is that of the equivalent RunRequest, said once
    from repro.experiments.parallel import RunRequest, execute_request

    result = execute_request(RunRequest(
        query="q1", protocol="coor", parallelism=2, rate=200.0,
        duration=10.0, warmup=2.0))
    m = result.metrics
    assert f"sink records     : {sum(m.sink_counts.values())}\n" in out
    assert (f"checkpoints      : {result.total_checkpoints()} "
            f"(avg {result.avg_checkpoint_time() * 1000:.2f} ms)") in out
    assert (f"ckpt bytes       : {m.checkpoint_bytes_uploaded} uploaded / "
            f"{m.checkpoint_bytes_materialized} materialized") in out
    assert f"message overhead : {m.overhead_ratio():.2f}x" in out


def test_query_with_failure(capsys):
    code = main([
        "query", "q1", "--protocol", "unc", "--parallelism", "2",
        "--rate", "200", "--duration", "14", "--warmup", "2",
        "--failure-at", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "restart time" in out
    assert "replayed messages" in out


def test_query_with_failure_scenario(capsys):
    code = main([
        "query", "q1", "--protocol", "unc", "--parallelism", "2",
        "--rate", "200", "--duration", "16", "--warmup", "2",
        "--failure-scenario", "trace:4@0;10@1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "failures injected: 2" in out
    assert "availability" in out
    assert "goodput" in out
    assert out.count("failed at") == 2


def test_query_prints_one_line_per_recovery(capsys):
    code = main([
        "query", "q12", "--protocol", "unc", "--parallelism", "4",
        "--rate", "300", "--duration", "20", "--warmup", "2",
        "--failure-scenario", "trace:3@0;9@1;15@2",
    ])
    assert code == 0
    lines = re.findall(r"^ +(recovery \d+: .*)$", capsys.readouterr().out,
                       re.MULTILINE)
    assert [line.split(":")[0] for line in lines] == [
        "recovery 1", "recovery 2", "recovery 3"]
    assert lines[0].startswith("recovery 1: worker 0 failed at t=5.00s, "
                               "detected t=6.00s, applied t=6.12s "
                               "(restart 118 ms), invalid 8 of 12, "
                               "replayed 570 messages")
    assert all("restart" in line and " of " in line and "replayed" in line
               for line in lines)


def test_query_with_adaptive_interval(capsys):
    code = main([
        "query", "q1", "--protocol", "unc", "--parallelism", "2",
        "--rate", "200", "--duration", "16", "--warmup", "2",
        "--failure-scenario", "poisson:mtbf=5,min_gap=4",
        "--interval-policy", "adaptive",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "adaptive interval" in out


def test_query_with_channel_capacity(capsys):
    code = main([
        "query", "q12", "--protocol", "coor", "--parallelism", "4",
        "--duration", "12", "--warmup", "2", "--hot-ratio", "0.3",
        "--channel-capacity", "1024",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "backpressure" in out
    assert "parks" in out


def test_query_rejects_rescale_without_failure(capsys):
    code = main([
        "query", "q1", "--protocol", "unc", "--parallelism", "2",
        "--rate", "200", "--rescale-to", "3",
    ])
    assert code == 2


def test_query_rejects_a_rescale_no_recovery_applies(capsys):
    code = main([
        "query", "q12", "--protocol", "unc", "--parallelism", "4",
        "--rate", "300", "--duration", "8", "--warmup", "2",
        "--failure-at", "3", "--rescale-to", "6", "--rescale-at", "0",
    ])
    assert code == 2
    assert "rescale_at must be an int >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--rate", "nan"), ("--rate", "inf"), ("--rate", "-5"), ("--rate", "0"),
    ("--rate", "fast"), ("--duration", "nan"), ("--duration", "inf"),
    ("--duration", "-3"), ("--hot-ratio", "2"), ("--hot-ratio", "-0.1"),
    ("--hot-ratio", "nan"), ("--shards", "auto"), ("--shards", "0"),
])
def test_query_rejects_a_bad_number_as_a_usage_error(capsys, flag, value):
    # each of these was a traceback out of the generators (exit 1)
    with pytest.raises(SystemExit) as exit_info:
        main(["query", "q12", "--parallelism", "2", flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, names", [
    # a zero interval spun forever at 100 % CPU; the next four died as
    # SimulationError / ValueError / GraphError tracebacks; the rest ran
    (["--checkpoint-interval", "0"], "checkpoint_interval"),
    (["--checkpoint-interval", "-1"], "checkpoint_interval"),
    (["--parallelism", "0"], "--parallelism"),
    (["--parallelism", "200"], "--parallelism"),
    (["--max-key-groups", "1"], "--max-key-groups"),
    (["--failure-at", "1", "--rescale-to", "200"], "--rescale-to"),
    (["--checkpoint-interval", "nan"], "checkpoint_interval"),
    (["--checkpoint-interval", "inf"], "checkpoint_interval"),
    (["--max-key-groups", "0"], "max_key_groups"),
    (["--warmup", "-1"], "warmup"),
    (["--warmup", "nan"], "warmup"),
    (["--channel-capacity", "-5"], "channel_capacity_bytes"),
])
def test_query_rejects_a_bad_run_shape_as_a_usage_error(capsys, flags, names):
    code = main(["query", "q12", "--parallelism", "2", "--duration", "2",
                 "--warmup", "1", *flags])
    assert code == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and names in line
    assert "sink records" not in captured.out  # nothing ran


@pytest.mark.parametrize("flags, names", [
    # the first two were ValueError tracebacks (exit 1); the next two ran
    # to the end, injected nothing and reported 100 % availability (a NaN
    # compares false with every horizon) or read the empty field as
    # worker 0; so did a misspelt parameter and a NaN --failure-at
    (["--failure-scenario", "single:at=x"], "'x'"),
    (["--failure-scenario", "poisson:mtbf=0"], "mtbf must be positive"),
    (["--failure-scenario", "poisson:mtbf=nan"], "finite number, got 'nan'"),
    (["--failure-scenario", "trace:5@"], "names no worker"),
    (["--failure-scenario", "single:at=3,wrker=1"], "'wrker'"),
    (["--failure-scenario", "flaky:mtbf=inf"], "finite number, got 'inf'"),
    (["--failure-at", "nan"], "failure_at"),
])
def test_query_rejects_a_malformed_failure_scenario_as_a_usage_error(
        capsys, flags, names):
    code = main(["query", "q1", "--parallelism", "2", "--rate", "100",
                 "--duration", "2", "--warmup", "1", *flags])
    assert code == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and names in line
    assert "Traceback" not in captured.err
    assert "sink records" not in captured.out  # nothing ran


def test_query_cyclic_with_unc(capsys):
    code = main([
        "query", "reachability", "--protocol", "unc", "--parallelism", "2",
        "--rate", "200", "--duration", "8", "--warmup", "2",
    ])
    assert code == 0


def test_run_command_writes_results(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHECKMATE_SCALE", "quick")
    code = main(["run", "table4", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert "Table IV" in out
    assert (tmp_path / "table4.txt").exists()
    assert code == 0  # deterministic per seed; every check holds at quick scale


def test_all_names_what_killed_a_figure_and_keeps_going(tmp_path, capsys,
                                                        monkeypatch):
    """``str()`` of an AssertionError is empty and of a KeyError one word:
    the sweep prints the exception type, the traceback goes to stderr,
    the remaining figures still run, and the exit status says 1."""
    from repro.experiments import figures

    def silent(scale):
        assert scale is None, ""

    def missing(scale):
        return {}["rate"]

    monkeypatch.setenv("CHECKMATE_SCALE", "quick")
    monkeypatch.setattr(figures, "ALL_EXPERIMENTS", {
        "silent": silent, "missing": missing,
        "fine": lambda scale: {"text": "all is well", "checks": []},
    })
    assert main(["all", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "[silent] FAILED: AssertionError: \n" in captured.out
    assert "[missing] FAILED: KeyError: 'rate'\n" in captured.out
    assert captured.err.count("Traceback (most recent call last)") == 2
    assert "in silent" in captured.err and "in missing" in captured.err
    assert "all is well" in captured.out
    assert (tmp_path / "fine.txt").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_all_names_the_request_that_killed_a_figure(tmp_path, capsys,
                                                    monkeypatch, jobs):
    """A run that raises is reported with its coordinates — and again,
    with the same real error, by a later figure sharing the request: the
    sweep keeps one runner across figures, which a failure must not
    poison."""
    from repro.experiments import figures
    from repro.experiments.parallel import RunRequest

    bad = RunRequest(query="q1", protocol="nope", parallelism=2, rate=220.0,
                     duration=3.0, warmup=1.0)

    def broken(scale):
        figures._prefetch([bad])
        return figures._fetch(bad)

    monkeypatch.setenv("CHECKMATE_SCALE", "quick")
    monkeypatch.setattr(figures, "ALL_EXPERIMENTS", {
        "first": broken, "second": broken,
        "fine": lambda scale: {"text": "all is well", "checks": []},
    })
    assert main(["all", "--jobs", jobs, "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    for name in ("first", "second"):
        assert (f"[{name}] FAILED: RunFailed: query=q1 protocol=nope "
                "parallelism=2 seed=7 rate=220 shard=- key=") in out
    assert out.count("ValueError: unknown protocol 'nope'") == 2
    assert "nothing in flight" not in out
    assert "all is well" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_query_with_arrival_process(capsys):
    code = main([
        "query", "q12", "--protocol", "cic", "--parallelism", "2",
        "--rate", "200", "--duration", "12", "--warmup", "2",
        "--failure-at", "5",
        "--arrival", "flash:at=4,mag=3,ramp=1,hold=2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "arrival process" in out
    assert "flash (spikes at 4" in out


def test_query_rejects_malformed_arrival_spec(capsys):
    code = main([
        "query", "q1", "--protocol", "coor", "--parallelism", "2",
        "--rate", "200", "--duration", "8", "--warmup", "2",
        "--arrival", "diurnal:amp=0.5",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "requires parameter 'period'" in err


@pytest.mark.parametrize("flags, names", [
    # each of the first nine ran to the end with 0 sink records and an
    # "infx" message overhead, or died as a ZeroDivisionError traceback;
    # the repeated parameter kept its last value; the bare message of a
    # bad --arrival lacked the "error: " the other flag's had
    (["--arrival", "diurnal:period=nan"], "'period' must be a finite number"),
    (["--arrival", "diurnal:period=inf"], "'period' must be a finite number"),
    (["--arrival", "flash:at=nan"], "'at' must be ';'-separated numbers"),
    (["--arrival", "flash:at=10,mag=inf"], "'mag' must be a finite number"),
    (["--arrival", "mmpp:low=nan"], "'low' must be a finite number"),
    (["--arrival", "mmpp:dwell_low=inf"], "'dwell_low' must be a finite"),
    (["--arrival", "drift:period=nan"], "'period' must be a finite number"),
    (["--arrival", "drift:period=30,zipf=nan"], "'zipf' must be a finite"),
    (["--arrival", "diurnal:period=60,phase=inf"], "'phase' must be a finite"),
    (["--arrival", "diurnal:period=60,period=30"], "'period' given twice"),
    (["--arrival", "diurnal:amp=0.5"], "requires parameter 'period'"),
    (["--failure-scenario", "single:at=3,at=4"], "'at' given twice"),
    (["--failure-scenario", "single:at=3,worker=-1"],
     "'worker' must be a whole number >= 0, got '-1'"),
    # a planned kill outside the measured window can never fire
    (["--failure-scenario", "single:at=1e9"], "+1e+09s can never fire"),
    (["--failure-scenario", "trace:1@0;4@1"], "+4s can never fire"),
    (["--failure-scenario", "correlated:at=-1"], "+-1s can never fire"),
])
def test_query_rejects_a_malformed_spec_of_either_grammar_the_same_way(
        capsys, flags, names):
    code = main(["query", "q12", "--parallelism", "2", "--duration", "4",
                 "--warmup", "1", *flags])
    assert code == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: malformed ") and names in line
    assert "sink records" not in captured.out  # nothing ran


def test_query_rejects_a_failure_at_outside_the_window(capsys):
    code = main(["query", "q12", "--parallelism", "2", "--duration", "4",
                 "--warmup", "1", "--failure-at", "9"])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("error: malformed failure scenario 'single kill of "
                    "worker 0 at +9s': a kill at +9s can never fire, the "
                    "measured window is [0, 4)s")


def test_query_says_when_a_worker_index_wraps(capsys):
    """The modulo wrap of an index beyond the deployment is the contract
    (a rescale can shrink the deployment under a planned kill); the
    failure block says so when it applies, and only then."""
    base = ["query", "q12", "--parallelism", "2", "--rate", "200",
            "--duration", "8", "--warmup", "1", "--failure-scenario"]
    assert main([*base, "correlated:at=3,k=2,worker=9"]) == 0
    out = capsys.readouterr().out
    assert ("failure scenario : correlated kill of 2 workers (w9..) at +3s"
            in out)
    assert "wrapped indices  : worker 9 -> 1 of 2, worker 10 -> 0 of 2" in out
    assert main([*base, "single:at=3,worker=1"]) == 0
    assert "wrapped indices" not in capsys.readouterr().out


def test_jobs_arg_accepts_auto_and_integers():
    from repro import cli

    assert cli._count_or_auto("auto") == "auto"
    assert cli._count_or_auto("3") == 3
    with pytest.raises(ValueError):
        cli._count_or_auto("many")


def test_query_jobs_auto_banner(capsys):
    # --jobs defaults to 0 == auto: the banner announces the resolution
    code = main([
        "query", "q1", "--protocol", "unc", "--parallelism", "2",
        "--rate", "200", "--duration", "6", "--warmup", "2",
    ])
    assert code == 0
    assert "[jobs] resolved to" in capsys.readouterr().out


def test_query_explicit_jobs_prints_no_banner(capsys):
    code = main([
        "query", "q1", "--protocol", "unc", "--parallelism", "2",
        "--rate", "200", "--duration", "6", "--warmup", "2",
        "--jobs", "1",
    ])
    assert code == 0
    assert "[jobs] resolved to" not in capsys.readouterr().out


def test_cache_stats_command(tmp_path, capsys):
    import pickle

    from repro.experiments.parallel import RunCache

    cache = RunCache(tmp_path)
    cache.put("deadbeef", {"x": list(range(200))})
    # a v7-era plain pickle must show up as a stale file, not an error
    (tmp_path / "oldformat.pkl").write_bytes(pickle.dumps({"y": 1}))
    assert main(["cache-stats", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries          : 1" in out
    assert "stale files      : 1" in out
    assert "quarantined" not in out
    assert "compressed ratio" in out
    # a damaged entry, once read, is moved aside and reported
    path = cache.path("deadbeef")
    path.write_bytes(path.read_bytes()[:-7])
    assert cache.get("deadbeef") == (False, None)
    assert main(["cache-stats", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries          : 0" in out
    assert "quarantined      : 1" in out


def test_cache_stats_missing_directory(tmp_path, capsys):
    assert main(["cache-stats", str(tmp_path / "nope")]) == 2
    assert "no cache directory" in capsys.readouterr().err


@pytest.mark.skipif(os.name != "posix", reason="process groups and SIGINT")
def test_ctrl_c_ends_a_sweep_cleanly_and_leaves_the_cache_reusable(tmp_path):
    """SIGINT to the whole process group, as a terminal sends it: one
    line on stderr, exit 130, no worker left, no ``*.tmp``, and what had
    finished is served to the next invocation."""
    cache, out = tmp_path / "cache", tmp_path / "out"
    command = [sys.executable, "-m", "repro", "all", "--scale", "quick",
               "--jobs", "2", "--cache-dir", str(cache), "--out", str(out)]
    env = {**os.environ, "PYTHONUNBUFFERED": "1",
           "PYTHONPATH": str(pathlib.Path(figures.__file__).parents[2])}
    sweep = subprocess.Popen(command, env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    first = next(iter(figures.ALL_EXPERIMENTS))
    for line in sweep.stdout:
        if line.startswith(f"[{first}] scale=quick"):
            break  # the first figure block is out; the second is running
    else:
        pytest.fail("the sweep ended before its first figure block")
    os.killpg(sweep.pid, signal.SIGINT)
    _, err = sweep.communicate(timeout=60)
    assert sweep.returncode == 130
    assert re.fullmatch(
        r"interrupted: \d+ finished, \d+ in flight abandoned\n", err), err
    with pytest.raises(ProcessLookupError):
        os.killpg(sweep.pid, 0)  # the pool's workers went with it
    assert list(cache.glob("*.pkl")) and not list(cache.glob("*.tmp"))
    again = subprocess.run(
        [sys.executable, "-m", "repro", "run", first, "--scale", "quick",
         "--jobs", "2", "--cache-dir", str(cache), "--out", str(out)],
        env=env, text=True, capture_output=True, timeout=120)
    assert again.returncode == 0, again.stderr
    assert "simulated=0 hit-ratio=100%" in again.stdout


def test_ctrl_c_on_a_serial_sweep_counts_the_run_it_interrupted(
        tmp_path, monkeypatch, capsys):
    """A serial runner executes inline: Ctrl-C lands inside a run, and
    that run is the one abandoned — not "0 in flight"."""
    from repro.experiments import parallel

    executed = []
    execute_request = parallel.execute_request

    def interrupted_third(request):
        executed.append(request)
        if len(executed) == 3:
            raise KeyboardInterrupt
        return execute_request(request)

    monkeypatch.setattr(parallel, "execute_request", interrupted_third)
    monkeypatch.setattr(figures, "_serial", None)  # a fresh serial runner
    status = main(["run", "table2", "--scale", "quick", "--jobs", "1",
                   "--out", str(tmp_path)])
    assert status == 130
    assert capsys.readouterr().err == (
        "interrupted: 2 finished, 1 in flight abandoned\n")
