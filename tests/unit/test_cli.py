"""The ``python -m repro`` command tree: every documented invocation parses,
and a flag belongs to exactly the sub-commands that read it."""

import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _documented_invocations(path: Path) -> list[list[str]]:
    """argv of every ``python -m repro ...`` in a README / workflow file."""
    lines = path.read_text().splitlines()
    found = []
    for i, line in enumerate(lines):
        _, sep, rest = line.partition("python -m repro ")
        if not sep:
            continue
        # shell (`\\`) and folded-YAML continuations: following flag lines
        rest = rest.rstrip("\\")
        for cont in lines[i + 1 :]:
            if not cont.strip().startswith("--"):
                break
            rest += " " + cont.strip().rstrip("\\")
        # stop at whatever ends the command in prose, shell or YAML
        argv = shlex.split(re.split(r"[`|#&\";]", rest)[0])
        if not argv[0].startswith("<"):  # `python -m repro <command>` is a placeholder
            found.append(argv)
    return found


@pytest.mark.parametrize("doc", ["README.md", ".github/workflows/ci.yml"])
def test_every_documented_invocation_parses(doc):
    invocations = _documented_invocations(REPO_ROOT / doc)
    assert len(invocations) >= 15, "extraction found suspiciously few commands"
    parser = build_parser()
    for argv in invocations:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{doc}: `python -m repro {' '.join(argv)}` no longer parses")
        assert callable(args.run)


def test_ci_gates_keep_their_flags():
    """Spot-check that extraction sees multi-line commands whole."""
    ci = _documented_invocations(REPO_ROOT / ".github/workflows/ci.yml")
    assert ["chaos", "--check", "--openmetrics", "/tmp/serve.om"] in ci
    assert [
        "profile", "--out", "/tmp/trace.json", "--snapshot", "/tmp/perf_snapshot.json",
        "--openmetrics", "/tmp/metrics.om",
    ] in ci


def test_transient_is_an_ordinary_subcommand(capsys):
    assert main(["transient", "--list"]) == 0
    assert "antarctica-retreat" in capsys.readouterr().out


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_transient_refuses_a_run_of_no_steps(steps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transient", "--steps", steps])
    assert exc.value.code == 2
    assert f"argument --steps: must be at least 1, got {int(steps)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("profile", "--nparts", "0"),
        ("profile", "--layers", "0"),
        ("profile", "--resolution-km", "nan"),
        ("profile", "--resolution-km", "-50"),
        ("tune", "--layers", "0"),
        ("tune", "--resolution-km", "inf"),
    ],
)
def test_a_size_that_builds_no_mesh_exits_2(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be " in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--workers", "0", "must be at least 1, got 0"),
        ("--workers", "-3", "must be at least 1, got -3"),
        ("--port", "70000", "must be 0-65535, got 70000"),
        ("--port", "-1", "must be 0-65535, got -1"),
    ],
)
def test_a_serve_setting_no_service_can_take_exits_2(flag, value, message, capsys):
    """Refused by the parser, before a service forks or binds anything."""
    with pytest.raises(SystemExit) as exc:
        main(["serve", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "value",
    ["gmres.iteration:abc", "gmres.iteration", "gmres.iteration:0", "gmres.iteration:-1",
     ":0.5", "gmres.iteration:nan"],
)
def test_a_planted_slowdown_that_plants_nothing_exits_2(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--plant-slow", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --plant-slow: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tune", "--check"], ["table3", "--nparts", "2"], ["perfdiff", "only-one.json"], [],
        ["tune", "--gpu", "H100"], ["profile", "--gpu", "H100"],
    ],
)
def test_a_flag_of_another_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
