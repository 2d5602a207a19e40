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
    assert ["verify", "--suite", "kernels", "--fixture", "racy"] in ci
    assert [
        "profile", "--out", "/tmp/trace.json", "--openmetrics", "/tmp/metrics.om",
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
    "argv, message",
    [
        (["--kill-at", "-1"], "must be at least 0, got -1"),
        (["--steps", "3", "--kill-at", "50"], "must be a step of the run (0 to 2), got 50"),
    ],
)
def test_a_transient_kill_step_outside_the_run_exits_2(argv, message, capsys):
    """A negative kill step used to be ignored, and so did one past the
    last step: the run went to its end and exited 0."""
    with pytest.raises(SystemExit) as exc:
        main(["transient", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --kill-at: {message}" in err and "Traceback" not in err


def _checkpoint_of(scenario_name: str, path: Path) -> Path:
    """A loadable checkpoint whose only meaningful field is its scenario."""
    import numpy as np

    from repro.transient.checkpoint import TransientCheckpoint
    from repro.transient.scenarios import get_scenario

    empty = np.zeros(0)
    return TransientCheckpoint(
        step=1, t_years=1.0, tol_abs=1.0, thickness=empty, u=empty, u_before=empty,
        particles_xy=np.zeros((0, 2)), particles_zeta=empty,
        particles_active=np.zeros(0, dtype=bool),
        scenario_digest=get_scenario(scenario_name).digest,
    ).save(path)


@pytest.mark.parametrize(
    "checkpoint, message",
    [
        (lambda d: d / "missing.npz", "No such file"),
        (lambda d: d / "dir", "Is a directory"),
        (lambda d: d / "corrupt.npz", "failed its integrity check"),
        (lambda d: _checkpoint_of("antarctica-retreat", d / "other.npz"), "belongs to scenario"),
    ],
    ids=["missing", "directory", "corrupt", "other-scenario"],
)
def test_a_checkpoint_that_cannot_resume_exits_2(checkpoint, message, tmp_path, capsys, monkeypatch):
    """Each used to end in a traceback with exit 1, the scenario mismatch
    only after the engine was built."""
    import repro.transient.cli as transient_cli

    (tmp_path / "dir").mkdir()
    (tmp_path / "corrupt.npz").write_bytes(b"not a zip archive")
    monkeypatch.setattr(transient_cli, "TransientEngine", None)  # must not be reached
    with pytest.raises(SystemExit) as exc:
        main(["transient", "--resume", str(checkpoint(tmp_path))])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --resume: " in err and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transient", "antarctica-bogus"], "argument scenario: invalid choice: 'antarctica-bogus'"),
        (["verify", "--suite", "bogus"], "argument --suite: invalid choice: 'bogus'"),
        (["verify", "--fixture", "bogus"], "argument --fixture: invalid choice: 'bogus'"),
    ],
)
def test_an_unknown_name_exits_2(argv, message, capsys):
    """``transient`` used to end in a ``KeyError`` traceback and ``verify``
    in ``SystemExit(str)``: both exited 1."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("profile", "--nparts", "0"),
        ("profile", "--layers", "0"),
        ("profile", "--resolution-km", "nan"),
        ("profile", "--resolution-km", "-50"),
        ("profile", "--resolution-km", "inf"),
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
    "argv",
    [
        ["tune", "--check"], ["table3", "--nparts", "2"], ["perfdiff", "only-one.json"], [],
        ["tune", "--gpu", "H100"], ["profile", "--gpu", "H100"],
        ["perfdiff", "a.json", "b.json", "--top", "3"],
    ],
)
def test_a_flag_of_another_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
