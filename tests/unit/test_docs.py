"""Every file and module the documentation names exists.

README.md and DESIGN.md are read before any change to the code, so a
name they keep after its file or module is gone sends the reader looking
for something that is not there.  Sub-command invocations are held by
``test_cli.py::test_every_documented_invocation_parses``.
"""

import glob
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = ["README.md", "DESIGN.md"]

#: a repository path under one of the three trees the docs point into;
#: ``*`` and ``{a,b}`` stand for what a shell would expand them to
_PATH = re.compile(r"(?<![\w./-])(?:src|benchmarks|tools)/[\w./*{},-]*[\w*}]")
#: a path written relative to ``src/repro/`` (``serve/service.py``), or a
#: module attribute written that way (``app/antarctica.CHECK_RTOL``): it
#: starts with one of the package's sub-packages
_SUBPACKAGES = sorted(
    p.name for p in (REPO_ROOT / "src" / "repro").iterdir() if (p / "__init__.py").exists()
)
_PACKAGE_PATH = re.compile(rf"(?<![\w./-])(?:{'|'.join(_SUBPACKAGES)})/[\w./*{{}},-]*[\w*}}]")
#: a dotted name under the package: a module, or an attribute of one
_MODULE = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


def _expand_braces(pattern: str) -> list[str]:
    m = re.search(r"\{([^{}]*)\}", pattern)
    if m is None:
        return [pattern]
    head, tail = pattern[: m.start()], pattern[m.end() :]
    return [p for alt in m.group(1).split(",") for p in _expand_braces(head + alt + tail)]


def _exists(pattern: str) -> bool:
    return all(glob.glob(str(REPO_ROOT / p)) for p in _expand_braces(pattern))


def _resolves(name: str) -> bool:
    """``name`` imports, or is an attribute chain on a module that does."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_path_exists(doc):
    text = (REPO_ROOT / doc).read_text()
    named = sorted(set(_PATH.findall(text)))
    assert len(named) >= 3, "extraction found suspiciously few paths"
    missing = [p for p in named if not _exists(p)]
    assert not missing, f"{doc} names paths that do not exist: {missing}"


def _package_path_exists(name: str) -> bool:
    return _exists(f"src/repro/{name}") or _resolves("repro." + name.replace("/", "."))


@pytest.mark.parametrize("doc", DOCS)
def test_every_package_relative_path_exists(doc):
    named = sorted(set(_PACKAGE_PATH.findall((REPO_ROOT / doc).read_text())))
    missing = [p for p in named if not _package_path_exists(p)]
    assert not missing, f"{doc} names paths under src/repro/ that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_module_resolves(doc):
    text = (REPO_ROOT / doc).read_text()
    named = sorted(set(_MODULE.findall(text)))
    assert len(named) >= 3, "extraction found suspiciously few modules"
    missing = [n for n in named if not _resolves(n)]
    assert not missing, f"{doc} names modules that do not resolve: {missing}"


def test_the_check_sees_a_stale_name():
    """The three rules catch what they exist for: a deleted module, a
    misnamed bench, and a module that became a package."""
    assert not _resolves("repro.perf.metrics")
    assert _PACKAGE_PATH.findall("in `verify/oracles.py`,") == ["verify/oracles.py"]
    assert not _package_path_exists("verify/oracles.py")
    assert _package_path_exists("verify/oracles/matvec.py")
    assert _package_path_exists("app/antarctica.CHECK_RTOL")
    assert not _exists("benchmarks/bench_ablation_opts.py")
    assert _exists("benchmarks/bench_ablation_{optimizations,cache,problem_size}.py")
    assert _PATH.findall("see `tools/check_bench.py`.") == ["tools/check_bench.py"]
