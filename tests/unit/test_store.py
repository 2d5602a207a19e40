"""Unit tests of repro.store: the record, the content digest, the cache.

The two checkpoint classes are thin schemas over one record
implementation, so every record guarantee is asserted once,
parametrized over both: any flipped field is refused, an unreadable
file is the same typed refusal, a failed write leaves the previous file
and nothing else, and the bytes on disk have not changed.
"""

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro import store
from repro.resilience import NewtonCheckpoint
from repro.serve import SolveScenario
from repro.transient import SCENARIOS, TransientCheckpoint, TransientScenario, get_scenario

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "goldens"
GOLDEN_STEPS = 6  # tools/regen_goldens.py TRANSIENT_GOLDEN_STEPS


def _newton() -> NewtonCheckpoint:
    return NewtonCheckpoint(
        step=3,
        x=np.linspace(-1.0, 1.0, 12),
        residual_norms=[10.0, 1.0, 0.1, 0.01],
        step_lengths=[1.0, 0.5, 1.0],
        linear_iterations=[4, 5, 6],
        linear_flags=["converged", "converged", "maxiter"],
    )


def _newton_chord() -> NewtonCheckpoint:
    """A Newton checkpoint with a chord step pending."""
    return dataclasses.replace(_newton(), jacobian_x=np.linspace(-2.0, 2.0, 12))


def _transient() -> TransientCheckpoint:
    rng = np.random.default_rng(0)
    return TransientCheckpoint(
        step=7,
        t_years=350.0,
        tol_abs=2.4e7,
        thickness=rng.uniform(0.0, 3000.0, 40),
        u=rng.normal(size=200),
        u_before=rng.normal(size=200),
        particles_xy=rng.uniform(0.0, 1.0e6, (16, 2)),
        particles_zeta=rng.uniform(0.0, 1.0, 16),
        particles_active=rng.uniform(size=16) > 0.2,
        scenario_digest="abc123",
        volumes=[1.0e16, 1.0e16],
        times=[0.0, 50.0],
        dts=[50.0],
        newton_iterations=[8],
    )


#: name -> (factory, bytes the schema writes for the object): a change
#: of the on-disk format shows here.  The transient record grew by one
#: 200-dof velocity with ``u_before`` (6044 bytes before); a Newton
#: checkpoint without a chord step pending writes what it always did
RECORDS = {
    "newton": (_newton, 2162),
    "newton-chord": (_newton_chord, 2510),
    "transient": (_transient, 7892),
}
EVERY_FIELD = [
    pytest.param(make, f.name, id=f"{name}-{f.name}")
    for name, (make, _) in RECORDS.items()
    for f in dataclasses.fields(make())
    if getattr(make(), f.name) is not None  # an unset optional field is not stored
]
EVERY_RECORD = [pytest.param(make, id=name) for name, (make, _) in RECORDS.items()]


def _flip(a: np.ndarray) -> np.ndarray:
    """``a`` with its last stored value minimally changed."""
    a = a.copy()
    flat = a.reshape(-1)
    kind = a.dtype.kind
    if kind == "f":
        flat[-1] = np.nextafter(flat[-1], np.inf)
    elif kind == "b":
        flat[-1] = not flat[-1]
    elif kind == "U":
        flat[-1] = str(flat[-1])[:-1] + "~"
    else:
        flat[-1] += 1
    return a


class TestRecord:
    @pytest.mark.parametrize("name", RECORDS)
    def test_roundtrip_at_parent_byte_count(self, tmp_path, name):
        make, parent_bytes = RECORDS[name]
        ckpt = make()
        path = ckpt.save(tmp_path / "ckpt")
        assert path == tmp_path / "ckpt.npz" and path.stat().st_size == parent_bytes
        back = type(ckpt).load(path)
        for f in dataclasses.fields(ckpt):
            want, got = getattr(ckpt, f.name), getattr(back, f.name)
            assert type(got) is type(want), f.name
            assert np.array_equal(got, want), f.name
        assert back.digest == ckpt.digest

    @pytest.mark.parametrize("make, field", EVERY_FIELD)
    def test_flipped_field_is_refused(self, tmp_path, make, field):
        path = make().save(tmp_path / "ckpt.npz")
        with np.load(path) as z:
            arrs = {k: z[k] for k in z.files}
        arrs[field] = _flip(arrs[field])  # silent corruption, stale digest
        np.savez(path, **arrs)
        with pytest.raises(ValueError, match="integrity"):
            type(make()).load(path)

    @pytest.mark.parametrize("keep", [0.0, 0.5], ids=["empty", "half"])
    @pytest.mark.parametrize("make", EVERY_RECORD)
    def test_truncated_file_is_refused(self, tmp_path, make, keep):
        path = make().save(tmp_path / "ckpt.npz")
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * keep)])
        with pytest.raises(ValueError, match="integrity"):
            type(make()).load(path)

    def test_a_file_without_a_field_is_refused_by_its_name(self, tmp_path):
        """A transient checkpoint written before ``u_before`` existed."""
        path = _transient().save(tmp_path / "ckpt.npz")
        with np.load(path) as z:
            arrs = {k: z[k] for k in z.files if k != "u_before"}
        np.savez(path, **arrs)
        with pytest.raises(ValueError, match="integrity.*u_before"):
            TransientCheckpoint.load(path)

    def test_a_newton_file_without_the_chord_field_sweeps_fresh(self, tmp_path):
        """``jacobian_x`` is optional: a file written before it existed
        (no key, digest over the other fields) loads as ``None``, while
        stripping it from a file that had it is refused."""
        path = _newton().save(tmp_path / "old.npz")
        with np.load(path) as z:
            assert "jacobian_x" not in z.files
        assert NewtonCheckpoint.load(path).jacobian_x is None
        path = _newton_chord().save(tmp_path / "chord.npz")
        with np.load(path) as z:
            arrs = {k: z[k] for k in z.files if k != "jacobian_x"}
        np.savez(path, **arrs)
        with pytest.raises(ValueError, match="integrity"):
            NewtonCheckpoint.load(path)

    def test_missing_file_is_not_an_integrity_failure(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TransientCheckpoint.load(tmp_path / "never-written.npz")

    @pytest.mark.parametrize("make", EVERY_RECORD)
    def test_interrupted_save_keeps_previous_file_and_no_temp(self, tmp_path, monkeypatch, make):
        first = make()
        path = first.save(tmp_path / "ckpt.npz")
        second = dataclasses.replace(first, step=first.step + 1)

        def die(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(store.os, "replace", die)
        with pytest.raises(KeyboardInterrupt):
            second.save(path)
        monkeypatch.undo()
        # the e2e workload sums every file in checkpoint_dir: no strays
        assert list(tmp_path.iterdir()) == [path]
        assert type(first).load(path).step == first.step

    def test_field_outside_schema_cannot_be_saved(self, tmp_path):
        @dataclasses.dataclass
        class Forgetful:
            x: np.ndarray = store.record_field(np.float64)
            forgotten: int = 0

        with pytest.raises(KeyError, match="dtype"):
            store.save_record(tmp_path / "r.npz", Forgetful(x=np.zeros(2)))
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# content digest
# ----------------------------------------------------------------------
#: a valid different value for every string-typed scenario field
OTHER_STR = {
    "name": "other",
    "description": "other",
    "family": "greenland",
    "preconditioner": "mdsc",
    "forcing": "ramp",
}
LABELS = ("name", "description")


def _changed(scenario, field: str):
    value = getattr(scenario, field)
    if isinstance(value, str):
        other = OTHER_STR[field]
    elif isinstance(value, bool):
        other = not value
    elif isinstance(value, int):
        other = value + 1
    else:
        other = value + 0.25
    assert other != value
    return dataclasses.replace(scenario, **{field: other})


class TestContentDigest:
    @pytest.mark.parametrize(
        "scenario",
        [SolveScenario(name="s"), TransientScenario(name="t")],
        ids=["solve", "transient"],
    )
    def test_every_field_but_labels_moves_digest(self, scenario):
        """A field missing from the hand-written key string would alias
        two different problems onto one cache entry."""
        for f in dataclasses.fields(scenario):
            moved = _changed(scenario, f.name).digest != scenario.digest
            assert moved == (f.name not in LABELS), f.name

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_library_digests_match_goldens(self, name):
        with np.load(GOLDEN_DIR / f"transient_{name}.npz") as golden:
            pinned = str(golden["scenario_digest"])
        assert get_scenario(name).with_steps(GOLDEN_STEPS).digest == pinned


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------
def make_cache():
    """ArtifactCache over stub problems; returns (cache, scenarios built)."""
    built: list[str] = []

    def builder(scenario):
        built.append(scenario.name)
        return SimpleNamespace(problem=object())

    return store.ArtifactCache(builder=builder), built


def scenario(name: str, **kw) -> SolveScenario:
    return SolveScenario(name=name, **kw)


class TestArtifactCache:
    def test_hit_miss_and_reuse(self):
        cache, built = make_cache()
        s = scenario("a")
        e1 = cache.get(s)
        e2 = cache.get(s)
        assert e1 is e2
        assert e2.hits == 1
        assert len(built) == 1
        assert cache.peek(scenario("other", num_layers=7)) is None
        assert len(built) == 1  # peek never builds

    def test_evicts_coldest(self, monkeypatch):
        monkeypatch.setattr(store, "MAX_ENTRIES", 2)
        cache, _ = make_cache()
        a, b, c = scenario("a"), scenario("b", num_layers=4), scenario("c", num_layers=5)
        cache.get(a)
        cache.get(b)
        cache.get(a)          # a is now warmer than b
        cache.get(c)          # evicts b
        assert cache.peek(a) is not None
        assert cache.peek(b) is None
        assert cache.peek(c) is not None

    def test_serve_path_is_the_same_class(self):
        """``benchmarks/e2e/trace.py`` patches ``repro.serve.cache.ArtifactCache.get``."""
        from repro.serve import cache as serve_cache

        assert serve_cache.ArtifactCache is store.ArtifactCache
        assert "get" in store.ArtifactCache.__dict__
