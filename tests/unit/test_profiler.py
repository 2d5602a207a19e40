"""Tests for the Nsight/rocprof profiler-interface emulation."""

import pytest

from repro.gpusim import (
    A100,
    MI250X_GCD,
    GPUSimulator,
    ProblemSize,
    NsightComputeReport,
    RocprofReport,
    profiler_report,
)


@pytest.fixture(scope="module")
def profiles():
    prob = ProblemSize(64_000)
    return {
        "a100": GPUSimulator(A100).run("optimized-jacobian", prob),
        "mi": GPUSimulator(MI250X_GCD).run("optimized-jacobian", prob),
    }


class TestNsight:
    def test_dram_bytes_matches_profile(self, profiles):
        rep = NsightComputeReport.from_profile(profiles["a100"])
        assert rep.dram_bytes() == pytest.approx(profiles["a100"].hbm_bytes)

    def test_read_write_split_sums(self, profiles):
        rep = NsightComputeReport.from_profile(profiles["a100"])
        total = rep.metrics["dram__bytes_read.sum"] + rep.metrics["dram__bytes_write.sum"]
        assert total == pytest.approx(profiles["a100"].hbm_bytes)

    def test_throughput_percentage_bounded(self, profiles):
        rep = NsightComputeReport.from_profile(profiles["a100"])
        pct = rep.metrics["dram__throughput.avg.pct_of_peak_sustained_elapsed"]
        assert 0.0 < pct <= 100.0

    def test_command_line_matches_appendix(self):
        cmd = NsightComputeReport.command_line("MyKernel")
        assert "nv-nsight-cu-cli" in cmd and "dram_bytes.sum" in cmd and "MyKernel" in cmd

    def test_render_contains_metrics(self, profiles):
        text = NsightComputeReport.from_profile(profiles["a100"]).render()
        assert "dram__bytes.sum" in text and "optimized-jacobian" in text


class TestRocprof:
    def test_formula_reproduces_bytes(self, profiles):
        """The appendix's TCC_EA formula recovers the simulated traffic."""
        rep = RocprofReport.from_profile(profiles["mi"])
        assert rep.gpu_bytes_moved() == pytest.approx(profiles["mi"].hbm_bytes, rel=0.01)

    def test_vgpr_columns(self, profiles):
        rep = RocprofReport.from_profile(profiles["mi"])
        assert rep.counters["arch_vgpr"] == profiles["mi"].arch_vgprs
        assert rep.counters["accum_vgpr"] == profiles["mi"].accum_vgprs

    def test_request_counters_consistent(self, profiles):
        rep = RocprofReport.from_profile(profiles["mi"])
        dm = profiles["mi"].data_movement
        scratch_reqs = int(profiles["mi"].timing.scratch_bytes / 64.0 / 2.0)
        assert rep.counters["TCC_EA_RDREQ_sum"] == dm.read_requests + scratch_reqs
        assert rep.counters["TCC_EA_WRREQ_sum"] == dm.write_requests + scratch_reqs
        # all our requests are full 64B requests
        assert rep.counters["TCC_EA_WRREQ_64B"] == rep.counters["TCC_EA_WRREQ_sum"]
        assert rep.counters["TCC_EA_RDREQ_32B"] == 0

    def test_input_file_matches_appendix(self):
        text = RocprofReport.input_file()
        assert "pmc : TCC_EA_RDREQ_32B_sum TCC_EA_RDREQ_sum" in text
        assert "kernel: StokesFOResid" in text
        assert "gpu: 0" in text

    def test_duration_matches_time(self, profiles):
        rep = RocprofReport.from_profile(profiles["mi"])
        assert rep.counters["DurationNs"] == int(profiles["mi"].time_s * 1e9)


class TestDispatch:
    def test_vendor_dispatch(self, profiles):
        assert isinstance(profiler_report(profiles["a100"]), NsightComputeReport)
        assert isinstance(profiler_report(profiles["mi"]), RocprofReport)
