"""Workload tests: shrunk configurations of the Table 7.1 workloads."""

import pytest

from repro.core.hive import boot_hive, boot_irix
from repro.hardware.machine import MachineConfig
from repro.hardware.params import NS_PER_MS, HardwareParams
from repro.sim.engine import Simulator
from repro.workloads import (
    OceanWorkload,
    Platform,
    PmakeWorkload,
    RaytraceWorkload,
)
from repro.unix.errors import FileError
from repro.workloads.base import WorkloadSetupError, pattern_bytes


def small_pmake():
    return PmakeWorkload(num_files=3, concurrency=2,
                         compute_per_job_ns=40 * NS_PER_MS)


def small_ocean():
    return OceanWorkload(nthreads=4, shared_pages=96, iterations=2,
                         compute_per_iter_ns=20 * NS_PER_MS)


def small_raytrace():
    return RaytraceWorkload(num_workers=4, scene_pages=64,
                            compute_per_worker_ns=30 * NS_PER_MS)


def irix_platform():
    sim = Simulator()
    k = boot_irix(sim)
    k.namespace.mount("/tmp", 1)
    k.namespace.mount("/usr", 2)
    k.namespace.mount("/results", 0)
    return Platform(k)


def hive_platform(ncells=4):
    sim = Simulator()
    hive = boot_hive(sim, num_cells=ncells)
    hive.namespace.mount("/tmp", 1)
    hive.namespace.mount("/usr", 2)
    hive.namespace.mount("/results", 0)
    return Platform(hive)


class TestPatternBytes:
    def test_deterministic(self):
        assert pattern_bytes("/a", 100) == pattern_bytes("/a", 100)

    def test_path_dependent(self):
        assert pattern_bytes("/a", 100) != pattern_bytes("/b", 100)

    def test_exact_length(self):
        assert len(pattern_bytes("/x", 12345)) == 12345


class TestPmake:
    def test_completes_on_irix(self):
        result = small_pmake().run(irix_platform())
        assert result.jobs_completed == 3
        assert result.jobs_failed == 0
        assert result.outputs_ok

    def test_completes_on_four_cells(self):
        result = small_pmake().run(hive_platform(4))
        assert result.jobs_completed == 3
        assert result.outputs_ok

    def test_hive_generates_remote_traffic(self):
        platform = hive_platform(4)
        small_pmake().run(platform)
        hive = platform.target
        assert hive.total_counter("faults.remote") > 0
        assert any(c.metrics.counter("opens.remote").value > 0
                   for c in hive.cells)

    def test_output_verification_catches_corruption(self):
        platform = hive_platform(4)
        wl = small_pmake()
        result = wl.run(platform)
        assert result.outputs_ok
        # Corrupt one output page on the platter + cache and re-verify.
        path = next(iter(wl.expected_outputs))
        kernel = platform.fs_owner_kernel(path)
        fs = kernel.local_fs_for(path)
        inode = fs.lookup(path)
        tag = ("file", fs.fs_id, inode.ino)
        pf = kernel.pfdats.lookup((tag, 0))
        assert pf is not None
        kernel.machine.memory.write_bytes(pf.frame, 10, b"CORRUPT")
        errors = platform.verify_file(path, wl.expected_outputs[path])
        assert errors

    def test_failed_setup_raises_with_its_cause(self):
        """A setup program that dies must fail the run with its own
        error, not a later ENOENT from the cache warm."""
        class BrokenSetup(PmakeWorkload):
            def setup_program(self, platform):
                def setup(ctx):
                    yield from ctx.compute(1_000)
                    raise FileError("EIO", "disk went away")
                return setup

        wl = BrokenSetup(num_files=3, concurrency=2,
                         compute_per_job_ns=40 * NS_PER_MS)
        with pytest.raises(WorkloadSetupError) as info:
            wl.run(hive_platform(4))
        assert info.value.status == 1
        assert isinstance(info.value.cause, FileError)
        assert info.value.cause.errno == "EIO"
        assert "status 1" in str(info.value)
        assert "disk went away" in str(info.value)


class TestOcean:
    def test_completes_on_irix_threads(self):
        result = small_ocean().run(irix_platform())
        assert result.jobs_completed == 4
        assert result.jobs_failed == 0

    def test_spanning_task_on_four_cells(self):
        platform = hive_platform(4)
        result = small_ocean().run(platform)
        assert result.jobs_completed == 4
        hive = platform.target
        # First-touch placement spread pages over all cells.
        task = hive.registry.task(1)
        homes = set(task.page_homes.values())
        assert homes == {0, 1, 2, 3}

    def test_write_shared_pages_become_remotely_writable(self):
        platform = hive_platform(4)
        hive = platform.target
        peak = {"v": 0}

        def sampler():
            while True:
                yield hive.sim.timeout(5_000_000)
                total = sum(c.firewall_mgr.remotely_writable_pages()
                            for c in hive.cells if c.alive)
                peak["v"] = max(peak["v"], total)

        hive.sim.process(sampler(), name="sampler")
        small_ocean().run(platform)
        # Most of the 96-page segment is write-imported across cells.
        assert peak["v"] >= 48


class TestRaytrace:
    def test_completes_on_irix(self):
        result = small_raytrace().run(irix_platform())
        assert result.jobs_completed == 4
        assert result.outputs_ok

    def test_workers_fork_across_cells(self):
        platform = hive_platform(4)
        result = small_raytrace().run(platform)
        assert result.jobs_completed == 4
        assert result.outputs_ok
        hive = platform.target
        # Scene pages were imported via the cross-cell COW search.
        remote_anon = sum(
            c.rpc.metrics.counter("calls").value for c in hive.cells)
        assert remote_anon > 0

    def test_scene_faults_use_careful_reference(self):
        platform = hive_platform(4)
        small_raytrace().run(platform)
        hive = platform.target
        careful_reads = sum(c.careful.reads for c in hive.cells)
        assert careful_reads > 0


class TestCrossConfigConsistency:
    def test_pmake_times_ordered_across_configs(self):
        """IRIX <= 1-cell << multi-cell (the Table 7.2 ordering), even
        at the shrunk scale."""
        t_irix = small_pmake().run(irix_platform()).elapsed_ns
        t_hive1 = small_pmake().run(hive_platform(1)).elapsed_ns
        t_hive4 = small_pmake().run(hive_platform(4)).elapsed_ns
        assert abs(t_hive1 - t_irix) / t_irix < 0.05
        assert t_hive4 > t_irix

    def test_ocean_insensitive_to_cells(self):
        t_irix = small_ocean().run(irix_platform()).elapsed_ns
        t_hive4 = small_ocean().run(hive_platform(4)).elapsed_ns
        assert abs(t_hive4 - t_irix) / t_irix < 0.30
