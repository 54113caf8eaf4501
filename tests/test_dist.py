"""Tests for the distributed layer: interconnect, partitioner, pool, driver.

The load-bearing guarantee is *bit-identity*: ``DistSpGEMM`` must return
exactly the matrix a single-device run of the same inner algorithm
produces -- including after a mid-run device loss -- with the distributed
costs (broadcast, gather, loss detection) showing up only in the report.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.dist import (
    NVLINK,
    PCIE3,
    PRESETS,
    DevicePool,
    DistSpGEMM,
    Interconnect,
    estimate_row_work,
    parse_interconnect,
    partition_rows,
)
from repro.errors import DeviceConfigError, DeviceLostError
from repro.gpu.device import K40, P100, VEGA56
from repro.gpu.faults import FaultPlan
from repro.obs import events as E
from repro.obs.export import chrome_trace, trace_summary
from repro.obs.metrics import check_conservation
from repro.sparse import generators
from repro.sparse.csr import CSRMatrix

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def dist_vs_single(A, B=None, *, precision="single", n_devices=3, **kw):
    """Run both paths and return (single result, dist result)."""
    B = A if B is None else B
    single = repro.multiply(A, B, algorithm="proposal", precision=precision)
    dist = DistSpGEMM(n_devices=n_devices, **kw)
    return single, dist.multiply(A, B, precision=precision)


def assert_same_matrix(c1: CSRMatrix, c2: CSRMatrix) -> None:
    assert c1.shape == c2.shape
    np.testing.assert_array_equal(c1.rpt, c2.rpt)
    np.testing.assert_array_equal(c1.col, c2.col)
    np.testing.assert_array_equal(c1.val, c2.val)


class TestInterconnect:
    def test_transfer_alpha_beta(self):
        link = Interconnect("t", link_gbps=10.0, latency_s=1e-6,
                            topology="staged")
        assert link.transfer_seconds(0) == 0.0
        assert link.transfer_seconds(-5) == 0.0
        assert link.transfer_seconds(10_000_000_000) == \
            pytest.approx(1e-6 + 1.0)

    def test_staged_broadcast_serializes(self):
        t = PCIE3.transfer_seconds(1 << 20)
        assert PCIE3.broadcast_seconds(1 << 20, 4) == pytest.approx(4 * t)

    def test_p2p_broadcast_pipelines(self):
        one = NVLINK.transfer_seconds(1 << 20)
        wall = NVLINK.broadcast_seconds(1 << 20, 8)
        assert wall < 8 * one            # beats serialized
        assert wall >= one               # but the payload still crosses a link

    def test_broadcast_never_exceeds_link_occupancy(self):
        # the conservation law's premise, for both presets
        for link in PRESETS.values():
            for n in (1, 2, 3, 8, 17):
                assert link.broadcast_seconds(12345, n) <= \
                    n * link.transfer_seconds(12345) + 1e-15

    def test_gather_staged_sums_p2p_maxes(self):
        sizes = [100, 5000, 20]
        per = [PCIE3.transfer_seconds(s) for s in sizes]
        assert PCIE3.gather_seconds(sizes) == pytest.approx(sum(per))
        per = [NVLINK.transfer_seconds(s) for s in sizes]
        assert NVLINK.gather_seconds(sizes) == pytest.approx(max(per))
        assert NVLINK.gather_seconds([]) == 0.0

    def test_parse_presets_and_passthrough(self):
        assert parse_interconnect("pcie") is PCIE3
        assert parse_interconnect("nvlink") is NVLINK
        assert parse_interconnect(NVLINK) is NVLINK
        with pytest.raises(DeviceConfigError, match="unknown interconnect"):
            parse_interconnect("carrier-pigeon")

    def test_invalid_configs_rejected(self):
        with pytest.raises(DeviceConfigError, match="topology"):
            Interconnect("x", 10.0, 1e-6, "mesh")
        with pytest.raises(DeviceConfigError, match="positive"):
            Interconnect("x", 0.0, 1e-6, "staged")
        with pytest.raises(DeviceConfigError, match="positive"):
            Interconnect("x", 10.0, -1e-6, "p2p")


class TestPartitioner:
    @SETTINGS
    @given(n=st.integers(0, 60), seed=st.integers(0, 5),
           n_devices=st.integers(1, 6))
    def test_panels_tile_rows_disjointly(self, n, seed, n_devices):
        A = generators.random_csr(n, max(n, 1), 4, rng=seed)
        part = partition_rows(A, A, [1.0] * n_devices)
        assert len(part.panels) == n_devices
        cursor = 0
        for lo, hi in part.panels:         # contiguous, ordered, half-open
            assert lo == cursor and hi >= lo
            cursor = hi
        assert cursor == n

    @SETTINGS
    @given(n=st.integers(1, 60), seed=st.integers(0, 5),
           weights=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=5))
    def test_balance_bound_holds(self, n, seed, weights):
        A = generators.random_csr(n, n, 5, rng=seed)
        part = partition_rows(A, A, weights)
        for i, w in enumerate(part.panel_work):
            assert w <= part.balance_bound(i) * (1 + 1e-12) + 1e-9

    def test_heavier_device_gets_more_work(self):
        A = generators.banded(400, 10, rng=0)
        part = partition_rows(A, A, [3.0, 1.0])
        assert part.panel_work[0] > part.panel_work[1]

    def test_row_work_sees_dense_rows(self):
        # one dense row must outweigh many near-empty ones
        dense = np.zeros((40, 40))
        dense[7, :] = 1.0
        dense[np.arange(40), np.arange(40)] = 1.0
        A = CSRMatrix.from_dense(dense)
        work = estimate_row_work(A, A)
        assert work[7] > 5 * np.delete(work, 7).max()

    def test_empty_matrix(self):
        A = CSRMatrix.empty((0, 8))
        part = partition_rows(A, A, [1.0, 1.0])
        assert part.panels == ((0, 0), (0, 0))
        assert part.total_work == 0.0

    def test_bad_weights_rejected(self):
        A = generators.banded(10, 2, rng=0)
        with pytest.raises(ValueError, match="positive device weights"):
            partition_rows(A, A, [])
        with pytest.raises(ValueError, match="positive device weights"):
            partition_rows(A, A, [1.0, 0.0])

    def test_summary_mentions_every_panel(self):
        A = generators.banded(100, 6, rng=0)
        part = partition_rows(A, A, [1.0, 1.0, 1.0])
        text = part.summary()
        assert text.count("panel ") == 3 and "imbalance" in text


class TestDevicePool:
    def test_uniform(self):
        pool = DevicePool.uniform(3)
        assert [s.device_id for s in pool.slots] == ["dev0", "dev1", "dev2"]
        assert all(s.spec is P100 for s in pool.slots)
        assert "3x" in pool.describe()

    def test_from_names_case_insensitive(self):
        pool = DevicePool.from_names(["p100", "K40", "vega56"])
        assert [s.spec for s in pool.slots] == [P100, K40, VEGA56]

    def test_from_names_unknown_preset(self):
        with pytest.raises(DeviceConfigError, match="unknown device"):
            DevicePool.from_names(["P100", "H100"])

    def test_mark_lost_shrinks_active_and_weights(self):
        pool = DevicePool.from_names(["P100", "K40"])
        assert list(pool.weights()) == [P100.mem_bandwidth_gbps,
                                        K40.mem_bandwidth_gbps]
        pool.mark_lost("dev0")
        assert [s.device_id for s in pool.active] == ["dev1"]
        assert list(pool.weights()) == [K40.mem_bandwidth_gbps]


class TestBitIdentity:
    @pytest.mark.parametrize("make", [
        lambda: generators.banded(300, 14, rng=1),
        lambda: generators.random_csr(120, 120, 9, rng=2),
        lambda: generators.block_dense(60, 10, rng=3),
        lambda: generators.poisson2d(16),
    ])
    @pytest.mark.parametrize("n_devices", [1, 3, 4])
    def test_matches_single_device(self, make, n_devices):
        A = make()
        single, dist = dist_vs_single(A, n_devices=n_devices)
        assert_same_matrix(single.matrix, dist.matrix)
        assert dist.report.n_products == single.report.n_products
        assert dist.report.nnz_out == single.report.nnz_out

    def test_double_precision(self):
        A = generators.banded(150, 8, rng=4)
        single, dist = dist_vs_single(A, precision="double")
        assert_same_matrix(single.matrix, dist.matrix)

    def test_heterogeneous_pool(self):
        A = generators.banded(250, 12, rng=5)
        pool = DevicePool.from_names(["P100", "K40", "VEGA56"])
        single = repro.multiply(A, A, precision="single")
        dist = DistSpGEMM(pool=pool, interconnect="nvlink")
        assert_same_matrix(single.matrix,
                           dist.multiply(A, A, precision="single").matrix)

    def test_more_devices_than_rows(self):
        A = generators.banded(5, 2, rng=6)
        single, dist = dist_vs_single(A, n_devices=8)
        assert_same_matrix(single.matrix, dist.matrix)

    def test_steady_state_replays_identically(self):
        A = generators.banded(200, 10, rng=7)
        dist = DistSpGEMM(n_devices=4)
        first = dist.multiply(A, A, precision="single")
        second = dist.multiply(A, A, precision="single")
        assert second.report.numeric_only
        assert_same_matrix(first.matrix, second.matrix)


class TestDeviceLoss:
    def test_loss_preserves_result_and_reports(self):
        A = generators.banded(300, 12, rng=8)
        single = repro.multiply(A, A, precision="single")
        dist = DistSpGEMM(n_devices=4)
        faults = FaultPlan().fail_device("dev1")
        res = dist.multiply(A, A, precision="single", faults=faults)
        assert_same_matrix(single.matrix, res.matrix)
        assert dist.devices_lost == 1
        assert res.resilience is not None and res.resilience.recovered
        assert res.resilience.attempts[-1].strategy == "repartition"
        lost = [e for e in res.report.events if e.kind == E.DEVICE_LOST]
        assert [e.name for e in lost] == ["dev1"]
        assert lost[0].attrs["survivors"] == 3
        # the surviving panels repartitioned over three devices
        assert len([p for p in dist.last_partition.panels
                    if p[1] > p[0]]) <= 3
        check_conservation(res.report)

    def test_loss_charges_detection_to_comm(self):
        A = generators.banded(100, 6, rng=9)
        dist = DistSpGEMM(n_devices=2)
        faults = FaultPlan().fail_device("dev0")
        res = dist.multiply(A, A, precision="single", faults=faults)
        detect = [e for e in res.report.events
                  if e.kind == E.COMM and e.name == "detect"]
        assert len(detect) == 1
        assert detect[0].attrs["seconds"] == pytest.approx(
            repro.dist.LOSS_DETECT_SECONDS)

    def test_all_devices_lost_raises(self):
        A = generators.banded(50, 4, rng=10)
        dist = DistSpGEMM(n_devices=2)
        faults = FaultPlan().fail_device("dev.*", times=None)
        with pytest.raises(DeviceLostError, match="all pool devices lost"):
            dist.multiply(A, A, precision="single", faults=faults)

    def test_pool_stays_shrunk_for_later_multiplies(self):
        A = generators.banded(80, 5, rng=11)
        dist = DistSpGEMM(n_devices=3)
        dist.multiply(A, A, precision="single",
                      faults=FaultPlan().fail_device("dev2"))
        res = dist.multiply(A, A, precision="single")
        assert res.resilience is None
        devices = {k.device for k in res.report.kernels}
        assert "dev2" not in devices and devices


class TestCommFaults:
    def test_transient_comm_fault_retried_once(self):
        A = generators.banded(200, 10, rng=21)
        single = repro.multiply(A, A, precision="single")
        dist = DistSpGEMM(n_devices=3)
        faults = FaultPlan().fail_comm("dev1", times=1)
        res = dist.multiply(A, A, precision="single", faults=faults)
        assert_same_matrix(single.matrix, res.matrix)
        # one retry transfer charged, no device lost, no recovery episode
        retries = [e for e in res.report.events
                   if e.kind == E.COMM and e.name == "retry"]
        assert len(retries) == 1
        assert retries[0].attrs["device"] == "dev1"
        assert retries[0].attrs["nbytes"] > 0
        assert res.resilience is None
        assert dist.devices_lost == 0
        assert [f.kind for f in faults.fired] == ["comm"]
        check_conservation(res.report)

    def test_persistent_comm_fault_escalates_to_loss(self):
        A = generators.banded(200, 10, rng=22)
        single = repro.multiply(A, A, precision="single")
        dist = DistSpGEMM(n_devices=3)
        faults = FaultPlan().fail_comm("dev1", times=2)
        res = dist.multiply(A, A, precision="single", faults=faults)
        assert_same_matrix(single.matrix, res.matrix)
        assert dist.devices_lost == 1
        assert res.resilience is not None and res.resilience.recovered
        assert any("comm failure (retry exhausted)" in a.error
                   for a in res.resilience.attempts)
        lost = [e for e in res.report.events if e.kind == E.DEVICE_LOST]
        assert [e.name for e in lost] == ["dev1"]
        check_conservation(res.report)

    def test_comm_escalation_does_not_poison_broadcast_cache(self):
        # round 1's broadcast dies mid-way; round 2 must re-ship B in full
        A = generators.banded(150, 8, rng=23)
        dist = DistSpGEMM(n_devices=3)
        res = dist.multiply(A, A, precision="single",
                            faults=FaultPlan().fail_comm("dev1", times=2))
        bcasts = [e for e in res.report.events
                  if e.kind == E.COMM and e.name == "broadcast"]
        # after the loss, the rebroadcast to the survivors is uncached
        assert all(not e.attrs["cached"] for e in bcasts)
        # next multiply on the intact (shrunken) pool reuses the cache
        res2 = dist.multiply(A, A, precision="single")
        bcasts2 = [e for e in res2.report.events
                   if e.kind == E.COMM and e.name == "broadcast"]
        assert all(e.attrs["cached"] for e in bcasts2)


class TestBroadcastCache:
    def test_same_b_is_not_reshipped(self):
        A = generators.banded(120, 8, rng=12)
        dist = DistSpGEMM(n_devices=2, interconnect="nvlink")
        first = dist.multiply(A, A, precision="single")
        second = dist.multiply(A, A, precision="single")

        def bcasts(rep):
            return [e for e in rep.events
                    if e.kind == E.COMM and e.name == "broadcast"]

        assert all(e.attrs["nbytes"] > 0 and not e.attrs["cached"]
                   for e in bcasts(first.report))
        assert all(e.attrs["nbytes"] == 0 and e.attrs["cached"]
                   for e in bcasts(second.report))

    def test_value_change_ships_only_values(self):
        A = generators.banded(120, 8, rng=13)
        A2 = CSRMatrix(A.rpt, A.col, A.val * 2.0, A.shape, check=False)
        dist = DistSpGEMM(n_devices=2)
        dist.multiply(A, A, precision="single")
        res = dist.multiply(A, A2, precision="single")
        from repro.types import Precision
        delta = A2.nnz * Precision.SINGLE.value_bytes
        bcasts = [e for e in res.report.events
                  if e.kind == E.COMM and e.name == "broadcast"]
        assert all(e.attrs["nbytes"] == delta and e.attrs["cached"]
                   for e in bcasts)
        assert delta < A2.device_bytes(Precision.SINGLE)

    def test_cache_disabled_always_ships(self):
        A = generators.banded(60, 4, rng=14)
        dist = DistSpGEMM(n_devices=2, broadcast_cache=False)
        dist.multiply(A, A, precision="single")
        res = dist.multiply(A, A, precision="single")
        bcasts = [e for e in res.report.events
                  if e.kind == E.COMM and e.name == "broadcast"]
        assert all(e.attrs["nbytes"] > 0 for e in bcasts)


class TestObservability:
    @pytest.fixture()
    def dist_report(self):
        A = generators.banded(200, 10, rng=15)
        return DistSpGEMM(n_devices=3, interconnect="nvlink").multiply(
            A, A, precision="single", matrix_name="banded200").report

    def test_conservation(self, dist_report):
        check_conservation(dist_report)

    def test_comm_metrics(self, dist_report):
        m = dist_report.metrics()
        assert m.total("dist_comm_bytes_total", direction="broadcast") > 0
        assert m.total("dist_comm_bytes_total", direction="gather") > 0
        assert m.total("dist_comm_transfers_total") == 6  # 3 bcast + 3 gather
        link = m.total("dist_comm_link_seconds_total")
        wall = dist_report.phase_seconds["comm"]
        assert wall <= link + 1e-12

    def test_panel_metrics_cover_all_rows(self, dist_report):
        m = dist_report.metrics()
        assert m.total("dist_panels_total") == 3
        assert m.total("dist_panel_rows") == 200
        for d in ("dev0", "dev1", "dev2"):
            assert m.total("dist_panel_seconds", device=d) > 0

    def test_trace_summary_sections(self, dist_report):
        text = trace_summary(dist_report)
        assert "[comm]" in text and "[dist]" in text
        assert "comm broadcast device=dev0" in text
        assert "panel dev2 rows=" in text
        assert "critical=True" in text
        # kernels carry their device prefix
        assert "dev0:" in text

    def test_chrome_trace_per_device_tracks(self, dist_report):
        doc = chrome_trace(dist_report)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "process_name"}
        assert {"dev0", "dev1", "dev2"} <= names
        assert any(e.get("ph") == "M" and e["name"] == "thread_name"
                   and e["args"]["name"] == "interconnect"
                   for e in doc["traceEvents"])
        comm = [e for e in doc["traceEvents"] if e.get("cat") == "comm"]
        assert comm and all(e["ph"] == "X" for e in comm)

    def test_dist_stats_text(self):
        A = generators.banded(100, 6, rng=16)
        dist = DistSpGEMM(n_devices=2)
        assert "pool not built" in dist.dist_stats()
        dist.multiply(A, A, precision="single")
        text = dist.dist_stats()
        assert "dev0" in text and "dev1" in text
        assert "plan-cache hits" in text
        assert "last partition" in text


class TestCLI:
    def test_multiply_dist(self, capsys):
        assert main(["multiply", "--generate", "stencil:400:4",
                     "--devices", "4",
                     "--interconnect", "nvlink", "--dist-stats"]) == 0
        out = capsys.readouterr().out
        assert "dist" in out and "nvlink" in out
        assert "last partition" in out
        # the panels run the inner algorithm, not a nested dist driver:
        # each device's engine records exactly one cold plan miss
        assert out.count("plan-cache hits 0 misses 1") == 4

    def test_multiply_heterogeneous_devices(self, capsys):
        assert main(["multiply", "--generate", "stencil:300:4",
                     "--devices", "P100,K40",
                     "--dist-stats"]) == 0
        out = capsys.readouterr().out
        assert "Tesla K40" in out

    def test_multiply_fail_device(self, capsys):
        assert main(["multiply", "--generate", "stencil:300:4",
                     "--devices", "3",
                     "--fail-device", "dev1", "--dist-stats"]) == 0
        out = capsys.readouterr().out
        assert "LOST" in out

    def test_device_presets(self, capsys):
        for name in ("K40", "VEGA56"):
            assert main(["multiply", "--generate", "stencil:200:4",
                         "--device", name]) == 0
            assert capsys.readouterr().out
