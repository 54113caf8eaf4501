"""The hardware-abstraction layer: registry, dispatch, bit-identity.

The refactor's contract is that putting the GPU behind
:class:`~repro.backend.base.Backend` changed *nothing* observable: the
backend's scheduler and cost model are the very module functions every
call site used before, the presets are the same frozen objects, and
preset names stay globally unique so plan-cache and tuning-store keys
cannot collide across architectures.
"""

import pytest

import repro
from repro.backend import (
    CPU_BACKEND,
    GPU_BACKEND,
    Backend,
    backend_for_name,
    backend_for_spec,
    backends,
    device_presets,
    register_backend,
    resolve_device,
)
from repro.cpu import CPU_PRESETS, KNL64, XEON24, CPUSpec
from repro.errors import DeviceConfigError, UnknownDeviceError
from repro.gpu.device import DEVICE_PRESETS, K40, P100, DeviceSpec

pytestmark = pytest.mark.cpu


class TestRegistry:
    def test_both_builtins_registered(self):
        assert set(backends()) == {"gpu", "cpu"}
        assert backends()["gpu"] is GPU_BACKEND
        assert backends()["cpu"] is CPU_BACKEND

    def test_lookup_by_name(self):
        assert backend_for_name("gpu") is GPU_BACKEND
        assert backend_for_name("cpu") is CPU_BACKEND
        with pytest.raises(DeviceConfigError, match="unknown backend"):
            backend_for_name("tpu")

    def test_dispatch_by_spec_type(self):
        assert backend_for_spec(P100) is GPU_BACKEND
        assert backend_for_spec(KNL64) is CPU_BACKEND

    def test_dispatch_rejects_foreign_objects(self):
        with pytest.raises(DeviceConfigError):
            backend_for_spec(object())

    def test_merged_presets_gpu_first(self):
        merged = list(device_presets())
        assert merged[:len(DEVICE_PRESETS)] == list(DEVICE_PRESETS)
        assert set(merged) == set(DEVICE_PRESETS) | set(CPU_PRESETS)

    def test_preset_keys_globally_unique(self):
        assert not set(DEVICE_PRESETS) & set(CPU_PRESETS)

    def test_spec_names_globally_unique(self):
        # plan-cache and tuning-store keys embed spec.name: a CPU preset
        # sharing a name with a GPU preset would alias their entries
        gpu_names = {s.name for s in DEVICE_PRESETS.values()}
        cpu_names = {s.name for s in CPU_PRESETS.values()}
        assert not gpu_names & cpu_names

    def test_duplicate_registration_rejected(self):
        class Dupe(Backend):
            name = "dupe"
            spec_type = CPUSpec           # collides with the CPU backend
            presets = {"DUPE1": KNL64}
            algorithms = ()

            def default_overrides(self):
                return None

            def decode_overrides(self, d):
                return None

            def tuning_candidates(self, spec):
                return []

            def modeled_total(self, sketch, spec, precision, overrides):
                return 0.0

            def tuning_algorithm(self, overrides):
                return None

        with pytest.raises(DeviceConfigError):
            register_backend(Dupe())


class TestResolveDevice:
    def test_specs_pass_through(self):
        assert resolve_device(P100) is P100
        assert resolve_device(KNL64) is KNL64

    def test_names_resolve_any_backend(self):
        assert resolve_device("K40") is K40
        assert resolve_device("KNL64") is KNL64
        assert resolve_device("xeon24 ") is XEON24   # case/space tolerant

    def test_unknown_name_typed_error(self):
        with pytest.raises(UnknownDeviceError, match="unknown device") as ei:
            resolve_device("H100")
        # the message teaches: every preset and every backend is listed
        for preset in list(DEVICE_PRESETS) + list(CPU_PRESETS):
            assert preset in str(ei.value)
        assert "gpu" in str(ei.value) and "cpu" in str(ei.value)

    def test_unknown_device_is_a_config_error(self):
        assert issubclass(UnknownDeviceError, DeviceConfigError)

    def test_non_spec_object_rejected(self):
        with pytest.raises(DeviceConfigError):
            resolve_device(3.14)


class TestGPUBitIdentity:
    """The GPU backend IS the pre-refactor code, not a reimplementation."""

    def test_scheduler_is_the_module_function(self):
        from repro.gpu.scheduler import simulate_phase

        assert GPU_BACKEND.simulate_phase is simulate_phase

    def test_cost_model_is_the_module_function(self):
        from repro.gpu.cost import kernel_duration_alone

        assert GPU_BACKEND.kernel_duration_alone is kernel_duration_alone

    def test_presets_are_the_same_objects(self):
        assert GPU_BACKEND.presets is DEVICE_PRESETS
        assert GPU_BACKEND.default_preset is P100

    def test_gpu_work_weight_is_raw_bandwidth(self):
        # dist pools partitioned exactly as before the abstraction layer
        for spec in DEVICE_PRESETS.values():
            assert GPU_BACKEND.work_weight(spec) == spec.mem_bandwidth_gbps

    def test_cpu_work_weight_is_derated(self):
        assert (CPU_BACKEND.work_weight(KNL64)
                < KNL64.mem_bandwidth_gbps)


class TestAlgorithmTranslation:
    def test_native_names_pass_through(self):
        assert GPU_BACKEND.native_algorithm("cusp") == "cusp"
        assert CPU_BACKEND.native_algorithm("propblock") == "propblock"

    def test_foreign_names_map_to_backend_default(self):
        assert CPU_BACKEND.native_algorithm("proposal") == "hash-cpu"
        assert GPU_BACKEND.native_algorithm("heap-cpu") == "proposal"

    def test_fallback_chains_stay_on_architecture(self):
        from repro.options import _fallback_chain

        assert _fallback_chain("proposal") == ("proposal", "cusparse")
        assert _fallback_chain("cusparse") == ("cusparse", "proposal")
        assert _fallback_chain("hash-cpu") == ("hash-cpu", "heap-cpu")
        assert _fallback_chain("heap-cpu") == ("heap-cpu", "hash-cpu")


class TestOptionsIntegration:
    def test_string_device_resolves(self):
        o = repro.SpGEMMOptions(device="KNL64")
        assert o.device is KNL64

    def test_unknown_string_device_raises(self):
        with pytest.raises(UnknownDeviceError, match="unknown device"):
            repro.SpGEMMOptions(device="H100")

    def test_coalesce_tokens_distinct_across_backends(self):
        # the serving layer may only merge jobs with equal tokens; every
        # preset (either architecture) must therefore token differently
        tokens = {repro.SpGEMMOptions(device=name).coalesce_token()
                  for name in device_presets()}
        assert len(tokens) == len(device_presets())

    def test_cpu_device_round_trips_options(self):
        o = repro.SpGEMMOptions(algorithm="hash-cpu", device="XEON24")
        o2 = o.evolve(precision="single")
        assert o2.device is XEON24
        assert "Xeon" in o.describe()


class TestTuningStoreKeys:
    def test_store_entries_keyed_by_spec_name(self, tmp_path):
        from repro.tune import Autotuner, TuningStore
        from repro.sparse import generators

        A = generators.power_law(150, 3.0, 40, rng=4)
        store = TuningStore(str(tmp_path / "tune.json"))
        Autotuner(K40, "single", store=store).tune(A, A)
        Autotuner(KNL64, "single", store=store).tune(A, A)
        keys = list(store.entries)
        assert len(keys) == 2
        assert any(K40.name in k for k in keys)
        assert any(KNL64.name in k for k in keys)

    def test_cached_cpu_entry_decodes_to_cpu_params(self, tmp_path):
        from repro.cpu.params import CPUParams
        from repro.tune import Autotuner, TuningStore
        from repro.sparse import generators

        A = generators.power_law(150, 3.0, 40, rng=4)
        store = TuningStore(str(tmp_path / "tune.json"))
        first = Autotuner(KNL64, "single", store=store).tune(A, A)
        again = Autotuner(KNL64, "single", store=store).tune(A, A)
        assert again.from_cache
        assert isinstance(again.overrides, CPUParams)
        assert again.overrides == first.overrides
