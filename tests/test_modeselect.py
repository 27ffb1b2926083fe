"""Tests for the probe-driven ``execution="auto"`` mode selection."""

from __future__ import annotations

from repro.engine import CrossbowConfig, CrossbowTrainer, modeselect
from repro.telemetry.store import TelemetryStore

_DATASET = {"num_train": 256, "num_test": 128, "noise_scale": 2.5}


def _config(**overrides):
    defaults = dict(
        model_name="mlp",
        dataset_name="blobs",
        num_gpus=1,
        batch_size=16,
        replicas_per_gpu=2,
        max_epochs=2,
        dataset_overrides=dict(_DATASET),
        seed=7,
    )
    defaults.update(overrides)
    return CrossbowConfig(**defaults)


# ------------------------------------------------------------------ mode selection
class TestModeSelection:
    def test_recommend_is_monotone_in_cores(self):
        assert modeselect.recommend(1, 0.5, -1.0) == ("serial", 0)
        assert modeselect.recommend(2, 0.5, 1.0) == ("process", 0)
        assert modeselect.recommend(8, 0.5, 1.0) == ("process", 1)
        # A round-trip dearer than the budget kills process mode regardless.
        assert modeselect.recommend(8, 0.01, 100.0) == ("serial", 0)

    def test_probe_on_one_core_host_selects_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(modeselect, "cpu_count", lambda: 1)
        store = TelemetryStore(tmp_path / "telemetry.sqlite")
        try:
            probe = modeselect.probe_host(store=store)
            assert (probe.execution, probe.pipeline_depth) == ("serial", 0)
            assert probe.cores == 1
            assert probe.worker_roundtrip_ms == -1.0  # skipped, not measured
            assert not probe.cached
            # The measurement landed in the store under the host's bench name.
            bench = f"modeselect_probe/{probe.host}"
            history = store.bench_history(bench, row_index=0, metric="cores", last_n=1)
            assert [value for _, value in history] == [1.0]
        finally:
            store.close()

    def test_second_probe_is_served_from_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setattr(modeselect, "cpu_count", lambda: 1)
        store = TelemetryStore(tmp_path / "telemetry.sqlite")
        try:
            first = modeselect.probe_host(store=store)

            def _boom():
                raise AssertionError("cached probe must not re-measure")

            monkeypatch.setattr(modeselect, "_time_fused_step", _boom)
            second = modeselect.probe_host(store=store)
            assert second.cached
            assert (second.execution, second.pipeline_depth) == (
                first.execution,
                first.pipeline_depth,
            )
        finally:
            store.close()

    def test_resolve_auto_passthrough_for_explicit_modes(self):
        config = _config(execution="serial")
        assert modeselect.resolve_auto_execution(config) is config

    def test_trainer_auto_resolves_serial_on_one_core(self, tmp_path, monkeypatch):
        monkeypatch.setattr(modeselect, "cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_TELEMETRY_DB", str(tmp_path / "telemetry.sqlite"))
        trainer = CrossbowTrainer(_config(execution="auto"))
        try:
            assert trainer.config.execution == "serial"
            assert trainer.config.pipeline_depth == 0
        finally:
            trainer.close()
        # The probe row persisted, so a second trainer reuses it (cache hit).
        monkeypatch.setattr(
            modeselect,
            "_time_fused_step",
            lambda: (_ for _ in ()).throw(AssertionError("must hit the cache")),
        )
        again = CrossbowTrainer(_config(execution="auto"))
        try:
            assert again.config.execution == "serial"
        finally:
            again.close()
