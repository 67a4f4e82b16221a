"""Serving contract of the predict pipeline.

``predict`` is ``predict_batch([id])[0]``, so the two cannot check each
other.  The oracle here is independent of the pipeline: every served
value must equal ``max(reference_predict(model, row)[0], 0)`` for the
model its strategy routed to, on a feature row the test builds itself
(``Forecast`` is a frozen dataclass, so ``==`` is exact field-for-field
equality including the float prediction).  Grouping must be invisible:
a many-id batch equals per-id batches.  And the compiled-kernel cache
must follow lifecycle transitions — promotion, rollback, checkpoint
restore — so a stale flattened model never serves.
"""

import numpy as np
import pytest

from repro.core.predictors import BaselinePredictor
from repro.core.registry import make_predictor
from repro.core.series import VehicleSeries
from repro.learn.compiled import reference_predict
from repro.serving.engine import EngineConfig, FleetEngine
from repro.serving.faults import FaultInjector, faulty_predictor_factory
from repro.serving.persistence import ModelStore
from repro.serving.reliability import CircuitBreaker
from repro.serving.service import _STRATEGY_LADDER, MaintenancePredictionService

T_V = 200_000.0


def random_fleet(seed: int) -> dict[str, np.ndarray]:
    """Old + semi-new + new vehicles: per-vehicle, similarity, unified."""
    rng = np.random.default_rng(seed)
    fleet: dict[str, np.ndarray] = {}
    for i in range(3):
        fleet[f"old{i}"] = rng.uniform(14_000, 26_000, size=int(rng.integers(24, 40)))
    for i in range(2):
        fleet[f"semi{i}"] = rng.uniform(17_000, 25_000, size=int(rng.integers(5, 9)))
    fleet["new0"] = rng.uniform(5_000, 20_000, size=2)
    return fleet


def donorless_fleet(seed: int) -> dict[str, np.ndarray]:
    """No old vehicles: semi-new and new both route to the baseline."""
    rng = np.random.default_rng(seed)
    return {
        "semi0": rng.uniform(17_000, 25_000, size=7),
        "new0": rng.uniform(5_000, 20_000, size=4),
    }


def build_serial(usage_map, **kwargs) -> MaintenancePredictionService:
    service = MaintenancePredictionService(t_v=T_V, **kwargs)
    for vehicle_id in sorted(usage_map):
        service.register_vehicle(vehicle_id)
        service.ingest_series(vehicle_id, usage_map[vehicle_id])
    return service


def ready_ids(service) -> list[str]:
    return [
        vehicle_id
        for vehicle_id in service.vehicle_ids
        if service.series(vehicle_id).n_days > service.window
    ]


def per_id_forecasts(service):
    return [service.predict_batch([vehicle_id])[0] for vehicle_id in ready_ids(service)]


def build_engine(usage_map, config=None, **kwargs) -> FleetEngine:
    engine = FleetEngine(
        t_v=T_V, config=config or EngineConfig(max_workers=1), **kwargs
    )
    engine.register_fleet(usage_map)
    for vehicle_id in sorted(usage_map):
        engine.ingest_history(vehicle_id, usage_map[vehicle_id])
    return engine


def oracle_row(usage, window: int) -> np.ndarray:
    """The Section-3 feature row: L(today), then lags 1..window."""
    usage = np.asarray(usage, dtype=np.float64)
    today = usage.size - 1
    usage_left = VehicleSeries("oracle", usage, T_V).usage_left[today]
    return np.array(
        [[usage_left] + [usage[today - lag] for lag in range(1, window + 1)]]
    )


def routed_model(service, forecast, usage):
    """The model the forecast's strategy routed to."""
    if forecast.strategy == "per-vehicle":
        return service._vehicles[forecast.vehicle_id].model
    if forecast.strategy == "similarity":
        return service._vehicles[forecast.vehicle_id].sim_model
    if forecast.strategy == "unified":
        return service._unified_model
    return BaselinePredictor().fit(None, usage=usage)


class TestServedValuesMatchOracle:
    """Served values == the reference path on the routed model."""

    @pytest.mark.parametrize("algorithm", ["LR", "RF", "XGB"])
    @pytest.mark.parametrize("window", [0, 3])
    def test_served_values_match_reference_predict(self, algorithm, window):
        strategies = set()
        # new1 is long enough to be served at window 3 as well.
        mixed = {**random_fleet(17), "new1": np.full(6, 9_000.0)}
        for usage_map in (mixed, donorless_fleet(19)):
            service = build_serial(
                usage_map, window=window, algorithm=algorithm
            )
            for forecast in service.predict_batch(ready_ids(service)):
                usage = usage_map[forecast.vehicle_id]
                model = routed_model(service, forecast, usage)
                row = oracle_row(usage, window)
                assert forecast.usage_left == row[0, 0]
                expected = float(max(reference_predict(model, row)[0], 0.0))
                assert forecast.days_to_maintenance == expected, forecast
                strategies.add(forecast.strategy)
        assert strategies == {"per-vehicle", "similarity", "unified", "baseline"}


class TestBatchedSerialEquivalence:
    """A many-id batch == per-id batches, exactly."""

    @pytest.mark.parametrize("algorithm", ["LR", "RF", "XGB", "LSVR"])
    @pytest.mark.parametrize("window", [0, 3])
    def test_predict_batch_identical_to_serial(self, algorithm, window):
        usage_map = random_fleet(17)
        reference = per_id_forecasts(
            build_serial(usage_map, window=window, algorithm=algorithm)
        )
        batched_service = build_serial(
            usage_map, window=window, algorithm=algorithm
        )
        batched = batched_service.predict_batch(ready_ids(batched_service))
        assert batched == reference

    def test_engine_predict_all_uses_batched_path(self):
        usage_map = random_fleet(23)
        reference = per_id_forecasts(
            build_serial(usage_map, window=2, algorithm="RF")
        )
        engine = build_engine(usage_map, window=2, algorithm="RF")
        assert engine.predict_all() == reference
        stats = engine.service.kernel_cache.stats()
        assert stats["batches"] > 0  # the kernel actually ran
        assert stats["batched_rows"] >= stats["batches"]

    def test_repeat_batches_hit_the_kernel_cache(self):
        usage_map = random_fleet(31)
        engine = build_engine(usage_map, window=0, algorithm="RF")
        engine.predict_all()
        before = engine.service.kernel_cache.stats()
        engine.predict_all()
        after = engine.service.kernel_cache.stats()
        assert after["hits"] > before["hits"]
        # No models changed between batches, so nothing recompiles.
        assert after["compile_count"] == before["compile_count"]

    def test_kernel_section_in_engine_metrics(self):
        engine = build_engine(random_fleet(37), window=0, algorithm="LR")
        engine.predict_all()
        section = engine.metrics_section()["kernel"]
        for key in (
            "hits",
            "misses",
            "hit_rate",
            "compile_count",
            "compile_seconds",
            "batches",
            "batch_rows",
        ):
            assert key in section


class TestPredictRetry:
    def test_failed_predicts_step_down_to_the_baseline(self):
        """Every predict call fails: each vehicle retries rung by rung
        and ends on the baseline, with every failed rung named."""
        injector = FaultInjector(seed=0, rates={"predict": 1.0})
        service = build_serial(
            random_fleet(41),
            window=0,
            algorithm="LR",
            breaker=CircuitBreaker(),
            predictor_factory=faulty_predictor_factory(injector),
        )
        forecasts = service.predict_batch(ready_ids(service))
        assert forecasts
        for forecast in forecasts:
            assert forecast.strategy == "baseline"
            assert forecast.degraded
            for strategy in _STRATEGY_LADDER[forecast.category]:
                assert f"{strategy}: InjectedFault" in forecast.fallback_reason
        assert service.health().breaker_failures() == injector.injected["predict"]
        assert injector.injected["predict"] == sum(
            len(_STRATEGY_LADDER[f.category]) for f in forecasts
        )


class _Dataset:
    def __init__(self, X, y):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.n_records = len(self.X)


def _challenger(seed: int):
    """A fitted RF predictor distinct from any service-trained champion."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(100_000, 200_000, size=(40, 1))
    y = X[:, 0] / 19_000.0 + rng.normal(0.0, 0.3, size=40)
    predictor = make_predictor("RF")
    predictor.fit(_Dataset(X, y))
    return predictor


class TestLifecycleInvalidation:
    """Promotion -> rollback -> checkpoint restore each serve the new
    model's exact number."""

    @pytest.fixture
    def stack(self, tmp_path):
        usage_map = {"v0": np.random.default_rng(5).uniform(14_000, 26_000, 30)}
        service = build_serial(
            usage_map,
            window=0,
            algorithm="RF",
            store=ModelStore(tmp_path / "models"),
        )
        service.predict_batch(["v0"])  # trains + stores champion v1
        return service

    def test_promotion_serves_the_new_compiled_model(self, stack):
        service = stack
        assert service.predict_batch(["v0"])[0].model_version == 1
        before = service.kernel_cache.stats()
        challenger = _challenger(99)
        cycles = service._vehicles["v0"].model_trained_cycles
        version = service.store.save("v0.per-vehicle", challenger)
        service.apply_lifecycle_event(
            "promote",
            "v0",
            version=version,
            predictor=challenger,
            trained_cycles=cycles,
        )
        batched = service.predict_batch(["v0"])[0]
        serial = service.predict("v0")
        assert batched == serial
        assert batched.model_version == version
        # The served number really is the challenger's, not a stale
        # compiled image of the old champion.
        row = np.array([[batched.usage_left]])
        assert batched.days_to_maintenance == float(
            max(challenger.predict(row)[0], 0.0)
        )
        assert service.kernel_cache.stats()["misses"] > before["misses"]

    def test_rollback_recompiles_the_prior_version(self, stack):
        service = stack
        challenger = _challenger(101)
        cycles = service._vehicles["v0"].model_trained_cycles
        v2 = service.store.save("v0.per-vehicle", challenger)
        service.apply_lifecycle_event(
            "promote",
            "v0",
            version=v2,
            predictor=challenger,
            trained_cycles=cycles,
        )
        promoted = service.predict_batch(["v0"])[0]
        service.apply_lifecycle_event("rollback", "v0", version=1)
        rolled = service.predict_batch(["v0"])[0]
        assert rolled.model_version == 1
        assert rolled == service.predict("v0")
        # v1 and v2 are different models; serving must actually change.
        assert rolled.days_to_maintenance != promoted.days_to_maintenance
        artifact = service.store.load("v0.per-vehicle", 1)
        row = np.array([[rolled.usage_left]])
        assert rolled.days_to_maintenance == float(
            max(artifact.predictor.predict(row)[0], 0.0)
        )

    def test_checkpoint_restore_invalidates_compiled_kernels(
        self, stack, tmp_path
    ):
        service = stack
        expected = service.predict_batch(["v0"])[0]
        snapshot = service.state_dict()
        restored = build_serial(
            {},
            window=0,
            algorithm="RF",
            store=ModelStore(tmp_path / "models"),
        )
        restored.predict_batch  # the batched entry point must survive restore
        restored.load_state_dict(snapshot)
        first = restored.predict_batch(["v0"])[0]
        assert first == expected
        assert restored.kernel_cache.stats()["misses"] >= 1

    def test_live_restore_drops_stale_compiled_entries(self, stack):
        service = stack
        before = service.predict_batch(["v0"])[0]
        snapshot = service.state_dict()
        service.load_state_dict(snapshot)
        assert service.predict_batch(["v0"])[0] == before
