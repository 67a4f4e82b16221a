"""Workload inputs: a seeded fleet cut to a served mix, plus replay days.

Every input the benchmark feeds the server comes from here and depends on
nothing but the workload's sizing and the ``--seed``: the same seed gives
the same histories and readings.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from repro.core import VehicleSeries, first_cycle_dataset
from repro.fleet import (
    DEFAULT_END, DEFAULT_START, Fleet, FleetGenerator, SimulatedVehicle, load_fleet, save_fleet,
)

STEM = "fleet"
T_V = 2e5  # usage budget per cycle, seconds: about 10-day cycles
WINDOW = 6  # feature lag window of every model
SEMI_SHARE, NEW_SHARE = 0.2, 0.1  # the rest of the fleet is OLD
_SPARE_DAYS = 200  # generated beyond old_days + replay, for slow vehicles' cuts


@dataclass(frozen=True)
class FleetInputs:
    """Served histories and the readings replayed after them."""

    fleet: Fleet  # vehicles carry their histories as served
    future: dict[str, np.ndarray]  # vehicle id -> next days, in order

    @property
    def vehicle_ids(self) -> list[str]:
        return self.fleet.vehicle_ids

    def day_readings(self, day: int) -> list[dict]:
        """The whole fleet's ``POST /v1/ingest`` readings for replay day ``day``."""
        return [
            {"vehicle_id": vehicle_id, "seconds": float(usage[day])}
            for vehicle_id, usage in self.future.items()
        ]

    def write(self, directory) -> dict[str, np.ndarray]:
        """Save the fleet as the CSV that ``repro serve --input`` loads.

        Returns the histories as read back, which is what the server
        sees (the CSV keeps three decimals); references use these.
        """
        save_fleet(self.fleet, directory, stem=STEM)
        return {v.vehicle_id: v.usage for v in load_fleet(directory, stem=STEM)}


def _first_cycle_rows(vehicle) -> int:
    series = VehicleSeries(vehicle.vehicle_id, vehicle.usage, T_V)
    if not series.first_cycle().completed:
        return 0
    return first_cycle_dataset(series, WINDOW).n_records


def make_inputs(seed: int, *, n_vehicles: int, old_days: int, replay_days: int) -> FleetInputs:
    """Generate a fleet and cut each history to its served category.

    Only vehicles whose first cycle yields at least two training rows are
    kept: the service cannot fit a per-vehicle or similarity model on
    fewer, so a fleet of such vehicles would fail requests rather than
    measure them.  OLD vehicles keep ``old_days`` days (about
    ``old_days / 10`` cycles), or up to the end of their first cycle if
    that is later.  SEMI-NEW vehicles stop at 75% of their first cycle's
    budget and NEW ones at 35%, never below ``WINDOW + 1`` days.  A NEW
    vehicle must stay under ``T_V / 2`` for its first ``WINDOW + 1`` days
    to be servable, so NEW is drawn (seeded) from those vehicles only.
    The ``replay_days`` days after each cut are what a workload ingests
    later.
    """
    horizon = min(old_days + replay_days + _SPARE_DAYS, (DEFAULT_END - DEFAULT_START).days)
    pool = FleetGenerator(n_vehicles=n_vehicles + n_vehicles // 4 + 4, t_v=T_V, seed=seed,
                          end_date=DEFAULT_START + dt.timedelta(days=horizon)).generate()
    vehicles = [v for v in pool.vehicles if _first_cycle_rows(v) >= 2][:n_vehicles]
    if len(vehicles) < n_vehicles:
        raise ValueError(f"seed {seed}: too few vehicles with a trainable first cycle")
    fleet = Fleet(vehicles, T_V, seed, pool.metadata)
    ids = fleet.vehicle_ids
    cums = {v.vehicle_id: np.cumsum(v.usage) for v in fleet.vehicles}
    rng = np.random.default_rng([seed, 0x5EED])
    candidates = [v for v in ids if cums[v][WINDOW] < T_V / 2]
    n_new = min(round(NEW_SHARE * n_vehicles), len(candidates))
    new = set(rng.choice(candidates, size=n_new, replace=False).tolist()) if n_new else set()
    rest = [v for v in ids if v not in new]
    semi = set(rng.choice(rest, size=round(SEMI_SHARE * n_vehicles), replace=False).tolist())
    served, future = [], {}
    for vehicle in fleet.vehicles:
        vid, cum = vehicle.vehicle_id, cums[vehicle.vehicle_id]
        if vid in new:
            cut = int(np.searchsorted(cum, 0.35 * T_V))
        elif vid in semi:
            cut = int(np.searchsorted(cum, 0.75 * T_V))
        else:  # at least the first cycle completed, so the first fit has rows
            cut = max(old_days, VehicleSeries(vid, vehicle.usage, T_V).first_cycle().end + 1)
        cut = max(cut, WINDOW + 1)
        if cut + replay_days > vehicle.n_days:
            raise ValueError(f"{vid}: generated history too short for this sizing")
        served.append(SimulatedVehicle(vehicle.spec, vehicle.usage[:cut], vehicle.start_date))
        future[vid] = vehicle.usage[cut:cut + replay_days]
    return FleetInputs(Fleet(served, T_V, seed, fleet.metadata), future)
