"""Diurnal load generation for soak runs: a pure function of (seed, window).

Real ingress traffic breathes: every metro follows a local-time activity
curve (evening peak, pre-dawn trough), and occasionally one metro spikes
far above its curve — a flash crowd.  :class:`DiurnalLoad` models both
deterministically, so a soak run can be replayed bit-identically and a
killed soak can resume mid-day and regenerate exactly the flow batches it
would have offered (flow keys depend only on the per-window seed).

Everything here is derived from the scenario and the seed — no wall
clock, no mutable state.  ``multipliers(w)`` → per-UG demand multiplier
for window *w*; ``volumes(w)`` → absolute per-UG volumes;
``batch(w)`` → the :class:`~repro.traffic_manager.dataplane.FlowBatch`
offered during window *w*; ``volume_deltas()`` → the
:class:`~repro.controller.deltas.VolumeShift` stream that tells the
controller what the load model is doing (top movers only — the
controller sees aggregated telemetry, not every UG every window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.controller.deltas import Delta, VolumeShift
from repro.traffic_manager.dataplane import FlowBatch

#: Peak-to-trough shape: local activity peaks at 20:00 and bottoms at 08:00.
_PEAK_HOUR = 20.0
#: Demand multipliers never collapse to zero — even a sleeping metro
#: trickles traffic.
_MIN_MULTIPLIER = 0.05


@dataclass(frozen=True)
class FlashCrowd:
    """One metro's demand spiking ``multiplier``× for a window span."""

    metro: str
    start_window: int
    duration_windows: int
    multiplier: float

    @property
    def end_window(self) -> int:
        return self.start_window + self.duration_windows

    def active(self, window: int) -> bool:
        return self.start_window <= window < self.end_window


class DiurnalLoad:
    """Seeded per-metro diurnal demand with flash crowds.

    ``window_s`` is the simulated span of one controller iteration;
    window *w* covers ``[w * window_s, (w + 1) * window_s)`` of simulated
    time.  The diurnal phase of a UG comes from its metro's longitude
    (15° per hour), so a soak over a world-spanning scenario always has
    some metros peaking while others trough — the load the controller
    re-solves under is never flat.
    """

    def __init__(
        self,
        scenario,
        *,
        seed: int = 0,
        windows: int = 24,
        window_s: float = 3600.0,
        base_arrivals: int = 10_000,
        amplitude: float = 0.5,
        flash_crowds: int = 1,
        flash_multiplier_range=(3.0, 6.0),
        flash_duration_range=(1, 3),
        mean_flow_bytes: float = 1500.0,
    ) -> None:
        if windows < 1:
            raise ValueError("windows must be >= 1")
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if base_arrivals < 0:
            raise ValueError("base_arrivals must be non-negative")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if flash_crowds < 0:
            raise ValueError("flash_crowds must be non-negative")
        self._seed = int(seed)
        self.windows = int(windows)
        self.window_s = float(window_s)
        self.base_arrivals = int(base_arrivals)
        self.amplitude = float(amplitude)
        self.mean_flow_bytes = float(mean_flow_bytes)
        ugs = list(scenario.user_groups)
        self.n_ugs = len(ugs)
        self._base_volumes = np.array([ug.volume for ug in ugs], dtype=np.float64)
        self._ug_lon = np.array(
            [ug.metro.location.lon for ug in ugs], dtype=np.float64
        )
        self._ug_metro = [ug.metro.name for ug in ugs]
        self._ug_ids = [int(ug.ug_id) for ug in ugs]
        metros = sorted({name for name in self._ug_metro})
        self.crowds: List[FlashCrowd] = self._draw_crowds(
            metros,
            flash_crowds,
            flash_multiplier_range,
            flash_duration_range,
        )
        # Per-crowd UG membership masks, computed once.
        self._crowd_masks = [
            np.array([m == crowd.metro for m in self._ug_metro], dtype=bool)
            for crowd in self.crowds
        ]

    def _draw_crowds(
        self,
        metros: Sequence[str],
        n: int,
        multiplier_range,
        duration_range,
    ) -> List[FlashCrowd]:
        if not n or not metros or self.windows < 2:
            return []
        rng = np.random.default_rng([self._seed, 0xF1A5])
        crowds = []
        for _ in range(n):
            metro = metros[int(rng.integers(0, len(metros)))]
            duration = int(rng.integers(duration_range[0], duration_range[1] + 1))
            start = int(rng.integers(1, max(2, self.windows - duration)))
            multiplier = float(rng.uniform(*multiplier_range))
            crowds.append(
                FlashCrowd(
                    metro=metro,
                    start_window=start,
                    duration_windows=duration,
                    multiplier=multiplier,
                )
            )
        return crowds

    # -- the demand curve ----------------------------------------------------

    def local_hours(self, window: int) -> np.ndarray:
        """Per-UG local hour-of-day at the start of ``window``."""
        utc_hours = window * self.window_s / 3600.0
        return (utc_hours + self._ug_lon / 15.0) % 24.0

    def multipliers(self, window: int) -> np.ndarray:
        """Per-UG demand multiplier for ``window`` (pure in seed, window)."""
        hours = self.local_hours(window)
        phase = 2.0 * math.pi * (hours - (_PEAK_HOUR - 6.0)) / 24.0
        mult = 1.0 + self.amplitude * np.sin(phase)
        for crowd, mask in zip(self.crowds, self._crowd_masks):
            if crowd.active(window):
                mult = np.where(mask, mult * crowd.multiplier, mult)
        return np.maximum(mult, _MIN_MULTIPLIER)

    def volumes(self, window: int) -> np.ndarray:
        """Absolute per-UG traffic volumes during ``window``."""
        return self._base_volumes * self.multipliers(window)

    def arrivals(self, window: int) -> int:
        """New-flow arrivals offered during ``window``."""
        if not self.base_arrivals or not self.n_ugs:
            return 0
        weights = self._base_volumes
        total = float(weights.sum())
        if total <= 0:
            mean_mult = float(self.multipliers(window).mean())
        else:
            mean_mult = float((weights * self.multipliers(window)).sum() / total)
        return int(round(self.base_arrivals * mean_mult))

    def batch_seed(self, window: int) -> int:
        """The per-window synthesis seed (splitmix-style integer mix)."""
        mixed = (self._seed * 0x9E3779B97F4A7C15 + (window + 1) * 0xBF58476D1CE4E5B9)
        return mixed % (2**32)

    def batch(self, window: int) -> FlowBatch:
        """The flow batch offered during ``window`` — keys are a pure
        function of (seed, window, arrivals)."""
        volumes = self.volumes(window)
        total = float(volumes.sum())
        weights = volumes if total > 0 else None
        return FlowBatch.synthesize(
            self.arrivals(window),
            seed=self.batch_seed(window),
            n_services=max(1, self.n_ugs),
            service_weights=weights,
            mean_bytes=self.mean_flow_bytes,
        )

    # -- the controller's view -----------------------------------------------

    def volume_deltas(self, shifts_per_window: int = 16) -> List[Delta]:
        """Top-mover :class:`VolumeShift` stream at every window boundary.

        Emits the ``shifts_per_window`` UGs whose demand multiplier moved
        most between consecutive windows (ties broken by UG id), at least
        one per boundary — the alignment invariant the soak runner checks
        (every boundary must produce a delta bucket so controller
        iteration *k* always simulates window *k*).
        """
        if shifts_per_window < 1:
            raise ValueError("shifts_per_window must be >= 1")
        deltas: List[Delta] = []
        prev = self.multipliers(0)
        for window in range(1, self.windows):
            now = self.multipliers(window)
            change = np.abs(now - prev) / np.maximum(prev, 1e-9)
            k = min(shifts_per_window, self.n_ugs)
            order = sorted(range(self.n_ugs), key=lambda i: (-change[i], i))
            volumes = self._base_volumes * now
            at_s = window * self.window_s
            for i in order[:k]:
                deltas.append(
                    VolumeShift(
                        at_s=at_s,
                        ug_id=self._ug_ids[i],
                        volume=float(volumes[i]),
                    )
                )
            prev = now
        return deltas
