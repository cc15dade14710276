"""Network latency models.

The paper's motivating numbers (a 30 ms coast-to-coast round trip against a
100 MIPS CPU) reduce to a single knob: the ratio of message latency to local
compute.  A :class:`LatencyModel` maps each send to a delivery delay in
virtual time units.  Models are deterministic given their RNG stream, so a
seeded simulation replays identically.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol

from .kernel import SimulationError
from .random import RandomStream


class LatencyModel(Protocol):
    """Anything with ``sample(src, dst) -> float`` works as a latency model."""

    def sample(self, src: str, dst: str) -> float:  # pragma: no cover - protocol
        ...


class ConstantLatency:
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency must be >= 0, got {value}")
        self.value = value

    def sample(self, src: str, dst: str) -> float:
        return self.value


class UniformLatency:
    """Latency drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float, stream: RandomStream) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high
        self._stream = stream

    def sample(self, src: str, dst: str) -> float:
        return self._stream.uniform(self.low, self.high)


class SequenceLatency:
    """Latencies taken from a fixed sequence.

    Handy in tests that need to force a specific message race (e.g. the
    Figure 2 scenario where S3's message overtakes S1's).  By default the
    sequence cycles when exhausted; with ``cycle=False`` exhaustion raises
    a :class:`~repro.sim.kernel.SimulationError` naming the link that
    drew one sample too many — for scripted scenarios where an extra
    message means the script itself is wrong.
    """

    def __init__(self, values: Iterable[float], cycle: bool = True) -> None:
        self._values = [float(v) for v in values]
        if not self._values:
            raise ValueError("SequenceLatency needs at least one value")
        if any(v < 0 for v in self._values):
            raise ValueError("latencies must be >= 0")
        self._cycle = cycle
        self._position = 0

    def sample(self, src: str, dst: str) -> float:
        if self._position >= len(self._values) and not self._cycle:
            raise SimulationError(
                f"SequenceLatency exhausted its {len(self._values)} value(s) "
                f"on link {src!r}->{dst!r} (pass cycle=True to wrap around)"
            )
        value = self._values[self._position % len(self._values)]
        self._position += 1
        return value

    def __repr__(self) -> str:
        suffix = "" if self._cycle else ", cycle=False"
        return f"SequenceLatency({self._values!r}{suffix})"


class LinkLatency:
    """Per-link latency: a dict of ``(src, dst) -> model`` with a default.

    Models an asymmetric network (e.g. a fast LAN between Worker and
    WorryWart but a slow WAN to the print server).
    """

    def __init__(
        self,
        links: Optional[dict[tuple[str, str], LatencyModel]] = None,
        default: Optional[LatencyModel] = None,
    ) -> None:
        self._links = dict(links or {})
        self._default = default if default is not None else ConstantLatency(0.0)

    def set_link(self, src: str, dst: str, model: LatencyModel) -> None:
        self._links[(src, dst)] = model

    def sample(self, src: str, dst: str) -> float:
        model = self._links.get((src, dst), self._default)
        return model.sample(src, dst)
