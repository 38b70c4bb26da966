"""Exception hierarchy for the TDRAM reproduction library.

All library-specific failures derive from :class:`ReproError` so callers
can catch one type at the API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class TimingError(ConfigError):
    """A DRAM timing table is internally inconsistent (e.g. tRCD > tRAS).

    Raised at :class:`~repro.config.system.SystemConfig` construction so
    a bad sweep configuration fails fast with the violated constraint
    named, instead of simulating quiet nonsense."""


class SimulationError(ReproError):
    """The simulation reached an illegal state (e.g. time went backwards)."""


class ProtocolError(ReproError):
    """A DRAM protocol rule was violated (e.g. overlapping bus grants)."""


class CapacityError(ReproError):
    """A bounded hardware structure (queue, buffer) was overfilled."""


class WorkloadError(ReproError):
    """A workload generator was misconfigured or produced an invalid record."""


class CampaignError(SimulationError):
    """A campaign finished with tasks that exhausted their retries.

    Only raised in strict mode (``run_campaign(strict=True)``, the
    library default); the message names every failed task and its last
    error. The CLI runs campaigns with ``strict=False`` instead:
    partial results, one ``FAILED`` line per task, and a nonzero exit
    code."""
