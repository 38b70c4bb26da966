"""Experiment harness: runner, campaign engine, figures, sweeps, CLI.

The package exports the runner (:func:`run_experiment`,
:class:`RunResult`) and the campaign engine (:func:`run_campaign`,
:func:`tasks_for`, :class:`ResultCache`, ...), which is what a run
needs. The figures (``repro.experiments.figures``), the studies, the
sweeps (``repro.experiments.sweeps``: ``config_sweep``, ``mlp_sweep``,
``channel_sweep``), the report generator and the CLI are imported from
their submodules, so a plain run loads none of them.
"""

from repro.experiments.campaign import (
    CampaignOutcome,
    CampaignTask,
    ResultCache,
    cache_key,
    run_campaign,
    tasks_for,
)
from repro.experiments.runner import RunResult, run_experiment

__all__ = [
    "CampaignOutcome",
    "CampaignTask",
    "ResultCache",
    "RunResult",
    "cache_key",
    "run_campaign",
    "run_experiment",
    "tasks_for",
]
