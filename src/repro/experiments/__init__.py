"""Experiment harness: runner, campaign engine, figures, sweeps, CLI."""

from repro.experiments.campaign import (
    CampaignOutcome,
    CampaignTask,
    ResultCache,
    cache_key,
    run_campaign,
    tasks_for,
)
from repro.experiments.runner import RunResult, run_experiment
from repro.experiments.sweeps import channel_sweep, config_sweep, mlp_sweep

__all__ = [
    "CampaignOutcome",
    "CampaignTask",
    "ResultCache",
    "RunResult",
    "cache_key",
    "channel_sweep",
    "config_sweep",
    "mlp_sweep",
    "run_campaign",
    "run_experiment",
    "tasks_for",
]
