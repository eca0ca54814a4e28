"""MiddlewareConfig: nested knob groups and their validation."""

import pytest

from repro.core.config import (
    ElasticConfig,
    EnergyConfig,
    MiddlewareConfig,
    TraceConfig,
)
from repro.errors import ConfigurationError


def test_nested_groups_are_the_canonical_spelling():
    config = MiddlewareConfig(
        elastic=ElasticConfig(enabled=True, cycle_s=120.0, max_actions=4),
        energy=EnergyConfig(metering=False),
        trace=TraceConfig(mode="counts"),
    )
    assert config.elastic.enabled is True
    assert config.elastic.cycle_s == 120.0
    assert config.elastic.max_actions == 4
    assert config.energy.metering is False
    assert config.trace.mode == "counts"


def test_group_validation_runs_for_nested_spellings():
    with pytest.raises(ConfigurationError):
        ElasticConfig(cycle_s=0.0)
    with pytest.raises(ConfigurationError):
        ElasticConfig(hysteresis_cycles=0)
    with pytest.raises(ConfigurationError):
        TraceConfig(mode="everything")


def test_elastic_config_validates_its_budgets():
    with pytest.raises(ConfigurationError, match="min_online"):
        ElasticConfig(min_online=-1)
    with pytest.raises(ConfigurationError, match="idle_surplus"):
        ElasticConfig(idle_surplus=-1)
    with pytest.raises(ConfigurationError, match="max_actions"):
        ElasticConfig(max_actions=0)


def test_windows_scheduler_is_validated():
    assert MiddlewareConfig().windows_scheduler == "winhpc"
    assert MiddlewareConfig(windows_scheduler="slurm").windows_scheduler == (
        "slurm"
    )
    with pytest.raises(ConfigurationError, match="windows_scheduler"):
        MiddlewareConfig(windows_scheduler="lsf")


def test_unknown_keywords_still_fail_loudly():
    with pytest.raises(TypeError):
        MiddlewareConfig(elastic_typo=True)


def test_flat_knob_spellings_are_not_accepted():
    for flat in ("elastic_enabled", "energy_metering", "trace_mode"):
        with pytest.raises(TypeError):
            MiddlewareConfig(**{flat: True})
        assert not hasattr(MiddlewareConfig(), flat)
