"""MiddlewareConfig: nested knob groups and their validation."""

from dataclasses import fields

import pytest

from repro.core.config import ElasticConfig, MiddlewareConfig, TraceConfig
from repro.errors import ConfigurationError


def test_nested_groups_are_the_canonical_spelling():
    config = MiddlewareConfig(
        elastic=ElasticConfig(enabled=True, cycle_s=120.0, max_actions=4),
        trace=TraceConfig(mode="counts"),
    )
    assert config.elastic.enabled is True
    assert config.elastic.cycle_s == 120.0
    assert config.elastic.max_actions == 4
    assert config.trace.mode == "counts"


def test_config_surface_is_pinned():
    """Every settable value, listed in plain sight: a new knob must edit
    this test."""

    def names(config_class):
        return {f.name for f in fields(config_class)}

    assert names(MiddlewareConfig) == {
        "version", "check_cycle_s", "windows_partition_mb", "initial_os",
        "initial_windows_nodes", "communicator_port", "v1_switch_method",
        "v2_per_mac_menus", "pbs_user", "eager_detectors",
        "order_timeout_s", "checkpoint_interval_s", "burst_nodes",
        "windows_scheduler", "elastic", "trace",
    }
    assert names(ElasticConfig) == {
        "enabled", "cycle_s", "hysteresis_cycles", "min_online",
        "idle_surplus", "max_actions",
    }
    assert names(TraceConfig) == {"mode"}


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
