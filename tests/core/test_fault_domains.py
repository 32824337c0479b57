"""The pluggable fault-domain subsystem: registry, protocol, config.

Covers the ``repro.faults`` extraction: registry consistency (every
kind owned by exactly one domain, canonical draw order preserved),
``FaultModel.kind_weights`` validation edges (single-kind mixes, the
1e-6 sum tolerance at its exact boundary, unknown-kind messages),
the :class:`FaultDomain` protocol (dispatch, state snapshot/restore,
wiring-attr rejection), :class:`NodeRangeError` surfacing through the
``NetworkDomain`` injection path, structured fault-config parsing, and
the ``repro faults list`` / ``--fault-config`` CLI layer.
"""

import dataclasses
import json

import pytest

from repro.cli import _build_parser, _campaign_spec_kwargs, _knob_flag, _spec_knobs
from repro.core import FaultDetail, RecoveryPolicy
from repro.core.campaign import CampaignSpec, build_campaign_simulator, campaign_spec_key
from repro.core.fault_injection import FAULT_KINDS, FaultModel
from repro.faults.registry import (
    KIND_TO_DOMAIN,
    REGISTRY,
    campaign_kwargs_from_config,
    domain_for_kind,
    kinds_of,
)
from repro.network.topology import NodeRangeError


def _sim(**kw):
    base = dict(
        node_mtbf_s=1e9,
        ckpt_period=5,
        nranks=4,
        nnodes=2,
        timesteps=10,
        net_topology="torus",
    )
    base.update(kw)
    spec = CampaignSpec(**base)
    policy = RecoveryPolicy(verify_fail_prob=0.0)
    return build_campaign_simulator(spec, 0, policy, inject=False)


# -- registry consistency ----------------------------------------------------------


def test_every_kind_owned_by_exactly_one_domain():
    seen = {}
    for info in REGISTRY:
        for kind in info.kinds:
            assert kind not in seen, f"{kind} owned by {seen[kind]} and {info.name}"
            seen[kind] = info.name
    assert set(seen) == set(FAULT_KINDS)
    assert seen == dict(KIND_TO_DOMAIN)


def test_kinds_of_preserves_draw_order():
    for info in REGISTRY:
        ordered = kinds_of(info.name)
        assert ordered == tuple(k for k in FAULT_KINDS if k in info.kinds)


def test_domain_for_kind_default():
    assert domain_for_kind("sdc") == "sdc"
    assert domain_for_kind("no-such-kind", None) is None
    with pytest.raises(KeyError):
        domain_for_kind("no-such-kind")


def test_simulator_dispatch_table_matches_registry():
    sim = _sim()
    for kind in FAULT_KINDS:
        assert sim._domain_by_kind[kind].name == domain_for_kind(kind)
        assert sim._domain_by_kind[kind].wants(kind)


# -- FaultModel.kind_weights edges -------------------------------------------------


def test_single_kind_weight_one_draws_only_that_kind():
    model = FaultModel(node_mtbf_s=10.0, kind_weights={"straggler": 1.0})
    import random

    rng = random.Random(7)
    assert {model.draw_kind(rng) for _ in range(64)} == {"straggler"}


def test_kind_weights_sum_tolerance_boundary():
    # |sum - 1| <= 1e-6 is accepted; just beyond is rejected.  9e-7 and
    # 2e-6 sit clear of the boundary on either side so float rounding
    # in the sum cannot flip the verdict.
    FaultModel(
        node_mtbf_s=10.0,
        kind_weights={"software": 0.5, "node": 0.5 + 9e-7},
    )
    with pytest.raises(ValueError, match="must sum to 1"):
        FaultModel(
            node_mtbf_s=10.0,
            kind_weights={"software": 0.5, "node": 0.5 + 2e-6},
        )


def test_unknown_kind_message_lists_sorted_unknowns():
    with pytest.raises(ValueError) as err:
        FaultModel(
            node_mtbf_s=10.0,
            kind_weights={"zz_bogus": 0.5, "aa_bogus": 0.5},
        )
    assert "['aa_bogus', 'zz_bogus']" in str(err.value)


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="must be >= 0"):
        FaultModel(
            node_mtbf_s=10.0,
            kind_weights={"software": 1.5, "node": -0.5},
        )


# -- FaultDomain protocol ----------------------------------------------------------


def test_snapshot_restore_round_trip():
    sim = _sim()
    dom = sim._straggler_dom
    dom.node_slowdown[1] = 3.0
    dom.excess_s = 1.25
    state = dom.snapshot_state()
    assert "sim" not in state and "ctx" not in state
    dom.node_slowdown.clear()
    dom.excess_s = 0.0
    dom.restore_state(state)
    assert dom.node_slowdown == {1: 3.0}
    assert dom.excess_s == 1.25


def test_restore_state_rejects_wiring_attrs():
    sim = _sim()
    with pytest.raises(ValueError, match="wiring"):
        sim._straggler_dom.restore_state({"sim": None})


def test_unknown_kind_injection_message():
    sim = _sim()
    with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
        sim.inject_fault(0, kind="meteor")


# -- NodeRangeError through the NetworkDomain path ---------------------------------


def test_out_of_range_edge_raises_node_range_error():
    sim = _sim()
    with pytest.raises(NodeRangeError):
        sim.inject_fault(0, kind="link", detail=FaultDetail(edge=(0, 999)))


def test_node_range_error_is_both_index_and_value_error():
    sim = _sim()
    with pytest.raises(IndexError):
        sim.inject_fault(0, kind="link", detail=FaultDetail(edge=(0, 999)))
    with pytest.raises(ValueError):
        sim.inject_fault(0, kind="link", detail=FaultDetail(edge=(0, 999)))


# -- structured fault-config parsing -----------------------------------------------

POLICY = RecoveryPolicy()

#: one non-default value per registry-listed CampaignSpec field, spelled
#: as JSON would (whole numbers for float fields exercise the coercion)
_ONE_FIELD_VALUES = {
    "burst_size": 3,
    "sdc_coverage": 0.8,
    "sdc_correct_prob": 0.25,
    "straggler_slowdown": 3,
    "straggler_repair_s": 10,
    "net_link_mtbf_s": 50,
    "net_degrade_factor": 2,
    "net_loss_prob": 0.1,
    "net_repair_s": 1,
    "net_topology": "torus",
    "net_fault_split": {"link": 0.7, "switch": 0.2, "netdeg": 0.1},
}


def _spec_from_cli(argv):
    """The first grid point ``repro campaign <argv>`` would run."""
    args = _build_parser().parse_args(["campaign", *argv])
    return CampaignSpec(node_mtbf_s=8.0, ckpt_period=5, **_campaign_spec_kwargs(args))


def test_campaign_kwargs_from_config_round_trip(tmp_path):
    cfg = {
        "mix": {"software": 0.5, "sdc": 0.5},
        "sdc": {"coverage": 0.8, "correct_prob": 0.25},
        "straggler": {"slowdown": 3.0, "repair_s": 10.0},
        "network": {
            "link_mtbf_s": 50.0,
            "repair_s": 5.0,
            "topology": "fattree",
            "fault_split": {"link": 0.7, "switch": 0.2, "netdeg": 0.1},
        },
        "failstop": {"burst_size": 4},
    }
    kwargs = campaign_kwargs_from_config(cfg)
    assert kwargs["fault_mix"] == {"software": 0.5, "sdc": 0.5}
    assert kwargs["sdc_coverage"] == 0.8
    assert kwargs["straggler_slowdown"] == 3.0
    assert kwargs["net_link_mtbf_s"] == 50.0
    assert kwargs["net_topology"] == "fattree"
    assert kwargs["net_fault_split"] == (
        ("link", 0.7),
        ("netdeg", 0.1),
        ("switch", 0.2),
    )
    # every produced kwarg must be a real CampaignSpec field
    spec = CampaignSpec(node_mtbf_s=10.0, ckpt_period=5, **kwargs)
    assert spec.sdc_correct_prob == 0.25

    # every registry-listed field: a one-field config file builds the same
    # spec (and spec key) as the equivalent flag, values coerced alike
    assert set(_ONE_FIELD_VALUES) == {f for info in REGISTRY for f in info.fields}
    knobs = {f.name: f for f in _spec_knobs()}
    baseline = _spec_from_cli([])
    for info in REGISTRY:
        for key, name in info.config_keys().items():
            raw = _ONE_FIELD_VALUES[name]
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({info.name: {key: raw}}))
            from_file = _spec_from_cli(["--fault-config", str(path)])
            if name in knobs:
                other = _spec_from_cli([_knob_flag(knobs[name]), str(raw)])
            else:  # config-only (kind -> share) fields have no flag
                other = dataclasses.replace(baseline, **{name: raw})
            assert from_file == other != baseline, name
            assert campaign_spec_key(from_file, POLICY) == campaign_spec_key(other, POLICY), name
    # "repair_s": 1 and --net-repair-time 1 both build the float 1.0
    spec = _spec_from_cli(["--net-repair-time", "1"])
    assert spec.net_repair_s == 1.0 and isinstance(spec.net_repair_s, float)


def test_fault_config_rejects_unknown_section_and_field():
    with pytest.raises(ValueError, match="unknown fault-config section"):
        campaign_kwargs_from_config({"cosmic": {}})
    with pytest.raises(ValueError, match="unknown field"):
        campaign_kwargs_from_config({"sdc": {"coverage": 0.9, "volts": 1.2}})
    with pytest.raises(ValueError, match="unknown fault kind"):
        campaign_kwargs_from_config({"mix": {"meteor": 1.0}})


# -- CLI layer ---------------------------------------------------------------------


def test_faults_list_cli(capsys):
    from repro.cli import main

    assert main(["faults", "list"]) == 0
    out = capsys.readouterr().out
    for info in REGISTRY:
        assert info.name in out
    for kind in FAULT_KINDS:
        assert kind in out
    # every config key, with the default a --fault-config campaign uses
    defaults = {f.name: f.default for f in dataclasses.fields(CampaignSpec)}
    blocks = {block.split()[0]: block for block in out.split("\n\n")[1:]}
    for info in REGISTRY:
        for key, name in info.config_keys().items():
            assert f"{key}={defaults[name]!r}" in blocks[info.name], (info.name, key)


def test_fault_config_flag_precedence(tmp_path):
    cfg = tmp_path / "faults.json"
    cfg.write_text(json.dumps({"sdc": {"coverage": 0.8}, "network": {"repair_s": 7.0}}))

    def spec_kwargs(*argv):
        return _campaign_spec_kwargs(_build_parser().parse_args(["campaign", *argv]))

    # file overrides defaults
    kwargs = spec_kwargs("--fault-config", str(cfg))
    assert kwargs["sdc_coverage"] == 0.8
    assert kwargs["net_repair_s"] == 7.0
    # explicit flag beats the file
    kwargs = spec_kwargs("--fault-config", str(cfg), "--sdc-coverage", "0.99")
    assert kwargs["sdc_coverage"] == 0.99
    assert kwargs["net_repair_s"] == 7.0
    # ... also when the flag restates the built-in default
    kwargs = spec_kwargs("--sdc-coverage", "0.95", "--fault-config", str(cfg))
    assert kwargs["sdc_coverage"] == 0.95
    assert kwargs["net_repair_s"] == 7.0


def test_fault_config_bad_file_exits(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    args = _build_parser().parse_args(["campaign", "--fault-config", str(bad)])
    with pytest.raises(SystemExit, match="not valid JSON"):
        _campaign_spec_kwargs(args)
