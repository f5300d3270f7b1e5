"""Input checks of the one place server settings are declared."""

import pytest

from repro.core import rs_paxos
from repro.kvstore import ServerConfig, build_cluster


@pytest.mark.parametrize("weight", [0.0, -1.0])
def test_non_positive_tenant_weight_rejected_at_construction(weight):
    with pytest.raises(ValueError, match="tenant weight"):
        ServerConfig(tenant_weights={"gold": weight})


def test_tenant_weights_are_copied():
    weights = {"gold": 2.0}
    cfg = ServerConfig(tenant_weights=weights)
    weights["gold"] = 5.0
    assert cfg.tenant_weights == {"gold": 2.0}


def test_build_cluster_rejects_unknown_knob():
    with pytest.raises(TypeError):
        build_cluster(rs_paxos(5, 1), batch_max_comands=4)


def test_build_cluster_shares_one_config():
    c = build_cluster(rs_paxos(5, 1), batch_max_commands=4, rpc_timeout=1.0)
    assert {id(s.cfg) for s in c.servers} == {id(c.servers[0].cfg)}
    assert c.servers[0].cfg == ServerConfig(batch_max_commands=4,
                                           rpc_timeout=1.0)
