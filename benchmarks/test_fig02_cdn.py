"""Paper Fig 2: a conventional processor under a CDN video service.

10 Gbps NIC, 25 Mbps streams: as connections approach the NIC limit, CPU
utilisation stays under 10 %, the branch miss ratio exceeds 10 %, and the
L1 miss ratio reaches ~40 %.
"""

from repro.analysis import render_table
from repro.workloads import CdnConfig, CdnModel


def _sweep():
    return CdnModel(CdnConfig()).sweep(points=8)


def test_fig02_cdn(emit):
    points = _sweep()

    rows = [[p.connections, round(p.nic_utilization, 3),
             round(p.cpu_utilization, 4), round(p.branch_miss_ratio, 3),
             round(p.l1_miss_ratio, 3)]
            for p in points]
    emit("fig02_cdn", render_table(
        ["connections", "NIC util", "CPU util", "branch miss", "L1 miss"],
        rows, title="Fig 2: conventional processor under a CDN workload"))

    limit = points[-1]
    assert limit.connections == 400                 # 10 Gbps / 25 Mbps
    assert limit.nic_utilization == 1.0             # NIC saturated...
    assert limit.cpu_utilization < 0.10             # ...CPU under 10%
    assert limit.branch_miss_ratio > 0.10           # branch miss exceeds 10%
    assert 0.3 <= limit.l1_miss_ratio <= 0.55       # L1 miss about 40%
    # curves are monotone in offered load
    for a, b in zip(points, points[1:]):
        assert b.nic_utilization >= a.nic_utilization
        assert b.cpu_utilization >= a.cpu_utilization
        assert b.branch_miss_ratio >= a.branch_miss_ratio
        assert b.l1_miss_ratio >= a.l1_miss_ratio - 0.02
