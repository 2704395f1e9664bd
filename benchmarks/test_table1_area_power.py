"""Paper Table 1: area and power of SmarCo at 32 nm / 1.5 GHz.

The analytic model (McPAT/CACTI/Orion substitute) must reproduce the
paper's component breakdown.
"""

import pytest

from repro.analysis import render_table
from repro.config import smarco_default
from repro.power import AreaModel, PowerModel

PAPER = {
    "Cores": (634.32, 209.91),
    "Hierarchy Ring": (57.43, 14.55),
    "MACT": (1.43, 0.14),
    "SPM+Cache": (44.90, 1.84),
    "MC+PHY": (12.92, 13.65),
}
PAPER_TOTAL = (751.00, 240.09)


def _sweep():
    cfg = smarco_default()
    return AreaModel(cfg).breakdown(), PowerModel(cfg).breakdown()


def test_table1_area_power(emit):
    area, power = _sweep()

    rows = []
    for comp, (paper_area, paper_power) in PAPER.items():
        rows.append([comp, round(area[comp], 2), paper_area,
                     round(power[comp], 2), paper_power])
    rows.append(["Total", round(sum(area.values()), 2), PAPER_TOTAL[0],
                 round(sum(power.values()), 2), PAPER_TOTAL[1]])
    emit("table1_area_power", render_table(
        ["component", "area mm2", "paper", "power W", "paper "],
        rows, title="Table 1: area & power at 32nm (model vs paper)"))

    for comp, (paper_area, paper_power) in PAPER.items():
        assert area[comp] == pytest.approx(paper_area, rel=0.01), comp
        assert power[comp] == pytest.approx(paper_power, rel=0.01), comp
    assert sum(area.values()) == pytest.approx(PAPER_TOTAL[0], rel=0.01)
    assert sum(power.values()) == pytest.approx(PAPER_TOTAL[1], rel=0.01)
