"""Consolidated experiment report.

Collects the rendered figure/table outputs the benches wrote under
``benchmarks/results/`` into one markdown document — the artifact a
reviewer reads next to EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["EXPERIMENT_ORDER", "collect_results", "build_report"]

# (result-file stem, section heading)
EXPERIMENT_ORDER: List[Tuple[str, str]] = [
    ("fig01_xeon_profile", "Fig 1 — HTC on a conventional processor"),
    ("fig02_cdn", "Fig 2 — CDN service study"),
    ("fig08_granularity", "Fig 8 — memory access granularity"),
    ("fig17_tcg_ipc", "Fig 17 — TCG IPC vs thread count"),
    ("fig18_hdnoc", "Fig 18 — high-density NoC"),
    ("fig19_mact_threshold", "Fig 19 — MACT time threshold"),
    ("fig20_mact", "Fig 20 — MACT vs conventional"),
    ("fig21_scheduler", "Fig 21 — laxity-aware scheduler"),
    ("table1_area_power", "Table 1 — area & power"),
    ("table2_configs", "Table 2 — hardware configurations"),
    ("fig22_comparison", "Fig 22 — SmarCo vs Xeon"),
    ("fig23_scalability", "Fig 23 — scalability"),
    ("fig26_prototype", "Fig 26 — 40nm prototype"),
    ("ablation_topology", "Ablation — NoC topology"),
    ("ablation_directpath", "Ablation — direct datapath"),
    ("ablation_mact_bypass", "Ablation — MACT real-time bypass"),
    ("ablation_inpair_chip", "Ablation — thread scheduling on chip"),
    ("ext_future_work", "Extensions — §7 future work implemented"),
]


def collect_results(results_dir: Path) -> Dict[str, str]:
    """{stem: rendered text} for every result file present."""
    out: Dict[str, str] = {}
    if not results_dir.is_dir():
        return out
    for path in results_dir.glob("*.txt"):
        out[path.stem] = path.read_text().rstrip()
    return out


def build_report(results_dir: Path,
                 title: str = "SmarCo reproduction — experiment report") -> str:
    """Assemble the markdown report (missing sections are noted)."""
    results = collect_results(results_dir)
    lines = [f"# {title}", "",
             "Regenerate the raw outputs with `pytest benchmarks/`.", ""]
    seen = set()
    for stem, heading in EXPERIMENT_ORDER:
        lines.append(f"## {heading}")
        lines.append("")
        if stem in results:
            lines.append("```")
            lines.append(results[stem])
            lines.append("```")
            seen.add(stem)
        else:
            lines.append(f"*not yet generated — run "
                         f"`pytest benchmarks/test_{stem}.py`*")
        lines.append("")
    extras = sorted(set(results) - seen)
    for stem in extras:
        lines.append(f"## {stem}")
        lines.append("")
        lines.append("```")
        lines.append(results[stem])
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
