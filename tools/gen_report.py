"""Collect the benchmark artefacts into a single REPORT.md.

After ``pytest benchmarks/ --benchmark-only``, every experiment leaves its
reproduced rows/series under ``benchmarks/output/``.  This tool stitches
them into one reviewable document, ordered by experiment id, with the
paper artefact each section reproduces.  Run from the repository root:

    python tools/gen_report.py
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_DIR = ROOT / "benchmarks" / "output"
REPORT = ROOT / "REPORT.md"

#: Display order and titles; artefacts not listed are appended at the end.
SECTIONS = [
    ("fig03_arrivals", "Fig 3 — per-minute arrival-rate fits per BS decile"),
    ("fig04_ranking", "Fig 4 — service popularity ranking and exponential law"),
    ("fig05_service_pdfs", "Fig 5 — showcase service statistics"),
    ("fig06_clustering", "Fig 6 — shape clustering and silhouette"),
    ("fig07_fb_dichotomy", "Fig 7 — Facebook Live vs Facebook"),
    ("fig08_invariance", "Fig 8 — invariance across space/time/RAT"),
    ("fig09_decomposition", "Fig 9 — Netflix mixture decomposition"),
    ("fig10_powerlaw", "Fig 10 — power-law exponents per service"),
    ("fig11_model_fit", "Fig 11 — models vs measurements"),
    ("table1_shares", "Table 1 — session and traffic shares"),
    ("table2_slicing", "Table 2 — slicing SLA satisfaction"),
    ("table2_replicated", "Table 2 (replicated) — seed stability"),
    ("fig12_slice_timeseries", "Fig 12 — Facebook slice demand vs capacity"),
    ("fig13b_vran_ape", "Fig 13b — vRAN APE distributions"),
    ("fig13c_power_timeseries", "Fig 13c — power consumption over time"),
    ("model_quality", "Section 5.4 — model quality across services"),
    ("taxonomy_comparison", "Fig 1 taxonomy — BS-level vs session-level"),
    ("rat_invariance_models", "Insight (d) — one model bank for both RATs"),
    ("capacity_qoe", "Extension — downlink QoE under processor sharing"),
    ("ablation_residual_peaks", "Ablation — residual peak count"),
    ("ablation_derivative_threshold", "Ablation — derivative threshold"),
    ("ablation_duration_families", "Ablation — duration fit families"),
    ("ablation_arrival_models", "Ablation — arrival model families"),
    ("ablation_calibration", "Ablation — tail-calibration modes"),
    ("ablation_mobility", "Ablation — mobility impact on the models"),
    ("ablation_arrival_granularity", "Ablation — arrival model granularity"),
    ("ablation_du_affinity", "Ablation — DU locality in placement"),
    ("ablation_handover", "Ablation — the handover probe artefact"),
    ("ablation_sla_percentile", "Ablation — SLA allocation percentile"),
]


def main() -> None:
    if not OUTPUT_DIR.exists():
        raise SystemExit(
            "no benchmarks/output/ — run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    available = {p.stem: p for p in OUTPUT_DIR.glob("*.txt")}
    lines = [
        "# Reproduction report",
        "",
        "Generated by `python tools/gen_report.py` from the artefacts the",
        "benchmark harness archived under `benchmarks/output/`.  See",
        "`EXPERIMENTS.md` for the paper-vs-measured discussion.",
        "",
    ]
    listed = set()
    for stem, title in SECTIONS:
        path = available.get(stem)
        if path is None:
            continue
        listed.add(stem)
        lines += [f"## {title}", "", "```", path.read_text().rstrip(), "```", ""]
    for stem in sorted(set(available) - listed):
        lines += [
            f"## {stem}",
            "",
            "```",
            available[stem].read_text().rstrip(),
            "```",
            "",
        ]
    REPORT.write_text("\n".join(lines) + "\n")
    print(f"wrote {REPORT} ({len(lines)} lines, {len(available)} artefacts)")


if __name__ == "__main__":
    main()
