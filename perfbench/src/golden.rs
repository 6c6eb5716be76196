//! Byte-for-byte comparison of a seed-1 registry pass with the committed
//! golden tables under `tests/golden/` (read only). E9 has no golden; its
//! output is covered by the pass digest alone.

use pcelisp::experiments::ExpReport;
use std::path::PathBuf;

/// How a golden file is rendered from an experiment's report sections.
enum Render {
    /// One section's table.
    Section(usize),
    /// Every section's table, joined by a blank line.
    Joined,
    /// The A2 ablation sentence built from E3's second section.
    Ablation,
}

/// Golden file, experiment, rendering.
const GOLDENS: [(&str, &str, Render); 14] = [
    ("e1_fig1", "e1", Render::Section(0)),
    ("e2_drops", "e2", Render::Section(0)),
    ("e3_resolution", "e3", Render::Section(0)),
    ("e3_ablation_precompute", "e3", Render::Ablation),
    ("e4_tcp_setup", "e4", Render::Section(0)),
    ("e5_te", "e5", Render::Section(0)),
    ("e5_ablation_push", "e5", Render::Section(1)),
    ("e6_cache", "e6", Render::Section(0)),
    ("e7_reverse", "e7", Render::Section(0)),
    ("e8_overhead", "e8", Render::Section(0)),
    ("e10_recovery", "e10", Render::Section(0)),
    ("e11_scale_xl", "e11", Render::Section(0)),
    ("e12_adversarial", "e12", Render::Joined),
    ("e13_availability", "e13", Render::Section(0)),
];

/// The golden directory of the checkout this benchmark was built in.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../tests/golden")
}

fn render(report: &ExpReport, how: &Render) -> Option<String> {
    match *how {
        Render::Section(i) => report.sections.get(i).map(|s| s.table().render()),
        Render::Joined => Some(
            report
                .tables()
                .iter()
                .map(|t| t.render())
                .collect::<Vec<_>>()
                .join("\n"),
        ),
        Render::Ablation => {
            let rows = &report.sections.get(1)?.rows;
            let t_dns = |row: usize| rows.get(row)?.get(1).map(|c| c.text.clone());
            Some(format!(
                "A2 ablation: precomputed = {} ms; on-demand = {} ms\n",
                t_dns(0)?,
                t_dns(1)?
            ))
        }
    }
}

/// Compare every golden whose experiment is in `reports` (all of them
/// when `only` is empty) and describe each mismatch.
pub fn check(reports: &[ExpReport], only: &[&str]) -> Vec<String> {
    let mut problems = Vec::new();
    for (file, exp, how) in &GOLDENS {
        if !only.is_empty() && !only.contains(exp) {
            continue;
        }
        let Some(report) = reports.iter().find(|r| r.name == *exp) else {
            problems.push(format!("no {exp} report to compare with golden {file}"));
            continue;
        };
        let path = golden_dir().join(format!("{file}.txt"));
        let want = match std::fs::read_to_string(&path) {
            Ok(w) => w,
            Err(e) => {
                problems.push(format!("golden {}: {e}", path.display()));
                continue;
            }
        };
        if render(report, how).as_deref() != Some(want.as_str()) {
            problems.push(format!("{exp} output differs from golden {file}"));
        }
    }
    problems
}
