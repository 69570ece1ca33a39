//! `gcl figures <id|all>`: the table of artifacts, the sweep plan it
//! implies, and the command that runs that sweep once and renders every
//! requested artifact from it.

use crate::harness::{save_json, Machine, Machine::*, Sweep};
use crate::{ablation, figures};
use gcl_sim::GpuConfig;
use gcl_stats::{FigureSeries, Table};
use gcl_workloads::Category;

/// One drawing of an artifact: what `gcl figures` prints and, for a table
/// or a figure's series, the body of its file under `results/`.
#[derive(Debug)]
pub struct Drawn {
    /// The printed form.
    pub text: String,
    /// The JSON form; `None` for a text-only report.
    pub json: Option<String>,
}

impl From<Table> for Drawn {
    fn from(t: Table) -> Drawn {
        Drawn {
            text: t.to_string(),
            json: Some(t.to_json()),
        }
    }
}

impl From<FigureSeries> for Drawn {
    fn from(f: FigureSeries) -> Drawn {
        Drawn {
            text: f.to_string(),
            json: Some(f.to_json()),
        }
    }
}

/// One row of [`ARTIFACTS`].
pub struct Artifact {
    /// What `gcl figures` calls it; also the stem of its file under
    /// `results/`, before the suffixes `draw` adds.
    pub id: &'static str,
    /// The machines whose runs `draw` reads — all the sweep has to run.
    pub machines: &'static [Machine],
    /// The workload `id:workload` defaults to, for the one artifact that
    /// is about a single workload; `None` refuses the operand.
    pub workload: Option<&'static str>,
    /// Draw the artifact from a sweep that ran `machines`: each drawing
    /// with what its file stem adds to `id` (`fig12` draws three panels).
    draw: fn(&Sweep, &str) -> Vec<(String, Drawn)>,
}

fn one(drawn: impl Into<Drawn>) -> Vec<(String, Drawn)> {
    vec![(String::new(), drawn.into())]
}

const fn row(
    id: &'static str,
    machines: &'static [Machine],
    draw: fn(&Sweep, &str) -> Vec<(String, Drawn)>,
) -> Artifact {
    Artifact {
        id,
        machines,
        workload: None,
        draw,
    }
}

/// The characterisation (Table I, Figures 1–12) is of the baseline alone.
const FERMI: &[Machine] = &[Fermi];

/// Every artifact of the evaluation: Table I, Figures 1–12, the critical-
/// loads report, the text summary and the four Section X ablations.
pub const ARTIFACTS: &[Artifact] = &[
    row("table1", FERMI, |s, _| one(figures::table1(s.on(Fermi)))),
    row("fig1", FERMI, |s, _| one(figures::fig1(s.on(Fermi)))),
    row("fig2", FERMI, |s, _| one(figures::fig2(s.on(Fermi)))),
    row("fig3", FERMI, |s, _| one(figures::fig3(s.on(Fermi)))),
    row("fig4", FERMI, |s, _| one(figures::fig4(s.on(Fermi)))),
    row("fig5", FERMI, |s, _| {
        one(figures::fig5(s.on(Fermi), s.base.unloaded_miss_latency()))
    }),
    row("fig6", FERMI, |s, _| {
        one(figures::fig6(s.on(Fermi), &["bfs", "sssp", "spmv"]))
    }),
    row("fig7", FERMI, |s, _| {
        let latency = s.base.unloaded_miss_latency();
        one(figures::fig7(s.on(Fermi), "bfs", latency))
    }),
    row("fig8", FERMI, |s, _| one(figures::fig8(s.on(Fermi)))),
    row("fig9", FERMI, |s, _| one(figures::fig9(s.on(Fermi)))),
    row("fig10", FERMI, |s, _| one(figures::fig10(s.on(Fermi)))),
    row("fig11", FERMI, |s, _| one(figures::fig11(s.on(Fermi)))),
    row("fig12", FERMI, |s, _| {
        let panels = [
            ("a", Category::Linear),
            ("b", Category::Image),
            ("c", Category::Graph),
        ];
        let draw =
            |(panel, cat): (&str, _)| (panel.to_string(), figures::fig12(s.on(Fermi), cat).into());
        panels.into_iter().map(draw).collect()
    }),
    Artifact {
        workload: Some("bfs"),
        ..row("critical_loads", FERMI, |s, workload| {
            let table = figures::critical_loads(s.on(Fermi), workload);
            vec![(format!("_{workload}"), table.into())]
        })
    },
    row("summary", FERMI, |s, _| {
        let (text, json) = (figures::summary(s.on(Fermi)), None);
        one(Drawn { text, json })
    }),
    row("ablation_cta_sched", &[Fermi, ClusteredCta], |s, _| {
        one(ablation::cta_sched(s.on(Fermi), s.on(ClusteredCta)))
    }),
    row("ablation_semiglobal_l2", &[Fermi, SemiGlobalL2], |s, _| {
        one(ablation::semiglobal_l2(s.on(Fermi), s.on(SemiGlobalL2)))
    }),
    row("ablation_warp_split", &[Fermi, WarpSplit], |s, _| {
        one(ablation::warp_split(s.on(Fermi), s.on(WarpSplit)))
    }),
    row(
        "ablation_prefetch",
        &[Fermi, PrefetchD, PrefetchN, PrefetchAll],
        |s, _| {
            let (d, n, all) = (s.on(PrefetchD), s.on(PrefetchN), s.on(PrefetchAll));
            one(ablation::prefetch(s.on(Fermi), d, n, all))
        },
    ),
];

/// The artifacts `target` names, each with the workload it is about (empty
/// unless it takes one): `all`, one id, or `critical_loads:<workload>`.
///
/// # Errors
///
/// An unknown id, listing every valid one; a `:workload` operand on an
/// artifact that takes none.
pub fn select(target: &str) -> Result<Vec<(&'static Artifact, &str)>, String> {
    if target == "all" {
        let defaults = |a: &'static Artifact| (a, a.workload.unwrap_or(""));
        return Ok(ARTIFACTS.iter().map(defaults).collect());
    }
    let (id, operand) = match target.split_once(':') {
        Some((id, operand)) => (id, Some(operand)),
        None => (target, None),
    };
    let Some(artifact) = ARTIFACTS.iter().find(|a| a.id == id) else {
        let ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
        return Err(format!(
            "no figure or table named `{id}` (valid: all, {})",
            ids.join(", ")
        ));
    };
    match (artifact.workload, operand) {
        (None, Some(_)) => Err(format!("`{id}` is not about one workload; drop `:…`")),
        (default, operand) => Ok(vec![(artifact, operand.or(default).unwrap_or(""))]),
    }
}

/// The distinct machines the selected artifacts read: what the one sweep
/// has to run.
pub fn plan(selection: &[(&Artifact, &str)]) -> Vec<Machine> {
    let mut machines: Vec<Machine> = selection
        .iter()
        .flat_map(|(a, _)| a.machines.iter().copied())
        .collect();
    machines.sort();
    machines.dedup();
    machines
}

/// Draw every selected artifact from `sweep`, which ran [`plan`]: `(file
/// stem under results/, drawing)` in selection order.
pub fn draw(selection: &[(&Artifact, &str)], sweep: &Sweep) -> Vec<(String, Drawn)> {
    let mut out = Vec::new();
    for (artifact, workload) in selection {
        for (suffix, drawn) in (artifact.draw)(sweep, workload) {
            out.push((format!("{}{suffix}", artifact.id), drawn));
        }
    }
    out
}

/// `gcl figures <target> [--tiny] [--jobs N]`: sweep the machines `target`
/// needs once on the Fermi configuration, print every drawing and save its
/// JSON under `results/`.
///
/// # Errors
///
/// A bad `target`, an artifact file that cannot be written, or — after the
/// survivors have been drawn — the runs of the sweep that failed.
pub fn run(target: &str, tiny: bool, jobs: usize) -> Result<(), String> {
    let selection = select(target)?;
    let sweep = Sweep::run(&GpuConfig::fermi(), &plan(&selection), tiny, jobs);
    for (stem, drawn) in draw(&selection, &sweep) {
        println!("{}", drawn.text);
        if let Some(json) = &drawn.json {
            save_json(&stem, json)?;
        }
    }
    sweep.verdict()
}

#[cfg(test)]
mod tests {
    use super::{plan, select, ARTIFACTS};
    use crate::harness::Machine;

    /// An unknown artifact id is a structured error naming every valid id,
    /// not a panic.
    #[test]
    fn unknown_id_lists_valid_names() {
        let err = select("fig99").err().expect("fig99 is no artifact");
        assert!(err.contains("no figure or table named `fig99`"), "{err}");
        for a in ARTIFACTS {
            assert!(err.contains(a.id), "error must list `{}`: {err}", a.id);
        }
    }

    /// `all` is every distinct machine once (7 × 15 = 105 runs, where the
    /// 19 binaries made 375); a characterisation figure is the baseline
    /// alone; an ablation adds only its own variants.
    #[test]
    fn the_sweep_plan_is_the_distinct_machines() {
        let all = plan(&select("all").unwrap());
        assert_eq!(all.len(), 7, "{all:?}");
        assert_eq!(all.len() * gcl_workloads::all_workloads().len(), 105);
        assert_eq!(plan(&select("fig3").unwrap()), [Machine::Fermi]);
        assert_eq!(
            plan(&select("ablation_prefetch").unwrap()),
            [
                Machine::Fermi,
                Machine::PrefetchD,
                Machine::PrefetchN,
                Machine::PrefetchAll
            ]
        );
    }

    /// `critical_loads` is about one workload, `bfs` unless `:workload`
    /// says otherwise; no other artifact takes the operand.
    #[test]
    fn only_critical_loads_takes_a_workload() {
        let about = |target| select(target).map(|s| s[0].1.to_string());
        assert_eq!(about("critical_loads").unwrap(), "bfs");
        assert_eq!(about("critical_loads:spmv").unwrap(), "spmv");
        assert_eq!(about("fig3").unwrap(), "");
        let err = about("fig3:spmv").unwrap_err();
        assert!(err.contains("`fig3` is not about one workload"), "{err}");
        let all = select("all").unwrap();
        assert_eq!(all.len(), 19);
        assert!(all
            .iter()
            .any(|(a, w)| a.id == "critical_loads" && *w == "bfs"));
    }
}
