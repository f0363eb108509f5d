//! Prints the reproduction of every table and figure of the PBDS evaluation.
//!
//! Usage: `paper_figures [all|example|fig9|fig10|fig11|fig12|fig13|fig14|fig15|checks]... [--quick]`
//!
//! `fig15` and `checks` name the same check-overhead table. An unknown
//! figure name prints the usage to stderr and exits with status 2.

use pbds_bench::{datasets, figs, select_figures};
use pbds_exec::EngineProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let selected = match select_figures(&which) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("paper_figures: {e}");
            eprintln!(
                "usage: paper_figures [all|example|fig9|fig10|fig11|fig12|fig13|fig14|fig15|checks]... [--quick]"
            );
            std::process::exit(2);
        }
    };
    let runs = if quick { 1 } else { 3 };
    let e2e_queries = if quick { 60 } else { 200 };

    let want = |name: &str| selected.contains(&name);

    if want("example") {
        println!("{}", figs::running_example());
    }
    if want("fig12") {
        println!("{}", figs::fig12a(runs));
        println!("{}", figs::fig12b(runs));
    }
    if want("fig9") {
        println!("{}", figs::fig9());
    }
    if want("fig11") {
        println!(
            "{}",
            figs::fig11_tpch(datasets::TpchScale::Small, EngineProfile::Indexed, runs)
        );
        println!(
            "{}",
            figs::fig11_tpch(datasets::TpchScale::Large, EngineProfile::Indexed, runs)
        );
        println!("{}", figs::fig11c(runs));
        println!(
            "{}",
            figs::fig11_tpch(
                datasets::TpchScale::Small,
                EngineProfile::ColumnarScan,
                runs
            )
        );
        println!(
            "{}",
            figs::fig11_tpch(
                datasets::TpchScale::Large,
                EngineProfile::ColumnarScan,
                runs
            )
        );
    }
    if want("fig10") {
        println!("{}", figs::fig10(runs));
    }
    if want("fig14") {
        println!("{}", figs::fig14(runs));
    }
    if want("fig13") {
        println!("{}", figs::fig13_crimes(e2e_queries));
        println!("{}", figs::fig13_sof(e2e_queries));
    }
    if want("checks") {
        println!("{}", figs::check_overhead(runs.max(5)));
    }
}
