//! # pbds-bench
//!
//! The harness reproducing every table and figure of the PBDS evaluation
//! (Sec. 9 of the paper). The `paper_figures` binary is the one driver: it
//! prints each experiment as a text table.
//!
//! ```text
//! cargo run -p pbds-bench --release --bin paper_figures -- all
//! cargo run -p pbds-bench --release --bin paper_figures -- fig13 --quick
//! ```

#![warn(missing_docs)]

pub mod datasets;
pub mod figs;
pub mod harness;

/// Every figure `paper_figures` prints, in the order it prints them.
/// `checks` is the check-overhead table, the paper's Fig. 15.
pub const FIGURES: [&str; 8] = [
    "example", "fig12", "fig9", "fig11", "fig10", "fig14", "fig13", "checks",
];

/// The figures that the `paper_figures` arguments `names` select, in
/// [`FIGURES`] order: all of them for no name or `all`, else each one
/// named, with `fig15` naming `checks`. An unknown name is an error.
pub fn select_figures(names: &[&str]) -> Result<Vec<&'static str>, String> {
    let mut wanted = Vec::new();
    for &name in names {
        match name {
            "all" => wanted.extend(FIGURES),
            "fig15" => wanted.push("checks"),
            _ => match FIGURES.iter().find(|f| **f == name) {
                Some(f) => wanted.push(*f),
                None => {
                    return Err(format!(
                        "unknown figure `{name}`; expected all, fig15 or one of {}",
                        FIGURES.join(", ")
                    ))
                }
            },
        }
    }
    if names.is_empty() {
        wanted.extend(FIGURES);
    }
    Ok(FIGURES.into_iter().filter(|f| wanted.contains(f)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_names_are_errors() {
        assert!(select_figures(&["fig99"]).is_err());
        assert!(select_figures(&["fig12", "fig99"]).is_err());
    }

    #[test]
    fn fig15_selects_the_check_overhead_table() {
        assert_eq!(select_figures(&["fig15"]), Ok(vec!["checks"]));
        assert_eq!(select_figures(&["checks"]), Ok(vec!["checks"]));
    }

    #[test]
    fn no_name_and_all_select_every_figure_in_print_order() {
        assert_eq!(select_figures(&[]), Ok(FIGURES.to_vec()));
        assert_eq!(select_figures(&["all"]), Ok(FIGURES.to_vec()));
        assert_eq!(
            select_figures(&["checks", "fig9"]),
            Ok(vec!["fig9", "checks"])
        );
    }
}
