//! One module per regenerated table/figure (see `DESIGN.md` §4).

use crate::report::Experiment;

pub mod energy;
pub mod fig13;
pub mod fig14;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod noise;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

/// Runs one experiment module; `fig8` yields both of its panels.
pub type Runner = fn() -> Vec<Experiment>;

/// Every experiment of the evaluation, by the name of its module, in the
/// order `repro` runs them when given no names.
pub const EXPERIMENTS: [(&str, Runner); 13] = [
    ("fig7", || vec![fig7::run()]),
    ("fig8", fig8::run),
    ("fig6", || vec![fig6::run()]),
    ("table1", || vec![table1::run()]),
    ("table2", || vec![table2::run()]),
    ("table3", || vec![table3::run()]),
    ("table4", || vec![table4::run()]),
    ("table5", || vec![table5::run()]),
    ("fig13", || vec![fig13::run()]),
    ("fig14", || vec![fig14::run()]),
    ("table6", || vec![table6::run()]),
    ("noise", || vec![noise::run()]),
    ("energy", || vec![energy::run()]),
];

/// The runner registered under `name`, if any.
pub fn find(name: &str) -> Option<Runner> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, run)| run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_module_is_registered_once_under_its_own_name() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
        let mut modules: Vec<String> = std::fs::read_dir(dir)
            .expect("experiments/ is readable")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|stem| stem != "mod")
            .collect();
        modules.sort();
        let mut names: Vec<String> = EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
        names.sort();
        // File stems are unique, so this also pins one entry per module.
        assert_eq!(names, modules);
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(find("table1").is_some());
        assert!(find("fig_8a").is_none());
        assert!(find("Table1").is_none());
        assert!(find("").is_none());
    }
}
