//! Experiment reporting: aligned console tables plus JSON result files.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{parse, JsonValue};

/// One regenerated table or figure.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Paper identifier, e.g. `"Table V"` or `"Fig. 8"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (substitutions, scaling caveats, observations).
    pub notes: Vec<String>,
}

impl Experiment {
    /// Creates an empty experiment.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a note.
    pub fn note(&mut self, note: &str) -> &mut Self {
        self.notes.push(note.to_string());
        self
    }

    /// Renders the experiment as an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("| ");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:w$} | ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The experiment as a JSON value tree.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("id", JsonValue::String(self.id.clone())),
            ("title", JsonValue::String(self.title.clone())),
            ("headers", JsonValue::strings(&self.headers)),
            (
                "rows",
                JsonValue::Array(self.rows.iter().map(|r| JsonValue::strings(r)).collect()),
            ),
            ("notes", JsonValue::strings(&self.notes)),
        ])
    }

    /// Writes the experiment as JSON under `dir` (created if missing),
    /// named after the experiment id.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or file.
    pub fn save_json(&self, dir: &Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let name = self
            .id
            .to_lowercase()
            .replace(['.', ' '], "_")
            .replace("__", "_");
        let path = dir.join(format!("{name}.json"));
        fs::write(path, self.to_json().pretty())
    }
}

/// Writes a suite's document to `file` at the repository root, then reads
/// the file back, parses it and checks it with the suite's `validate`, so
/// a malformed or regressed file fails the run (and CI). Reports the
/// outcome on the console and returns the binary's exit code.
pub fn write_validated(
    file: &str,
    doc: &JsonValue,
    validate: impl Fn(&JsonValue) -> Result<(), String>,
) -> ExitCode {
    let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file);
    if let Err(err) = fs::write(&path, doc.pretty() + "\n") {
        eprintln!("could not write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    let checked = fs::read_to_string(&path)
        .map_err(|err| format!("could not re-read {}: {err}", path.display()))
        .and_then(|text| parse(&text).map_err(|err| format!("{file} is not valid JSON: {err}")))
        .and_then(|reparsed| {
            validate(&reparsed).map_err(|err| format!("{file} is malformed: {err}"))
        });
    match checked {
        Ok(()) => {
            println!("wrote {} (validated)", path.display());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{err}");
            ExitCode::FAILURE
        }
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio as `N.NN×`.
pub fn times(v: f64) -> String {
    format!("{v:.2}×")
}

/// Formats a fraction as a percentage with 2 decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// "yes: a, b; no: c" over labelled outcomes ("none" for an empty side),
/// for notes that state which rows bear out a claim.
pub fn yes_no<'a>(outcomes: impl Iterator<Item = (&'a str, bool)>) -> String {
    let (yes, no): (Vec<_>, Vec<_>) = outcomes.partition(|&(_, holds)| holds);
    let side = |labels: Vec<(&str, bool)>| match labels.len() {
        0 => "none".to_string(),
        _ => labels
            .iter()
            .map(|(l, _)| *l)
            .collect::<Vec<_>>()
            .join(", "),
    };
    format!("yes: {}; no: {}", side(yes), side(no))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut e = Experiment::new("Table X", "demo", &["name", "value"]);
        e.row(&["a".into(), "1".into()]);
        e.row(&["longer".into(), "2".into()]);
        let s = e.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("| longer | 2"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Experiment::new("T", "t", &["a", "b"]).row(&["only one".into()]);
    }

    #[test]
    fn save_json_round_trip() {
        let mut e = Experiment::new("Fig. 99", "json", &["k"]);
        e.row(&["v".into()]).note("n");
        let dir = std::env::temp_dir().join("forms_bench_test_results");
        e.save_json(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("fig_99.json")).unwrap();
        assert!(text.contains("\"Fig. 99\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(times(2.0), "2.00×");
        assert_eq!(pct(0.1234), "12.34%");
    }
}
