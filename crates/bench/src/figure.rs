//! Figure rendering: aligned text tables on stdout plus JSON dumps under
//! `experiments/`, from which EXPERIMENTS.md's paper-vs-measured entries
//! are filled in. JSON is emitted by hand — the build is offline, so no
//! serde — with the same shape a serde derive would produce.

use std::fmt::Write as _;
use std::path::Path;

/// One plotted line.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (e.g. "Uni", "Quaid").
    pub label: String,
    /// `(x, y)` points in x order.
    pub points: Vec<(f64, f64)>,
}

/// One figure of the paper.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper figure id, e.g. "fig10a".
    pub id: String,
    /// Human title.
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Render the figure as an aligned table (rows = x values, one column
    /// per series), matching how the paper's plots read.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}", self.id, self.title);
        let _ = write!(out, "{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>16}", s.label);
        }
        let _ = writeln!(out);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{:>12}", trim_float(*x));
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, y)) => {
                        let _ = write!(out, " {:>16}", format!("{y:.4}"));
                    }
                    None => {
                        let _ = write!(out, " {:>16}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The machine-readable JSON form: `{"id": …, "title": …, "x_label": …,
    /// "y_label": …, "series": [{"label": …, "points": [[x, y], …]}, …]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"id\": {},", json_str(&self.id));
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        let _ = writeln!(out, "  \"x_label\": {},", json_str(&self.x_label));
        let _ = writeln!(out, "  \"y_label\": {},", json_str(&self.y_label));
        out.push_str("  \"series\": [\n");
        for (i, s) in self.series.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"label\": {}, \"points\": [",
                json_str(&s.label)
            );
            for (j, (x, y)) in s.points.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{}, {}]", json_num(*x), json_num(*y));
            }
            out.push_str("] }");
            out.push_str(if i + 1 < self.series.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the JSON dump under `dir/<id>.json`.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(path, self.to_json())
    }
}

/// JSON string literal with the escapes the control set requires.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number: finite floats as-is, non-finite as null (JSON has no NaN).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        Figure {
            id: "fig10a".into(),
            title: "Matching helps repairing (HOSP)".into(),
            x_label: "noise %".into(),
            y_label: "F-measure".into(),
            series: vec![
                Series {
                    label: "Uni".into(),
                    points: vec![(2.0, 0.9), (4.0, 0.85)],
                },
                Series {
                    label: "Quaid".into(),
                    points: vec![(2.0, 0.7), (4.0, 0.66)],
                },
            ],
        }
    }

    #[test]
    fn render_contains_all_series_and_points() {
        let text = fig().render();
        assert!(text.contains("fig10a"));
        assert!(text.contains("Uni"));
        assert!(text.contains("Quaid"));
        assert!(text.contains("0.9000"));
        assert!(text.contains("0.6600"));
    }

    #[test]
    fn json_has_all_fields_and_points() {
        let json = fig().to_json();
        assert!(json.contains("\"id\": \"fig10a\""), "{json}");
        assert!(json.contains("\"label\": \"Quaid\""), "{json}");
        assert!(json.contains("[4, 0.85]"), "{json}");
        assert!(json.contains("[2, 0.7]"), "{json}");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(2.5), "2.5");
    }

    #[test]
    fn integer_x_values_render_without_decimals() {
        assert_eq!(trim_float(4.0), "4");
        assert_eq!(trim_float(2.5), "2.50");
    }
}
