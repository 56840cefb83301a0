//! Terminal rendering of the paper's figures: heatmaps (Figures 1–2),
//! multi-series line charts (Figure 3) and aligned text tables.
//!
//! The output is plain ASCII so it renders identically in logs, CI output
//! and the criterion bench summaries.

/// Shade ramp used by [`heatmap`]: 0.0 maps to the first char, 1.0 to the
/// last. Mirrors "the brighter the colored area, the more tuples active".
const SHADES: &[u8] = b" .:-=+*#%@";

/// Render a heatmap for a matrix of values in `[0,1]`.
///
/// `rows` pairs a label with one row of cell intensities. All rows should
/// have equal length; shorter rows are padded with spaces. `col_labels`
/// (optional) is printed underneath.
pub fn heatmap(rows: &[(String, Vec<f64>)], col_labels: Option<&[String]>) -> String {
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, cells) in rows {
        out.push_str(&format!("{label:>label_w$} |"));
        for &v in cells {
            let v = v.clamp(0.0, 1.0);
            let idx = ((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1);
            // Two chars per cell for a readable aspect ratio.
            let ch = SHADES[idx] as char;
            out.push(ch);
            out.push(ch);
        }
        out.push('\n');
    }
    if let Some(labels) = col_labels {
        out.push_str(&" ".repeat(label_w));
        out.push_str(" |");
        for l in labels {
            let mut cell = l.clone();
            cell.truncate(2);
            out.push_str(&format!("{cell:<2}"));
        }
        out.push('\n');
    }
    out
}

/// Render several named series as an ASCII line chart.
///
/// The y-range is `[y_min, y_max]`; each series gets a distinct glyph.
/// `height` is the number of chart rows (excluding axes).
pub fn line_chart(series: &[(String, Vec<f64>)], y_min: f64, y_max: f64, height: usize) -> String {
    const GLYPHS: &[u8] = b"ox+*#@$%&";
    let width = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    if width == 0 || height == 0 {
        return String::new();
    }
    let span = (y_max - y_min).max(f64::EPSILON);
    // grid[r][c]: r = 0 is the top row.
    let mut grid = vec![vec![b' '; width]; height];
    for (si, (_, values)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (c, &v) in values.iter().enumerate() {
            let norm = ((v - y_min) / span).clamp(0.0, 1.0);
            let r = ((1.0 - norm) * (height - 1) as f64).round() as usize;
            grid[r][c] = glyph;
        }
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let y = y_max - span * r as f64 / (height - 1).max(1) as f64;
        out.push_str(&format!("{y:6.2} |"));
        for &ch in row {
            out.push(ch as char);
            out.push(' ');
        }
        out.push('\n');
    }
    out.push_str("       +");
    out.push_str(&"-".repeat(width * 2));
    out.push('\n');
    // Legend.
    out.push_str("        ");
    for (si, (name, _)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()] as char;
        out.push_str(&format!("{glyph}={name}  "));
    }
    out.push('\n');
    out
}

/// Aligned text table builder used by the repro harness.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded/truncated to the header width on render).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with column alignment (left for the first column, right for
    /// the rest — first column is typically a name).
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("  {cell:>w$}"));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_extremes_use_ramp_ends() {
        let rows = vec![("a".to_string(), vec![0.0, 1.0])];
        let hm = heatmap(&rows, None);
        assert!(hm.contains("a |"));
        assert!(hm.contains("  @@"), "expected dark->bright ramp: {hm}");
    }

    #[test]
    fn heatmap_clamps_out_of_range() {
        let rows = vec![("x".to_string(), vec![-0.5, 1.5])];
        let hm = heatmap(&rows, None);
        assert!(hm.contains("  @@"));
    }

    #[test]
    fn line_chart_has_legend_and_axis() {
        let series = vec![
            ("fifo".to_string(), vec![1.0, 0.5, 0.2]),
            ("area".to_string(), vec![1.0, 0.9, 0.8]),
        ];
        let chart = line_chart(&series, 0.0, 1.0, 5);
        assert!(chart.contains("o=fifo"));
        assert!(chart.contains("x=area"));
        assert!(chart.contains('+'));
    }

    #[test]
    fn line_chart_empty_series() {
        assert_eq!(line_chart(&[], 0.0, 1.0, 5), "");
    }

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = TextTable::new(vec!["policy", "pf"]);
        t.row(vec!["fifo", "0.1"]);
        t.row(vec!["uniform-longer", "0.25"]);
        let s = t.render();
        assert!(s.contains("policy"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
