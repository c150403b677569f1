//! Tolerant reader for the golden `results/*.csv` artefacts.
//!
//! The committed goldens are rendered tables: cells carry unit
//! suffixes (`+49.51%`, `6.84 ps`), bootstrap intervals
//! (`[2.410, 2.460]`), and quoted headers with embedded commas
//! (`"tdp sigma, MP only"`). The reader parses that dialect once so
//! the comparison engine diffs *numbers*, not byte strings — float
//! re-formatting, column reordering, or added columns never produce
//! spurious diffs.

use crate::TestkitError;

/// A parsed CSV table: one header row plus data rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvTable {
    /// Column names, as written (whitespace-trimmed).
    pub header: Vec<String>,
    /// Data rows; every row is padded/truncated to the header width.
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Parses CSV text with RFC-4180-style quoting (`""` escapes a
    /// quote inside a quoted field). Blank lines are skipped; `\r\n`
    /// line endings are accepted.
    ///
    /// # Errors
    ///
    /// [`TestkitError::Csv`] for an empty input or an unterminated
    /// quoted field.
    pub fn parse(text: &str) -> Result<Self, TestkitError> {
        let mut records = parse_records(text)?;
        if records.is_empty() {
            return Err(TestkitError::Csv {
                message: "no header row".to_string(),
            });
        }
        let header: Vec<String> = records.remove(0);
        let width = header.len();
        let rows = records
            .into_iter()
            .map(|mut r| {
                r.resize(width, String::new());
                r
            })
            .collect();
        Ok(Self { header, rows })
    }

    /// Index of the column whose header matches `name`
    /// (case-insensitive, whitespace-trimmed).
    pub fn column(&self, name: &str) -> Option<usize> {
        let want = name.trim().to_ascii_lowercase();
        self.header
            .iter()
            .position(|h| h.trim().to_ascii_lowercase() == want)
    }

    /// The join key of a row: the trimmed cells of `key_columns`
    /// (already resolved to indices), tab-joined.
    pub fn key_of(&self, row: &[String], key_indices: &[usize]) -> String {
        key_indices
            .iter()
            .map(|&i| row[i].trim())
            .collect::<Vec<_>>()
            .join("\t")
    }
}

/// Splits text into records, honouring quotes.
fn parse_records(text: &str) -> Result<Vec<Vec<String>>, TestkitError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut field_was_quoted = false;
    let mut chars = text.chars().peekable();

    let finish_field = |record: &mut Vec<String>, field: &mut String, quoted: bool| {
        let cell = if quoted {
            field.clone()
        } else {
            field.trim().to_string()
        };
        record.push(cell);
        field.clear();
    };

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' if field.trim().is_empty() => {
                in_quotes = true;
                field_was_quoted = true;
                field.clear();
            }
            ',' => {
                finish_field(&mut record, &mut field, field_was_quoted);
                field_was_quoted = false;
            }
            '\r' => {}
            '\n' => {
                finish_field(&mut record, &mut field, field_was_quoted);
                field_was_quoted = false;
                if !(record.len() == 1 && record[0].is_empty()) {
                    records.push(std::mem::take(&mut record));
                }
                record.clear();
            }
            _ => field.push(c),
        }
    }
    if in_quotes {
        return Err(TestkitError::Csv {
            message: "unterminated quoted field".to_string(),
        });
    }
    if !field.is_empty() || field_was_quoted || !record.is_empty() {
        finish_field(&mut record, &mut field, field_was_quoted);
        if !(record.len() == 1 && record[0].is_empty()) {
            records.push(record);
        }
    }
    Ok(records)
}

/// Parses a formatted cell into a number, tolerating the artefact
/// dialect: an optional sign, `%` / `ps` / `ns` / `nm` unit suffixes,
/// and surrounding whitespace. Returns `None` for non-numeric cells.
///
/// The numeric *value* is returned in the cell's display unit (a
/// `"6.84 ps"` cell parses to `6.84`, not seconds) — comparisons are
/// always golden-vs-fresh in identical units, so no conversion is
/// needed or wanted.
pub(crate) fn parse_number(cell: &str) -> Option<f64> {
    let mut s = cell.trim();
    for suffix in ["%", "ps", "ns", "nm", "ohm", "fF"] {
        if let Some(stripped) = s.strip_suffix(suffix) {
            s = stripped.trim_end();
            break;
        }
    }
    let s = s.strip_prefix('+').unwrap_or(s);
    if s.is_empty() {
        return None;
    }
    s.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Parses an interval cell `[lo, hi]` (the bootstrap-CI rendering)
/// into its bounds.
pub(crate) fn parse_interval(cell: &str) -> Option<(f64, f64)> {
    let s = cell.trim().strip_prefix('[')?.strip_suffix(']')?;
    let (lo, hi) = s.split_once(',')?;
    let lo = parse_number(lo)?;
    let hi = parse_number(hi)?;
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_table() {
        let t = CsvTable::parse("a,b,c\n1,2,3\n4,5,6\n").unwrap();
        assert_eq!(t.header, vec!["a", "b", "c"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1], vec!["4", "5", "6"]);
    }

    #[test]
    fn quoted_fields_with_commas_and_escapes() {
        let t = CsvTable::parse("metric,value\n\"pearson(R_bl, R_vss)\",-0.705\n\"a\"\"b\",1\n")
            .unwrap();
        assert_eq!(t.rows[0][0], "pearson(R_bl, R_vss)");
        assert_eq!(t.rows[1][0], "a\"b");
    }

    #[test]
    fn quoted_header_with_comma() {
        let t = CsvTable::parse("option,\"tdp sigma, MP only\"\nLELELE,2.498%\n").unwrap();
        assert_eq!(t.column("tdp sigma, MP only"), Some(1));
        assert_eq!(t.rows[0][1], "2.498%");
    }

    #[test]
    fn column_lookup_is_case_and_space_insensitive() {
        let t = CsvTable::parse("Array , C_bl Impact\n10x16,+1%\n").unwrap();
        assert_eq!(t.column("array"), Some(0));
        assert_eq!(t.column("c_bl impact"), Some(1));
        assert_eq!(t.column("missing"), None);
    }

    #[test]
    fn blank_lines_and_crlf_tolerated() {
        let t = CsvTable::parse("a,b\r\n\r\n1,2\r\n\n").unwrap();
        assert_eq!(t.rows, vec![vec!["1", "2"]]);
    }

    #[test]
    fn short_rows_padded() {
        let t = CsvTable::parse("a,b,c\n1,2\n").unwrap();
        assert_eq!(t.rows[0], vec!["1", "2", ""]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(CsvTable::parse("").is_err());
        assert!(CsvTable::parse("a,\"unterminated\n1,2").is_err());
    }

    #[test]
    fn number_parsing_dialect() {
        assert_eq!(parse_number("+49.51%"), Some(49.51));
        assert_eq!(parse_number("-13.73%"), Some(-13.73));
        assert_eq!(parse_number("6.84 ps"), Some(6.84));
        assert_eq!(parse_number("2.438"), Some(2.438));
        assert_eq!(parse_number(" 24nm "), Some(24.0));
        assert_eq!(parse_number("1.00241"), Some(1.00241));
        assert_eq!(parse_number("10x16"), None);
        assert_eq!(parse_number("LELELE"), None);
        assert_eq!(parse_number(""), None);
        assert_eq!(parse_number("NaN"), None);
    }

    #[test]
    fn interval_parsing() {
        assert_eq!(parse_interval("[2.410, 2.460]"), Some((2.410, 2.460)));
        assert_eq!(parse_interval("[-1.5, 0.5]"), Some((-1.5, 0.5)));
        assert_eq!(parse_interval("2.410, 2.460"), None);
        assert_eq!(parse_interval("[a, b]"), None);
    }

    #[test]
    fn golden_table4_roundtrip() {
        // The committed Table IV dialect, verbatim.
        let text = "patterning option,std deviation (% tdp),95% bootstrap CI\n\
                    LELELE 3nm OL,1.264,\"[1.251, 1.276]\"\n\
                    SADP,0.947,\"[0.938, 0.958]\"\n";
        let t = CsvTable::parse(text).unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(
            parse_interval(t.rows[0][t.column("95% bootstrap ci").unwrap()].as_str()),
            Some((1.251, 1.276))
        );
    }
}
