//! The measured margin map: a characterization campaign's raw product.
//!
//! A [`MarginMap`] records, for every achievable (frequency class, droop
//! class, thread bucket) cell, the lowest voltage the campaign could
//! confirm safe on the weakest PMDs of that cell — plus enough probe
//! bookkeeping (highest failing level, probe and discard counts) to audit
//! the measurement afterwards. The map serializes to JSONL with a fixed
//! field order, so two campaigns run from the same seed export
//! byte-identical files and any drift in the engine shows up as a diff.

use avfs_telemetry::json::{self, Json};
use std::fmt;

/// Format tag written into (and required from) every margin-map header.
pub const MARGIN_MAP_SCHEMA: &str = "avfs-margin-map/v1";

/// One measured characterization cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarginCell {
    /// Frequency-class row (0 = Divided, 1 = Reduced, 2 = Max).
    pub freq_row: usize,
    /// Droop-class column (`DroopClass::index()`).
    pub droop_index: usize,
    /// Thread bucket (0 → 1T, 1 → 2T, 2 → 3–4T, 3 → many).
    pub bucket: usize,
    /// Utilized-PMD count the cell was stressed at (the largest count
    /// still inside the droop class).
    pub utilized_pmds: usize,
    /// Active threads the cell was stressed at.
    pub threads: usize,
    /// Lowest voltage that passed the full confirmation ladder, mV.
    pub measured_safe_mv: u32,
    /// Highest voltage at which any probe failed (0 if none did — the
    /// search bottomed out at the regulator floor without a failure).
    pub highest_fail_mv: u32,
    /// Stress probes spent on this cell (including confirmation passes).
    pub probes: u64,
    /// Observations discarded as unusable: droop-excursion waits and
    /// glitched PMU windows.
    pub discarded: u64,
}

/// A complete measured margin map for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginMap {
    /// Name of the characterized chip (its spec name).
    pub chip: String,
    /// Nominal rail voltage of the characterized chip, mV.
    pub nominal_mv: u32,
    /// Regulator floor of the characterized chip, mV.
    pub floor_mv: u32,
    /// Total PMDs on the characterized chip.
    pub pmds: usize,
    /// Campaign seed the map was measured under.
    pub seed: u64,
    /// Confirmation passes each accepted level had to survive.
    pub confirm_passes: u32,
    /// Measured cells, in canonical campaign order (frequency class
    /// ascending, droop class ascending, bucket ascending).
    pub cells: Vec<MarginCell>,
}

/// A line the JSONL importer could not digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarginMapParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for MarginMapParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "margin map line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MarginMapParseError {}

impl MarginMap {
    /// Renders the map as JSONL: one header line, then one line per cell
    /// in canonical order. Field order is fixed, so identical maps render
    /// identical bytes.
    pub fn to_jsonl(&self) -> String {
        let mut chip = String::new();
        json::escape_into(&mut chip, &self.chip);
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"kind\":\"margin-map\",\"schema\":\"{}\",\"chip\":{},\
             \"nominal_mv\":{},\"floor_mv\":{},\"pmds\":{},\"seed\":{},\
             \"confirm_passes\":{},\"cells\":{}}}\n",
            MARGIN_MAP_SCHEMA,
            chip,
            self.nominal_mv,
            self.floor_mv,
            self.pmds,
            self.seed,
            self.confirm_passes,
            self.cells.len(),
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{{\"kind\":\"cell\",\"fc\":{},\"dc\":{},\"bucket\":{},\
                 \"utilized_pmds\":{},\"threads\":{},\"measured_safe_mv\":{},\
                 \"highest_fail_mv\":{},\"probes\":{},\"discarded\":{}}}\n",
                c.freq_row,
                c.droop_index,
                c.bucket,
                c.utilized_pmds,
                c.threads,
                c.measured_safe_mv,
                c.highest_fail_mv,
                c.probes,
                c.discarded,
            ));
        }
        out
    }

    /// Parses a JSONL rendering produced by [`MarginMap::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`MarginMapParseError`] on a missing/foreign header, an
    /// unknown schema, a line that is not a JSON object of the expected
    /// kind, a missing or out-of-range integer field, or a cell-count
    /// mismatch.
    pub fn from_jsonl(text: &str) -> Result<Self, MarginMapParseError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| parse_err(1, "empty input, expected a margin-map header"))?;
        let header = parse_line(1, header)?;
        if header.get("kind").and_then(Json::as_str) != Some("margin-map") {
            return Err(parse_err(1, "first line is not a margin-map header"));
        }
        match header.get("schema").and_then(Json::as_str) {
            Some(MARGIN_MAP_SCHEMA) => {}
            other => {
                return Err(parse_err(
                    1,
                    format!("unsupported schema {other:?}, expected {MARGIN_MAP_SCHEMA:?}"),
                ))
            }
        }
        let chip = header
            .get("chip")
            .and_then(Json::as_str)
            .ok_or_else(|| parse_err(1, "header missing chip name"))?
            .to_string();
        let nominal_mv = field(1, &header, "nominal_mv")?;
        let floor_mv = field(1, &header, "floor_mv")?;
        let pmds = field(1, &header, "pmds")?;
        let seed = field(1, &header, "seed")?;
        let confirm_passes = field(1, &header, "confirm_passes")?;
        let declared: usize = field(1, &header, "cells")?;
        // `declared` is untrusted input: grow per line, never reserve it.
        let mut cells = Vec::new();
        for (idx, line) in lines {
            let n = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let cell = parse_line(n, line)?;
            if cell.get("kind").and_then(Json::as_str) != Some("cell") {
                return Err(parse_err(n, "expected a cell line"));
            }
            cells.push(MarginCell {
                freq_row: field(n, &cell, "fc")?,
                droop_index: field(n, &cell, "dc")?,
                bucket: field(n, &cell, "bucket")?,
                utilized_pmds: field(n, &cell, "utilized_pmds")?,
                threads: field(n, &cell, "threads")?,
                measured_safe_mv: field(n, &cell, "measured_safe_mv")?,
                highest_fail_mv: field(n, &cell, "highest_fail_mv")?,
                probes: field(n, &cell, "probes")?,
                discarded: field(n, &cell, "discarded")?,
            });
        }
        if cells.len() != declared {
            return Err(parse_err(
                1,
                format!(
                    "header declares {declared} cells, file carries {}",
                    cells.len()
                ),
            ));
        }
        Ok(MarginMap {
            chip,
            nominal_mv,
            floor_mv,
            pmds,
            seed,
            confirm_passes,
            cells,
        })
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> MarginMapParseError {
    MarginMapParseError {
        line,
        message: message.into(),
    }
}

/// Parses one JSONL line as a JSON document.
fn parse_line(line: usize, text: &str) -> Result<Json, MarginMapParseError> {
    json::parse(text).map_err(|e| parse_err(line, e.to_string()))
}

/// Reads integer field `key` of `doc`, rejecting values that do not fit
/// the target type instead of truncating them.
fn field<T: TryFrom<u64>>(line: usize, doc: &Json, key: &str) -> Result<T, MarginMapParseError> {
    let raw = doc
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| parse_err(line, format!("missing integer field {key:?}")))?;
    T::try_from(raw).map_err(|_| parse_err(line, format!("field {key:?} out of range: {raw}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MarginMap {
        MarginMap {
            chip: "X-Gene 2".to_string(),
            nominal_mv: 980,
            floor_mv: 600,
            pmds: 4,
            seed: 7,
            confirm_passes: 24,
            cells: vec![
                MarginCell {
                    freq_row: 2,
                    droop_index: 1,
                    bucket: 0,
                    utilized_pmds: 1,
                    threads: 1,
                    measured_safe_mv: 912,
                    highest_fail_mv: 911,
                    probes: 321,
                    discarded: 2,
                },
                MarginCell {
                    freq_row: 2,
                    droop_index: 3,
                    bucket: 3,
                    utilized_pmds: 4,
                    threads: 5,
                    measured_safe_mv: 931,
                    highest_fail_mv: 930,
                    probes: 188,
                    discarded: 0,
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let map = sample();
        let text = map.to_jsonl();
        let back = MarginMap::from_jsonl(&text).expect("round trip");
        assert_eq!(back, map);
        // Re-export is byte-identical.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn header_carries_schema_and_cell_count() {
        let text = sample().to_jsonl();
        let header = text.lines().next().expect("header");
        assert!(header.contains("\"schema\":\"avfs-margin-map/v1\""));
        assert!(header.contains("\"cells\":2"));
    }

    #[test]
    fn parser_rejects_foreign_and_truncated_input() {
        assert!(MarginMap::from_jsonl("").is_err());
        assert!(MarginMap::from_jsonl("{\"kind\":\"trace\"}").is_err());
        // Drop the last cell line: count mismatch.
        let text = sample().to_jsonl();
        let truncated: Vec<&str> = text.lines().take(2).collect();
        let err = MarginMap::from_jsonl(&truncated.join("\n")).expect_err("truncated");
        assert!(err.message.contains("declares 2 cells"));
        // Unknown schema.
        let swapped = text.replace("avfs-margin-map/v1", "avfs-margin-map/v9");
        assert!(MarginMap::from_jsonl(&swapped).is_err());
    }

    #[test]
    fn chip_names_with_quotes_survive() {
        let mut map = sample();
        map.chip = "odd \"name\" \\ here".to_string();
        let back = MarginMap::from_jsonl(&map.to_jsonl()).expect("escaped");
        assert_eq!(back.chip, map.chip);
    }

    #[test]
    fn chip_names_with_control_characters_survive() {
        let mut map = sample();
        map.chip = "X\nGene\t\u{1}".to_string();
        let text = map.to_jsonl();
        assert!(text.contains(r#""chip":"X\nGene\t\u0001""#), "{text}");
        let back = MarginMap::from_jsonl(&text).expect("escaped");
        assert_eq!(back.chip, map.chip);
    }

    #[test]
    fn parser_rejects_out_of_range_numbers() {
        let text = sample().to_jsonl();
        // 2^32 + 980 would wrap to 980 if narrowed with `as u32`.
        let wrapped = text.replace("\"nominal_mv\":980", "\"nominal_mv\":4294968276");
        let err = MarginMap::from_jsonl(&wrapped).expect_err("out of range");
        assert_eq!(err.line, 1);
        assert!(err.message.contains("nominal_mv"), "{err}");
        let cell = text.replace(
            "\"measured_safe_mv\":912",
            "\"measured_safe_mv\":4294968208",
        );
        let err = MarginMap::from_jsonl(&cell).expect_err("out of range");
        assert_eq!(err.line, 2);
        // Beyond u64 entirely, and negative: rejected, not wrapped.
        let huge = text.replace("\"fc\":2", "\"fc\":18446744073709551616");
        assert!(MarginMap::from_jsonl(&huge).is_err());
        let negative = text.replace("\"probes\":321", "\"probes\":-321");
        assert!(MarginMap::from_jsonl(&negative).is_err());
    }
}
