//! The structured result of one experiment: an ordered sequence of
//! output blocks plus run metadata.
//!
//! A [`Report`] captures *exactly* what the historical binaries wrote
//! to stdout — commentary, aligned tables, and free-form lines — but
//! as data, so the same run can be rendered as text (byte-compatible
//! with `results/*.txt`), serialized to JSON, or diffed against a
//! golden file.

use pwf_obs::json::Json;

/// One unit of experiment output, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// Commentary, rendered as `# `-prefixed lines (one per line of
    /// the contained text; an empty note renders as nothing, matching
    /// the historical helper).
    Note(String),
    /// One row of 12-character right-aligned columns. Headers are
    /// rows whose cells happen to be labels.
    Row(Vec<String>),
    /// A pre-formatted line emitted verbatim (charts, chain dumps).
    Raw(String),
}

/// The structured result of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Registered experiment name (`exp_*` / `fig*`).
    pub name: String,
    /// The derived seed the experiment ran with.
    pub seed: u64,
    /// Wall-clock duration of the run, in milliseconds.
    pub wall_time_ms: f64,
    /// Named parameters the run was configured with (profile, counts,
    /// thread budgets, …), in insertion order.
    pub params: Vec<(String, String)>,
    /// The output blocks, in emission order.
    pub blocks: Vec<Block>,
}

impl Report {
    /// An empty report with metadata only.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Report {
            name: name.into(),
            seed,
            wall_time_ms: 0.0,
            params: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// The value of a named parameter, if recorded.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Structural equality ignoring wall time — the notion of
    /// "identical result" used by determinism tests and golden
    /// checking (wall time varies run to run by construction).
    pub fn same_output(&self, other: &Report) -> bool {
        self.name == other.name
            && self.seed == other.seed
            && self.params == other.params
            && self.blocks == other.blocks
    }

    /// Serializes the report (metadata and all blocks).
    pub fn to_json(&self) -> Json {
        let params = self
            .params
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        let blocks = self
            .blocks
            .iter()
            .map(|b| match b {
                Block::Note(text) => Json::Obj(vec![("note".into(), Json::Str(text.clone()))]),
                Block::Row(cells) => Json::Obj(vec![(
                    "row".into(),
                    Json::Arr(cells.iter().map(|c| Json::Str(c.clone())).collect()),
                )]),
                Block::Raw(line) => Json::Obj(vec![("raw".into(), Json::Str(line.clone()))]),
            })
            .collect();
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("seed".into(), Json::Int(self.seed as i128)),
            ("wall_time_ms".into(), Json::Num(self.wall_time_ms)),
            ("params".into(), Json::Obj(params)),
            ("blocks".into(), Json::Arr(blocks)),
        ])
    }

    /// Deserializes a report produced by [`to_json`](Report::to_json).
    pub fn from_json(value: &Json) -> Result<Report, String> {
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let seed = value
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("missing seed")?;
        let wall_time_ms = value
            .get("wall_time_ms")
            .and_then(Json::as_f64)
            .ok_or("missing wall_time_ms")?;
        let params = match value.get("params") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("param {k:?} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing params".into()),
        };
        let blocks = value
            .get("blocks")
            .and_then(Json::as_array)
            .ok_or("missing blocks")?
            .iter()
            .map(|b| {
                if let Some(text) = b.get("note").and_then(Json::as_str) {
                    Ok(Block::Note(text.to_string()))
                } else if let Some(cells) = b.get("row").and_then(Json::as_array) {
                    cells
                        .iter()
                        .map(|c| c.as_str().map(String::from).ok_or("row cell not a string"))
                        .collect::<Result<Vec<_>, _>>()
                        .map(Block::Row)
                        .map_err(String::from)
                } else if let Some(line) = b.get("raw").and_then(Json::as_str) {
                    Ok(Block::Raw(line.to_string()))
                } else {
                    Err("unknown block shape".to_string())
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report {
            name,
            seed,
            wall_time_ms,
            params,
            blocks,
        })
    }
}

/// Incremental [`Report`] construction; the experiment-facing API.
///
/// The methods mirror the historical printing helpers (`note`, `row`,
/// `header`) so refactoring a binary into an experiment is mostly
/// `note(...)` → `out.note(...)`.
#[derive(Debug)]
pub struct ReportBuilder {
    report: Report,
}

impl ReportBuilder {
    /// Starts a report for the named experiment.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        ReportBuilder {
            report: Report::new(name, seed),
        }
    }

    /// Records a named parameter.
    pub fn param(&mut self, key: impl Into<String>, value: impl ToString) {
        self.report.params.push((key.into(), value.to_string()));
    }

    /// Appends commentary (rendered `# `-prefixed).
    pub fn note(&mut self, text: &str) {
        self.report.blocks.push(Block::Note(text.to_string()));
    }

    /// Appends a row of aligned columns.
    pub fn row(&mut self, cells: &[String]) {
        self.report.blocks.push(Block::Row(cells.to_vec()));
    }

    /// Appends a header row from static labels.
    pub fn header(&mut self, cells: &[&str]) {
        self.report
            .blocks
            .push(Block::Row(cells.iter().map(|s| s.to_string()).collect()));
    }

    /// Appends a pre-formatted line verbatim.
    pub fn raw(&mut self, line: impl Into<String>) {
        self.report.blocks.push(Block::Raw(line.into()));
    }

    /// Appends many pre-formatted lines (e.g. a rendered chart).
    pub fn raw_lines<I: IntoIterator<Item = String>>(&mut self, lines: I) {
        for line in lines {
            self.raw(line);
        }
    }

    /// Finalizes the report, stamping the measured wall time.
    pub fn finish(mut self, wall_time_ms: f64) -> Report {
        self.report.wall_time_ms = wall_time_ms;
        self.report
    }

    /// Read access to the report under construction (tests).
    pub fn report(&self) -> &Report {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_preserves_emission_order() {
        let mut b = ReportBuilder::new("demo", 7);
        b.note("hello");
        b.header(&["a", "b"]);
        b.row(&["1".into(), "2".into()]);
        b.raw("free line");
        let r = b.finish(1.5);
        assert_eq!(r.name, "demo");
        assert_eq!(r.seed, 7);
        assert_eq!(r.wall_time_ms, 1.5);
        assert_eq!(
            r.blocks,
            vec![
                Block::Note("hello".into()),
                Block::Row(vec!["a".into(), "b".into()]),
                Block::Row(vec!["1".into(), "2".into()]),
                Block::Raw("free line".into()),
            ]
        );
    }

    #[test]
    fn same_output_ignores_wall_time() {
        let mut a = ReportBuilder::new("x", 1);
        a.note("n");
        let mut b = ReportBuilder::new("x", 1);
        b.note("n");
        let (ra, rb) = (a.finish(1.0), b.finish(99.0));
        assert!(ra.same_output(&rb));
        assert_ne!(ra, rb);
    }

    #[test]
    fn params_are_queryable() {
        let mut b = ReportBuilder::new("x", 1);
        b.param("profile", "full");
        b.param("n", 8);
        let r = b.finish(0.0);
        assert_eq!(r.param("profile"), Some("full"));
        assert_eq!(r.param("n"), Some("8"));
        assert_eq!(r.param("missing"), None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut b = ReportBuilder::new("exp_demo", u64::MAX - 3);
        b.param("profile", "full");
        b.note("line one\nline two");
        b.header(&["n", "W"]);
        b.row(&["4".into(), "1.9952".into()]);
        b.raw("  (0,0)  pi=0.15");
        let report = b.finish(12.5);
        let json = report.to_json();
        let back = Report::from_json(&Json::parse(&json.render()).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
