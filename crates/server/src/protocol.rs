//! The wire protocol: frame shapes, the error envelope, and request
//! parsing.
//!
//! `ajd-server` speaks **line-delimited JSON**: one request object per
//! line, one response object per line, always in the order requests were
//! received on that connection.  The normative specification — every
//! frame, field, type and error code — lives in
//! [`docs/PROTOCOL.md`](https://example.invalid/ajd) at the repository
//! root, and the spec's own JSON examples are round-trip-tested against a
//! live server in `tests/protocol_spec.rs`.  This module is the
//! implementation: [`Request::parse`] turns a parsed [`Json`] frame into a
//! typed request (or a structured [`ErrorCode`]), [`Request::decode`] does
//! the same from the request line while decoding an append's `rows`
//! straight into one flat [`Rows`] table, and the `*_frame` helpers build
//! the response envelopes.
//!
//! Versioning rule: every response carries `"v": 1`
//! ([`PROTOCOL_VERSION`]).  Requests may carry `"v"`; a request with a
//! version *greater* than the server's is answered with
//! `unsupported_version` (an omitted `"v"` means "the server's version").
//! Within one major version, servers may add response fields but never
//! remove or re-type them, and unknown *request* fields are ignored —
//! clients must tolerate new fields.

use crate::json::{Json, Parser};
use ajd_relation::RelationError;

/// The protocol version this server speaks (the `"v"` field of every
/// response).
pub const PROTOCOL_VERSION: u64 = 1;

/// Machine-readable error codes of the error envelope.
///
/// An error frame never closes the connection: the client may keep
/// pipelining requests after receiving one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a JSON object, or a required field was missing or
    /// of the wrong type.
    BadRequest,
    /// The request's `"v"` is newer than the server's [`PROTOCOL_VERSION`].
    UnsupportedVersion,
    /// The `"op"` field named no known operation.
    UnknownOp,
    /// The `"relation"` field named no catalog entry.
    UnknownRelation,
    /// An attribute name in `"attrs"` or `"schema"` is not an attribute of
    /// the addressed relation.
    UnknownAttribute,
    /// The `"schema"` field does not describe an acyclic schema covering
    /// exactly the relation's attributes.
    InvalidSchema,
    /// The addressed relation holds no tuples, so the requested measure is
    /// undefined.
    EmptyRelation,
    /// The admission queue for this request class is full; retry later.
    Busy,
    /// The measurement itself failed (e.g. a join-size count overflowing
    /// `u128`).
    Internal,
}

impl ErrorCode {
    /// The wire spelling of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownRelation => "unknown_relation",
            ErrorCode::UnknownAttribute => "unknown_attribute",
            ErrorCode::InvalidSchema => "invalid_schema",
            ErrorCode::EmptyRelation => "empty_relation",
            ErrorCode::Busy => "busy",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured request failure: code + human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail (never required for dispatch).
    pub message: String,
}

impl Failure {
    /// Builds a failure from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Failure {
            code,
            message: message.into(),
        }
    }
}

/// Maps a library error onto the wire's error vocabulary, so `?` turns a
/// failed library call into the request's error frame.
impl From<RelationError> for Failure {
    fn from(err: RelationError) -> Self {
        let code = match &err {
            RelationError::UnknownName(_) | RelationError::UnknownAttribute(_) => {
                ErrorCode::UnknownAttribute
            }
            RelationError::SchemaMismatch { .. }
            | RelationError::DuplicateAttribute(_)
            | RelationError::ArityMismatch { .. } => ErrorCode::InvalidSchema,
            RelationError::EmptyInput(_) => ErrorCode::EmptyRelation,
            RelationError::CountOverflow(_)
            | RelationError::InvalidParameter { .. }
            | RelationError::DomainExhausted { .. }
            | RelationError::Io { .. } => ErrorCode::Internal,
        };
        Failure::new(code, err.to_string())
    }
}

/// A parsed request frame: the operation plus the optional `"id"` echo.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The client's correlation id, echoed verbatim in the response.
    pub id: Option<Json>,
    /// The operation to perform.
    pub request: Request,
}

/// The operations of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// List the served relations.
    Catalog,
    /// Cache and admission counters, optionally filtered to one relation.
    Stats {
        /// Restrict the per-relation section to this entry.
        relation: Option<String>,
    },
    /// Entropy `H(attrs)` in nats.
    Entropy {
        /// Catalog entry to measure.
        relation: String,
        /// Attribute names (possibly empty: `H(∅) = 0`).
        attrs: Vec<String>,
    },
    /// The exact loss `ρ(R,S)` of an acyclic schema.
    Loss {
        /// Catalog entry to measure.
        relation: String,
        /// Schema bags as arrays of attribute names.
        schema: Vec<Vec<String>>,
    },
    /// The J-measure `J(T)` of an acyclic schema, in nats.
    JMeasure {
        /// Catalog entry to measure.
        relation: String,
        /// Schema bags as arrays of attribute names.
        schema: Vec<Vec<String>>,
    },
    /// The full loss report (loss, J, KL, bounds, per-MVD breakdown).
    Analyze {
        /// Catalog entry to measure.
        relation: String,
        /// Schema bags as arrays of attribute names.
        schema: Vec<Vec<String>>,
    },
    /// Mine an approximate acyclic schema.
    Mine {
        /// Catalog entry to mine.
        relation: String,
        /// Stop coarsening once `J ≤ j_threshold` (nats); server default
        /// when omitted.
        j_threshold: Option<f64>,
        /// Bag-size cap; unlimited when omitted.
        max_bag_size: Option<usize>,
    },
    /// A sampled estimate of a measure with error bars: the answer comes
    /// from a seeded row sample (falling back to the exact kernel when the
    /// planned sample would cover the relation) and carries its (ε, δ,
    /// seed, sample size) and concentration bound.
    Estimate {
        /// Catalog entry to measure.
        relation: String,
        /// Which measure to estimate, plus its resolved operands.
        target: EstimateTarget,
        /// Target half-width ε in nats; server default when omitted.
        epsilon: Option<f64>,
        /// Failure probability δ; server default when omitted.
        delta: Option<f64>,
        /// Sampling seed; `0` when omitted (estimates are deterministic in
        /// the seed).
        seed: Option<u64>,
    },
    /// Append a batch of rows to a **sharded** relation as one new shard,
    /// advancing its epoch.  The wire carries the batch in exactly one of
    /// `rows` (one array of label strings per row) or `text` (delimited
    /// lines); both decode to the same table.
    Append {
        /// Catalog entry to append to.
        relation: String,
        /// The batch's labels, row by row.
        rows: Rows,
    },
}

/// An append's rows as one flat label table: every cell's label back to
/// back in one `String`, the byte offset at which each cell starts and
/// ends, and the cell index at which each row starts and ends.
///
/// Offsets are only recorded where a whole label ends, so they fall on
/// `char` boundaries; every read goes through checked `get`s all the same.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    labels: String,
    /// `cell_bounds[i]..cell_bounds[i + 1]` is cell `i`'s label.
    cell_bounds: Vec<usize>,
    /// `row_bounds[r]..row_bounds[r + 1]` are row `r`'s cells.
    row_bounds: Vec<usize>,
}

impl Default for Rows {
    fn default() -> Self {
        Rows {
            labels: String::new(),
            cell_bounds: vec![0],
            row_bounds: vec![0],
        }
    }
}

impl Rows {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one row of labels.
    pub fn push_row<'l>(&mut self, labels: impl IntoIterator<Item = &'l str>) {
        for label in labels {
            self.labels.push_str(label);
            self.end_cell();
        }
        self.end_row();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.row_bounds.len() - 1
    }

    /// `true` if the table holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows in order, each as an iterator over its labels.
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> + '_ {
        self.row_bounds.windows(2).map(move |w| {
            let cells = match *w {
                [start, end] => self.cell_bounds.get(start..=end),
                _ => None,
            };
            Row {
                labels: &self.labels,
                bounds: cells.unwrap_or_default(),
            }
        })
    }

    /// Splits a delimited `text` payload: one row per line that is not
    /// blank, fields split on `delimiter` and whitespace-trimmed (the
    /// conventions [`ajd_relation::ReadOptions`] defaults to, minus the
    /// header line: an append addresses an existing catalog entry).
    pub fn from_text(text: &str, delimiter: char) -> Self {
        let mut rows = Rows::new();
        for line in text.lines().filter(|line| !line.trim().is_empty()) {
            rows.push_row(line.split(delimiter).map(str::trim));
        }
        rows
    }

    fn end_cell(&mut self) {
        self.cell_bounds.push(self.labels.len());
    }

    fn end_row(&mut self) {
        self.row_bounds.push(self.cell_bounds.len() - 1);
    }

    /// Decodes a JSON array of arrays of strings from `p`, or `None` at the
    /// first byte that does not continue one (the caller then re-parses
    /// the value as a tree, which reports any error).  Mirrors the array
    /// grammar of [`Json::parse`] token for token, so on success it stops
    /// exactly where the tree parse would.
    fn decode(p: &mut Parser<'_>) -> Option<Rows> {
        let mut rows = Rows::new();
        if !p.eat(b'[') {
            return None;
        }
        p.skip_ws();
        if p.eat(b']') {
            return Some(rows);
        }
        loop {
            p.skip_ws();
            if !p.eat(b'[') {
                return None;
            }
            p.skip_ws();
            if !p.eat(b']') {
                loop {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return None;
                    }
                    p.string_into(&mut rows.labels).ok()?;
                    rows.end_cell();
                    p.skip_ws();
                    if p.eat(b']') {
                        break;
                    }
                    if !p.eat(b',') {
                        return None;
                    }
                }
            }
            rows.end_row();
            p.skip_ws();
            if p.eat(b']') {
                return Some(rows);
            }
            if !p.eat(b',') {
                return None;
            }
        }
    }
}

/// One row of a [`Rows`] table.
#[derive(Debug, Clone, Copy)]
pub struct Row<'r> {
    labels: &'r str,
    /// The row's cell bounds: one more than its cells.
    bounds: &'r [usize],
}

impl<'r> Row<'r> {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.bounds.windows(2).len()
    }

    /// `true` if the row has no cell.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row's labels in order.
    pub fn labels(&self) -> impl Iterator<Item = &'r str> + 'r {
        let labels = self.labels;
        self.bounds.windows(2).filter_map(move |w| match *w {
            [start, end] => labels.get(start..end),
            _ => None,
        })
    }
}

/// The measure an `estimate` request targets, with its operands already
/// shape-checked (name resolution against the relation's catalog happens
/// at dispatch).
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateTarget {
    /// `H(attrs)`; operand field `"attrs"`.
    Entropy {
        /// Attribute names (possibly empty: `H(∅) = 0`).
        attrs: Vec<String>,
    },
    /// `I(A;B|C)`; operand fields `"a"`, `"b"`, `"c"` (an empty `"c"`
    /// makes it plain mutual information).
    Cmi {
        /// Attribute names of `A`.
        a: Vec<String>,
        /// Attribute names of `B`.
        b: Vec<String>,
        /// Attribute names of the conditioning set `C`.
        c: Vec<String>,
    },
    /// `J(T)`; operand field `"schema"`.
    JMeasure {
        /// Schema bags as arrays of attribute names.
        schema: Vec<Vec<String>>,
    },
    /// `ρ(R,S)` of the sample, with ε on the `log(1+ρ)` scale the
    /// concentration bound lives on; operand field `"schema"`.
    Loss {
        /// Schema bags as arrays of attribute names.
        schema: Vec<Vec<String>>,
    },
}

impl EstimateTarget {
    /// The wire spelling of the `"measure"` field.
    pub fn measure(&self) -> &'static str {
        match self {
            EstimateTarget::Entropy { .. } => "entropy",
            EstimateTarget::Cmi { .. } => "cmi",
            EstimateTarget::JMeasure { .. } => "j",
            EstimateTarget::Loss { .. } => "loss",
        }
    }
}

impl Request {
    /// The `"op"` value naming this request on the wire.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Catalog => "catalog",
            Request::Stats { .. } => "stats",
            Request::Entropy { .. } => "entropy",
            Request::Loss { .. } => "loss",
            Request::JMeasure { .. } => "j",
            Request::Analyze { .. } => "analyze",
            Request::Mine { .. } => "mine",
            Request::Estimate { .. } => "estimate",
            Request::Append { .. } => "append",
        }
    }

    /// Parses one request frame.  On failure the error is structured
    /// (`Failure`) and the caller still gets the `"id"` (when one could be
    /// extracted) so the error frame can be correlated.
    pub fn parse(frame: &Json) -> (Option<Json>, Result<Request, Failure>) {
        Self::parse_with(frame, None)
    }

    /// Parses one request line: the same request, `"id"` and failure as
    /// [`Json::parse`] followed by [`Request::parse`], with a line that is
    /// not JSON answered as `bad_request`.  A top-level `rows` array of
    /// string arrays is decoded straight from the line into [`Rows`],
    /// without a [`Json`] tree or a `String` per cell.
    pub fn decode(line: &str) -> (Option<Json>, Result<Request, Failure>) {
        match Json::parse_taking(line, "rows", Rows::decode) {
            Ok((frame, rows)) => Self::parse_with(&frame, rows),
            Err(err) => (
                None,
                Err(Failure::new(
                    ErrorCode::BadRequest,
                    format!("invalid JSON: {err}"),
                )),
            ),
        }
    }

    /// [`Request::parse`], with the `rows` field already decoded when
    /// `rows` is `Some` (it is then absent from `frame`).
    fn parse_with(frame: &Json, rows: Option<Rows>) -> (Option<Json>, Result<Request, Failure>) {
        let Some(_) = frame.as_obj() else {
            return (
                None,
                Err(Failure::new(
                    ErrorCode::BadRequest,
                    "a request frame must be a JSON object",
                )),
            );
        };
        let id = frame.get("id").cloned();
        (id, Self::parse_fields(frame, rows))
    }

    fn parse_fields(frame: &Json, rows: Option<Rows>) -> Result<Request, Failure> {
        if let Some(v) = frame.get("v") {
            let Some(v) = v.as_u64() else {
                return Err(Failure::new(
                    ErrorCode::BadRequest,
                    "field \"v\" must be a non-negative integer",
                ));
            };
            if v > PROTOCOL_VERSION {
                return Err(Failure::new(
                    ErrorCode::UnsupportedVersion,
                    format!("this server speaks protocol version {PROTOCOL_VERSION}, got {v}"),
                ));
            }
        }
        let Some(op) = frame.get("op") else {
            return Err(Failure::new(
                ErrorCode::BadRequest,
                "missing required field \"op\"",
            ));
        };
        let Some(op) = op.as_str() else {
            return Err(Failure::new(
                ErrorCode::BadRequest,
                "field \"op\" must be a string",
            ));
        };
        match op {
            "catalog" => Ok(Request::Catalog),
            "stats" => Ok(Request::Stats {
                relation: optional_str(frame, "relation")?.map(str::to_owned),
            }),
            "entropy" => Ok(Request::Entropy {
                relation: required_string(frame, "relation")?,
                attrs: string_array(frame, "attrs")?,
            }),
            "loss" => Ok(Request::Loss {
                relation: required_string(frame, "relation")?,
                schema: schema_field(frame)?,
            }),
            "j" => Ok(Request::JMeasure {
                relation: required_string(frame, "relation")?,
                schema: schema_field(frame)?,
            }),
            "analyze" => Ok(Request::Analyze {
                relation: required_string(frame, "relation")?,
                schema: schema_field(frame)?,
            }),
            "mine" => Ok(Request::Mine {
                relation: required_string(frame, "relation")?,
                j_threshold: optional_f64(frame, "j_threshold")?,
                max_bag_size: optional_usize(frame, "max_bag_size")?,
            }),
            "estimate" => {
                let relation = required_string(frame, "relation")?;
                let measure = required_string(frame, "measure")?;
                let target = match measure.as_str() {
                    "entropy" => EstimateTarget::Entropy {
                        attrs: string_array(frame, "attrs")?,
                    },
                    "cmi" => EstimateTarget::Cmi {
                        a: string_array(frame, "a")?,
                        b: string_array(frame, "b")?,
                        c: string_array(frame, "c")?,
                    },
                    "j" => EstimateTarget::JMeasure {
                        schema: schema_field(frame)?,
                    },
                    "loss" => EstimateTarget::Loss {
                        schema: schema_field(frame)?,
                    },
                    other => {
                        return Err(Failure::new(
                            ErrorCode::BadRequest,
                            format!(
                                "unknown estimate measure \"{other}\" \
                                 (expected \"entropy\", \"cmi\", \"j\" or \"loss\")"
                            ),
                        ))
                    }
                };
                // ε and δ gate the sampling plan; reject nonsense here so a
                // bad request never reads as a server-side failure.
                let epsilon = optional_f64(frame, "epsilon")?;
                if let Some(e) = epsilon {
                    if e <= 0.0 {
                        return Err(Failure::new(
                            ErrorCode::BadRequest,
                            "field \"epsilon\" must be positive",
                        ));
                    }
                }
                let delta = optional_f64(frame, "delta")?;
                if let Some(d) = delta {
                    if !(d > 0.0 && d < 1.0) {
                        return Err(Failure::new(
                            ErrorCode::BadRequest,
                            "field \"delta\" must lie strictly between 0 and 1",
                        ));
                    }
                }
                Ok(Request::Estimate {
                    relation,
                    target,
                    epsilon,
                    delta,
                    seed: optional_u64(frame, "seed")?,
                })
            }
            "append" => {
                let relation = required_string(frame, "relation")?;
                let rows = match rows {
                    Some(rows) => Some(rows),
                    None => rows_field(frame)?,
                };
                let text = optional_str(frame, "text")?;
                let delimiter = delimiter_field(frame)?;
                let rows = match (rows, text) {
                    (Some(rows), None) => rows,
                    (None, Some(text)) => Rows::from_text(text, delimiter.unwrap_or(',')),
                    _ => {
                        return Err(Failure::new(
                            ErrorCode::BadRequest,
                            "append carries its payload in exactly one of \"rows\" or \"text\"",
                        ))
                    }
                };
                Ok(Request::Append { relation, rows })
            }
            other => Err(Failure::new(
                ErrorCode::UnknownOp,
                format!("unknown op \"{other}\""),
            )),
        }
    }
}

fn required_string(frame: &Json, field: &str) -> Result<String, Failure> {
    match frame.get(field) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(Failure::new(
            ErrorCode::BadRequest,
            format!("field \"{field}\" must be a string"),
        )),
        None => Err(Failure::new(
            ErrorCode::BadRequest,
            format!("missing required field \"{field}\""),
        )),
    }
}

fn optional_str<'f>(frame: &'f Json, field: &str) -> Result<Option<&'f str>, Failure> {
    match frame.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(_) => Err(Failure::new(
            ErrorCode::BadRequest,
            format!("field \"{field}\" must be a string when present"),
        )),
    }
}

fn optional_f64(frame: &Json, field: &str) -> Result<Option<f64>, Failure> {
    match frame.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if n.is_finite() => Ok(Some(*n)),
        Some(_) => Err(Failure::new(
            ErrorCode::BadRequest,
            format!("field \"{field}\" must be a finite number when present"),
        )),
    }
}

fn optional_u64(frame: &Json, field: &str) -> Result<Option<u64>, Failure> {
    match frame.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(Failure::new(
                ErrorCode::BadRequest,
                format!("field \"{field}\" must be a non-negative integer when present"),
            )),
        },
    }
}

fn optional_usize(frame: &Json, field: &str) -> Result<Option<usize>, Failure> {
    match frame.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n as usize)),
            None => Err(Failure::new(
                ErrorCode::BadRequest,
                format!("field \"{field}\" must be a non-negative integer when present"),
            )),
        },
    }
}

fn string_array(frame: &Json, field: &str) -> Result<Vec<String>, Failure> {
    let Some(value) = frame.get(field) else {
        return Err(Failure::new(
            ErrorCode::BadRequest,
            format!("missing required field \"{field}\""),
        ));
    };
    let Some(items) = value.as_arr() else {
        return Err(Failure::new(
            ErrorCode::BadRequest,
            format!("field \"{field}\" must be an array of strings"),
        ));
    };
    items
        .iter()
        .map(|item| {
            item.as_str().map(str::to_owned).ok_or_else(|| {
                Failure::new(
                    ErrorCode::BadRequest,
                    format!("field \"{field}\" must contain only strings"),
                )
            })
        })
        .collect()
}

fn rows_field(frame: &Json) -> Result<Option<Rows>, Failure> {
    let rows = match frame.get("rows") {
        None | Some(Json::Null) => return Ok(None),
        Some(value) => value.as_arr().ok_or_else(|| {
            Failure::new(
                ErrorCode::BadRequest,
                "field \"rows\" must be an array of label-string arrays",
            )
        })?,
    };
    let mut table = Rows::new();
    for row in rows {
        let Some(labels) = row.as_arr() else {
            return Err(Failure::new(
                ErrorCode::BadRequest,
                "each row must be an array of label strings",
            ));
        };
        let labels = labels
            .iter()
            .map(|label| {
                label.as_str().ok_or_else(|| {
                    Failure::new(ErrorCode::BadRequest, "rows must contain only strings")
                })
            })
            .collect::<Result<Vec<&str>, Failure>>()?;
        table.push_row(labels);
    }
    Ok(Some(table))
}

fn delimiter_field(frame: &Json) -> Result<Option<char>, Failure> {
    let Some(s) = optional_str(frame, "delimiter")? else {
        return Ok(None);
    };
    let mut chars = s.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => Ok(Some(c)),
        _ => Err(Failure::new(
            ErrorCode::BadRequest,
            "field \"delimiter\" must be a single character",
        )),
    }
}

fn schema_field(frame: &Json) -> Result<Vec<Vec<String>>, Failure> {
    let Some(value) = frame.get("schema") else {
        return Err(Failure::new(
            ErrorCode::BadRequest,
            "missing required field \"schema\"",
        ));
    };
    let Some(bags) = value.as_arr() else {
        return Err(Failure::new(
            ErrorCode::BadRequest,
            "field \"schema\" must be an array of attribute-name arrays",
        ));
    };
    if bags.is_empty() {
        return Err(Failure::new(
            ErrorCode::InvalidSchema,
            "a schema needs at least one bag",
        ));
    }
    bags.iter()
        .map(|bag| {
            let Some(names) = bag.as_arr() else {
                return Err(Failure::new(
                    ErrorCode::BadRequest,
                    "each schema bag must be an array of attribute names",
                ));
            };
            if names.is_empty() {
                return Err(Failure::new(
                    ErrorCode::InvalidSchema,
                    "schema bags must be non-empty",
                ));
            }
            names
                .iter()
                .map(|n| {
                    n.as_str().map(str::to_owned).ok_or_else(|| {
                        Failure::new(
                            ErrorCode::BadRequest,
                            "schema bags must contain only strings",
                        )
                    })
                })
                .collect()
        })
        .collect()
}

/// Builds a success frame: `{"v":1,("id":…,)"ok":true,…fields}`.
pub fn ok_frame(id: Option<Json>, fields: Vec<(String, Json)>) -> Json {
    let mut pairs: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 3);
    pairs.push(("v".to_owned(), Json::Num(PROTOCOL_VERSION as f64)));
    if let Some(id) = id {
        pairs.push(("id".to_owned(), id));
    }
    pairs.push(("ok".to_owned(), Json::Bool(true)));
    pairs.extend(fields);
    Json::Obj(pairs)
}

/// Builds an error frame:
/// `{"v":1,("id":…,)"ok":false,"error":{"code":…,"message":…}}`.
pub fn error_frame(id: Option<Json>, failure: &Failure) -> Json {
    let mut pairs: Vec<(String, Json)> = Vec::with_capacity(4);
    pairs.push(("v".to_owned(), Json::Num(PROTOCOL_VERSION as f64)));
    if let Some(id) = id {
        pairs.push(("id".to_owned(), id));
    }
    pairs.push(("ok".to_owned(), Json::Bool(false)));
    pairs.push((
        "error".to_owned(),
        Json::obj([
            ("code", Json::str(failure.code.as_str())),
            ("message", Json::str(failure.message.clone())),
        ]),
    ));
    Json::Obj(pairs)
}

/// Renders a `u128` protocol field (join sizes can exceed `2^53`, the
/// largest integer a JSON number transports exactly) as the decimal string
/// the spec mandates.
pub fn u128_field(value: u128) -> Json {
    Json::str(value.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(line: &str) -> Request {
        let frame = Json::parse(line).unwrap();
        let (_, req) = Request::parse(&frame);
        req.unwrap()
    }

    fn parse_err(line: &str) -> Failure {
        let frame = Json::parse(line).unwrap();
        let (_, req) = Request::parse(&frame);
        req.unwrap_err()
    }

    fn table(rows: &[&[&str]]) -> Rows {
        let mut table = Rows::new();
        for row in rows {
            table.push_row(row.iter().copied());
        }
        table
    }

    #[test]
    fn parses_every_op() {
        assert_eq!(parse_ok(r#"{"op":"catalog"}"#), Request::Catalog);
        assert_eq!(
            parse_ok(r#"{"op":"stats"}"#),
            Request::Stats { relation: None }
        );
        assert_eq!(
            parse_ok(r#"{"op":"stats","relation":"sales"}"#),
            Request::Stats {
                relation: Some("sales".into())
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"entropy","relation":"sales","attrs":["city","region"]}"#),
            Request::Entropy {
                relation: "sales".into(),
                attrs: vec!["city".into(), "region".into()],
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"loss","relation":"sales","schema":[["a","b"],["b","c"]]}"#),
            Request::Loss {
                relation: "sales".into(),
                schema: vec![vec!["a".into(), "b".into()], vec!["b".into(), "c".into()]],
            }
        );
        assert!(matches!(
            parse_ok(r#"{"op":"j","relation":"r","schema":[["a"]]}"#),
            Request::JMeasure { .. }
        ));
        assert!(matches!(
            parse_ok(r#"{"op":"analyze","relation":"r","schema":[["a"]]}"#),
            Request::Analyze { .. }
        ));
        assert_eq!(
            parse_ok(r#"{"op":"mine","relation":"r","j_threshold":0.05,"max_bag_size":3}"#),
            Request::Mine {
                relation: "r".into(),
                j_threshold: Some(0.05),
                max_bag_size: Some(3),
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"mine","relation":"r"}"#),
            Request::Mine {
                relation: "r".into(),
                j_threshold: None,
                max_bag_size: None,
            }
        );
        assert_eq!(
            parse_ok(
                r#"{"op":"estimate","relation":"r","measure":"entropy","attrs":["a"],"epsilon":0.05,"delta":0.01,"seed":7}"#
            ),
            Request::Estimate {
                relation: "r".into(),
                target: EstimateTarget::Entropy {
                    attrs: vec!["a".into()],
                },
                epsilon: Some(0.05),
                delta: Some(0.01),
                seed: Some(7),
            }
        );
        assert_eq!(
            parse_ok(
                r#"{"op":"estimate","relation":"r","measure":"cmi","a":["x"],"b":["y"],"c":[]}"#
            ),
            Request::Estimate {
                relation: "r".into(),
                target: EstimateTarget::Cmi {
                    a: vec!["x".into()],
                    b: vec!["y".into()],
                    c: vec![],
                },
                epsilon: None,
                delta: None,
                seed: None,
            }
        );
        assert!(matches!(
            parse_ok(r#"{"op":"estimate","relation":"r","measure":"loss","schema":[["a"],["b"]]}"#),
            Request::Estimate {
                target: EstimateTarget::Loss { .. },
                ..
            }
        ));
        assert_eq!(
            parse_ok(r#"{"op":"append","relation":"r","rows":[["a","b"],["c","d"]]}"#),
            Request::Append {
                relation: "r".into(),
                rows: table(&[&["a", "b"], &["c", "d"]]),
            }
        );
        assert_eq!(
            parse_ok(r#"{"op":"append","relation":"r","text":"a|b\nc|d","delimiter":"|"}"#),
            Request::Append {
                relation: "r".into(),
                rows: table(&[&["a", "b"], &["c", "d"]]),
            }
        );
    }

    #[test]
    fn append_payload_is_exactly_one_of_rows_or_text() {
        assert_eq!(
            parse_err(r#"{"op":"append","relation":"r"}"#).code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(r#"{"op":"append","relation":"r","rows":[["a"]],"text":"a"}"#).code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(r#"{"op":"append","relation":"r","rows":"a"}"#).code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(r#"{"op":"append","relation":"r","rows":[["a",1]]}"#).code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(r#"{"op":"append","relation":"r","text":"a","delimiter":"::"}"#).code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn id_is_extracted_even_from_bad_requests() {
        let frame = Json::parse(r#"{"id":7,"op":"nope"}"#).unwrap();
        let (id, req) = Request::parse(&frame);
        assert_eq!(id, Some(Json::Num(7.0)));
        assert_eq!(req.unwrap_err().code, ErrorCode::UnknownOp);
    }

    #[test]
    fn version_gate() {
        assert!(matches!(
            parse_ok(r#"{"v":1,"op":"catalog"}"#),
            Request::Catalog
        ));
        assert_eq!(
            parse_err(r#"{"v":2,"op":"catalog"}"#).code,
            ErrorCode::UnsupportedVersion
        );
        assert_eq!(
            parse_err(r#"{"v":"one","op":"catalog"}"#).code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn field_type_errors_are_bad_request() {
        assert_eq!(parse_err(r#"{"op":5}"#).code, ErrorCode::BadRequest);
        assert_eq!(
            parse_err(r#"{"nop":"catalog"}"#).code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(r#"{"op":"loss","relation":"r"}"#).code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(r#"{"op":"loss","relation":"r","schema":"ab"}"#).code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(r#"{"op":"loss","relation":"r","schema":[]}"#).code,
            ErrorCode::InvalidSchema
        );
        assert_eq!(
            parse_err(r#"{"op":"loss","relation":"r","schema":[[]]}"#).code,
            ErrorCode::InvalidSchema
        );
        assert_eq!(
            parse_err(r#"{"op":"entropy","relation":"r","attrs":[1]}"#).code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(r#"{"op":"mine","relation":"r","max_bag_size":-1}"#).code,
            ErrorCode::BadRequest
        );
        // estimate: out-of-range knobs and unknown measures fail at parse,
        // so they can never surface as `internal` from the sampling plan.
        assert_eq!(
            parse_err(
                r#"{"op":"estimate","relation":"r","measure":"entropy","attrs":["a"],"epsilon":0}"#
            )
            .code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(
                r#"{"op":"estimate","relation":"r","measure":"entropy","attrs":["a"],"delta":1}"#
            )
            .code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(
                r#"{"op":"estimate","relation":"r","measure":"entropy","attrs":["a"],"seed":-3}"#
            )
            .code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(r#"{"op":"estimate","relation":"r","measure":"median","attrs":["a"]}"#).code,
            ErrorCode::BadRequest
        );
        assert_eq!(
            parse_err(r#"{"op":"estimate","relation":"r","measure":"cmi","a":["x"],"b":["y"]}"#)
                .code,
            ErrorCode::BadRequest
        );
        let (_, req) = Request::parse(&Json::Num(4.0));
        assert_eq!(req.unwrap_err().code, ErrorCode::BadRequest);
    }

    #[test]
    fn frames_have_the_documented_envelope() {
        let ok = ok_frame(
            Some(Json::Num(3.0)),
            vec![("x".to_owned(), Json::Bool(true))],
        );
        assert_eq!(ok.to_string(), r#"{"v":1,"id":3,"ok":true,"x":true}"#);
        let err = error_frame(None, &Failure::new(ErrorCode::Busy, "queue full"));
        assert_eq!(
            err.to_string(),
            r#"{"v":1,"ok":false,"error":{"code":"busy","message":"queue full"}}"#
        );
    }

    #[test]
    fn relation_errors_map_onto_wire_codes() {
        use ajd_relation::AttrId;
        let cases = [
            (
                RelationError::UnknownName("q".into()),
                ErrorCode::UnknownAttribute,
            ),
            (
                RelationError::UnknownAttribute(AttrId(3)),
                ErrorCode::UnknownAttribute,
            ),
            (
                RelationError::SchemaMismatch { detail: "x".into() },
                ErrorCode::InvalidSchema,
            ),
            (RelationError::EmptyInput("r"), ErrorCode::EmptyRelation),
            (RelationError::CountOverflow("join"), ErrorCode::Internal),
        ];
        for (err, code) in cases {
            let shown = err.to_string();
            assert_eq!(Failure::from(err).code, code, "{shown}");
        }
    }

    #[test]
    fn u128_fields_are_decimal_strings() {
        assert_eq!(u128_field(0).to_string(), "\"0\"");
        assert_eq!(
            u128_field(u128::MAX).to_string(),
            format!("\"{}\"", u128::MAX)
        );
    }
}
