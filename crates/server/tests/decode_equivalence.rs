//! The line decoder against the tree path, on a deterministic corpus.
//!
//! [`Request::decode`] reads an append's `rows` straight from the request
//! line into a flat [`Rows`] table and falls back to a [`Json`] tree for
//! anything else.  It must answer every line exactly as
//! [`Json::parse`] followed by [`Request::parse`] does: the same request,
//! or the same `"id"` and the same error (code, message and offset).  The
//! corpus covers escapes, whitespace, field order, duplicate keys, bad and
//! nested cells, nesting past [`MAX_DEPTH`], `rows` on other ops, and every
//! prefix and one-byte mutation of a short valid append.

use ajd_server::json::MAX_DEPTH;
use ajd_server::{ErrorCode, Failure, Json, Request, Rows};

/// The tree path: the reference [`Request::decode`] must match.
fn reference(line: &str) -> (Option<Json>, Result<Request, Failure>) {
    match Json::parse(line) {
        Ok(frame) => Request::parse(&frame),
        Err(err) => (
            None,
            Err(Failure::new(
                ErrorCode::BadRequest,
                format!("invalid JSON: {err}"),
            )),
        ),
    }
}

/// Checks every line and returns how many decoded to an append.
fn check_all<'l>(lines: impl IntoIterator<Item = &'l str>) -> usize {
    let mut appends = 0;
    for line in lines {
        let decoded = Request::decode(line);
        assert_eq!(decoded, reference(line), "line {line:?}");
        if matches!(decoded.1, Ok(Request::Append { .. })) {
            appends += 1;
        }
    }
    appends
}

fn append_with(rows: &str) -> String {
    format!(r#"{{"op":"append","relation":"r","rows":{rows}}}"#)
}

fn decoded_rows(line: &str) -> Rows {
    match Request::decode(line).1 {
        Ok(Request::Append { rows, .. }) => rows,
        other => panic!("{line:?} is not an append: {other:?}"),
    }
}

fn table(rows: &[&[&str]]) -> Rows {
    let mut table = Rows::new();
    for row in rows {
        table.push_row(row.iter().copied());
    }
    table
}

#[test]
fn escapes_decode_as_in_the_tree() {
    let cells = [
        r#""plain""#,
        r#""""#,
        r#""a\"b""#,
        r#""back\\slash""#,
        r#""caf\u00e9""#,
        r#""\u00C9t\u00e9""#,
        r#""\ud83d\ude00 grin""#,
        r#""\/\b\f\n\r\t""#,
        "\"raw é 😀\"",
        // Malformed: each falls back to the tree, which reports it.
        r#""bad \q""#,
        r#""lone \ud800""#,
        r#""lone \udc00""#,
        r#""pair \ud800A""#,
        r#""short \u12""#,
        r#""hex \u12g4""#,
        "\"ctrl \u{01}\"",
        r#""unterminated"#,
    ];
    let mut lines = Vec::new();
    for cell in cells {
        lines.push(append_with(&format!("[[{cell},\"x\"]]")));
        lines.push(append_with(&format!("[[\"x\"],[{cell}]]")));
    }
    assert_eq!(check_all(lines.iter().map(String::as_str)), 18);
    assert_eq!(
        decoded_rows(&append_with(
            r#"[["a\"b","back\\slash"],["caf\u00e9","\ud83d\ude00"]]"#
        )),
        table(&[&["a\"b", "back\\slash"], &["café", "😀"]])
    );
}

#[test]
fn whitespace_between_every_token() {
    let tokens = [
        "{",
        "\"op\"",
        ":",
        "\"append\"",
        ",",
        "\"relation\"",
        ":",
        "\"r\"",
        ",",
        "\"rows\"",
        ":",
        "[",
        "[",
        "\"a\"",
        ",",
        "\"b\"",
        "]",
        ",",
        "[",
        "]",
        ",",
        "[",
        "\"c\"",
        "]",
        "]",
        "}",
    ];
    let spaces = ["", " ", "\t", "\n", "\r\n ", "  \t"];
    let mut lines = Vec::new();
    // The same gap everywhere, then one gap at a time.
    for gap in spaces {
        lines.push(format!("{gap}{}{gap}", tokens.join(gap)));
    }
    for at in 0..=tokens.len() {
        for gap in &spaces[1..] {
            let mut line = String::new();
            for (i, token) in tokens.iter().enumerate() {
                if i == at {
                    line.push_str(gap);
                }
                line.push_str(token);
            }
            if at == tokens.len() {
                line.push_str(gap);
            }
            lines.push(line);
        }
    }
    let appends = check_all(lines.iter().map(String::as_str));
    assert_eq!(appends, lines.len());
    for line in &lines {
        assert_eq!(
            decoded_rows(line),
            table(&[&["a", "b"], &[], &["c"]]),
            "{line:?}"
        );
    }
}

#[test]
fn field_order_and_id_placement() {
    let fields = [
        r#""op":"append""#,
        r#""relation":"r""#,
        r#""rows":[["a","b"]]"#,
    ];
    let ids = [
        r#""id":7"#,
        r#""id":"x""#,
        r#""id":{"rows":[["n"]]}"#,
        r#""id":[["a"]]"#,
    ];
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let mut lines = Vec::new();
    for order in orders {
        let mut parts: Vec<&str> = order.iter().map(|&i| fields[i]).collect();
        lines.push(format!("{{{}}}", parts.join(",")));
        for id in ids {
            for at in 0..=parts.len() {
                parts.insert(at, id);
                lines.push(format!("{{{}}}", parts.join(",")));
                parts.remove(at);
            }
        }
    }
    let appends = check_all(lines.iter().map(String::as_str));
    assert_eq!(appends, lines.len());
    // A nested `rows` key is just part of the id.
    let (id, _) = Request::decode(r#"{"id":{"rows":[["n"]]},"op":"catalog"}"#);
    assert_eq!(
        id.map(|id| id.to_string()),
        Some(r#"{"rows":[["n"]]}"#.to_owned())
    );
}

#[test]
fn malformed_rows_fall_back_to_the_trees_errors() {
    let deep = format!(
        "{}\"a\"{}",
        "[".repeat(MAX_DEPTH + 2),
        "]".repeat(MAX_DEPTH + 2)
    );
    let at_limit = format!(
        "[[{}\"a\"{}]]",
        "[".repeat(MAX_DEPTH - 3),
        "]".repeat(MAX_DEPTH - 3)
    );
    let payloads = [
        "[]",
        "[[]]",
        r#"[["a",1]]"#,
        r#"[["a",null]]"#,
        r#"[["a",true]]"#,
        r#"[["a",["b"]]]"#,
        r#"[["a",{"x":"y"}]]"#,
        r#"["a"]"#,
        r#"[["a"],"b"]"#,
        r#"[["a"],]"#,
        r#"[["a",]]"#,
        r#"[["a" "b"]]"#,
        r#"[["a"] ["b"]]"#,
        r#"[[,"a"]]"#,
        "[[\"a\"]",
        "[[\"a\"",
        "[",
        r#""a""#,
        "{}",
        "null",
        "5",
        "-",
        &deep,
        &at_limit,
    ];
    let mut lines: Vec<String> = payloads.iter().map(|p| append_with(p)).collect();
    // Duplicate `rows` keys, whichever of the two decodes.
    for (first, second) in [
        (r#"[["a"]]"#, r#"[["b"]]"#),
        ("5", r#"[["b"]]"#),
        (r#"[["a"]]"#, "5"),
    ] {
        lines.push(format!(
            r#"{{"op":"append","relation":"r","rows":{first},"rows":{second}}}"#
        ));
    }
    // Both payloads, and an error after a decoded `rows`.
    lines.push(r#"{"op":"append","relation":"r","rows":[["a"]],"text":"a"}"#.to_owned());
    lines.push(r#"{"op":"append","rows":[["a"]]}"#.to_owned());
    lines.push(r#"{"op":"append","relation":"r","rows":[["a"]],"delimiter":"::"}"#.to_owned());
    lines.push(r#"{"op":"append","relation":"r","rows":[["a"]]} x"#.to_owned());
    lines.push(r#"{"op":"append","relation":"r","rows":[["a"]],}"#.to_owned());
    lines.push(r#"{"v":2,"op":"append","relation":"r","rows":[["a"]]}"#.to_owned());
    lines.push(r#"[{"rows":[["a"]]}]"#.to_owned());
    check_all(lines.iter().map(String::as_str));
    let (_, nested) = Request::decode(&append_with(&deep));
    assert!(nested
        .unwrap_err()
        .message
        .contains(&format!("nesting deeper than {MAX_DEPTH} levels")));
}

#[test]
fn rows_on_other_ops_are_ignored_unknown_fields() {
    let lines = [
        r#"{"op":"catalog","rows":[["a"]]}"#,
        r#"{"rows":[["a"]],"op":"stats","relation":"r"}"#,
        r#"{"op":"entropy","relation":"r","attrs":["a"],"rows":[["a","b"]]}"#,
        r#"{"op":"loss","relation":"r","schema":[["a"]],"rows":[[1]]}"#,
        r#"{"op":"nope","rows":[["a"]]}"#,
        r#"{"rows":[["a"]]}"#,
        r#"{"op":5,"rows":[["a"]]}"#,
    ];
    assert_eq!(check_all(lines), 0);
    assert_eq!(Request::decode(lines[0]).1, Ok(Request::Catalog));
}

#[test]
fn every_prefix_and_one_byte_mutation_of_an_append() {
    let valid = r#"{"id":1,"op":"append","relation":"r","rows":[["aé","b"],["c\"","d"]]}"#;
    let bytes = valid.as_bytes();
    let mut mutants = Vec::new();
    for at in 0..bytes.len() {
        let mut deleted = bytes.to_vec();
        deleted.remove(at);
        mutants.push(deleted);
        for b in 0..0x80u8 {
            let mut replaced = bytes.to_vec();
            replaced[at] = b;
            mutants.push(replaced);
            let mut inserted = bytes.to_vec();
            inserted.insert(at, b);
            mutants.push(inserted);
        }
    }
    // A line is a `str`: cutting or overwriting half of the `é` is not one.
    let mut lines: Vec<String> = (0..=valid.len())
        .filter_map(|end| valid.get(..end).map(str::to_owned))
        .collect();
    lines.extend(
        mutants
            .into_iter()
            .filter_map(|m| String::from_utf8(m).ok()),
    );
    let appends = check_all(lines.iter().map(String::as_str));
    // Most mutations break the line; the rest (a changed label, inserted
    // whitespace, ...) still append.
    assert!(appends > 100, "only {appends} mutants decoded as appends");
}

#[test]
fn text_payloads_give_the_rows_arrays_table() {
    let rows = table(&[&["a", "b"], &["c d", ""], &["é", "f"]]);
    let as_array = append_with(r#"[["a","b"],["c d",""],["é","f"]]"#);
    assert_eq!(decoded_rows(&as_array), rows);
    for text in [r#""a,b\nc d,\né,f""#, r#""a , b\r\n\n  \n c d ,\t\né,f\n""#] {
        let line = format!(r#"{{"op":"append","relation":"r","text":{text}}}"#);
        check_all([line.as_str()]);
        assert_eq!(decoded_rows(&line), rows, "{text}");
    }
    let line = r#"{"op":"append","relation":"r","text":"a|b\nc d|\né|f","delimiter":"|"}"#;
    check_all([line]);
    assert_eq!(decoded_rows(line), rows);
}
