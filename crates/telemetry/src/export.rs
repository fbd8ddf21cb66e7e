//! Exporters: JSON-lines event logs, Prometheus text-format snapshots,
//! and the one JSON writer ([`BenchObject`]) behind every `BENCH_*.json`
//! artifact, daemon reply and JSONL line.
//!
//! Every format is hand-rolled (the crate is dependency-free) and
//! deterministic: events export in emission order, metrics in the
//! registry's canonical key order, JSON fields in the order the caller
//! adds them, and floats render through Rust's shortest-roundtrip
//! `Display` — the same bits always produce the same text, which is what
//! the golden tests pin.

use std::borrow::Cow;
use std::fmt::{Display, Write as _};

use crate::registry::{MetricsRegistry, BUCKET_BOUNDS};
use crate::sink::Event;

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
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
}

/// Renders a float as a JSON number: Rust's shortest-roundtrip
/// `Display` for finite values (integral ones without a fractional
/// part), `null` for non-finite ones, which JSON cannot represent.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// A JSON string literal: `value` escaped and quoted.
fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    escape_into(&mut out, value);
    out.push('"');
    out
}

/// Renders recorded events as JSON-lines: one compact event object per
/// line.
///
/// ```text
/// {"ts_ms":0,"kind":"span_start","path":"place"}
/// {"ts_ms":5,"kind":"span_end","path":"place","duration_ms":4}
/// ```
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        let mut line = BenchObject::default()
            .raw("ts_ms", event.ts_ms)
            .string("kind", event.kind.label())
            .string("path", &event.path);
        if let Some(d) = event.duration_ms {
            line = line.raw("duration_ms", d);
        }
        line.write_compact(&mut out);
        out.push('\n');
    }
    out
}

/// Renders a metric snapshot in the Prometheus text exposition format:
/// counters, then gauges, then histograms, each in canonical key order
/// with one `# TYPE` header per metric name.
pub fn registry_to_prometheus(registry: &MetricsRegistry) -> String {
    let mut out = String::new();

    let mut last_name = String::new();
    for (key, value) in registry.counters() {
        if key.name() != last_name {
            out.push_str(&format!("# TYPE {} counter\n", key.name()));
            last_name = key.name().to_string();
        }
        out.push_str(&format!(
            "{}{} {}\n",
            key.name(),
            key.label_block(None),
            value
        ));
    }

    last_name.clear();
    for (key, value) in registry.gauges() {
        if key.name() != last_name {
            out.push_str(&format!("# TYPE {} gauge\n", key.name()));
            last_name = key.name().to_string();
        }
        out.push_str(&format!(
            "{}{} {}\n",
            key.name(),
            key.label_block(None),
            value
        ));
    }

    last_name.clear();
    for (key, hist) in registry.histograms() {
        if key.name() != last_name {
            out.push_str(&format!("# TYPE {} histogram\n", key.name()));
            last_name = key.name().to_string();
        }
        let mut cumulative = 0u64;
        for (i, &count) in hist.bucket_counts().iter().enumerate() {
            cumulative += count;
            let le = if i < BUCKET_BOUNDS.len() {
                BUCKET_BOUNDS[i].to_string()
            } else {
                "+Inf".to_string()
            };
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                key.name(),
                key.label_block(Some(("le", &le))),
                cumulative
            ));
        }
        out.push_str(&format!(
            "{}_sum{} {}\n",
            key.name(),
            key.label_block(None),
            hist.sum()
        ));
        out.push_str(&format!(
            "{}_count{} {}\n",
            key.name(),
            key.label_block(None),
            hist.count()
        ));
    }

    out
}

/// One value of a [`BenchObject`].
#[derive(Debug, Clone, PartialEq)]
pub enum BenchJson {
    /// A scalar's exact JSON text: `12`, `0.500`, `"exact"`, `null`, or
    /// a whole array of scalars, `[3,null]`.
    Scalar(String),
    /// A nested object.
    Object(BenchObject),
    /// An array of objects.
    Array(Vec<BenchObject>),
}

/// A field name of a [`BenchObject`]: a `&'static str` literal is
/// borrowed, so objects built from literal keys allocate nothing per
/// key; a `&String` name is copied once.
pub trait FieldKey {
    /// The name as the object stores it.
    fn into_key(self) -> Cow<'static, str>;
}

impl FieldKey for &'static str {
    fn into_key(self) -> Cow<'static, str> {
        Cow::Borrowed(self)
    }
}

impl FieldKey for &String {
    fn into_key(self) -> Cow<'static, str> {
        Cow::Owned(self.clone())
    }
}

/// An ordered JSON object: the one JSON writer of the workspace. The
/// [`render`](Self::render)ed BENCH layout puts one `"key": value` per
/// line with two spaces of indent per level, and `smoothop gate`
/// [`parse`](Self::parse)s it back with every scalar kept as its exact
/// text; the [`compact`](Self::compact) layout has no whitespace at all
/// and carries every daemon reply and JSONL line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchObject {
    /// The fields, in order.
    pub fields: Vec<(Cow<'static, str>, BenchJson)>,
}

impl BenchObject {
    /// Appends `key` with any value.
    #[must_use]
    pub fn field(mut self, key: impl FieldKey, value: BenchJson) -> Self {
        self.fields.push((key.into_key(), value));
        self
    }

    /// Appends `key` with `value`'s `Display` text, verbatim.
    #[must_use]
    pub fn raw(self, key: impl FieldKey, value: impl Display) -> Self {
        self.field(key, BenchJson::Scalar(value.to_string()))
    }

    /// Appends `key` with `value` as a JSON string.
    #[must_use]
    pub fn string(self, key: impl FieldKey, value: &str) -> Self {
        self.field(key, BenchJson::Scalar(json_string(value)))
    }

    /// Appends `key` with `value` rounded to `decimals` places.
    #[must_use]
    pub fn fixed(self, key: impl FieldKey, value: f64, decimals: usize) -> Self {
        self.raw(key, format_args!("{value:.decimals$}"))
    }

    /// Appends `key` with `value` as a shortest-roundtrip JSON number, or
    /// `null` when it is not finite.
    #[must_use]
    pub fn float(self, key: impl FieldKey, value: f64) -> Self {
        self.field(key, BenchJson::Scalar(json_f64(value)))
    }

    /// Appends `key` with `value`'s text, or `null` when it is absent.
    #[must_use]
    pub fn nullable(self, key: impl FieldKey, value: Option<impl Display>) -> Self {
        self.field(key, BenchJson::Scalar(nullable_text(value)))
    }

    /// Appends `key` with an array of objects.
    #[must_use]
    pub fn array(self, key: impl FieldKey, items: impl IntoIterator<Item = BenchObject>) -> Self {
        self.field(key, BenchJson::Array(items.into_iter().collect()))
    }

    /// Appends `key` with an array of JSON strings, on one line.
    #[must_use]
    pub fn strings<S: AsRef<str>>(
        self,
        key: impl FieldKey,
        items: impl IntoIterator<Item = S>,
    ) -> Self {
        let items = items.into_iter().map(|s| json_string(s.as_ref()));
        self.field(key, scalar_array(items))
    }

    /// Appends `key` with an array of values' text, `null` for each
    /// absent one, on one line.
    #[must_use]
    pub fn nullables<T: Display>(
        self,
        key: impl FieldKey,
        items: impl IntoIterator<Item = Option<T>>,
    ) -> Self {
        self.field(key, scalar_array(items.into_iter().map(nullable_text)))
    }

    /// The value of the first field named `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&BenchJson> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The BENCH artifact text, newline-terminated.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_object(&mut out, self, Some(0));
        out.push('\n');
        out
    }

    /// The compact text, `{"key":value,...}`, with no trailing newline.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the [`compact`](Self::compact) text to `out`.
    pub fn write_compact(&self, out: &mut String) {
        write_object(out, self, None);
    }

    /// Reads the layout [`BenchObject::render`] writes, line by line.
    /// Trailing commas are dropped unchecked, and a key that needs
    /// escaping is an error (no BENCH key does), as is an array of
    /// scalars (no BENCH artifact holds one).
    ///
    /// # Errors
    ///
    /// A message naming the first line that breaks the layout.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate().map(|(i, line)| {
            let line = line.trim();
            (i + 1, line.strip_suffix(',').unwrap_or(line))
        });
        if lines.next().map(|(_, line)| line) != Some("{") {
            return Err("line 1: a BENCH artifact opens with `{`".to_string());
        }
        let object = parse_object(&mut lines)?;
        match lines.find(|(_, line)| !line.is_empty()) {
            None => Ok(object),
            Some((n, line)) => Err(format!("line {n}: `{line}` after the closing brace")),
        }
    }
}

fn nullable_text(value: Option<impl Display>) -> String {
    value.map_or_else(|| "null".to_string(), |value| value.to_string())
}

/// `[a,b,...]` of scalar texts, as one scalar.
fn scalar_array(items: impl Iterator<Item = String>) -> BenchJson {
    BenchJson::Scalar(format!("[{}]", items.collect::<Vec<_>>().join(",")))
}

/// Writes `object` in the BENCH layout when `pad` is the indent of its
/// closing brace, or compactly when `pad` is `None`.
fn write_object(out: &mut String, object: &BenchObject, pad: Option<usize>) {
    write_list(
        out,
        ('{', '}'),
        &object.fields,
        pad,
        |out, (key, value), pad| {
            out.push('"');
            escape_into(out, key);
            out.push_str("\":");
            if pad.is_some() {
                out.push(' ');
            }
            match value {
                BenchJson::Scalar(text) => out.push_str(text),
                BenchJson::Object(inner) => write_object(out, inner, pad),
                BenchJson::Array(items) => write_list(out, ('[', ']'), items, pad, write_object),
            }
        },
    );
}

/// Writes `items` comma-separated between `brackets`. In the BENCH layout
/// (`pad` set) each item sits on its own line two spaces deeper than
/// `pad` and the closing bracket on a line of its own at `pad`; empty
/// containers stay `{}`, `[]` in both layouts.
fn write_list<T>(
    out: &mut String,
    (open, close): (char, char),
    items: &[T],
    pad: Option<usize>,
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = pad.map(|pad| pad + 2);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(indent) = inner {
            let _ = write!(out, "\n{:indent$}", "");
        }
        write_item(out, item, inner);
    }
    if let (Some(indent), false) = (pad, items.is_empty()) {
        let _ = write!(out, "\n{:indent$}", "");
    }
    out.push(close);
}

/// Reads fields up to the closing brace of an object already opened.
fn parse_object<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> Result<BenchObject, String> {
    let mut object = BenchObject::default();
    loop {
        let (n, line) = lines.next().ok_or("the artifact ends inside an object")?;
        if line == "}" {
            return Ok(object);
        }
        let (key, text) = line
            .strip_prefix('"')
            .and_then(|rest| rest.split_once("\": "))
            .filter(|(key, _)| !key.contains(['"', '\\']))
            .ok_or_else(|| format!("line {n}: expected `\"<key>\": value`, found `{line}`"))?;
        let value = match text {
            "{" => BenchJson::Object(parse_object(lines)?),
            "{}" => BenchJson::Object(BenchObject::default()),
            "[" => {
                let mut items = Vec::new();
                loop {
                    match lines.next() {
                        Some((_, "]")) => break BenchJson::Array(items),
                        Some((_, "{")) => items.push(parse_object(lines)?),
                        Some((_, "{}")) => items.push(BenchObject::default()),
                        Some((n, line)) => return Err(format!("line {n}: `{line}` in an array")),
                        None => return Err("the artifact ends inside an array".to_string()),
                    }
                }
            }
            "[]" => BenchJson::Array(Vec::new()),
            _ if text.starts_with(['{', '}', '[', ']']) => {
                return Err(format!("line {n}: unexpected `{text}`"));
            }
            _ => BenchJson::Scalar(text.to_string()),
        };
        object.fields.push((Cow::Owned(key.to_string()), value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::EventKind;

    #[test]
    fn jsonl_escapes_and_orders() {
        let events = vec![
            Event {
                ts_ms: 0,
                kind: EventKind::SpanStart,
                path: "a\"b".to_string(),
                duration_ms: None,
            },
            Event {
                ts_ms: 1,
                kind: EventKind::SpanEnd,
                path: "a\"b".to_string(),
                duration_ms: Some(1),
            },
        ];
        let text = events_to_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "{\"ts_ms\":0,\"kind\":\"span_start\",\"path\":\"a\\\"b\"}",
                "{\"ts_ms\":1,\"kind\":\"span_end\",\"path\":\"a\\\"b\",\"duration_ms\":1}",
            ]
        );
    }

    #[test]
    fn prometheus_renders_all_metric_kinds() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("c_total", &[("k", "v")], 7);
        reg.gauge_set("g", &[], 2.5);
        reg.observe("h", &[], 0.5);
        reg.observe("h", &[], 2.0);
        let text = registry_to_prometheus(&reg);
        assert!(text.contains("# TYPE c_total counter\nc_total{k=\"v\"} 7\n"));
        assert!(text.contains("# TYPE g gauge\ng 2.5\n"));
        // 0.5 lands in the le="0.5"? No — bounds are decades: le="1".
        assert!(text.contains("h_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("h_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("h_sum 2.5\n"));
        assert!(text.contains("h_count 2\n"));
    }

    #[test]
    fn bucket_lines_are_cumulative() {
        let mut reg = MetricsRegistry::new();
        for v in [0.5, 0.5, 5.0, 5e7] {
            reg.observe("h", &[], v);
        }
        let text = registry_to_prometheus(&reg);
        let last: u64 = text
            .lines()
            .filter(|l| l.starts_with("h_bucket{le=\"+Inf\"}"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .next()
            .unwrap();
        assert_eq!(last, 4, "+Inf bucket carries the total count");
    }
}
