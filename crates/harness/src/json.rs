//! The workspace's one JSON codec, [`mixp_core::obs::json`], re-exported
//! for the interchange format ([`crate::interchange`]), the journals and
//! the crates built on the harness (the campaign service, the examples).
//!
//! The codec lives in the dependency-free `mixp-obs` crate so the trace
//! writer can share it; its generated-input property tests live here,
//! where the in-tree property harness is available.

pub use mixp_core::obs::json::*;

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::prop::{bools, f64s, i64s, just, map, one_of, strings_of, u64s, vecs, Gen};
    use mixp_core::{prop_assert, prop_assert_eq, prop_check, Obs, Value};

    fn arb_json(depth: u32) -> Box<dyn Gen<Value = Json>> {
        // The same value shapes the proptest version generated: scalar
        // leaves (including strings with quotes, backslashes and
        // newlines), plus arrays and key-deduplicated objects when depth
        // allows.
        let mut options: Vec<Box<dyn Gen<Value = Json>>> = vec![
            Box::new(just(Json::Null)),
            Box::new(map(bools(), Json::Bool)),
            Box::new(map(f64s(-1.0e6..1.0e6), Json::Number)),
            Box::new(map(strings_of("abcXYZ09 _-\"\\\n", 0..13), Json::String)),
        ];
        if depth > 0 {
            options.push(Box::new(map(vecs(arb_json(depth - 1), 0..4), Json::Array)));
            options.push(Box::new(map(
                vecs((strings_of("abcdefuz", 1..7), arb_json(depth - 1)), 0..4),
                |pairs| {
                    // Deduplicate keys to keep get() unambiguous.
                    let mut seen = std::collections::HashSet::new();
                    Json::Object(
                        pairs
                            .into_iter()
                            .filter(|(k, _)| seen.insert(k.clone()))
                            .collect(),
                    )
                },
            )));
        }
        Box::new(one_of(options))
    }

    /// Writing any value and reparsing yields the same value.
    #[test]
    fn write_parse_round_trip() {
        prop_check!((v in arb_json(3)) => {
            prop_assert_eq!(parse(&v.pretty()).unwrap(), v);
        });
    }

    /// Characters that stress the trace writer's escaping: quotes,
    /// backslashes, newlines, tabs and other control characters, plus a
    /// multi-byte one.
    const NASTY: &str = "ab_.\"\\\n\t\r\u{1}\u{1f}é";

    fn arb_value() -> Box<dyn Gen<Value = Value>> {
        Box::new(one_of(vec![
            Box::new(map(u64s(0..u64::MAX), Value::U64)),
            Box::new(map(i64s(-(1 << 62)..1 << 62), Value::I64)),
            Box::new(map(bools(), Value::Bool)),
            Box::new(map(f64s(-1.0e12..1.0e12), Value::F64)),
            Box::new(just(Value::F64(f64::NAN))),
            Box::new(just(Value::F64(f64::INFINITY))),
            Box::new(just(Value::F64(f64::NEG_INFINITY))),
            Box::new(map(strings_of(NASTY, 0..9), Value::S)),
        ]))
    }

    /// What a field value must read back as.
    fn expected(value: &Value) -> Json {
        match value {
            Value::U64(v) => Json::Number(*v as f64),
            Value::I64(v) => Json::Number(*v as f64),
            Value::F64(v) if v.is_finite() => Json::Number(*v),
            Value::F64(_) => Json::Null,
            Value::Str(s) => Json::String(s.to_string()),
            Value::S(s) => Json::String(s.clone()),
            Value::Bool(b) => Json::Bool(*b),
        }
    }

    fn member(key: &str, value: Json) -> (String, Json) {
        (key.to_string(), value)
    }

    /// Every record the trace writer emits (event, span start with a
    /// parent, span end) parses back into exactly the fields it was
    /// given, and no proper prefix of it parses.
    #[test]
    fn trace_records_parse_into_their_fields() {
        prop_check!((
            name in strings_of(NASTY, 0..9),
            fields in vecs((strings_of(NASTY, 0..7), arb_value()), 0..5),
        ) => {
            // Call sites pass `&'static str` names and keys; leak the
            // drawn ones to get them.
            let name: &'static str = Box::leak(name.into_boxed_str());
            let fields: Vec<(&'static str, Value)> = fields
                .into_iter()
                .map(|(k, v)| (&*Box::leak(k.into_boxed_str()), v))
                .collect();
            let obs = Obs::in_memory();
            obs.event(name, &fields);
            obs.span_with_parent(name, Some(0), &fields).end_with(&fields);
            let heads = [
                vec![member("seq", Json::Number(0.0)), member("t", Json::String("event".into()))],
                vec![
                    member("seq", Json::Number(1.0)),
                    member("t", Json::String("span".into())),
                    member("id", Json::Number(1.0)),
                    member("parent", Json::Number(0.0)),
                ],
                vec![
                    member("seq", Json::Number(2.0)),
                    member("t", Json::String("end".into())),
                    member("id", Json::Number(1.0)),
                ],
            ];
            let lines = obs.trace_lines();
            prop_assert_eq!(lines.len(), heads.len());
            for (line, head) in lines.iter().zip(heads) {
                let mut want = head;
                want.push(member("name", Json::String(name.to_string())));
                want.extend(fields.iter().map(|(k, v)| member(k, expected(v))));
                prop_assert_eq!(parse(line), Ok(Json::Object(want)), "record {}", line);
                for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
                    prop_assert!(parse(&line[..cut]).is_err(), "prefix {:?} parses", &line[..cut]);
                }
            }
        });
    }
}
