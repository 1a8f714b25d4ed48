//! Property tests for the serve wire protocol: requests and responses
//! must round-trip through the incremental parser regardless of how TCP
//! fragments the byte stream.
//!
//! Strategies are integer ranges and `any::<u64>()`; payloads and split
//! points are derived from sampled seeds with an inline splitmix64.

use mcast_serve::protocol::{
    chunk, chunked_head, encode_request, error_body, parse_response, unary_response, ProtocolError,
    Request, RequestParser, CHUNK_END, DEFAULT_MAX_BODY_BYTES,
};
use proptest::prelude::*;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Feed `raw` to a fresh parser in fragments whose lengths are derived
/// from `seed` (1..=max_step bytes each — TCP may hand the server any
/// segmentation whatsoever). Returns the parsed request.
fn feed_in_random_pieces(
    raw: &[u8],
    seed: u64,
    max_step: usize,
) -> Result<Option<Request>, ProtocolError> {
    let mut parser = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
    let mut state = seed ^ 0xda3e_39cb_94b9_5bdb;
    let mut at = 0;
    while at < raw.len() {
        let step = 1 + (splitmix(&mut state) as usize) % max_step;
        let end = (at + step).min(raw.len());
        match parser.feed(&raw[at..end])? {
            Some(request) => {
                assert_eq!(end, raw.len(), "request framed before all bytes arrived");
                return Ok(Some(request));
            }
            None => at = end,
        }
    }
    Ok(None)
}

/// Random printable token without separators (for paths/values).
fn token(state: &mut u64, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.";
    (0..len)
        .map(|_| ALPHABET[(splitmix(state) as usize) % ALPHABET.len()] as char)
        .collect()
}

/// Random body bytes (full 0..=255 range: MCTB uploads are binary).
fn body_bytes(state: &mut u64, len: usize) -> Vec<u8> {
    (0..len).map(|_| splitmix(state) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A well-formed request survives every TCP segmentation: method,
    // path, query parameters, headers and the (binary) body all arrive
    // intact whether the bytes come one at a time or in one burst.
    #[test]
    fn requests_round_trip_across_arbitrary_split_points(
        body_len in 0usize..600,
        max_step in 1usize..80,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let method = if splitmix(&mut state).is_multiple_of(2) { "POST" } else { "GET" };
        let path_len = 1 + (splitmix(&mut state) as usize) % 12;
        let path = format!("/v1/{}", token(&mut state, path_len));
        let qk_len = 1 + (splitmix(&mut state) as usize) % 6;
        let qk = token(&mut state, qk_len);
        let qv_len = (splitmix(&mut state) as usize) % 8;
        let qv = token(&mut state, qv_len);
        let target = format!("{path}?{qk}={qv}");
        let client_len = 1 + (splitmix(&mut state) as usize) % 10;
        let client = token(&mut state, client_len);
        let body = body_bytes(&mut state, body_len);
        let raw = encode_request(
            method,
            &target,
            &[("X-Client-Id", client.as_str()), ("Accept", "application/json")],
            &body,
        );

        let request = feed_in_random_pieces(&raw, seed, max_step)
            .expect("no framing error on a well-formed request")
            .expect("complete request must frame");
        prop_assert_eq!(&request.method, method);
        prop_assert_eq!(&request.path, &path);
        prop_assert_eq!(request.query_param(&qk), Some(qv.as_str()));
        prop_assert_eq!(request.header("x-client-id"), Some(client.as_str()));
        prop_assert_eq!(request.header("accept"), Some("application/json"));
        prop_assert_eq!(&request.body, &body);

        // Segmentation invariance: one-shot parse sees the same request.
        let mut oneshot = RequestParser::new(DEFAULT_MAX_BODY_BYTES);
        prop_assert_eq!(oneshot.feed(&raw).unwrap().expect("frames"), request);
    }

    // A sized (unary) response round-trips through the client-side
    // decoder: status, headers and body bytes are recovered exactly.
    #[test]
    fn unary_responses_round_trip(
        body_len in 0usize..400,
        status_pick in 0usize..6,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let status = [200u16, 400, 404, 429, 500, 503][status_pick];
        let body = body_bytes(&mut state, body_len);
        let raw = unary_response(status, "application/json", &body, &[("X-Cache", "miss")]);
        let parsed = parse_response(&raw).expect("well-formed response");
        prop_assert_eq!(parsed.status, status);
        prop_assert_eq!(parsed.header("x-cache"), Some("miss"));
        prop_assert_eq!(parsed.header("content-type"), Some("application/json"));
        prop_assert_eq!(&parsed.body, &body);
        prop_assert!(parsed.chunks.is_none());
    }

    // A chunked JSONL stream reassembles exactly, however the writer
    // fragmented it: concatenated chunks equal the logical stream and
    // `jsonl_lines` recovers every event line — even when a single line
    // straddles several chunks.
    #[test]
    fn chunked_streams_reassemble_across_chunk_boundaries(
        line_count in 1usize..20,
        max_step in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let lines: Vec<String> = (0..line_count)
            .map(|i| {
                let tag_len = (splitmix(&mut state) as usize) % 12;
                format!(
                    "{{\"ev\":\"serve.progress\",\"n\":{i},\"tag\":\"{}\"}}",
                    token(&mut state, tag_len)
                )
            })
            .collect();
        let stream: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
            .collect();

        // Writer-side fragmentation: cut the logical stream into chunks
        // at seed-derived positions (chunk boundaries need not align
        // with line boundaries).
        let mut raw = chunked_head(200, "application/jsonl");
        let mut at = 0;
        while at < stream.len() {
            let step = 1 + (splitmix(&mut state) as usize) % max_step;
            let end = (at + step).min(stream.len());
            raw.extend_from_slice(&chunk(&stream[at..end]));
            at = end;
        }
        raw.extend_from_slice(CHUNK_END);

        let parsed = parse_response(&raw).expect("well-formed chunked response");
        prop_assert_eq!(parsed.status, 200);
        prop_assert_eq!(&parsed.body, &stream);
        let got = parsed.jsonl_lines();
        prop_assert_eq!(got.len(), lines.len());
        for (g, w) in got.iter().zip(&lines) {
            prop_assert_eq!(*g, w.as_str());
        }
        let chunks = parsed.chunks.expect("chunked body records its chunks");
        let rejoined: Vec<u8> = chunks.concat();
        prop_assert_eq!(&rejoined, &stream);
    }

    // The structured error payload parses as JSON for any message —
    // quotes, backslashes, newlines and control characters included —
    // and faithfully carries status and code.
    #[test]
    fn error_payloads_are_always_valid_json(
        status_pick in 0usize..5,
        msg_len in 0usize..60,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let status = [400u16, 404, 429, 500, 503][status_pick];
        // Adversarial message: full printable range plus the JSON
        // specials and a few control characters.
        const NASTY: &[char] =
            &['"', '\\', '\n', '\r', '\t', '{', '}', 'a', 'Z', ' ', '/', '\u{1}'];
        let message: String = (0..msg_len)
            .map(|_| NASTY[(splitmix(&mut state) as usize) % NASTY.len()])
            .collect();
        let body = error_body(
            status,
            "quota_exhausted",
            &message,
            &[("retry_after_ms", mcast_obs::json::Value::U64(splitmix(&mut state) % 10_000))],
        );
        let v = mcast_obs::json::parse(&body).expect("error body must parse");
        let err = v.get("error").expect("error object");
        prop_assert_eq!(err.get("status").and_then(|s| s.as_u64()), Some(u64::from(status)));
        prop_assert_eq!(err.get("code").and_then(|c| c.as_str()), Some("quota_exhausted"));
        prop_assert_eq!(err.get("message").and_then(|m| m.as_str()), Some(message.as_str()));
        prop_assert!(err.get("retry_after_ms").and_then(|r| r.as_u64()).is_some());
    }

    // Framing errors are segmentation-independent: a body whose declared
    // Content-Length exceeds the server limit is rejected with 413 at
    // whatever fragment reveals the header, never accepted and never
    // misclassified.
    #[test]
    fn oversized_declarations_reject_at_any_split(
        max_step in 1usize..60,
        seed in any::<u64>(),
    ) {
        let limit = 1024usize;
        let declared = limit + 1 + (seed as usize % 4096);
        let raw = format!(
            "POST /v1/topo HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n"
        );
        let mut parser = RequestParser::new(limit);
        let mut state = seed ^ 0x0123_4567_89ab_cdef;
        let bytes = raw.as_bytes();
        let mut at = 0;
        let mut verdict = None;
        while at < bytes.len() {
            let step = 1 + (splitmix(&mut state) as usize) % max_step;
            let end = (at + step).min(bytes.len());
            match parser.feed(&bytes[at..end]) {
                Ok(Some(_)) => prop_assert!(false, "oversized request must not frame"),
                Ok(None) => at = end,
                Err(e) => {
                    verdict = Some(e);
                    break;
                }
            }
        }
        let err = verdict.expect("parser must reject once the head is complete");
        prop_assert_eq!(err.status(), 413);
        match err {
            ProtocolError::BodyTooLarge { declared: d, limit: l } => {
                prop_assert_eq!(d, declared);
                prop_assert_eq!(l, limit);
            }
            other => prop_assert!(false, "expected BodyTooLarge, got {:?}", other),
        }
    }
}
