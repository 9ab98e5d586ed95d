//! Protocol robustness: a worker must survive anything a client can put
//! on the wire.
//!
//! Three hostile inputs — garbage payloads, oversized length headers, and
//! torn frames — each answered (where answerable) with a typed
//! [`ErrorCode::Protocol`] and never by killing the worker: the same
//! connection (garbage) or a fresh connection (oversized/torn, which
//! poison the stream) keeps being served. Plus property tests
//! round-tripping arbitrary query plans and result sets through the
//! serializers.

use hyrise_query::{Action, CompiledPredicate, Query};
use hyrise_server::protocol::{
    read_frame, write_frame, Admission, Body, ErrorCode, FrameEvent, Request, Response, TableSpec,
    WireError, WireOutput, WireRowId,
};
use hyrise_server::server::{start, ServerConfig};
use hyrise_server::Client;
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;

fn call_raw(stream: &mut TcpStream, payload: &[u8]) -> Response {
    write_frame(stream, payload).unwrap();
    match read_frame(stream, &|| false).unwrap() {
        FrameEvent::Frame(p) => Response::decode(&p).unwrap(),
        other => panic!("expected a response frame, got {other:?}"),
    }
}

#[test]
fn garbage_frames_get_typed_errors_and_the_connection_survives() {
    let mut srv = start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(srv.addr()).unwrap();

    // Unknown opcode.
    let resp = call_raw(&mut stream, &[0xEE, 1, 2, 3]);
    assert!(
        matches!(resp.result, Err(ref e) if e.code == ErrorCode::Protocol),
        "{resp:?}"
    );

    // Truncated create-table.
    let resp = call_raw(&mut stream, &[2, 10, 0]);
    assert!(matches!(resp.result, Err(ref e) if e.code == ErrorCode::Protocol));

    // Trailing garbage after a valid ping.
    let mut payload = Request::Ping.encode();
    payload.extend_from_slice(b"junk");
    let resp = call_raw(&mut stream, &payload);
    assert!(matches!(resp.result, Err(ref e) if e.code == ErrorCode::Protocol));

    // Empty payload.
    let resp = call_raw(&mut stream, &[]);
    assert!(matches!(resp.result, Err(ref e) if e.code == ErrorCode::Protocol));

    // The same connection still serves valid requests.
    let resp = call_raw(&mut stream, &Request::Ping.encode());
    assert_eq!(resp.result, Ok(Body::Pong));
    srv.shutdown();
}

#[test]
fn oversized_frame_is_answered_then_dropped_worker_survives() {
    let mut srv = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1, // one worker: if it died, nothing would answer again
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut stream = TcpStream::connect(srv.addr()).unwrap();
    // Announce 4 GiB; send nothing else.
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    match read_frame(&mut stream, &|| false).unwrap() {
        FrameEvent::Frame(p) => {
            let resp = Response::decode(&p).unwrap();
            assert!(matches!(resp.result, Err(ref e) if e.code == ErrorCode::Protocol));
        }
        other => panic!("expected an error response before the drop, got {other:?}"),
    }
    // The server dropped this connection (unresumable stream)…
    match read_frame(&mut stream, &|| false) {
        Ok(FrameEvent::Closed) | Err(_) => {}
        other => panic!("expected the connection to close, got {other:?}"),
    }
    // …but the lone worker lives to serve a fresh one.
    let mut c = Client::connect(srv.addr()).unwrap();
    c.ping().unwrap();
    srv.shutdown();
}

#[test]
fn torn_frame_client_death_does_not_kill_the_worker() {
    let mut srv = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    {
        let mut stream = TcpStream::connect(srv.addr()).unwrap();
        // Header promising 100 bytes, then 3 bytes, then death.
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.flush().unwrap();
    } // dropped: RST/FIN mid-frame
    let mut c = Client::connect(srv.addr()).unwrap();
    c.ping().unwrap();
    srv.shutdown();
}

#[test]
fn requests_against_real_tables_stay_typed_under_hostile_plans() {
    let mut srv = start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(srv.addr()).unwrap();
    c.create_table(&TableSpec::volatile("t", 2, 2)).unwrap();
    c.insert("t", &[vec![1, 2]]).unwrap();

    // A plan probing a column the table doesn't have: typed Config error,
    // not a worker panic.
    let hostile = Query::from_parts(
        vec![CompiledPredicate {
            col: 999,
            lo: 0u64,
            hi: 1,
        }],
        Action::Rows,
        1,
    );
    match c.query("t", &hostile) {
        Err(hyrise_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::Config)
        }
        other => panic!("expected a typed Config error, got {other:?}"),
    }
    // Aggregate over a bad column too.
    let hostile = Query::from_parts(vec![], Action::Sum(7), 1);
    assert!(matches!(
        c.query("t", &hostile),
        Err(hyrise_server::ClientError::Server {
            code: ErrorCode::Config,
            ..
        })
    ));
    // The connection still works.
    assert_eq!(
        c.query("t", &Query::scan(0).count()).unwrap().count(),
        Some(1)
    );
    srv.shutdown();
}

/// Build an arbitrary-but-valid plan from flat fuzz inputs.
fn plan_from(
    preds: &[(u32, u64, u64)],
    action_sel: u8,
    action_cols: &[u32],
    threads: u16,
) -> Query<u64> {
    let preds: Vec<CompiledPredicate<u64>> = preds
        .iter()
        .map(|(c, lo, hi)| CompiledPredicate {
            col: *c as usize,
            lo: *lo,
            hi: *hi,
        })
        .collect();
    let action = match action_sel % 5 {
        0 => Action::Rows,
        1 => Action::Project(action_cols.iter().map(|c| *c as usize).collect()),
        2 => Action::Count,
        3 => Action::Sum(action_cols.first().copied().unwrap_or(0) as usize),
        _ => Action::MinMax(action_cols.first().copied().unwrap_or(0) as usize),
    };
    Query::from_parts(preds, action, threads as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_plans_roundtrip(
        preds in prop::collection::vec((0u32..1000, 0u64.., 0u64..), 0..8),
        action_sel in 0u8..5,
        action_cols in prop::collection::vec(0u32..1000, 0..6),
        threads in 1u16..64,
        table in prop::collection::vec(97u8..123, 1..16),
    ) {
        let plan = plan_from(&preds, action_sel, &action_cols, threads);
        let req = Request::Query {
            table: String::from_utf8(table).unwrap(),
            plan: plan.clone(),
        };
        let decoded = Request::decode(&req.encode()).unwrap();
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn arbitrary_result_sets_roundtrip(
        ids in prop::collection::vec((0u32..64, 0u64..), 0..64),
        rows in prop::collection::vec(prop::collection::vec(0u64.., 0..6), 0..32),
        count in 0u64..,
        sum_hi in 0u64..,
        sum_lo in 0u64..,
        mm in (0u64.., 0u64..),
        which in 0u8..6,
        waited in 0u32..10_000,
    ) {
        let output = match which % 6 {
            0 => WireOutput::Rows(
                ids.iter().map(|(s, r)| WireRowId { shard: *s, row: *r }).collect(),
            ),
            1 => WireOutput::Projected(rows.clone()),
            2 => WireOutput::Count(count),
            3 => WireOutput::Sum(((sum_hi as u128) << 64) | sum_lo as u128),
            4 => WireOutput::MinMax(None),
            _ => WireOutput::MinMax(Some((mm.0.min(mm.1), mm.0.max(mm.1)))),
        };
        let resp = Response {
            admission: match which % 3 {
                0 => Admission::Admit,
                1 => Admission::Queued { waited_ms: waited },
                _ => Admission::Throttled { retry_after_ms: waited },
            },
            result: Ok(Body::Output(output)),
        };
        let decoded = Response::decode(&resp.encode()).unwrap();
        prop_assert_eq!(decoded, resp);
    }

    #[test]
    fn arbitrary_error_responses_roundtrip(
        pick in 0usize..10,
        msg in prop::collection::vec(32u8..127, 0..80),
    ) {
        // Every live code with its number on the wire.
        let (code, number) = [
            (ErrorCode::Protocol, 1), (ErrorCode::NoSuchTable, 2),
            (ErrorCode::TableExists, 3), (ErrorCode::Io, 4),
            (ErrorCode::Corrupt, 5), (ErrorCode::Recovery, 6),
            (ErrorCode::Config, 8), (ErrorCode::Shed, 9),
            (ErrorCode::Throttled, 10), (ErrorCode::Internal, 11),
        ][pick];
        let resp = Response {
            admission: Admission::Shed,
            result: Err(WireError::new(code, String::from_utf8(msg).unwrap())),
        };
        let encoded = resp.encode();
        let decoded = Response::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, resp);
        // Code 7, a cancelled merge's, is unassigned: it decodes to a
        // typed error, and the codes after it keep their numbers. The
        // status byte follows the admission byte and its u32 argument.
        prop_assert_eq!(encoded[5], number);
        let mut retired = encoded;
        retired[5] = 7;
        let err = Response::decode(&retired).unwrap_err();
        prop_assert!(err.contains("unknown error code 7"), "{}", err);
    }

    #[test]
    fn random_bytes_never_panic_the_decoders(
        payload in prop::collection::vec(0u8.., 0..256),
    ) {
        // Outcome (Ok or Err) is irrelevant; not panicking is the property.
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }
}
