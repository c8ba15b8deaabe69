//! Property-based round-trip suite for the wire codec, plus
//! malformed-frame behaviour against a live server.
//!
//! * `decode(encode(m)) == m` for **every** request and response variant —
//!   including deeply shared provenance in embedded records, empty trails,
//!   and a deterministic near-cap maximum-size batch;
//! * malformed input (truncated frame, bad CRC, hostile length prefix,
//!   unknown tags, unsupported version) is a **typed** error on the
//!   decode side and, against a live [`AuditServer`], a best-effort
//!   `ServerError` frame followed by a clean close — never a panic, and
//!   never a wedged server: the pool keeps serving fresh connections.

use bytes::Bytes;
use piprov_audit::{
    AuditEngine, AuditOutcome, AuditRequest, AuditResponse, CounterfactualVerdict, EngineStats,
    EventFilter, Exemplar, HistogramSnapshot, MetricsSnapshot, PolicyInfo, PolicyListing,
    PolicySnapshot, RequestKind, RequestStats, Span, SpanKind, TraceContext, TraceRecord, WhyEvent,
    WhySlice,
};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Direction, Event, InternerStats, Provenance, ShardStats};
use piprov_core::value::Value;
use piprov_patterns::{MemoStats, Pattern};
use piprov_policy::{PackDiagnostic, PackFile, PackSource};
use piprov_serve::codec::{
    append_request_trace, decode_request, decode_request_traced, decode_response, encode_request,
    encode_response,
};
use piprov_serve::wire::{read_frame, write_frame};
use piprov_serve::{
    AuditClient, AuditServer, ClientError, RequestTrace, ServeConfig, WireError, WireLimits,
    WireResponse,
};
use piprov_store::codec::encode_body;
use piprov_store::record::MAX_PROVENANCE_DEPTH;
use piprov_store::{AuditTrail, Operation, ProvenanceRecord};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u32..64).prop_map(|i| Value::Channel(Channel::new(format!("v{}", i)))),
        (0u32..64).prop_map(|i| Value::Principal(Principal::new(format!("q{}", i)))),
    ]
}

/// Builds provenance with genuine sharing: each step prepends one event
/// whose channel provenance and tail are drawn from the pool built so far.
fn build_provenance(steps: &[(u8, bool, usize, usize)]) -> Provenance {
    let mut pool: Vec<Provenance> = vec![Provenance::empty()];
    for (principal, output, channel_pick, tail_pick) in steps {
        let channel = pool[channel_pick % pool.len()].clone();
        let tail = pool[tail_pick % pool.len()].clone();
        let principal = Principal::new(format!("p{}", principal));
        let event = if *output {
            Event::output(principal, channel)
        } else {
            Event::input(principal, channel)
        };
        pool.push(tail.prepend(event));
    }
    pool.last().expect("pool starts non-empty").clone()
}

fn arb_provenance() -> impl Strategy<Value = Provenance> {
    proptest::collection::vec((0u8..5, any::<bool>(), 0usize..16, 0usize..16), 0..12)
        .prop_map(|steps| build_provenance(&steps))
}

fn arb_record() -> impl Strategy<Value = ProvenanceRecord> {
    (
        (0u64..1 << 48, 0u64..1 << 32, 0u8..4, 0u32..32),
        arb_value(),
        arb_provenance(),
    )
        .prop_map(
            |((sequence, logical_time, op, chan), value, provenance)| ProvenanceRecord {
                sequence,
                logical_time,
                principal: Principal::new(format!("actor{}", op)),
                operation: Operation::from_tag(op).expect("tag in range"),
                channel: Channel::new(format!("chan{}", chan)),
                value,
                provenance,
            },
        )
}

fn arb_event_filter() -> impl Strategy<Value = EventFilter> {
    prop_oneof![
        (0u32..32).prop_map(|p| EventFilter::Principal(Principal::new(format!("p{}", p)))),
        prop_oneof![Just(Direction::Output), Just(Direction::Input)].prop_map(EventFilter::Kind),
        (0u32..32).prop_map(|p| EventFilter::ChannelVia(Principal::new(format!("p{}", p)))),
    ]
}

fn arb_audit_request() -> impl Strategy<Value = AuditRequest> {
    prop_oneof![
        (arb_value(), 0u32..16).prop_map(|(value, p)| AuditRequest::VetValue {
            value,
            pattern: format!("pattern{}", p),
        }),
        arb_value().prop_map(|value| AuditRequest::AuditTrail { value }),
        (0u32..32).prop_map(|p| AuditRequest::WhoTouched {
            principal: Principal::new(format!("p{}", p)),
        }),
        arb_value().prop_map(|value| AuditRequest::OriginOf { value }),
        (arb_value(), 0u32..16).prop_map(|(value, p)| AuditRequest::Why {
            value,
            pattern: format!("pattern{}", p),
        }),
        (arb_value(), 0u32..16, arb_event_filter()).prop_map(|(value, p, remove)| {
            AuditRequest::Counterfactual {
                value,
                pattern: format!("pattern{}", p),
                remove,
            }
        }),
    ]
}

fn arb_request_stats() -> impl Strategy<Value = RequestStats> {
    (
        0usize..1 << 20,
        0usize..1 << 20,
        0usize..1 << 20,
        0usize..1 << 20,
    )
        .prop_map(
            |(index_hits, memo_hits, dag_nodes_visited, memo_reused)| RequestStats {
                index_hits,
                memo_hits,
                dag_nodes_visited,
                memo_reused,
            },
        )
}

fn arb_why_events() -> impl Strategy<Value = Vec<WhyEvent>> {
    proptest::collection::vec(
        (any::<u32>(), 0u8..5, any::<bool>(), arb_provenance()),
        0..5,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .map(|(node, principal, output, channel)| {
                let principal = Principal::new(format!("p{}", principal));
                let event = if output {
                    Event::output(principal, channel)
                } else {
                    Event::input(principal, channel)
                };
                WhyEvent { node, event }
            })
            .collect()
    })
}

fn arb_why_slice() -> impl Strategy<Value = WhySlice> {
    (
        any::<bool>(),
        0u64..1 << 40,
        arb_why_events(),
        any::<bool>(),
    )
        .prop_map(|(verdict, sequence, events, mark_blocked)| {
            // The codec rejects out-of-range blocked indices, so only mark a
            // blocked frontier when there is an event to point at.
            let blocked = if mark_blocked && !events.is_empty() {
                Some(events.len() as u32 - 1)
            } else {
                None
            };
            WhySlice {
                verdict,
                sequence,
                events,
                blocked,
            }
        })
}

fn arb_counterfactual() -> impl Strategy<Value = CounterfactualVerdict> {
    (
        any::<bool>(),
        any::<bool>(),
        0u64..1 << 40,
        arb_why_events(),
    )
        .prop_map(
            |(original, counterfactual, sequence, removed)| CounterfactualVerdict {
                original,
                counterfactual,
                sequence,
                removed,
            },
        )
}

fn arb_outcome() -> impl Strategy<Value = AuditOutcome> {
    prop_oneof![
        (any::<bool>(), 0u64..1 << 40)
            .prop_map(|(verdict, sequence)| AuditOutcome::Vetted { verdict, sequence }),
        (
            arb_value(),
            proptest::collection::vec(arb_record(), 0..4),
            proptest::collection::vec(0u32..32, 0..6),
            proptest::collection::vec(0u32..32, 0..6),
        )
            .prop_map(|(value, records, principals, channels)| {
                AuditOutcome::Trail(AuditTrail {
                    value,
                    records,
                    principals: principals
                        .into_iter()
                        .map(|i| Principal::new(format!("p{}", i)))
                        .collect(),
                    channels: channels
                        .into_iter()
                        .map(|i| Channel::new(format!("c{}", i)))
                        .collect(),
                })
            }),
        (
            proptest::collection::vec(0u64..1 << 40, 0..8),
            proptest::collection::vec(arb_value(), 0..8),
        )
            .prop_map(|(records, values)| AuditOutcome::Touched { records, values }),
        prop_oneof![
            Just(None),
            (0u32..32).prop_map(|i| Some(Principal::new(format!("p{}", i)))),
        ]
        .prop_map(|principal| AuditOutcome::Origin { principal }),
        Just(AuditOutcome::UnknownValue),
        (
            proptest::collection::vec(0u32..32, 0..6),
            prop_oneof![
                Just(None),
                (0u32..32).prop_map(|i| Some(format!("pol{}", i))),
            ],
        )
            .prop_map(|(known, nearest)| AuditOutcome::UnknownPattern {
                known: known.into_iter().map(|i| format!("pol{}", i)).collect(),
                nearest,
            }),
        arb_why_slice().prop_map(AuditOutcome::Why),
        arb_counterfactual().prop_map(AuditOutcome::Counterfactual),
    ]
}

fn arb_pack_source() -> impl Strategy<Value = PackSource> {
    (0u32..4, proptest::collection::vec((0u32..8, 0u32..4), 0..4)).prop_map(|(root, files)| {
        PackSource::new(
            format!("root{}", root),
            files
                .into_iter()
                .enumerate()
                .map(|(i, (stem, n))| {
                    PackFile::new(
                        format!("f{}_{}.ppol", i, stem),
                        format!("policy p{} = Any\n", n),
                    )
                })
                .collect(),
        )
    })
}

fn arb_engine_stats() -> impl Strategy<Value = EngineStats> {
    proptest::collection::vec(0u64..u64::MAX, 12..13).prop_map(|v| EngineStats {
        requests: v[0],
        ingested: v[1],
        vets_passed: v[2],
        vets_failed: v[3],
        index_hits: v[4],
        memo_hits: v[5],
        ingest_batches: v[6],
        busy_rejections: v[7],
        queue_depth: v[8],
        snapshots_published: v[9],
        snapshot_lag: v[10],
        watermark: v[11],
    })
}

fn arb_memo_stats() -> impl Strategy<Value = MemoStats> {
    (
        0usize..1 << 20,
        0usize..1 << 20,
        0u64..1 << 40,
        0u64..1 << 40,
        0u64..1 << 40,
        0u64..1 << 40,
    )
        .prop_map(
            |(entries, bound, epochs, hits, misses, retained)| MemoStats {
                entries,
                bound,
                epochs,
                hits,
                misses,
                retained,
            },
        )
}

/// A 128-bit trace id out of two 64-bit halves (the vendored proptest
/// shim has no `u128` ranges); the nonzero low half keeps it a real id.
fn arb_trace_id() -> impl Strategy<Value = u128> {
    (0u64..u64::MAX, 1u64..u64::MAX).prop_map(|(hi, lo)| ((hi as u128) << 64) | lo as u128)
}

fn arb_exemplar() -> impl Strategy<Value = Option<Exemplar>> {
    prop_oneof![
        2 => Just(None),
        1 => (arb_trace_id(), 0u64..1 << 40)
            .prop_map(|(trace_id, value_ns)| Some(Exemplar { trace_id, value_ns })),
    ]
}

fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(0u64..1 << 40, 0..20),
        0u64..1 << 40,
        0u64..u64::MAX,
        0u64..1 << 40,
        proptest::collection::vec(arb_exemplar(), 0..18),
    )
        .prop_map(
            |(counts, overflow, sum_ns, count, exemplars)| HistogramSnapshot {
                counts,
                overflow,
                sum_ns,
                count,
                exemplars,
            },
        )
}

fn arb_policy_snapshot() -> impl Strategy<Value = PolicySnapshot> {
    (
        (0u32..64).prop_map(|i| format!("policy-{}", i)),
        arb_memo_stats(),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        (0u64..1 << 40, 0u64..1 << 40),
        arb_histogram(),
    )
        .prop_map(
            |(
                policy,
                memo,
                (vets_passed, vets_failed, vets_unknown_value),
                (counterfactuals, counterfactual_flips),
                latency,
            )| {
                PolicySnapshot {
                    policy,
                    memo,
                    vets_passed,
                    vets_failed,
                    vets_unknown_value,
                    counterfactuals,
                    counterfactual_flips,
                    latency,
                }
            },
        )
}

fn arb_metrics_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        arb_engine_stats(),
        (0usize..1 << 30, 0usize..1 << 10, 0usize..1 << 40),
        (0u64..u64::MAX, 0u64..u64::MAX, 0usize..64, 0usize..1 << 20),
        proptest::collection::vec(
            (0usize..64, 0usize..1 << 20, 0u64..1 << 40, 0u64..1 << 40),
            0..5,
        ),
        (
            (
                0u64..1 << 40,
                proptest::collection::vec(
                    arb_histogram(),
                    SpanKind::ALL.len()..SpanKind::ALL.len() + 1,
                ),
            ),
            (0u64..1 << 31, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 20),
        ),
        proptest::collection::vec(arb_policy_snapshot(), 0..4),
    )
        .prop_map(
            |(
                engine,
                (records, segments, bytes),
                (hits, misses, shards, interned_nodes),
                shard_rows,
                (
                    (vets_unknown_pattern, stages),
                    (uptime_seconds, connections_accepted, connections_closed, open_connections),
                ),
                policies,
            )| MetricsSnapshot {
                engine,
                store: piprov_store::StoreStats {
                    records,
                    segments,
                    bytes,
                },
                interner: InternerStats {
                    interned_nodes,
                    hits,
                    misses,
                    shards,
                },
                interner_shards: shard_rows
                    .into_iter()
                    .map(|(shard, entries, hits, misses)| ShardStats {
                        shard,
                        entries,
                        hits,
                        misses,
                    })
                    .collect(),
                vets_unknown_pattern,
                stages: SpanKind::ALL.into_iter().zip(stages).collect(),
                uptime_seconds,
                connections_accepted,
                connections_closed,
                open_connections,
                policies,
            },
        )
}

fn arb_trace_record() -> impl Strategy<Value = TraceRecord> {
    (
        arb_trace_id(),
        0..RequestKind::ALL.len(),
        0u64..1 << 48,
        proptest::collection::vec(
            (
                0..SpanKind::ALL.len(),
                0u64..1 << 40,
                0u64..1 << 20,
                0u64..1 << 20,
            ),
            0..6,
        ),
    )
        .prop_map(|(trace_id, kind, total_ns, spans)| TraceRecord {
            trace_id,
            kind: RequestKind::ALL[kind],
            total_ns,
            spans: spans
                .into_iter()
                .map(|(k, duration_ns, index_hits, memo_hits)| Span {
                    kind: SpanKind::ALL[k],
                    duration_ns,
                    index_hits,
                    memo_hits,
                })
                .collect(),
        })
}

fn arb_request_trace() -> impl Strategy<Value = RequestTrace> {
    (arb_trace_id(), any::<bool>(), 0u64..1 << 40).prop_map(
        |(trace_id, sampled, client_encode_ns)| RequestTrace {
            context: TraceContext { trace_id, sampled },
            client_encode_ns,
        },
    )
}

fn arb_wire_request() -> impl Strategy<Value = piprov_serve::WireRequest> {
    use piprov_serve::WireRequest;
    prop_oneof![
        4 => arb_audit_request().prop_map(WireRequest::Audit),
        2 => proptest::collection::vec(arb_record(), 0..6).prop_map(WireRequest::IngestBatch),
        1 => Just(WireRequest::Flush),
        1 => Just(WireRequest::Metrics),
        1 => (0u64..1 << 48).prop_map(|min_total_ns| WireRequest::Traces { min_total_ns }),
        1 => arb_pack_source().prop_map(WireRequest::LoadPack),
        1 => Just(WireRequest::ListPolicies),
    ]
}

fn arb_wire_response() -> impl Strategy<Value = WireResponse> {
    prop_oneof![
        4 => (arb_outcome(), arb_request_stats(), 0u64..1 << 48, 0u64..1 << 32)
            .prop_map(|(outcome, stats, watermark, pack_version)| {
                WireResponse::Audit(AuditResponse {
                    outcome,
                    stats,
                    watermark,
                    pack_version,
                })
            }),
        1 => (0u32..1 << 16, 0u32..256).prop_map(|(accepted, queue_depth)| {
            WireResponse::IngestAck {
                accepted,
                queue_depth,
            }
        }),
        1 => (0u32..256).prop_map(|queue_depth| WireResponse::Busy { queue_depth }),
        1 => (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(ingested, watermark)| {
            WireResponse::Flushed {
                ingested,
                watermark,
            }
        }),
        1 => arb_metrics_snapshot().prop_map(|m| WireResponse::Metrics(Box::new(m))),
        1 => proptest::collection::vec(arb_trace_record(), 0..5).prop_map(WireResponse::Traces),
        1 => (0u32..64).prop_map(|i| WireResponse::ServerError {
            message: format!("error {}", i),
        }),
        1 => (0u64..1 << 40, 0u32..1 << 16, 0u32..1 << 16).prop_map(
            |(version, installed, reused)| WireResponse::PackLoaded {
                version,
                installed,
                reused,
            }
        ),
        1 => proptest::collection::vec((0u32..8, 0u64..1 << 20, 0u64..1 << 20, 0u32..16), 0..4)
            .prop_map(|diags| WireResponse::PackRejected {
                diagnostics: diags
                    .into_iter()
                    .map(|(p, line, column, m)| PackDiagnostic::new(
                        format!("f{}.ppol", p),
                        line as usize,
                        column as usize,
                        format!("msg {}", m),
                    ))
                    .collect(),
            }),
        1 => (0u64..1 << 40, proptest::collection::vec((0u32..16, 0u32..8), 0..4)).prop_map(
            |(version, infos)| WireResponse::Policies(PolicyListing {
                version,
                policies: infos
                    .into_iter()
                    .map(|(n, p)| PolicyInfo {
                        name: format!("pkg{}::pol{}", p, n),
                        package: format!("pkg{}", p),
                        source: "Any".to_string(),
                    })
                    .collect(),
            })
        ),
    ]
}

proptest! {
    // 64 cases by default; PIPROV_PROPTEST_CASES raises it in CI.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_round_trip(request in arb_wire_request()) {
        let limits = WireLimits::default();
        let decoded = decode_request(encode_request(&request), &limits).unwrap();
        prop_assert_eq!(decoded, request);
    }

    #[test]
    fn traced_requests_round_trip(
        request in arb_wire_request(),
        trace in prop_oneof![Just(None), arb_request_trace().prop_map(Some)],
    ) {
        // The optional trace field survives the round trip for every
        // request shape, and its absence decodes as `None`.
        let limits = WireLimits::default();
        let body = match &trace {
            Some(trace) => append_request_trace(&encode_request(&request), trace),
            None => encode_request(&request),
        };
        let (decoded, decoded_trace) = decode_request_traced(body, &limits).unwrap();
        prop_assert_eq!(decoded, request);
        prop_assert_eq!(decoded_trace, trace);
    }

    #[test]
    fn responses_round_trip(response in arb_wire_response()) {
        let limits = WireLimits::default();
        let decoded = decode_response(encode_response(&response), &limits).unwrap();
        prop_assert_eq!(decoded, response);
    }

    #[test]
    fn framing_is_transparent(response in arb_wire_response()) {
        // Through the actual frame layer (header + CRC), not just the body
        // codec.
        let limits = WireLimits::default();
        let mut out = Vec::new();
        write_frame(&mut out, &encode_response(&response)).unwrap();
        let mut cursor = std::io::Cursor::new(out);
        let frame = read_frame(&mut cursor, limits.max_frame_len).unwrap().unwrap();
        prop_assert_eq!(decode_response(frame, &limits).unwrap(), response);
        prop_assert!(read_frame(&mut cursor, limits.max_frame_len).unwrap().is_none());
    }

    #[test]
    fn every_strict_prefix_is_a_typed_error(
        request in arb_wire_request(),
        response in arb_wire_response(),
    ) {
        // A body cut anywhere short of its end never decodes and never
        // panics: the decoder reports the missing bytes.
        let limits = WireLimits::default();
        let body = encode_request(&request);
        for len in 0..body.len() {
            let prefix = Bytes::from(body[..len].to_vec());
            prop_assert!(
                matches!(decode_request_traced(prefix, &limits), Err(WireError::Malformed(_))),
                "request prefix of {} bytes: {:?}",
                len,
                request
            );
        }
        let body = encode_response(&response);
        for len in 0..body.len() {
            let prefix = Bytes::from(body[..len].to_vec());
            prop_assert!(
                matches!(decode_response(prefix, &limits), Err(WireError::Malformed(_))),
                "response prefix of {} bytes: {:?}",
                len,
                response
            );
        }
    }

    #[test]
    fn corrupting_any_byte_never_panics(response in arb_wire_response(), flip in 0usize..4096) {
        // Decode of a corrupted body either fails with a typed error or
        // yields some decoded message — it must never panic or over-read.
        let mut body = encode_response(&response).to_vec();
        if body.is_empty() {
            return;
        }
        let idx = flip % body.len();
        body[idx] ^= 0x41;
        let _ = decode_response(Bytes::from(body), &WireLimits::default());
    }
}

/// The empty-trail edge the codec must not choke on: a trail with no
/// records, principals, or channels.
#[test]
fn empty_trail_round_trips() {
    let limits = WireLimits::default();
    let response = WireResponse::Audit(AuditResponse {
        outcome: AuditOutcome::Trail(AuditTrail {
            value: Value::Channel(Channel::new("ghost")),
            records: Vec::new(),
            principals: Vec::new(),
            channels: Vec::new(),
        }),
        stats: RequestStats::default(),
        watermark: 0,
        pack_version: 0,
    });
    let decoded = decode_response(encode_response(&response), &limits).unwrap();
    assert_eq!(decoded, response);
}

/// A batch right at the configured record cap round-trips; one past it is
/// rejected before any record is decoded.
#[test]
fn max_size_batch_round_trips_and_the_cap_binds() {
    let limits = WireLimits {
        max_records: 512,
        ..WireLimits::default()
    };
    let record = |i: u64| {
        ProvenanceRecord::new(
            i,
            "p",
            Operation::Send,
            "m",
            Value::Channel(Channel::new(format!("v{}", i))),
            Provenance::single(Event::output(Principal::new("p"), Provenance::empty())),
        )
    };
    let at_cap: Vec<ProvenanceRecord> = (0..512).map(record).collect();
    let request = piprov_serve::WireRequest::IngestBatch(at_cap);
    let encoded = encode_request(&request);
    assert_eq!(decode_request(encoded, &limits).unwrap(), request);

    let over_cap: Vec<ProvenanceRecord> = (0..513).map(record).collect();
    let err = decode_request(
        encode_request(&piprov_serve::WireRequest::IngestBatch(over_cap)),
        &limits,
    )
    .unwrap_err();
    assert!(matches!(err, WireError::Malformed(_)), "{:?}", err);
}

// ---------------------------------------------------------------------------
// Malformed frames against a live server: hostile input dies a typed
// death, and the server keeps serving everyone else.
// ---------------------------------------------------------------------------

fn live_server(name: &str) -> (AuditServer, std::path::PathBuf) {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-serve-mal-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let config = ServeConfig::default();
    let server = AuditServer::bind(engine, "127.0.0.1:0", config).unwrap();
    (server, dir)
}

fn expect_server_error_then_close(client: &mut AuditClient, what: &str) {
    // Best effort: the server names the cause in a final frame, then
    // closes; depending on timing the client may only observe the close.
    match client.receive_response() {
        Ok(WireResponse::ServerError { message }) => {
            assert!(!message.is_empty(), "{}: error frame names a cause", what);
            assert!(matches!(
                client.receive_response(),
                Err(ClientError::ConnectionClosed) | Err(ClientError::Wire(_))
            ));
        }
        Err(ClientError::ConnectionClosed) | Err(ClientError::Wire(_)) => {}
        other => panic!("{}: expected error-then-close, got {:?}", what, other),
    }
}

#[test]
fn hostile_length_prefix_gets_a_typed_error_and_the_server_survives() {
    let (server, dir) = live_server("hostile-len");
    let addr = server.local_addr();
    {
        let mut client = AuditClient::connect(addr).unwrap();
        // A frame header announcing a 4 GiB body.
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        frame.extend_from_slice(&0u32.to_be_bytes());
        client.send_raw(&frame).unwrap();
        expect_server_error_then_close(&mut client, "hostile length");
    }
    // The pool is not wedged: a fresh connection is served normally.
    let mut fresh = AuditClient::connect(addr).unwrap();
    assert_eq!(fresh.stats().unwrap().ingested, 0);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_crc_gets_a_typed_error_and_the_server_survives() {
    let (server, dir) = live_server("bad-crc");
    let addr = server.local_addr();
    {
        let mut client = AuditClient::connect(addr).unwrap();
        let mut framed = Vec::new();
        write_frame(
            &mut framed,
            &encode_request(&piprov_serve::WireRequest::Metrics),
        )
        .unwrap();
        let last = framed.len() - 1;
        framed[last] ^= 0xFF;
        client.send_raw(&framed).unwrap();
        expect_server_error_then_close(&mut client, "bad crc");
    }
    let mut fresh = AuditClient::connect(addr).unwrap();
    assert!(fresh.stats().is_ok());
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_tags_and_versions_get_typed_errors() {
    let (server, dir) = live_server("bad-body");
    let addr = server.local_addr();
    // (byte offset to clobber, value, scenario): version byte, then tag.
    for (offset, bad_byte, what) in [(0usize, 99u8, "bad version"), (1, 77, "bad tag")] {
        let mut client = AuditClient::connect(addr).unwrap();
        let mut body = encode_request(&piprov_serve::WireRequest::Metrics).to_vec();
        body[offset] = bad_byte;
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        client.send_raw(&framed).unwrap();
        expect_server_error_then_close(&mut client, what);
    }
    let mut fresh = AuditClient::connect(addr).unwrap();
    assert!(fresh.stats().is_ok());
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_frame_closes_cleanly_without_wedging_the_server() {
    let (server, dir) = live_server("truncated");
    let addr = server.local_addr();
    {
        let mut client = AuditClient::connect(addr).unwrap();
        let mut framed = Vec::new();
        write_frame(
            &mut framed,
            &encode_request(&piprov_serve::WireRequest::Metrics),
        )
        .unwrap();
        // Send only part of the frame, then drop the connection: the
        // server sees a truncated body and must just close its side.
        client.send_raw(&framed[..framed.len() - 3]).unwrap();
    }
    let mut fresh = AuditClient::connect(addr).unwrap();
    assert!(fresh.stats().is_ok());
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// `levels` events, each sent on a channel whose provenance is the one
/// before: `depth() == levels`.
fn nested(levels: usize) -> Provenance {
    (0..levels).fold(Provenance::empty(), |channel, _| {
        Provenance::single(Event::output(Principal::new("p"), channel))
    })
}

/// An ingest request for one record whose provenance is `nested(levels)`,
/// its body written by hand (the encoder walks a history recursively): a
/// node table with each node's channel the node before.
fn nested_ingest(levels: u32) -> Vec<u8> {
    let empty = ProvenanceRecord::new(
        1,
        "a",
        Operation::Send,
        "m",
        Value::Channel(Channel::new("v")),
        Provenance::empty(),
    );
    let body = encode_body(&empty);
    // Drop the empty provenance section: a zero node count and root 0.
    let mut record = body[..body.len() - 8].to_vec();
    record.extend(levels.to_be_bytes());
    for level in 0..levels {
        record.push(0); // Output
        record.extend(1u16.to_be_bytes());
        record.push(b'p');
        record.extend(level.to_be_bytes()); // channel: the node before
        record.extend(0u32.to_be_bytes()); // tail: ε
    }
    record.extend(levels.to_be_bytes()); // root

    // `version | tag | record count | record length | record`.
    let template = encode_request(&piprov_serve::WireRequest::IngestBatch(vec![empty]));
    let mut request = template[..6].to_vec();
    request.extend((record.len() as u32).to_be_bytes());
    request.extend(record);
    request
}

#[test]
fn an_ingest_nested_past_the_depth_limit_gets_a_typed_error_and_the_server_survives() {
    let (server, dir) = live_server("too-deep");
    server.engine().register_pattern("any", Pattern::Any);
    let addr = server.local_addr();
    // One level past the limit, and 100,000 levels: a 1.2 MB frame that
    // overflowed the stack of the dispatch or the ingest thread and
    // aborted the server.
    for levels in [MAX_PROVENANCE_DEPTH as u32 + 1, 100_000] {
        let what = format!("{} levels", levels);
        let mut client = AuditClient::connect(addr).unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &nested_ingest(levels)).unwrap();
        client.send_raw(&framed).unwrap();
        expect_server_error_then_close(&mut client, &what);
    }
    // The server keeps serving, and the deepest history it accepts
    // goes through ingest, a why-slice and the client's decoder.
    let mut client = AuditClient::connect(addr).unwrap();
    let value = Value::Channel(Channel::new("deep"));
    let deepest = ProvenanceRecord::new(
        1,
        "a",
        Operation::Send,
        "m",
        value.clone(),
        nested(MAX_PROVENANCE_DEPTH),
    );
    client.ingest_blocking(vec![deepest]).unwrap();
    assert_eq!(client.flush().unwrap().ingested, 1);
    let response = client
        .request(&AuditRequest::Why {
            value,
            pattern: "any".into(),
        })
        .unwrap();
    match response.outcome {
        AuditOutcome::Why(slice) => {
            assert!(slice.verdict);
            assert_eq!(
                slice.events[0].event.channel_provenance,
                nested(MAX_PROVENANCE_DEPTH - 1)
            );
        }
        other => panic!("expected a why-slice, got {:?}", other),
    }
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
