//! The policy-pack plane over the wire:
//! `LoadPack` publishing a whole pack atomically, `ListPolicies` and
//! `GET /policies` reading the published set back, per-file line/column
//! diagnostics for rejected packs, and — the acceptance bar — hot
//! reloads that never drop a vet: auditor connections vet continuously
//! while packs swap underneath them, and every answer is explained by
//! exactly one pack version.

use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_policy::{PackFile, PackSource};
use piprov_serve::{AuditClient, AuditServer, PackLoadOutcome, ServeConfig};
use piprov_store::{Operation, ProvenanceRecord};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "piprov-serve-ppack-{}-{}",
        std::process::id(),
        name
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> ServeConfig {
    ServeConfig::default()
}

fn value(name: &str) -> Value {
    Value::Channel(Channel::new(name))
}

fn record(i: u64, who: &str) -> ProvenanceRecord {
    let k = Provenance::single(Event::output(Principal::new(who), Provenance::empty()));
    ProvenanceRecord::new(
        i,
        who,
        Operation::Send,
        "m",
        value(&format!("item{}", i)),
        k,
    )
}

/// One raw HTTP GET against the framed port; returns the full response.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {} HTTP/1.1\r\nHost: piprov\r\n\r\n", path).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// A two-policy pack under package `supply_chain::build`; `vendor_only`
/// varies with `variant` so alternating loads genuinely recompile it,
/// while `origin` stays identical (and its automaton is carried over).
fn pack(variant: usize) -> PackSource {
    let vendor_only = if variant.is_multiple_of(2) {
        "s0!Any; Any"
    } else {
        "(s0!Any; Any) | eps"
    };
    PackSource::new(
        "supply_chain",
        vec![PackFile::new(
            "build.ppol",
            format!(
                "package supply_chain::build\n\n\
                 policy vendor_only = {}\n\
                 policy origin = s0!Any\n",
                vendor_only
            ),
        )],
    )
}

fn broken_pack() -> PackSource {
    PackSource::new(
        "supply_chain",
        vec![PackFile::new(
            "build.ppol",
            "package supply_chain::build\npolicy broken = (((\n",
        )],
    )
}

const VENDOR_ONLY: &str = "supply_chain::build::vendor_only";

#[test]
fn load_list_and_scrape_the_policy_plane() {
    let dir = temp_dir("list");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let addr = server.local_addr();
    let mut client = AuditClient::connect(addr).unwrap();
    client.ingest_blocking(vec![record(1, "s0")]).unwrap();
    client.flush().unwrap();

    // Load the pack: two policies published at version 1.
    let loaded = client.load_pack(&pack(0)).unwrap();
    assert_eq!(
        loaded,
        PackLoadOutcome::Loaded {
            version: 1,
            installed: 2,
            reused: 0,
        }
    );

    // Vets answer from the freshly published pack, stamped with it.
    let vetted = client
        .request(&AuditRequest::VetValue {
            value: value("item1"),
            pattern: VENDOR_ONLY.into(),
        })
        .unwrap();
    assert!(matches!(
        vetted.outcome,
        AuditOutcome::Vetted { verdict: true, .. }
    ));
    assert_eq!(vetted.pack_version, 1);

    // The listing carries the version, sorted names, packages, and
    // canonical sources.
    let listing = client.list_policies().unwrap();
    assert_eq!(listing.version, 1);
    let names: Vec<&str> = listing.policies.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, vec!["supply_chain::build::origin", VENDOR_ONLY]);
    assert!(listing
        .policies
        .iter()
        .all(|p| p.package == "supply_chain::build"));

    // The same listing is served as plaintext next to /metrics.
    let scrape = http_get(addr, "/policies");
    assert!(
        scrape.starts_with("HTTP/1.1 200 OK\r\n"),
        "unexpected scrape: {}",
        scrape
    );
    assert!(scrape.contains("# pack version 1 (2 policies)"));
    assert!(scrape.contains("supply_chain::build::vendor_only [supply_chain::build] = "));

    // A misspelled policy name comes back with the sorted known set
    // and a nearest-name hint — over the wire, not just in-process.
    let typo = client
        .request(&AuditRequest::VetValue {
            value: value("item1"),
            pattern: "supply_chain::build::vendor_onyl".into(),
        })
        .unwrap();
    match &typo.outcome {
        AuditOutcome::UnknownPattern { known, nearest } => {
            assert_eq!(known.as_slice(), names.as_slice());
            assert_eq!(nearest.as_deref(), Some(VENDOR_ONLY));
        }
        other => panic!("expected UnknownPattern, got {:?}", other),
    }

    // A broken pack is rejected with file/line/column diagnostics and
    // changes nothing: all-or-nothing.
    match client.load_pack(&broken_pack()).unwrap() {
        PackLoadOutcome::Rejected { diagnostics } => {
            assert!(!diagnostics.is_empty());
            assert_eq!(diagnostics[0].path, "build.ppol");
            assert_eq!(diagnostics[0].line, 2);
            assert!(diagnostics[0].column >= 1);
        }
        other => panic!("expected rejection, got {:?}", other),
    }
    let unchanged = client.list_policies().unwrap();
    assert_eq!(unchanged, listing);

    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_reloads_never_drop_a_wire_vet() {
    let dir = temp_dir("reload");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", config()).unwrap();
    let addr = server.local_addr();

    let mut loader = AuditClient::connect(addr).unwrap();
    loader.ingest_blocking(vec![record(1, "s0")]).unwrap();
    loader.flush().unwrap();
    assert!(matches!(
        loader.load_pack(&pack(0)).unwrap(),
        PackLoadOutcome::Loaded { version: 1, .. }
    ));

    // Auditors vet continuously over their own connections while the
    // loader swaps packs underneath them.
    let done = Arc::new(AtomicBool::new(false));
    let auditors: Vec<_> = (0..3)
        .map(|_| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = AuditClient::connect(addr).unwrap();
                let mut last_version = 0u64;
                let mut vets = 0u64;
                // At least 40 vets each, even if the loader finishes
                // first — the swap window must actually be exercised.
                while vets < 40 || !done.load(Ordering::Acquire) {
                    let response = client
                        .request(&AuditRequest::VetValue {
                            value: value("item1"),
                            pattern: VENDOR_ONLY.into(),
                        })
                        .unwrap();
                    // Never UnknownPattern mid-swap; every answer is
                    // explained by exactly one published version, and
                    // versions observed on one connection are monotone.
                    assert!(
                        matches!(response.outcome, AuditOutcome::Vetted { .. }),
                        "vet dropped mid-swap: {:?}",
                        response.outcome
                    );
                    assert!(response.pack_version >= 1);
                    assert!(response.pack_version >= last_version);
                    last_version = response.pack_version;
                    vets += 1;
                }
                last_version
            })
        })
        .collect();

    // 30 alternating swaps; a broken pack thrown in mid-stream must
    // not bump the version or disturb the auditors.
    let mut expected_version = 1;
    for swap in 0..30 {
        match loader.load_pack(&pack(swap + 1)).unwrap() {
            PackLoadOutcome::Loaded {
                version, installed, ..
            } => {
                expected_version += 1;
                assert_eq!(version, expected_version);
                assert_eq!(installed, 2);
            }
            other => panic!("swap {} rejected: {:?}", swap, other),
        }
        if swap == 15 {
            assert!(matches!(
                loader.load_pack(&broken_pack()).unwrap(),
                PackLoadOutcome::Rejected { .. }
            ));
        }
    }
    done.store(true, Ordering::Release);
    for auditor in auditors {
        let last = auditor.join().unwrap();
        assert!(last <= expected_version);
    }
    assert_eq!(loader.list_policies().unwrap().version, expected_version);

    drop(loader);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
