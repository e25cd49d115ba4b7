//! Request pins: FNV-1a 64-bit digests of the frame every client call
//! puts on the wire, plus the reply bytes a real shard server sends for
//! `SERVER_INFO` and its three error replies. `tests/codec_golden.rs`
//! pins the payload codecs; this file pins which opcode, routing
//! generation, slot and payload layout each call uses, so a refactor of
//! the request plumbing cannot move a byte unnoticed.
//!
//! A plain `TcpListener` plays the server: it reads each frame with
//! `frame::read_request`, records it, and answers with a valid canned
//! reply so the client's reply decoders run too.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use tgs_core::codec::Writer;
use tgs_net::frame::{read_request, read_response, write_request, write_response, STATUS_OK};
use tgs_net::{wire, NetConfig, ShardServer, TcpShard};
use tripartite_sentiment::engine::ShardTransport;
use tripartite_sentiment::prelude::*;

/// FNV-1a over the whole byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn cfg() -> NetConfig {
    NetConfig {
        connect_timeout: Duration::from_secs(2),
        io_timeout: Duration::from_secs(10),
        reconnect_attempts: 1,
        backoff_base: Duration::from_millis(1),
        retry_deadline: Duration::from_secs(10),
        jitter_seed: 1,
        // Explicit `None` so an ambient TGS_FAULTS cannot inject faults.
        faults: None,
    }
}

/// A valid reply payload for every opcode, written by hand so the pins
/// do not depend on the client's own encoders.
fn canned_reply(opcode: u8) -> Vec<u8> {
    let mut w = Writer::new();
    match opcode {
        // FLUSH steps, KNOWN_USERS, K.
        3 | 10 | 13 => w.u64(3),
        4 => return wire::enc_stats(&EngineStats::default()),
        // TIMESTAMPS.
        5 => {
            w.u64(2);
            w.u64(10);
            w.u64(11);
        }
        // TIMELINE: no entries.
        6 => w.u64(0),
        // LATEST_TIMESTAMP.
        7 => {
            w.u8(1);
            w.u64(11);
        }
        // USER_SENTIMENT.
        8 => {
            w.u64(4);
            w.u64(11);
            w.f64s(&[0.5, 0.25, 0.25]);
        }
        // USER_TIMELINE.
        9 => {
            w.u64(1);
            w.u64(11);
            w.f64s(&[1.0, 0.0, 0.0]);
        }
        // CLUSTER_SUMMARY.
        11 => {
            w.u64(11);
            w.usizes(&[1, 2, 3]);
            w.usizes(&[1, 1, 1]);
            w.f64s(&[1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0]);
        }
        // SF_AT.
        12 => w.matrix(&DenseMatrix::from_vec(1, 3, vec![0.5, 0.25, 0.25]).expect("matrix")),
        // VOCAB_TOKENS.
        14 => {
            w.u64(1);
            w.str("good");
        }
        // USER_FACTOR.
        15 => {
            w.u8(1);
            w.f64s(&[0.5, 0.5, 0.0]);
        }
        // CHECKPOINT_SECTION and EXPORT_USERS answer raw bytes.
        16 => return b"section".to_vec(),
        17 => return b"exported".to_vec(),
        // SPAWN_SIBLING: the new slot id.
        19 => w.u64(5),
        // SERVER_INFO: range 0..64, no slots.
        24 => {
            w.u8(1);
            w.u64(0);
            w.u64(64);
            w.u64(0);
        }
        // CHECKPOINT_BASE.
        25 => {
            w.u64(9);
            w.bytes(b"base");
        }
        // DELTA_SINCE.
        26 => {
            w.u8(1);
            w.bytes(b"delta");
        }
        _ => {}
    }
    w.finish()
}

/// Serves connections one at a time, sending each request's
/// `(opcode, generation, slot, payload)` bytes down `frames` before
/// answering it, until a `TERMINATE` (opcode 23) has been answered.
fn fake_server(listener: TcpListener, frames: mpsc::Sender<Vec<u8>>) {
    loop {
        let (mut stream, _) = listener.accept().expect("accept");
        while let Some(req) = read_request(&mut stream).expect("request frame") {
            let mut seen = vec![req.opcode];
            seen.extend_from_slice(&req.generation.to_le_bytes());
            seen.extend_from_slice(&req.slot.to_le_bytes());
            seen.extend_from_slice(&req.payload);
            frames.send(seen).expect("test alive");
            write_response(&mut stream, STATUS_OK, &canned_reply(req.opcode)).expect("reply");
            if req.opcode == 23 {
                return;
            }
        }
    }
}

fn hand_built_snapshot() -> EngineSnapshot {
    let mut s = EngineSnapshot::new(17);
    s.push_text(3, "great game tonight");
    s.push_tokens(5, vec!["great".to_string(), "game".to_string()]);
    s.push_retweet(5, 0);
    s.ghosts.push((9, vec![0.5, 0.25, 0.25]));
    s
}

#[test]
fn every_client_call_sends_pinned_request_bytes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || fake_server(listener, tx));
    let shard = TcpShard::new(addr, 3, cfg());

    let mut got: Vec<(&str, u64)> = Vec::new();
    let mut record = |name: &'static str| {
        let frame = rx
            .try_recv()
            .unwrap_or_else(|_| panic!("{name} sent no frame"));
        assert!(rx.try_recv().is_err(), "{name} sent more than one frame");
        got.push((name, fnv64(&frame)));
    };

    shard.ping().expect("ping");
    record("ping");
    shard.init(b"init-section").expect("init");
    record("init");
    shard.ingest(7, hand_built_snapshot()).expect("ingest");
    record("ingest");
    assert_eq!(shard.flush().expect("flush"), 3);
    record("flush");
    assert_eq!(shard.stats().expect("stats"), EngineStats::default());
    record("stats");
    assert_eq!(shard.timestamps().expect("timestamps"), vec![10, 11]);
    record("timestamps");
    assert!(shard.timeline(7, 2, 9).expect("timeline").is_empty());
    record("timeline");
    assert_eq!(shard.latest_timestamp(7).expect("latest"), Some(11));
    record("latest_timestamp");
    let sentiment = shard.user_sentiment(7, 4, 11).expect("user_sentiment");
    assert_eq!((sentiment.user, sentiment.timestamp), (4, 11));
    record("user_sentiment");
    assert_eq!(
        shard.user_timeline(7, 4).expect("user_timeline"),
        vec![(11, vec![1.0, 0.0, 0.0])]
    );
    record("user_timeline");
    assert_eq!(shard.known_users(7).expect("known_users"), 3);
    record("known_users");
    let summary = shard.cluster_summary(7, 11).expect("cluster_summary");
    assert_eq!(summary.tweet_counts, vec![1, 2, 3]);
    record("cluster_summary");
    assert_eq!(shard.sf_at(7, 11).expect("sf_at").shape(), (1, 3));
    record("sf_at");
    assert_eq!(shard.k().expect("k"), 3);
    record("k");
    assert_eq!(shard.vocab_tokens().expect("vocab"), vec!["good"]);
    record("vocab_tokens");
    assert_eq!(
        shard.user_factor(4).expect("user_factor"),
        Some(vec![0.5, 0.5, 0.0])
    );
    record("user_factor");
    assert_eq!(shard.checkpoint_section().expect("section"), b"section");
    record("checkpoint_section");
    assert_eq!(shard.export_users(2, 6).expect("export"), b"exported");
    record("export_users");
    shard.import_users(b"users").expect("import");
    record("import_users");
    let sibling = shard.spawn_sibling().expect("spawn");
    assert!(sibling.peer().ends_with("#5"), "sibling {}", sibling.peer());
    record("spawn_sibling");
    shard.absorb_section(b"absorbed").expect("absorb");
    record("absorb_section");
    shard.set_generation(8).expect("set_generation");
    record("set_generation");
    shard.shutdown().expect("shutdown");
    record("shutdown_slot");
    let info = shard.server_info().expect("server_info");
    assert_eq!((info.range, info.slots), (Some((0, 64)), 0));
    record("server_info");
    let (base_id, base) = shard.checkpoint_base().expect("base");
    assert_eq!((base_id, base.as_slice()), (9, &b"base"[..]));
    record("checkpoint_base");
    assert_eq!(
        shard.delta_since(9).expect("delta"),
        Some(b"delta".to_vec())
    );
    record("delta_since");
    // Calls that never reach the wire.
    shard.request_core_set(0, 2);
    assert!(shard.queue_has_room().expect("room"));
    assert!(rx.try_recv().is_err(), "local-only calls sent a frame");
    shard.terminate().expect("terminate");
    record("terminate");
    server.join().expect("fake server");

    let expected: [(&str, u64); 27] = [
        ("ping", 0xf109_f7e4_b129_b93c),
        ("init", 0x3f93_c8bb_2ad4_2e6b),
        ("ingest", 0x5c3e_6009_7035_bb11),
        ("flush", 0x7dd6_c9ef_33e0_83f1),
        ("stats", 0xb5ac_e802_fdc8_df70),
        ("timestamps", 0x20b6_4e40_d28c_65c3),
        ("timeline", 0x2f45_a522_2766_1e76),
        ("latest_timestamp", 0xf578_db37_36f4_c522),
        ("user_sentiment", 0x5123_ea55_4d1f_103c),
        ("user_timeline", 0xea57_4b79_9814_4aa4),
        ("known_users", 0x566d_ec52_ce3b_2539),
        ("cluster_summary", 0x5fd0_0f19_01dc_1725),
        ("sf_at", 0xf67c_a291_5075_9084),
        ("k", 0x9770_6e04_394e_195b),
        ("vocab_tokens", 0x4600_abdb_69f8_2872),
        ("user_factor", 0x8587_04f7_6e3b_8ed9),
        ("checkpoint_section", 0xde7e_376b_7ead_206c),
        ("export_users", 0x178c_5304_5dde_79bb),
        ("import_users", 0x0b3d_f273_81f1_2d0e),
        ("spawn_sibling", 0x6b4b_0976_0163_eb21),
        ("absorb_section", 0xbdb6_3716_c551_7284),
        ("set_generation", 0xca1a_5995_5f9e_fa5b),
        ("shutdown_slot", 0xbcba_cb9e_d0b9_dc0a),
        ("server_info", 0x5538_572e_e56e_d404),
        ("checkpoint_base", 0xc041_bd6c_ba32_5a57),
        ("delta_since", 0xcf8c_ab28_6a0a_5c47),
        ("terminate", 0x2fed_f994_4e03_1155),
    ];
    let drift: Vec<String> = got
        .iter()
        .zip(&expected)
        .filter(|(g, e)| g != e)
        .map(|((name, digest), _)| format!("(\"{name}\", {digest:#018x}),"))
        .collect();
    assert_eq!(got.len(), expected.len(), "one frame per opcode");
    assert!(
        drift.is_empty(),
        "request layouts changed:\n{}",
        drift.join("\n")
    );
}

/// Sends one raw request frame and returns the digest of the reply's
/// status byte and payload.
fn reply_digest(stream: &mut TcpStream, opcode: u8, slot: u64, payload: &[u8]) -> u64 {
    write_request(stream, opcode, 0, slot, payload).expect("send");
    let (status, body) = read_response(stream).expect("reply");
    let mut bytes = vec![status];
    bytes.extend_from_slice(&body);
    fnv64(&bytes)
}

#[test]
fn server_info_and_error_replies_are_pinned() {
    let server = ShardServer::bind("127.0.0.1:0", Some((16, 48))).expect("bind");
    let addr = server.local_addr().expect("addr");
    let run = std::thread::spawn(move || server.run());
    let mut stream = TcpStream::connect(addr).expect("connect");

    let got = [
        ("server_info reply", reply_digest(&mut stream, 24, 0, &[])),
        ("unknown opcode", reply_digest(&mut stream, 99, 0, &[])),
        (
            "malformed timeline payload",
            reply_digest(&mut stream, 6, 0, &[1, 2, 3]),
        ),
        ("missing slot", reply_digest(&mut stream, 3, 5, &[])),
    ];
    let expected = [
        ("server_info reply", 0xa4cd_fb5c_bfcf_9dda),
        ("unknown opcode", 0xbd5e_da2b_fd7b_a582),
        ("malformed timeline payload", 0xcb10_0c50_a1a5_7911),
        ("missing slot", 0x39d0_b689_65f1_c6ee),
    ];
    let drift: Vec<String> = got
        .iter()
        .zip(&expected)
        .filter(|(g, e)| g != e)
        .map(|((name, digest), _)| format!("(\"{name}\", {digest:#018x}),"))
        .collect();

    write_request(&mut stream, 23, 0, 0, &[]).expect("terminate");
    read_response(&mut stream).expect("terminate reply");
    drop(stream);
    run.join().expect("server thread").expect("server run");
    assert!(
        drift.is_empty(),
        "server replies changed:\n{}",
        drift.join("\n")
    );
}
