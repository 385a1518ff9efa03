//! Concurrency determinism for `glk serve`.
//!
//! The server's whole point is that concurrency is a throughput detail,
//! not a semantic one: N clients hammering one server with interleaved
//! oracle and attack work must each get byte-identical responses to a
//! lone client running the same workload against a fresh server, once
//! responses are normalized back to request order. Likewise two clients
//! running the two shards of a campaign concurrently must reassemble to
//! exactly the single-process campaign report.

use glitchlock::jobs::{report, CampaignSpec};
use glitchlock::obs::Collector;
use glitchlock::serve::{
    start, sweep_pattern, AttackJob, Client, Op, Reply, Request, ServerConfig,
};
use std::net::SocketAddr;
use std::sync::Arc;

fn bits(width: usize, index: u64, seed: u64) -> String {
    sweep_pattern(width, index, seed)
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect()
}

/// A deterministic per-client workload mixing cheap oracle traffic with a
/// heavy attack job. s27's oracle view has 7 inputs (4 PIs + 3 PPIs).
fn workload(client: u64) -> Vec<Op> {
    let width = 7;
    let mut ops = vec![Op::LoadBench {
        name: "s27".to_string(),
    }];
    for i in 0..6 {
        ops.push(Op::Oracle {
            design: "s27".to_string(),
            pattern: bits(width, i, client + 1),
        });
    }
    ops.push(Op::OracleBulk {
        design: "s27".to_string(),
        patterns: (0..100).map(|i| bits(width, i, client + 100)).collect(),
    });
    ops.push(Op::Attack(AttackJob {
        bench: "s27".to_string(),
        locker: "xor".to_string(),
        width: 3 + client as usize % 2,
        attack: "sat".to_string(),
        seed: client + 1,
        max_iters: 64,
        samples: 256,
    }));
    ops.push(Op::OracleSweep {
        design: "s27".to_string(),
        count: 500,
        seed: client,
    });
    for i in 6..10 {
        ops.push(Op::Oracle {
            design: "s27".to_string(),
            pattern: bits(width, i, client + 1),
        });
    }
    ops
}

/// Runs a workload on one fresh connection, fully pipelined: every
/// request is sent before any response is read, then responses are
/// collected in request-id order (the normalization — the server is free
/// to answer out of order). Returns the encoded response bytes.
fn run_pipelined(addr: SocketAddr, client: u64) -> Vec<Vec<u8>> {
    let mut conn = Client::connect(addr).expect("connect");
    let requests: Vec<Request> = workload(client)
        .into_iter()
        .map(|op| {
            let id = conn.next_id();
            Request { id, op }
        })
        .collect();
    for request in &requests {
        conn.send(request).expect("send");
    }
    requests
        .iter()
        .map(|request| conn.recv_id(request.id).expect("recv").encode())
        .collect()
}

/// Runs a workload strictly sequentially: one request in flight at a
/// time, each answered before the next is sent.
fn run_sequential(addr: SocketAddr, client: u64) -> Vec<Vec<u8>> {
    let mut conn = Client::connect(addr).expect("connect");
    workload(client)
        .into_iter()
        .map(|op| {
            let id = conn.next_id();
            conn.call(&Request { id, op }).expect("call").encode()
        })
        .collect()
}

#[test]
fn concurrent_clients_get_byte_identical_responses_to_a_sequential_run() {
    const CLIENTS: u64 = 3;

    // Phase 1: all clients at once against one server — oracle batches
    // coalesce across connections, attacks run on parallel job threads.
    let server = start(ServerConfig::default(), Arc::new(Collector::new())).expect("start");
    let addr = server.addr();
    let concurrent: Vec<Vec<Vec<u8>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| scope.spawn(move || run_pipelined(addr, client)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    drop(server);

    // Phase 2: the same workloads one at a time against a fresh server.
    let server = start(ServerConfig::default(), Arc::new(Collector::new())).expect("start");
    let addr = server.addr();
    let sequential: Vec<Vec<Vec<u8>>> = (0..CLIENTS).map(|c| run_sequential(addr, c)).collect();
    drop(server);

    for client in 0..CLIENTS as usize {
        assert_eq!(
            concurrent[client], sequential[client],
            "client {client}: concurrent responses must be byte-identical \
             to the sequential run"
        );
    }
}

#[test]
fn concurrent_shard_clients_reassemble_the_single_process_campaign() {
    let spec_text = "bench s27\nlocker xor 3\nlocker sarlock 3\nattack sat\nseeds 1 2\n\
                     max-iters 64\nsamples 256\n";
    let spec = CampaignSpec::parse(spec_text).expect("spec parses");
    let server = start(ServerConfig::default(), Arc::new(Collector::new())).expect("start");
    let addr = server.addr();

    let campaign = |shard| {
        let mut conn = Client::connect(addr).expect("connect");
        let id = conn.next_id();
        let response = conn
            .call(&Request {
                id,
                op: Op::Campaign {
                    spec: spec_text.to_string(),
                    shard,
                },
            })
            .expect("campaign");
        match response.reply {
            Reply::Campaign { spec_hash, records } => (spec_hash, records),
            other => panic!("expected campaign reply, got {other:?}"),
        }
    };

    // Both shards at once, from two connections.
    let (shard0, shard1) = std::thread::scope(|scope| {
        let h0 = scope.spawn(|| campaign(Some((0, 2))));
        let h1 = scope.spawn(|| campaign(Some((1, 2))));
        (h0.join().unwrap(), h1.join().unwrap())
    });
    // Then the whole spec in one request, as the reference.
    let (full_hash, full_records) = campaign(None);
    assert_eq!(shard0.0, full_hash);
    assert_eq!(shard1.0, full_hash);

    // Reassemble shard records into spec-expansion order.
    let expansion: Vec<String> = spec.expand().iter().map(|job| job.id()).collect();
    let mut merged = Vec::new();
    for (ix, id) in expansion.iter().enumerate() {
        let source = if ix % 2 == 0 { &shard0.1 } else { &shard1.1 };
        let rec = source
            .iter()
            .find(|r| &r.id == id)
            .unwrap_or_else(|| panic!("shard {} never recorded {id}", ix % 2));
        merged.push(rec.clone());
    }
    assert_eq!(merged.len(), full_records.len());

    // The rendered reports (which drop journal-only wall-clock fields)
    // are byte-identical.
    assert_eq!(
        report::render_text(&spec, &merged),
        report::render_text(&spec, &full_records)
    );
    assert_eq!(
        report::render_json(&spec, &merged),
        report::render_json(&spec, &full_records)
    );
}
