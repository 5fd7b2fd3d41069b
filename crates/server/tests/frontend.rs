//! End-to-end front-end behavior: TCP round-trips, typed shedding past the
//! admission bound, deadline responses with clean engine state, and the
//! scripted in-memory connection faults.

use acc_common::events::EventSink;
use acc_common::faults::ConnPlan;
use acc_common::SeededRng;
use acc_engine::RetryPolicy;
use acc_server::{
    serve, ArrivalSchedule, CallOutcome, Client, Frontend, LoadgenConfig, MemConn, Mix, Request,
    Response, ServerConfig,
};
use std::net::TcpListener;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

fn small_frontend(workers: usize, queue_cap: usize) -> Frontend {
    Frontend::smallbank(
        100,
        &ServerConfig {
            workers,
            queue_cap,
            engine_retry: RetryPolicy::standard(),
        },
    )
}

#[test]
fn tcp_round_trip_commits_and_rejects_mismatched_mix() {
    let frontend = Arc::new(small_frontend(2, 16));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let _accept = serve(Arc::clone(&frontend), listener);

    let mut client = Client::connect(addr).expect("connect");
    let mut committed = 0;
    for seed in 0..20u64 {
        match client
            .call(Mix::Smallbank, seed, Some(Duration::from_secs(5)))
            .expect("call")
        {
            Response::Committed { client_seq, .. } => {
                assert_eq!(client_seq, seed + 1);
                committed += 1;
            }
            Response::RolledBack { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(committed > 0, "some smallbank transactions must commit");

    // A request for the family this server does not host: typed error.
    match client.call(Mix::Tpcc, 1, None).expect("call") {
        Response::Error { message, .. } => assert!(message.contains("hosts")),
        other => panic!("expected mix-mismatch error, got {other:?}"),
    }

    frontend.shutdown();
    assert_eq!(frontend.shared().total_grants(), 0);
    assert_eq!(frontend.shared().active_txns(), 0);
}

#[test]
fn overload_sheds_with_typed_response_and_counts() {
    // One worker, tiny queue: a burst must shed the excess, typed.
    let frontend = small_frontend(1, 2);
    let sink = EventSink::enabled(64);
    frontend.shared().set_event_sink(Arc::clone(&sink));
    let (tx, rx) = channel();
    let burst = 40u64;
    for seq in 0..burst {
        frontend.submit(
            Request {
                client_seq: seq,
                deadline_micros: 0,
                mix: Mix::Smallbank,
                seed: seq,
            },
            tx.clone(),
        );
    }
    drop(tx);
    let mut shed = 0u64;
    let mut committed = 0u64;
    let mut other = 0u64;
    for _ in 0..burst {
        match rx.recv().expect("every request gets exactly one response") {
            Response::Overloaded { queue_depth, .. } => {
                assert!(queue_depth >= 1);
                shed += 1;
            }
            Response::Committed { .. } => committed += 1,
            _ => other += 1,
        }
    }
    assert!(shed > 0, "a 40-burst into a 2-deep queue must shed");
    assert!(committed > 0, "queued work still commits");
    let c = sink.counters();
    assert_eq!(c.admission_sheds, shed);
    assert_eq!(c.admitted, burst - shed - other);
    assert!(c.admission_depth_max >= 1);
    frontend.shutdown();
    assert_eq!(frontend.shared().total_grants(), 0);
}

#[test]
fn deadlines_answer_typed_and_leave_engine_clean() {
    let frontend = small_frontend(1, 32);
    let sink = EventSink::enabled(64);
    frontend.shared().set_event_sink(Arc::clone(&sink));
    let (tx, rx) = channel();
    // Microsecond budgets: whether each expires in the queue or mid-run, the
    // answer must be typed DeadlineExceeded or a commit that beat the clock.
    let n = 30u64;
    for seq in 0..n {
        frontend.submit(
            Request {
                client_seq: seq,
                deadline_micros: 1,
                mix: Mix::Smallbank,
                seed: seq,
            },
            tx.clone(),
        );
    }
    drop(tx);
    let mut exceeded = 0u64;
    for _ in 0..n {
        match rx.recv().expect("response") {
            Response::DeadlineExceeded { .. } => exceeded += 1,
            Response::Committed { .. } | Response::RolledBack { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(exceeded > 0, "1µs budgets must time some requests out");
    assert_eq!(sink.counters().deadline_aborts, exceeded);
    frontend.shutdown();
    assert_eq!(frontend.shared().total_grants(), 0);
    assert_eq!(frontend.shared().active_txns(), 0);
    assert_eq!(frontend.shared().registry().mixed_epoch_lookups(), 0);
}

#[test]
fn memconn_faults_lose_loudly_and_never_leak() {
    let frontend = small_frontend(1, 8);
    let sink = EventSink::enabled(64);
    frontend.shared().set_event_sink(Arc::clone(&sink));
    // A ConnPlan's ordinals are per-connection, so each fault kind gets a
    // plan that fires on the 2nd request of its connection (the 1st request
    // proves the connection worked before the fault hit).
    let plans = [
        ConnPlan {
            slow_loris_every: Some(1), // every request dribbles in; all served
            ..ConnPlan::default()
        },
        ConnPlan {
            drop_mid_request_every: Some((2, 9)),
            ..ConnPlan::default()
        },
        ConnPlan {
            partial_write_every: Some((2, 12)),
            ..ConnPlan::default()
        },
        ConnPlan {
            churn_every: Some(2),
            ..ConnPlan::default()
        },
    ];
    let mut delivered = 0u64;
    let mut lost = 0u64;
    let mut torn_resp = 0u64;
    let mut seed = 0u64;
    for plan in plans {
        let mut conn = MemConn::open(&frontend, plan);
        for _ in 0..6u64 {
            if conn.dead() {
                conn = MemConn::open(&frontend, plan);
            }
            seed += 1;
            match conn.call(&frontend, seed, 0).expect("scripted call") {
                CallOutcome::Delivered(resp) => {
                    assert!(matches!(
                        resp,
                        Response::Committed { .. } | Response::RolledBack { .. }
                    ));
                    delivered += 1;
                }
                CallOutcome::LostBeforeAdmission(_) => lost += 1,
                CallOutcome::ResponseTorn(resp) => {
                    // Server decided the fate; the client just never heard it.
                    assert!(matches!(
                        resp,
                        Response::Committed { .. } | Response::RolledBack { .. }
                    ));
                    torn_resp += 1;
                }
                CallOutcome::TornDown(_) => unreachable!("no tear planned"),
            }
        }
    }
    assert!(delivered > 0 && lost > 0 && torn_resp > 0);
    let c = sink.counters();
    assert!(c.conn_churn > 0, "churn and fault teardown are counted");
    frontend.shutdown();
    assert_eq!(frontend.shared().total_grants(), 0);
    assert_eq!(frontend.shared().active_txns(), 0);
}

#[test]
fn torn_request_frame_poisons_connection_without_effects() {
    let frontend = small_frontend(1, 8);
    let plan = ConnPlan {
        tear_at: Some((2, acc_common::faults::Corruption::BitFlip(77))),
        ..ConnPlan::default()
    };
    let committed_before = {
        let mut conn = MemConn::open(&frontend, plan);
        match conn.call(&frontend, 1, 0).expect("clean first call") {
            CallOutcome::Delivered(_) => {}
            other => panic!("expected delivery, got {other:?}"),
        }
        match conn.call(&frontend, 2, 0).expect("torn second call") {
            CallOutcome::TornDown(_) => {}
            other => panic!("expected teardown, got {other:?}"),
        }
        assert!(conn.dead());
        frontend.shared().durable_wal_records()
    };
    // The torn request never became a transaction: nothing further durable.
    assert_eq!(frontend.shared().durable_wal_records(), committed_before);
    frontend.shutdown();
    assert_eq!(frontend.shared().total_grants(), 0);
}

#[test]
fn open_loop_overdrive_degrades_gracefully() {
    // Overdrive a 1-worker front-end at a rate it cannot serve: the excess
    // must shed typed, and every offered request must get a final answer.
    let frontend = small_frontend(1, 4);
    let schedule = ArrivalSchedule::generate(Mix::Smallbank, 11, 20_000.0, 300);
    let report = acc_server::run_open_loop(
        &frontend,
        &schedule,
        &LoadgenConfig {
            deadline: Some(Duration::from_millis(500)),
            retry: RetryPolicy::disabled(),
        },
    );
    assert_eq!(
        report.committed
            + report.shed
            + report.deadline_exceeded
            + report.rolled_back
            + report.errors,
        report.offered,
        "no silent loss: every offered request settles exactly once"
    );
    assert_eq!(report.errors, 0);
    assert!(report.shed > 0, "overdrive must shed");
    assert!(report.committed > 0, "admitted work still commits");
    frontend.shutdown();
    assert_eq!(frontend.shared().total_grants(), 0);
    assert_eq!(frontend.shared().active_txns(), 0);
}

#[test]
fn client_resubmission_is_counted_separately_from_engine_retries() {
    let frontend = small_frontend(1, 1);
    let schedule = ArrivalSchedule::generate(Mix::Smallbank, 3, 50_000.0, 100);
    let report = acc_server::run_open_loop(
        &frontend,
        &schedule,
        &LoadgenConfig {
            deadline: None,
            retry: RetryPolicy::standard(),
        },
    );
    // A 1-deep queue under burst sheds; the standard client policy resubmits
    // those sheds as whole new requests.
    assert!(report.client_resubmits > 0);
    assert_eq!(
        report.committed
            + report.shed
            + report.deadline_exceeded
            + report.rolled_back
            + report.errors,
        report.offered,
    );
    frontend.shutdown();
}

#[test]
fn tcp_client_retry_helper_resubmits_sheds() {
    let frontend = Arc::new(small_frontend(1, 1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let _accept = serve(Arc::clone(&frontend), listener);
    let mut client = Client::connect(addr).expect("connect");
    let mut rng = SeededRng::new(5);
    let policy = RetryPolicy::standard();
    for seed in 100..110u64 {
        let (resp, _resubmits) = client
            .call_with_retry(Mix::Smallbank, seed, None, &policy, &mut rng)
            .expect("call");
        assert!(!matches!(resp, Response::Error { .. }));
    }
    frontend.shutdown();
}
