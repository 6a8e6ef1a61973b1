//! The protocol-cost audit behind `camelot-load` and the `rt_scaling`
//! bench: one clean traced transaction per protocol configuration on a
//! 2-site real-thread cluster, its primitive counts checked against
//! the paper's budgets (Tables 1–2). Execution mode and batching may
//! change where time goes, never how many forces and datagrams a
//! protocol costs.

use std::time::Duration;

use camelot_core::{CommitMode, EngineConfig, TwoPhaseVariant};
use camelot_net::Outcome;
use camelot_rt::{audit_family, budget_for, AuditProtocol, Cluster, RtConfig};
use camelot_types::{ObjectId, SiteId};

use crate::driver::SRV;

/// Audits every protocol on clusters built from `base` (its execution
/// mode, shard count and so on), with 1 ms datagram and platter
/// delays and tracing on. Prints one line per protocol and returns the
/// report's JSON object (`{"2pc_delayed": "ok", ...}`) and whether any
/// protocol broke its budget.
pub fn protocol_audit(base: &RtConfig) -> (String, bool) {
    let configs: [(AuditProtocol, EngineConfig, CommitMode, bool); 4] = [
        (
            AuditProtocol::TwoPhaseDelayed,
            EngineConfig::default(),
            CommitMode::TwoPhase,
            true,
        ),
        (
            AuditProtocol::TwoPhaseStandard,
            EngineConfig::for_variant(TwoPhaseVariant::Unoptimized),
            CommitMode::TwoPhase,
            true,
        ),
        (
            AuditProtocol::ReadOnly,
            EngineConfig::default(),
            CommitMode::TwoPhase,
            false,
        ),
        (
            AuditProtocol::NonBlocking,
            EngineConfig::default(),
            CommitMode::NonBlocking,
            true,
        ),
    ];
    let mut violated = false;
    let mut parts = Vec::new();
    for (protocol, engine, mode, write) in configs {
        let cfg = RtConfig {
            datagram_delay: Duration::from_millis(1),
            platter_delay: Duration::from_millis(1),
            engine,
            trace: true,
            ..base.clone()
        };
        let cluster = Cluster::new(2, cfg);
        let client = cluster.client(SiteId(1));
        let tid = client.begin().expect("audit begin");
        if write {
            client
                .write(&tid, SiteId(1), SRV, ObjectId(1), b"a".to_vec())
                .expect("audit home write");
            client
                .write(&tid, SiteId(2), SRV, ObjectId(2), b"b".to_vec())
                .expect("audit remote write");
        } else {
            client
                .read(&tid, SiteId(1), SRV, ObjectId(1))
                .expect("audit home read");
            client
                .read(&tid, SiteId(2), SRV, ObjectId(2))
                .expect("audit remote read");
        }
        let outcome = client.commit(&tid, mode).expect("audit commit");
        assert_eq!(outcome, Outcome::Committed);
        // Let cleanup traffic (ack flush, lazy record flush) land —
        // it is part of the audited budget.
        std::thread::sleep(Duration::from_millis(400));
        let events = cluster.drain_trace();
        let dropped = cluster.stats().total_trace_dropped();
        cluster.shutdown();
        let result = if dropped > 0 {
            // An audit over an incomplete trace proves nothing: the
            // missing events could be exactly the over-budget ones.
            Err(format!(
                "{dropped} trace events dropped from the rings; audit trace incomplete"
            ))
        } else {
            audit_family(tid.family, &events, &budget_for(protocol))
        };
        let name = protocol.name();
        match result {
            Ok(c) => {
                println!(
                    "  {name}: ok ({} force(s) + {} lazy + {} datagram(s))",
                    c.forces, c.lazy_appends, c.datagrams
                );
                parts.push(format!("\"{name}\": \"ok\""));
            }
            Err(e) => {
                println!("  {name}: VIOLATION: {e}");
                parts.push(format!("\"{name}\": \"violation\""));
                violated = true;
            }
        }
    }
    (format!("{{{}}}", parts.join(", ")), violated)
}
