//! The system under test, built only from public APIs: either one
//! in-process `Cluster::new(3)` or three `Cluster::new_site` sites
//! joined by loopback UDP `SocketTransport`s (the data-plane wiring
//! of `camelot-site`, without its ctrl plane).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use camelot_core::ExecMode;
use camelot_net::{FaultPlan, SocketConfig, SocketTransport, TmMessage, TransportStats};
use camelot_rt::{Client, Cluster, ClusterStats, RemoteNet, RtConfig, TraceEvent};
use camelot_scope::ScopeEvent;
use camelot_types::{ObjectId, ServerId, SiteId};

use crate::spans::Tracing;

pub const SITES: u32 = 3;
pub const SRV: ServerId = ServerId(1);

/// Which deployment shape a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    InProcess,
    Udp,
}

/// The runtime configuration every workload shares: file-backed logs,
/// no simulated platter or datagram delay, everything else default.
pub fn rt_config(dir: &Path, exec: ExecMode, trace: bool) -> RtConfig {
    let mut cfg = RtConfig {
        datagram_delay: Duration::ZERO,
        platter_delay: Duration::ZERO,
        exec_mode: exec,
        log_dir: Some(dir.to_path_buf()),
        trace,
        ..RtConfig::default()
    };
    if trace {
        // Drained every 200 ms during the traced run; this leaves a
        // wide margin over the events one interval produces.
        cfg.trace_capacity = 1 << 17;
    }
    cfg
}

/// Forwards a site's non-local datagrams to its socket transport,
/// as `camelot-site`'s bridge does. Traced runs time each send.
struct Bridge {
    transport: OnceLock<Arc<SocketTransport>>,
    tracing: Option<Arc<Tracing>>,
}

impl RemoteNet for Bridge {
    fn send_remote(&self, _from: SiteId, to: SiteId, msg: TmMessage) {
        let Some(t) = self.transport.get() else {
            return;
        };
        match &self.tracing {
            Some(tr) => {
                let family = msg.tid().family;
                tr.around_family("net.send", family, || {
                    let _ = t.send(to, msg, vec![]);
                })
            }
            None => {
                let _ = t.send(to, msg, vec![]);
            }
        }
    }
}

struct UdpSite {
    cluster: Arc<Cluster>,
    transport: Arc<SocketTransport>,
    receiver: JoinHandle<()>,
}

enum Kind {
    InProcess(Cluster),
    Udp {
        sites: Vec<UdpSite>,
        stop: Arc<AtomicBool>,
    },
}

/// A running three-site system plus one client per site.
pub struct System {
    kind: Kind,
    clients: Vec<Client>,
    pub dir: PathBuf,
}

impl System {
    /// Builds the system on `dir` (recovering whatever logs are there)
    /// and returns once every site is ready to serve.
    pub fn start(shape: Shape, cfg: RtConfig, tracing: Option<Arc<Tracing>>) -> System {
        let dir = cfg.log_dir.clone().expect("file-backed logs");
        match shape {
            Shape::InProcess => {
                let cluster = Cluster::new(SITES, cfg);
                let clients = (1..=SITES).map(|s| cluster.client(SiteId(s))).collect();
                System {
                    kind: Kind::InProcess(cluster),
                    clients,
                    dir,
                }
            }
            Shape::Udp => {
                let stop = Arc::new(AtomicBool::new(false));
                let mut sites = Vec::new();
                for s in 1..=SITES {
                    let site = SiteId(s);
                    let fault = Arc::new(FaultPlan::disabled());
                    let bridge = Arc::new(Bridge {
                        transport: OnceLock::new(),
                        tracing: tracing.clone(),
                    });
                    let cluster = Arc::new(Cluster::new_site(
                        site,
                        cfg.clone(),
                        fault.clone(),
                        bridge.clone() as Arc<dyn RemoteNet>,
                    ));
                    let transport = Arc::new(
                        SocketTransport::bind(
                            SocketConfig::udp(site),
                            fault,
                            cluster.site_tracer(site),
                        )
                        .expect("bind loopback UDP socket"),
                    );
                    let _ = bridge.transport.set(transport.clone());
                    let receiver = {
                        let (cluster, transport, stop) =
                            (cluster.clone(), transport.clone(), stop.clone());
                        let tracing = tracing.clone();
                        std::thread::spawn(move || {
                            receive_loop(site, &cluster, &transport, &stop, tracing.as_deref())
                        })
                    };
                    sites.push(UdpSite {
                        cluster,
                        transport,
                        receiver,
                    });
                }
                for a in &sites {
                    for b in &sites {
                        if a.transport.site() != b.transport.site() {
                            a.transport
                                .set_peer(b.transport.site(), b.transport.local_addr());
                        }
                    }
                }
                let clients = sites
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.cluster.client(SiteId(i as u32 + 1)))
                    .collect();
                System {
                    kind: Kind::Udp { sites, stop },
                    clients,
                    dir,
                }
            }
        }
    }

    /// The client homed at `site` (1-based).
    pub fn client(&self, site: u32) -> &Client {
        &self.clients[(site - 1) as usize]
    }

    pub fn is_udp(&self) -> bool {
        matches!(self.kind, Kind::Udp { .. })
    }

    fn clusters(&self) -> Vec<&Cluster> {
        match &self.kind {
            Kind::InProcess(c) => vec![c],
            Kind::Udp { sites, .. } => sites.iter().map(|s| &*s.cluster).collect(),
        }
    }

    fn cluster_of(&self, site: u32) -> &Cluster {
        match &self.kind {
            Kind::InProcess(c) => c,
            Kind::Udp { sites, .. } => &sites[(site - 1) as usize].cluster,
        }
    }

    pub fn stats(&self) -> ClusterStats {
        let sites = self
            .clusters()
            .into_iter()
            .flat_map(|c| c.stats().sites)
            .collect();
        ClusterStats { sites }
    }

    /// Transport counters summed over the sites (all zero in process).
    pub fn transport_stats(&self) -> TransportStats {
        let mut acc = TransportStats::default();
        if let Kind::Udp { sites, .. } = &self.kind {
            for s in sites {
                let t = s.transport.stats();
                acc.sends += t.sends;
                acc.send_failures += t.send_failures;
                acc.queue_drops += t.queue_drops;
                acc.max_queue_depth = acc.max_queue_depth.max(t.max_queue_depth);
            }
        }
        acc
    }

    pub fn committed_value(&self, site: u32, key: u64) -> Vec<u8> {
        self.cluster_of(site)
            .committed_value(SiteId(site), SRV, ObjectId(key))
    }

    fn live_families(&self) -> usize {
        self.stats().sites.iter().map(|s| s.live_families).sum()
    }

    /// Waits until no transaction family is live at any site. False if
    /// that did not happen within `timeout`.
    pub fn idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.live_families() > 0 {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// [`System::idle`], then a few lazy-flush periods more so delayed
    /// commit records are on disk.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let idle = self.idle(timeout);
        std::thread::sleep(RtConfig::default().lazy_flush * 4);
        idle
    }

    /// Total bytes in the sites' log files.
    pub fn log_bytes(&self) -> u64 {
        (1..=SITES)
            .filter_map(|s| std::fs::metadata(self.dir.join(format!("site-{s}.log"))).ok())
            .map(|m| m.len())
            .sum()
    }

    /// Drains every site's trace ring.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.clusters()
            .into_iter()
            .flat_map(|c| c.drain_trace())
            .collect()
    }

    pub fn trace_dropped(&self) -> u64 {
        self.clusters().into_iter().map(|c| c.trace_dropped()).sum()
    }

    /// Stops every runtime and receive thread and waits for them.
    pub fn shutdown(self) {
        drop(self.clients);
        match self.kind {
            Kind::InProcess(c) => c.shutdown(),
            Kind::Udp { sites, stop } => {
                stop.store(true, Ordering::SeqCst);
                for s in sites {
                    s.receiver.join().expect("receive loop panicked");
                    drop(s.transport);
                    match Arc::try_unwrap(s.cluster) {
                        Ok(c) => c.shutdown(),
                        Err(_) => panic!("site cluster still shared at shutdown"),
                    }
                }
            }
        }
    }
}

/// Feeds deduplicated deliveries into the site's TranMan, as the
/// receive loop of `camelot-site` does.
fn receive_loop(
    site: SiteId,
    cluster: &Cluster,
    transport: &SocketTransport,
    stop: &AtomicBool,
    tracing: Option<&Tracing>,
) {
    while !stop.load(Ordering::SeqCst) {
        if let Ok(Some(delivery)) = transport.recv() {
            for msg in delivery.messages {
                match tracing {
                    Some(tr) => {
                        let family = msg.tid().family;
                        tr.around_family("net.inject", family, || {
                            cluster.inject_datagram(delivery.from, site, msg)
                        })
                    }
                    None => cluster.inject_datagram(delivery.from, site, msg),
                }
            }
        }
    }
}

/// Converts drained events for attribution; the three socket sites
/// keep separate clocks, so their timelines are merged skew-aware.
pub fn scope_events(events: &[TraceEvent], udp: bool) -> Vec<ScopeEvent> {
    let evs: Vec<ScopeEvent> = events.iter().map(ScopeEvent::from_trace).collect();
    if udp {
        camelot_scope::merge_skew_aware(evs).events
    } else {
        evs
    }
}
