//! The ingress server: concurrent framed-TCP connections feeding one
//! bounded queue, plus the lightweight read-only status server.
//!
//! Threading model: one accept thread, one OS thread per connection
//! (`std::net` blocking I/O — connection counts here are a handful of
//! event producers, not C10K), all funnelling into a single
//! [`BoundedQueue`] behind a mutex. The dispatch loop drains that queue
//! from its own thread via [`NetIngress::pop_wait`].
//!
//! Admission control is **atomic per batch**: an `EVENT_BATCH` either
//! fits the queue's remaining capacity in full and is enqueued, or
//! nothing is enqueued and the client gets `RETRY_AFTER` with a
//! backoff-scheduled hint. All-or-nothing is what makes client retry
//! safe: a bounced batch left no partial prefix behind, so resending it
//! cannot double-admit, and every accepted event is delivered exactly
//! once without any deduplication state. The accept loop itself never
//! touches the queue, so saturation can never stall new connections.
//!
//! Failure handling per connection: a payload that does not decode gets
//! an `ERR` reply and the connection *survives* (the CRC frame boundary
//! is intact, the stream is still in sync); a damaged frame (oversize
//! length or CRC mismatch) gets an `ERR` reply and the connection is
//! closed, because after a bad frame the byte stream cannot be
//! resynchronized. A read timeout closes the connection.

use crate::wire::{
    decode_request, encode_reply, read_message, write_message, ErrCode, FrameError, Reply, Request,
    Role, ShardReportInfo, StatusInfo,
};
use mbta_service::{Arrival, BoundedQueue, DeferBackoff, DropPolicy, OfferOutcome};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Tuning knobs for [`NetIngress`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind (e.g. `127.0.0.1:7461`).
    pub addr: String,
    /// Ingress queue capacity (events). Batches larger than this are
    /// rejected outright as [`ErrCode::TooLarge`].
    pub queue_cap: usize,
    /// Per-connection read timeout; a client silent this long is
    /// disconnected.
    pub read_timeout: Duration,
    /// Base of the RETRY-AFTER hint schedule (milliseconds).
    pub retry_base_ms: u64,
    /// Cap of the RETRY-AFTER hint schedule (milliseconds).
    pub retry_cap_ms: u64,
    /// Seed for hint jitter (per-connection streams are derived).
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_cap: 4096,
            read_timeout: Duration::from_secs(30),
            retry_base_ms: 5,
            retry_cap_ms: 500,
            seed: 0,
        }
    }
}

/// Lifetime counters of a [`NetIngress`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub conns: u64,
    /// Frames read across all connections.
    pub frames: u64,
    /// Events admitted into the ingress queue.
    pub accepted: u64,
    /// Batches bounced with `RETRY_AFTER`.
    pub retry_after: u64,
    /// Malformed payloads and damaged frames rejected.
    pub malformed: u64,
    /// Frame bytes read (headers + payloads).
    pub bytes_in: u64,
    /// Deepest the ingress queue has been.
    pub queue_high_watermark: usize,
}

/// The ingress queue plus a lockstep deque of namespace tags: entry `i`
/// of `tags` is the tenant of the `i`-th queued arrival. Both sides are
/// only ever touched together under the queue mutex, so they cannot skew.
struct NsQueue {
    q: BoundedQueue,
    tags: VecDeque<u32>,
}

struct Shared {
    queue: Mutex<NsQueue>,
    ready: Condvar,
    cap: usize,
    fin: AtomicBool,
    shutdown: AtomicBool,
    status: Mutex<StatusInfo>,
    report: Mutex<ShardReportInfo>,
    conns: AtomicU64,
    frames: AtomicU64,
    accepted: AtomicU64,
    retry_after: AtomicU64,
    malformed: AtomicU64,
    bytes_in: AtomicU64,
    conn_seq: AtomicU64,
    cfg_read_timeout: Duration,
    cfg_retry_base_ms: u64,
    cfg_retry_cap_ms: u64,
    cfg_seed: u64,
}

impl Shared {
    /// Admits the whole batch or nothing. The all-or-nothing check runs
    /// under the queue lock, so concurrent producers cannot interleave
    /// partial batches.
    fn push_batch(&self, ns: u32, events: &[Arrival]) -> bool {
        let mut nq = self.queue.lock().unwrap();
        if self.cap - nq.q.len() < events.len() {
            // Count one deferral for the bounced batch (not per event):
            // the queue's own counter feeds the service report. Crucially
            // nothing is enqueued — the batch is all-or-nothing, so the
            // client's identical resend stays exactly-once.
            nq.q.note_deferral();
            return false;
        }
        for &a in events {
            let outcome = nq.q.offer(a);
            debug_assert_eq!(outcome, OfferOutcome::Accepted, "capacity checked above");
            nq.tags.push_back(ns);
        }
        drop(nq);
        self.ready.notify_all();
        true
    }
}

/// A bound TCP ingress: accept loop + connection threads feeding one
/// bounded queue. See the module docs for the protocol and policies.
pub struct NetIngress {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handle: Option<thread::JoinHandle<()>>,
}

impl NetIngress {
    /// Binds `cfg.addr` and starts accepting connections immediately.
    /// Events pile into the internal queue until the owner drains them
    /// with [`NetIngress::pop_wait`].
    pub fn bind(cfg: NetConfig) -> io::Result<NetIngress> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(NsQueue {
                q: BoundedQueue::new(cfg.queue_cap.max(1), DropPolicy::Defer),
                tags: VecDeque::new(),
            }),
            ready: Condvar::new(),
            cap: cfg.queue_cap.max(1),
            fin: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            status: Mutex::new(StatusInfo {
                role: Role::Primary,
                watermark: 0,
                assignments: 0,
                total_weight: 0.0,
            }),
            report: Mutex::new(ShardReportInfo::default()),
            conns: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            retry_after: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            cfg_read_timeout: cfg.read_timeout,
            cfg_retry_base_ms: cfg.retry_base_ms,
            cfg_retry_cap_ms: cfg.retry_cap_ms,
            cfg_seed: cfg.seed,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("mbta-net-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(NetIngress {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Pops the oldest admitted event and its namespace tag, waiting up
    /// to `timeout` for one to arrive. `None` on timeout, or at once when
    /// the queue is empty and a client has sent `FIN`. Single-tenant
    /// drivers can ignore the tag (their clients always send ns 0).
    pub fn pop_wait(&self, timeout: Duration) -> Option<(u32, Arrival)> {
        let mut nq = self.shared.queue.lock().unwrap();
        if let Some(a) = nq.q.pop() {
            let ns = nq.tags.pop_front().expect("tags tracks queue in lockstep");
            return Some((ns, a));
        }
        let fin = &self.shared.fin;
        let (mut nq, _) = self
            .shared
            .ready
            .wait_timeout_while(nq, timeout, |nq| {
                nq.q.is_empty() && !fin.load(Ordering::Acquire)
            })
            .unwrap();
        let a = nq.q.pop()?;
        let ns = nq.tags.pop_front().expect("tags tracks queue in lockstep");
        Some((ns, a))
    }

    /// Whether any client has sent `FIN`.
    pub fn fin_received(&self) -> bool {
        self.shared.fin.load(Ordering::Acquire)
    }

    /// Whether the stream is over: `FIN` seen and the queue drained.
    pub fn is_drained(&self) -> bool {
        self.fin_received() && self.shared.queue.lock().unwrap().q.is_empty()
    }

    /// Publishes the state a `QUERY_STATUS` reply reports. Called by the
    /// dispatch loop after each batch.
    pub fn set_status(&self, watermark: u64, assignments: usize, total_weight: f64) {
        let mut s = self.shared.status.lock().unwrap();
        s.watermark = watermark;
        s.assignments = assignments as u64;
        s.total_weight = total_weight;
    }

    /// Publishes the snapshot a `QUERY_REPORT` reply carries. Called by
    /// a shard-owner drive loop alongside [`NetIngress::set_status`].
    pub fn set_report(&self, report: ShardReportInfo) {
        *self.shared.report.lock().unwrap() = report;
    }

    /// Lifetime counters.
    pub fn stats(&self) -> NetStats {
        let q = self.shared.queue.lock().unwrap();
        NetStats {
            conns: self.shared.conns.load(Ordering::Relaxed),
            frames: self.shared.frames.load(Ordering::Relaxed),
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            retry_after: self.shared.retry_after.load(Ordering::Relaxed),
            malformed: self.shared.malformed.load(Ordering::Relaxed),
            bytes_in: self.shared.bytes_in.load(Ordering::Relaxed),
            queue_high_watermark: q.q.high_watermark(),
        }
    }

    /// Stops accepting, wakes the accept thread, and joins it. Live
    /// connection threads notice on their next read (timeout-bounded)
    /// and exit.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Poke the blocking accept() awake with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetIngress {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.conns.fetch_add(1, Ordering::Relaxed);
        mbta_telemetry::counter_add("mbta_net_conns_total", 1);
        let conn_shared = Arc::clone(&shared);
        let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        let _ = thread::Builder::new()
            .name(format!("mbta-net-conn-{id}"))
            .spawn(move || handle_conn(stream, conn_shared, id));
    }
}

fn send_reply(stream: &mut TcpStream, reply: &Reply) -> io::Result<()> {
    write_message(stream, &encode_reply(reply))
}

fn handle_conn(mut stream: TcpStream, shared: Arc<Shared>, id: u64) {
    let _ = stream.set_read_timeout(Some(shared.cfg_read_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut backoff = DeferBackoff::new(
        shared.cfg_retry_base_ms,
        shared.cfg_retry_cap_ms,
        shared.cfg_seed ^ id,
    );
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let payload = match read_message(&mut reader) {
            Ok(p) => p,
            Err(FrameError::Eof) => return,
            Err(FrameError::Oversize(_)) | Err(FrameError::Corrupt) => {
                // The stream is out of sync for good; say why, then close.
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                mbta_telemetry::counter_add("mbta_net_malformed_total", 1);
                let _ = send_reply(
                    &mut stream,
                    &Reply::Err {
                        code: ErrCode::Frame,
                        msg: "damaged frame; closing".to_string(),
                    },
                );
                return;
            }
            // Timeout or severed connection.
            Err(FrameError::Io(_)) => return,
        };
        shared.frames.fetch_add(1, Ordering::Relaxed);
        shared
            .bytes_in
            .fetch_add(payload.len() as u64 + 8, Ordering::Relaxed);
        mbta_telemetry::counter_add("mbta_net_frames_total", 1);
        mbta_telemetry::counter_add("mbta_net_bytes_total", payload.len() as u64 + 8);
        let reply = match decode_request(&payload) {
            Ok(Request::EventBatch { ns, events }) => {
                if events.len() > shared.cap {
                    Reply::Err {
                        code: ErrCode::TooLarge,
                        msg: format!(
                            "batch of {} exceeds queue capacity {}",
                            events.len(),
                            shared.cap
                        ),
                    }
                } else if shared.push_batch(ns, &events) {
                    let n = events.len() as u64;
                    shared.accepted.fetch_add(n, Ordering::Relaxed);
                    mbta_telemetry::counter_add("mbta_net_accepted_total", n);
                    backoff.reset();
                    Reply::Ok {
                        accepted: events.len() as u32,
                    }
                } else {
                    shared.retry_after.fetch_add(1, Ordering::Relaxed);
                    mbta_telemetry::counter_add("mbta_net_retry_after_total", 1);
                    Reply::RetryAfter {
                        hint_ms: backoff.next_delay().as_millis() as u32,
                    }
                }
            }
            Ok(Request::Fin) => {
                // Stored under the queue lock, so a drainer cannot check
                // the flag and then park past this wake-up.
                let guard = shared.queue.lock().expect("ingress queue lock poisoned");
                shared.fin.store(true, Ordering::Release);
                drop(guard);
                shared.ready.notify_all();
                let _ = send_reply(&mut stream, &Reply::Ok { accepted: 0 });
                return;
            }
            Ok(Request::QueryStatus) => Reply::Status(*shared.status.lock().unwrap()),
            Ok(Request::QueryReport) => Reply::ShardReport(*shared.report.lock().unwrap()),
            Err(e) => {
                // The frame was intact — only its payload is garbage — so
                // the stream is still in sync and the connection survives.
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                mbta_telemetry::counter_add("mbta_net_malformed_total", 1);
                Reply::Err {
                    code: ErrCode::Payload,
                    msg: e.to_string(),
                }
            }
        };
        if send_reply(&mut stream, &reply).is_err() {
            return;
        }
    }
}

// ---- read-only status serving --------------------------------------------

struct StatusShared {
    status: Mutex<StatusInfo>,
    shutdown: AtomicBool,
}

/// A minimal read-only endpoint: answers `QUERY_STATUS`, refuses event
/// batches with [`ErrCode::ReadOnly`]. Followers run one while tailing
/// (and after promotion, on the taken-over primary address).
pub struct StatusServer {
    shared: Arc<StatusShared>,
    local_addr: SocketAddr,
    accept_handle: Option<thread::JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` and serves immediately.
    pub fn bind(addr: &str, initial: StatusInfo) -> io::Result<StatusServer> {
        let mut last_err = None;
        for sock_addr in addr.to_socket_addrs()? {
            match TcpListener::bind(sock_addr) {
                Ok(l) => return StatusServer::from_listener(l, initial),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved")))
    }

    /// Serves on an already-bound listener — the promotion path, where
    /// binding the primary's address *is* the takeover evidence and the
    /// listener must not be dropped between the bind and the serve.
    pub fn from_listener(listener: TcpListener, initial: StatusInfo) -> io::Result<StatusServer> {
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(StatusShared {
            status: Mutex::new(initial),
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("mbta-net-status".to_string())
            .spawn(move || status_accept_loop(listener, accept_shared))
            .expect("spawn status accept thread");
        Ok(StatusServer {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Publishes a new status (called as the follower applies records,
    /// and at promotion to flip the role).
    pub fn update(&self, status: StatusInfo) {
        *self.shared.status.lock().unwrap() = status;
    }

    /// Stops accepting and joins the accept thread.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn status_accept_loop(listener: TcpListener, shared: Arc<StatusShared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        let _ = thread::Builder::new()
            .name("mbta-net-status-conn".to_string())
            .spawn(move || handle_status_conn(stream, conn_shared));
    }
}

fn handle_status_conn(mut stream: TcpStream, shared: Arc<StatusShared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let payload = match read_message(&mut reader) {
            Ok(p) => p,
            Err(_) => return,
        };
        let reply = match decode_request(&payload) {
            Ok(Request::QueryStatus) => Reply::Status(*shared.status.lock().unwrap()),
            Ok(Request::EventBatch { .. }) | Ok(Request::Fin) | Ok(Request::QueryReport) => {
                Reply::Err {
                    code: ErrCode::ReadOnly,
                    msg: "read-only endpoint: status queries only".to_string(),
                }
            }
            Err(e) => Reply::Err {
                code: ErrCode::Payload,
                msg: e.to_string(),
            },
        };
        if send_reply(&mut stream, &reply).is_err() {
            return;
        }
    }
}
