//! The one wire seam: clients, the server, the coordinator and workers
//! dial and listen through a [`Transport`], never a socket type.
//!
//! [`Tcp`] is what the daemons and the CLIs run on; `TCP_NODELAY`,
//! timeouts and the self-dial that wakes a blocked `accept` are each
//! set here, once. [`Mem`] is the same wire in memory — duplex byte
//! pipes built on the `sidr_mapreduce::sync` facade — for running the
//! real server, coordinator and workers in one process under the
//! schedule explorer: every read and write is a yield point, a timed
//! read times out on the explorer's virtual clock, and an optional
//! fault hook decides the fate of every write (deliver it late, tamper
//! with it, cut the connection, or leave it half-open). Bytes keep
//! their order within a connection; delays reorder delivery across
//! connections.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use sidr_mapreduce::sync::{self, time, Condvar, Mutex};

/// Dials and listens for the fleet's connections.
pub trait Transport: Send + Sync {
    /// Opens a connection to `addr`. `timeout`, when set, bounds the
    /// connect and every later read and write on the connection.
    fn dial(&self, addr: &str, timeout: Option<Duration>) -> io::Result<Conn>;

    /// Starts accepting connections at `addr`.
    fn listen(&self, addr: &str) -> io::Result<Arc<dyn Listener>>;
}

/// An endpoint accepting connections.
pub trait Listener: Send + Sync {
    /// The address peers dial to reach this endpoint.
    fn local_addr(&self) -> String;

    /// The next connection; `None` once [`close`](Self::close)d.
    fn accept(&self) -> Option<Conn>;

    /// Stops accepting and wakes a blocked [`accept`](Self::accept).
    /// An in-memory endpoint also cuts every connection it took, as a
    /// dead process's would be.
    fn close(&self);
}

/// Hangs one connection up from this side: a read blocked on it, at
/// either end, returns, and every later read or write on it fails.
/// Outlives the [`Conn`] it came from, and clones hang up the same
/// connection.
pub type Hangup = Arc<dyn Fn() + Send + Sync>;

/// One connection: a read half and a write half.
pub struct Conn {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    hangup: Hangup,
}

impl Conn {
    /// The two halves, for a reader and a writer on different threads.
    pub fn split(self) -> (Box<dyn Read + Send>, Box<dyn Write + Send>) {
        (self.reader, self.writer)
    }

    /// A handle that hangs this connection up, wherever its halves are.
    pub fn hangup(&self) -> Hangup {
        Arc::clone(&self.hangup)
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reader.read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writer.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.writer.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// The production transport.
pub struct Tcp;

impl Transport for Tcp {
    fn dial(&self, addr: &str, timeout: Option<Duration>) -> io::Result<Conn> {
        let stream = match timeout {
            Some(t) => {
                let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        ErrorKind::AddrNotAvailable,
                        format!("cannot resolve {addr}"),
                    )
                })?;
                TcpStream::connect_timeout(&sockaddr, t)?
            }
            None => TcpStream::connect(addr)?,
        };
        tcp_conn(stream, timeout)
    }

    fn listen(&self, addr: &str) -> io::Result<Arc<dyn Listener>> {
        let listener = TcpListener::bind(addr)?;
        Ok(Arc::new(TcpDoor {
            local: listener.local_addr()?.to_string(),
            listener,
            closed: AtomicBool::new(false),
        }))
    }
}

/// Wraps a connected stream, either side.
fn tcp_conn(stream: TcpStream, timeout: Option<Duration>) -> io::Result<Conn> {
    // Every message is one write of a whole frame (or reply), so Nagle
    // only ever delays it — by the peer's delayed ACK.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    let socket = stream.try_clone()?;
    Ok(Conn {
        reader: Box::new(BufReader::new(stream.try_clone()?)),
        writer: Box::new(stream),
        hangup: Arc::new(move || {
            let _ = socket.shutdown(Shutdown::Both);
        }),
    })
}

struct TcpDoor {
    listener: TcpListener,
    local: String,
    closed: AtomicBool,
}

impl Listener for TcpDoor {
    fn local_addr(&self) -> String {
        self.local.clone()
    }

    fn accept(&self) -> Option<Conn> {
        loop {
            let accepted = self.listener.accept();
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            if let Ok(conn) = accepted.and_then(|(stream, _)| tcp_conn(stream, None)) {
                return Some(conn);
            }
        }
    }

    fn close(&self) {
        // A blocked `accept` only returns for a connection: make one.
        if !self.closed.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(&self.local);
        }
    }
}

/// One write crossing an in-memory connection, as a fault hook sees it.
#[derive(Clone, Copy, Debug)]
pub struct Crossing<'a> {
    /// The listening address the connection was dialed to.
    pub endpoint: &'a str,
    /// True for bytes from the dialer to the endpoint.
    pub inbound: bool,
    /// The connection's id, unique within its [`Mem`] network.
    pub conn: u64,
}

/// What becomes of one write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Readable after this much (virtual) time; zero is now.
    Deliver(Duration),
    /// The bytes arrive, then the connection is cut: the reader gets
    /// them, and the reset after.
    DeliverThenCut,
    /// The connection is cut before the bytes arrive; the writer sees
    /// the failure.
    Cut,
    /// Half-open: the writer sees success, the bytes never arrive and
    /// the reader sees the connection reset.
    Vanish,
}

/// Decides each write's [`Fate`]; may also rewrite the bytes.
pub type FaultHook = dyn Fn(Crossing<'_>, &mut Vec<u8>) -> Fate + Send + Sync;

/// An in-process network: endpoints by address, connections as pairs
/// of byte pipes. `Mem::default()` is fault-free.
#[derive(Clone, Default)]
pub struct Mem {
    net: Arc<MemNet>,
}

#[derive(Default)]
struct MemNet {
    doors: Mutex<HashMap<String, Arc<MemDoor>>>,
    hook: Option<Box<FaultHook>>,
    next_conn: AtomicU64,
}

impl Mem {
    /// A network whose every write first passes through `hook`.
    pub fn with_faults(
        hook: impl Fn(Crossing<'_>, &mut Vec<u8>) -> Fate + Send + Sync + 'static,
    ) -> Self {
        Mem {
            net: Arc::new(MemNet {
                hook: Some(Box::new(hook)),
                ..MemNet::default()
            }),
        }
    }
}

impl Transport for Mem {
    fn dial(&self, addr: &str, timeout: Option<Duration>) -> io::Result<Conn> {
        let refused = || io::Error::new(ErrorKind::ConnectionRefused, format!("{addr}: refused"));
        let door = self
            .net
            .doors
            .lock()
            .get(addr)
            .cloned()
            .ok_or_else(refused)?;
        let (up, down) = (Arc::new(Pipe::default()), Arc::new(Pipe::default()));
        let conn = self.net.next_conn.fetch_add(1, Ordering::Relaxed);
        let pipes = [Arc::downgrade(&up), Arc::downgrade(&down)];
        let hangup: Hangup = Arc::new(move || {
            pipes.iter().filter_map(Weak::upgrade).for_each(|p| p.cut());
        });
        let half = |from: &Arc<Pipe>, to: &Arc<Pipe>, inbound, timeout| Conn {
            reader: Box::new(BufReader::new(MemReader {
                pipe: Arc::clone(from),
                timeout,
            })),
            writer: Box::new(MemWriter {
                pipe: Arc::clone(to),
                back: Arc::clone(from),
                net: Arc::clone(&self.net),
                endpoint: addr.to_string(),
                inbound,
                conn,
                last_due: None,
            }),
            hangup: Arc::clone(&hangup),
        };
        let dialer = half(&down, &up, true, timeout);
        let accepted = half(&up, &down, false, None);
        let mut st = door.state.lock();
        if st.closed {
            return Err(refused());
        }
        st.links.retain(|(up, _)| up.strong_count() > 0);
        st.links.push((Arc::downgrade(&up), Arc::downgrade(&down)));
        st.backlog.push_back(accepted);
        drop(st);
        door.arrived.notify_all();
        Ok(dialer)
    }

    fn listen(&self, addr: &str) -> io::Result<Arc<dyn Listener>> {
        let mut doors = self.net.doors.lock();
        if doors.contains_key(addr) {
            return Err(io::Error::new(ErrorKind::AddrInUse, addr.to_string()));
        }
        let door = Arc::new(MemDoor {
            addr: addr.to_string(),
            net: Arc::downgrade(&self.net),
            state: Mutex::new(DoorState::default()),
            arrived: Condvar::new(),
        });
        doors.insert(addr.to_string(), Arc::clone(&door));
        Ok(door)
    }
}

struct MemDoor {
    addr: String,
    net: Weak<MemNet>,
    state: Mutex<DoorState>,
    arrived: Condvar,
}

#[derive(Default)]
struct DoorState {
    backlog: VecDeque<Conn>,
    /// Both pipes of every connection dialed here, for `close` to cut.
    links: Vec<(Weak<Pipe>, Weak<Pipe>)>,
    closed: bool,
}

impl Listener for MemDoor {
    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    fn accept(&self) -> Option<Conn> {
        let mut st = self.state.lock();
        sync::wait_until(&self.arrived, &mut st, None, |st| {
            match st.backlog.pop_front() {
                Some(conn) => Some(Some(conn)),
                None => st.closed.then_some(None),
            }
        })
    }

    fn close(&self) {
        if let Some(net) = self.net.upgrade() {
            let mut doors = net.doors.lock();
            if doors
                .get(&self.addr)
                .is_some_and(|d| std::ptr::eq(&**d, self))
            {
                doors.remove(&self.addr);
            }
        }
        let links = {
            let mut st = self.state.lock();
            st.closed = true;
            st.backlog.clear();
            std::mem::take(&mut st.links)
        };
        self.arrived.notify_all();
        links
            .iter()
            .flat_map(|(up, down)| [up, down])
            .filter_map(Weak::upgrade)
            .for_each(|p| p.cut());
    }
}

/// One direction of a connection.
#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    ready: Condvar,
}

#[derive(Default)]
struct PipeState {
    /// Written bytes, each with the instant it becomes readable.
    segments: VecDeque<(Instant, Vec<u8>)>,
    /// Bytes of the front segment already read.
    head: usize,
    /// The writer hung up: EOF once the segments are drained.
    closed: bool,
    /// The connection was cut: writes fail from now on, and reads once
    /// the bytes that had arrived by then are drained.
    cut: bool,
}

impl PipeState {
    fn readable(&self, now: Instant) -> bool {
        self.cut || self.segments.front().map_or(self.closed, |s| s.0 <= now)
    }
}

impl Pipe {
    /// Bytes still in flight die with the connection; bytes that have
    /// arrived stay readable.
    fn cut(&self) {
        let mut st = self.state.lock();
        st.cut = true;
        let now = time::now();
        st.segments.retain(|s| s.0 <= now);
        drop(st);
        self.ready.notify_all();
    }
}

struct MemReader {
    pipe: Arc<Pipe>,
    timeout: Option<Duration>,
}

impl Read for MemReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let deadline = self.timeout.map(|t| time::now() + t);
        let mut st = self.pipe.state.lock();
        loop {
            let now = time::now();
            if st.readable(now) {
                break;
            }
            if deadline.is_some_and(|d| now >= d) {
                return Err(io::Error::new(ErrorKind::TimedOut, "read timed out"));
            }
            // Sleep until the front segment is due or the deadline, and
            // re-plan whenever the pipe changes under us.
            let due = st.segments.front().map(|s| s.0);
            let until = due.into_iter().chain(deadline).min();
            let changed = |st: &mut PipeState| {
                let moved = st.segments.front().map(|s| s.0) != due;
                (moved || st.readable(time::now())).then_some(Some(()))
            };
            sync::wait_until(&self.pipe.ready, &mut st, until, changed);
        }
        if st.cut && st.segments.is_empty() {
            return Err(io::Error::new(ErrorKind::ConnectionReset, "connection cut"));
        }
        let head = st.head;
        let Some((_, front)) = st.segments.front() else {
            return Ok(0);
        };
        let n = buf.len().min(front.len() - head);
        buf[..n].copy_from_slice(&front[head..head + n]);
        if head + n == front.len() {
            st.segments.pop_front();
            st.head = 0;
        } else {
            st.head += n;
        }
        Ok(n)
    }
}

/// A reader that hangs up cuts its direction: the peer's next write
/// fails, as a write to a TCP peer that has reset does.
impl Drop for MemReader {
    fn drop(&mut self) {
        self.pipe.cut();
    }
}

struct MemWriter {
    pipe: Arc<Pipe>,
    /// The other direction, cut along with this one.
    back: Arc<Pipe>,
    net: Arc<MemNet>,
    endpoint: String,
    inbound: bool,
    conn: u64,
    /// When this connection's last write becomes readable: a later
    /// write never overtakes it.
    last_due: Option<Instant>,
}

impl MemWriter {
    fn cut(&self) {
        self.pipe.cut();
        self.back.cut();
    }

    fn deliver(&mut self, bytes: Vec<u8>, after: Duration) -> io::Result<()> {
        let mut st = self.pipe.state.lock();
        if st.cut {
            return Err(io::Error::new(ErrorKind::BrokenPipe, "connection cut"));
        }
        let due = self
            .last_due
            .into_iter()
            .fold(time::now() + after, Instant::max);
        self.last_due = Some(due);
        st.segments.push_back((due, bytes));
        drop(st);
        self.pipe.ready.notify_all();
        Ok(())
    }
}

impl Write for MemWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    /// One gathered write is one segment, and one hook decision.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut bytes = Vec::with_capacity(bufs.iter().map(|b| b.len()).sum());
        bufs.iter().for_each(|b| bytes.extend_from_slice(b));
        let n = bytes.len();
        let crossing = Crossing {
            endpoint: &self.endpoint,
            inbound: self.inbound,
            conn: self.conn,
        };
        let net = Arc::clone(&self.net);
        let fate = match &net.hook {
            Some(hook) => hook(crossing, &mut bytes),
            None => Fate::Deliver(Duration::ZERO),
        };
        match fate {
            Fate::Deliver(after) => self.deliver(bytes, after)?,
            Fate::DeliverThenCut => {
                self.deliver(bytes, Duration::ZERO)?;
                self.cut();
            }
            Fate::Cut => {
                self.cut();
                return Err(io::Error::new(ErrorKind::BrokenPipe, "connection cut"));
            }
            Fate::Vanish => self.cut(),
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for MemWriter {
    fn drop(&mut self) {
        self.pipe.state.lock().closed = true;
        self.pipe.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes cross an in-memory connection in order; hanging up reads
    /// as EOF, and a closed endpoint refuses dials and cuts what it
    /// accepted.
    #[test]
    fn mem_round_trip_eof_and_close() {
        let net = Mem::default();
        let door = net.listen("w0").unwrap();
        let mut dialer = net.dial("w0", None).unwrap();
        let mut accepted = door.accept().unwrap();
        dialer.write_all(b"ping").unwrap();
        let mut got = [0u8; 4];
        accepted.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping");
        drop(accepted);
        assert_eq!(dialer.read(&mut got).unwrap(), 0, "hang-up is EOF");

        let mut live = net.dial("w0", None).unwrap();
        let _accepted = door.accept().unwrap();
        door.close();
        assert!(door.accept().is_none());
        assert!(net.dial("w0", None).is_err(), "a closed endpoint refuses");
        assert_eq!(
            live.read(&mut got).unwrap_err().kind(),
            ErrorKind::ConnectionReset
        );
        assert!(net.listen("w0").is_ok(), "the address can be taken again");
    }

    /// A reply cut after delivery is read whole, then the reset; a
    /// vanished one is only the reset.
    #[test]
    fn cut_after_delivery_keeps_the_bytes() {
        let fates = [Fate::DeliverThenCut, Fate::Vanish];
        for (i, fate) in fates.into_iter().enumerate() {
            let net = Mem::with_faults(move |c, _| match c.inbound {
                true => Fate::Deliver(Duration::ZERO),
                false => fate,
            });
            let door = net.listen("w0").unwrap();
            let mut dialer = net.dial("w0", None).unwrap();
            let mut accepted = door.accept().unwrap();
            accepted.write_all(b"pong").unwrap();
            let mut got = [0u8; 4];
            if i == 0 {
                dialer.read_exact(&mut got).unwrap();
                assert_eq!(&got, b"pong");
            }
            let reset = dialer.read(&mut got).unwrap_err();
            assert_eq!(reset.kind(), ErrorKind::ConnectionReset, "{fate:?}");
        }
    }
}
