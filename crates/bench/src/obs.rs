//! Minimal, `std`-only metrics exposition for the service binaries.
//!
//! [`start_metrics`] binds a listener — TCP when the target contains a
//! `:` (e.g. `127.0.0.1:9100`), a Unix domain socket otherwise — and
//! answers every HTTP request on it with the Prometheus text exposition
//! (version 0.0.4) produced by the caller's `render` closure. The
//! listener runs on a detached thread so the daemon's serving loop never
//! waits on a scraper, and answers each scrape on a thread of its own
//! (at most `MAX_SCRAPES` at once), so a stalled client never delays
//! another's scrape; rendering a snapshot happens per scrape and never
//! blocks the engine's hot paths (see `ARCHITECTURE.md`,
//! "Observability").
//!
//! This is deliberately not a web server: one response per connection,
//! `HTTP/1.0`, `Connection: close` semantics, no routing — exactly what
//! `prometheus` scrape targets and `curl` need and nothing more, so no
//! HTTP dependency enters the tree.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How long a scraper may dawdle sending its request head before we
/// answer anyway, so an idle client holds its scrape slot for at most
/// this long.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// Most scrapes answered at once, each on its own thread. A connection
/// accepted while every slot is taken is closed unanswered, so idle
/// clients cost at most this many threads.
const MAX_SCRAPES: usize = 8;

/// Serves `render()` as Prometheus text exposition on `target`.
///
/// `target` with a `:` is a TCP bind address (`host:port`, port `0`
/// picks a free port); anything else is a Unix-socket path (created
/// fresh, replacing a leftover file). Binding happens synchronously so
/// errors surface to the caller; the accept loop then runs on a detached
/// thread for the life of the process. Returns the bound address — for
/// TCP the *resolved* address, so a `:0` caller learns the port.
fn serve_metrics<F>(target: &str, render: F) -> std::io::Result<String>
where
    F: Fn() -> String + Send + Sync + 'static,
{
    if target.contains(':') {
        let listener = std::net::TcpListener::bind(target)?;
        let bound = listener.local_addr()?.to_string();
        spawn_accept_loop(
            move || {
                let (stream, _) = listener.accept()?;
                stream.set_read_timeout(Some(READ_TIMEOUT))?;
                Ok(stream)
            },
            render,
        );
        return Ok(bound);
    }
    serve_metrics_unix(target, render)
}

/// Serves `render()` on `target` for a daemon's `--metrics` flag: reports
/// the bound address, or the failure, on stderr after the daemon's `name`,
/// and returns whether the endpoint is up.
pub fn start_metrics<F>(name: &str, target: &str, render: F) -> bool
where
    F: Fn() -> String + Send + Sync + 'static,
{
    match serve_metrics(target, render) {
        Ok(addr) => eprintln!("{name}: metrics on {addr}"),
        Err(e) => {
            eprintln!("{name}: cannot serve metrics on {target}: {e}");
            return false;
        }
    }
    true
}

#[cfg(unix)]
fn serve_metrics_unix<F>(target: &str, render: F) -> std::io::Result<String>
where
    F: Fn() -> String + Send + Sync + 'static,
{
    let path = std::path::Path::new(target);
    // A leftover socket file from a dead daemon would fail the bind.
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    spawn_accept_loop(
        move || {
            let (stream, _) = listener.accept()?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            Ok(stream)
        },
        render,
    );
    Ok(target.to_string())
}

#[cfg(not(unix))]
fn serve_metrics_unix<F>(target: &str, _render: F) -> std::io::Result<String>
where
    F: Fn() -> String + Send + Sync + 'static,
{
    let _ = target;
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "Unix-socket metrics targets require a Unix platform; use host:port",
    ))
}

/// Runs the accept loop on a detached thread: each accepted connection is
/// answered on a thread of its own while fewer than [`MAX_SCRAPES`] are in
/// progress, and closed at once otherwise.
fn spawn_accept_loop<S, F>(
    mut accept: impl FnMut() -> std::io::Result<S> + Send + 'static,
    render: F,
) where
    S: Read + Write + Send + 'static,
    F: Fn() -> String + Send + Sync + 'static,
{
    let render = Arc::new(render);
    let busy = Arc::new(AtomicUsize::new(0));
    std::thread::spawn(move || loop {
        let Ok(mut stream) = accept() else { continue };
        if busy.fetch_add(1, Ordering::AcqRel) >= MAX_SCRAPES {
            busy.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        let slot = Slot(Arc::clone(&busy));
        let render = Arc::clone(&render);
        // A failed spawn drops the closure, and with it the slot and the
        // connection.
        let _ = std::thread::Builder::new().spawn(move || {
            let _slot = slot;
            let _ = respond(&mut stream, &render());
        });
    });
}

/// One taken scrape slot, given back when dropped.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Drains the request head (bounded, best-effort — a timeout or malformed
/// head still gets an answer) and writes one `HTTP/1.0` response carrying
/// `body` as Prometheus text exposition.
fn respond(stream: &mut (impl Read + Write), body: &str) -> std::io::Result<()> {
    let mut buf = [0u8; 1024];
    let mut head: Vec<u8> = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
                    break;
                }
            }
        }
    }
    write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// A scripted connection: each `read` hands out the next chunk (split
    /// to fit the caller's buffer), `None` reads as an I/O error and the end
    /// of the script as EOF; writes are captured.
    struct Scripted {
        chunks: VecDeque<Option<Vec<u8>>>,
        consumed: usize,
        written: Vec<u8>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.chunks.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::ErrorKind::TimedOut.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.chunks.push_front(Some(chunk.split_off(n)));
                    }
                    self.consumed += n;
                    Ok(n)
                }
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Bytes request heads are drawn from.
    const HEAD_BYTES: &[u8] = b"GET /metrics HTTP/1.0\r\n:Host x\r\n\r\n\xff";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn request_head_reader_never_panics(
            chunks in prop::collection::vec((prop::collection::vec(0u8..=255, 0..700), 0u8..8), 0..24),
            drawn in prop::collection::vec(0usize..HEAD_BYTES.len(), 0..64),
        ) {
            // Arbitrary bytes in arbitrary chunks, one read in eight an
            // error, then a head drawn from the request alphabet that may or
            // may not terminate.
            let mut script: VecDeque<Option<Vec<u8>>> =
                chunks.into_iter().map(|(c, e)| (e != 0).then_some(c)).collect();
            script.push_back(Some(drawn.into_iter().map(|i| HEAD_BYTES[i]).collect()));
            let mut conn = Scripted { chunks: script, consumed: 0, written: Vec::new() };
            respond(&mut conn, "noc_up 1\n").map_err(|e| TestCaseError::fail(e.to_string()))?;
            let response = String::from_utf8_lossy(&conn.written);
            prop_assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{}", response);
            prop_assert!(response.ends_with("Content-Length: 9\r\nConnection: close\r\n\r\nnoc_up 1\n"));
            prop_assert!(conn.consumed <= 8192 + 1024, "read {} bytes past the head cap", conn.consumed);
        }
    }

    fn scrape_tcp(addr: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn tcp_scrape_gets_the_rendered_body() {
        let addr = serve_metrics("127.0.0.1:0", || "noc_up 1\n".to_string()).expect("bind");
        let response = scrape_tcp(&addr);
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert!(
            head.contains("text/plain; version=0.0.4"),
            "exposition content type: {head}"
        );
        assert!(head.contains("Content-Length: 9"), "{head}");
        assert_eq!(body, "noc_up 1\n");
        // The listener survives its first connection.
        assert!(scrape_tcp(&addr).ends_with("noc_up 1\n"));
    }

    #[test]
    fn an_idle_client_does_not_delay_another_scrape() {
        let addr = serve_metrics("127.0.0.1:0", || "noc_up 1\n".to_string()).expect("bind");
        let _idle = std::net::TcpStream::connect(&addr).expect("connect");
        let started = std::time::Instant::now();
        assert!(scrape_tcp(&addr).ends_with("noc_up 1\n"));
        let waited = started.elapsed();
        assert!(
            waited < std::time::Duration::from_secs(1),
            "scrape took {waited:?}"
        );
    }

    #[test]
    fn idle_clients_past_the_cap_are_closed_and_the_listener_recovers() {
        let addr = serve_metrics("127.0.0.1:0", || "noc_up 1\n".to_string()).expect("bind");
        let idle: Vec<_> = (0..32)
            .map(|_| std::net::TcpStream::connect(&addr).expect("connect"))
            .collect();
        let mut answered = 0;
        for mut stream in idle {
            stream.set_read_timeout(Some(3 * READ_TIMEOUT)).unwrap();
            let mut response = Vec::new();
            stream
                .read_to_end(&mut response)
                .expect("answered or closed");
            answered += usize::from(!response.is_empty());
        }
        // Each idle client in a slot is answered once its read times out;
        // the rest were closed unanswered.
        assert!((1..=MAX_SCRAPES).contains(&answered), "{answered} answered");
        // A client sees end of stream only after its slot is given back, so
        // every slot is free again.
        assert!(scrape_tcp(&addr).ends_with("noc_up 1\n"));
    }

    #[cfg(unix)]
    #[test]
    fn unix_scrape_gets_the_rendered_body() {
        let dir = std::env::temp_dir().join(format!("noc-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("metrics.sock");
        let target = sock.to_str().unwrap().to_string();
        let bound = serve_metrics(&target, || "noc_up 1\n".to_string()).expect("bind");
        assert_eq!(bound, target);
        let mut stream = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
        stream.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.ends_with("\r\n\r\nnoc_up 1\n"), "{response}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
