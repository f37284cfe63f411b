//! Minimal, `std`-only metrics exposition for the service binaries.
//!
//! [`serve_metrics`] binds a listener — TCP when the target contains a
//! `:` (e.g. `127.0.0.1:9100`), a Unix domain socket otherwise — and
//! answers every HTTP request on it with the Prometheus text exposition
//! (version 0.0.4) produced by the caller's `render` closure. The
//! listener runs on a detached thread so the daemon's serving loop never
//! waits on a scraper; rendering a snapshot happens per scrape, on the
//! scraper's connection, and never blocks the engine's hot paths (see
//! `ARCHITECTURE.md`, "Observability").
//!
//! This is deliberately not a web server: one response per connection,
//! `HTTP/1.0`, `Connection: close` semantics, no routing — exactly what
//! `prometheus` scrape targets and `curl` need and nothing more, so no
//! HTTP dependency enters the tree.

use std::io::{Read, Write};

/// How long a scraper may dawdle sending its request head before we
/// answer anyway. Connections are handled serially, so a wedged client
/// must not be able to hold the exposition endpoint hostage.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// Serves `render()` as Prometheus text exposition on `target`.
///
/// `target` with a `:` is a TCP bind address (`host:port`, port `0`
/// picks a free port); anything else is a Unix-socket path (created
/// fresh, replacing a leftover file). Binding happens synchronously so
/// errors surface to the caller; the accept loop then runs on a detached
/// thread for the life of the process. Returns the bound address — for
/// TCP the *resolved* address, so a `:0` caller learns the port.
///
/// # Errors
///
/// Bind failure, or a Unix-path target on a non-Unix platform.
pub fn serve_metrics<F>(target: &str, render: F) -> std::io::Result<String>
where
    F: Fn() -> String + Send + 'static,
{
    if target.contains(':') {
        let listener = std::net::TcpListener::bind(target)?;
        let bound = listener.local_addr()?.to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                let _ = respond(&mut stream, &render());
            }
        });
        return Ok(bound);
    }
    serve_metrics_unix(target, render)
}

/// [`serve_metrics`] for a daemon's `--metrics` flag: reports the bound
/// address, or the failure, on stderr after the daemon's `name`, and
/// returns whether the endpoint is up.
pub fn start_metrics<F>(name: &str, target: &str, render: F) -> bool
where
    F: Fn() -> String + Send + 'static,
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
    F: Fn() -> String + Send + 'static,
{
    let path = std::path::Path::new(target);
    // A leftover socket file from a dead daemon would fail the bind.
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    let bound = target.to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
            let _ = respond(&mut stream, &render());
        }
    });
    Ok(bound)
}

#[cfg(not(unix))]
fn serve_metrics_unix<F>(target: &str, _render: F) -> std::io::Result<String>
where
    F: Fn() -> String + Send + 'static,
{
    let _ = target;
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "Unix-socket metrics targets require a Unix platform; use host:port",
    ))
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
