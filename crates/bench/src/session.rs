//! The JSONL session loop of `noc_serve` and `noc_fleet`: request lines
//! in, response events out (wire contract and framing rules in
//! `SERVICE.md`, "Running the daemon").

use std::io::{BufRead, Write};
use std::path::Path;
use std::process::ExitCode;

use noc_sprinting::service::{read_capped_line, ServiceControl, ServiceResponse};

/// The longest request line a session reads, in bytes (16 MiB, room for
/// over 100k jobs). A longer line is answered with an `error` event and
/// discarded without being buffered.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// A daemon's request handler: serves one request line, emitting its
/// response events, and says whether to keep serving.
pub type Handler<'a> = dyn Fn(&str, &mut dyn FnMut(ServiceResponse)) -> ServiceControl + Sync + 'a;

/// Serves `handler` on stdin/stdout, or on the Unix socket at `socket`
/// (one thread per connection; a `shutdown` on any connection stops the
/// daemon once that connection drains). `name` prefixes stderr lines: a
/// failed connection is reported there, and so is the error that ends the
/// daemon (I/O on stdin/stdout or the listener; `--socket` on a non-Unix
/// platform), which makes the exit status 1.
pub fn serve(name: &str, socket: Option<&Path>, handler: &Handler<'_>) -> ExitCode {
    let served = match socket {
        Some(path) => serve_socket(name, path, handler),
        None => serve_lines(std::io::stdin().lock(), std::io::stdout().lock(), handler).map(drop),
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The line buffer a session keeps between requests, in bytes: a longer
/// line's buffer is given back once it has been served.
const KEPT_LINE: usize = 64 << 10;

/// Serves the request lines of `reader` until end of input, or until a
/// `shutdown`, which it then returns. Every event is written to `writer`
/// and flushed at once: clients block on the stream mid-batch. Blank lines
/// are skipped; a line that is too long or not UTF-8 gets an `error` event.
/// One line buffer and one event buffer serve the whole session. Fails
/// only on I/O failure on either stream.
fn serve_lines(
    mut reader: impl BufRead,
    mut writer: impl Write,
    handler: &Handler<'_>,
) -> std::io::Result<ServiceControl> {
    let mut line = Vec::new();
    let mut event = String::new();
    loop {
        line.clear();
        line.shrink_to(KEPT_LINE);
        let (consumed, too_long) = read_capped_line(&mut reader, &mut line, MAX_REQUEST_LINE)?;
        if consumed == 0 {
            return Ok(ServiceControl::Continue);
        }
        let text = if too_long {
            Err(format!(
                "bad request: line longer than MAX_REQUEST_LINE ({MAX_REQUEST_LINE} bytes)"
            ))
        } else {
            let text = match line.strip_suffix(b"\n") {
                Some(text) => text.strip_suffix(b"\r").unwrap_or(text),
                None => &line,
            };
            std::str::from_utf8(text)
                .map_err(|e| format!("bad request: line is not valid UTF-8 ({e})"))
        };
        let text = match text {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => text,
            Err(message) => {
                let error = ServiceResponse::Error { id: None, message };
                write_event(&mut writer, &mut event, &error)?;
                continue;
            }
        };
        let mut io_err = None;
        let control = handler(text, &mut |ev: ServiceResponse| {
            if io_err.is_none() {
                io_err = write_event(&mut writer, &mut event, &ev).err();
            }
        });
        if let Some(e) = io_err {
            return Err(e);
        }
        if control == ServiceControl::Shutdown {
            return Ok(control);
        }
    }
}

/// Writes `ev` as one line through `buf`, which is reused for every event.
fn write_event(
    out: &mut impl Write,
    buf: &mut String,
    ev: &ServiceResponse,
) -> std::io::Result<()> {
    buf.clear();
    ev.write_json_line(buf);
    buf.push('\n');
    out.write_all(buf.as_bytes())?;
    out.flush()
}

#[cfg(unix)]
fn serve_socket(name: &str, path: &Path, handler: &Handler<'_>) -> std::io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

    // A leftover socket file from a dead daemon would fail the bind.
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    eprintln!("{name}: listening on {}", path.display());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for stream in listener.incoming() {
            if stop.load(SeqCst) {
                break;
            }
            let stream = stream?;
            s.spawn(|| {
                let reader = stream.try_clone().map(std::io::BufReader::new);
                match reader.and_then(|r| serve_lines(r, std::io::BufWriter::new(stream), handler))
                {
                    Ok(ServiceControl::Shutdown) => {
                        stop.store(true, SeqCst);
                        // A self-connection makes `incoming` yield, so the
                        // accept loop sees the stop promptly.
                        let _ = UnixStream::connect(path);
                    }
                    Ok(ServiceControl::Continue) => {}
                    Err(e) => eprintln!("{name}: connection error: {e}"),
                }
            });
        }
        Ok(())
    })
}

#[cfg(not(unix))]
fn serve_socket(_name: &str, _path: &Path, _handler: &Handler<'_>) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "--socket requires a Unix platform; use stdin/stdout mode",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sprinting::service::ServiceRequest;

    /// Answers `ping` with `pong`, stops on `shutdown`, and reports
    /// anything else as an `error` naming what it got.
    fn handler(line: &str, emit: &mut dyn FnMut(ServiceResponse)) -> ServiceControl {
        match ServiceRequest::from_json_line(line) {
            Ok(ServiceRequest::Ping) => emit(ServiceResponse::Pong {
                uptime_ms: 0.0,
                code_version: "test".into(),
                engine: "test".into(),
            }),
            Ok(ServiceRequest::Shutdown) => return ServiceControl::Shutdown,
            other => emit(ServiceResponse::Error {
                id: None,
                message: format!("{other:?}"),
            }),
        }
        ServiceControl::Continue
    }

    /// Runs one session over `input`; returns its control and the type
    /// (and, for errors, the message) of every event written.
    fn session(input: &[u8]) -> (ServiceControl, Vec<String>) {
        let mut out = Vec::new();
        let control = serve_lines(input, &mut out, &handler).expect("in-memory session");
        let events = String::from_utf8(out)
            .expect("events are UTF-8")
            .lines()
            .map(
                |l| match ServiceResponse::from_json_line(l).expect("event parses") {
                    ServiceResponse::Pong { .. } => "pong".to_string(),
                    ServiceResponse::Error { id: None, message } => format!("error: {message}"),
                    other => panic!("unexpected event {other:?}"),
                },
            )
            .collect();
        (control, events)
    }

    const PING: &[u8] = b"{\"type\":\"ping\"}\n";

    #[test]
    fn an_over_long_line_is_answered_and_skipped() {
        let mut input = vec![b'x'; MAX_REQUEST_LINE + 1];
        input.push(b'\n');
        input.extend_from_slice(PING);
        let (control, events) = session(&input);
        assert_eq!(control, ServiceControl::Continue);
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(
            events[0].contains("MAX_REQUEST_LINE (16777216 bytes)"),
            "{}",
            events[0]
        );
        assert_eq!(events[1], "pong");
    }

    #[test]
    fn a_line_at_the_cap_is_served() {
        // Blank at the cap: skipped like any blank line, no error.
        let mut input = vec![b' '; MAX_REQUEST_LINE];
        input.push(b'\n');
        input.extend_from_slice(PING);
        assert_eq!(session(&input).1, ["pong"]);
    }

    #[test]
    fn a_non_utf8_line_is_answered_and_skipped() {
        let input = [PING, b"\xff\xfe\n", PING].concat();
        let (_, events) = session(&input);
        assert_eq!(events.len(), 3, "{events:?}");
        assert!(events[1].starts_with("error: bad request: line is not valid UTF-8"));
        assert_eq!([&events[0], &events[2]], ["pong", "pong"]);
    }

    #[test]
    fn blank_lines_are_skipped_and_shutdown_ends_the_session() {
        let input = b"\n  \r\n{\"type\":\"ping\"}\r\n{\"type\":\"shutdown\"}\n{\"type\":\"ping\"}";
        assert_eq!(
            session(input),
            (ServiceControl::Shutdown, vec!["pong".to_string()])
        );
        // A last line without its newline is still served.
        assert_eq!(session(b"{\"type\":\"ping\"}").1, ["pong"]);
    }
}
