//! A keep-alive HTTP/1.1 client for `GET /predict`, counted against the
//! benchmark's connection budget.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::limits::{Held, CONNS};

/// How the server says it satisfied a request (`x-pwf-source`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served from the result cache.
    Cache,
    /// Computed by this request.
    Computed,
    /// Joined another request's in-flight computation.
    Coalesced,
    /// No or unknown header.
    Other,
}

/// One open connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    _held: Held,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let held = CONNS.enter();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            _held: held,
        })
    }

    /// Sends `GET target` and reads the whole reply; the body lands in
    /// `body` (cleared first).
    ///
    /// # Errors
    ///
    /// Socket errors and malformed replies.
    pub fn get(&mut self, target: &str, body: &mut Vec<u8>) -> std::io::Result<(u16, Source)> {
        write!(self.writer, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
        self.writer.flush()?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {:?}", self.line)))?;
        let mut source = Source::Other;
        let mut length = 0usize;
        loop {
            self.line.clear();
            self.reader.read_line(&mut self.line)?;
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(std::io::Error::other)?;
                } else if name.eq_ignore_ascii_case("x-pwf-source") {
                    source = match value {
                        "cache" => Source::Cache,
                        "computed" => Source::Computed,
                        "coalesced" => Source::Coalesced,
                        _ => Source::Other,
                    };
                }
            }
        }
        body.clear();
        body.resize(length, 0);
        self.reader.read_exact(body)?;
        Ok((status, source))
    }
}
