//! A minimal blocking HTTP/1.1 client over one keep-alive connection.
//!
//! Just enough for the things this workspace points at its own server: the
//! integration tests, the CI session kill/resume check, and
//! `lithohd-loadgen` (whose closed-loop workers each hold one persistent
//! connection, exercising the keep-alive request loop the way a real
//! sidecar would). Not a general client: no chunked encoding, no TLS, no
//! redirects — the server speaks none of those either.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One persistent connection to an HTTP server, reopened for the next
/// request after a response that carries `Connection: close`.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
    read_timeout: Duration,
    /// The last response announced `Connection: close`.
    closed: bool,
}

/// A parsed response: status code, lowercased headers, body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `name: value` pairs, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body (Content-Length delimited).
    pub body: String,
}

impl HttpResponse {
    /// First value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let wanted = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == wanted)
            .map(|(_, value)| value.as_str())
    }
}

impl HttpClient {
    /// Connects with a read timeout so a wedged server fails the caller
    /// instead of hanging it.
    ///
    /// # Errors
    ///
    /// Propagates connection and socket-option failures.
    pub fn connect(addr: &str, read_timeout: Duration) -> io::Result<HttpClient> {
        let stream = open(addr, read_timeout)?;
        Ok(HttpClient {
            addr: stream.peer_addr()?,
            reader: BufReader::new(stream),
            read_timeout,
            closed: false,
        })
    }

    /// `GET path` on the persistent connection.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a malformed response is `InvalidData`.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body on the persistent connection.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a malformed response is `InvalidData`.
    pub fn post_json(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request("POST", path, Some(body))
    }

    /// Sends one request and reads one Content-Length-delimited response,
    /// leaving the connection open for the next call.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a malformed response is `InvalidData`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        if self.closed {
            self.reader = BufReader::new(open(self.addr, self.read_timeout)?);
            self.closed = false;
        }
        let payload = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: lithohd\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(payload.as_bytes())?;
        stream.flush()?;
        let response = self.read_response()?;
        self.closed = response
            .header("connection")
            .is_some_and(|value| value.eq_ignore_ascii_case("close"));
        Ok(response)
    }

    fn read_response(&mut self) -> io::Result<HttpResponse> {
        let malformed =
            |detail: &str| io::Error::new(io::ErrorKind::InvalidData, detail.to_string());
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(malformed("connection closed before status line"));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| malformed("unparseable status line"))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(malformed("connection closed inside headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| malformed("bad content-length"))?;
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| malformed("response body is not UTF-8"))?;
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }
}

/// Opens a connection with a read timeout, so a wedged server fails the
/// caller instead of hanging it.
fn open(addr: impl ToSocketAddrs, read_timeout: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_telemetry::{serve_http, HttpOptions, Request, Response};
    use std::sync::Arc;

    #[test]
    fn reconnects_when_the_server_closes_at_its_keep_alive_cap() {
        let options = HttpOptions {
            max_keep_alive: 2,
            ..HttpOptions::default()
        };
        let server = serve_http(
            "127.0.0.1:0",
            options,
            Arc::new(|_: &Request| Response::json(200, "{}")),
        )
        .expect("server starts");
        let addr = server.local_addr().to_string();
        let mut client = HttpClient::connect(&addr, Duration::from_secs(5)).expect("connects");
        for post in 0..5 {
            let response = client.post_json("/score", "{}").expect("post answered");
            assert_eq!(response.status, 200, "post {post}");
        }
    }
}
