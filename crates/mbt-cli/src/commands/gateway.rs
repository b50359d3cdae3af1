//! `mbt gateway` — stand up a live gateway and probe it with a search.

use std::fmt::Write as _;
use std::time::Duration;

use dtn_trace::NodeId;
use mbt_core::transport::live::{LiveBus, LiveGatewaySpec};
use mbt_core::transport::WireMessage;
use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};

use crate::args::Args;
use crate::CliError;

/// Usage text for the subcommand.
pub const USAGE: &str = "mbt gateway --query TEXT [--limit N] [--catalog N]

Stands up a gateway answering from a ServerSnapshot on the live frame bus,
sends it one Search frame from a probe node, lets it answer, and prints the
SearchResults frame that comes back. The catalog is N built-in demo
entries. Demonstrates the Search / SearchResults frames on the live bus
without a session. --limit takes 1 to 64 and --catalog 1 to 5; a value
outside is an error, not clamped.";

/// The built-in demo catalog: (name, publisher, popularity).
const DEMO: &[(&str, &str, f64)] = &[
    ("fox evening news", "FOX", 0.9),
    ("abc morning show", "ABC", 0.7),
    ("campus jazz podcast", "WXYC", 0.5),
    ("weather forecast daily", "NOAA", 0.4),
    ("open source radio news", "FLOSS", 0.2),
];

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let query_text = args
        .opt_str("query")
        .ok_or_else(|| CliError::Usage(format!("--query is required\n\n{USAGE}")))?;
    let query = Query::new(query_text)
        .map_err(|_| CliError::Usage("--query needs at least one word".to_string()))?;
    let limit = args.parse_in("limit", 8usize, 1..=64, "an integer from 1 to 64")?;
    let catalog = args.parse_in(
        "catalog",
        DEMO.len(),
        1..=DEMO.len(),
        "an integer from 1 to 5",
    )?;

    let mut server = MetadataServer::new(1);
    for (i, &(name, publisher, pop)) in DEMO.iter().take(catalog).enumerate() {
        let uri = Uri::new(format!("mbt://catalog/{i}")).expect("static uri");
        server.publish(
            Metadata::builder(name, publisher, uri).build(),
            Popularity::new(pop),
        );
    }

    let gateway = LiveGatewaySpec {
        id: NodeId::new(100),
        snapshot: server.snapshot(),
    };
    let probe_id = NodeId::new(0);
    let bus = LiveBus::new();
    bus.open(probe_id, gateway.id);
    bus.send(
        probe_id,
        gateway.id,
        &WireMessage::Search {
            query: query.clone(),
            limit: limit as u32,
        },
    );
    gateway.serve_queued(&bus);
    // The answer is already queued, so this returns it without waiting.
    let reply = bus.recv(probe_id, Duration::ZERO);
    bus.close(probe_id, gateway.id);

    let mut out = String::new();
    let _ = writeln!(out, "search `{}` (limit {limit})", query.text());
    match reply {
        Some((from, WireMessage::SearchResults { results })) => {
            let _ = writeln!(
                out,
                "gateway {} answered with {} result(s):",
                from.index(),
                results.len()
            );
            for (meta, pop) in results {
                let _ = writeln!(
                    out,
                    "  {:<28} {}  popularity {:.2}",
                    meta.name(),
                    meta.uri(),
                    pop.value()
                );
            }
        }
        Some((from, other)) => {
            return Err(CliError::Usage(format!(
                "unexpected {} frame from node {}",
                other.kind(),
                from.index()
            )));
        }
        None => {
            return Err(CliError::Usage(
                "the gateway never answered the probe".to_string(),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        crate::parse_line("gateway", s)
    }

    #[test]
    fn probe_gets_matching_results() {
        let out = run(&args("--query news")).unwrap();
        assert!(out.contains("fox evening news"), "{out}");
        assert!(out.contains("mbt://catalog/0"));
        assert!(!out.contains("campus jazz"), "jazz does not match news");
    }

    #[test]
    fn limit_caps_results() {
        let out = run(&args("--query news --limit 1")).unwrap();
        assert!(out.contains("1 result(s)"), "{out}");
    }

    #[test]
    fn catalog_is_at_most_the_demo_entries() {
        let out = run(&args("--query news --catalog 5")).unwrap();
        assert!(out.contains("open source radio news"), "{out}");
        let err = run(&args("--query news --catalog 6")).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "--catalog expects an integer from 1 to {}, got `6`",
                DEMO.len()
            )
        );
    }

    #[test]
    fn missing_query_is_a_usage_error() {
        let err = run(&args("")).unwrap_err();
        assert!(err.to_string().contains("--query is required"));
    }
}
