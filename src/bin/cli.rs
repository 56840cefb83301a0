//! `amnesia-cli` — an interactive shell for the database with amnesia.
//!
//! ```text
//! $ cargo run --release --bin amnesia-cli
//! amnesia> \create sensors reading
//! amnesia> \load sensors zipf 5000
//! amnesia> SELECT COUNT(*), AVG(reading) FROM sensors
//! amnesia> \forget sensors rot 2000
//! amnesia> SELECT COUNT(*), AVG(reading) FROM sensors
//! amnesia> \quit
//! ```
//!
//! SQL statements run against the in-memory catalog through
//! `amnesia-sql`; `\`-commands manage tables, generate data, advance
//! epochs and — the point of the exercise — forget tuples under any of
//! the paper's amnesia policies.

use std::io::{BufRead, Write};

type CliResult<T> = std::result::Result<T, String>;

use amnesia::columnar::compress::summary_builds;
use amnesia::distrib::DistributionKind;
use amnesia::prelude::*;
use amnesia::sql::{run, QueryOutcome};

/// Interactive session state.
struct Session {
    db: Database,
    epoch: u64,
    rng: SimRng,
    domain: i64,
}

impl Session {
    fn new(seed: u64) -> Self {
        Self {
            db: Database::new(),
            epoch: 0,
            rng: SimRng::new(seed),
            domain: 100_000,
        }
    }

    /// Process one input line, returning the text to print.
    fn process(&mut self, line: &str) -> CliResult<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            return Ok(String::new());
        }
        if let Some(rest) = line.strip_prefix('\\') {
            return self.meta(rest);
        }
        match run(&self.db, line) {
            Ok(QueryOutcome::Rows(rs)) => Ok(format!("{}\n({} rows)", rs.render(), rs.rows.len())),
            Ok(QueryOutcome::Plan(plan)) => Ok(plan),
            Err(e) => Err(e.render(line)),
        }
    }

    fn meta(&mut self, cmd: &str) -> CliResult<String> {
        let parts: Vec<&str> = cmd.split_whitespace().collect();
        match parts.as_slice() {
            ["help"] | ["h"] => Ok(HELP.trim().to_string()),
            ["tables"] | ["d"] => {
                if self.db.num_tables() == 0 {
                    return Ok("no tables — \\create one".into());
                }
                let mut out = String::new();
                for id in 0..self.db.num_tables() {
                    let t = self.db.table(id);
                    let cols: Vec<&str> = t
                        .schema()
                        .columns()
                        .iter()
                        .map(|c| c.name.as_str())
                        .collect();
                    out.push_str(&format!(
                        "{} ({}) — {} active / {} physical rows\n",
                        self.db.table_name(id).unwrap_or("?"),
                        cols.join(", "),
                        t.active_rows(),
                        t.num_rows()
                    ));
                }
                Ok(out.trim_end().to_string())
            }
            ["create", name, cols @ ..] if !cols.is_empty() => {
                if self.db.table_id(name).is_some() {
                    return Err(format!("table `{name}` already exists"));
                }
                self.db.add_table(
                    *name,
                    Schema::new(cols.iter().map(|c| c.to_string()).collect()),
                );
                Ok(format!(
                    "created table {name} with {} column(s)",
                    cols.len()
                ))
            }
            ["load", table, dist, n] => {
                let id = self.table_id(table)?;
                if self.db.table(id).schema().arity() != 1 {
                    return Err("\\load needs a single-column table".into());
                }
                let n: usize = n.parse().map_err(|_| format!("bad count `{n}`"))?;
                let kind = match *dist {
                    "serial" => DistributionKind::Serial,
                    "uniform" => DistributionKind::Uniform,
                    "normal" => DistributionKind::normal_default(),
                    "zipf" | "zipfian" => DistributionKind::zipfian_default(),
                    other => return Err(format!("unknown distribution `{other}`")),
                };
                let mut d = kind.build(self.domain, self.rng.next_u64());
                let values: Vec<i64> = (0..n).map(|_| d.sample(&mut self.rng)).collect();
                self.db
                    .table_mut(id)
                    .insert_batch(&values, self.epoch)
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "loaded {n} {dist} values into {table} at epoch {}",
                    self.epoch
                ))
            }
            ["insert", table, rows @ ..] if !rows.is_empty() => {
                let id = self.table_id(table)?;
                let arity = self.db.table(id).schema().arity();
                let mut count = 0;
                for row in rows {
                    let values: Vec<i64> = row
                        .split(',')
                        .map(|v| v.trim().parse().map_err(|_| format!("bad value `{v}`")))
                        .collect::<CliResult<_>>()?;
                    if values.len() != arity {
                        return Err(format!(
                            "row `{row}` has {} values, table has {arity} columns",
                            values.len()
                        ));
                    }
                    self.db
                        .table_mut(id)
                        .insert(&values, self.epoch)
                        .map_err(|e| e.to_string())?;
                    count += 1;
                }
                Ok(format!("inserted {count} row(s) at epoch {}", self.epoch))
            }
            ["forget", table, policy, n] => {
                let id = self.table_id(table)?;
                let n: usize = n.parse().map_err(|_| format!("bad count `{n}`"))?;
                let kind = parse_policy(policy)?;
                let mut p = kind.build();
                let victims = {
                    let ctx = PolicyContext {
                        table: self.db.table(id),
                        epoch: self.epoch,
                    };
                    p.select_victims(&ctx, n, &mut self.rng)
                };
                let forgotten = victims.len();
                for v in victims {
                    self.db
                        .table_mut(id)
                        .forget(v, self.epoch)
                        .map_err(|e| e.to_string())?;
                }
                Ok(format!(
                    "forgot {forgotten} tuple(s) from {table} under `{}` — {} remain active",
                    kind.name(),
                    self.db.table(id).active_rows()
                ))
            }
            ["stats", table] => {
                let t = self.db.table(self.table_id(table)?);
                let m = t.memory_breakdown();
                let per_row = |bytes: usize| bytes as f64 / t.active_rows().max(1) as f64;
                let mut out = format!(
                    "{table}: {} active / {} physical rows, {} frozen blocks, {} rows in dropped blocks\n\
                     resident {} B ({:.2} B per active row)\n",
                    t.active_rows(),
                    t.num_rows(),
                    t.frozen_blocks(),
                    t.dropped_rows(),
                    m.total(),
                    per_row(m.total()),
                );
                for (what, bytes, why) in [
                    ("payload", m.payload, "hot tails, frozen blocks, block headers"),
                    ("activity", m.activity, "active bitmap, 1 bit per physical row"),
                    (
                        "death epochs",
                        m.death_epochs,
                        "1-byte codes per row of resident blocks that lost a row, runs of dropped ones",
                    ),
                    (
                        "row metadata",
                        m.row_metadata,
                        "access pages of resident blocks, insert-epoch runs",
                    ),
                ] {
                    out.push_str(&format!(
                        "  {what:<13}{bytes:>12} B {:>8.2} B/row  {why}\n",
                        per_row(bytes)
                    ));
                }
                out.push_str(&format!(
                    "  summary_builds {:>10}    column summaries built this session: one per column a statement references, after each burst of mutations",
                    summary_builds()
                ));
                Ok(out)
            }
            ["epoch"] => {
                self.epoch += 1;
                Ok(format!("advanced to epoch {}", self.epoch))
            }
            ["domain", v] => {
                self.domain = v.parse().map_err(|_| format!("bad domain `{v}`"))?;
                Ok(format!("value domain set to 0..{}", self.domain))
            }
            ["quit"] | ["q"] => Err("quit".into()),
            other => Err(format!(
                "unknown command \\{} — try \\help",
                other.first().copied().unwrap_or("")
            )),
        }
    }

    fn table_id(&self, name: &str) -> CliResult<usize> {
        self.db
            .table_id(name)
            .ok_or_else(|| format!("unknown table `{name}`"))
    }
}

/// Parse a policy name into its recipe with the defaults the paper and
/// the repro experiments use.
fn parse_policy(name: &str) -> CliResult<PolicyKind> {
    Ok(match name {
        "fifo" => PolicyKind::Fifo,
        "uniform" => PolicyKind::Uniform,
        "ante" | "anterograde" => PolicyKind::Anterograde { bias: 3.0 },
        "rot" => PolicyKind::Rot { high_water_age: 2 },
        "area" => PolicyKind::Area,
        "lru" => PolicyKind::Lru,
        "overuse" => PolicyKind::Overuse,
        "ttl" => PolicyKind::Ttl { max_age: 3 },
        "pair" => PolicyKind::Pair,
        "aligned" => PolicyKind::Aligned { bins: 32 },
        "cost" => PolicyKind::CostBased {
            bins: 64,
            gamma: 1.0,
        },
        "ebbinghaus" => PolicyKind::Ebbinghaus {
            base_strength: 1.0,
            rehearsal_boost: 1.0,
        },
        "decay" => PolicyKind::Decay {
            alpha: 0.4,
            protect_age: 1,
        },
        other => return Err(format!("unknown policy `{other}` — try \\help")),
    })
}

const HELP: &str = r#"
SQL:   SELECT [cols | COUNT/SUM/AVG/MIN/MAX(col)] FROM t [JOIN u ON a = b]
       [WHERE pred [AND ...]] [GROUP BY col] [ORDER BY col [DESC]] [LIMIT n]
       EXPLAIN SELECT ...
Meta:  \create <table> <col> [col ...]   make a table
       \load <table> <dist> <n>          generate data (serial|uniform|normal|zipf)
       \insert <table> <v1,v2> [...]     insert literal rows
       \forget <table> <policy> <n>      forget n tuples (fifo|uniform|ante|rot|
                                         area|lru|overuse|ttl|pair|aligned|cost|
                                         ebbinghaus|decay)
       \epoch                            advance the logical clock
       \domain <n>                       set the \load value domain
       \tables                           list tables
       \stats <table>                    resident bytes: payload / activity / death epochs /
                                         row metadata
       \quit                             leave
"#;

fn main() {
    let mut session = Session::new(0xC1D8_2017);
    let stdin = std::io::stdin();
    let interactive = std::env::args().all(|a| a != "--batch");
    let mut out = std::io::stdout();
    if interactive {
        println!("amnesia-cli — a database system that forgets. \\help for help.");
    }
    loop {
        if interactive {
            print!("amnesia> ");
            out.flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        match session.process(&line) {
            Ok(text) if text.is_empty() => {}
            Ok(text) => println!("{text}"),
            Err(e) if e == "quit" => break,
            Err(e) => println!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(s: &mut Session, line: &str) -> String {
        s.process(line).unwrap_or_else(|e| panic!("`{line}`: {e}"))
    }

    #[test]
    fn create_load_query_forget_flow() {
        let mut s = Session::new(1);
        ok(&mut s, r"\create sensors reading");
        ok(&mut s, r"\load sensors uniform 500");
        let before = ok(&mut s, "SELECT COUNT(*) FROM sensors");
        assert!(before.contains("500"), "{before}");
        let msg = ok(&mut s, r"\forget sensors rot 200");
        assert!(msg.contains("300 remain active"), "{msg}");
        let after = ok(&mut s, "SELECT COUNT(*) FROM sensors");
        assert!(after.contains("300"), "{after}");
    }

    #[test]
    fn insert_literal_rows_and_join() {
        let mut s = Session::new(2);
        ok(&mut s, r"\create customers id region");
        ok(&mut s, r"\create orders customer_id amount");
        ok(&mut s, r"\insert customers 1,10 2,20");
        ok(&mut s, r"\insert orders 1,100 1,50 2,75");
        let out = ok(
            &mut s,
            "SELECT c.region, SUM(o.amount) AS total FROM customers c \
             JOIN orders o ON c.id = o.customer_id GROUP BY c.region ORDER BY total DESC",
        );
        assert!(out.contains("150"), "{out}");
        assert!(out.contains("(2 rows)"), "{out}");
    }

    #[test]
    fn every_advertised_policy_parses() {
        for name in [
            "fifo",
            "uniform",
            "ante",
            "rot",
            "area",
            "lru",
            "overuse",
            "ttl",
            "pair",
            "aligned",
            "cost",
            "ebbinghaus",
            "decay",
        ] {
            assert!(parse_policy(name).is_ok(), "{name}");
        }
        assert!(parse_policy("lethe").is_err());
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::new(3);
        assert!(s.process(r"\forget nope fifo 10").is_err());
        assert!(s.process(r"\load nope uniform 10").is_err());
        assert!(s.process(r"\bogus").is_err());
        assert!(s.process("SELECT * FROM missing").is_err());
        // Session still works afterwards.
        ok(&mut s, r"\create t a");
        ok(&mut s, r"\insert t 5");
        let out = ok(&mut s, "SELECT * FROM t");
        assert!(out.contains("(1 rows)"));
    }

    #[test]
    fn meta_state_commands() {
        let mut s = Session::new(4);
        assert!(ok(&mut s, r"\epoch").contains("epoch 1"));
        assert!(ok(&mut s, r"\domain 5000").contains("5000"));
        ok(&mut s, r"\create t a");
        let tables = ok(&mut s, r"\tables");
        assert!(tables.contains("t (a)"), "{tables}");
        assert!(ok(&mut s, r"\help").contains("\\forget"));
        ok(&mut s, r"\load t uniform 3000");
        ok(&mut s, r"\forget t fifo 100");
        let stats = ok(&mut s, r"\stats t");
        assert!(
            stats.contains("2900 active / 3000 physical rows"),
            "{stats}"
        );
        for part in [
            "payload",
            "activity",
            "death epochs",
            "row metadata",
            "summary_builds",
        ] {
            assert!(stats.contains(part), "{stats}");
        }
        // Comments and blank lines are silent.
        assert_eq!(ok(&mut s, "-- nothing"), "");
        assert_eq!(ok(&mut s, "   "), "");
        // quit signals through the error channel.
        assert_eq!(s.process(r"\quit").unwrap_err(), "quit");
    }

    #[test]
    fn arity_mismatch_and_duplicates_rejected() {
        let mut s = Session::new(5);
        ok(&mut s, r"\create t a b");
        assert!(s.process(r"\insert t 1").is_err());
        assert!(s.process(r"\create t x").is_err());
        assert!(s.process(r"\load t uniform 10").is_err(), "multi-col load");
    }
}
