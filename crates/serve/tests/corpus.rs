//! Wire-protocol mutation corpus (the PR 4 LCG pattern extended to the
//! serving layer): mutated request lines must produce structured
//! per-request errors — never a panic, never a wedged engine. After
//! every hostile input the engine must still answer a known-good query.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use plssvm_serve::{parse_line, Engine, EngineConfig, ServeModel, SystemClock};

/// Deterministic 64-bit LCG (MMIX constants); no external RNG crates.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// f(x) = x1 − x2 over 2 features; `1 1:1` answers `1`.
const MODEL: &str = "svm_type c_svc\nkernel_type linear\nnr_class 2\ntotal_sv 2\nrho 0\nlabel 1 -1\nnr_sv 1 1\nSV\n1 1:1\n-1 2:1\n";

/// Valid LIBSVM-format request lines.
const LIBSVM_SEED: &str = "\
1 1:0.5 2:1.25
-1 2:-2e-1
1:1e3 2:-1
-1
# comment
";

/// Valid JSON-format request lines.
const JSON_SEED: &str = "\
{\"id\": 1, \"features\": [0.5, -1.5]}
{\"features\": [2]}
{\"id\": \"r-2\", \"features\": [], \"meta\": {\"k\": [1, null, true]}}
{\"id\": -3.5, \"features\": [1e2, -0.25]}
";

/// Hostile wire tokens: overflowing indices, non-finite values,
/// truncated pairs, malformed JSON, deep nesting, huge length claims.
const NASTY_TOKENS: &[&str] = &[
    "4294967295:1",
    "18446744073709551615:1",
    "16777217:1",
    "1:1e999999999",
    "nan",
    "nan:nan",
    ":",
    "1:",
    ":1",
    "0:1",
    "-1:5",
    "1:1:1",
    "0x41",
    "{",
    "}",
    "{\"features\"",
    "{\"features\":}",
    "{\"features\":[}",
    "{\"features\":[1,]}",
    "{\"features\":[1,2],}",
    "{\"id\":}",
    "{\"id\":\"unterminated",
    "{\"id\":\"\\u12\"}",
    "{\"features\":[1], \"features\":[2,3]}",
    "{\"features\":[1e999]}",
    "null",
    "[1,2]",
    "\"just a string\"",
];

fn mutate(seed: &str, rng: &mut Lcg) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    match rng.below(6) {
        // flip a random byte
        0 => {
            if !bytes.is_empty() {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        // truncate at a random point
        1 => {
            let i = rng.below(bytes.len() + 1);
            bytes.truncate(i);
        }
        // splice a hostile token at a random position
        2 => {
            let tok = NASTY_TOKENS[rng.below(NASTY_TOKENS.len())];
            let i = rng.below(bytes.len() + 1);
            bytes.splice(i..i, tok.bytes());
        }
        // replace a whole line with a hostile token
        3 => {
            let mut lines: Vec<&str> = seed.lines().collect();
            if !lines.is_empty() {
                let i = rng.below(lines.len());
                lines[i] = NASTY_TOKENS[rng.below(NASTY_TOKENS.len())];
            }
            bytes = lines.join("\n").into_bytes();
        }
        // duplicate a random line
        4 => {
            let mut lines: Vec<&str> = seed.lines().collect();
            if !lines.is_empty() {
                let i = rng.below(lines.len());
                lines.insert(i, lines[i]);
            }
            bytes = lines.join("\n").into_bytes();
        }
        // concatenate two random lines (joins a JSON object to a LIBSVM row)
        _ => {
            let mut lines: Vec<String> = seed.lines().map(str::to_owned).collect();
            if lines.len() >= 2 {
                let i = rng.below(lines.len() - 1);
                let tail = lines.remove(i + 1);
                lines[i].push_str(&tail);
            }
            bytes = lines.join("\n").into_bytes();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn engine() -> Engine {
    Engine::new(
        ServeModel::from_text(MODEL).unwrap(),
        EngineConfig {
            max_batch: 1,
            ..EngineConfig::default()
        },
        Arc::new(SystemClock::new()),
    )
}

#[test]
fn mutated_wire_lines_never_panic_and_never_wedge_the_engine() {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let e = engine();
    let mut failures = Vec::new();
    for (seed_name, seed) in [("libsvm", LIBSVM_SEED), ("json", JSON_SEED)] {
        let mut rng = Lcg(0x0005_e12e ^ seed.len() as u64);
        for round in 0..300 {
            let mutant = mutate(seed, &mut rng);
            for line in mutant.lines() {
                // the parser alone must never panic
                if catch_unwind(AssertUnwindSafe(|| {
                    let _ = parse_line(line);
                }))
                .is_err()
                {
                    failures.push(format!(
                        "parse_line panicked on seed '{seed_name}' round {round}: {line:?}"
                    ));
                    continue;
                }
                // the full engine round-trip must answer (or skip) the
                // line without panicking or hanging
                if catch_unwind(AssertUnwindSafe(|| {
                    let _ = e.respond_line(line);
                }))
                .is_err()
                {
                    failures.push(format!(
                        "engine panicked on seed '{seed_name}' round {round}: {line:?}"
                    ));
                }
            }
        }
        // the engine survived the whole corpus and still serves
        assert_eq!(e.respond_line("1 1:1").as_deref(), Some("1"));
    }
    e.shutdown();

    std::panic::set_hook(prev_hook);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn hostile_one_liners_get_structured_errors_not_wedges() {
    let e = engine();
    for &tok in NASTY_TOKENS {
        let response = e.respond_line(tok);
        // every hostile token must either be ignored (never the case for
        // these, but allowed by contract) or answered with one line —
        // malformed ones with a structured error object
        if let Some(r) = &response {
            assert!(!r.is_empty(), "empty response for {tok:?}");
            assert!(!r.contains('\n'), "multi-line response for {tok:?}");
        }
        // and the engine keeps serving after each one
        assert_eq!(
            e.respond_line("1 1:1").as_deref(),
            Some("1"),
            "engine wedged after {tok:?}"
        );
    }
    e.shutdown();
}

#[test]
fn error_responses_are_themselves_valid_protocol_lines() {
    let e = engine();
    // a malformed JSON request echoes its id inside a JSON error object
    let r = e
        .respond_line("{\"id\": 7, \"features\": [1, \"x\"]}")
        .unwrap();
    assert!(r.starts_with("{\"id\":7,\"error\":"), "{r}");
    // out-of-range feature indices are per-request errors with the model
    // width in the message
    let r = e.respond_line("1 9:1").unwrap();
    assert!(r.contains("expects 2 features"), "{r}");
    e.shutdown();
}
